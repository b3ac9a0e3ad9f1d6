//! The per-layer metrics: counters summed over one pass of a workload's
//! query list, busy times from span self times, and the ratios between
//! them (each listed next to its bases).

use crate::measure::{median, Ratio};
use crate::trace::{nanos, Tracer};
use crate::Metric;
use std::collections::BTreeMap;
use tkij::core::{Assignment, LocalJoinStats, TopBucketsStats};
use tkij::mapreduce::JobMetrics;

/// Span names of the layers a query passes through. Their self times
/// are the layers' busy times.
pub const STATS: &str = "stats";
pub const TOPBUCKETS: &str = "topbuckets";
pub const DISTRIBUTE: &str = "distribute";
pub const JOIN: &str = "join";
pub const JOIN_MAP: &str = "join.map";
pub const JOIN_SHUFFLE: &str = "join.shuffle";
pub const JOIN_REDUCE: &str = "join.reduce";
pub const MERGE: &str = "merge";
pub const SERVING: &str = "serving";
/// Layers whose self times should account for a traced pass.
pub const QUERY_LAYERS: [&str; 7] =
    [TOPBUCKETS, DISTRIBUTE, JOIN_MAP, JOIN_SHUFFLE, JOIN_REDUCE, MERGE, SERVING];

/// Work counters of one pass (solo workloads: the query list once;
/// `serve-mix`: each of the six shapes once).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub tb_candidates: f64,
    pub tb_selected: f64,
    pub tb_solver_calls: f64,
    pub assignments_scored: f64,
    pub replication_factors: Vec<f64>,
    pub shuffle_records: f64,
    pub shuffle_bytes: f64,
    pub spill_segments: f64,
    pub spill_bytes: f64,
    pub reduce_skews: Vec<f64>,
    pub index_probes: f64,
    pub items_scanned: f64,
    pub candidates_visited: f64,
    pub tuples_scored: f64,
    pub combos: Ratio,
}

impl Counters {
    /// Planning work: the TopBuckets selection and the reducer
    /// assignment of one query.
    pub fn add_plan(&mut self, tb: &TopBucketsStats, assignment: &Assignment) {
        self.tb_candidates += tb.candidates as f64;
        self.tb_selected += tb.selected as f64;
        self.tb_solver_calls += tb.solver_calls as f64;
        self.assignments_scored += assignment.assignments_scored as f64;
        self.replication_factors.push(assignment.replication_factor);
    }

    /// The join job and its reducers' local joins for one query.
    pub fn add_join(&mut self, job: &JobMetrics, local: &[LocalJoinStats]) {
        self.shuffle_records += job.total_shuffle_records() as f64;
        self.shuffle_bytes += job.total_shuffle_bytes() as f64;
        self.spill_segments += job.shuffle.spill_segments as f64;
        self.spill_bytes += job.shuffle.spill_bytes as f64;
        self.reduce_skews.push(job.imbalance());
        for s in local {
            self.index_probes += s.index_probes as f64;
            self.items_scanned += s.items_scanned as f64;
            self.candidates_visited += s.candidates_visited as f64;
            self.tuples_scored += s.tuples_scored as f64;
            self.combos.add(s.combos_processed as f64, s.combos_assigned as f64);
        }
    }
}

/// What the serving layer adds to a `serve-mix` trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServingLayer {
    pub plan_cache_hits: Ratio,
    pub plan_cache_evictions: f64,
    pub index_pool_entries: f64,
    pub overhead_ms: f64,
    /// Queries served per second over the untraced window, both clients.
    pub qps: f64,
    /// Client-side latency over the untraced window; p99 is 0 when fewer
    /// than ten samples lie beyond it.
    pub latency_samples: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// The server's own histogram p99 (a power-of-two bucket bound),
    /// only for comparison with the measured one.
    pub histogram_p99_ms: f64,
}

/// Everything a traced run reports.
#[derive(Debug, Default, Clone)]
pub struct LayerReport {
    /// Median prepare time over the traced set-ups, ms.
    pub stats_busy_ms: f64,
    /// Self time per span name over one pass, ms.
    pub busy_ms: BTreeMap<&'static str, f64>,
    pub counters: Counters,
    pub serving: ServingLayer,
    /// Traced pass (or served query) time over the untraced one, minus 1.
    pub overhead: Ratio,
    /// Layer self time over traced root-span time.
    pub layer_share: Ratio,
}

impl LayerReport {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let busy = |name: &str| self.busy_ms.get(name).copied().unwrap_or(0.0);
        let c = &self.counters;
        let s = &self.serving;
        let tb_kept = Ratio { part: c.tb_selected, base: c.tb_candidates };
        let scored = Ratio { part: c.tuples_scored, base: c.candidates_visited };
        let replication = median(&c.replication_factors).unwrap_or(0.0);
        let skew = median(&c.reduce_skews).unwrap_or(0.0);
        vec![
            Metric::new("stats.busy_ms", self.stats_busy_ms, "ms"),
            Metric::new("topbuckets.busy_ms", busy(TOPBUCKETS), "ms"),
            Metric::new("topbuckets.candidates", c.tb_candidates, "count"),
            Metric::new("topbuckets.selected", c.tb_selected, "count"),
            Metric::new("topbuckets.solver_calls", c.tb_solver_calls, "count"),
            Metric::new("topbuckets.kept_ratio", tb_kept.value(), "ratio"),
            Metric::new("distribute.busy_ms", busy(DISTRIBUTE), "ms"),
            Metric::new("distribute.assignments_scored", c.assignments_scored, "count"),
            Metric::new("distribute.replication_factor", replication, "ratio"),
            Metric::new("join.map_busy_ms", busy(JOIN_MAP), "ms"),
            Metric::new("join.shuffle_ms", busy(JOIN_SHUFFLE), "ms"),
            Metric::new("join.reduce_busy_ms", busy(JOIN_REDUCE), "ms"),
            Metric::new("join.driver_ms", busy(JOIN), "ms"),
            Metric::new("join.shuffle_records", c.shuffle_records, "count"),
            Metric::new("join.shuffle_bytes", c.shuffle_bytes, "bytes"),
            Metric::new("join.spill_segments", c.spill_segments, "count"),
            Metric::new("join.spill_bytes", c.spill_bytes, "bytes"),
            Metric::new("join.reduce_skew", skew, "ratio"),
            Metric::new("localjoin.index_probes", c.index_probes, "count"),
            Metric::new("localjoin.items_scanned", c.items_scanned, "count"),
            Metric::new("localjoin.candidates_visited", c.candidates_visited, "count"),
            Metric::new("localjoin.tuples_scored", c.tuples_scored, "count"),
            Metric::new("localjoin.scored_per_candidate", scored.value(), "ratio"),
            Metric::new("localjoin.combos_assigned", c.combos.base, "count"),
            Metric::new("localjoin.combos_processed_ratio", c.combos.value(), "ratio"),
            Metric::new("merge.busy_ms", busy(MERGE), "ms"),
            Metric::new("serving.queries", s.plan_cache_hits.base, "count"),
            Metric::new("serving.plan_cache_hit_ratio", s.plan_cache_hits.value(), "ratio"),
            Metric::new("serving.plan_cache_evictions", s.plan_cache_evictions, "count"),
            Metric::new("serving.index_pool_entries", s.index_pool_entries, "count"),
            Metric::new("serving.overhead_ms", s.overhead_ms, "ms"),
            Metric::new("serving.qps", s.qps, "1/s"),
            Metric::new("serving.latency_samples", s.latency_samples, "count"),
            Metric::new("serving.p50_ms", s.p50_ms, "ms"),
            Metric::new("serving.p99_ms", s.p99_ms, "ms"),
            Metric::new("serving.histogram_p99_ms", s.histogram_p99_ms, "ms"),
            Metric::new("trace.overhead_pct", self.overhead.value() * 100.0, "%"),
            Metric::new("trace.layer_share_pct", self.layer_share.value() * 100.0, "%"),
        ]
    }
}

/// Lays out the map, shuffle and reduce parts of a join job inside the
/// job's span, from its returned metrics. The job's tasks run one at a
/// time, and the job ends the span (the join driver first builds the
/// map input), so map, shuffle (job wall minus all tasks) and reduce
/// follow each other up to the span's end; what precedes them is the
/// join span's self time.
pub fn record_job(tracer: &mut Tracer, span: usize, job: &JobMetrics, query: u64) {
    let (start, end) = (tracer.spans()[span].start_ns, tracer.spans()[span].end_ns);
    let map: u64 = job.map_durations.iter().map(|d| nanos(*d)).sum();
    let reduce: u64 = job.reduce_durations.iter().map(|d| nanos(*d)).sum();
    let shuffle = nanos(job.wall).saturating_sub(map + reduce);
    let mut at = end.saturating_sub(map + shuffle + reduce).max(start);
    for (name, len) in [(JOIN_MAP, map), (JOIN_SHUFFLE, shuffle), (JOIN_REDUCE, reduce)] {
        tracer.record(name, at, at + len, Some(span), query);
        at += len;
    }
}
