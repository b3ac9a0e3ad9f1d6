//! The single-client workloads: a prepared dataset queried solo through
//! `Tkij::execute`, pass after pass over the workload's query list.

use crate::host;
use crate::layers::{self, Counters, LayerReport};
use crate::measure::{median, sum_of_medians, Ratio};
use crate::trace::{self, Tracer};
use crate::workloads::{bits_of, check_against_oracle, Ops, TopKBits, Workload};
use crate::{time_setups, Metric};
use std::collections::BTreeMap;
use std::time::Instant;
use tkij::core::{
    distribute, run_join_phase_with, run_merge_phase, run_topbuckets, ExecutionReport,
    PreparedDataset,
};
use tkij::prelude::{MatchTuple, Query};

/// Passes timed at least, however long they take.
const MIN_PASSES: usize = 2;

/// Runs one solo workload: the untimed checks, the set-ups, then either
/// the timed passes (`traced == false`) or alternating untraced and
/// traced passes. Returns the end-to-end or the per-layer metrics.
pub fn run(
    w: &Workload,
    spills: bool,
    seconds: f64,
    traced: bool,
    ops: &mut Ops,
    tracer: &mut Tracer,
) -> Option<Vec<Metric>> {
    check_against_oracle(&w.engine, &w.small, &w.shapes, w.k, ops);
    let queries = w.queries();

    let (setup_times, dataset) = setup(w, ops, traced.then_some(&mut *tracer))?;
    let mut reference = None;
    if !traced {
        let mut query_times = vec![Vec::new(); queries.len()];
        let mut pass_times = Vec::new();
        let window = Instant::now();
        while pass_times.len() < MIN_PASSES || window.elapsed().as_secs_f64() < seconds {
            let started = Instant::now();
            let reports = pass(w, &dataset, &queries, ops, &mut query_times);
            pass_times.push(started.elapsed().as_secs_f64());
            if pass_times.len() == 1 {
                print_queries(&queries, &reports);
            }
            check_pass(spills, &queries, &reports, &mut reference, ops);
        }
        println!("pass wall times, calibration included (s): {pass_times:.3?}");
        for ((name, _), times) in queries.iter().zip(&query_times) {
            println!("{name} scaled times (s): {times:.3?}");
        }
        check_spill_dirs(spills, ops);
        return Some(vec![
            Metric::new("setup_s", median(&setup_times)?, "s"),
            Metric::new("pass_s", sum_of_medians(&query_times)?, "s"),
        ]);
    }

    let mut untraced_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut pass_busy: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut counters = None;
    let mut layer_share = Ratio::default();
    let mut query_id = 0u64;
    let window = Instant::now();
    while traced_times.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let (reports, took) = host::time(|| pass(w, &dataset, &queries, ops, &mut []));
        untraced_times.push(took);
        check_pass(spills, &queries, &reports, &mut reference, ops);

        let first_span = tracer.spans().len();
        let mut pass_counters = Counters::default();
        let ((root, results), took) = host::time(|| {
            let root = tracer.open("pass", None, query_id);
            let mut results = Vec::new();
            for (_, q) in &queries {
                query_id += 1;
                let top = traced_query(w, &dataset, q, tracer, root, query_id, &mut pass_counters);
                results.push(top);
            }
            tracer.close(root);
            (root, results)
        });
        traced_times.push(took);
        let first = reference.as_ref().expect("set by the untraced pass");
        for (((name, _), top), want) in queries.iter().zip(&results).zip(first) {
            ops.check(want.as_ref() == Some(&bits_of(top)), || {
                format!("{name}: traced top-k differs from Tkij::execute's")
            });
        }
        let selfs = trace::self_times(tracer.spans());
        let busy = trace::self_ms_by_name(tracer.spans(), &selfs, first_span..tracer.spans().len());
        let covered: f64 = layers::QUERY_LAYERS.iter().filter_map(|l| busy.get(l)).sum();
        layer_share.add(covered, tracer.spans()[root].duration_ns() as f64 / 1e6);
        pass_busy.push(busy);
        counters.get_or_insert(pass_counters);
    }
    check_spill_dirs(spills, ops);

    let mut busy_ms = BTreeMap::new();
    for name in pass_busy.iter().flat_map(|b| b.keys()) {
        let values: Vec<f64> =
            pass_busy.iter().map(|b| b.get(name).copied().unwrap_or(0.0)).collect();
        busy_ms.insert(*name, median(&values)?);
    }
    let stats_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|span| span.name == layers::STATS)
        .map(|span| span.duration_ns() as f64 / 1e6)
        .collect();
    let (untraced, traced) = (median(&untraced_times)?, median(&traced_times)?);
    let report = LayerReport {
        stats_busy_ms: median(&stats_ms)?,
        busy_ms,
        counters: counters?,
        overhead: Ratio { part: traced - untraced, base: untraced },
        layer_share,
        ..LayerReport::default()
    };
    Some(report.metrics())
}

/// One line per query of a pass: its time and the local-join work that
/// the seed's data asked for.
fn print_queries(queries: &[(&'static str, Query)], reports: &[Option<ExecutionReport>]) {
    for ((name, _), report) in queries.iter().zip(reports) {
        if let Some(r) = report {
            println!(
                "query {name}: {:.1} ms, {} items scanned, {} tuples scored",
                r.total_wall().as_secs_f64() * 1e3,
                r.items_scanned(),
                r.tuples_scored()
            );
        }
    }
}

/// Prepares the dataset until enough set-ups are timed; returns their
/// scaled times (s) and the last dataset. Traced set-ups record a
/// `stats` span.
fn setup(
    w: &Workload,
    ops: &mut Ops,
    mut tracer: Option<&mut Tracer>,
) -> Option<(Vec<f64>, PreparedDataset)> {
    time_setups(|| {
        let collections = w.collections.clone();
        let (prepared, took) = host::time(|| {
            let span = tracer.as_deref_mut().map(|t| t.open(layers::STATS, None, 0));
            let prepared = w.engine.prepare(collections);
            if let (Some(tracer), Some(span)) = (tracer.as_deref_mut(), span) {
                tracer.close(span);
            }
            prepared
        });
        Some((ops.call("prepare", prepared)?, took))
    })
}

/// One untraced pass: every query of the list through `Tkij::execute`.
/// When `times` has a slot per query, each successful query is timed
/// between kernel runs and its scaled time (s) added to its slot.
fn pass(
    w: &Workload,
    dataset: &PreparedDataset,
    queries: &[(&'static str, Query)],
    ops: &mut Ops,
    times: &mut [Vec<f64>],
) -> Vec<Option<ExecutionReport>> {
    let mut reports = Vec::with_capacity(queries.len());
    for (i, (name, q)) in queries.iter().enumerate() {
        let report = match times.get_mut(i) {
            Some(slot) => {
                let (result, took) = host::time(|| w.engine.execute(dataset, q, w.k));
                let report = ops.call(name, result);
                if report.is_some() {
                    slot.push(took);
                }
                report
            }
            None => ops.call(name, w.engine.execute(dataset, q, w.k)),
        };
        reports.push(report);
    }
    reports
}

/// Checks one pass's reports: each top-k equals the first pass's, and on
/// a spilling workload each query's shuffle provably spilled.
fn check_pass(
    spills: bool,
    queries: &[(&'static str, Query)],
    reports: &[Option<ExecutionReport>],
    reference: &mut Option<Vec<Option<TopKBits>>>,
    ops: &mut Ops,
) {
    let bits: Vec<Option<TopKBits>> =
        reports.iter().map(|r| r.as_ref().map(|r| bits_of(&r.results))).collect();
    let first = reference.get_or_insert_with(|| bits.clone());
    for (((name, _), got), want) in queries.iter().zip(&bits).zip(first.iter()) {
        if got.is_some() {
            ops.check(got == want, || format!("{name}: top-k differs from the run's first pass"));
        }
    }
    if spills {
        for ((name, _), report) in queries.iter().zip(reports) {
            let Some(report) = report else { continue };
            let spilled = report.shuffle_stats().records_spilled;
            let shuffled =
                report.join.total_shuffle_records() + report.merge.total_shuffle_records();
            ops.check(spilled > 0 && spilled == shuffled, || {
                format!("{name}: {spilled} records spilled, {shuffled} shuffled")
            });
        }
    }
}

/// On a spilling workload: no spill directory of this process is left
/// under the temp dir.
fn check_spill_dirs(spills: bool, ops: &mut Ops) {
    if !spills {
        return;
    }
    let prefix = format!("tkij-spill-{}-", std::process::id());
    let left: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .map(|dir| {
            dir.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default();
    ops.check(left.is_empty(), || format!("spill directories left behind: {left:?}"));
}

/// One query through the phases the way `Tkij::execute` composes them,
/// with a span around each call. Map, shuffle and reduce spans are laid
/// out inside the join span from the job's returned metrics.
fn traced_query(
    w: &Workload,
    dataset: &PreparedDataset,
    q: &Query,
    tracer: &mut Tracer,
    parent: usize,
    query_id: u64,
    counters: &mut Counters,
) -> Vec<MatchTuple> {
    let (engine, cfg, k) = (&w.engine, &w.engine.config, w.k);
    let cluster = engine.job_cluster();
    let root = tracer.open("query", Some(parent), query_id);

    let span = tracer.open(layers::TOPBUCKETS, Some(root), query_id);
    let effective_k = if cfg.pruning { k as u64 } else { u64::MAX };
    let (selected, tb) = run_topbuckets(
        q,
        &dataset.matrices,
        effective_k,
        cfg.strategy,
        &cfg.solver,
        cfg.topbuckets_workers,
    );
    tracer.close(span);

    let span = tracer.open(layers::DISTRIBUTE, Some(root), query_id);
    let assignment = distribute(&selected, cfg.distribution, cfg.reducers, q, &dataset.matrices);
    tracer.close(span);

    let span = tracer.open(layers::JOIN, Some(root), query_id);
    let (outputs, job) = run_join_phase_with(
        dataset,
        q,
        &selected,
        &assignment,
        k,
        &cluster,
        cfg.local_backend,
        cfg.sweep_scan,
        None,
        engine.intra_join(),
    );
    tracer.close(span);
    layers::record_job(tracer, span, &job, query_id);

    let span = tracer.open(layers::MERGE, Some(root), query_id);
    let (results, _) = run_merge_phase(&outputs, k, &cluster);
    tracer.close(span);
    tracer.close(root);

    counters.add_plan(&tb, &assignment);
    let local: Vec<_> = outputs.into_iter().map(|o| o.stats).collect();
    counters.add_join(&job, &local);
    results
}
