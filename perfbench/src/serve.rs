//! The concurrent serving workload: one `TkijServer`, closed-loop client
//! threads rotating through the query mix after a warm-up pass.

use crate::host;
use crate::layers::{self, Counters, LayerReport, ServingLayer};
use crate::measure::{median, percentile, Ratio};
use crate::trace::{self, nanos, Tracer};
use crate::workloads::{check_against_oracle, Ops, Served, Workload};
use crate::{time_setups, Metric};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tkij::core::TkijServer;
use tkij::prelude::Query;

/// Served queries a latency window needs so that its p99 has ten
/// samples beyond it.
const P99_SAMPLES: usize = 1_000;

/// Runs `serve-mix`: the untimed checks, the set-ups, then one timed
/// window (`traced == false`), or an untraced and a traced window.
pub fn run(
    w: &Workload,
    clients: usize,
    seconds: f64,
    traced: bool,
    ops: &mut Ops,
    tracer: &mut Tracer,
) -> Option<Vec<Metric>> {
    check_against_oracle(&w.engine, &w.small, &w.shapes, w.k, ops);
    let mix = w.queries();

    // Solo references: every shape through `Tkij::execute` on the full
    // dataset. Served reports must match them bit for bit; they also give
    // the (deterministic) work counters of one round of the mix.
    let dataset = ops.call("prepare", w.engine.prepare(w.collections.clone()))?;
    let mut counters = Counters::default();
    let mut solo = Vec::new();
    for (name, q) in &mix {
        let report = ops.call(name, w.engine.execute(&dataset, q, w.k))?;
        println!(
            "query {name}: {:.1} ms, {} items scanned, {} tuples scored",
            report.total_wall().as_secs_f64() * 1e3,
            report.items_scanned(),
            report.tuples_scored()
        );
        counters.add_join(&report.join, &report.local_stats);
        solo.push(Served::of(&report));
    }
    drop(dataset);

    let (setup_times, stats_times, server) =
        setup(w, &mix, &solo, ops, traced.then_some(&mut *tracer))?;
    let before = server.stats();
    let clients = Clients { server: &server, k: w.k, count: clients, mix: &mix, solo: &solo };
    if !traced {
        let mut window = clients.window(seconds, 1, None);
        ops.absorb(std::mem::take(&mut window.ops));
        check_no_planning(&server, before, ops);
        println!(
            "served {} queries in {:.3} s ({:.1} queries/s) over {} rounds of the mix",
            window.latencies_ms.len(),
            window.wall_s,
            window.latencies_ms.len() as f64 / window.wall_s,
            window.rounds_s.len(),
        );
        return Some(vec![
            Metric::new("setup_s", median(&setup_times)?, "s"),
            Metric::new("pass_s", median(&window.rounds_s)?, "s"),
        ]);
    }

    let mut untraced = clients.window(seconds, P99_SAMPLES, None);
    ops.absorb(std::mem::take(&mut untraced.ops));
    let mid = server.stats();
    let mut window = clients.window(seconds / 2.0, 1, Some(tracer.origin()));
    ops.absorb(std::mem::take(&mut window.ops));
    check_no_planning(&server, before, ops);
    let after = server.stats();
    let spans = window.tracer.take().expect("traced window");
    let first_span = tracer.spans().len();
    tracer.absorb(spans);

    let selfs = trace::self_times(tracer.spans());
    let range = first_span..tracer.spans().len();
    let queries = window.latencies_ms.len() as f64;
    let rounds = queries / mix.len() as f64;
    let mut busy_ms = trace::self_ms_by_name(tracer.spans(), &selfs, range.clone());
    let covered: f64 = layers::QUERY_LAYERS.iter().filter_map(|l| busy_ms.get(l)).sum();
    let served_ms: f64 = range
        .clone()
        .filter(|&i| tracer.spans()[i].name == layers::SERVING)
        .map(|i| tracer.spans()[i].duration_ns() as f64 / 1e6)
        .sum();
    let overheads: Vec<f64> = range
        .filter(|&i| tracer.spans()[i].name == layers::SERVING)
        .map(|i| selfs[i] as f64 / 1e6)
        .collect();
    // Busy time per round of the mix, like the solo workloads' per pass.
    busy_ms.values_mut().for_each(|ms| *ms /= rounds);

    let p50 = |ms: &[f64]| median(ms).unwrap_or(0.0);
    let p99 = percentile(&untraced.latencies_ms, 0.99);
    println!(
        "serve-mix untraced window: {} queries, p50 {:.3} ms, p99 {}",
        untraced.latencies_ms.len(),
        p50(&untraced.latencies_ms),
        p99.map_or("not reported (fewer than 10 samples beyond it)".into(), |p| format!(
            "{:.3} ms ({} samples, {} beyond)",
            p.value, p.samples, p.beyond
        )),
    );
    let report = LayerReport {
        stats_busy_ms: median(&stats_times)? * 1e3,
        busy_ms,
        counters,
        serving: ServingLayer {
            plan_cache_hits: Ratio {
                part: (after.plan_cache_hits - mid.plan_cache_hits) as f64,
                base: (after.queries - mid.queries) as f64,
            },
            plan_cache_evictions: after.plan_cache_evictions as f64,
            index_pool_entries: server.index_pool_len() as f64,
            overhead_ms: median(&overheads)?,
            qps: untraced.latencies_ms.len() as f64 / untraced.wall_s,
            latency_samples: untraced.latencies_ms.len() as f64,
            p50_ms: p50(&untraced.latencies_ms),
            p99_ms: p99.map_or(0.0, |p| p.value),
            histogram_p99_ms: server.latency().p99_ms,
        },
        overhead: Ratio {
            part: p50(&window.latencies_ms) - p50(&untraced.latencies_ms),
            base: p50(&untraced.latencies_ms),
        },
        layer_share: Ratio { part: covered, base: served_ms },
    };
    Some(report.metrics())
}

/// After the warm-up every plan comes from the cache: the timed windows
/// must not plan (or evict) anything.
fn check_no_planning(server: &TkijServer, before: tkij::core::ServingStats, ops: &mut Ops) {
    let now = server.stats();
    ops.check(now.plan_cache_misses == before.plan_cache_misses, || {
        format!(
            "{} queries planned after warm-up",
            now.plan_cache_misses - before.plan_cache_misses
        )
    });
    ops.check(now.plan_cache_evictions == 0, || {
        format!("{} plans evicted", now.plan_cache_evictions)
    });
}

/// Set-up, timed: prepare, freeze into a server, and serve the mix once
/// (filling the plan cache and the index pool). Returns the set-ups'
/// scaled times, the prepare times (s) and the last server.
fn setup(
    w: &Workload,
    mix: &[(&'static str, Query)],
    solo: &[Served],
    ops: &mut Ops,
    mut tracer: Option<&mut Tracer>,
) -> Option<(Vec<f64>, Vec<f64>, TkijServer)> {
    let mut stats_times = Vec::new();
    let (times, server) = time_setups(|| {
        let collections = w.collections.clone();
        let root = tracer.as_deref_mut().map(|t| t.open("setup", None, 0));
        // The set-up takes about a second; its parts are timed one by one
        // so that each is scaled by the host's speed at the time.
        let (fresh, mut took) = host::time(|| {
            let t = Instant::now();
            let span = tracer.as_deref_mut().map(|t| t.open(layers::STATS, root, 0));
            let prepared = w.engine.prepare(collections);
            stats_times.push(t.elapsed().as_secs_f64());
            if let (Some(tracer), Some(span)) = (tracer.as_deref_mut(), span) {
                tracer.close(span);
            }
            prepared.map(|dataset| w.engine.clone().serve(dataset))
        });
        let fresh = ops.call("prepare", fresh)?;
        let mut warm = Vec::new();
        for (name, q) in mix {
            let (result, part) = host::time(|| fresh.query(q, w.k));
            took += part;
            warm.push(ops.call(name, result).map(|r| Served::of(&r)));
        }
        if let (Some(tracer), Some(root)) = (tracer.as_deref_mut(), root) {
            tracer.close(root);
        }
        for (((name, _), got), want) in mix.iter().zip(&warm).zip(solo) {
            if let Some(got) = got {
                ops.check(got == want, || format!("{name}: warm-up report differs from solo"));
            }
        }
        Some((fresh, took))
    })?;
    Some((times, stats_times, server))
}

/// What one closed-loop window measured.
#[derive(Default)]
struct Window {
    /// Client-side latency of every served query, ms.
    latencies_ms: Vec<f64>,
    /// Time each client took for one round of the mix, scaled to the
    /// reference host (each round is bracketed by kernel runs), s.
    rounds_s: Vec<f64>,
    /// From the start of the window until the last client stopped, s.
    wall_s: f64,
    ops: Ops,
    tracer: Option<Tracer>,
}

/// The closed-loop clients of one server: each runs whole rounds of the
/// mix, starting at its own offset, and checks every report against the
/// solo reference.
struct Clients<'a> {
    server: &'a TkijServer,
    k: usize,
    count: usize,
    mix: &'a [(&'static str, Query)],
    solo: &'a [Served],
}

impl Clients<'_> {
    /// Serves until at least `seconds` have passed and `min_samples`
    /// queries were served (capped at three times `seconds`). With a
    /// tracer origin, each served query gets a `serving` span holding join
    /// and merge spans laid out from its report.
    fn window(&self, seconds: f64, min_samples: usize, trace_origin: Option<Instant>) -> Window {
        let Clients { server, k, count, mix, solo } = *self;
        // Relaxed: a statistic that publishes no other data.
        let served = AtomicUsize::new(0);
        let started = Instant::now();
        let keep_going = |served: &AtomicUsize| {
            let elapsed = started.elapsed().as_secs_f64();
            elapsed < 3.0 * seconds
                && (elapsed < seconds || served.load(Ordering::Relaxed) < min_samples)
        };
        let outs: Vec<Window> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..count)
                .map(|client| {
                    let handle = server.handle();
                    let served = &served;
                    scope.spawn(move || {
                        let mut out =
                            Window { tracer: trace_origin.map(Tracer::new), ..Window::default() };
                        let mut query_id = (client as u64 + 1) << 32;
                        while keep_going(served) {
                            let before = host::kernel_s();
                            let round = Instant::now();
                            for i in 0..mix.len() {
                                let qi = (i + client) % mix.len();
                                let (name, q) = &mix[qi];
                                query_id += 1;
                                let span = out
                                    .tracer
                                    .as_mut()
                                    .map(|t| t.open(layers::SERVING, None, query_id));
                                let t = Instant::now();
                                let result = handle.query(q, k);
                                let took = t.elapsed().as_secs_f64();
                                let Some(report) = out.ops.call(name, result) else { continue };
                                out.latencies_ms.push(took * 1e3);
                                served.fetch_add(1, Ordering::Relaxed);
                                if let (Some(tracer), Some(span)) = (out.tracer.as_mut(), span) {
                                    tracer.close(span);
                                    record_served(tracer, span, &report, query_id);
                                }
                                out.ops.check(Served::of(&report) == solo[qi], || {
                                    format!("{name}: served report differs from solo Tkij::execute")
                                });
                            }
                            let raw_s = round.elapsed().as_secs_f64();
                            let after = host::kernel_s();
                            out.rounds_s.push(host::scaled_s(raw_s, before, after));
                        }
                        out
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut window = Window { wall_s: started.elapsed().as_secs_f64(), ..Window::default() };
        if let Some(origin) = trace_origin {
            window.tracer = Some(Tracer::new(origin));
        }
        for c in outs {
            window.latencies_ms.extend(c.latencies_ms);
            window.rounds_s.extend(c.rounds_s);
            window.ops.absorb(c.ops);
            if let (Some(all), Some(t)) = (window.tracer.as_mut(), c.tracer) {
                all.absorb(t);
            }
        }
        window
    }
}

/// Lays out a served query's join and merge inside its `serving` span,
/// from the report: merge ends the span and the join precedes it. The
/// span's self time is then the serving layer's own work: plan lookup,
/// locks, scheduling and report assembly. Planning times in the report
/// are the cached plan's, replayed, and are not counted.
fn record_served(
    tracer: &mut Tracer,
    span: usize,
    report: &tkij::core::ExecutionReport,
    query: u64,
) {
    let end = tracer.spans()[span].end_ns;
    let merge_start = end.saturating_sub(nanos(report.merge.wall));
    tracer.record(layers::MERGE, merge_start, end, Some(span), query);
    let join_start = merge_start.saturating_sub(nanos(report.join.wall));
    let join = tracer.record(layers::JOIN, join_start, merge_start, Some(span), query);
    layers::record_job(tracer, join, &report.join, query);
}
