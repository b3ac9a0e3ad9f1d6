//! The four workloads: their inputs (generated from the seed), engine
//! configurations and query lists, plus the correctness checks every
//! run applies.

use tkij::core::{ExecutionReport, LocalJoinStats, ShuffleMode, SpillSinkKind, Tkij, TkijConfig};
use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij::datagen::{traffic_collection, TrafficConfig};
use tkij::mapreduce::ClusterConfig;
use tkij::prelude::{
    naive_topk, table1, CollectionId, IntervalCollection, MatchTuple, PredicateParams, Query,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["sfm-dense", "traffic-mix", "traffic-spill", "serve-mix"];

/// Traffic sessions of the calibrated day (≈ 42.6 k connections after the
/// 35 % packet sample); instances with fewer sessions cover a
/// proportionally shorter day.
const TRAFFIC_DAY_SESSIONS: usize = 50_000;
const TRAFFIC_SAMPLE: f64 = 0.35;
/// Independent traffic instances per workload, and sessions in each.
const TRAFFIC_INSTANCES: u32 = 3;
const TRAFFIC_SESSIONS: usize = 16_000;
/// Independent collection triplets a workload's dataset holds; its query
/// list runs every shape on each. The work of one top-k query swings from
/// seed to seed (how soon the k-th score stops the rank join), so a pass
/// sums several independent instances.
const SFM_TRIPLETS: u32 = 3;
const SERVE_TRIPLETS: u32 = 8;
/// Spill threshold of `traffic-spill`: below the larger (task, partition)
/// buffers of a join, so they spill before the final flush. Lower
/// thresholds write so many small files that the file system's own
/// drift swamps the pass time.
const SPILL_THRESHOLD_BYTES: u64 = 262_144;

/// Operations attempted and failed in one run, with the reason for each
/// failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; a `false` check is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Adds another tally (a client thread's) to this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Counts one fallible engine call, unwrapping its value.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// One workload: an engine, its inputs, and the query shapes it runs.
pub struct Workload {
    pub engine: Tkij,
    pub k: usize,
    /// The query shapes, over collections 0–2.
    pub shapes: Vec<(&'static str, Query)>,
    /// The timed inputs: one or more collection triplets.
    pub collections: Vec<IntervalCollection>,
    /// A small instance (one triplet) from the same generator and seed,
    /// checked against the exhaustive oracle.
    pub small: Vec<IntervalCollection>,
    pub mode: Mode,
}

/// How a workload is driven.
pub enum Mode {
    /// One client queries the prepared dataset through `Tkij::execute`,
    /// one query after another; `spills` requires every report to show a
    /// spilled shuffle.
    Solo { spills: bool },
    /// Closed-loop client threads query one `TkijServer`.
    Serve { clients: usize },
}

impl Workload {
    /// The query list: every shape on every collection triplet.
    pub fn queries(&self) -> Vec<(&'static str, Query)> {
        let triplets = self.collections.len() as u32 / 3;
        (0..triplets)
            .flat_map(|t| {
                self.shapes.iter().map(move |(name, q)| {
                    let vertices = q.vertices.iter().map(|c| CollectionId(c.0 + 3 * t)).collect();
                    (*name, Query { vertices, ..q.clone() })
                })
            })
            .collect()
    }
}

/// `count` collections of `size` uniform intervals over `[0, span]`,
/// lengths 1–100 (each collection id draws its own stream).
fn uniform(count: u32, size: usize, span: i64, seed: u64) -> Vec<IntervalCollection> {
    let cfg = SyntheticConfig { size, start_range: (0, span), length_range: (1, 100), seed };
    (0..count).map(|i| uniform_collection(CollectionId(i), &cfg)).collect()
}

/// `instances` independent Fig. 13 traffic inputs, each one sampled
/// connection collection copied three times. The day shrinks with the
/// session count, so every instance has the density of the calibrated
/// day of [`TRAFFIC_DAY_SESSIONS`] sessions.
fn traffic(instances: u32, sessions: usize, seed: u64) -> Vec<IntervalCollection> {
    let full = TrafficConfig::calibrated(TRAFFIC_DAY_SESSIONS, seed);
    let day = (full.day as f64 * sessions as f64 / TRAFFIC_DAY_SESSIONS as f64).ceil() as i64;
    (0..instances)
        .flat_map(|t| {
            let seed = seed.wrapping_mul(1_000).wrapping_add(u64::from(t));
            let cfg = TrafficConfig { day, ..TrafficConfig::calibrated(sessions, seed) };
            let (base, _) = traffic_collection(&cfg, TRAFFIC_SAMPLE, CollectionId(3 * t));
            let copies =
                [base.copy_as(CollectionId(3 * t + 1)), base.copy_as(CollectionId(3 * t + 2))];
            std::iter::once(base).chain(copies)
        })
        .collect()
}

/// The named Fig. 13 queries, with P3.
fn traffic_queries(names: &[&'static str]) -> Vec<(&'static str, Query)> {
    let p = PredicateParams::P3;
    let all = [("Qb,b", table1::q_bb(p)), ("Qf,b", table1::q_fb(p)), ("Qo,o", table1::q_oo(p))];
    all.into_iter().filter(|(name, _)| names.contains(name)).collect()
}

/// The six shapes of the serving mix, over collections 0–2.
fn serve_shapes() -> Vec<(&'static str, Query)> {
    vec![
        ("Qo,m", table1::q_om(PredicateParams::P1)),
        ("Qo,o", table1::q_oo(PredicateParams::P1)),
        ("Qs,m", table1::q_sm(PredicateParams::P2)),
        ("Qs,s", table1::q_ss(PredicateParams::P1)),
        ("Qf,f", table1::q_ff(PredicateParams::P1)),
        ("Qb,b", table1::q_bb(PredicateParams::P3)),
    ]
}

/// Builds a workload's inputs and engine from the seed.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let engine = |granules, reducers, shuffle| {
        let config = TkijConfig::default().with_granules(granules).with_reducers(reducers);
        Tkij::with_cluster(config, ClusterConfig { shuffle, ..ClusterConfig::default() })
    };
    let spill = ShuffleMode::Serialized {
        spill_threshold_bytes: SPILL_THRESHOLD_BYTES,
        sink: SpillSinkKind::TempDir,
    };
    let workload = match name {
        "sfm-dense" => Workload {
            engine: engine(20, 24, ShuffleMode::InMemory),
            k: 100,
            shapes: vec![("Qs,f,m", table1::q_sfm(PredicateParams::P2))],
            collections: uniform(3 * SFM_TRIPLETS, 1_000, 25_000, seed),
            // Same density: 150 intervals over 150/1000 of the span.
            small: uniform(3, 150, 3_750, seed),
            mode: Mode::Solo { spills: false },
        },
        "traffic-mix" => Workload {
            engine: engine(40, 24, ShuffleMode::InMemory),
            k: 100,
            shapes: traffic_queries(&["Qb,b", "Qf,b", "Qo,o"]),
            collections: traffic(TRAFFIC_INSTANCES, TRAFFIC_SESSIONS, seed),
            small: traffic(1, 200, seed),
            mode: Mode::Solo { spills: false },
        },
        "traffic-spill" => Workload {
            engine: engine(40, 24, spill),
            k: 100,
            shapes: traffic_queries(&["Qf,b", "Qo,o"]),
            collections: traffic(TRAFFIC_INSTANCES, TRAFFIC_SESSIONS, seed),
            small: traffic(1, 200, seed),
            mode: Mode::Solo { spills: true },
        },
        "serve-mix" => Workload {
            engine: engine(12, 4, ShuffleMode::InMemory),
            k: 50,
            shapes: serve_shapes(),
            collections: uniform(3 * SERVE_TRIPLETS, 1_500, 7_500, seed),
            small: uniform(3, 150, 750, seed),
            mode: Mode::Serve { clients: 2 },
        },
        _ => return None,
    };
    Some(workload)
}

/// The bit-comparable part of a top-k: ids and score bits.
pub type TopKBits = Vec<(Vec<u64>, u64)>;

pub fn bits_of(results: &[MatchTuple]) -> TopKBits {
    results.iter().map(|t| (t.ids.clone(), t.score.to_bits())).collect()
}

/// What a served report must share bit-for-bit with a solo execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub results: TopKBits,
    pub local_stats: Vec<LocalJoinStats>,
}

impl Served {
    pub fn of(report: &ExecutionReport) -> Self {
        Served { results: bits_of(&report.results), local_stats: report.local_stats.clone() }
    }
}

/// Prepares `small` with `engine` and checks every query against the
/// exhaustive oracle, by the engine tests' exactness rule: the score
/// sequence equals the oracle's (to 1e-9) and every returned tuple is
/// genuine (its ids exist and re-score to the reported score). Tuple ids
/// may differ from the oracle's only among equal scores.
pub fn check_against_oracle(
    engine: &Tkij,
    small: &[IntervalCollection],
    queries: &[(&'static str, Query)],
    k: usize,
    ops: &mut Ops,
) {
    let Some(dataset) = ops.call("prepare small instance", engine.prepare(small.to_vec())) else {
        return;
    };
    for (name, q) in queries {
        let Some(report) = ops.call(name, engine.execute(&dataset, q, k)) else { continue };
        let refs: Vec<_> = q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
        let expected = naive_topk(q, &refs, k);
        let scores_match = report.results.len() == expected.len()
            && report.results.iter().zip(&expected).all(|(g, e)| (g.score - e.score).abs() < 1e-9);
        let genuine = report.results.iter().all(|t| {
            let tuple: Option<Vec<_>> = t
                .ids
                .iter()
                .zip(&refs)
                .map(|(id, c)| c.intervals().iter().find(|iv| iv.id == *id).copied())
                .collect();
            tuple.is_some_and(|tuple| (q.score_tuple(&tuple) - t.score).abs() < 1e-9)
        });
        ops.check(scores_match && genuine, || {
            format!("{name}: engine top-{k} differs from the oracle on the small instance")
        });
    }
}
