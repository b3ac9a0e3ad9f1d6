//! Cross-strategy agreement and TopBuckets behavior (paper §3.3, §4.2.3).

use tkij::core::{run_topbuckets, ComboSet};
use tkij::prelude::*;
use tkij::solver::SolverConfig;

fn scores(report: &ExecutionReport) -> Vec<f64> {
    report.results.iter().map(|t| t.score).collect()
}

#[test]
fn all_strategies_return_identical_scores() {
    let collections = uniform_collections(3, 55, 70);
    let q = table1::q_sfm(PredicateParams::P1);
    let mut reference: Option<Vec<f64>> = None;
    for (name, strategy) in Strategy::all() {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(6).with_reducers(4).with_strategy(strategy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 9).unwrap();
        let s = scores(&report);
        match &reference {
            None => reference = Some(s),
            Some(r) => {
                assert_eq!(r.len(), s.len(), "{name}");
                for (a, b) in r.iter().zip(&s) {
                    assert!((a - b).abs() < 1e-9, "{name}");
                }
            }
        }
    }
}

#[test]
fn two_phase_refinement_never_grows_the_selection() {
    // two-phase = loose selection + exact refinement + re-selection, so
    // |Ω_{k,S}| can only shrink or stay equal; brute-force (exact bounds
    // from the start) is at least as tight as loose.
    let collections = uniform_collections(3, 120, 41);
    let q = table1::q_m_star(3, PredicateParams::P1);
    let mut selected = std::collections::HashMap::new();
    for (name, strategy) in Strategy::all() {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(8).with_reducers(4).with_strategy(strategy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 5).unwrap();
        selected.insert(name, (report.topbuckets.selected, report.topbuckets.candidates));
    }
    let (loose, cand_l) = selected["loose"];
    let (two, cand_t) = selected["two-phase"];
    let (brute, cand_b) = selected["brute-force"];
    assert_eq!(cand_l, cand_t);
    assert_eq!(cand_l, cand_b);
    assert!(two <= loose, "two-phase must not select more than loose ({two} vs {loose})");
    assert!(brute <= loose, "brute-force bounds are at least as tight ({brute} vs {loose})");
}

#[test]
fn solver_effort_ranks_strategies() {
    // loose: O(|E|·pairs) solver calls; brute-force: one per combination
    // (n-ary); two-phase: loose + refinements. On a 3-vertex query with
    // b buckets per vertex: pairs = 2b², combos = b³ — brute-force must
    // invoke the solver more often than loose for b > 2·arity.
    let collections = uniform_collections(3, 200, 9);
    let q = table1::q_oo(PredicateParams::P1);
    let mut calls = std::collections::HashMap::new();
    for (name, strategy) in Strategy::all() {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(10).with_reducers(4).with_strategy(strategy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 5).unwrap();
        calls.insert(name, report.topbuckets.solver_calls);
    }
    assert!(
        calls["loose"] < calls["brute-force"],
        "loose {} must beat brute-force {}",
        calls["loose"],
        calls["brute-force"]
    );
    assert!(calls["two-phase"] >= calls["loose"], "two-phase refines on top of loose");
}

#[test]
fn topbuckets_worker_partitioning_is_transparent() {
    let collections = uniform_collections(3, 80, 3);
    let q = table1::q_om(PredicateParams::P2);
    let mut reference: Option<Vec<f64>> = None;
    for workers in [1usize, 2, 6, 64] {
        let mut cfg = TkijConfig::default().with_granules(7).with_reducers(4);
        cfg.topbuckets_workers = workers;
        let engine = Tkij::new(cfg);
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 8).unwrap();
        let s = scores(&report);
        match &reference {
            None => reference = Some(s),
            Some(r) => {
                for (a, b) in r.iter().zip(&s) {
                    assert!((a - b).abs() < 1e-9, "workers={workers}");
                }
            }
        }
    }
}

#[test]
fn pruning_improves_with_finer_granularity() {
    // Fig. 10c's driving effect: more granules → tighter buckets → larger
    // share of the potential result space pruned (for a fixed query/k).
    let collections = uniform_collections(3, 400, 21);
    let q = table1::q_om(PredicateParams::P1);
    let mut last = -1.0f64;
    for g in [5u32, 20, 60] {
        let engine = Tkij::new(TkijConfig::default().with_granules(g).with_reducers(6));
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 5).unwrap();
        let pruned = report.pruned_pct();
        assert!(
            pruned >= last - 5.0,
            "pruning should not collapse as g grows: g={g}: {pruned} after {last}"
        );
        last = last.max(pruned);
    }
    assert!(last > 50.0, "fine granularity should prune most of the space, got {last}%");
}

/// Every combination's buckets, nbRes and bound bits, in order, folded
/// into one FNV-1a hash.
fn selection_fingerprint(set: &ComboSet) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for i in 0..set.len() {
        for b in set.buckets(i) {
            fold(u64::from(b.start_g) << 16 | u64::from(b.end_g));
        }
        fold(set.nb_res(i));
        fold(set.lb(i).to_bits());
        fold(set.ub(i).to_bits());
    }
    hash
}

/// A TopBuckets run's selected, selected results, solver calls, pruned
/// locally, pruned at the merge, and the selection's fingerprint.
type Counters = (usize, u128, usize, usize, usize, u64);

/// The [`Counters`] the sort-based `getTopBuckets` (two full sorts per
/// call) gave on the instance below, per (query, strategy, workers).
const SORTING_SELECTIONS: [(&str, &str, usize, Counters); 18] = [
    ("Qb,b", "brute-force", 1, (1, 239_400, 3375, 3374, 0, 0xda99_8cc1_4828_988b)),
    ("Qb,b", "brute-force", 6, (1, 239_400, 3375, 3240, 134, 0xda99_8cc1_4828_988b)),
    ("Qb,b", "two-phase", 1, (1, 239_400, 451, 3374, 0, 0xda99_8cc1_4828_988b)),
    ("Qb,b", "two-phase", 6, (1, 239_400, 451, 3240, 134, 0xda99_8cc1_4828_988b)),
    ("Qb,b", "loose", 1, (1, 239_400, 450, 3374, 0, 0xda99_8cc1_4828_988b)),
    ("Qb,b", "loose", 6, (1, 239_400, 450, 3240, 134, 0xda99_8cc1_4828_988b)),
    ("Qf,b", "brute-force", 1, (371, 20_507_184, 3375, 3004, 0, 0x913c_d309_84c6_3dd7)),
    ("Qf,b", "brute-force", 6, (371, 20_507_184, 3375, 3004, 0, 0x913c_d309_84c6_3dd7)),
    ("Qf,b", "two-phase", 1, (371, 20_507_184, 821, 3004, 0, 0x913c_d309_84c6_3dd7)),
    ("Qf,b", "two-phase", 6, (371, 20_507_184, 821, 3004, 0, 0x913c_d309_84c6_3dd7)),
    ("Qf,b", "loose", 1, (371, 20_507_184, 450, 3004, 0, 0x913c_d309_84c6_3dd7)),
    ("Qf,b", "loose", 6, (371, 20_507_184, 450, 3004, 0, 0x913c_d309_84c6_3dd7)),
    ("Qo,o", "brute-force", 1, (1490, 37_362_519, 3375, 1885, 0, 0xe76d_b3b9_5cd1_f4fd)),
    ("Qo,o", "brute-force", 6, (1490, 37_362_519, 3375, 1885, 0, 0xe76d_b3b9_5cd1_f4fd)),
    ("Qo,o", "two-phase", 1, (1490, 37_362_519, 1940, 1885, 0, 0xe76d_b3b9_5cd1_f4fd)),
    ("Qo,o", "two-phase", 6, (1490, 37_362_519, 1940, 1885, 0, 0xe76d_b3b9_5cd1_f4fd)),
    ("Qo,o", "loose", 1, (1490, 37_362_519, 450, 1885, 0, 0xe76d_b3b9_5cd1_f4fd)),
    ("Qo,o", "loose", 6, (1490, 37_362_519, 450, 1885, 0, 0xe76d_b3b9_5cd1_f4fd)),
];

/// kthResLB of a set: the LB at which its best-LB prefix covers k
/// results.
fn kth_res_lb(k: u64, set: &ComboSet) -> Option<f64> {
    let mut by_lb: Vec<usize> = (0..set.len()).collect();
    by_lb.sort_by(|&a, &b| set.lb(b).total_cmp(&set.lb(a)));
    let mut covered = 0u128;
    by_lb.into_iter().find_map(|i| {
        covered += u128::from(set.nb_res(i));
        (covered >= u128::from(k)).then_some(set.lb(i))
    })
}

#[test]
fn threshold_selection_keeps_the_sorting_selections_on_traffic() {
    // A small instance of the calibrated traffic day (its density, a
    // 35 % packet sample, the connections copied × 3 as in Fig. 13).
    let full = TrafficConfig::calibrated(50_000, 5);
    let sessions = 600;
    let day = (full.day as f64 * sessions as f64 / 50_000.0).ceil() as i64;
    let cfg = TrafficConfig { day, ..TrafficConfig::calibrated(sessions, 5) };
    let (base, _) = traffic_collection(&cfg, 0.35, CollectionId(0));
    let copies = [base.copy_as(CollectionId(1)), base.copy_as(CollectionId(2))];
    let collections: Vec<_> = std::iter::once(base).chain(copies).collect();
    let engine = Tkij::new(TkijConfig::default().with_granules(6));
    let matrices = engine.prepare(collections).unwrap().matrices;
    // A small node budget keeps the debug-build n-ary solves cheap.
    let cfg = SolverConfig { eps: 1e-3, max_nodes: 32 };
    let p = PredicateParams::P3;
    let queries = [("Qb,b", table1::q_bb(p)), ("Qf,b", table1::q_fb(p)), ("Qo,o", table1::q_oo(p))];
    let mut runs = 0;
    for (name, query) in &queries {
        for (strategy_name, strategy) in Strategy::all() {
            for workers in [1, 6] {
                let at = format!("{name}/{strategy_name}/w{workers}");
                let (selected, stats) =
                    run_topbuckets(query, &matrices, 100, strategy, &cfg, workers);
                let pinned = SORTING_SELECTIONS
                    .iter()
                    .find(|pin| (pin.0, pin.1, pin.2) == (*name, strategy_name, workers))
                    .map(|pin| pin.3);
                let counters = (
                    stats.selected,
                    stats.selected_results,
                    stats.solver_calls,
                    stats.pruned_local,
                    stats.pruned_merge,
                    selection_fingerprint(&selected),
                );
                assert_eq!(Some(counters), pinned, "{at}");
                assert_eq!(
                    (stats.candidates, stats.total_results, stats.worker_groups),
                    (3375, 83_453_453, workers),
                    "{at}"
                );
                if *name == "Qb,b" {
                    // A selection all of whose UBs beat the merged
                    // kthResLB has a minimum UB above its own kthResLB
                    // (which is no greater): this one came from the
                    // `ub == kthResLB` tail.
                    let min_ub =
                        (0..selected.len()).map(|i| selected.ub(i)).fold(f64::INFINITY, f64::min);
                    let kth = kth_res_lb(100, &selected);
                    assert!(kth.is_some_and(|kth| min_ub <= kth), "{at}: tail not taken");
                }
                runs += 1;
            }
        }
    }
    assert_eq!(runs, SORTING_SELECTIONS.len());
}
