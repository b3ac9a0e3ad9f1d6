//! The paper's central guarantee, verified end to end through the public
//! facade: TKIJ returns the **exact** top-k — its score sequence equals an
//! exhaustive oracle's for every query shape, parameterization,
//! granularity, k and data distribution we can afford to enumerate.

use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij::prelude::*;

/// Runs TKIJ and the oracle and compares score sequences; also validates
/// every returned tuple by re-scoring it against the actual intervals.
fn assert_exact(engine: &Tkij, dataset: &PreparedDataset, query: &Query, k: usize, label: &str) {
    assert_matches(engine, dataset, query, k, &oracle(dataset, query, k), label);
}

/// The exhaustive top-k of `query` over the dataset's collections.
fn oracle(dataset: &PreparedDataset, query: &Query, k: usize) -> Vec<MatchTuple> {
    let refs: Vec<&IntervalCollection> =
        query.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
    naive_topk(query, &refs, k)
}

/// [`assert_exact`] against a precomputed oracle result; returns the
/// engine's report.
fn assert_matches(
    engine: &Tkij,
    dataset: &PreparedDataset,
    query: &Query,
    k: usize,
    expected: &[MatchTuple],
    label: &str,
) -> ExecutionReport {
    let report = engine.execute(dataset, query, k).expect(label);
    assert_eq!(report.results.len(), expected.len(), "{label}: cardinality");
    for (i, (got, want)) in report.results.iter().zip(expected).enumerate() {
        assert!(
            (got.score - want.score).abs() < 1e-9,
            "{label}: rank {i}: {} vs {}",
            got.score,
            want.score
        );
        let tuple: Vec<Interval> = got
            .ids
            .iter()
            .zip(&query.vertices)
            .map(|(id, c)| {
                *dataset.collections[c.0 as usize]
                    .intervals()
                    .iter()
                    .find(|iv| iv.id == *id)
                    .unwrap_or_else(|| panic!("{label}: unknown id {id}"))
            })
            .collect();
        assert!(
            (query.score_tuple(&tuple) - got.score).abs() < 1e-9,
            "{label}: rank {i} reports a wrong score"
        );
    }
    report
}

#[test]
fn synthetic_all_table1_queries_and_params() {
    for seed in [1u64, 7] {
        let engine = Tkij::new(TkijConfig::default().with_granules(7).with_reducers(5));
        let dataset = engine.prepare(uniform_collections(3, 45, seed)).unwrap();
        let avg = dataset.collections[0].avg_length();
        for (pname, params) in PredicateParams::table2() {
            for (qname, q) in table1::all(params, avg) {
                assert_exact(&engine, &dataset, &q, 6, &format!("{qname}/{pname}/seed{seed}"));
            }
        }
    }
}

#[test]
fn k_sweep_and_granularity_sweep() {
    let engine_for = |g: u32| Tkij::new(TkijConfig::default().with_granules(g).with_reducers(4));
    let q = table1::q_om(PredicateParams::P2);
    for g in [1u32, 2, 5, 13] {
        let engine = engine_for(g);
        let dataset = engine.prepare(uniform_collections(3, 30, 33)).unwrap();
        for k in [1usize, 2, 5, 29, 100, 40_000] {
            assert_exact(&engine, &dataset, &q, k, &format!("Qom/g{g}/k{k}"));
        }
    }
}

#[test]
fn alternative_aggregations() {
    let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(3));
    let dataset = engine.prepare(uniform_collections(3, 35, 88)).unwrap();
    let p = PredicateParams::P1;
    let make = |agg: Aggregation| {
        Query::new(
            vec![CollectionId(0), CollectionId(1), CollectionId(2)],
            vec![
                QueryEdge { src: 0, dst: 1, predicate: TemporalPredicate::overlaps(p) },
                QueryEdge { src: 1, dst: 2, predicate: TemporalPredicate::meets(p) },
            ],
            agg,
        )
        .unwrap()
    };
    assert_exact(&engine, &dataset, &make(Aggregation::Min), 8, "min-agg");
    assert_exact(
        &engine,
        &dataset,
        &make(Aggregation::WeightedSum(vec![3.0, 1.0])),
        8,
        "weighted-agg",
    );
}

/// Cyclic queries, whose cycle-closing join steps probe cover windows:
/// the union of per-edge windows (sums) or their intersection (min),
/// under every aggregation — including a zero-weight edge, which can never
/// carry a cover — on both fixed backends, sequential and with two task
/// and chunk workers (small probe chunks, so wave chunks prune against
/// the shared bound).
#[test]
fn cyclic_queries_under_every_aggregation() {
    let p = PredicateParams::P2;
    let edge = |src, dst, predicate| QueryEdge { src, dst, predicate };
    let sfm = |agg: Aggregation| {
        let mut q = table1::q_sfm(p);
        q.aggregation = agg;
        q
    };
    // x3 closes three edges at once: its step anchors on (x0, x3) and
    // checks (x1, x3) and (x2, x3).
    let four = |agg: Aggregation| {
        Query::new(
            (0..4).map(CollectionId).collect(),
            vec![
                edge(0, 1, TemporalPredicate::starts(p)),
                edge(1, 2, TemporalPredicate::finished_by(p)),
                edge(0, 3, TemporalPredicate::meets(p)),
                edge(1, 3, TemporalPredicate::overlaps(p)),
                edge(2, 3, TemporalPredicate::overlaps(p)),
            ],
            agg,
        )
        .unwrap()
    };
    let last = four(Aggregation::NormalizedSum).plan().steps.pop().unwrap();
    assert_eq!((last.vertex, last.checks.len()), (3, 2), "x3 closes two cycles");
    let cases = [
        ("sfm/sum", sfm(Aggregation::NormalizedSum), 3u32),
        ("sfm/min", sfm(Aggregation::Min), 3),
        ("sfm/weighted", sfm(Aggregation::WeightedSum(vec![2.0, 1.0, 1.0])), 3),
        ("sfm/zero-weight-anchor", sfm(Aggregation::WeightedSum(vec![1.0, 0.0, 2.0])), 3),
        ("4way/sum", four(Aggregation::NormalizedSum), 4),
        ("4way/min", four(Aggregation::Min), 4),
        ("4way/weighted", four(Aggregation::WeightedSum(vec![1.0, 0.0, 3.0, 1.0, 2.0])), 4),
    ];
    let mut engines = Vec::new();
    for backend in [LocalJoinBackend::Sweep, LocalJoinBackend::RTree] {
        for threads in [1usize, 2] {
            let engine = Tkij::with_cluster(
                TkijConfig::default()
                    .with_granules(5)
                    .with_reducers(3)
                    .with_local_backend(backend)
                    .with_probe_chunk_items(4),
                ClusterConfig {
                    worker_threads: threads,
                    intra_join_threads: threads,
                    ..Default::default()
                },
            );
            engines.push((format!("{}/threads{threads}", backend.name()), engine));
        }
    }
    for (n, size) in [(3u32, 40usize), (4, 24)] {
        // Dense enough that the 4th score is positive, so a full heap
        // makes the covers bite.
        let cfg = SyntheticConfig { size, start_range: (0, 200), length_range: (1, 100), seed: 29 };
        let collections: Vec<IntervalCollection> =
            (0..n).map(|c| uniform_collection(CollectionId(c), &cfg)).collect();
        let datasets: Vec<PreparedDataset> =
            engines.iter().map(|(_, e)| e.prepare(collections.clone()).unwrap()).collect();
        for (name, q, _) in cases.iter().filter(|c| c.2 == n) {
            for k in [4usize, 30] {
                let expected = oracle(&datasets[0], q, k);
                for ((config, engine), dataset) in engines.iter().zip(&datasets) {
                    let label = format!("{name}/{config}/k{k}");
                    let report = assert_matches(engine, dataset, q, k, &expected, &label);
                    if k == 4 {
                        assert!(report.results[k - 1].score > 0.0, "{label}: τ stays at 0");
                    }
                }
            }
        }
    }
}

#[test]
fn traffic_data_self_join() {
    let cfg = TrafficConfig::calibrated(600, 5);
    let (base, _) = traffic_collection(&cfg, 1.0, CollectionId(0));
    // Use a prefix so the oracle stays cheap.
    let small = IntervalCollection::new(
        CollectionId(0),
        base.intervals().iter().take(60).copied().collect(),
    )
    .unwrap();
    let avg = small.avg_length();
    let collections =
        vec![small.clone(), small.copy_as(CollectionId(1)), small.copy_as(CollectionId(2))];
    let engine = Tkij::new(TkijConfig::default().with_granules(10).with_reducers(4));
    let dataset = engine.prepare(collections).unwrap();
    for (qname, q) in [
        ("QjB,jB", table1::q_jbjb(PredicateParams::P3, avg)),
        ("QsM,sM", table1::q_smsm(PredicateParams::P3, avg)),
        ("Qo,o", table1::q_oo(PredicateParams::P3)),
    ] {
        assert_exact(&engine, &dataset, &q, 10, qname);
    }
}

#[test]
fn adversarial_clustered_data() {
    // All intervals inside one granule, plus a far outlier cluster:
    // stresses same-granule buckets (invalid box corners) and pruning.
    let mut intervals = Vec::new();
    for i in 0..40u64 {
        intervals
            .push(Interval::new(i, 1000 + (i as i64 % 7), 1000 + (i as i64 % 11) + 5).unwrap());
    }
    for i in 40..50u64 {
        intervals.push(Interval::new(i, 50_000, 50_040 + i as i64).unwrap());
    }
    let c = IntervalCollection::new(CollectionId(0), intervals).unwrap();
    let collections = vec![c.clone(), c.copy_as(CollectionId(1)), c.copy_as(CollectionId(2))];
    let engine = Tkij::new(TkijConfig::default().with_granules(12).with_reducers(6));
    let dataset = engine.prepare(collections).unwrap();
    for (qname, q) in table1::all(PredicateParams::P1, c.avg_length()) {
        assert_exact(&engine, &dataset, &q, 5, &format!("clustered/{qname}"));
    }
}

#[test]
fn two_way_queries_are_supported() {
    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
    let dataset = engine.prepare(uniform_collections(2, 80, 4)).unwrap();
    let p = PredicateParams::P1;
    for pred in [
        TemporalPredicate::before(p),
        TemporalPredicate::equals(p),
        TemporalPredicate::contains(p),
        TemporalPredicate::sparks(p, 10),
    ] {
        let q = Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![QueryEdge { src: 0, dst: 1, predicate: pred.clone() }],
            Aggregation::NormalizedSum,
        )
        .unwrap();
        assert_exact(&engine, &dataset, &q, 12, &pred.to_string());
    }
}
