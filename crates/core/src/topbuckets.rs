//! TopBuckets: bound computation and pruning of bucket combinations
//! (paper §3.3, Algorithms 1 and 2).
//!
//! `getTopBuckets` selects `Ω_{k,S}`: a subset of combinations sufficient
//! to answer the top-k query exactly (Definition 2). The three strategies
//! trade solver effort for bound tightness:
//!
//! * [`Strategy::BruteForce`] — n-ary solver bounds for every combination;
//! * [`Strategy::Loose`] — solver bounds per bucket *pair* per edge,
//!   aggregated through the monotone `S` (sound but possibly loose);
//! * [`Strategy::TwoPhase`] — loose selection, then exact n-ary
//!   refinement of the survivors and a second selection.
//!
//! Like the paper's deployment, the candidate space can be partitioned by
//! the first vertex's buckets across `workers` groups, each running
//! `getTopBuckets` locally, with a final merge + re-selection (§4,
//! "Selection of bucket combinations"); this is proven safe because the
//! merged selection's `kthResLB` dominates every local one.
//!
//! # Threshold selection
//!
//! Algorithm 1 reads as two sorts: order Ω by LB to find `kthResLB`
//! (the LB at which the best-LB prefix covers k results), then walk Ω
//! in UB order, keeping combinations until k results are covered and
//! the next UB is `≤ kthResLB`. [`get_top_buckets`] returns the same
//! index vector without either full sort:
//!
//! 1. `kthResLB` is the greatest LB `v` (in `f64::total_cmp` order) with
//!    Σ nbRes over `{lb ≥ v}` ≥ k. One pass keeps a bounded min-heap on
//!    LB: push each combination, drop the minimum while the rest still
//!    covers k, and skip any combination not above the minimum once k
//!    is covered. Every combination above the final minimum is in the
//!    heap, and without the minimum the heap no longer covers k, so the
//!    minimum is `kthResLB` bit for bit. If Σ nbRes < k the walk never
//!    prunes, and every combination is returned in UB order.
//! 2. The walk's break rule is `collected ≥ k ∧ ub ≤ kthResLB`, and in
//!    UB order the combinations with `ub ≤ kthResLB` all come after the
//!    others. So the walk keeps every combination with
//!    `¬(ub ≤ kthResLB)` (the survivors), sorted by the walk's
//!    comparator ([`ComboSet::indices_by_ub_desc`]: UB desc, LB desc,
//!    buckets asc, index asc — a strict total order).
//! 3. If the survivors cover fewer than k results, the walk goes on into
//!    the dominated combinations until k is covered: the shortest run of
//!    them in comparator order covering the remainder. The same bounded
//!    heap finds it, keyed by the full comparator. On traffic's Qb,b most
//!    combinations have `lb == ub == kthResLB == 1.0`, and the whole
//!    selection comes from this tail.
//!
//! Cost: O(N log h) for the heap pass, where h is the number of
//! combinations that cover k (small: k results fit in few buckets), plus
//! O(S log S) to sort S survivors — instead of two O(N log N) sorts with
//! an indirect comparator. A `NaN` UB, which no solver produces, is kept.

use crate::combos::{
    enumerate_combos, nb_res_of, total_key, vertex_buckets, ComboSet, TopBucketsStats,
    VertexBuckets,
};
use crate::config::Strategy;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use tkij_solver::{nary_bounds, pair_bounds, SolverConfig};
use tkij_temporal::bucket::BucketMatrix;
use tkij_temporal::query::Query;

/// Algorithm 1: selects a valid `Ω_{k,S}` from a bounded combination set.
///
/// Returns the kept indices in descending-UB order (the access order both
/// DTB and the local joins use; see [`ComboSet::indices_by_ub_desc`]).
/// The selection is a threshold one, described in the module docs.
pub fn get_top_buckets(k: u64, combos: &ComboSet) -> Vec<u32> {
    let k = u128::from(k);
    let all = 0..combos.len() as u32;
    let by_ub = |a: &u32, b: &u32| combos.ub_order(*a as usize, *b as usize);
    if combos.total_results() < k {
        // Line 11's coverage test never passes: nothing is pruned.
        let mut kept: Vec<u32> = all.collect();
        kept.sort_unstable_by(by_ub);
        return kept;
    }
    // Lines 1–6: kthResLB is the lowest LB of the shortest best-LB prefix
    // covering k results.
    let lb_prefix =
        shortest_cover(combos, k, all.clone().map(|i| (total_key(combos.lb(i as usize)), i)));
    let Some(Reverse((_, last))) = lb_prefix.peek() else {
        return Vec::new();
    };
    let kth_res_lb = combos.lb(*last as usize);
    // Lines 7–13: every combination line 11 cannot prune, in UB order...
    let dominated = |i: &u32| combos.ub(*i as usize) <= kth_res_lb;
    let mut kept: Vec<u32> = all.clone().filter(|i| !dominated(i)).collect();
    kept.sort_unstable_by(by_ub);
    // ...then, if they leave k uncovered, the shortest UB-order run of the
    // dominated ones that covers the rest (the loop's tail before it
    // breaks).
    let covered: u128 = kept.iter().map(|&i| u128::from(combos.nb_res(i as usize))).sum();
    if covered < k {
        let tail = shortest_cover(
            combos,
            k - covered,
            all.filter(dominated).map(|i| (combos.ub_rank(i as usize), i)),
        );
        kept.extend(tail.into_sorted_vec().into_iter().map(|Reverse((_, i))| i));
    }
    kept
}

/// Among `items` (a key and a combination index each), the shortest run
/// in descending key order whose Σ nbRes reaches `need`, or all of them
/// if none does; equal keys may be cut anywhere. Returned as a min-heap
/// whose top is the run's last item. O(N log h) for a run of h items.
fn shortest_cover<T: Ord>(
    combos: &ComboSet,
    need: u128,
    items: impl Iterator<Item = (T, u32)>,
) -> BinaryHeap<Reverse<(T, u32)>> {
    let nb = |i: u32| u128::from(combos.nb_res(i as usize));
    let mut heap: BinaryHeap<Reverse<(T, u32)>> = BinaryHeap::new();
    let mut covered: u128 = 0;
    for (key, i) in items {
        if covered >= need && heap.peek().is_some_and(|Reverse((top, _))| key <= *top) {
            continue;
        }
        heap.push(Reverse((key, i)));
        covered += nb(i);
        // Drop the lowest item while the rest still covers `need`.
        while heap.len() > 1 {
            let Some(Reverse((_, top))) = heap.peek() else { break };
            let without = covered - nb(*top);
            if without < need {
                break;
            }
            covered = without;
            heap.pop();
        }
    }
    heap
}

/// Per-edge pair-bound tables for the `loose` aggregation: entry
/// `[e][i * len_j + j]` holds the (lb, ub) of edge `e` over the i-th
/// bucket of its source vertex and the j-th bucket of its target vertex.
struct EdgePairBounds {
    per_edge: Vec<Vec<(f64, f64)>>,
    stride: Vec<usize>,
}

impl EdgePairBounds {
    fn compute(
        query: &Query,
        per_vertex: &[VertexBuckets],
        matrices: &[BucketMatrix],
        solver_cfg: &SolverConfig,
        solver_calls: &mut usize,
    ) -> Self {
        let mut per_edge = Vec::with_capacity(query.edges.len());
        let mut stride = Vec::with_capacity(query.edges.len());
        for e in &query.edges {
            let (src, dst) = (e.src, e.dst);
            let src_matrix = &matrices[query.vertices[src].0 as usize];
            let dst_matrix = &matrices[query.vertices[dst].0 as usize];
            let li = per_vertex[src].len();
            let lj = per_vertex[dst].len();
            let mut table = Vec::with_capacity(li * lj);
            for i in 0..li {
                let left = src_matrix.endpoint_box(per_vertex[src].ids[i]);
                for j in 0..lj {
                    let right = dst_matrix.endpoint_box(per_vertex[dst].ids[j]);
                    let b = pair_bounds(&e.predicate, left, right, solver_cfg);
                    *solver_calls += 1;
                    table.push((b.lb, b.ub));
                }
            }
            per_edge.push(table);
            stride.push(lj);
        }
        EdgePairBounds { per_edge, stride }
    }

    #[inline]
    fn get(&self, edge: usize, i: usize, j: usize) -> (f64, f64) {
        self.per_edge[edge][i * self.stride[edge] + j]
    }
}

/// Runs the full TopBuckets phase for a query.
///
/// `matrices` are indexed by collection id; `k` is the query's result
/// budget. Returns `Ω_{k,S}` (descending UB order) and phase telemetry.
pub fn run_topbuckets(
    query: &Query,
    matrices: &[BucketMatrix],
    k: u64,
    strategy: Strategy,
    solver_cfg: &SolverConfig,
    workers: usize,
) -> (ComboSet, TopBucketsStats) {
    // tkij-lint: allow(DET002) -- feeds only TopBucketsStats::duration, a timing artifact
    let started = Instant::now();
    let n = query.n();
    let per_vertex = vertex_buckets(query, matrices);
    let mut stats = TopBucketsStats::default();
    if per_vertex.iter().any(VertexBuckets::is_empty) {
        stats.duration = started.elapsed();
        return (ComboSet::new(n), stats);
    }

    // Shared pair-bound tables (needed by Loose and TwoPhase).
    let mut solver_calls = 0usize;
    let edge_bounds = match strategy {
        Strategy::Loose | Strategy::TwoPhase => Some(EdgePairBounds::compute(
            query,
            &per_vertex,
            matrices,
            solver_cfg,
            &mut solver_calls,
        )),
        Strategy::BruteForce => None,
    };

    // Partition vertex 0's buckets into worker groups.
    let len0 = per_vertex[0].len();
    let workers = workers.clamp(1, len0);
    let group = len0.div_ceil(workers);
    stats.worker_groups = workers;
    let groups = GroupInputs {
        query,
        matrices,
        per_vertex: &per_vertex,
        edge_bounds: edge_bounds.as_ref(),
        strategy,
        solver_cfg,
        k,
    };
    let mut merged = ComboSet::new(n);
    for w in 0..workers {
        let range = (w * group).min(len0)..((w + 1) * group).min(len0);
        let (local, local_stats) = groups.run_group(range);
        stats.candidates += local_stats.0;
        stats.total_results += local_stats.1;
        solver_calls += local_stats.2;
        stats.pruned_local += local_stats.0 - local.len();
        merged.extend(&local);
    }

    // Final merge selection (the paper's "second phase of TopBuckets").
    let mut kept = get_top_buckets(k, &merged);
    stats.pruned_merge += merged.len() - kept.len();
    let mut selected = merged.subset(&kept);

    if strategy == Strategy::TwoPhase {
        // Refine the survivors with exact n-ary bounds, then re-select
        // (Algorithm 2, lines 8–10).
        for i in 0..selected.len() {
            let boxes = combo_boxes(query, matrices, selected.buckets(i));
            let b = nary_bounds(query, boxes, solver_cfg);
            solver_calls += 1;
            selected.set_bounds(i, b.lb, b.ub);
        }
        kept = get_top_buckets(k, &selected);
        stats.pruned_merge += selected.len() - kept.len();
        selected = selected.subset(&kept);
    }

    stats.selected = selected.len();
    stats.selected_results = selected.total_results();
    stats.solver_calls = solver_calls;
    stats.duration = started.elapsed();
    (selected, stats)
}

/// The inputs every vertex-0 group of one TopBuckets run shares.
struct GroupInputs<'a> {
    query: &'a Query,
    matrices: &'a [BucketMatrix],
    per_vertex: &'a [VertexBuckets],
    /// Pair-bound tables (Loose and TwoPhase only).
    edge_bounds: Option<&'a EdgePairBounds>,
    strategy: Strategy,
    solver_cfg: &'a SolverConfig,
    k: u64,
}

impl GroupInputs<'_> {
    /// Enumerates one vertex-0 group, bounds every combination per the
    /// strategy, and applies the local `getTopBuckets`. Returns the local
    /// selection and `(candidates, total_results, solver_calls)`.
    fn run_group(&self, range: std::ops::Range<usize>) -> (ComboSet, (usize, u128, usize)) {
        let GroupInputs { query, matrices, per_vertex, edge_bounds, strategy, solver_cfg, k } =
            *self;
        let n = query.n();
        // The group enumerates every combination of its vertex-0 range.
        let group_len = (per_vertex[1..].iter())
            .try_fold(range.len(), |len, vertex| len.checked_mul(vertex.len()));
        let mut local = ComboSet::with_capacity(n, group_len.unwrap_or(0));
        let mut candidates = 0usize;
        let mut total_results: u128 = 0;
        let mut solver_calls = 0usize;
        let mut bucket_buf = Vec::with_capacity(n);
        let mut edge_lb = vec![0.0; query.edges.len()];
        let mut edge_ub = vec![0.0; query.edges.len()];
        enumerate_combos(per_vertex, range, |indices| {
            candidates += 1;
            let nb = nb_res_of(per_vertex, indices);
            total_results += nb as u128;
            bucket_buf.clear();
            bucket_buf.extend(indices.iter().enumerate().map(|(v, &i)| per_vertex[v].ids[i]));
            let (lb, ub) = match strategy {
                Strategy::Loose | Strategy::TwoPhase => {
                    let eb = edge_bounds.expect("pair bounds precomputed");
                    for (e, edge) in query.edges.iter().enumerate() {
                        let (lb, ub) = eb.get(e, indices[edge.src], indices[edge.dst]);
                        edge_lb[e] = lb;
                        edge_ub[e] = ub;
                    }
                    (query.aggregation.eval(&edge_lb), query.aggregation.eval(&edge_ub))
                }
                Strategy::BruteForce => {
                    let boxes = combo_boxes(query, matrices, &bucket_buf);
                    let b = nary_bounds(query, boxes, solver_cfg);
                    solver_calls += 1;
                    (b.lb, b.ub)
                }
            };
            local.push(&bucket_buf, nb, lb, ub);
        });
        let kept = get_top_buckets(k, &local);
        (local.subset(&kept), (candidates, total_results, solver_calls))
    }
}

/// The endpoint boxes of one combination, per query vertex.
pub fn combo_boxes(
    query: &Query,
    matrices: &[BucketMatrix],
    buckets: &[tkij_temporal::bucket::BucketId],
) -> Vec<tkij_temporal::expr::EndpointBox> {
    buckets
        .iter()
        .enumerate()
        .map(|(v, b)| matrices[query.vertices[v].0 as usize].endpoint_box(*b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_temporal::bucket::BucketId;
    use tkij_temporal::collection::CollectionId;
    use tkij_temporal::granule::TimePartitioning;
    use tkij_temporal::interval::Interval;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    fn combo(set: &mut ComboSet, b: u32, nb: u64, lb: f64, ub: f64) {
        set.push(&[BucketId::new(b, b)], nb, lb, ub);
    }

    /// `combos`' indices stably sorted by descending `first`, then
    /// descending `second`, then ascending buckets.
    fn sorted_by(
        combos: &ComboSet,
        first: fn(&ComboSet, usize) -> f64,
        second: fn(&ComboSet, usize) -> f64,
    ) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..combos.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            (first(combos, b).total_cmp(&first(combos, a)))
                .then_with(|| second(combos, b).total_cmp(&second(combos, a)))
                .then_with(|| combos.buckets(a).cmp(combos.buckets(b)))
        });
        idx
    }

    /// Lines 1–6 of the sort-based Algorithm 1 that `get_top_buckets`
    /// replaced: the LB of the best-LB prefix's last combination.
    fn kth_res_lb_by_sorting(k: u64, combos: &ComboSet) -> f64 {
        let by_lb = sorted_by(combos, ComboSet::lb, ComboSet::ub);
        let mut collected: u128 = 0;
        let mut kth_res_lb = f64::NEG_INFINITY;
        for &i in &by_lb {
            collected += combos.nb_res(i as usize) as u128;
            kth_res_lb = combos.lb(i as usize);
            if collected >= k as u128 {
                break;
            }
        }
        kth_res_lb
    }

    /// The sort-based Algorithm 1 (both full orders, then the two walks):
    /// the reference the threshold selection must equal index for index.
    fn get_top_buckets_by_sorting(k: u64, combos: &ComboSet) -> Vec<u32> {
        let kth_res_lb = kth_res_lb_by_sorting(k, combos);
        let mut kept = Vec::new();
        let mut collected: u128 = 0;
        for i in sorted_by(combos, ComboSet::ub, ComboSet::lb) {
            if collected >= k as u128 && combos.ub(i as usize) <= kth_res_lb {
                break;
            }
            kept.push(i);
            collected += combos.nb_res(i as usize) as u128;
        }
        kept
    }

    /// Bound values with exact ties, both zeros, and the extremes.
    const BOUNDS: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0];
    const NB_RES: [u64; 6] = [0, 1, 1, 2, 7, u64::MAX];

    /// One combination's draw: bucket seed, then nbRes, LB and UB picks.
    type Draw = (u32, usize, usize, usize);

    /// Builds the case `shape` names from `draws` and `k_pick`; returns
    /// the set, its k, and the case's name.
    fn shaped_case(shape: u8, draws: &[Draw], k_pick: u64) -> (ComboSet, u64, &'static str) {
        let mut set = ComboSet::new(2);
        for &(b, nb_pick, lb_pick, ub_pick) in draws {
            let mut nb = NB_RES[nb_pick % NB_RES.len()];
            let (mut lb, mut ub) = (BOUNDS[lb_pick % BOUNDS.len()], BOUNDS[ub_pick % BOUNDS.len()]);
            match shape {
                // Three in four at lb == ub == 1.0: the k-th LB equals most
                // UBs, so the walk's tail decides.
                1 if b % 4 != 0 => (lb, ub) = (1.0, 1.0),
                // Four in five at -0.0 or 0.0 (BOUNDS starts with both).
                2 if b % 5 != 0 => (lb, ub) = (BOUNDS[lb_pick % 2], BOUNDS[ub_pick % 2]),
                3 if b % 2 == 0 => nb = u64::MAX,
                5 => nb = nb.min(7),
                _ => {}
            }
            set.push(&[BucketId::new(b % 3, b % 3), BucketId::new(0, b % 5)], nb, lb, ub);
            if shape == 6 {
                break;
            }
        }
        if shape == 7 {
            set = ComboSet::new(2);
        }
        let total = set.total_results().min(u128::from(u64::MAX)) as u64;
        let name = ["ties", "lb == ub == kth", "signed zeros", "saturated nbRes"];
        match shape {
            4 => return (set, u64::MAX, "k = u64::MAX"),
            5 => return (set, total + 1 + k_pick % 3, "Σ nbRes < k"),
            6 => return (set, k_pick % 4, "one combination"),
            7 => return (set, k_pick % 2, "empty set"),
            _ => {}
        }
        // Small k (ties at the k-th LB), k near the total (coverage ends
        // on the last combinations), or anywhere in between.
        let k = match k_pick % 3 {
            0 => (k_pick >> 2) % 4,
            1 => total.saturating_sub((k_pick >> 2) % 3),
            _ => (k_pick >> 2) % (2 * draws.len() as u64 + 2),
        };
        (set, k, name[usize::from(shape)])
    }

    proptest::proptest! {
        /// The threshold selection returns exactly the sort-based one's
        /// index vector, on every drawn shape.
        #[test]
        fn threshold_selection_equals_sorting_oracle(
            shape in 0u8..8,
            draws in proptest::collection::vec((0u32..60, 0usize..6, 0usize..8, 0usize..8), 1..40),
            k_pick in 0u64..u64::MAX,
        ) {
            let (set, k, name) = shaped_case(shape, &draws, k_pick);
            let expected = get_top_buckets_by_sorting(k, &set);
            proptest::prop_assert_eq!(get_top_buckets(k, &set), expected, "{} (k = {})", name, k);
        }
    }

    #[test]
    fn shaped_cases_reach_every_path() {
        // The proptest's shapes do reach the paths they are named for: the
        // tail of `ub == kthResLB` combinations, a zero kthResLB with both
        // zeros among the UBs, saturated nbRes, and Σ nbRes < k.
        use proptest::strategy::Strategy as _;
        let draws = proptest::collection::vec((0u32..60, 0usize..6, 0usize..8, 0usize..8), 1..40);
        let mut rng = proptest::test_runner::TestRng::new(7);
        let (mut tail, mut zeros, mut saturated, mut scarce) = (0, 0, 0, 0);
        for case in 0..256u32 {
            let (set, k, _) =
                shaped_case((case % 8) as u8, &draws.generate(&mut rng), rng.next_u64());
            let kept = get_top_buckets(k, &set);
            if set.total_results() < u128::from(k) {
                scarce += 1;
                continue;
            }
            let kth = kth_res_lb_by_sorting(k, &set);
            tail += kept.iter().any(|&i| set.ub(i as usize) <= kth) as u32;
            let signs = (0..set.len()).filter(|&i| set.ub(i) == 0.0).map(|i| set.ub(i).to_bits());
            zeros +=
                (kth == 0.0 && signs.collect::<std::collections::BTreeSet<_>>().len() == 2) as u32;
            saturated += (0..set.len()).any(|i| set.nb_res(i) == u64::MAX) as u32;
        }
        assert!(
            tail >= 64 && zeros >= 8 && saturated >= 64 && scarce >= 32,
            "tail {tail}, zeros {zeros}, saturated {saturated}, scarce {scarce}"
        );
    }

    #[test]
    fn threshold_selection_takes_the_tied_tail() {
        // kthResLB = 1.0 = every UB: only the walk's tail keeps anything,
        // and it stops as soon as k is covered.
        let mut set = ComboSet::new(1);
        for b in 0..6 {
            combo(&mut set, b, 1, 1.0, 1.0);
        }
        assert_eq!(get_top_buckets(1, &set), vec![0]);
        assert_eq!(get_top_buckets(4, &set), vec![0, 1, 2, 3]);
        assert_eq!(get_top_buckets(4, &set), get_top_buckets_by_sorting(4, &set));
    }

    #[test]
    fn threshold_selection_orders_signed_zeros_like_total_cmp() {
        // total_cmp puts -0.0 below 0.0, so kthResLB is 0.0 here, and the
        // -0.0 UB is dominated by it under IEEE `<=`.
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 1, 0.0, 0.0);
        combo(&mut set, 1, 1, -0.0, -0.0);
        combo(&mut set, 2, 1, -0.0, 0.0);
        for k in 0..4 {
            assert_eq!(get_top_buckets(k, &set), get_top_buckets_by_sorting(k, &set), "k = {k}");
        }
    }

    #[test]
    fn get_top_buckets_prunes_dominated() {
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 10, 0.8, 1.0); // covers k with lb 0.8
        combo(&mut set, 1, 10, 0.1, 0.5); // ub 0.5 ≤ kthResLB 0.8 → pruned
        combo(&mut set, 2, 10, 0.2, 0.9); // ub 0.9 > 0.8 → kept
        let kept = get_top_buckets(5, &set);
        assert_eq!(kept.len(), 2);
        let selected = set.subset(&kept);
        assert!((0..selected.len()).all(|i| selected.ub(i) > 0.5));
    }

    #[test]
    fn get_top_buckets_keeps_all_when_results_scarce() {
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 1, 0.9, 1.0);
        combo(&mut set, 1, 1, 0.0, 0.1);
        let kept = get_top_buckets(10, &set);
        assert_eq!(kept.len(), 2, "fewer than k results: nothing prunable");
    }

    #[test]
    fn get_top_buckets_respects_coverage_before_pruning() {
        // kthResLB comes from the best-LB prefix covering k = 15: needs
        // both high-lb combos (10 + 10), so kth_lb = 0.6.
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 10, 0.7, 1.0);
        combo(&mut set, 1, 10, 0.6, 0.9);
        combo(&mut set, 2, 100, 0.0, 0.6); // ub = 0.6 ≤ 0.6 → pruned
        combo(&mut set, 3, 100, 0.0, 0.61); // just above → kept
        let kept = get_top_buckets(15, &set);
        let selected = set.subset(&kept);
        assert_eq!(selected.len(), 3);
        assert!((0..3).all(|i| selected.ub(i) >= 0.61));
    }

    #[test]
    fn get_top_buckets_output_is_ub_sorted() {
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 1, 0.1, 0.3);
        combo(&mut set, 1, 1, 0.2, 0.8);
        combo(&mut set, 2, 1, 0.0, 0.5);
        let kept = get_top_buckets(100, &set);
        let ubs: Vec<f64> = kept.iter().map(|&i| set.ub(i as usize)).collect();
        assert!(ubs.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Tiny two-collection dataset where the exact Ω_{k,S} is computable by
    /// hand: intervals cluster in two far-apart granule regions.
    fn small_dataset() -> (Vec<BucketMatrix>, Vec<Interval>, Vec<Interval>) {
        let part = TimePartitioning::from_range(0, 99, 10).unwrap();
        let c1: Vec<Interval> = vec![
            Interval::new(0, 5, 9).unwrap(),
            Interval::new(1, 6, 9).unwrap(),
            Interval::new(2, 71, 79).unwrap(),
        ];
        let c2: Vec<Interval> = vec![
            Interval::new(0, 10, 14).unwrap(),
            Interval::new(1, 90, 95).unwrap(),
            Interval::new(2, 12, 19).unwrap(),
        ];
        let m1 = BucketMatrix::build(part, &c1);
        let m2 = BucketMatrix::build(part, &c2);
        (vec![m1, m2], c1, c2)
    }

    fn two_way_meets() -> Query {
        let p = PredicateParams::new(4, 8, 0, 0);
        Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![tkij_temporal::query::QueryEdge {
                src: 0,
                dst: 1,
                predicate: tkij_temporal::predicate::TemporalPredicate::meets(p),
            }],
            tkij_temporal::aggregate::Aggregation::NormalizedSum,
        )
        .unwrap()
    }

    #[test]
    fn strategies_select_supersets_of_needed_combos() {
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        for (name, strategy) in Strategy::all() {
            let (selected, stats) =
                run_topbuckets(&q, &matrices, 2, strategy, &SolverConfig::default(), 1);
            assert!(!selected.is_empty(), "{name}: nothing selected");
            assert!(stats.selected_results >= 2, "{name}: must cover k results");
            assert_eq!(stats.candidates, 4, "{name}: 2×2 buckets");
            // The bucket pair (start≈5, end≈9) × (start≈10..19) scores 1.0
            // and must be selected under every strategy.
            let has_hot = (0..selected.len()).any(|i| {
                selected.buckets(i)[0] == BucketId::new(0, 0)
                    && selected.buckets(i)[1] == BucketId::new(1, 1)
            });
            assert!(has_hot, "{name}: missing the high-scoring combination");
        }
    }

    #[test]
    fn loose_bounds_dominate_brute_force_bounds() {
        // Same combination set: loose UB ≥ brute-force UB, loose LB ≤
        // brute-force LB (loose is sound but weaker).
        let (matrices, _, _) = small_dataset();
        let q = table1::q_sm(PredicateParams::P1);
        let matrices3 = vec![matrices[0].clone(), matrices[1].clone(), matrices[0].clone()];
        let big_k = u64::MAX; // keep everything so sets align
        let (loose, _) =
            run_topbuckets(&q, &matrices3, big_k, Strategy::Loose, &SolverConfig::default(), 1);
        let (brute, _) = run_topbuckets(
            &q,
            &matrices3,
            big_k,
            Strategy::BruteForce,
            &SolverConfig::default(),
            1,
        );
        assert_eq!(loose.len(), brute.len());
        // Index combos by buckets for comparison.
        use std::collections::BTreeMap;
        let mut brute_by_buckets = BTreeMap::new();
        for i in 0..brute.len() {
            brute_by_buckets.insert(brute.buckets(i).to_vec(), (brute.lb(i), brute.ub(i)));
        }
        for i in 0..loose.len() {
            let (blb, bub) = brute_by_buckets[&loose.buckets(i).to_vec()];
            assert!(loose.ub(i) >= bub - 1e-9, "loose ub must dominate");
            assert!(loose.lb(i) <= blb + 1e-9, "loose lb must be dominated");
        }
    }

    #[test]
    fn partitioned_workers_select_valid_superset() {
        // Multi-worker selection must still contain every combination the
        // single-worker selection deems necessary (both are valid Ω_{k,S};
        // the partitioned one may be larger, never smaller than needed).
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        let (single, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::Loose, &SolverConfig::default(), 1);
        let (multi, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::Loose, &SolverConfig::default(), 4);
        let single_set: std::collections::BTreeSet<Vec<_>> =
            (0..single.len()).map(|i| single.buckets(i).to_vec()).collect();
        let multi_set: std::collections::BTreeSet<Vec<_>> =
            (0..multi.len()).map(|i| multi.buckets(i).to_vec()).collect();
        // Both cover at least k results.
        assert!(single.total_results() >= 2 && multi.total_results() >= 2);
        // The hottest combination is in both.
        for set in [&single_set, &multi_set] {
            assert!(set.contains(&vec![BucketId::new(0, 0), BucketId::new(1, 1)]));
        }
    }

    #[test]
    fn two_phase_never_selects_more_than_loose() {
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        let (loose, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::Loose, &SolverConfig::default(), 1);
        let (two, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::TwoPhase, &SolverConfig::default(), 1);
        assert!(two.len() <= loose.len());
    }

    #[test]
    fn definition2_validity_on_random_combosets() {
        // Property (paper Def. 2): for every pruned ω there must exist
        // Ψ ⊆ Ω_{k,S} with Σ nbRes ≥ k and ∀ω′∈Ψ: ω′.LB ≥ ω.UB.
        // Deterministic pseudo-random exploration over many shapes.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let n_combos = (next() % 40 + 1) as usize;
            let k = next() % 50 + 1;
            let mut set = ComboSet::new(1);
            for i in 0..n_combos {
                let lb = (next() % 1000) as f64 / 1000.0;
                let ub = lb + (next() % 1000) as f64 / 1000.0 * (1.0 - lb);
                let nb = next() % 20 + 1;
                set.push(&[BucketId::new(i as u32, i as u32)], nb, lb, ub);
            }
            let kept = get_top_buckets(k, &set);
            let kept_set: std::collections::BTreeSet<u32> = kept.iter().copied().collect();
            for pruned in 0..n_combos as u32 {
                if kept_set.contains(&pruned) {
                    continue;
                }
                let ub = set.ub(pruned as usize);
                let cover: u128 = kept
                    .iter()
                    .filter(|&&i| set.lb(i as usize) >= ub)
                    .map(|&i| set.nb_res(i as usize) as u128)
                    .sum();
                assert!(
                    cover >= k as u128,
                    "trial {trial}: pruned combo (ub {ub}) not covered by {cover} ≥ k={k} results"
                );
            }
        }
    }

    #[test]
    fn pruning_counters_account_for_every_candidate() {
        // The work-counter invariant the bench gate relies on: every
        // examined combination is either selected or counted pruned at
        // exactly one of the two selection stages.
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        for (name, strategy) in Strategy::all() {
            for workers in [1, 2, 4] {
                let (selected, stats) =
                    run_topbuckets(&q, &matrices, 2, strategy, &SolverConfig::default(), workers);
                assert_eq!(
                    stats.candidates - stats.pruned_local - stats.pruned_merge,
                    selected.len(),
                    "{name}/w{workers}: {stats:?}"
                );
                assert_eq!(stats.selected, selected.len(), "{name}/w{workers}");
                assert_eq!(
                    stats.worker_groups,
                    workers.min(2),
                    "{name}/w{workers}: 2 buckets on v0"
                );
            }
        }
    }

    #[test]
    fn empty_vertex_yields_empty_selection() {
        let part = TimePartitioning::from_range(0, 99, 10).unwrap();
        let empty = BucketMatrix::new(part);
        let full = BucketMatrix::build(part, &[Interval::new(0, 1, 5).unwrap()]);
        let q = two_way_meets();
        let (selected, stats) =
            run_topbuckets(&q, &[full, empty], 5, Strategy::Loose, &SolverConfig::default(), 1);
        assert!(selected.is_empty());
        assert_eq!(stats.candidates, 0);
    }
}
