//! Monotone aggregation of per-edge predicate scores (the paper's `S`).
//!
//! The score of an n-ary result tuple aggregates the partial scores of
//! every query edge. The paper requires `S` to be **monotone** — this is
//! what makes bound aggregation in the `loose` strategy sound (Alg. 2,
//! lines 4–5) and what the rank-join early-termination thresholds rely on.
//!
//! The paper's experiments use the normalized sum
//! `S = Σ s-p(i,j)(x_i, x_j) / |E|`; weighted sums and `min` are provided
//! as the other common monotone choices from the rank-join literature.

/// Rounding margin of [`Aggregation::cover_thresholds`], in units of
/// the aggregate score: far above the few ulps of error in the sums, far
/// below any score difference a predicate's tolerance can produce.
pub const COVER_MARGIN: f64 = 1e-9;

/// How the per-edge thresholds of [`Aggregation::cover_thresholds`]
/// combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cover {
    /// Nothing is required: every candidate may still reach the target.
    Vacuous,
    /// At least one covered edge must reach its threshold.
    Any,
    /// Every covered edge must reach its threshold.
    All,
}

/// A monotone aggregation function over edge scores in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregation {
    /// `Σ sᵢ / n` — the paper's default (§4, "Queries").
    NormalizedSum,
    /// `Σ wᵢ·sᵢ` with non-negative weights, normalized by `Σ wᵢ` so results
    /// stay in `[0, 1]`.
    WeightedSum(Vec<f64>),
    /// `min(sᵢ)` — the strictest monotone aggregation.
    Min,
}

impl Aggregation {
    /// Aggregates the edge scores into a tuple score in `[0, 1]`.
    pub fn eval(&self, scores: &[f64]) -> f64 {
        assert!(!scores.is_empty(), "aggregation over zero edges");
        match self {
            Aggregation::NormalizedSum => scores.iter().sum::<f64>() / scores.len() as f64,
            Aggregation::WeightedSum(w) => {
                assert_eq!(w.len(), scores.len(), "weight/edge arity mismatch");
                let total: f64 = w.iter().sum();
                assert!(total > 0.0, "weights must not all be zero");
                w.iter().zip(scores).map(|(wi, si)| wi * si).sum::<f64>() / total
            }
            Aggregation::Min => scores.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// Aggregates per-edge score *bounds* into tuple-score bounds.
    ///
    /// Because `S` is monotone, applying it componentwise to the lower
    /// (resp. upper) ends yields a sound lower (resp. upper) bound — this
    /// is exactly how the `loose` strategy combines pair bounds (Alg. 2).
    pub fn combine_bounds(&self, bounds: &[(f64, f64)]) -> (f64, f64) {
        let los: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let his: Vec<f64> = bounds.iter().map(|b| b.1).collect();
        (self.eval(&los), self.eval(&his))
    }

    /// Minimum score edge `edge` must reach for a tuple to be able to
    /// attain total score `target`, given that the edges listed in
    /// `fixed` already have known scores and every other edge is
    /// optimistically assumed to score `1.0`.
    ///
    /// Used by the local rank-join to derive R-tree thresholds: candidates
    /// scoring below the returned value cannot contribute a top-k result.
    /// A non-positive return value means the edge is unconstrained.
    pub fn required_edge_score(
        &self,
        fixed: &[(usize, f64)],
        edge: usize,
        num_edges: usize,
        target: f64,
    ) -> f64 {
        debug_assert!(edge < num_edges);
        debug_assert!(fixed.iter().all(|(e, _)| *e != edge));
        match self {
            Aggregation::NormalizedSum => {
                let fixed_sum: f64 = fixed.iter().map(|(_, s)| s).sum();
                let free = num_edges - fixed.len() - 1; // besides `edge`
                target * num_edges as f64 - fixed_sum - free as f64
            }
            Aggregation::WeightedSum(w) => {
                let total: f64 = w.iter().sum();
                let fixed_sum: f64 = fixed.iter().map(|(e, s)| w[*e] * s).sum();
                let mut free_sum = 0.0;
                for (e, we) in w.iter().enumerate() {
                    if e != edge && !fixed.iter().any(|(fe, _)| *fe == e) {
                        free_sum += we;
                    }
                }
                if w[edge] <= 0.0 {
                    // Zero-weight edge can never be constrained.
                    return f64::NEG_INFINITY;
                }
                (target * total - fixed_sum - free_sum) / w[edge]
            }
            Aggregation::Min => target,
        }
    }

    /// The joint threshold a candidate must meet on a set of *covered*
    /// edges — the edges one join step binds at once (its anchor edge,
    /// first, plus the cycle edges it closes) — for the tuple to still be
    /// able to attain `target`, given the `fixed` scores and every edge
    /// that is neither fixed nor covered optimistically at `1.0`.
    ///
    /// Writes one threshold per covered edge into `out` (same order as
    /// `covered`) and says how they combine ([`Cover`]):
    ///
    /// * a single covered edge is exactly [`Aggregation::required_edge_score`]
    ///   ([`Cover::All`]; [`Cover::Vacuous`] when that is `≤ 0`), so a
    ///   step without cycle edges keeps its bit-identical threshold;
    /// * sums: the covered edges must contribute `R = target·Σw − Σ
    ///   fixed wᵢsᵢ − Σ free wᵢ`; if `R > 0`, some positive-weight
    ///   covered edge `i` must reach `R / (m·wᵢ)`, `m` the number of such
    ///   edges (the largest of `m` terms is at least their mean) —
    ///   [`Cover::Any`]. `R` is lowered by `COVER_MARGIN·Σw` first, so
    ///   float rounding in `R`, in the division, and in [`Aggregation::eval`]
    ///   can never push a qualifying score vector below every threshold.
    ///   A zero-weight edge gets `+∞` (it can never be the one);
    /// * min: every covered edge must reach `target` ([`Cover::All`]).
    ///
    /// Sound for both admission rules: a score vector whose aggregate is
    /// `≥ target` (and therefore one that is `> target`) meets the cover.
    pub fn cover_thresholds(
        &self,
        fixed: &[(usize, f64)],
        covered: &[usize],
        num_edges: usize,
        target: f64,
        out: &mut Vec<f64>,
    ) -> Cover {
        out.clear();
        if let [edge] = covered {
            let need = self.required_edge_score(fixed, *edge, num_edges, target);
            if need <= 0.0 {
                return Cover::Vacuous;
            }
            out.push(need);
            return Cover::All;
        }
        let weight = |e: usize| match self {
            Aggregation::WeightedSum(w) => w[e],
            _ => 1.0,
        };
        match self {
            Aggregation::Min => {
                if target <= 0.0 {
                    return Cover::Vacuous;
                }
                out.extend(covered.iter().map(|_| target));
                Cover::All
            }
            Aggregation::NormalizedSum | Aggregation::WeightedSum(_) => {
                let total: f64 = (0..num_edges).map(weight).sum();
                let mut rest = target * total;
                for &(e, s) in fixed {
                    rest -= weight(e) * s;
                }
                for e in 0..num_edges {
                    if !covered.contains(&e) && !fixed.iter().any(|&(f, _)| f == e) {
                        rest -= weight(e);
                    }
                }
                let rest = rest - COVER_MARGIN * total;
                if rest <= 0.0 {
                    return Cover::Vacuous;
                }
                let live = covered.iter().filter(|&&e| weight(e) > 0.0).count() as f64;
                out.extend(covered.iter().map(|&e| {
                    let w = weight(e);
                    if w > 0.0 {
                        rest / (live * w)
                    } else {
                        f64::INFINITY
                    }
                }));
                Cover::Any
            }
        }
    }

    /// Number of edge weights this aggregation is specialized to, if any.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Aggregation::WeightedSum(w) => Some(w.len()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalized_sum_matches_paper_formula() {
        let s = Aggregation::NormalizedSum;
        assert!((s.eval(&[1.0, 0.5]) - 0.75).abs() < 1e-12);
        assert!((s.eval(&[0.2]) - 0.2).abs() < 1e-12);
        assert!((s.eval(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_normalizes() {
        let s = Aggregation::WeightedSum(vec![3.0, 1.0]);
        assert!((s.eval(&[1.0, 0.0]) - 0.75).abs() < 1e-12);
        assert!((s.eval(&[0.0, 1.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_is_strict() {
        let s = Aggregation::Min;
        assert_eq!(s.eval(&[0.9, 0.1, 0.5]), 0.1);
    }

    #[test]
    fn combine_bounds_is_componentwise() {
        let s = Aggregation::NormalizedSum;
        let (lo, hi) = s.combine_bounds(&[(0.0, 1.0), (0.5, 0.75)]);
        assert!((lo - 0.25).abs() < 1e-12);
        assert!((hi - 0.875).abs() < 1e-12);
    }

    #[test]
    fn required_edge_score_normalized_sum() {
        // 2 edges, target 0.9, other edge free (assumed 1.0):
        // need s ≥ 0.9·2 − 1 = 0.8.
        let s = Aggregation::NormalizedSum;
        let need = s.required_edge_score(&[], 0, 2, 0.9);
        assert!((need - 0.8).abs() < 1e-12);
        // With the other edge fixed at 0.6: need s ≥ 1.8 − 0.6 = 1.2 ⇒
        // impossible, caller prunes.
        let need = s.required_edge_score(&[(1, 0.6)], 0, 2, 0.9);
        assert!((need - 1.2).abs() < 1e-12);
    }

    #[test]
    fn required_edge_score_min_is_target() {
        let s = Aggregation::Min;
        assert_eq!(s.required_edge_score(&[], 1, 3, 0.7), 0.7);
    }

    #[test]
    fn cover_of_one_edge_is_the_required_edge_score() {
        let mut out = Vec::new();
        for agg in [
            Aggregation::NormalizedSum,
            Aggregation::Min,
            Aggregation::WeightedSum(vec![2.0, 0.5, 1.0]),
        ] {
            let need = agg.required_edge_score(&[(0, 0.9)], 2, 3, 0.8);
            assert_eq!(agg.cover_thresholds(&[(0, 0.9)], &[2], 3, 0.8, &mut out), Cover::All);
            assert_eq!(out, [need], "{agg:?}");
            assert_eq!(
                agg.cover_thresholds(&[(0, 0.9)], &[2], 3, 0.0, &mut out),
                Cover::Vacuous,
                "{agg:?}: an empty heap constrains nothing"
            );
        }
    }

    #[test]
    fn cover_of_a_cycle_step() {
        // Q_{s,f,m}'s last step: edge 0 fixed at 1.0, edges 1 (anchor)
        // and 2 (check) covered. τ = 0.6 needs 1.8 − 1.0 = 0.8 from the
        // two covered edges, so one of them must reach 0.4 — while the
        // anchor alone, with the check edge assumed perfect, needs
        // nothing (1.8 − 1.0 − 1.0 < 0).
        let mut out = Vec::new();
        let sum = Aggregation::NormalizedSum;
        assert!(sum.required_edge_score(&[(0, 1.0)], 1, 3, 0.6) <= 0.0);
        assert_eq!(sum.cover_thresholds(&[(0, 1.0)], &[1, 2], 3, 0.6, &mut out), Cover::Any);
        assert!(out.iter().all(|t| (t - 0.4).abs() < 1e-8 && *t < 0.4), "{out:?}");
        // Min: both covered edges must reach τ.
        assert_eq!(
            Aggregation::Min.cover_thresholds(&[(0, 1.0)], &[1, 2], 3, 0.6, &mut out),
            Cover::All
        );
        assert_eq!(out, [0.6, 0.6]);
        // A zero-weight covered edge can never be the one that carries
        // the cover, and the others split R among themselves only.
        let weighted = Aggregation::WeightedSum(vec![1.0, 2.0, 0.0]);
        assert_eq!(weighted.cover_thresholds(&[(0, 1.0)], &[1, 2], 3, 0.6, &mut out), Cover::Any);
        assert!((out[0] - 0.4).abs() < 1e-8, "R = 1.8 − 1.0 = 0.8 over w = 2: {out:?}");
        assert_eq!(out[1], f64::INFINITY);
        // R ≤ 0: nothing to require.
        assert_eq!(sum.cover_thresholds(&[(0, 1.0)], &[1, 2], 3, 0.3, &mut out), Cover::Vacuous);
    }

    /// Whether the covered scores meet the cover, with `slack` below each
    /// threshold allowed.
    fn meets(cover: Cover, thresholds: &[f64], scores: &[f64], slack: f64) -> bool {
        let reach = |(t, s): (&f64, &f64)| *s >= *t - slack;
        match cover {
            Cover::Vacuous => true,
            Cover::Any => thresholds.iter().zip(scores).any(reach),
            Cover::All => thresholds.iter().zip(scores).all(reach),
        }
    }

    proptest! {
        // Cheap, and the boundary cases that need the margin are a small
        // share of the draws: a fixed, larger case count keeps a run at
        // CI's reduced `PROPTEST_CASES` from missing them.
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Soundness of the join's cover windows: every score vector
        /// whose aggregate reaches the target — with each edge fixed,
        /// covered, or free at the optimistic 1.0 — meets the cover.
        /// `boundary` puts every covered score on (or one ulp below) its
        /// unmargined `R / m` share, where float rounding would bite
        /// without the margin. Covers of two or more edges must hold
        /// exactly; a one-edge cover is `required_edge_score`, which
        /// carries no margin (it stays bit-identical to the single-window
        /// probe), so it is held to within 1e-12.
        #[test]
        fn cover_thresholds_are_sound(
            n in 2usize..7,
            kind in 0u8..3,
            roles in proptest::collection::vec(0u8..3, 6),
            weights in proptest::collection::vec(0u8..4, 6),
            fixed_scores in proptest::collection::vec(0.0f64..=1.0, 6),
            covered_scores in proptest::collection::vec(0.0f64..=1.0, 6),
            target in 0.0f64..=1.0,
            boundary in 0u8..3,
        ) {
            let mut w: Vec<f64> = weights[..n].iter().map(|&x| f64::from(x) * 0.75).collect();
            if w.iter().all(|&x| x == 0.0) {
                w[0] = 1.0;
            }
            let agg = match kind {
                0 => Aggregation::NormalizedSum,
                1 => Aggregation::Min,
                _ => Aggregation::WeightedSum(w.clone()),
            };
            let weight = |e: usize| if kind == 2 { w[e] } else { 1.0 };
            // Edge 0 is always covered: a join step covers its anchor.
            let role = |e: usize| if e == 0 { 1 } else { roles[e] };
            let fixed: Vec<(usize, f64)> =
                (0..n).filter(|&e| role(e) == 0).map(|e| (e, fixed_scores[e])).collect();
            let covered: Vec<usize> = (0..n).filter(|&e| role(e) == 1).collect();
            let mut scores: Vec<f64> = covered.iter().map(|&e| covered_scores[e]).collect();
            if boundary > 0 && kind != 1 {
                // The unmargined share R / (m·wᵢ) of every covered edge.
                let total: f64 = (0..n).map(weight).sum();
                let mut rest = target * total;
                for (e, &fixed_score) in fixed_scores.iter().enumerate().take(n) {
                    rest -= weight(e) * match role(e) {
                        0 => fixed_score,
                        1 => 0.0,
                        _ => 1.0,
                    };
                }
                let live = covered.iter().filter(|&&e| weight(e) > 0.0).count() as f64;
                for (s, &e) in scores.iter_mut().zip(&covered) {
                    let share = rest / (live * weight(e));
                    if weight(e) > 0.0 && (0.0..=1.0).contains(&share) {
                        *s = if boundary == 2 && share > 0.0 {
                            f64::from_bits(share.to_bits() - 1)
                        } else {
                            share
                        };
                    }
                }
            }
            let mut full = vec![1.0; n];
            for &(e, s) in &fixed {
                full[e] = s;
            }
            for (&e, &s) in covered.iter().zip(&scores) {
                full[e] = s;
            }
            let total = agg.eval(&full);
            let mut out = Vec::new();
            let cover = agg.cover_thresholds(&fixed, &covered, n, target, &mut out);
            prop_assert_eq!(out.len(), if cover == Cover::Vacuous { 0 } else { covered.len() });
            let slack = if covered.len() == 1 { 1e-12 } else { 0.0 };
            if total >= target {
                prop_assert!(
                    meets(cover, &out, &scores, slack),
                    "{agg:?}: total {total} ≥ target {target} misses the cover \
                     {cover:?} {out:?} with covered scores {scores:?} (fixed {fixed:?})"
                );
            }
            if total > target {
                prop_assert!(meets(cover, &out, &scores, slack), "strict: {agg:?}");
            }
        }
    }

    proptest! {

        /// Monotonicity: raising any single edge score never lowers the
        /// aggregate.
        #[test]
        fn monotone(
            base in proptest::collection::vec(0.0f64..1.0, 1..6),
            idx in 0usize..6, bump in 0.0f64..1.0,
        ) {
            let idx = idx % base.len();
            let mut hi = base.clone();
            hi[idx] = (hi[idx] + bump).min(1.0);
            let aggs = [
                Aggregation::NormalizedSum,
                Aggregation::Min,
                Aggregation::WeightedSum(vec![1.0; base.len()]),
            ];
            for a in &aggs {
                prop_assert!(a.eval(&hi) >= a.eval(&base) - 1e-12);
            }
        }

        /// The required-edge-score threshold is consistent: any candidate
        /// meeting it can reach `target` with optimistic free edges, and
        /// any candidate strictly below it cannot.
        #[test]
        fn required_edge_score_consistency(
            other in 0.0f64..1.0, target in 0.0f64..1.0, s in 0.0f64..1.0,
        ) {
            let agg = Aggregation::NormalizedSum;
            let need = agg.required_edge_score(&[(1, other)], 0, 3, target);
            // Edges: 0 = candidate s, 1 = fixed `other`, 2 = free (1.0).
            let attained = agg.eval(&[s, other, 1.0]);
            if s >= need + 1e-9 {
                prop_assert!(attained >= target - 1e-9);
            }
            if s < need - 1e-9 {
                prop_assert!(attained < target + 1e-9);
            }
        }
    }
}
