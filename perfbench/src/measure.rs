//! The benchmark's own arithmetic: medians, tail percentiles that are
//! reported only when enough samples lie beyond them, and ratios that
//! keep their bases.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported: below this, the "percentile" is one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The sum, over units of work, of each unit's median time: the time
/// of one typical pass over the units. `None` when a unit has no time.
pub fn sum_of_medians(times: &[Vec<f64>]) -> Option<f64> {
    times.iter().map(|unit| median(unit)).sum()
}

/// A nearest-rank percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
}

/// The nearest-rank `q`-percentile (`q` in `(0, 1]`) of `values`, or
/// `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond its
/// rank — e.g. a p99 needs at least 1 000 samples.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let n = values.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it (1-based), computed in integers to dodge float rounding.
    let permille = (q * 1000.0).round() as usize;
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond })
}

/// A ratio that keeps its numerator and denominator, so a reader can
/// always see what it was taken over.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    /// Useful outcomes (numerator).
    pub part: f64,
    /// Attempts (denominator, the base).
    pub base: f64,
}

impl Ratio {
    /// `part / base`, and 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.part / self.base
        }
    }

    /// Adds another ratio's counts to this one (a pooled ratio, not a
    /// mean of ratios).
    pub fn add(&mut self, part: f64, base: f64) {
        self.part += part;
        self.base += base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn sum_of_medians_takes_each_units_median() {
        let times = vec![vec![3.0, 1.0, 2.0], vec![5.0], vec![4.0, 6.0]];
        assert_eq!(sum_of_medians(&times), Some(2.0 + 5.0 + 5.0));
        assert_eq!(sum_of_medians(&[vec![1.0], vec![]]), None, "a unit without a time");
        assert_eq!(sum_of_medians(&[]), Some(0.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), None, "999 samples leave 9 beyond rank 990");
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 0.99).expect("1000 samples leave 10 beyond rank 990");
        assert_eq!(p99, Percentile { value: 990.0, samples: 1000, beyond: 10 });
    }

    #[test]
    fn median_rank_is_nearest_rank() {
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let p50 = percentile(&values, 0.5).expect("10 samples beyond rank 10");
        assert_eq!((p50.value, p50.beyond), (10.0, 10));
        assert_eq!(percentile(&values[..19], 0.5), None, "rank 10 of 19 leaves 9 beyond");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let mut r = Ratio::default();
        assert_eq!(r.value(), 0.0, "empty base reads 0");
        r.add(1.0, 4.0);
        r.add(2.0, 8.0);
        assert_eq!((r.part, r.base), (3.0, 12.0));
        assert_eq!(r.value(), 0.25);
    }
}
