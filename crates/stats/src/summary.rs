//! Streaming summary statistics (Welford's algorithm) and percentile helpers.
//!
//! The FaaSRail methodology leans on two scalar statistics: the mean (trace
//! functions are keyed by their *average* warm execution time) and the
//! coefficient of variation (used to argue that a single trace day is a safe
//! sample — paper Fig. 3). Both are provided here with numerically stable
//! single-pass accumulation.

use serde::{Deserialize, Serialize};

/// Numerically stable streaming moments over a sequence of `f64` samples.
///
/// Uses Welford's online algorithm, so it is safe for long streams of values
/// spanning several orders of magnitude (FaaS execution times span 2–4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// An empty summary. All statistics of an empty summary are `NaN` except
    /// [`Summary::count`], which is zero.
    pub fn new() -> Self {
        Summary { count: 0, mean: f64::NAN, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Build a summary from a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Summary::push requires finite values, got {x}");
        self.count += 1;
        if self.count == 1 {
            self.mean = x;
            self.m2 = 0.0;
        } else {
            let delta = x - self.mean;
            self.mean += delta / self.count as f64;
            let delta2 = x - self.mean;
            self.m2 += delta * delta2;
        }
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (parallel reduction support).
    ///
    /// Uses the Chan et al. pairwise update, so `a.merge(b)` equals pushing
    /// all of `b`'s observations into `a` up to floating-point error.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`NaN` when empty, `0` for a single observation).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (`NaN` for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation: `std_dev / mean`.
    ///
    /// This is the statistic of paper Fig. 3 (per-function daily execution
    /// time and invocation counts across trace days). For a zero mean the CV
    /// is defined here as `0.0` when all samples are zero (a function that is
    /// never invoked is perfectly stable), `NaN` otherwise.
    pub fn cv(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.mean == 0.0 {
            return if self.m2 == 0.0 { 0.0 } else { f64::NAN };
        }
        self.std_dev() / self.mean.abs()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Concentration curve of a set of counts (paper Figs. 1c, 10): `counts` is
/// sorted descending in place, and for each prefix the result holds
/// `(fraction_of_items, cumulative_fraction_of_the_total)`. Empty when the
/// counts sum to zero.
pub fn cumulative_shares(counts: &mut [u64]) -> Vec<(f64, f64)> {
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let grand: u64 = counts.iter().sum();
    if grand == 0 {
        return Vec::new();
    }
    let n = counts.len() as f64;
    let mut acc = 0u64;
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            acc += c;
            ((i + 1) as f64 / n, acc as f64 / grand as f64)
        })
        .collect()
}

/// Share of the total held by the largest `frac` of `counts`, which is
/// sorted descending in place. "The top x %" of `n` items is
/// `round(n · x)` of them and never fewer than one — the one rule behind
/// every top-share this workspace reports. 0 when the counts sum to zero.
pub fn top_share(counts: &mut [u64], frac: f64) -> f64 {
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let grand: u64 = counts.iter().sum();
    if grand == 0 {
        return 0.0;
    }
    let k = ((counts.len() as f64 * frac).round() as usize).max(1);
    counts.iter().take(k).sum::<u64>() as f64 / grand as f64
}

/// Linearly interpolated percentile of an ascending-sorted slice.
///
/// `q` is in `[0, 1]`. Uses the common "linear" (type-7) interpolation rule,
/// matching numpy's default, which the paper's analysis scripts use.
///
/// # Panics
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub fn percentile_sorted(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    debug_assert!(
        values.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted requires ascending input"
    );
    let n = values.len();
    if n == 1 {
        return values[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        values[lo]
    } else {
        let frac = pos - lo as f64;
        values[lo] + (values[hi] - values[lo]) * frac
    }
}

/// Convenience: sort a copy and take several percentiles at once.
pub fn percentiles(values: &[f64], qs: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    qs.iter().map(|&q| percentile_sorted(&sorted, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert!(s.cv().is_nan());
    }

    #[test]
    fn single_value() {
        let s = Summary::from_slice(&[5.0]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn known_moments() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn all_zero_cv_is_zero() {
        let s = Summary::from_slice(&[0.0, 0.0, 0.0]);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 50.0 + 100.0).collect();
        let (a, b) = xs.split_at(37);
        let mut sa = Summary::from_slice(a);
        let sb = Summary::from_slice(b);
        sa.merge(&sb);
        let s = Summary::from_slice(&xs);
        assert_eq!(sa.count(), s.count());
        assert!((sa.mean() - s.mean()).abs() < 1e-9);
        assert!((sa.variance() - s.variance()).abs() < 1e-9);
        assert_eq!(sa.min(), s.min());
        assert_eq!(sa.max(), s.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn cumulative_shares_sorts_descending_and_ends_at_one() {
        let mut counts = [5, 80, 15];
        let curve = cumulative_shares(&mut counts);
        assert_eq!(counts, [80, 15, 5]);
        assert_eq!(curve, vec![(1.0 / 3.0, 0.80), (2.0 / 3.0, 0.95), (1.0, 1.0)]);
        assert!(cumulative_shares(&mut [0, 0]).is_empty());
        assert!(cumulative_shares(&mut []).is_empty());
    }

    #[test]
    fn top_share_rounds_half_up_and_keeps_at_least_one() {
        // 25 items, the first three hold 10 each, the rest 1: total 52.
        let mut counts: Vec<u64> = (0..25).map(|i| if i < 3 { 10 } else { 1 }).collect();
        counts.reverse();
        // 10 % of 25 is 2.5 items: three, not two.
        assert_eq!(top_share(&mut counts, 0.10), 30.0 / 52.0);
        // 9.9 % is 2.475: two.
        assert_eq!(top_share(&mut counts, 0.099), 20.0 / 52.0);
        // 1 % of 25 rounds to none: still the top one.
        assert_eq!(top_share(&mut counts, 0.01), 10.0 / 52.0);
        assert_eq!(top_share(&mut counts, 0.0), 10.0 / 52.0);
        assert_eq!(top_share(&mut counts, 1.0), 1.0);
        // The curve states the same prefix sums.
        assert_eq!(cumulative_shares(&mut counts)[2].1, top_share(&mut counts, 0.10));
    }

    #[test]
    fn top_share_of_nothing_is_zero() {
        assert_eq!(top_share(&mut [0, 0, 0], 0.5), 0.0);
        assert_eq!(top_share(&mut [], 0.5), 0.0);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 4.0);
        assert!((percentile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        let ps = percentiles(&v, &[0.0, 0.5, 1.0]);
        assert_eq!(ps, vec![1.0, 5.0, 9.0]);
    }

    #[test]
    #[should_panic]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 0.5);
    }

    proptest! {
        #[test]
        fn welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::from_slice(&xs);
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var));
        }

        #[test]
        fn merge_is_associative_enough(
            a in proptest::collection::vec(0f64..1e3, 1..50),
            b in proptest::collection::vec(0f64..1e3, 1..50),
        ) {
            let mut m = Summary::from_slice(&a);
            m.merge(&Summary::from_slice(&b));
            let mut all = a.clone();
            all.extend_from_slice(&b);
            let s = Summary::from_slice(&all);
            prop_assert!((m.mean() - s.mean()).abs() < 1e-8 * (1.0 + s.mean().abs()));
            prop_assert!((m.variance() - s.variance()).abs() < 1e-6 * (1.0 + s.variance()));
        }

        #[test]
        fn percentile_monotone(
            mut xs in proptest::collection::vec(0f64..1e6, 2..100),
            q1 in 0f64..=1.0,
            q2 in 0f64..=1.0,
        ) {
            xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(percentile_sorted(&xs, lo) <= percentile_sorted(&xs, hi) + 1e-9);
        }

        #[test]
        fn percentile_within_range(mut xs in proptest::collection::vec(-1e3f64..1e3, 1..100), q in 0f64..=1.0) {
            xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let p = percentile_sorted(&xs, q);
            prop_assert!(p >= xs[0] - 1e-9 && p <= xs[xs.len()-1] + 1e-9);
        }
    }
}
