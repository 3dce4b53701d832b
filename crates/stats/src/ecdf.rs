//! Empirical cumulative distribution functions, weighted and unweighted,
//! with inverse evaluation via linear interpolation.
//!
//! The weighted variant is the centrepiece of FaaSRail's Smirnov-transform
//! execution mode (paper §3.2.2): the empirical *invocation-weighted* CDF of
//! execution durations is built from `(avg_duration, invocation_count)`
//! pairs, and new samples are drawn by pushing uniform variates through the
//! linearly interpolated inverse CDF (inverse transform sampling).

use crate::rng::Rng;
use serde::{Deserialize, Serialize};

/// Unweighted empirical CDF over a set of samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    /// Ascending-sorted samples (duplicates retained).
    points: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (need not be sorted; must be finite and non-empty).
    ///
    /// # Panics
    /// Panics on an empty or non-finite input.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "Ecdf requires at least one sample");
        assert!(samples.iter().all(|v| v.is_finite()), "Ecdf samples must be finite");
        let mut points = samples.to_vec();
        points.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ecdf { points }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: construction rejects empty inputs.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sorted sample points.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// `F(x)`: fraction of samples `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.points.partition_point(|&p| p <= x);
        n as f64 / self.points.len() as f64
    }

    /// Right-continuous step quantile: smallest sample `v` with `F(v) >= q`.
    ///
    /// # Panics
    /// Panics unless `0 <= q <= 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if q == 0.0 {
            return self.points[0];
        }
        let idx = ((q * self.points.len() as f64).ceil() as usize).clamp(1, self.points.len());
        self.points[idx - 1]
    }

    /// Inverse CDF via linear interpolation between sorted samples,
    /// the construction FaaSRail borrows from statsmodels (paper §3.2.2).
    pub fn inverse_interp(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "inverse argument {u} outside [0,1]");
        let n = self.points.len();
        if n == 1 {
            return self.points[0];
        }
        // Treat sample i (0-based) as sitting at height (i+1)/n; interpolate.
        let pos = u * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.points[lo]
        } else {
            let frac = pos - lo as f64;
            self.points[lo] + (self.points[hi] - self.points[lo]) * frac
        }
    }

    /// Smallest and largest sample.
    pub fn support(&self) -> (f64, f64) {
        (self.points[0], *self.points.last().expect("non-empty"))
    }

    /// Collapse to a weighted ECDF (each distinct value weighted by its
    /// multiplicity). Useful for the distance functions.
    pub fn to_weighted(&self) -> WeightedEcdf {
        WeightedEcdf::new(self.points.iter().map(|&v| (v, 1.0)))
    }
}

/// Weighted empirical CDF over `(value, weight)` pairs.
///
/// Duplicated values are merged by summing their weights; weights are
/// normalized internally. For FaaSRail, `value` is a Function's average warm
/// execution time and `weight` its number of invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedEcdf {
    /// Distinct ascending values.
    values: Vec<f64>,
    /// `cum[i]` = normalized cumulative weight of `values[..=i]`; `cum.last() == 1`.
    cum: Vec<f64>,
    /// Guide table of the inverse: `guide[j]` is the first index whose
    /// `cum` reaches `j / G`, for `G = guide.len()` buckets, `G` the power
    /// of two at or above `2 × len`. A power of two makes `u × G` and `j / G`
    /// exact (only the exponent moves), so the bucket [`Self::inverse`]
    /// reads for `u` never starts past the index a binary search finds.
    /// With at most half a support point per bucket on average, the walk
    /// from there takes O(1) expected steps.
    guide: Vec<u32>,
    /// Total (un-normalized) weight.
    total_weight: f64,
}

impl WeightedEcdf {
    /// Build from `(value, weight)` pairs. Zero-weight pairs are dropped.
    ///
    /// # Panics
    /// Panics if no pair has positive weight, or on non-finite/negative input.
    pub fn new<I: IntoIterator<Item = (f64, f64)>>(pairs: I) -> Self {
        let mut pairs: Vec<(f64, f64)> = pairs
            .into_iter()
            .inspect(|&(v, w)| {
                assert!(v.is_finite(), "WeightedEcdf value must be finite, got {v}");
                assert!(w.is_finite() && w >= 0.0, "WeightedEcdf weight must be >= 0, got {w}");
            })
            .filter(|&(_, w)| w > 0.0)
            .collect();
        assert!(!pairs.is_empty(), "WeightedEcdf requires positive total weight");
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));

        let mut values = Vec::with_capacity(pairs.len());
        let mut weights: Vec<f64> = Vec::with_capacity(pairs.len());
        for (v, w) in pairs {
            match values.last() {
                Some(&last) if last == v => *weights.last_mut().expect("non-empty") += w,
                _ => {
                    values.push(v);
                    weights.push(w);
                }
            }
        }
        let total_weight: f64 = weights.iter().sum();
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cum.push(acc / total_weight);
        }
        // Guard against floating-point drift at the top.
        *cum.last_mut().expect("non-empty") = 1.0;
        let guide = guide_table(&cum);
        WeightedEcdf { values, cum, guide, total_weight }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false by construction.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Distinct ascending values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Normalized cumulative weights aligned with [`Self::values`].
    pub fn cumulative(&self) -> &[f64] {
        &self.cum
    }

    /// Total un-normalized weight.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// `F(x)`: normalized weight of values `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.values.partition_point(|&v| v <= x);
        if n == 0 {
            0.0
        } else {
            self.cum[n - 1]
        }
    }

    /// Inverse CDF via linear interpolation between support points — the
    /// Smirnov transform of paper §3.2.2 / Fig. 5.
    ///
    /// For `u` at or below the first cumulative level the first value is
    /// returned (there is nothing to interpolate towards on the left).
    ///
    /// ```
    /// use faasrail_stats::ecdf::WeightedEcdf;
    /// // 75% of invocations take 10 ms, 25% take 100 ms.
    /// let cdf = WeightedEcdf::new([(10.0, 3.0), (100.0, 1.0)]);
    /// assert_eq!(cdf.inverse(0.5), 10.0);             // inside the first mass
    /// assert_eq!(cdf.inverse(1.0), 100.0);            // top of the support
    /// let mid = cdf.inverse(0.875);                   // halfway up the last step
    /// assert!((mid - 55.0).abs() < 1e-9);             // linear interpolation
    /// ```
    ///
    /// # Panics
    /// Panics unless `0 <= u <= 1`.
    pub fn inverse(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "inverse argument {u} outside [0,1]");
        if u <= self.cum[0] {
            return self.values[0];
        }
        // First index with cum[idx] >= u; idx >= 1 here. Bucket `j` starts
        // at or before it, as `j / G <= u`, and `cum.last() == 1 >= u` ends
        // the walk.
        let buckets = self.guide.len();
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        let mut idx = self.guide[j] as usize;
        while self.cum[idx] < u {
            idx += 1;
        }
        let (c0, c1) = (self.cum[idx - 1], self.cum[idx]);
        let (v0, v1) = (self.values[idx - 1], self.values[idx]);
        if c1 <= c0 {
            return v1;
        }
        v0 + (v1 - v0) * ((u - c0) / (c1 - c0))
    }

    /// Draw one value by inverse transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inverse(rng.next_f64())
    }

    /// Draw `n` values by inverse transform sampling.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Smallest and largest support value.
    pub fn support(&self) -> (f64, f64) {
        (self.values[0], *self.values.last().expect("non-empty"))
    }
}

/// [`WeightedEcdf::guide`] for a non-decreasing `cum` that ends at 1.
fn guide_table(cum: &[f64]) -> Vec<u32> {
    assert!(cum.len() <= u32::MAX as usize, "WeightedEcdf support too large");
    let buckets = (2 * cum.len()).next_power_of_two();
    let mut idx = 0;
    (0..buckets)
        .map(|j| {
            let edge = j as f64 / buckets as f64;
            while cum[idx] < edge {
                idx += 1;
            }
            idx as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cases, Rng};
    use crate::seeded_rng;

    #[test]
    fn ecdf_eval_basics() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn ecdf_quantile_steps() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.25), 10.0);
        assert_eq!(e.quantile(0.26), 20.0);
        assert_eq!(e.quantile(1.0), 40.0);
    }

    #[test]
    fn ecdf_inverse_interp_midpoint() {
        let e = Ecdf::new(&[0.0, 10.0]);
        assert!((e.inverse_interp(0.5) - 5.0).abs() < 1e-12);
        assert_eq!(e.inverse_interp(0.0), 0.0);
        assert_eq!(e.inverse_interp(1.0), 10.0);
    }

    #[test]
    fn ecdf_singleton() {
        let e = Ecdf::new(&[7.0]);
        assert_eq!(e.inverse_interp(0.3), 7.0);
        assert_eq!(e.quantile(0.9), 7.0);
        assert_eq!(e.support(), (7.0, 7.0));
    }

    #[test]
    #[should_panic]
    fn ecdf_empty_panics() {
        Ecdf::new(&[]);
    }

    #[test]
    fn weighted_merges_duplicates() {
        let w = WeightedEcdf::new(vec![(1.0, 2.0), (1.0, 3.0), (2.0, 5.0)]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.total_weight(), 10.0);
        assert!((w.eval(1.0) - 0.5).abs() < 1e-12);
        assert_eq!(w.eval(2.0), 1.0);
        assert_eq!(w.eval(0.0), 0.0);
    }

    #[test]
    fn weighted_drops_zero_weights() {
        let w = WeightedEcdf::new(vec![(1.0, 0.0), (2.0, 1.0)]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.values(), &[2.0]);
    }

    #[test]
    #[should_panic]
    fn weighted_all_zero_panics() {
        WeightedEcdf::new(vec![(1.0, 0.0)]);
    }

    #[test]
    fn weighted_inverse_interpolates() {
        // values 0 and 10, weights 50/50: F(0)=0.5, F(10)=1.0.
        let w = WeightedEcdf::new(vec![(0.0, 1.0), (10.0, 1.0)]);
        assert_eq!(w.inverse(0.0), 0.0);
        assert_eq!(w.inverse(0.5), 0.0);
        assert!((w.inverse(0.75) - 5.0).abs() < 1e-12);
        assert_eq!(w.inverse(1.0), 10.0);
    }

    #[test]
    fn weighted_sampling_matches_weights() {
        // 90% of the mass at 1.0, 10% at 100.0. The interpolated inverse
        // returns exactly 1.0 for u <= 0.9 and spreads the remaining 10% of
        // the mass linearly across (1, 100].
        let w = WeightedEcdf::new(vec![(1.0, 9.0), (100.0, 1.0)]);
        let mut rng = seeded_rng(7);
        let n = 20_000;
        let samples = w.sample_n(&mut rng, n);
        let at_first = samples.iter().filter(|&&v| v <= 1.0).count();
        let frac = at_first as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "fraction at first support point was {frac}");
        // Mass between the support points follows the interpolation line:
        // P(v < 50) = 0.9 + 0.1 * (50-1)/(100-1) ≈ 0.9495.
        let below_mid = samples.iter().filter(|&&v| v < 50.0).count() as f64 / n as f64;
        assert!((below_mid - 0.9495).abs() < 0.02, "fraction below midpoint was {below_mid}");
    }

    #[test]
    fn ecdf_to_weighted_consistent() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0, 3.0]);
        let w = e.to_weighted();
        for &x in &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0] {
            assert!((e.eval(x) - w.eval(x)).abs() < 1e-12, "mismatch at {x}");
        }
    }

    fn pairs(rng: &mut impl Rng, len: std::ops::Range<usize>) -> Vec<(f64, f64)> {
        (0..rng.range(len)).map(|_| (rng.uniform(0.0..1e4), rng.uniform(0.1..10.0))).collect()
    }

    fn xs(rng: &mut impl Rng) -> Vec<f64> {
        (0..rng.range(1..100usize)).map(|_| rng.uniform(-1e3..1e3)).collect()
    }

    #[test]
    fn ecdf_eval_monotone() {
        cases("ecdf_eval_monotone", 256, |rng| {
            let e = Ecdf::new(&xs(rng));
            let (a, b) = (rng.uniform(-1e3..1e3), rng.uniform(-1e3..1e3));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(e.eval(lo) <= e.eval(hi));
        });
    }

    #[test]
    fn weighted_inverse_monotone() {
        cases("weighted_inverse_monotone", 256, |rng| {
            let w = WeightedEcdf::new(pairs(rng, 1..50));
            let (u1, u2) = (rng.next_f64(), rng.next_f64());
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            assert!(w.inverse(lo) <= w.inverse(hi) + 1e-9);
        });
    }

    #[test]
    fn weighted_inverse_within_support() {
        cases("weighted_inverse_within_support", 256, |rng| {
            let w = WeightedEcdf::new(pairs(rng, 1..50));
            let (lo, hi) = w.support();
            let v = w.inverse(rng.next_f64());
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        });
    }

    #[test]
    fn weighted_eval_inverse_galois() {
        // eval(inverse(u)) >= u - epsilon: pushing the inverse back
        // through the CDF cannot lose mass (up to interpolation slack of
        // one support gap).
        cases("weighted_eval_inverse_galois", 256, |rng| {
            let w = WeightedEcdf::new(pairs(rng, 2..50));
            let u = rng.uniform(0.01..1.0);
            let v = w.inverse(u);
            // find the next support point at or above v
            let idx = w.values().partition_point(|&x| x < v - 1e-12);
            let idx = idx.min(w.len() - 1);
            assert!(w.cumulative()[idx] >= u - 1e-9);
        });
    }

    /// The inverse as a binary search over `cum`, which the guide table
    /// replaced: the guided walk must find the same index.
    fn inverse_by_search(w: &WeightedEcdf, u: f64) -> f64 {
        let (cum, values) = (w.cumulative(), w.values());
        if u <= cum[0] {
            return values[0];
        }
        let idx = cum.partition_point(|&c| c < u).min(values.len() - 1);
        let (c0, c1) = (cum[idx - 1], cum[idx]);
        let (v0, v1) = (values[idx - 1], values[idx]);
        if c1 <= c0 {
            return v1;
        }
        v0 + (v1 - v0) * ((u - c0) / (c1 - c0))
    }

    /// Every `u` where the guided inverse could part from the search: each
    /// cumulative level and its neighbours one ulp away, each bucket edge and
    /// its neighbours, 0, 1 and `random` uniform draws.
    fn probes(w: &WeightedEcdf, rng: &mut impl Rng, random: usize) -> Vec<f64> {
        let buckets = w.guide.len();
        let edges = (0..=buckets).map(|j| j as f64 / buckets as f64);
        let mut us: Vec<f64> = Vec::new();
        for c in w.cumulative().iter().copied().chain(edges) {
            us.extend([c.next_down(), c, c.next_up()]);
        }
        us.extend([0.0, 1.0]);
        us.extend((0..random).map(|_| rng.next_f64()));
        us.retain(|u| (0.0..=1.0).contains(u));
        us
    }

    fn assert_guided_matches_search(w: &WeightedEcdf, rng: &mut impl Rng) {
        assert!(w.guide.len().is_power_of_two() && w.guide.len() >= 2 * w.len());
        for u in probes(w, rng, 200) {
            let (got, want) = (w.inverse(u), inverse_by_search(w, u));
            assert_eq!(got.to_bits(), want.to_bits(), "inverse({u:e}) over {} points", w.len());
        }
    }

    #[test]
    fn guided_inverse_matches_binary_search() {
        cases("guided_inverse_matches_binary_search", 256, |rng| {
            let len = match rng.range(0..4u32) {
                0 => 1,
                1 => rng.range(2..8usize),
                _ => rng.range(2..400usize),
            };
            // Few distinct values, so some merge; a weight far below the
            // others leaves its step flat (`cum[i] == cum[i - 1]`).
            let distinct = rng.range(1..len + 1) as f64;
            let anchor = (rng.uniform(0.0..1e3), 1.0);
            let pairs: Vec<(f64, f64)> = (0..len)
                .map(|_| {
                    let v = (rng.next_f64() * distinct).floor() * 3.5;
                    let w = match rng.range(0..8u32) {
                        0 => 1e-30,
                        1 => 0.0,
                        _ => rng.uniform(0.1..10.0),
                    };
                    (v, w)
                })
                .chain([anchor])
                .collect();
            assert_guided_matches_search(&WeightedEcdf::new(pairs), rng);
        });
    }

    #[test]
    fn guided_inverse_matches_binary_search_on_a_large_support() {
        let mut rng = seeded_rng(42);
        let pairs: Vec<(f64, f64)> = (0..100_000)
            .map(|i| (i as f64 * 0.25 + rng.next_f64() * 0.1, rng.uniform(0.0..5.0)))
            .collect();
        let w = WeightedEcdf::new(pairs);
        assert_eq!(w.len(), 100_000);
        assert_guided_matches_search(&w, &mut rng);
        // One point: every argument is its value.
        let one = WeightedEcdf::new([(7.5, 2.0)]);
        assert_guided_matches_search(&one, &mut rng);
        assert_eq!(one.inverse(0.3), 7.5);
    }

    #[test]
    fn ecdf_quantile_eval_roundtrip() {
        cases("ecdf_quantile_eval_roundtrip", 256, |rng| {
            let e = Ecdf::new(&xs(rng));
            let q = rng.uniform(0.01..1.0);
            let v = e.quantile(q);
            assert!(e.eval(v) >= q - 1e-9);
        });
    }
}
