//! Parametric samplers used throughout the workspace.
//!
//! Continuous: [`Exponential`], [`LogNormal`], [`Gamma`]. Discrete:
//! [`Poisson`] (Knuth for small rates, Hörmann's PTRS transformed rejection
//! for large), [`Zipf`] (Hörmann–Derflinger rejection-inversion).
//!
//! Exponential inter-arrival delays model FaaSRail's sub-minute Poisson
//! arrivals (paper §3.2.1.3); Zipf drives the skewed function popularity of
//! the synthetic traces; log-normal shapes execution-time and memory
//! distributions.

use crate::rng::Rng;
use crate::special::{ln_gamma, normal_inv_cdf};
use serde::{Deserialize, Serialize};

/// A continuous distribution that can be sampled with any RNG.
pub trait Sampler {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draw `n` values.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Draw a uniform variate in the open interval `(0, 1)`.
#[inline]
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = rng.next_f64();
        if u > 0.0 {
            return u;
        }
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// # Panics
    /// Panics unless `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "Exponential rate must be positive");
        Exponential { lambda }
    }

    /// Construct from the desired mean (`1/lambda`).
    pub fn from_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Sampler for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -open_unit(rng).ln() / self.lambda
    }
}

/// Log-normal distribution, parameterized by the mean `mu` and standard
/// deviation `sigma` of the underlying normal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// # Panics
    /// Panics unless `sigma >= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "LogNormal sigma must be >= 0");
        LogNormal { mu, sigma }
    }

    /// Fit from a target median and a target p90 quantile (`p90 >= median`).
    ///
    /// The synthetic trace generators are specified in terms of quantiles
    /// published in the traces' papers, so this is the natural constructor.
    pub fn from_median_p90(median: f64, p90: f64) -> Self {
        assert!(median > 0.0 && p90 >= median, "need 0 < median <= p90");
        let mu = median.ln();
        let z90 = normal_inv_cdf(0.9);
        let sigma = (p90.ln() - mu) / z90;
        Self::new(mu, sigma)
    }

    /// Median of the distribution (`e^mu`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Quantile function.
    pub fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * normal_inv_cdf(q)).exp()
    }
}

impl Sampler for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-transform through the underlying normal: stateless and
        // reproducible regardless of call interleaving.
        let u = open_unit(rng).min(1.0 - f64::EPSILON);
        (self.mu + self.sigma * normal_inv_cdf(u)).exp()
    }
}

/// Gamma distribution with shape `k` and scale `theta`.
///
/// Marsaglia–Tsang squeeze method for `k >= 1`, with the standard
/// `U^{1/k}` boost for `k < 1`. Used by the doubly-stochastic (bursty)
/// arrival model: per-interval rate multipliers are Gamma(k, 1/k) draws,
/// giving mean 1 and CV `1/sqrt(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gamma {
    k: f64,
    theta: f64,
}

impl Gamma {
    /// # Panics
    /// Panics unless both parameters are positive.
    pub fn new(k: f64, theta: f64) -> Self {
        assert!(k > 0.0 && theta > 0.0, "Gamma requires positive parameters");
        Gamma { k, theta }
    }

    /// Unit-mean multiplier distribution with the given coefficient of
    /// variation: `Gamma(1/cv², cv²)`.
    pub fn unit_mean_with_cv(cv: f64) -> Self {
        assert!(cv > 0.0, "CV must be positive");
        let k = 1.0 / (cv * cv);
        Gamma::new(k, 1.0 / k)
    }

    fn sample_shape_ge1<R: Rng + ?Sized>(k: f64, rng: &mut R) -> f64 {
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = normal_inv_cdf(open_unit(rng).min(1.0 - f64::EPSILON));
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = open_unit(rng);
            // Squeeze, then full acceptance test.
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Sampler for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let raw = if self.k >= 1.0 {
            Self::sample_shape_ge1(self.k, rng)
        } else {
            // Johnk/boost: Gamma(k) = Gamma(k+1) * U^{1/k}.
            Self::sample_shape_ge1(self.k + 1.0, rng) * open_unit(rng).powf(1.0 / self.k)
        };
        raw * self.theta
    }
}

/// Poisson distribution with rate `lambda`.
///
/// Uses Knuth's product method for `lambda < 30` and Hörmann's PTRS
/// (transformed rejection with squeeze) for larger rates, so drawing
/// per-minute invocation counts with rates in the hundreds of thousands
/// (Azure's busiest minutes) stays O(1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// # Panics
    /// Panics unless `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "Poisson rate must be positive");
        Poisson { lambda }
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draw one count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            self.sample_knuth(rng)
        } else {
            self.sample_ptrs(rng)
        }
    }

    /// Knuth's product method. Its first product is the first uniform
    /// itself, and `e^{-λ} ≥ 1 − λ`: a uniform below `1 − λ`, shaved by
    /// `1e-12` so rounding cannot lift the bound past the computed `exp`,
    /// is 0 without one. The draws and the result are the plain loop's.
    fn sample_knuth<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut p = rng.next_f64();
        if p < (1.0 - self.lambda) * (1.0 - 1e-12) {
            return 0;
        }
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        while p > l {
            p *= rng.next_f64();
            k += 1;
        }
        k
    }

    /// Hörmann (1993), "The transformed rejection method for generating
    /// Poisson random variables", algorithm PTRS.
    fn sample_ptrs<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lam = self.lambda;
        let log_lam = lam.ln();
        let b = 0.931 + 2.53 * lam.sqrt();
        let a = -0.059 + 0.024_83 * b;
        let inv_alpha = 1.123_9 + 1.132_8 / (b - 3.4);
        let v_r = 0.927_7 - 3.622_4 / (b - 2.0);
        loop {
            let u = rng.next_f64() - 0.5;
            let v = open_unit(rng);
            let us = 0.5 - u.abs();
            let k = ((2.0 * a / us + b) * u + lam + 0.43).floor();
            if us >= 0.07 && v <= v_r {
                return k as u64;
            }
            if k < 0.0 || (us < 0.013 && v > us) {
                continue;
            }
            if (v * inv_alpha / (a / (us * us) + b)).ln() <= k * log_lam - lam - ln_gamma(k + 1.0) {
                return k as u64;
            }
        }
    }
}

/// Zipf distribution over `{1, …, n}` with exponent `s`: `P(k) ∝ k^−s`.
///
/// Exact sampling via Hörmann–Derflinger rejection-inversion; O(1) per draw
/// for any `n`, which matters when drawing popularity ranks over tens of
/// thousands of trace functions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_x0: f64,
    h_n: f64,
}

impl Zipf {
    /// # Panics
    /// Panics unless `n >= 1` and `s > 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "Zipf requires n >= 1");
        assert!(s > 0.0 && s.is_finite(), "Zipf requires s > 0");
        let mut z = Zipf { n, s, h_x0: 0.0, h_n: 0.0 };
        z.h_x0 = z.h(0.5);
        z.h_n = z.h(n as f64 + 0.5);
        z
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Primitive of `x^{-s}`.
    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    fn h_inv(&self, y: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            y.exp()
        } else {
            (1.0 + y * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draw one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 1 {
            return 1;
        }
        loop {
            let u = self.h_x0 + rng.next_f64() * (self.h_n - self.h_x0);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            // Accept iff u >= H(k + 1/2) − k^−s; the midpoint rule for the
            // convex decreasing density guarantees the acceptance region is
            // non-empty and the accepted k is exactly Zipf-distributed.
            if u >= self.h(k + 0.5) - k.powf(-self.s) {
                return k as u64;
            }
        }
    }

    /// The normalized probability of rank `k` (for tests / analysis).
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.n);
        let norm: f64 = (1..=self.n).map(|i| (i as f64).powf(-self.s)).sum();
        (k as f64).powf(-self.s) / norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cases, Rng};
    use crate::seeded_rng;
    use crate::summary::Summary;

    #[test]
    fn exponential_mean() {
        let d = Exponential::from_mean(4.0);
        let mut rng = seeded_rng(1);
        let s = Summary::from_slice(&d.sample_n(&mut rng, 50_000));
        assert!((s.mean() - 4.0).abs() < 0.1, "mean = {}", s.mean());
        assert!(s.min() > 0.0);
    }

    #[test]
    fn exponential_cv_is_one() {
        let d = Exponential::new(2.5);
        let mut rng = seeded_rng(2);
        let s = Summary::from_slice(&d.sample_n(&mut rng, 50_000));
        assert!((s.cv() - 1.0).abs() < 0.05, "cv = {}", s.cv());
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::from_median_p90(100.0, 1000.0);
        assert!((d.median() - 100.0).abs() < 1e-9);
        let mut rng = seeded_rng(3);
        let mut xs = d.sample_n(&mut rng, 40_000);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med / 100.0 - 1.0).abs() < 0.05, "median = {med}");
        let p90 = xs[(xs.len() as f64 * 0.9) as usize];
        assert!((p90 / 1000.0 - 1.0).abs() < 0.1, "p90 = {p90}");
    }

    #[test]
    fn lognormal_quantile_consistency() {
        let d = LogNormal::new(2.0, 0.7);
        assert!((d.quantile(0.5) - d.median()).abs() < 1e-9);
        assert!(d.quantile(0.1) < d.quantile(0.9));
    }

    #[test]
    fn gamma_moments() {
        // Gamma(k, θ): mean kθ, variance kθ².
        let d = Gamma::new(4.0, 0.5);
        let mut rng = seeded_rng(40);
        let s = Summary::from_slice(&d.sample_n(&mut rng, 50_000));
        assert!((s.mean() - 2.0).abs() < 0.03, "mean = {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.05, "var = {}", s.variance());
    }

    #[test]
    fn gamma_small_shape() {
        let d = Gamma::new(0.4, 1.0);
        let mut rng = seeded_rng(41);
        let s = Summary::from_slice(&d.sample_n(&mut rng, 50_000));
        assert!((s.mean() - 0.4).abs() < 0.02, "mean = {}", s.mean());
        assert!(s.min() > 0.0);
    }

    #[test]
    fn gamma_unit_mean_cv() {
        for cv in [0.5, 1.0, 2.0] {
            let d = Gamma::unit_mean_with_cv(cv);
            let mut rng = seeded_rng(42);
            let s = Summary::from_slice(&d.sample_n(&mut rng, 80_000));
            assert!((s.mean() - 1.0).abs() < 0.05, "cv={cv}: mean = {}", s.mean());
            assert!((s.cv() - cv).abs() < 0.15, "cv={cv}: measured {}", s.cv());
        }
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let d = Poisson::new(3.5);
        let mut rng = seeded_rng(7);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng) as f64).collect();
        let s = Summary::from_slice(&xs);
        assert!((s.mean() - 3.5).abs() < 0.08, "mean = {}", s.mean());
        assert!((s.variance() - 3.5).abs() < 0.2, "var = {}", s.variance());
    }

    #[test]
    fn knuth_draws_as_the_plain_product_loop() {
        fn plain(lambda: f64, rng: &mut impl Rng) -> u64 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        }
        // Rates from the tiniest to the edge of the Knuth path, dense where
        // the early return can fire (below 1).
        let tiny = [f64::MIN_POSITIVE, 1e-300, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3];
        let grid = (1..400).map(|i| i as f64 / 400.0).chain((1..300).map(|i| i as f64 / 10.0));
        for lambda in tiny.into_iter().chain(grid).chain([1.0 - 1e-12, 29.999]) {
            let d = Poisson::new(lambda);
            for seed in [1, 2, 42, 0xDEAD_BEEF] {
                let (mut a, mut b) = (seeded_rng(seed), seeded_rng(seed));
                for _ in 0..200 {
                    assert_eq!(d.sample_knuth(&mut a), plain(lambda, &mut b), "lambda {lambda}");
                }
                assert_eq!(a.next_u64(), b.next_u64(), "lambda {lambda}: same draws");
            }
        }
    }

    #[test]
    fn poisson_large_lambda_moments() {
        // Exercises the PTRS path.
        let d = Poisson::new(5000.0);
        let mut rng = seeded_rng(8);
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng) as f64).collect();
        let s = Summary::from_slice(&xs);
        assert!((s.mean() / 5000.0 - 1.0).abs() < 0.01, "mean = {}", s.mean());
        assert!((s.variance() / 5000.0 - 1.0).abs() < 0.1, "var = {}", s.variance());
    }

    #[test]
    fn poisson_boundary_lambda() {
        // Right at the Knuth/PTRS boundary both paths must be sane.
        for lam in [29.9, 30.0, 30.1] {
            let d = Poisson::new(lam);
            let mut rng = seeded_rng(9);
            let xs: Vec<f64> = (0..30_000).map(|_| d.sample(&mut rng) as f64).collect();
            let s = Summary::from_slice(&xs);
            assert!((s.mean() / lam - 1.0).abs() < 0.03, "lambda={lam} mean={}", s.mean());
        }
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(1000, 1.5);
        let mut rng = seeded_rng(10);
        let n = 100_000;
        let ones = (0..n).filter(|_| d.sample(&mut rng) == 1).count();
        let expect = d.pmf(1);
        let got = ones as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "P(1): got {got}, want {expect}");
    }

    #[test]
    fn zipf_empirical_pmf_matches() {
        let d = Zipf::new(50, 1.0);
        let mut rng = seeded_rng(11);
        let n = 200_000usize;
        let mut counts = vec![0u64; 51];
        for _ in 0..n {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        for k in [1u64, 2, 5, 10, 25, 50] {
            let got = counts[k as usize] as f64 / n as f64;
            let want = d.pmf(k);
            assert!((got - want).abs() < 0.01 + want * 0.1, "P({k}): got {got}, want {want}");
        }
    }

    #[test]
    fn zipf_n_one_always_one() {
        let d = Zipf::new(1, 2.0);
        let mut rng = seeded_rng(12);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn zipf_exponent_one_special_case() {
        let d = Zipf::new(100, 1.0);
        let mut rng = seeded_rng(13);
        for _ in 0..10_000 {
            let k = d.sample(&mut rng);
            assert!((1..=100).contains(&k));
        }
    }

    #[test]
    fn zipf_in_range() {
        cases("zipf_in_range", 32, |rng| {
            let n = rng.range(1..10_000);
            let d = Zipf::new(n, rng.uniform(0.2..3.0));
            let mut rng = seeded_rng(rng.range(0..1000));
            for _ in 0..50 {
                let k = d.sample(&mut rng);
                assert!(k >= 1 && k <= n);
            }
        });
    }

    #[test]
    fn poisson_nonnegative_finite() {
        cases("poisson_nonnegative_finite", 32, |rng| {
            let lam = rng.uniform(0.01..10_000.0);
            let d = Poisson::new(lam);
            let k = d.sample(&mut seeded_rng(rng.range(0..1000)));
            // loose sanity bound: 10 sigma above the mean
            assert!((k as f64) < lam + 10.0 * lam.sqrt() + 50.0);
        });
    }

    #[test]
    fn exponential_positive() {
        cases("exponential_positive", 32, |rng| {
            let d = Exponential::from_mean(rng.uniform(0.001..1e6));
            assert!(d.sample(&mut seeded_rng(rng.range(0..1000))) > 0.0);
        });
    }

    #[test]
    fn lognormal_positive() {
        cases("lognormal_positive", 32, |rng| {
            let d = LogNormal::new(rng.uniform(-5.0..10.0), rng.uniform(0.0..3.0));
            let x = d.sample(&mut seeded_rng(rng.range(0..1000)));
            assert!(x > 0.0 && x.is_finite());
        });
    }
}
