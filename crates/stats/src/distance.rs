//! Distances between empirical distributions.
//!
//! The evaluation harness quantifies "how closely does FaaSRail-generated
//! load track the production trace" (paper Figs. 6, 9, 11) with the
//! Kolmogorov–Smirnov statistic and the Wasserstein-1 (earth mover's)
//! distance, both computed exactly over step-function ECDFs.

use crate::ecdf::{Ecdf, WeightedEcdf};

/// Kolmogorov–Smirnov statistic between two unweighted ECDFs:
/// `sup_x |F1(x) − F2(x)|`.
pub fn ks_distance(a: &Ecdf, b: &Ecdf) -> f64 {
    let wa = a.to_weighted();
    let wb = b.to_weighted();
    ks_distance_weighted(&wa, &wb)
}

/// Kolmogorov–Smirnov statistic between two weighted ECDFs.
///
/// Both ECDFs are right-continuous step functions, so the supremum is
/// attained at a support point of one of them.
pub fn ks_distance_weighted(a: &WeightedEcdf, b: &WeightedEcdf) -> f64 {
    let mut sup: f64 = 0.0;
    for &x in a.values().iter().chain(b.values()) {
        sup = sup.max((a.eval(x) - b.eval(x)).abs());
    }
    sup
}

/// Wasserstein-1 (earth mover's) distance between two weighted ECDFs:
/// `∫ |F1(x) − F2(x)| dx`, computed exactly over the union of breakpoints.
///
/// Unlike KS, this accounts for *how far* mass is displaced, which matters
/// when comparing execution-time distributions spanning orders of magnitude.
pub fn wasserstein1(a: &WeightedEcdf, b: &WeightedEcdf) -> f64 {
    let mut xs: Vec<f64> = a.values().iter().chain(b.values()).copied().collect();
    xs.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    xs.dedup();
    let mut acc = 0.0;
    for w in xs.windows(2) {
        let diff = (a.eval(w[0]) - b.eval(w[0])).abs();
        acc += diff * (w[1] - w[0]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cases, Rng};

    fn w(pairs: &[(f64, f64)]) -> WeightedEcdf {
        WeightedEcdf::new(pairs.iter().copied())
    }

    #[test]
    fn identical_distributions_have_zero_distance() {
        let a = w(&[(1.0, 1.0), (2.0, 3.0), (5.0, 1.0)]);
        assert_eq!(ks_distance_weighted(&a, &a), 0.0);
        assert_eq!(wasserstein1(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_point_masses_ks_is_one() {
        let a = w(&[(1.0, 1.0)]);
        let b = w(&[(2.0, 1.0)]);
        assert_eq!(ks_distance_weighted(&a, &b), 1.0);
        // All mass moves distance 1.
        assert!((wasserstein1(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_known_half() {
        // a: all mass at 1; b: half at 1, half at 2. F_a(1)=1, F_b(1)=0.5.
        let a = w(&[(1.0, 1.0)]);
        let b = w(&[(1.0, 1.0), (2.0, 1.0)]);
        assert!((ks_distance_weighted(&a, &b) - 0.5).abs() < 1e-12);
        assert!((wasserstein1(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wasserstein_translation() {
        // Translating a distribution by d moves W1 by exactly d.
        let a = w(&[(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]);
        let b = w(&[(11.0, 1.0), (12.0, 1.0), (13.0, 1.0)]);
        assert!((wasserstein1(&a, &b) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ecdf_wrapper_consistent() {
        let ea = Ecdf::new(&[1.0, 2.0, 3.0]);
        let eb = Ecdf::new(&[1.0, 2.0, 4.0]);
        let d1 = ks_distance(&ea, &eb);
        let d2 = ks_distance_weighted(&ea.to_weighted(), &eb.to_weighted());
        assert_eq!(d1, d2);
    }

    /// A weighted ECDF of 1..`max_len` points, values in `[0, max_value)`.
    fn arb(rng: &mut impl Rng, max_value: f64, max_len: usize) -> WeightedEcdf {
        let n = rng.range(1..max_len);
        WeightedEcdf::new(
            (0..n)
                .map(|_| (rng.uniform(0.0..max_value), rng.uniform(0.1..5.0)))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn ks_is_symmetric_and_bounded() {
        cases("ks_is_symmetric_and_bounded", 256, |rng| {
            let (a, b) = (arb(rng, 100.0, 30), arb(rng, 100.0, 30));
            let d1 = ks_distance_weighted(&a, &b);
            let d2 = ks_distance_weighted(&b, &a);
            assert!((d1 - d2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&d1));
        });
    }

    #[test]
    fn wasserstein_symmetric_nonnegative() {
        cases("wasserstein_symmetric_nonnegative", 256, |rng| {
            let (a, b) = (arb(rng, 100.0, 30), arb(rng, 100.0, 30));
            let d1 = wasserstein1(&a, &b);
            let d2 = wasserstein1(&b, &a);
            assert!((d1 - d2).abs() < 1e-9);
            assert!(d1 >= 0.0);
        });
    }

    #[test]
    fn wasserstein_triangle_inequality() {
        cases("wasserstein_triangle_inequality", 256, |rng| {
            let (a, b, c) = (arb(rng, 50.0, 20), arb(rng, 50.0, 20), arb(rng, 50.0, 20));
            let ab = wasserstein1(&a, &b);
            let bc = wasserstein1(&b, &c);
            let ac = wasserstein1(&a, &c);
            assert!(ac <= ab + bc + 1e-9);
        });
    }
}
