//! Per-minute time-series manipulation.
//!
//! Implements the two discrete resampling operations at the heart of the
//! shrink ray: the **Thumbnails** rebinning (paper §3.2.1.2 — aggregate
//! adjacent minutes by summing) and **largest-remainder apportionment**,
//! which the request-rate scaler (paper §3.2.1.1) uses to scale integer
//! counts to a target total without drift: the scaled counts always sum to
//! exactly the requested total, and each element differs from its exact
//! proportional quota by less than one.

use crate::summary::Summary;

/// Rebin a series into `groups` buckets by summation (Thumbnails mode).
///
/// When `groups` does not divide `series.len()`, bucket boundaries are placed
/// at `round(i · len / groups)` so bucket sizes differ by at most one and the
/// total is preserved exactly.
///
/// ```
/// use faasrail_stats::timeseries::rebin_sum;
/// // Thumbnails: a 6-minute day into a 3-minute experiment.
/// assert_eq!(rebin_sum(&[1, 2, 3, 4, 5, 6], 3), vec![3, 7, 11]);
/// ```
///
/// # Panics
/// Panics if `groups == 0` or `groups > series.len()`.
pub fn rebin_sum(series: &[u64], groups: usize) -> Vec<u64> {
    assert!(groups > 0, "rebin_sum requires at least one group");
    assert!(groups <= series.len(), "cannot rebin {} points into {} groups", series.len(), groups);
    let n = series.len();
    let mut out = Vec::with_capacity(groups);
    for g in 0..groups {
        let lo = g * n / groups;
        let hi = (g + 1) * n / groups;
        out.push(series[lo..hi].iter().sum());
    }
    out
}

/// Normalize a series to its peak: every element divided by the maximum.
/// An all-zero series maps to all zeros.
pub fn normalize_peak(series: &[u64]) -> Vec<f64> {
    let peak = series.iter().copied().max().unwrap_or(0);
    if peak == 0 {
        return vec![0.0; series.len()];
    }
    series.iter().map(|&v| v as f64 / peak as f64).collect()
}

/// Mean absolute difference between two load shapes (paper Fig. 8, property
/// iv): `want` is thumbnailed to `have`'s length when it is longer, both are
/// normalized to their peaks, and the per-bin gaps are averaged. 0 means the
/// generated load follows the reference's trend exactly.
///
/// # Panics
/// Panics if `have` is empty, or if `want` is shorter than `have`: a
/// reference cannot be stretched.
pub fn load_shape_mae(want: &[u64], have: &[u64]) -> f64 {
    let (bins, n) = (want.len(), have.len());
    assert!(n > 0 && bins >= n, "load_shape_mae: reference of {bins} bins against {n}");
    let want = if bins > n { normalize_peak(&rebin_sum(want, n)) } else { normalize_peak(want) };
    let have = normalize_peak(have);
    want.iter().zip(&have).map(|(a, b)| (a - b).abs()).sum::<f64>() / n as f64
}

/// Scale `counts` proportionally so the result sums to exactly `target_total`,
/// using the largest-remainder (Hamilton) method.
///
/// Every output element `o_i` satisfies `|o_i − c_i · T / Σc| < 1`, so the
/// *shape* of the series is preserved as faithfully as integer counts allow.
/// Ties in fractional remainders break toward lower index (deterministic).
///
/// An all-zero input with a nonzero target panics: there is no proportional
/// way to place requests on a silent series.
///
/// ```
/// use faasrail_stats::timeseries::apportion_largest_remainder;
/// // Scale a 900/90/10 minute down to 100 requests: shares survive exactly.
/// assert_eq!(apportion_largest_remainder(&[900, 90, 10], 100), vec![90, 9, 1]);
/// ```
pub fn apportion_largest_remainder(counts: &[u64], target_total: u64) -> Vec<u64> {
    let mut out = counts.to_vec();
    apportion_in_place(&mut out, target_total, &mut ApportionScratch::default());
    out
}

/// Working memory of [`apportion_in_place`], reusable across calls: the
/// `(remainder, index)` pairs still in the running for a leftover unit.
#[derive(Debug, Default)]
pub struct ApportionScratch {
    narrow: Vec<(u64, usize)>,
    wide: Vec<(u128, usize)>,
}

/// [`apportion_largest_remainder`] in place: `counts` becomes its own scaled
/// version, and nothing is allocated once `scratch` has grown to the slice's
/// length. The request-rate scaler calls this once per experiment minute.
///
/// Three rules make it cheaper than the textbook loop without changing one
/// output:
/// - a zero count has quota 0 and remainder 0, so it can never receive a
///   leftover unit and is skipped outright;
/// - `c · T` is formed in `u64` whenever the largest count times the target
///   fits (`checked_mul`), and in `u128` otherwise — the quotient and
///   remainder are the same numbers either way;
/// - the leftover units go to the largest remainders, ties toward the lower
///   index. Since indices are distinct that order has no equal elements, so
///   the `k` winners are a unique set and a selection
///   (`select_nth_unstable_by`) finds exactly the set a full sort would.
///
/// # Panics
/// Panics on an all-zero `counts` with a nonzero target, like
/// [`apportion_largest_remainder`].
pub fn apportion_in_place(counts: &mut [u64], target_total: u64, scratch: &mut ApportionScratch) {
    if target_total == 0 {
        counts.fill(0);
        return;
    }
    let total: u128 = counts.iter().map(|&c| c as u128).sum();
    assert!(total > 0, "cannot apportion {target_total} requests over an all-zero series");
    let largest = counts.iter().copied().max().unwrap_or(0);
    match (u64::try_from(total), largest.checked_mul(target_total)) {
        (Ok(total), Some(_)) => apportion_by(counts, total, target_total, &mut scratch.narrow),
        _ => apportion_by(counts, total, target_total, &mut scratch.wide),
    }
    debug_assert_eq!(counts.iter().map(|&v| v as u128).sum::<u128>(), target_total as u128);
}

/// The kernel at one integer width `W` (`u64` or `u128`): the caller has
/// checked that no `c · target_total` overflows it.
fn apportion_by<W>(
    counts: &mut [u64],
    total: W,
    target_total: u64,
    remainders: &mut Vec<(W, usize)>,
) where
    W: Copy + Ord + From<u64> + TryInto<u64>,
    W: std::ops::Mul<Output = W> + std::ops::Div<Output = W> + std::ops::Rem<Output = W>,
{
    let target = W::from(target_total);
    remainders.clear();
    let mut assigned = 0u64;
    for (i, c) in counts.iter_mut().enumerate() {
        if *c == 0 {
            continue;
        }
        let scaled = W::from(*c) * target;
        let quota: u64 = (scaled / total).try_into().ok().expect("a quota is at most the target");
        let remainder = scaled % total;
        *c = quota;
        assigned += quota;
        if remainder > W::from(0) {
            remainders.push((remainder, i));
        }
    }
    // Remainders sum to `leftover · total` and each is below `total`, so
    // more than `leftover` of them are non-zero whenever any unit is left.
    let leftover = (target_total - assigned) as usize;
    if leftover == 0 {
        return;
    }
    // Largest remainder first; ties toward lower index.
    remainders.select_nth_unstable_by(leftover - 1, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders[..leftover] {
        counts[i] += 1;
    }
}

/// Apportion `target_total` integer units proportionally to float `weights`
/// (largest-remainder method, ties toward lower index).
///
/// The float analogue of [`apportion_largest_remainder`]; used by the
/// synthetic trace generators to convert popularity weights into integer
/// invocation counts whose sum is exact.
///
/// # Panics
/// Panics if the weights are negative/non-finite, or all zero while
/// `target_total > 0`.
pub fn apportion_weights(weights: &[f64], target_total: u64) -> Vec<u64> {
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0),
        "weights must be finite and non-negative"
    );
    if target_total == 0 {
        return vec![0; weights.len()];
    }
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "cannot apportion {target_total} units over all-zero weights");

    let t = target_total as f64;
    let mut out = vec![0u64; weights.len()];
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let quota = w / total * t;
        let q = quota.floor();
        out[i] = q as u64;
        assigned += q as u64;
        remainders.push((quota - q, i));
    }
    let mut leftover = target_total.saturating_sub(assigned) as usize;
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        out[i] += 1;
        leftover -= 1;
    }
    debug_assert_eq!(out.iter().sum::<u64>(), target_total);
    out
}

/// Simple centered-window moving average (window truncated at the edges).
///
/// # Panics
/// Panics if `window == 0`.
pub fn moving_average(series: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "moving_average requires window >= 1");
    let n = series.len();
    let half = window / 2;
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Fano factor (variance-to-mean ratio) of a count series — a standard
/// burstiness index: 1 for a Poisson process, > 1 for bursty arrivals.
/// Returns `NaN` for an empty or all-zero series.
pub fn fano_factor(series: &[u64]) -> f64 {
    if series.is_empty() {
        return f64::NAN;
    }
    let s = Summary::from_slice(&series.iter().map(|&v| v as f64).collect::<Vec<_>>());
    if s.mean() == 0.0 {
        return f64::NAN;
    }
    s.variance() / s.mean()
}

/// Index and value of the series maximum (first occurrence).
/// Returns `None` for an empty series.
pub fn peak(series: &[u64]) -> Option<(usize, u64)> {
    series.iter().enumerate().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0))).map(|(i, &v)| (i, v))
}

/// Lag-`k` autocorrelation of a series (Pearson, biased denominator).
/// Returns `NaN` when undefined (constant series or too short).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    let n = series.len();
    if lag >= n {
        return f64::NAN;
    }
    let s = Summary::from_slice(series);
    let mean = s.mean();
    let denom: f64 = series.iter().map(|x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        return f64::NAN;
    }
    let num: f64 = (0..n - lag).map(|i| (series[i] - mean) * (series[i + lag] - mean)).sum();
    num / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rebin_exact_divisor() {
        let s = [1, 2, 3, 4, 5, 6];
        assert_eq!(rebin_sum(&s, 3), vec![3, 7, 11]);
        assert_eq!(rebin_sum(&s, 2), vec![6, 15]);
        assert_eq!(rebin_sum(&s, 6), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn rebin_ragged_preserves_total() {
        let s: Vec<u64> = (0..1440).map(|i| i % 17).collect();
        let total: u64 = s.iter().sum();
        for groups in [7, 11, 100, 120, 1440] {
            let r = rebin_sum(&s, groups);
            assert_eq!(r.len(), groups);
            assert_eq!(r.iter().sum::<u64>(), total, "groups={groups}");
        }
    }

    #[test]
    fn rebin_1440_to_120_paper_case() {
        // 2-hour experiment: 1440 minutes → 120 groups of 12 (paper §3.2.1.2).
        let s = vec![1u64; 1440];
        let r = rebin_sum(&s, 120);
        assert!(r.iter().all(|&v| v == 12));
    }

    #[test]
    fn normalize_peak_basics() {
        assert_eq!(normalize_peak(&[2, 4, 1]), vec![0.5, 1.0, 0.25]);
        assert_eq!(normalize_peak(&[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn load_shape_mae_of_a_series_against_itself_and_its_rebin_is_zero() {
        let day: Vec<u64> = (0..1440).map(|i| 50 + (i * 7) % 113).collect();
        assert_eq!(load_shape_mae(&day, &day), 0.0);
        assert_eq!(load_shape_mae(&day, &rebin_sum(&day, 120)), 0.0);
        // Peak normalization makes it scale-free: a tenth of the load, same shape.
        assert_eq!(load_shape_mae(&[10, 20, 40], &[1, 2, 4]), 0.0);
        assert_eq!(load_shape_mae(&[4, 4], &[4, 2]), 0.25);
    }

    #[test]
    #[should_panic(expected = "reference of 2 bins against 3")]
    fn load_shape_mae_refuses_a_reference_shorter_than_the_load() {
        load_shape_mae(&[1, 2], &[1, 2, 3]);
    }

    #[test]
    fn apportion_exact_total() {
        let out = apportion_largest_remainder(&[1, 1, 1], 10);
        assert_eq!(out.iter().sum::<u64>(), 10);
        // 10/3: quotas 3.33 → two get 3, one (lowest index tie-break) gets 4.
        assert_eq!(out, vec![4, 3, 3]);
    }

    #[test]
    fn apportion_zero_target() {
        assert_eq!(apportion_largest_remainder(&[5, 5], 0), vec![0, 0]);
    }

    #[test]
    fn apportion_preserves_zeros() {
        let out = apportion_largest_remainder(&[0, 10, 0, 10], 6);
        assert_eq!(out[0], 0);
        assert_eq!(out[2], 0);
        assert_eq!(out.iter().sum::<u64>(), 6);
        assert_eq!(out[1], 3);
        assert_eq!(out[3], 3);
    }

    #[test]
    fn apportion_upscale() {
        // Scaling *up* works too.
        let out = apportion_largest_remainder(&[1, 2, 3], 60);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic]
    fn apportion_all_zero_panics() {
        apportion_largest_remainder(&[0, 0], 5);
    }

    #[test]
    fn moving_average_constant() {
        let s = vec![3.0; 10];
        assert!(moving_average(&s, 5).iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn fano_poisson_like() {
        use crate::sampler::Poisson;
        use crate::seeded_rng;
        let d = Poisson::new(50.0);
        let mut rng = seeded_rng(21);
        let s: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let f = fano_factor(&s);
        assert!((f - 1.0).abs() < 0.1, "fano = {f}");
    }

    #[test]
    fn fano_bursty_exceeds_one() {
        // on/off bursts: long zero stretches then spikes
        let mut s = vec![0u64; 100];
        for i in (0..100).step_by(10) {
            s[i] = 100;
        }
        assert!(fano_factor(&s) > 10.0);
    }

    #[test]
    fn peak_first_occurrence() {
        assert_eq!(peak(&[1, 5, 3, 5]), Some((1, 5)));
        assert_eq!(peak(&[]), None);
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let s: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        assert!((autocorrelation(&s, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_periodic_signal() {
        let period = 24usize;
        let s: Vec<f64> =
            (0..480).map(|i| (i as f64 / period as f64 * std::f64::consts::TAU).sin()).collect();
        assert!(autocorrelation(&s, period) > 0.9);
        assert!(autocorrelation(&s, period / 2) < -0.9);
    }

    #[test]
    fn apportion_weights_basic() {
        let out = apportion_weights(&[0.1, 0.2, 0.7], 10);
        assert_eq!(out, vec![1, 2, 7]);
        assert_eq!(apportion_weights(&[1.0, 1.0], 0), vec![0, 0]);
    }

    #[test]
    fn apportion_weights_tiny_weights_sum_exact() {
        let w = [1e-12, 2e-12, 3e-12];
        let out = apportion_weights(&w, 1_000_000);
        assert_eq!(out.iter().sum::<u64>(), 1_000_000);
    }

    proptest! {
        #[test]
        fn apportion_weights_sum_exact_prop(
            ws in proptest::collection::vec(0f64..1e6, 1..200),
            target in 1u64..1_000_000,
        ) {
            prop_assume!(ws.iter().any(|&w| w > 0.0));
            let out = apportion_weights(&ws, target);
            prop_assert_eq!(out.iter().sum::<u64>(), target);
        }
    }

    proptest! {
        #[test]
        fn rebin_total_invariant(s in proptest::collection::vec(0u64..1000, 1..500), g in 1usize..50) {
            prop_assume!(g <= s.len());
            let r = rebin_sum(&s, g);
            prop_assert_eq!(r.iter().sum::<u64>(), s.iter().sum::<u64>());
            prop_assert_eq!(r.len(), g);
        }

        #[test]
        fn apportion_sum_and_quota_error(
            counts in proptest::collection::vec(0u64..10_000, 1..200),
            target in 1u64..1_000_000,
        ) {
            prop_assume!(counts.iter().any(|&c| c > 0));
            let out = apportion_largest_remainder(&counts, target);
            prop_assert_eq!(out.iter().sum::<u64>(), target);
            let total: f64 = counts.iter().map(|&c| c as f64).sum();
            for (i, (&c, &o)) in counts.iter().zip(&out).enumerate() {
                let quota = c as f64 * target as f64 / total;
                prop_assert!(
                    (o as f64 - quota).abs() < 1.0 + 1e-9,
                    "element {i}: out={o} quota={quota}"
                );
            }
        }

        #[test]
        fn apportion_monotone_in_counts(
            counts in proptest::collection::vec(1u64..10_000, 2..100),
            target in 1u64..100_000,
        ) {
            // A strictly larger count never receives 2+ fewer requests than a
            // smaller one (largest-remainder can invert by at most 1).
            let out = apportion_largest_remainder(&counts, target);
            for i in 0..counts.len() {
                for j in 0..counts.len() {
                    if counts[i] > counts[j] {
                        prop_assert!(out[i] + 1 >= out[j]);
                    }
                }
            }
        }

        #[test]
        fn normalize_peak_in_unit_range(s in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let n = normalize_peak(&s);
            prop_assert!(n.iter().all(|&v| (0.0..=1.0).contains(&v)));
            if s.iter().any(|&v| v > 0) {
                prop_assert!(n.contains(&1.0));
            }
        }
    }
}
