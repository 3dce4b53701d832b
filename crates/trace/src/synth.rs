//! Shared synthesis machinery for the synthetic trace generators.
//!
//! The released production traces cannot be redistributed here, so the
//! generators in [`crate::azure`] and [`crate::huawei`] synthesize traces
//! that reproduce the *statistics* FaaSRail consumes. This module holds the
//! building blocks both generators share: the diurnal load template, the
//! per-function invocation-pattern synthesizers (steady / periodic / bursty /
//! rare), and the cross-day roll-up noise model.

use crate::model::{DayStats, MinuteSeries, MINUTES_PER_DAY};
use faasrail_stats::sampler::{Exponential, Poisson, Sampler};
use faasrail_stats::special::normal_inv_cdf;
use faasrail_stats::timeseries::{apportion_weights, moving_average};
use faasrail_stats::Rng;

/// Draw one standard-normal variate by inverse transform.
fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u = rng.next_f64().clamp(1e-12, 1.0 - 1e-12);
    normal_inv_cdf(u)
}

/// A day-long relative load template: positive weights, one per minute.
///
/// Two harmonics (daily + half-daily) over a base level plus smoothed noise
/// reproduce the gentle diurnal wave of the Azure trace's aggregate load
/// (paper Fig. 8: relative load meanders between ~0.6 and 1.0 over the day).
pub fn diurnal_template<R: Rng + ?Sized>(rng: &mut R, base: f64, amplitude: f64) -> Vec<f64> {
    let phase1 = rng.next_f64() * std::f64::consts::TAU;
    let phase2 = rng.next_f64() * std::f64::consts::TAU;
    let raw_noise: Vec<f64> =
        (0..MINUTES_PER_DAY).map(|_| std_normal(rng) * amplitude * 0.6).collect();
    let noise = moving_average(&raw_noise, 90);
    (0..MINUTES_PER_DAY)
        .map(|m| {
            let t = m as f64 / MINUTES_PER_DAY as f64 * std::f64::consts::TAU;
            let v = base
                + amplitude * (t + phase1).sin()
                + amplitude * 0.35 * (2.0 * t + phase2).sin()
                + noise[m];
            v.max(base * 0.1)
        })
        .collect()
}

/// Cumulative distribution over minutes derived from a template
/// (for multinomial placement of rare functions' few events).
pub fn template_cdf(template: &[f64]) -> Vec<f64> {
    let total: f64 = template.iter().sum();
    assert!(total > 0.0, "template must have positive mass");
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(template.len());
    for &w in template {
        acc += w / total;
        cdf.push(acc);
    }
    *cdf.last_mut().expect("non-empty") = 1.0;
    cdf
}

/// Scatter `total` events over minutes according to a template CDF
/// (rare functions: a handful of invocations at load-weighted minutes).
pub fn rare_series<R: Rng + ?Sized>(rng: &mut R, cdf: &[f64], total: u64) -> MinuteSeries {
    let mut counts = vec![0u64; MINUTES_PER_DAY];
    for _ in 0..total {
        let u = rng.next_f64();
        let m = cdf.partition_point(|&c| c < u).min(MINUTES_PER_DAY - 1);
        counts[m] += 1;
    }
    MinuteSeries::from_dense(&counts)
}

/// Per-minute Poisson arrivals with rate proportional to the template
/// (steady functions tracking the diurnal wave).
pub fn steady_series<R: Rng + ?Sized>(rng: &mut R, template: &[f64], total: u64) -> MinuteSeries {
    let sum: f64 = template.iter().sum();
    let mut counts = vec![0u64; MINUTES_PER_DAY];
    for (m, &w) in template.iter().enumerate() {
        let lambda = total as f64 * w / sum;
        if lambda <= 0.0 {
            continue;
        }
        counts[m] = Poisson::new(lambda).sample(rng);
    }
    MinuteSeries::from_dense(&counts)
}

/// Cron-like periodic spikes: one spike every `period` minutes starting at a
/// random phase, with the day's `total` apportioned exactly over the spikes.
pub fn periodic_series<R: Rng + ?Sized>(rng: &mut R, period: u16, total: u64) -> MinuteSeries {
    assert!(period >= 1 && (period as usize) <= MINUTES_PER_DAY);
    let phase = rng.range(0..period);
    let spikes: Vec<u16> = (phase..MINUTES_PER_DAY as u16).step_by(period as usize).collect();
    let per_spike = apportion_weights(&vec![1.0; spikes.len()], total);
    let mut counts = vec![0u64; MINUTES_PER_DAY];
    for (&m, &c) in spikes.iter().zip(&per_spike) {
        counts[m as usize] = c;
    }
    MinuteSeries::from_dense(&counts)
}

/// On/off bursts: a few short windows of intense activity separated by
/// idle time — the sub-minute spike pattern the traces report.
pub fn bursty_series<R: Rng + ?Sized>(rng: &mut R, total: u64) -> MinuteSeries {
    let num_bursts = 1 + rng.range(0..6usize);
    // Burst weights: exponential draws normalized (Dirichlet-like).
    let weight_sampler = Exponential::new(1.0);
    let weights: Vec<f64> = (0..num_bursts).map(|_| weight_sampler.sample(rng) + 0.05).collect();
    let burst_totals = apportion_weights(&weights, total);

    let len_sampler = Exponential::from_mean(4.0);
    let mut counts = vec![0u64; MINUTES_PER_DAY];
    for &bt in &burst_totals {
        if bt == 0 {
            continue;
        }
        let len = (1.0 + len_sampler.sample(rng)).floor().min(60.0) as usize;
        let start = rng.range(0..MINUTES_PER_DAY.saturating_sub(len).max(1));
        // Spread the burst's events uniformly over its window.
        let per_minute = apportion_weights(&vec![1.0; len], bt);
        for (off, &c) in per_minute.iter().enumerate() {
            counts[start + off] += c;
        }
    }
    MinuteSeries::from_dense(&counts)
}

/// Weekly factor: weekends carry less load (two out of every seven days).
pub fn weekend_factor(day: usize) -> f64 {
    if day % 7 >= 5 {
        0.75
    } else {
        1.0
    }
}

/// Cross-day roll-ups for one function.
///
/// `volatile` functions model the high-CV tail of paper Fig. 3 (~10 % of
/// Azure functions); stable ones barely vary across days, which is the
/// property that makes single-day sampling statistically safe.
pub fn daily_rollups<R: Rng + ?Sized>(
    rng: &mut R,
    base_duration_ms: f64,
    selected_day_count: u64,
    num_days: usize,
    selected_day: usize,
    volatile: bool,
) -> Vec<DayStats> {
    assert!(selected_day < num_days);
    let (sigma_dur, sigma_cnt) = if volatile { (1.2, 1.5) } else { (0.05, 0.15) };
    (0..num_days)
        .map(|d| {
            if d == selected_day {
                DayStats { avg_duration_ms: base_duration_ms, invocations: selected_day_count }
            } else {
                let dur = base_duration_ms * (std_normal(rng) * sigma_dur).exp();
                let cnt = selected_day_count as f64
                    * weekend_factor(d)
                    * (std_normal(rng) * sigma_cnt).exp();
                DayStats { avg_duration_ms: dur.max(0.1), invocations: cnt.round().max(0.0) as u64 }
            }
        })
        .collect()
}

/// Zipf–Mandelbrot popularity weights for ranks `1..=n`: `(r + q)^{-s}`.
///
/// The shift `q` flattens the head so the single most popular function does
/// not swallow an unrealistic share of the traffic, while the tail keeps the
/// published skew (top 8 % of functions ≈ 99 % of invocations for Azure).
pub fn zipf_mandelbrot_weights(n: usize, s: f64, q: f64) -> Vec<f64> {
    assert!(n > 0 && s > 0.0 && q >= 0.0);
    (1..=n).map(|r| (r as f64 + q).powf(-s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::seeded_rng;

    #[test]
    fn template_positive_and_wavy() {
        let mut rng = seeded_rng(1);
        let t = diurnal_template(&mut rng, 1.0, 0.25);
        assert_eq!(t.len(), MINUTES_PER_DAY);
        assert!(t.iter().all(|&v| v > 0.0));
        let max = t.iter().cloned().fold(f64::MIN, f64::max);
        let min = t.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.2, "template should vary (max={max}, min={min})");
        assert!(max / min < 10.0, "template should not be spiky");
    }

    #[test]
    fn template_cdf_monotone_ends_at_one() {
        let mut rng = seeded_rng(2);
        let t = diurnal_template(&mut rng, 1.0, 0.25);
        let cdf = template_cdf(&t);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cdf.last().unwrap(), 1.0);
    }

    #[test]
    fn rare_series_exact_total() {
        let mut rng = seeded_rng(3);
        let t = diurnal_template(&mut rng, 1.0, 0.25);
        let cdf = template_cdf(&t);
        let s = rare_series(&mut rng, &cdf, 7);
        assert_eq!(s.total(), 7);
    }

    #[test]
    fn steady_series_tracks_total() {
        let mut rng = seeded_rng(4);
        let t = diurnal_template(&mut rng, 1.0, 0.25);
        let s = steady_series(&mut rng, &t, 100_000);
        let total = s.total() as f64;
        assert!((total / 100_000.0 - 1.0).abs() < 0.02, "total = {total}");
        // A steady-popular function is active nearly every minute.
        assert!(s.active_minutes() > 1400);
    }

    #[test]
    fn periodic_series_spacing_and_total() {
        let mut rng = seeded_rng(5);
        let s = periodic_series(&mut rng, 60, 240);
        assert_eq!(s.total(), 240);
        assert_eq!(s.active_minutes(), 24);
        let minutes: Vec<u16> = s.entries().iter().map(|&(m, _)| m).collect();
        for w in minutes.windows(2) {
            assert_eq!(w[1] - w[0], 60);
        }
    }

    #[test]
    fn bursty_series_concentrated() {
        let mut rng = seeded_rng(6);
        let s = bursty_series(&mut rng, 10_000);
        assert_eq!(s.total(), 10_000);
        // Bursts cover at most 6 windows x 60 minutes.
        assert!(s.active_minutes() <= 360, "active = {}", s.active_minutes());
    }

    #[test]
    fn rollups_selected_day_exact() {
        let mut rng = seeded_rng(7);
        let days = daily_rollups(&mut rng, 123.0, 456, 14, 0, false);
        assert_eq!(days.len(), 14);
        assert_eq!(days[0].avg_duration_ms, 123.0);
        assert_eq!(days[0].invocations, 456);
        // Stable functions stay near the base across days.
        for d in &days {
            assert!(d.avg_duration_ms > 80.0 && d.avg_duration_ms < 200.0);
        }
    }

    #[test]
    fn rollups_volatile_vary_more() {
        let mut rng = seeded_rng(8);
        let stable = daily_rollups(&mut rng, 100.0, 1000, 14, 0, false);
        let volatile = daily_rollups(&mut rng, 100.0, 1000, 14, 0, true);
        let spread = |days: &[DayStats]| {
            let durs: Vec<f64> = days.iter().map(|d| d.avg_duration_ms).collect();
            let max = durs.iter().cloned().fold(f64::MIN, f64::max);
            let min = durs.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        assert!(spread(&volatile) > spread(&stable));
    }

    #[test]
    fn weekend_factor_pattern() {
        assert_eq!(weekend_factor(0), 1.0);
        assert_eq!(weekend_factor(4), 1.0);
        assert_eq!(weekend_factor(5), 0.75);
        assert_eq!(weekend_factor(6), 0.75);
        assert_eq!(weekend_factor(7), 1.0);
    }

    #[test]
    fn zipf_mandelbrot_monotone_decreasing() {
        let w = zipf_mandelbrot_weights(100, 1.5, 5.0);
        assert_eq!(w.len(), 100);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
    }
}
