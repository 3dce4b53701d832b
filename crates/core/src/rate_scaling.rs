//! Request-rate scaling: normalizing the trace load to a target maximum
//! request rate (paper §3.2.1.1).
//!
//! Given per-Function per-minute counts, the busiest aggregate minute is
//! scaled to approximate the user's target, no minute ever exceeds it, and
//! each minute's total is apportioned back to the Functions proportionally
//! (largest-remainder), so both the aggregate load shape (Fig. 8) and the
//! per-function popularity (Fig. 10) survive the downsampling as faithfully
//! as integer counts allow.

use faasrail_stats::timeseries::{apportion_in_place, ApportionScratch};
use serde::{Deserialize, Serialize};

/// Report of a rate-scaling pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleReport {
    /// Busiest-minute total before scaling.
    pub peak_before: u64,
    /// Busiest-minute total after scaling.
    pub peak_after: u64,
    /// The applied multiplicative factor (`target / peak_before`).
    pub factor: f64,
    /// Total requests before scaling.
    pub total_before: u64,
    /// Total requests after scaling.
    pub total_after: u64,
    /// Functions with requests before scaling whose scaled series became
    /// all-zero (popularity lost — the inevitable misrepresentation the
    /// paper acknowledges). A Function that was already silent, e.g. outside
    /// a Minute Range window, was not silenced by scaling and is not counted.
    pub silenced_functions: usize,
}

/// Scale per-Function minute series so the busiest aggregate minute
/// approximates `target_peak_per_minute` and no minute exceeds it.
///
/// `series` is one dense per-minute vector per Function (all equal length).
/// Series are modified in place.
///
/// # Panics
/// Panics if series lengths differ, the trace is empty/all-zero, or the
/// target is zero.
pub fn scale_request_rate(series: &mut [Vec<u64>], target_peak_per_minute: u64) -> ScaleReport {
    assert!(target_peak_per_minute > 0, "target peak must be positive");
    assert!(!series.is_empty(), "no functions to scale");
    let minutes = series[0].len();
    assert!(series.iter().all(|s| s.len() == minutes), "ragged minute series");
    let functions = series.len();

    // Apportionment works on one minute across all Functions, so turn the
    // series minute-major: each minute's column becomes one contiguous run.
    let mut columns = vec![0u64; minutes * functions];
    let mut totals = vec![0u64; minutes];
    let audible = |s: &[u64]| s.iter().any(|&v| v > 0) as usize;
    let mut audible_before = 0;
    for (f, s) in series.iter().enumerate() {
        for (m, &v) in s.iter().enumerate() {
            columns[m * functions + f] = v;
            totals[m] += v;
        }
        audible_before += audible(s);
    }
    let peak_before = totals.iter().copied().max().expect("non-empty");
    assert!(peak_before > 0, "all-zero trace cannot be rate-scaled");
    let total_before: u64 = totals.iter().sum();

    let factor = target_peak_per_minute as f64 / peak_before as f64;

    // Scale each minute's aggregate total, then apportion it across the
    // functions active that minute. Apportionment hands out exactly the
    // scaled total, so that is also the minute's total afterwards.
    let mut scratch = ApportionScratch::default();
    let (mut peak_after, mut total_after) = (0u64, 0u64);
    for (column, &total) in columns.chunks_exact_mut(functions).zip(&totals) {
        if total == 0 {
            continue;
        }
        let scaled_total = ((total as f64) * factor).round() as u64;
        // Floor guarantee: never exceed the target even with rounding.
        let scaled_total = scaled_total.min(target_peak_per_minute);
        apportion_in_place(column, scaled_total, &mut scratch);
        peak_after = peak_after.max(scaled_total);
        total_after += scaled_total;
    }

    // A zero count stays zero, so every Function heard afterwards was heard
    // before, and the difference is the Functions scaling silenced.
    let mut audible_after = 0;
    for (f, s) in series.iter_mut().enumerate() {
        for (m, v) in s.iter_mut().enumerate() {
            *v = columns[m * functions + f];
        }
        audible_after += audible(s);
    }
    let silenced_functions = audible_before - audible_after;

    ScaleReport { peak_before, peak_after, factor, total_before, total_after, silenced_functions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::timeseries::normalize_peak;

    #[test]
    fn peak_hits_target_exactly() {
        let mut series = vec![vec![100, 50, 200, 10], vec![100, 50, 200, 10]];
        let report = scale_request_rate(&mut series, 40);
        assert_eq!(report.peak_before, 400);
        assert_eq!(report.peak_after, 40);
        let totals: Vec<u64> = (0..4).map(|m| series.iter().map(|s| s[m]).sum()).collect();
        assert_eq!(totals, vec![20, 10, 40, 2]);
    }

    #[test]
    fn no_minute_exceeds_target() {
        let mut series = vec![vec![7, 13, 999, 1], vec![3, 1, 1, 1], vec![0, 900, 0, 42]];
        let report = scale_request_rate(&mut series, 17);
        assert!(report.peak_after <= 17);
        for m in 0..4 {
            let total: u64 = series.iter().map(|s| s[m]).sum();
            assert!(total <= 17, "minute {m} total {total}");
        }
    }

    #[test]
    fn aggregate_shape_preserved() {
        // Relative minute-to-minute shape survives scaling.
        let mut series = vec![vec![1000, 800, 600, 1000, 400]];
        let before = normalize_peak(&series[0]);
        scale_request_rate(&mut series, 100);
        let after = normalize_peak(&series[0]);
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 0.02, "shape drift: {before:?} vs {after:?}");
        }
    }

    #[test]
    fn per_function_shares_preserved_in_busy_minute() {
        let mut series = vec![vec![900], vec![90], vec![10]];
        scale_request_rate(&mut series, 100);
        assert_eq!(series[0][0], 90);
        assert_eq!(series[1][0], 9);
        assert_eq!(series[2][0], 1);
    }

    #[test]
    fn rare_functions_may_be_silenced() {
        // A function with one invocation in a 10^4-request trace disappears
        // when scaled down 1000x — the paper's acknowledged distortion.
        let mut series = vec![vec![10_000, 10_000], vec![1, 0]];
        let report = scale_request_rate(&mut series, 20);
        assert_eq!(report.silenced_functions, 1);
        assert!(series[1].iter().all(|&v| v == 0));
    }

    #[test]
    fn a_function_outside_the_window_was_not_silenced_by_scaling() {
        use crate::TimeScaling;
        let window = TimeScaling::MinuteRange { start: 600, experiment_minutes: 30 };
        let day = |minute: usize, count: u64| {
            let mut day = vec![0u64; 1440];
            day[minute] = count;
            window.apply(&day)
        };
        // One busy Function, one the scaling rounds away, one whose only
        // invocation falls before the window opens.
        let mut series = vec![day(610, 10_000), day(610, 1), day(100, 50)];
        let report = scale_request_rate(&mut series, 20);
        assert!(series[1].iter().chain(&series[2]).all(|&v| v == 0));
        assert_eq!(report.silenced_functions, 1);
    }

    #[test]
    fn upscaling_works_too() {
        let mut series = vec![vec![1, 2, 3]];
        let report = scale_request_rate(&mut series, 30);
        assert_eq!(report.peak_after, 30);
        assert_eq!(series[0], vec![10, 20, 30]);
    }

    #[test]
    #[should_panic]
    fn all_zero_panics() {
        let mut series = vec![vec![0, 0]];
        scale_request_rate(&mut series, 10);
    }

    #[test]
    #[should_panic]
    fn ragged_panics() {
        let mut series = vec![vec![1, 2], vec![1]];
        scale_request_rate(&mut series, 10);
    }
}
