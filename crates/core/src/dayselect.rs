//! Day selection: is a single trace day a statistically safe sample?
//!
//! Paper §3.1.2 ("Sampling"): the coefficients of variation of each
//! function's daily average execution time and daily invocation count are
//! computed across all trace days; since ~90 % of Azure functions yield CVs
//! below 1 (Fig. 3), replaying a single day is statistically safe. This
//! module computes those CVs and encodes the decision rule.

use faasrail_stats::Summary;
use faasrail_trace::Trace;
use serde::{Deserialize, Serialize};

/// Per-function cross-day coefficients of variation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FunctionCv {
    pub function_index: u32,
    /// CV of the daily average execution time.
    pub cv_duration: f64,
    /// CV of the daily invocation count.
    pub cv_invocations: f64,
}

/// Compute cross-day CVs for every function carrying daily roll-ups.
pub fn cv_analysis(trace: &Trace) -> Vec<FunctionCv> {
    trace
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.daily.len() >= 2)
        .map(|(i, f)| {
            let (mut durations, mut invocations) = (Summary::new(), Summary::new());
            for d in &f.daily {
                durations.push(d.avg_duration_ms);
                invocations.push(d.invocations as f64);
            }
            FunctionCv {
                function_index: i as u32,
                cv_duration: durations.cv(),
                cv_invocations: invocations.cv(),
            }
        })
        .collect()
}

/// Fraction of functions whose CV is below `threshold`, for the chosen
/// extractor (duration or invocations).
pub fn fraction_below(cvs: &[FunctionCv], threshold: f64, duration: bool) -> f64 {
    if cvs.is_empty() {
        return f64::NAN;
    }
    let below = cvs
        .iter()
        .filter(|c| {
            let v = if duration { c.cv_duration } else { c.cv_invocations };
            v.is_finite() && v < threshold
        })
        .count();
    below as f64 / cvs.len() as f64
}

/// Outcome of the day-selection safety check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DaySelection {
    /// The day to use (the trace's materialized day).
    pub day: usize,
    /// Fraction of functions with CV(duration) < 1 across days.
    pub stable_duration_fraction: f64,
    /// Fraction of functions with CV(invocations) < 1 across days.
    pub stable_invocations_fraction: f64,
    /// Whether single-day sampling meets the paper's safety bar.
    pub single_day_safe: bool,
}

/// Apply the paper's decision rule: single-day sampling is safe when at
/// least `safety_fraction` of the functions have both CVs below 1.
///
/// Traces without multi-day roll-ups (e.g. a loaded single-day CSV) are
/// trivially "safe": there is nothing else to sample.
pub fn select_day(trace: &Trace, safety_fraction: f64) -> DaySelection {
    let cvs = cv_analysis(trace);
    if cvs.is_empty() {
        return DaySelection {
            day: trace.selected_day,
            stable_duration_fraction: f64::NAN,
            stable_invocations_fraction: f64::NAN,
            single_day_safe: true,
        };
    }
    let sd = fraction_below(&cvs, 1.0, true);
    let si = fraction_below(&cvs, 1.0, false);
    DaySelection {
        day: trace.selected_day,
        stable_duration_fraction: sd,
        stable_invocations_fraction: si,
        single_day_safe: sd >= safety_fraction && si >= safety_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_trace::azure::{generate, AzureTraceConfig};
    use faasrail_trace::{
        App, AppId, DayStats, FunctionId, MinuteSeries, TraceFunction, TraceKind,
    };

    fn trace_with_daily(daily: Vec<DayStats>) -> Trace {
        Trace {
            kind: TraceKind::Custom,
            selected_day: 0,
            num_days: daily.len().max(1),
            functions: vec![TraceFunction {
                id: FunctionId(0),
                app: AppId(0),
                trigger: Default::default(),
                avg_duration_ms: daily.first().map(|d| d.avg_duration_ms).unwrap_or(1.0),
                minutes: MinuteSeries::new(vec![(
                    0,
                    daily.first().map(|d| d.invocations as u32).unwrap_or(0),
                )]),
                daily,
            }],
            apps: vec![App { id: AppId(0), memory_mb: 100.0 }],
        }
    }

    #[test]
    fn constant_days_have_zero_cv() {
        let t = trace_with_daily(vec![
            DayStats { avg_duration_ms: 100.0, invocations: 10 },
            DayStats { avg_duration_ms: 100.0, invocations: 10 },
            DayStats { avg_duration_ms: 100.0, invocations: 10 },
        ]);
        let cvs = cv_analysis(&t);
        assert_eq!(cvs.len(), 1);
        assert_eq!(cvs[0].cv_duration, 0.0);
        assert_eq!(cvs[0].cv_invocations, 0.0);
        assert!(select_day(&t, 0.8).single_day_safe);
    }

    #[test]
    fn wild_days_flagged_unsafe() {
        let t = trace_with_daily(vec![
            DayStats { avg_duration_ms: 1.0, invocations: 1 },
            DayStats { avg_duration_ms: 10_000.0, invocations: 1_000_000 },
            DayStats { avg_duration_ms: 2.0, invocations: 2 },
        ]);
        let sel = select_day(&t, 0.8);
        assert!(!sel.single_day_safe);
        assert_eq!(sel.stable_duration_fraction, 0.0);
    }

    #[test]
    fn single_day_trace_trivially_safe() {
        let t = trace_with_daily(vec![DayStats { avg_duration_ms: 5.0, invocations: 3 }]);
        let sel = select_day(&t, 0.9);
        assert!(sel.single_day_safe);
        assert!(sel.stable_duration_fraction.is_nan());
    }

    #[test]
    fn azure_synthetic_is_safe() {
        // The synthetic Azure trace reproduces Fig. 3's stability: ~90 % of
        // functions below CV 1 on both axes.
        let t = generate(&AzureTraceConfig::small(11));
        let sel = select_day(&t, 0.8);
        assert!(sel.single_day_safe, "{sel:?}");
        assert!(sel.stable_duration_fraction > 0.8);
        assert!(sel.stable_invocations_fraction > 0.8);
    }

    #[test]
    fn fraction_below_empty_is_nan() {
        assert!(fraction_below(&[], 1.0, true).is_nan());
    }
}
