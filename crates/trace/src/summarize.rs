//! Trace-level statistical summaries — the quantities every paper figure is
//! drawn from.

use crate::model::Trace;
use faasrail_stats::ecdf::{Ecdf, WeightedEcdf};
use faasrail_stats::summary::{self, cumulative_shares};
use std::collections::BTreeMap;

/// ECDF of distinct functions' average execution durations (paper Figs. 1a, 6).
///
/// Counts every function once, regardless of invocation volume, matching the
/// per-workload CDFs of the paper. Functions are included whether or not
/// they were invoked on the selected day (the Azure duration file covers all
/// functions observed that day).
pub fn functions_duration_ecdf(trace: &Trace) -> Ecdf {
    Ecdf::new(&trace.functions.iter().map(|f| f.avg_duration_ms).collect::<Vec<_>>())
}

/// Invocation-weighted ECDF of execution durations (paper Figs. 1b, 9, 11):
/// each function's average duration weighted by its selected-day invocations.
pub fn invocations_duration_wecdf(trace: &Trace) -> WeightedEcdf {
    WeightedEcdf::new(
        trace
            .functions
            .iter()
            .filter(|f| f.total_invocations() > 0)
            .map(|f| (f.avg_duration_ms, f.total_invocations() as f64)),
    )
}

/// ECDF of per-app allocated memory (paper Fig. 7).
pub fn app_memory_ecdf(trace: &Trace) -> Ecdf {
    Ecdf::new(&trace.apps.iter().map(|a| a.memory_mb).collect::<Vec<_>>())
}

/// Invocation share per trigger kind (the Azure trace's Trigger column).
pub fn trigger_breakdown(trace: &Trace) -> BTreeMap<&'static str, f64> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    for f in &trace.functions {
        let t = f.total_invocations();
        *counts.entry(f.trigger.name()).or_insert(0) += t;
        total += t;
    }
    counts.into_iter().map(|(k, v)| (k, v as f64 / total.max(1) as f64)).collect()
}

/// Selected-day invocation counts of the functions that were invoked at all
/// (a function with zero invocations has no popularity).
fn invoked_counts(trace: &Trace) -> Vec<u64> {
    trace.functions.iter().map(|f| f.total_invocations()).filter(|&t| t > 0).collect()
}

/// Popularity curve (paper Figs. 1c, 10): for each prefix of functions
/// sorted by descending invocation count, `(fraction_of_functions,
/// cumulative_fraction_of_invocations)`.
///
/// Only functions invoked on the selected day participate.
pub fn popularity_curve(trace: &Trace) -> Vec<(f64, f64)> {
    cumulative_shares(&mut invoked_counts(trace))
}

/// Share of total invocations held by the most popular `frac` of the invoked
/// functions (e.g. `top_share(trace, 0.08)` ≈ 0.99 for Azure), counted by
/// [`faasrail_stats::summary::top_share`]'s rule.
pub fn top_share(trace: &Trace, frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&frac));
    summary::top_share(&mut invoked_counts(trace), frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceFunction;
    use crate::model::{App, AppId, FunctionId, MinuteSeries, TraceKind, TriggerKind};

    fn mk(durations_and_counts: &[(f64, u32)]) -> Trace {
        let functions = durations_and_counts
            .iter()
            .enumerate()
            .map(|(i, &(d, c))| TraceFunction {
                id: FunctionId(i as u32),
                app: AppId(0),
                trigger: TriggerKind::default(),
                avg_duration_ms: d,
                minutes: if c > 0 {
                    MinuteSeries::new(vec![(0, c)])
                } else {
                    MinuteSeries::default()
                },
                daily: vec![],
            })
            .collect();
        Trace {
            kind: TraceKind::Custom,
            selected_day: 0,
            num_days: 1,
            functions,
            apps: vec![App { id: AppId(0), memory_mb: 100.0 }],
        }
    }

    #[test]
    fn function_vs_invocation_cdfs() {
        // Two functions: fast one invoked 99 times, slow one once.
        let t = mk(&[(10.0, 99), (1000.0, 1)]);
        let fe = functions_duration_ecdf(&t);
        assert_eq!(fe.eval(10.0), 0.5);
        let we = invocations_duration_wecdf(&t);
        assert_eq!(we.eval(10.0), 0.99);
    }

    #[test]
    fn popularity_curve_shape() {
        let t = mk(&[(1.0, 80), (1.0, 15), (1.0, 5)]);
        let curve = popularity_curve(&t);
        assert_eq!(curve.len(), 3);
        assert!((curve[0].0 - 1.0 / 3.0).abs() < 1e-12);
        assert!((curve[0].1 - 0.80).abs() < 1e-12);
        assert!((curve[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn popularity_excludes_idle_functions() {
        let t = mk(&[(1.0, 10), (1.0, 0)]);
        assert_eq!(popularity_curve(&t).len(), 1);
    }

    #[test]
    fn top_share_monotone() {
        let t = mk(&[(1.0, 70), (1.0, 20), (1.0, 9), (1.0, 1)]);
        assert!(top_share(&t, 0.25) >= 0.69);
        assert!(top_share(&t, 0.5) >= top_share(&t, 0.25));
        assert!((top_share(&t, 1.0) - 1.0).abs() < 1e-12);
    }

    /// `analyze`, Fig. 1 and the audit read "the top x %" here; `evaluate`
    /// reads it from the same counts. 10 % of 25 functions is three of them
    /// for both (it was two here while `evaluate` took three).
    #[test]
    fn top_share_counts_functions_the_way_evaluate_does() {
        let mut counts = vec![(1.0, 1u32); 25];
        counts[7].1 = 40;
        counts[11].1 = 30;
        counts[19].1 = 20;
        let t = mk(&counts);
        assert_eq!(top_share(&t, 0.10), 90.0 / 112.0);
        let mut plain: Vec<u64> = counts.iter().map(|&(_, c)| c as u64).collect();
        assert_eq!(top_share(&t, 0.10), summary::top_share(&mut plain, 0.10));
        assert_eq!(top_share(&mk(&[(1.0, 0), (1.0, 0)]), 0.5), 0.0);
    }

    #[test]
    fn memory_ecdf() {
        let t = mk(&[(1.0, 1)]);
        let e = app_memory_ecdf(&t);
        assert_eq!(e.eval(100.0), 1.0);
        assert_eq!(e.eval(99.0), 0.0);
    }
}
