//! Synthetic Huawei-private-like trace generator.
//!
//! The Huawei internal trace ("How Does It Function?", SoCC '23) has a much
//! more acute profile than Azure's, which the paper summarizes as:
//!
//! * only ~200 functions (104 with execution times on day 1), monitored for
//!   141 days;
//! * far higher invocation counts (~4.27 B over the window, ~30 M/day);
//! * functions run much faster (sub-10 ms medians) and more frequently;
//! * request rates are bursty even at sub-minute granularity.

use crate::model::{App, AppId, FunctionId, Trace, TraceFunction, TraceKind, TriggerKind};
use crate::synth;
use faasrail_stats::sampler::{LogNormal, Sampler};
use faasrail_stats::timeseries::apportion_weights;
use faasrail_stats::{seeded_rng, Rng};
use serde::{Deserialize, Serialize};

/// Configuration for the synthetic Huawei-private-like trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HuaweiTraceConfig {
    pub seed: u64,
    /// Number of distinct functions (paper: 200, with 104 reporting
    /// execution times on day 1).
    pub num_functions: usize,
    pub num_days: usize,
    pub selected_day: usize,
    /// Invocations on the selected day (~4.27 B / 141 days ≈ 30 M).
    pub daily_invocations: u64,
    pub popularity_exponent: f64,
    pub popularity_shift: f64,
    pub volatile_fraction: f64,
}

impl HuaweiTraceConfig {
    /// Full paper-scale configuration.
    pub fn paper_scale(seed: u64) -> Self {
        HuaweiTraceConfig {
            seed,
            num_functions: 200,
            num_days: 141,
            selected_day: 0,
            daily_invocations: 30_000_000,
            popularity_exponent: 1.2,
            popularity_shift: 2.0,
            volatile_fraction: 0.15,
        }
    }

    /// Reduced invocation volume for fast tests; same function count (the
    /// Huawei trace is already tiny in that dimension).
    pub fn small(seed: u64) -> Self {
        HuaweiTraceConfig { daily_invocations: 1_000_000, num_days: 14, ..Self::paper_scale(seed) }
    }
}

/// Generate a synthetic Huawei-private-like trace.
pub fn generate(cfg: &HuaweiTraceConfig) -> Trace {
    assert!(cfg.num_functions > 0);
    assert!(cfg.num_days > 0 && cfg.selected_day < cfg.num_days);
    let mut rng = seeded_rng(cfg.seed);
    let n = cfg.num_functions;

    let weights = synth::zipf_mandelbrot_weights(n, cfg.popularity_exponent, cfg.popularity_shift);
    let planned_totals = apportion_weights(&weights, cfg.daily_invocations);

    // Durations: internal functions are very fast. Two-component mixture —
    // a dominant sub-10 ms component plus a moderate tail — clamped to 2 s
    // and quantized to 0.1 ms like published sub-ms reporting. Popularity
    // rank is coupled to speed: the busiest internal functions are also the
    // fastest (the trace's "run much faster and more frequently").
    let fast = LogNormal::from_median_p90(3.0, 30.0);
    let tail = LogNormal::from_median_p90(80.0, 600.0);
    let durations: Vec<f64> = (0..n)
        .map(|rank| {
            let u = if n == 1 { 0.0 } else { rank as f64 / (n - 1) as f64 };
            let p_fast = 0.95 - 0.35 * u;
            let d =
                if rng.next_f64() < p_fast { fast.sample(&mut rng) } else { tail.sample(&mut rng) };
            (d.clamp(0.1, 2_000.0) * 10.0).round() / 10.0
        })
        .collect();

    // One internal "app" per function: the Huawei trace has no app grouping.
    let apps: Vec<App> = (0..n)
        .map(|i| App {
            id: AppId(i as u32),
            memory_mb: LogNormal::from_median_p90(128.0, 512.0)
                .sample(&mut rng)
                .clamp(32.0, 2_048.0),
        })
        .collect();

    let template = synth::diurnal_template(&mut rng, 1.0, 0.3);
    let cdf = synth::template_cdf(&template);

    let mut functions = Vec::with_capacity(n);
    for (rank, (&total, &dur)) in planned_totals.iter().zip(&durations).enumerate() {
        // Heavier burst mix than Azure: the Huawei trace is bursty even at
        // sub-minute scale.
        let minutes = if total < 50 {
            synth::rare_series(&mut rng, &cdf, total)
        } else if rng.next_f64() < 0.5 {
            synth::steady_series(&mut rng, &template, total)
        } else {
            synth::bursty_series(&mut rng, total)
        };
        let realized_total = minutes.total();
        let volatile = rng.next_f64() < cfg.volatile_fraction;
        let daily = synth::daily_rollups(
            &mut rng,
            dur,
            realized_total,
            cfg.num_days,
            cfg.selected_day,
            volatile,
        );
        functions.push(TraceFunction {
            id: FunctionId(rank as u32),
            app: AppId(rank as u32),
            // Internal platform functions: mostly event/queue driven.
            trigger: if rng.next_f64() < 0.6 { TriggerKind::Event } else { TriggerKind::Queue },
            avg_duration_ms: dur,
            minutes,
            daily,
        });
    }

    Trace {
        kind: TraceKind::HuaweiPrivate,
        selected_day: cfg.selected_day,
        num_days: cfg.num_days,
        functions,
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::ecdf::WeightedEcdf;
    use faasrail_stats::timeseries::fano_factor;

    fn small_trace() -> Trace {
        generate(&HuaweiTraceConfig::small(42))
    }

    #[test]
    fn determinism() {
        assert_eq!(generate(&HuaweiTraceConfig::small(3)), generate(&HuaweiTraceConfig::small(3)));
    }

    #[test]
    fn shape_counts() {
        let t = small_trace();
        assert_eq!(t.functions.len(), 200);
        assert_eq!(t.num_days, 14);
        assert_eq!(t.kind, TraceKind::HuaweiPrivate);
    }

    #[test]
    fn durations_much_faster_than_azure() {
        let t = small_trace();
        let mut durs: Vec<f64> = t.functions.iter().map(|f| f.avg_duration_ms).collect();
        durs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = durs[durs.len() / 2];
        assert!(median < 50.0, "median duration = {median} ms");
        assert!(durs[0] >= 0.1);
        assert!(*durs.last().unwrap() <= 2_000.0);
    }

    #[test]
    fn weighted_durations_fast() {
        let t = small_trace();
        let w = WeightedEcdf::new(
            t.functions
                .iter()
                .filter(|f| f.total_invocations() > 0)
                .map(|f| (f.avg_duration_ms, f.total_invocations() as f64)),
        );
        // The bulk of invocations complete within 100 ms.
        assert!(w.eval(100.0) > 0.6, "P(inv < 100ms) = {}", w.eval(100.0));
    }

    #[test]
    fn total_close_to_target() {
        let t = small_trace();
        let total = t.total_invocations() as f64;
        assert!((total / 1_000_000.0 - 1.0).abs() < 0.02, "total = {total}");
    }

    #[test]
    fn bursty_aggregate() {
        // The Huawei trace is bursty: the aggregate per-minute series should
        // be over-dispersed relative to Poisson.
        let t = small_trace();
        let agg = t.aggregate_minutes();
        let f = fano_factor(&agg);
        assert!(f > 5.0, "aggregate Fano factor = {f}");
    }

    #[test]
    fn distinct_durations_are_around_a_hundred() {
        // Paper: day 1 of the Huawei trace reports 104 distinct execution
        // times for 200 functions. Quantization to 0.1 ms over the narrow
        // fast range should collapse the 200 functions similarly.
        let t = small_trace();
        let mut keys: Vec<u64> =
            t.functions.iter().map(|f| (f.avg_duration_ms * 10.0).round() as u64).collect();
        keys.sort_unstable();
        keys.dedup();
        assert!((60..=190).contains(&keys.len()), "distinct duration count = {}", keys.len());
    }
}
