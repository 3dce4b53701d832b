//! Baseline 5: In-Vitro-style *representative* trace sampling.
//!
//! Ustiugov et al.'s In-Vitro (WORDS '23, paper §5) improves on random
//! sampling by picking the most representative subset of trace functions —
//! here approximated by stratified sampling over (duration × rate) buckets —
//! and replaying a user-defined minute window. The paper's two remaining
//! criticisms still apply, and both are visible in this implementation:
//! the generated load drives synthetic busy loops rather than real
//! workloads, and the window discards the rest of the day's trends.

use faasrail_core::{Request, RequestTrace};
use faasrail_stats::{seeded_rng, Rng};
use faasrail_trace::{Trace, MINUTES_PER_DAY};
use std::collections::BTreeMap;

/// Configuration for the In-Vitro-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InVitroConfig {
    /// Target number of sampled functions.
    pub sample_functions: usize,
    /// Target request volume within the window.
    pub target_invocations: u64,
    /// First trace minute of the replayed window.
    pub window_start: usize,
    /// Window length = experiment duration, minutes.
    pub window_minutes: usize,
    pub seed: u64,
}

/// Stratum key: (log10 duration bucket, log10 daily-invocation bucket).
fn stratum(duration_ms: f64, daily_invocations: u64) -> (i32, i32) {
    (
        duration_ms.max(0.1).log10().floor() as i32,
        (daily_invocations.max(1) as f64).log10().floor() as i32,
    )
}

/// The sampled function subset (exposed for analysis) plus its requests.
#[derive(Debug, Clone, PartialEq)]
pub struct InVitroSample {
    /// Indices into `trace.functions`.
    pub functions: Vec<usize>,
    pub requests: RequestTrace,
}

/// Generate an In-Vitro-style load summary.
///
/// Functions are stratified by order-of-magnitude duration and invocation
/// rate, sampled proportionally per stratum (at least one per non-empty
/// stratum), and their window invocations scaled to the target volume.
/// The output carries trace function indices — In-Vitro drives *synthetic*
/// functions (busy loops fabricated from the duration), not a workload pool,
/// so `Request::workload` is a placeholder `WorkloadId(function_index)`.
pub fn generate(trace: &Trace, cfg: &InVitroConfig) -> InVitroSample {
    assert!(cfg.sample_functions > 0 && cfg.window_minutes > 0);
    assert!(
        cfg.window_start + cfg.window_minutes <= MINUTES_PER_DAY,
        "window exceeds the trace day"
    );
    let mut rng = seeded_rng(cfg.seed);

    // Stratify active functions.
    let mut strata: BTreeMap<(i32, i32), Vec<usize>> = BTreeMap::new();
    for (i, f) in trace.functions.iter().enumerate() {
        let total = f.total_invocations();
        if total == 0 {
            continue;
        }
        strata.entry(stratum(f.avg_duration_ms, total)).or_default().push(i);
    }
    let active_total: usize = strata.values().map(Vec::len).sum();
    let frac = cfg.sample_functions as f64 / active_total.max(1) as f64;

    // Proportional allocation, at least one representative per stratum.
    let mut sampled: Vec<usize> = Vec::new();
    for members in strata.values_mut() {
        let take = ((members.len() as f64 * frac).round() as usize).clamp(1, members.len());
        rng.shuffle(members);
        sampled.extend(members.iter().take(take));
    }
    sampled.sort_unstable();

    // Scale the window's invocations to the target volume.
    let window = cfg.window_start..cfg.window_start + cfg.window_minutes;
    let window_total: u64 = sampled
        .iter()
        .map(|&i| {
            trace.functions[i]
                .minutes
                .entries()
                .filter(|&(m, _)| window.contains(&(m as usize)))
                .map(|(_, c)| c as u64)
                .sum::<u64>()
        })
        .sum();
    let factor =
        if window_total == 0 { 0.0 } else { cfg.target_invocations as f64 / window_total as f64 };

    let mut requests = Vec::new();
    for &i in &sampled {
        let f = &trace.functions[i];
        for (minute, count) in f.minutes.entries() {
            if !window.contains(&(minute as usize)) {
                continue;
            }
            let scaled = count as f64 * factor;
            let mut n = scaled.floor() as u64;
            if rng.next_f64() < scaled.fract() {
                n += 1;
            }
            let exp_minute = (minute as usize - cfg.window_start) as u64;
            for _ in 0..n {
                requests.push(Request {
                    at_ms: exp_minute * 60_000 + rng.range(0..60_000),
                    workload: faasrail_workloads::WorkloadId(f.id.0),
                    function_index: f.id.0,
                });
            }
        }
    }
    requests.sort_by_key(|r| (r.at_ms, r.function_index));
    InVitroSample {
        functions: sampled,
        requests: RequestTrace { duration_minutes: cfg.window_minutes, requests },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::ecdf::WeightedEcdf;
    use faasrail_stats::ks_distance_weighted;
    use faasrail_trace::azure::{generate as gen_azure, AzureTraceConfig};
    use faasrail_trace::summarize::invocations_duration_wecdf;

    fn cfg(seed: u64) -> InVitroConfig {
        InVitroConfig {
            sample_functions: 200,
            target_invocations: 40_000,
            window_start: 600,
            window_minutes: 120,
            seed,
        }
    }

    fn weighted_durations(trace: &Trace, sample: &InVitroSample) -> WeightedEcdf {
        WeightedEcdf::new(
            sample
                .requests
                .requests
                .iter()
                .map(|r| (trace.functions[r.function_index as usize].avg_duration_ms, 1.0)),
        )
    }

    #[test]
    fn covers_all_strata() {
        let trace = gen_azure(&AzureTraceConfig::small(70));
        let sample = generate(&trace, &cfg(1));
        // Every order-of-magnitude duration bucket with members is present.
        let mut trace_buckets: Vec<i32> = trace
            .functions
            .iter()
            .filter(|f| f.total_invocations() > 0)
            .map(|f| f.avg_duration_ms.log10().floor() as i32)
            .collect();
        trace_buckets.sort_unstable();
        trace_buckets.dedup();
        let mut sample_buckets: Vec<i32> = sample
            .functions
            .iter()
            .map(|&i| trace.functions[i].avg_duration_ms.log10().floor() as i32)
            .collect();
        sample_buckets.sort_unstable();
        sample_buckets.dedup();
        assert_eq!(trace_buckets, sample_buckets);
    }

    #[test]
    fn more_representative_than_uniform_sampling() {
        // The whole point of In-Vitro: stratified beats uniform on the
        // invocation-duration distribution.
        let trace = gen_azure(&AzureTraceConfig::small(71));
        let target = invocations_duration_wecdf(&trace);

        let invitro = generate(&trace, &cfg(2));
        let ks_invitro = ks_distance_weighted(&target, &weighted_durations(&trace, &invitro));

        // Uniform baseline at the same scale, via the random-sampling
        // generator's function choice (trace durations, not pool mapping).
        let uniform = {
            let mut rng = faasrail_stats::seeded_rng(2);
            let mut idx: Vec<usize> = (0..trace.functions.len()).collect();
            rng.shuffle(&mut idx);
            idx.truncate(200);
            WeightedEcdf::new(idx.iter().filter_map(|&i| {
                let f = &trace.functions[i];
                (f.total_invocations() > 0)
                    .then(|| (f.avg_duration_ms, f.total_invocations() as f64))
            }))
        };
        let ks_uniform = ks_distance_weighted(&target, &uniform);
        assert!(
            ks_invitro < ks_uniform,
            "stratified KS {ks_invitro:.3} should beat uniform KS {ks_uniform:.3}"
        );
    }

    #[test]
    fn window_respected_and_deterministic() {
        let trace = gen_azure(&AzureTraceConfig::small(72));
        let a = generate(&trace, &cfg(3));
        let b = generate(&trace, &cfg(3));
        assert_eq!(a, b);
        assert!(a.requests.requests.iter().all(|r| r.at_ms < 120 * 60_000));
    }

    #[test]
    fn volume_near_target() {
        let trace = gen_azure(&AzureTraceConfig::small(73));
        let sample = generate(&trace, &cfg(4));
        let n = sample.requests.len() as f64;
        assert!((n / 40_000.0 - 1.0).abs() < 0.1, "volume = {n}");
    }
}
