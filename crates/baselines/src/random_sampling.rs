//! Baseline 2: random trace sampling with proportional downscaling.
//!
//! The second common practice (paper §2.3.1): uniformly sample a small
//! subset of trace functions, map each to the duration-closest vanilla
//! benchmark, proportionally reduce the invocation counts to the target
//! volume, and compress the day onto the experiment window. As Fig. 1
//! shows, the result keeps *some* skew but misses the runtime distribution
//! and produces sparse, spike-dominated load.

use faasrail_core::{Request, RequestTrace};
use faasrail_stats::{seeded_rng, Rng};
use faasrail_trace::{Trace, MINUTES_PER_DAY};
use faasrail_workloads::WorkloadPool;

/// Configuration for the random-sampling baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSamplingConfig {
    /// How many trace functions to sample.
    pub sample_functions: usize,
    /// Target total request volume.
    pub target_invocations: u64,
    /// Experiment duration, minutes (the day is linearly compressed).
    pub duration_minutes: usize,
    pub seed: u64,
}

impl RandomSamplingConfig {
    /// The paper's Fig. 1 configuration: 2 h / 144 K invocations.
    pub fn paper_fig1(seed: u64) -> Self {
        RandomSamplingConfig {
            sample_functions: 200,
            target_invocations: 144_000,
            duration_minutes: 120,
            seed,
        }
    }
}

/// Generate the baseline request trace by random sampling.
///
/// Each sampled function is mapped to the pool workload with the closest
/// mean runtime (no threshold, no balancing — the naïve mapping the paper
/// contrasts with). Counts are scaled by a global factor with stochastic
/// rounding; minutes are compressed linearly onto the experiment window
/// with uniform placement inside the target minute.
pub fn generate(trace: &Trace, pool: &WorkloadPool, cfg: &RandomSamplingConfig) -> RequestTrace {
    assert!(cfg.sample_functions > 0 && cfg.duration_minutes > 0);
    let mut rng = seeded_rng(cfg.seed);

    // Sample functions uniformly (the defining flaw: the skewed head is
    // almost surely missed).
    let mut indices: Vec<usize> = (0..trace.functions.len()).collect();
    rng.shuffle(&mut indices);
    indices.truncate(cfg.sample_functions.min(trace.functions.len()));

    let sampled_total: u64 = indices.iter().map(|&i| trace.functions[i].total_invocations()).sum();
    let factor =
        if sampled_total == 0 { 0.0 } else { cfg.target_invocations as f64 / sampled_total as f64 };

    // Nearest-workload mapping.
    let index = pool.runtime_index();

    let compress = cfg.duration_minutes as f64 / MINUTES_PER_DAY as f64;
    let mut requests = Vec::new();
    for &i in &indices {
        let f = &trace.functions[i];
        let workload = index.entries()[index.nearest(f.avg_duration_ms)].id;
        for (minute, count) in f.minutes.entries() {
            // Stochastic rounding of the scaled count.
            let scaled = count as f64 * factor;
            let mut n = scaled.floor() as u64;
            if rng.next_f64() < scaled.fract() {
                n += 1;
            }
            let target_minute = (minute as f64 * compress) as u64;
            for _ in 0..n {
                let off = rng.range(0..60_000u64);
                requests.push(Request {
                    at_ms: target_minute * 60_000 + off,
                    workload,
                    function_index: f.id.0,
                });
            }
        }
    }
    requests.sort_by_key(|r| (r.at_ms, r.function_index));
    RequestTrace { duration_minutes: cfg.duration_minutes, requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::ks_distance_weighted;
    use faasrail_trace::azure::{generate as gen_azure, AzureTraceConfig};
    use faasrail_trace::summarize::invocations_duration_wecdf;
    use faasrail_workloads::CostModel;

    fn setup() -> (Trace, WorkloadPool) {
        (
            gen_azure(&AzureTraceConfig::small(50)),
            WorkloadPool::vanilla(&CostModel::default_calibration()),
        )
    }

    #[test]
    fn volume_near_target() {
        let (trace, pool) = setup();
        let cfg = RandomSamplingConfig {
            sample_functions: 300,
            target_invocations: 50_000,
            duration_minutes: 120,
            seed: 4,
        };
        let t = generate(&trace, &pool, &cfg);
        assert!((t.len() as f64 / 50_000.0 - 1.0).abs() < 0.05, "generated {} requests", t.len());
    }

    #[test]
    fn runtime_distribution_violated() {
        // The paper's point (Fig. 1b): nearest-vanilla mapping of a uniform
        // sample does NOT reproduce the trace's invocation-duration CDF.
        let (trace, pool) = setup();
        let cfg = RandomSamplingConfig {
            sample_functions: 200,
            target_invocations: 40_000,
            duration_minutes: 120,
            seed: 5,
        };
        let t = generate(&trace, &pool, &cfg);
        let target = invocations_duration_wecdf(&trace);
        let got = t.duration_wecdf(&pool);
        let ks = ks_distance_weighted(&target, &got);
        assert!(ks > 0.15, "baseline unexpectedly accurate: KS = {ks}");
    }

    #[test]
    fn deterministic() {
        let (trace, pool) = setup();
        let cfg = RandomSamplingConfig::paper_fig1(6);
        assert_eq!(generate(&trace, &pool, &cfg), generate(&trace, &pool, &cfg));
    }

    #[test]
    fn respects_duration_window() {
        let (trace, pool) = setup();
        let cfg = RandomSamplingConfig {
            sample_functions: 100,
            target_invocations: 10_000,
            duration_minutes: 30,
            seed: 7,
        };
        let t = generate(&trace, &pool, &cfg);
        let end = 30 * 60_000;
        assert!(t.requests.iter().all(|r| r.at_ms < end));
    }
}
