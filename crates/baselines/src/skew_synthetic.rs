//! Baseline 4: hand-crafted popularity skew (Hermod-style).
//!
//! Some works isolate only the popularity skew: "directing 98 % of the
//! requests to a single function while uniformly distributing the rest 2 %
//! to a limited number of functions" (paper §2.3.1). Rates are constant,
//! runtimes are whatever the chosen functions happen to have.

use faasrail_core::{Request, RequestTrace};
use faasrail_stats::sampler::{Exponential, Sampler};
use faasrail_stats::{seeded_rng, Rng};
use faasrail_workloads::WorkloadPool;

/// Configuration for the skew-synthetic baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSyntheticConfig {
    /// Share of requests sent to the single hot function (e.g. 0.98).
    pub hot_share: f64,
    /// How many cold functions share the remainder uniformly.
    pub cold_functions: usize,
    pub rate_rps: f64,
    pub duration_minutes: usize,
    pub seed: u64,
}

impl SkewSyntheticConfig {
    /// The 98 / 2 split from the literature.
    pub fn hermod_style(seed: u64) -> Self {
        SkewSyntheticConfig {
            hot_share: 0.98,
            cold_functions: 9,
            rate_rps: 20.0,
            duration_minutes: 60,
            seed,
        }
    }
}

/// Generate the skewed request trace over the first `1 + cold_functions`
/// workloads of the pool (workload 0 is the hot one).
pub fn generate(pool: &WorkloadPool, cfg: &SkewSyntheticConfig) -> RequestTrace {
    assert!((0.0..=1.0).contains(&cfg.hot_share));
    assert!(cfg.cold_functions < pool.len(), "pool too small");
    assert!(cfg.rate_rps > 0.0 && cfg.duration_minutes > 0);
    let mut rng = seeded_rng(cfg.seed);
    let gap = Exponential::from_mean(1_000.0 / cfg.rate_rps);
    let end_ms = cfg.duration_minutes as u64 * 60_000;
    let mut requests = Vec::new();
    let mut t = gap.sample(&mut rng);
    while (t as u64) < end_ms {
        let idx =
            if rng.next_f64() < cfg.hot_share { 0 } else { 1 + rng.range(0..cfg.cold_functions) };
        let w = pool.workloads()[idx].id;
        requests.push(Request { at_ms: t as u64, workload: w, function_index: w.0 });
        t += gap.sample(&mut rng);
    }
    RequestTrace { duration_minutes: cfg.duration_minutes, requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_workloads::CostModel;

    fn vanilla() -> WorkloadPool {
        WorkloadPool::vanilla(&CostModel::default_calibration())
    }

    #[test]
    fn hot_function_dominates() {
        let cfg = SkewSyntheticConfig::hermod_style(1);
        let pool = vanilla();
        let t = generate(&pool, &cfg);
        let hot = t.requests.iter().filter(|r| r.function_index == 0).count();
        let share = hot as f64 / t.len() as f64;
        assert!((share - 0.98).abs() < 0.01, "hot share = {share}");
    }

    #[test]
    fn cold_functions_roughly_uniform() {
        let cfg = SkewSyntheticConfig {
            hot_share: 0.5,
            cold_functions: 5,
            rate_rps: 100.0,
            duration_minutes: 30,
            seed: 2,
        };
        let pool = vanilla();
        let t = generate(&pool, &cfg);
        let mut counts = [0u64; 6];
        for r in &t.requests {
            counts[r.function_index as usize] += 1;
        }
        let cold_total: u64 = counts[1..].iter().sum();
        for &c in &counts[1..] {
            let share = c as f64 / cold_total as f64;
            assert!((share - 0.2).abs() < 0.03, "cold share = {share}");
        }
    }

    #[test]
    fn deterministic() {
        let cfg = SkewSyntheticConfig::hermod_style(3);
        assert_eq!(generate(&vanilla(), &cfg), generate(&vanilla(), &cfg));
    }
}
