//! Baseline 1: plain-Poisson emulation over vanilla FunctionBench.
//!
//! The most common practice in the literature (paper §2.3.1, Fig. 1): draw
//! request arrivals from a single constant-rate Poisson process and pick the
//! target function uniformly among the ~10 vanilla benchmark configurations.
//! Bursty at second scale — but flat over the experiment, with uniform
//! popularity and a 10-point runtime distribution.

use faasrail_core::{Request, RequestTrace};
use faasrail_stats::sampler::{Exponential, Sampler};
use faasrail_stats::{seeded_rng, Rng};
use faasrail_workloads::WorkloadPool;

/// Configuration for the plain-Poisson baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonEmulationConfig {
    /// Constant arrival rate, requests/second.
    pub rate_rps: f64,
    /// Experiment duration, minutes.
    pub duration_minutes: usize,
    pub seed: u64,
}

impl PoissonEmulationConfig {
    /// The paper's Fig. 1 configuration: 2 hours at 20 rps ≈ 144 K requests.
    pub fn paper_fig1(seed: u64) -> Self {
        PoissonEmulationConfig { rate_rps: 20.0, duration_minutes: 120, seed }
    }
}

/// Generate the baseline request trace over the given (typically vanilla)
/// pool.
pub fn generate(pool: &WorkloadPool, cfg: &PoissonEmulationConfig) -> RequestTrace {
    assert!(cfg.rate_rps > 0.0 && cfg.duration_minutes > 0);
    let mut rng = seeded_rng(cfg.seed);
    let gap = Exponential::from_mean(1_000.0 / cfg.rate_rps);
    let end_ms = cfg.duration_minutes as u64 * 60_000;
    let mut requests = Vec::new();
    let mut t = gap.sample(&mut rng);
    while (t as u64) < end_ms {
        let w = pool.workloads()[rng.range(0..pool.len())].id;
        requests.push(Request { at_ms: t as u64, workload: w, function_index: w.0 });
        t += gap.sample(&mut rng);
    }
    RequestTrace { duration_minutes: cfg.duration_minutes, requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::timeseries::fano_factor;
    use faasrail_workloads::CostModel;

    fn vanilla() -> WorkloadPool {
        WorkloadPool::vanilla(&CostModel::default_calibration())
    }

    #[test]
    fn volume_matches_rate() {
        let cfg = PoissonEmulationConfig { rate_rps: 50.0, duration_minutes: 10, seed: 1 };
        let t = generate(&vanilla(), &cfg);
        let expect = 50.0 * 600.0;
        assert!((t.len() as f64 / expect - 1.0).abs() < 0.05, "{}", t.len());
    }

    #[test]
    fn load_is_flat_over_minutes() {
        // The paper's criticism: no diurnal variation. Per-minute counts
        // should be statistically flat (Poisson ⇒ Fano ≈ 1 relative to the
        // per-minute mean).
        let cfg = PoissonEmulationConfig { rate_rps: 20.0, duration_minutes: 60, seed: 2 };
        let t = generate(&vanilla(), &cfg);
        let f = fano_factor(&t.per_minute_counts());
        assert!(f < 3.0, "per-minute Fano = {f} — should be flat");
    }

    #[test]
    fn popularity_is_uniform() {
        // Each of the 10 workloads draws ≈10 % of the requests — violating
        // the trace's skew (Fig. 1c).
        let cfg = PoissonEmulationConfig::paper_fig1(3);
        let pool = vanilla();
        let t = generate(&pool, &cfg);
        let counts = t.counts_by_kind(&pool);
        let total: u64 = counts.values().sum();
        for (k, c) in counts {
            let share = c as f64 / total as f64;
            assert!((share - 0.1).abs() < 0.02, "{k}: share {share}");
        }
    }

    #[test]
    fn deterministic() {
        let cfg = PoissonEmulationConfig { rate_rps: 5.0, duration_minutes: 5, seed: 9 };
        assert_eq!(generate(&vanilla(), &cfg), generate(&vanilla(), &cfg));
    }
}
