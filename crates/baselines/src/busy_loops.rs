//! Baseline 3: synthetic busy-loop functions.
//!
//! Several works (paper §2.3.1, "Busy loops") fabricate pseudo-functions —
//! calibrated busy loops — whose durations are drawn from the trace's
//! distribution. The runtime CDF is matched well (that's the approach's
//! selling point), but no real computation, memory pattern, or I/O exists
//! behind it — which is exactly the gap FaaSRail closes.

use faasrail_stats::{seeded_rng, Rng};
use faasrail_trace::summarize::functions_duration_ecdf;
use faasrail_trace::Trace;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A fabricated pseudo-function: it spins for `duration_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusyLoopFunction {
    pub id: u32,
    pub duration_ms: f64,
}

impl BusyLoopFunction {
    /// Actually spin for the configured duration; returns loop iterations
    /// (so the spin cannot be optimized away).
    pub fn execute(&self) -> u64 {
        let deadline = Instant::now() + Duration::from_secs_f64(self.duration_ms / 1_000.0);
        let mut iters = 0u64;
        while Instant::now() < deadline {
            std::hint::spin_loop();
            iters += 1;
        }
        iters
    }
}

/// Fabricate `count` busy-loop functions whose durations follow the trace's
/// per-function duration distribution (inverse transform over its ECDF).
pub fn fabricate(trace: &Trace, count: usize, seed: u64) -> Vec<BusyLoopFunction> {
    assert!(count > 0);
    let ecdf = functions_duration_ecdf(trace);
    let mut rng = seeded_rng(seed);
    (0..count)
        .map(|i| BusyLoopFunction {
            id: i as u32,
            duration_ms: ecdf.inverse_interp(rng.next_f64()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::ecdf::Ecdf;
    use faasrail_stats::ks_distance;
    use faasrail_trace::azure::{generate as gen_azure, AzureTraceConfig};

    #[test]
    fn durations_follow_trace_distribution() {
        let trace = gen_azure(&AzureTraceConfig::small(60));
        let funcs = fabricate(&trace, 3_000, 1);
        let got = Ecdf::new(&funcs.iter().map(|f| f.duration_ms).collect::<Vec<_>>());
        let want = faasrail_trace::summarize::functions_duration_ecdf(&trace);
        let ks = ks_distance(&want, &got);
        assert!(ks < 0.05, "KS = {ks} — busy loops do match runtime CDFs");
    }

    #[test]
    fn execute_spins_for_roughly_the_duration() {
        let f = BusyLoopFunction { id: 0, duration_ms: 10.0 };
        let start = Instant::now();
        let iters = f.execute();
        let elapsed = start.elapsed().as_secs_f64() * 1_000.0;
        assert!(iters > 0);
        assert!((10.0..100.0).contains(&elapsed), "spun for {elapsed} ms");
    }

    #[test]
    fn deterministic() {
        let trace = gen_azure(&AzureTraceConfig::small(61));
        assert_eq!(fabricate(&trace, 100, 5), fabricate(&trace, 100, 5));
    }
}
