//! Synthetic request traces for benchmarking.
//!
//! The shrink ray emits traces derived from real workloads; the benchmark
//! harness instead needs *controlled* load — a known constant rate held
//! for a known duration — so that a measured p99 is attributable to the
//! system under test rather than to trace burstiness. Two arrival
//! processes are offered:
//!
//! * **uniform** — equidistant arrivals (`i / rps` seconds). Zero
//!   burstiness; isolates the service path.
//! * **Poisson** — exponential inter-arrival times at the same mean rate,
//!   the classic open-system arrival model. Bursty at every timescale;
//!   stresses queueing the way production traffic does.
//!
//! Both are deterministic in `(rps, duration, seed)`: the Poisson stream
//! draws from the workspace's own splitmix64, so the same spec always
//! produces the byte-identical trace, regardless of toolchain.

use faasrail_core::{Request, RequestTrace};
use faasrail_stats::rng::{Rng, SplitMix64, GOLDEN_GAMMA};
use faasrail_workloads::WorkloadId;

/// How synthetic arrivals are spaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Equidistant arrivals: request `i` at `i / rps` seconds.
    Uniform,
    /// Exponential inter-arrival times with mean `1 / rps` seconds,
    /// seeded deterministically.
    Poisson,
}

/// Build a constant-rate trace: `rps` requests per second held for
/// `duration_s` seconds, all invoking `workload`.
///
/// The trace length is `ceil(rps * duration_s)` requests; `at_ms` stamps
/// are clamped into the duration so `duration_minutes` stays consistent
/// even for a bursty Poisson tail.
pub fn fixed_rate_trace(
    rps: f64,
    duration_s: f64,
    workload: WorkloadId,
    process: ArrivalProcess,
    seed: u64,
) -> RequestTrace {
    assert!(rps > 0.0 && rps.is_finite(), "rps must be positive");
    assert!(duration_s > 0.0 && duration_s.is_finite(), "duration must be positive");
    let n = (rps * duration_s).ceil() as u64;
    let mut requests = Vec::with_capacity(n as usize);
    let mut rng = SplitMix64::new(seed ^ GOLDEN_GAMMA);
    let mut t_s = 0.0f64;
    for i in 0..n {
        let at_s = match process {
            ArrivalProcess::Uniform => i as f64 / rps,
            ArrivalProcess::Poisson => {
                // Inverse-CDF exponential draw; 1 - u in (0, 1].
                t_s += -(1.0 - rng.next_f64()).max(f64::MIN_POSITIVE).ln() / rps;
                t_s
            }
        };
        let at_ms = (at_s * 1e3).min(duration_s * 1e3) as u64;
        requests.push(Request { at_ms, workload, function_index: i as u32 });
    }
    RequestTrace { duration_minutes: (duration_s / 60.0).ceil().max(1.0) as usize, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_trace_is_equidistant_and_sized() {
        let t = fixed_rate_trace(100.0, 2.0, WorkloadId(7), ArrivalProcess::Uniform, 1);
        assert_eq!(t.requests.len(), 200);
        assert_eq!(t.duration_minutes, 1);
        assert_eq!(t.requests[0].at_ms, 0);
        assert_eq!(t.requests[100].at_ms, 1000);
        for w in t.requests.windows(2) {
            assert_eq!(w[1].at_ms - w[0].at_ms, 10);
        }
    }

    #[test]
    fn poisson_trace_is_the_one_generated_before_the_rng_port() {
        let t = fixed_rate_trace(200.0, 3.0, WorkloadId(7), ArrivalProcess::Poisson, 11);
        let digest = t
            .requests
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, r| (h ^ r.at_ms).wrapping_mul(0x100_0000_01B3));
        assert_eq!((t.requests.len(), digest), (600, 0x261f_86a9_2285_cf6b));
    }

    #[test]
    fn poisson_trace_is_deterministic_and_mean_rate_holds() {
        let a = fixed_rate_trace(500.0, 4.0, WorkloadId(3), ArrivalProcess::Poisson, 99);
        let b = fixed_rate_trace(500.0, 4.0, WorkloadId(3), ArrivalProcess::Poisson, 99);
        assert_eq!(a, b, "same spec must produce the identical trace");
        let c = fixed_rate_trace(500.0, 4.0, WorkloadId(3), ArrivalProcess::Poisson, 100);
        assert_ne!(a, c, "different seed must change arrival times");
        assert_eq!(a.requests.len(), 2000);
        // Mean inter-arrival ≈ 2ms; the 2000-draw sample mean should land
        // well within ±20%.
        let span_ms = a.requests.last().unwrap().at_ms as f64;
        let mean_gap = span_ms / 1999.0;
        assert!((1.6..=2.4).contains(&mean_gap), "mean gap {mean_gap} ms");
    }

    #[test]
    fn arrivals_are_sorted_and_clamped() {
        let t = fixed_rate_trace(50.0, 1.0, WorkloadId(0), ArrivalProcess::Poisson, 7);
        assert!(t.requests.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(t.requests.iter().all(|r| r.at_ms <= 1000));
    }
}
