//! Capped exponential backoff with deterministic, per-invocation jitter.
//!
//! Retry schedules must be reproducible for the generator to be a research
//! instrument: two replays of the same trace under the same fault pattern
//! retry each invocation at the same offsets. The jitter of an invocation's
//! retry is therefore a stateless draw, [`mix_fraction`], keyed by the
//! retry's index and by [`invocation_key`] — the invocation's function and
//! scheduled instant — under [`RetryPolicy::jitter_seed`]. It depends on
//! nothing another invocation did, nor on which worker thread ran it.

use faasrail_loadgen::InvocationRequest;
use faasrail_stats::rng::{mix64_pair, Rng, SplitMix64};
use std::time::Duration;

/// One uniform draw in `[0, 1)` at position `n` of the stream seeded by
/// `seed` — random access without carrying mutable state, used by the
/// server's fault injector so concurrent connections stay deterministic,
/// and by [`RetryPolicy::delay`] for the same reason.
pub fn mix_fraction(seed: u64, n: u64) -> f64 {
    SplitMix64::new(seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F)).next_f64()
}

/// The jitter key of an invocation: its function and scheduled instant,
/// which two replays of one trace share. `trace_id` is left out: it carries
/// the run's nonce, so it differs between two replays of one trace.
pub fn invocation_key(req: &InvocationRequest) -> u64 {
    mix64_pair(u64::from(req.function_index), req.scheduled_at_ms)
}

/// Retry policy for transport-level failures: capped exponential backoff
/// with per-invocation jitter.
///
/// The pre-jitter delay before retry `i` (0-based) is
/// `min(cap, base · 2^i)`; jitter then randomizes the fraction `jitter` of
/// it, so the actual delay lies in `[(1 − jitter) · d, d)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries). `1` disables retry.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
    /// Fraction of each delay that is randomized, in `[0, 1]`. `0.0` gives
    /// the deterministic exponential schedule; `1.0` is "full jitter".
    pub jitter: f64,
    /// Seed of the jitter draws — same seed and invocation, same delays.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            jitter: 0.5,
            jitter_seed: 0x5EED_FAA5,
        }
    }
}

impl RetryPolicy {
    /// The deterministic (pre-jitter) exponential delay before retry
    /// `retry` (0-based): `min(cap, base · 2^retry)`.
    pub fn exponential(&self, retry: u32) -> Duration {
        let exp = self.base.as_secs_f64() * 2f64.powi(retry.min(63) as i32);
        Duration::from_secs_f64(exp.min(self.cap.as_secs_f64()))
    }

    /// The jittered delay before retry `retry` (0-based) of the invocation
    /// whose [`invocation_key`] is `key`.
    pub fn delay(&self, retry: u32, key: u64) -> Duration {
        let exp = self.exponential(retry).as_secs_f64();
        let j = self.jitter.clamp(0.0, 1.0);
        let draw = mix_fraction(self.jitter_seed ^ key, u64::from(retry));
        Duration::from_secs_f64(exp * (1.0 - j) + exp * j * draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_workloads::{WorkloadId, WorkloadInput};

    fn policy(jitter: f64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter,
            jitter_seed: 42,
        }
    }

    /// The five delays of `p` for the invocation keyed `key`.
    fn delays(p: &RetryPolicy, key: u64) -> Vec<Duration> {
        (0..5).map(|retry| p.delay(retry, key)).collect()
    }

    fn request(function_index: u32, scheduled_at_ms: u64, trace_id: u64) -> InvocationRequest {
        InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 4096 },
            function_index,
            scheduled_at_ms,
            trace_id,
        }
    }

    #[test]
    fn delay_without_jitter_is_the_capped_exponential() {
        let expect: Vec<Duration> = [10, 20, 40, 80, 100] // capped at 100 ms
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        for key in [0, 1, u64::MAX] {
            assert_eq!(delays(&policy(0.0), key), expect, "key {key:#x}");
        }
    }

    #[test]
    fn jitter_is_deterministic_under_seed() {
        let p = policy(0.5);
        assert_eq!(delays(&p, 9), delays(&p, 9), "same seed and key, same delays");
        let other = RetryPolicy { jitter_seed: 43, ..p };
        assert_ne!(delays(&p, 9), delays(&other, 9), "different seed, different jitter");
    }

    #[test]
    fn jitter_stays_within_the_randomized_band() {
        let p = policy(0.5);
        for key in 0..200 {
            for (i, d) in delays(&p, key).iter().enumerate() {
                let exp = p.exponential(i as u32);
                assert!(*d >= exp.mul_f64(0.5), "retry {i}: {d:?} below half of {exp:?}");
                assert!(*d <= exp, "retry {i}: {d:?} above {exp:?}");
            }
        }
    }

    #[test]
    fn the_delay_is_keyed_by_the_invocation_not_its_trace_id() {
        let p = policy(0.5);
        let (run, rerun) = (request(3, 60_250, 0xfeed), request(3, 60_250, 0xbeef));
        assert_eq!(invocation_key(&run), invocation_key(&rerun), "trace_id is not in the key");
        assert_eq!(delays(&p, invocation_key(&run)), delays(&p, invocation_key(&rerun)));
        for other in [request(4, 60_250, 0xfeed), request(3, 60_251, 0xfeed)] {
            let key = invocation_key(&other);
            assert_ne!(key, invocation_key(&run), "{other:?}");
            assert_ne!(delays(&p, key), delays(&p, invocation_key(&run)), "{other:?}");
        }
    }

    #[test]
    fn exponential_caps_and_never_overflows() {
        let p = policy(0.0);
        assert_eq!(p.exponential(0), Duration::from_millis(10));
        assert_eq!(p.exponential(3), Duration::from_millis(80));
        assert_eq!(p.exponential(4), Duration::from_millis(100), "capped");
        assert_eq!(p.exponential(1_000), Duration::from_millis(100), "huge retry index capped");
    }

    /// The parent commit's draws (private splitmix64 copy): fault bands
    /// of a seeded run must not move.
    #[test]
    fn jitter_and_mix_fraction_are_the_draws_made_before_the_rng_port() {
        for (seed, n, bits) in [
            (0u64, 0u64, 0x3fec_4415_072f_63b9_u64),
            (9, 100, 0x3fcc_183a_fdeb_22dc),
            (42, 1, 0x3fe8_a93a_de71_1338),
            (0x5eed, 123_456_789, 0x3fef_8f61_4bdc_0168),
            (u64::MAX, u64::MAX, 0x3fd8_e860_c60f_b5b4),
        ] {
            assert_eq!(mix_fraction(seed, n).to_bits(), bits, "seed {seed:#x} n {n}");
        }
    }

    #[test]
    fn mix_fraction_is_stable_and_spread() {
        assert_eq!(mix_fraction(9, 100), mix_fraction(9, 100));
        let below = (0..1_000).filter(|&n| mix_fraction(9, n) < 0.25).count();
        assert!((150..350).contains(&below), "~25% expected, got {below}/1000");
    }
}
