//! Capped exponential backoff with deterministic seeded jitter.
//!
//! Retry schedules must be reproducible for the generator to be a research
//! instrument: two replays of the same spec under the same fault pattern
//! should retry at the same instants. All randomness therefore flows from a
//! seeded [`SplitMix64`] stream rather than a global entropy source.

use faasrail_stats::rng::{Rng, SplitMix64};
use std::time::Duration;

/// One uniform draw in `[0, 1)` at position `n` of the stream seeded by
/// `seed` — random access without carrying mutable state, used by the
/// server's fault injector so concurrent connections stay deterministic.
pub fn mix_fraction(seed: u64, n: u64) -> f64 {
    SplitMix64::new(seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F)).next_f64()
}

/// Retry policy for transport-level failures: capped exponential backoff
/// with seeded jitter.
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
    /// Seed for the jitter stream — same seed, same schedule.
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

    /// The jittered delay before retry `retry`, drawing from `rng`.
    pub fn delay(&self, retry: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self.exponential(retry).as_secs_f64();
        let j = self.jitter.clamp(0.0, 1.0);
        Duration::from_secs_f64(exp * (1.0 - j) + exp * j * rng.next_f64())
    }

    /// The full backoff schedule (`max_attempts − 1` delays), deterministic
    /// under `jitter_seed`.
    pub fn schedule(&self) -> Vec<Duration> {
        let mut rng = SplitMix64::new(self.jitter_seed);
        (0..self.max_attempts.saturating_sub(1)).map(|i| self.delay(i, &mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(jitter: f64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter,
            jitter_seed: 42,
        }
    }

    #[test]
    fn schedule_is_capped_exponential_without_jitter() {
        let p = policy(0.0);
        let expect: Vec<Duration> = [10, 20, 40, 80, 100] // capped at 100 ms
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        assert_eq!(p.schedule(), expect);
    }

    #[test]
    fn schedule_length_is_attempts_minus_one() {
        assert_eq!(policy(0.5).schedule().len(), 5);
        let single = RetryPolicy { max_attempts: 1, ..policy(0.5) };
        assert!(single.schedule().is_empty(), "one attempt means no backoff");
        let zero = RetryPolicy { max_attempts: 0, ..policy(0.5) };
        assert!(zero.schedule().is_empty());
    }

    #[test]
    fn jitter_is_deterministic_under_seed() {
        let p = policy(0.5);
        assert_eq!(p.schedule(), p.schedule(), "same seed, same schedule");
        let other = RetryPolicy { jitter_seed: 43, ..p };
        assert_ne!(p.schedule(), other.schedule(), "different seed, different jitter");
    }

    #[test]
    fn jitter_stays_within_the_randomized_band() {
        let p = policy(0.5);
        for (i, d) in p.schedule().iter().enumerate() {
            let exp = p.exponential(i as u32);
            assert!(*d >= exp.mul_f64(0.5), "retry {i}: {d:?} below half of {exp:?}");
            assert!(*d <= exp, "retry {i}: {d:?} above {exp:?}");
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
    /// and retry instants of a seeded run must not move.
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
        let nanos: Vec<u128> = policy(0.5).schedule().iter().map(Duration::as_nanos).collect();
        assert_eq!(nanos, [8_707_824, 11_599_104, 25_572_023, 53_767_629, 51_901_508]);
    }

    #[test]
    fn mix_fraction_is_stable_and_spread() {
        assert_eq!(mix_fraction(9, 100), mix_fraction(9, 100));
        let below = (0..1_000).filter(|&n| mix_fraction(9, n) < 0.25).count();
        assert!((150..350).contains(&below), "~25% expected, got {below}/1000");
    }
}
