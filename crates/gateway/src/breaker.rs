//! Client-side circuit breaker for [`crate::HttpBackend`].
//!
//! Under sustained backend failure, retrying every invocation at full rate
//! turns a partial outage into a self-inflicted one: the load generator
//! piles retries onto a gateway that is already refusing work, and every
//! failed invocation still burns a full per-request deadline. The breaker
//! is the standard remedy (closed → open → half-open):
//!
//! * **closed** — requests flow; consecutive classified failures
//!   (transport errors, timeouts, `429`/5xx responses) are counted, and
//!   hitting the threshold trips the breaker;
//! * **open** — requests fail fast as [`OutcomeClass::Shed`] without
//!   touching the network, for a configured cool-down;
//! * **half-open** — after the cool-down, a limited number of probe
//!   requests go through; enough successes close the breaker, any failure
//!   re-opens it.
//!
//! Fast-failed requests are classified as shed, not transport, so replay
//! metrics distinguish "the client chose not to send" from "the network
//! broke" ([`OutcomeClass::Shed`] is exactly this distinction).
//!
//! [`OutcomeClass::Shed`]: faasrail_loadgen::OutcomeClass::Shed

use crate::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning. The default (`failure_threshold: 0`) disables the
/// breaker entirely: every request is allowed, nothing ever trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive classified failures that trip the breaker open.
    /// `0` disables the breaker.
    pub failure_threshold: u32,
    /// Cool-down while open: requests fail fast until it elapses.
    pub open_for: Duration,
    /// Successful probes required in half-open before closing again.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 0,
            open_for: Duration::from_secs(1),
            half_open_probes: 1,
        }
    }
}

impl BreakerConfig {
    /// An enabled breaker with the given trip threshold and cool-down.
    pub fn tripping(failure_threshold: u32, open_for: Duration) -> Self {
        BreakerConfig { failure_threshold, open_for, half_open_probes: 1 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen { successes: u32 },
}

/// The breaker itself: shared by all worker threads of one `HttpBackend`
/// (one backend = one upstream = one shared health verdict).
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    /// Times the breaker tripped open (closed/half-open → open).
    pub trips: AtomicU64,
    /// Requests refused while open (classified as shed by the caller).
    pub fast_fails: AtomicU64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: Mutex::new(State::Closed { consecutive_failures: 0 }),
            trips: AtomicU64::new(0),
            fast_fails: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.cfg.failure_threshold > 0
    }

    /// May a request be sent right now? `false` means fail fast (shed).
    /// An elapsed cool-down transitions open → half-open as a side effect.
    pub fn allow(&self) -> bool {
        self.allow_at(Instant::now())
    }

    fn allow_at(&self, now: Instant) -> bool {
        if !self.enabled() {
            return true;
        }
        let mut state = lock(&self.state);
        match *state {
            State::Closed { .. } | State::HalfOpen { .. } => true,
            State::Open { until } => {
                if now >= until {
                    *state = State::HalfOpen { successes: 0 };
                    true
                } else {
                    self.fast_fails.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Record a successful invocation.
    pub fn on_success(&self) {
        if !self.enabled() {
            return;
        }
        let mut state = lock(&self.state);
        match *state {
            State::Closed { .. } => *state = State::Closed { consecutive_failures: 0 },
            State::HalfOpen { successes } => {
                if successes + 1 >= self.cfg.half_open_probes {
                    *state = State::Closed { consecutive_failures: 0 };
                } else {
                    *state = State::HalfOpen { successes: successes + 1 };
                }
            }
            // A request that was in flight when the breaker tripped can
            // still succeed; it carries no information about recovery, so
            // the cool-down stands.
            State::Open { .. } => {}
        }
    }

    /// Record a classified failure (transport, timeout, `429`/5xx).
    pub fn on_failure(&self) {
        self.on_failure_at(Instant::now())
    }

    fn on_failure_at(&self, now: Instant) {
        if !self.enabled() {
            return;
        }
        let mut state = lock(&self.state);
        match *state {
            State::Closed { consecutive_failures } => {
                let failures = consecutive_failures + 1;
                if failures >= self.cfg.failure_threshold {
                    *state = State::Open { until: now + self.cfg.open_for };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                } else {
                    *state = State::Closed { consecutive_failures: failures };
                }
            }
            // Any half-open probe failure re-opens for a full cool-down.
            State::HalfOpen { .. } => {
                *state = State::Open { until: now + self.cfg.open_for };
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            // Stragglers failing while open don't extend the cool-down
            // (that would let a burst of in-flight failures hold the
            // breaker open indefinitely).
            State::Open { .. } => {}
        }
    }

    /// Whether the breaker is currently refusing requests.
    pub fn is_open(&self) -> bool {
        matches!(*lock(&self.state), State::Open { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, open_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig::tripping(threshold, Duration::from_millis(open_ms)))
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        for _ in 0..1_000 {
            b.on_failure();
            assert!(b.allow());
        }
        assert!(!b.is_open());
        assert_eq!(b.trips.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn trips_after_consecutive_failures_and_fails_fast() {
        let now = Instant::now();
        let b = breaker(3, 10_000);
        b.on_failure_at(now);
        b.on_failure_at(now);
        assert!(b.allow_at(now), "below threshold: still closed");
        b.on_failure_at(now);
        assert!(b.is_open());
        assert_eq!(b.trips.load(Ordering::Relaxed), 1);
        assert!(!b.allow_at(now), "open: fail fast");
        assert!(!b.allow_at(now + Duration::from_secs(5)), "still cooling down");
        assert_eq!(b.fast_fails.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let now = Instant::now();
        let b = breaker(3, 10_000);
        b.on_failure_at(now);
        b.on_failure_at(now);
        b.on_success();
        b.on_failure_at(now);
        b.on_failure_at(now);
        assert!(!b.is_open(), "non-consecutive failures must not trip");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let now = Instant::now();
        let b = breaker(1, 100);
        b.on_failure_at(now);
        assert!(b.is_open());
        let after = now + Duration::from_millis(150);
        assert!(b.allow_at(after), "cool-down elapsed: probe allowed");
        b.on_success();
        assert!(!b.is_open());
        assert!(b.allow_at(after), "closed again");
        assert_eq!(b.trips.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let now = Instant::now();
        let b = breaker(1, 100);
        b.on_failure_at(now);
        let after = now + Duration::from_millis(150);
        assert!(b.allow_at(after));
        b.on_failure_at(after);
        assert!(b.is_open(), "failed probe re-opens");
        assert_eq!(b.trips.load(Ordering::Relaxed), 2);
        assert!(!b.allow_at(after + Duration::from_millis(50)), "fresh cool-down");
    }

    #[test]
    fn multiple_probes_required_when_configured() {
        let now = Instant::now();
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_for: Duration::from_millis(100),
            half_open_probes: 2,
        });
        b.on_failure_at(now);
        let after = now + Duration::from_millis(150);
        assert!(b.allow_at(after));
        b.on_success();
        assert!(!b.is_open(), "half-open, not open");
        b.on_failure_at(after);
        assert!(b.is_open(), "one success is not enough to close at 2 probes");
    }

    #[test]
    fn straggler_failures_while_open_do_not_extend_cooldown() {
        let now = Instant::now();
        let b = breaker(1, 100);
        b.on_failure_at(now);
        // In-flight requests from before the trip keep failing.
        b.on_failure_at(now + Duration::from_millis(90));
        assert_eq!(b.trips.load(Ordering::Relaxed), 1, "no re-trip while open");
        assert!(b.allow_at(now + Duration::from_millis(150)), "original cool-down stands");
    }
}
