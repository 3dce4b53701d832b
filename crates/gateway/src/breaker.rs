//! Client-side circuit breaker for [`crate::Client`].
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
//! * **half-open** — after the cool-down, the first caller goes through as
//!   the one probe, and every other caller fails fast until its verdict: a
//!   success closes the breaker, a failure re-opens it. A probe with no
//!   verdict after another cool-down counts as lost, and the next caller
//!   probes in its place, so a probe that never reports cannot wedge the
//!   breaker.
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
    /// Cool-down while open: requests fail fast until it elapses. Also how
    /// long a half-open probe may go without a verdict.
    pub open_for: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 0, open_for: Duration::from_secs(1) }
    }
}

impl BreakerConfig {
    /// An enabled breaker with the given trip threshold and cool-down.
    pub fn tripping(failure_threshold: u32, open_for: Duration) -> Self {
        BreakerConfig { failure_threshold, open_for }
    }
}

/// `HalfOpen` has one probe out, sent at `probe_sent`; the other callers
/// wait for its verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen { probe_sent: Instant },
}

/// The breaker itself: shared by all worker threads of one `Client`
/// (one client = one upstream = one shared health verdict).
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    /// Times the breaker tripped open (closed/half-open → open).
    pub trips: AtomicU64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: Mutex::new(State::Closed { consecutive_failures: 0 }),
            trips: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.cfg.failure_threshold > 0
    }

    /// May a request be sent right now? `false` means fail fast (shed).
    /// The caller let through once the cool-down has elapsed is the
    /// half-open probe.
    pub fn allow(&self) -> bool {
        self.allow_at(Instant::now())
    }

    fn allow_at(&self, now: Instant) -> bool {
        if !self.enabled() {
            return true;
        }
        let mut state = lock(&self.state);
        let probe_due = match *state {
            State::Closed { .. } => return true,
            State::Open { until } => until,
            // A probe that has gone a whole cool-down without a verdict is
            // lost: this caller probes instead.
            State::HalfOpen { probe_sent } => probe_sent + self.cfg.open_for,
        };
        if now < probe_due {
            return false;
        }
        *state = State::HalfOpen { probe_sent: now };
        true
    }

    /// Record a successful invocation.
    pub fn on_success(&self) {
        if !self.enabled() {
            return;
        }
        let mut state = lock(&self.state);
        match *state {
            State::Closed { .. } | State::HalfOpen { .. } => {
                *state = State::Closed { consecutive_failures: 0 }
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
            // A failed probe re-opens for a full cool-down.
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

    /// Whether the breaker is open: cooling down, refusing every request.
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
        assert!(b.allow_at(after), "closed: every caller goes through");
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
        assert!(b.allow_at(after + Duration::from_millis(100)), "then the next probe");
    }

    #[test]
    fn half_open_admits_one_probe_until_its_verdict() {
        let now = Instant::now();
        let b = breaker(1, 100);
        b.on_failure_at(now);
        let after = now + Duration::from_millis(150);
        assert!(b.allow_at(after), "the first caller after the cool-down probes");
        assert!(!b.allow_at(after), "a second caller waits for the probe's verdict");
        assert!(!b.allow_at(after + Duration::from_millis(99)), "still waiting");
        assert!(!b.is_open(), "half-open, not open");
        b.on_success();
        assert!(b.allow_at(after + Duration::from_millis(99)), "the verdict closed it");
    }

    #[test]
    fn a_probe_without_a_verdict_for_a_cool_down_lets_the_next_caller_probe() {
        let now = Instant::now();
        let b = breaker(1, 100);
        b.on_failure_at(now);
        let probe = now + Duration::from_millis(150);
        assert!(b.allow_at(probe));
        let lost = probe + Duration::from_millis(100);
        assert!(b.allow_at(lost), "the silent probe is lost: this caller probes");
        assert!(!b.allow_at(lost), "and is the only one");
        assert!(b.allow_at(lost + Duration::from_millis(100)), "lost again, probe again");
        b.on_failure_at(lost + Duration::from_millis(100));
        assert!(b.is_open(), "a verdict still re-opens");
        assert_eq!(b.trips.load(Ordering::Relaxed), 2);
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
