//! Sharded, lock-light live metrics.
//!
//! Replay workers update a [`Recorder`] on the hot path: each worker owns a
//! cache-line-aligned shard guarded by an uncontended mutex, so
//! recording costs one uncontended lock acquisition and never blocks
//! another worker. A monitor thread periodically merges the shards into a
//! cumulative [`Snapshot`]; subtracting consecutive snapshots yields exact
//! per-window counts and a windowed latency histogram (via
//! [`LogHistogram::delta`]), from which the once-per-interval progress line
//! reports offered vs achieved RPS, error rate, and response quantiles.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use faasrail_stats::LogHistogram;

use crate::lock;
use crate::prometheus::PromText;
use crate::span::OutcomeClass;

/// One shard's counters. `errors` is indexed by
/// [`OutcomeClass::error_index`]: `[app_error, timeout, transport, shed]`.
struct Counters {
    issued: u64,
    completed: u64,
    errors: [u64; 4],
    cold_starts: u64,
    response: LogHistogram,
}

impl Counters {
    fn new() -> Self {
        Counters {
            issued: 0,
            completed: 0,
            errors: [0; 4],
            cold_starts: 0,
            response: LogHistogram::latency_seconds(),
        }
    }
}

/// Live metrics recorder shared between replay workers and a monitor.
///
/// Create with one shard per writer thread (workers plus the pacer) and
/// pass each writer its own shard index; indices are reduced modulo the
/// shard count, so an out-of-range index degrades to sharing rather than
/// panicking.
pub struct Recorder {
    shards: Box<[Shard]>,
}

/// One writer's counters on cache lines of their own (128 bytes covers the
/// adjacent-line prefetcher), so neighbouring shards never false-share.
#[repr(align(128))]
struct Shard(Mutex<Counters>);

impl Recorder {
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "Recorder requires at least one shard");
        Recorder { shards: (0..shards).map(|_| Shard(Mutex::new(Counters::new()))).collect() }
    }

    fn shard(&self, shard: usize) -> MutexGuard<'_, Counters> {
        lock(&self.shards[shard % self.shards.len()].0)
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Count one dispatched request (pacer side).
    pub fn record_issued(&self, shard: usize) {
        self.shard(shard).issued += 1;
    }

    /// Count one finished request (worker side). `response_s` is recorded
    /// into the windowed histogram regardless of outcome, matching
    /// `RunMetrics`.
    pub fn record_outcome(
        &self,
        shard: usize,
        outcome: OutcomeClass,
        response_s: f64,
        cold_start: bool,
    ) {
        let mut c = self.shard(shard);
        c.response.record(response_s);
        if cold_start {
            c.cold_starts += 1;
        }
        match outcome.error_index() {
            None => c.completed += 1,
            Some(i) => c.errors[i] += 1,
        }
    }

    /// Merge all shards into a cumulative snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for shard in self.shards.iter() {
            let c = lock(&shard.0);
            out.issued += c.issued;
            out.completed += c.completed;
            for (a, b) in out.errors.iter_mut().zip(&c.errors) {
                *a += b;
            }
            out.cold_starts += c.cold_starts;
            out.response.merge(&c.response);
        }
        out
    }
}

/// A point-in-time merge of all recorder shards. Cumulative; subtract two
/// with [`Snapshot::delta`] to get the window in between. Serializable so
/// fleet agents can stream windowed snapshots to a coordinator, and
/// mergeable ([`Snapshot::merge`]) so the coordinator can fold any number
/// of agent snapshots — in any arrival order — into one fleet-wide view.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    pub issued: u64,
    pub completed: u64,
    /// `[app_error, timeout, transport, shed]`.
    pub errors: [u64; 4],
    pub cold_starts: u64,
    pub response: LogHistogram,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            issued: 0,
            completed: 0,
            errors: [0; 4],
            cold_starts: 0,
            response: LogHistogram::latency_seconds(),
        }
    }
}

impl Snapshot {
    /// Everything recorded after `earlier` was captured.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut errors = [0u64; 4];
        for (i, e) in errors.iter_mut().enumerate() {
            *e = self.errors[i].saturating_sub(earlier.errors[i]);
        }
        Snapshot {
            issued: self.issued.saturating_sub(earlier.issued),
            completed: self.completed.saturating_sub(earlier.completed),
            errors,
            cold_starts: self.cold_starts.saturating_sub(earlier.cold_starts),
            response: self.response.delta(&earlier.response),
        }
    }

    /// Fold another snapshot into this one (counter-wise addition,
    /// histogram bucket merge). Pure integer accumulation, so merging is
    /// commutative and associative: a fleet coordinator aggregating agent
    /// snapshots gets the same result whatever order agents report in.
    pub fn merge(&mut self, other: &Snapshot) {
        self.issued += other.issued;
        self.completed += other.completed;
        for (a, b) in self.errors.iter_mut().zip(&other.errors) {
            *a += b;
        }
        self.cold_starts += other.cold_starts;
        self.response.merge(&other.response);
    }

    pub fn errors_total(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Errors over finished requests; `0.0` when nothing finished.
    pub fn error_rate(&self) -> f64 {
        let finished = self.completed + self.errors_total();
        if finished == 0 {
            0.0
        } else {
            self.errors_total() as f64 / finished as f64
        }
    }

    /// Response quantile in milliseconds; `NaN` when nothing recorded.
    pub fn response_quantile_ms(&self, q: f64) -> f64 {
        if self.response.total() == 0 {
            f64::NAN
        } else {
            self.response.quantile(q) * 1e3
        }
    }

    /// One-line progress report for a window of `window_secs`, e.g.
    /// `t=120s offered 49.8 rps | achieved 49.1 rps | err 1.4% | p50/p95/p99 12/88/240 ms`.
    pub fn progress_line(&self, window_secs: f64, elapsed_secs: f64) -> String {
        let rate = |n: u64| {
            if window_secs > 0.0 {
                n as f64 / window_secs
            } else {
                0.0
            }
        };
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "t={:.0}s offered {:.1} rps | achieved {:.1} rps | err {:.1}%",
            elapsed_secs,
            rate(self.issued),
            rate(self.completed + self.errors_total()),
            self.error_rate() * 100.0,
        );
        if self.response.total() > 0 {
            let _ = write!(
                line,
                " | p50/p95/p99 {:.0}/{:.0}/{:.0} ms",
                self.response_quantile_ms(0.50),
                self.response_quantile_ms(0.95),
                self.response_quantile_ms(0.99),
            );
        } else {
            line.push_str(" | p50/p95/p99 -/-/- ms");
        }
        line
    }

    /// Encode the snapshot as Prometheus text-format metrics under
    /// `<prefix>_…`.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut p = PromText::new();
        p.counter(
            &format!("{prefix}_issued_total"),
            "Requests dispatched (offered load).",
            self.issued,
        );
        p.counter(
            &format!("{prefix}_completed_total"),
            "Requests finished successfully.",
            self.completed,
        );
        let labeled = [
            ("app_error", self.errors[0]),
            ("timeout", self.errors[1]),
            ("transport", self.errors[2]),
            ("shed", self.errors[3]),
        ];
        p.counter_vec(
            &format!("{prefix}_errors_total"),
            "Requests finished unsuccessfully, by outcome class.",
            "class",
            &labeled,
        );
        p.counter(
            &format!("{prefix}_cold_starts_total"),
            "Invocations that required a sandbox cold start.",
            self.cold_starts,
        );
        p.histogram(
            &format!("{prefix}_response_seconds"),
            "End-to-end response time (dispatch to completion).",
            &self.response,
        );
        p.finish()
    }
}

/// Turns a stream of *cumulative* snapshots into consecutive windowed
/// deltas. This is the single windowing implementation shared by the
/// stderr progress line ([`spawn_progress_printer`]), the fleet console's
/// `/state` history, and `fleet top` — all three feed successive cumulative
/// snapshots through [`DeltaWindow::advance`] and therefore can never
/// disagree about what a window contains.
///
/// Invariant: because each window is `current.delta(&previous)` against the
/// previous *cumulative* snapshot, the counter-wise sum (histogram-merge)
/// of every window emitted since construction reconstructs the latest
/// cumulative snapshot exactly.
#[derive(Debug, Clone, Default)]
pub struct DeltaWindow {
    prev: Snapshot,
}

impl DeltaWindow {
    /// Start from an empty baseline: the first `advance` returns the whole
    /// cumulative snapshot as one window.
    pub fn new() -> Self {
        DeltaWindow::default()
    }

    /// Start from an existing cumulative baseline (e.g. a printer attached
    /// mid-run that should not replay history as one giant window).
    pub fn starting_at(baseline: Snapshot) -> Self {
        DeltaWindow { prev: baseline }
    }

    /// Feed the next cumulative snapshot; returns everything recorded since
    /// the previous call (or since the baseline, on the first call).
    pub fn advance(&mut self, cumulative: &Snapshot) -> Snapshot {
        let window = cumulative.delta(&self.prev);
        self.prev = cumulative.clone();
        window
    }

    /// The cumulative snapshot most recently fed through `advance`.
    pub fn cumulative(&self) -> &Snapshot {
        &self.prev
    }
}

/// Spawn a monitor thread printing a [`Snapshot::progress_line`] to stderr
/// every `interval` until `stop` becomes true. Join the handle after
/// setting `stop` to cut the final partial window short.
pub fn spawn_progress_printer(
    recorder: Arc<Recorder>,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let start = Instant::now();
        let mut windows = DeltaWindow::starting_at(recorder.snapshot());
        let mut prev_at = start;
        while !stop.load(Ordering::Relaxed) {
            // Sleep in small slices so a stop request is honoured promptly.
            let wake = Instant::now() + interval;
            while Instant::now() < wake {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                thread::sleep(Duration::from_millis(20).min(interval));
            }
            let now = Instant::now();
            let window = windows.advance(&recorder.snapshot());
            eprintln!(
                "{}",
                window.progress_line(
                    now.duration_since(prev_at).as_secs_f64(),
                    now.duration_since(start).as_secs_f64(),
                )
            );
            prev_at = now;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merges_all_shards() {
        let r = Recorder::new(3);
        r.record_issued(0);
        r.record_issued(1);
        r.record_issued(2);
        r.record_outcome(0, OutcomeClass::Ok, 0.010, true);
        r.record_outcome(1, OutcomeClass::Timeout, 1.0, false);
        r.record_outcome(2, OutcomeClass::Shed, 0.001, false);
        let s = r.snapshot();
        assert_eq!(s.issued, 3);
        assert_eq!(s.completed, 1);
        assert_eq!(s.errors, [0, 1, 0, 1]);
        assert_eq!(s.cold_starts, 1);
        assert_eq!(s.response.total(), 3);
        assert_eq!(s.errors_total(), 2);
        assert!((s.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_shard_wraps_instead_of_panicking() {
        let r = Recorder::new(2);
        r.record_issued(7); // lands in shard 1
        r.record_outcome(9, OutcomeClass::Ok, 0.010, false);
        let s = r.snapshot();
        assert_eq!(s.issued, 1);
        assert_eq!(s.completed, 1);
    }

    #[test]
    fn delta_isolates_the_window() {
        let r = Recorder::new(1);
        r.record_issued(0);
        r.record_outcome(0, OutcomeClass::Ok, 0.010, false);
        let first = r.snapshot();
        r.record_issued(0);
        r.record_issued(0);
        r.record_outcome(0, OutcomeClass::AppError, 0.020, false);
        let second = r.snapshot();
        let w = second.delta(&first);
        assert_eq!(w.issued, 2);
        assert_eq!(w.completed, 0);
        assert_eq!(w.errors, [1, 0, 0, 0]);
        assert_eq!(w.response.total(), 1);
        // Empty window.
        let z = second.delta(&second);
        assert_eq!(z.issued, 0);
        assert_eq!(z.response.total(), 0);
    }

    #[test]
    fn progress_line_handles_empty_window() {
        let line = Snapshot::default().progress_line(10.0, 30.0);
        assert!(line.contains("t=30s"), "{line}");
        assert!(line.contains("offered 0.0 rps"), "{line}");
        assert!(line.contains("p50/p95/p99 -/-/- ms"), "{line}");
        // Degenerate window duration must not divide by zero.
        let line = Snapshot::default().progress_line(0.0, 0.0);
        assert!(line.contains("offered 0.0 rps"), "{line}");
    }

    #[test]
    fn delta_window_sums_back_to_cumulative() {
        let r = Recorder::new(2);
        let mut windows = DeltaWindow::new();
        let mut total = Snapshot::default();
        for i in 0..5u64 {
            r.record_issued(i as usize);
            if i % 2 == 0 {
                r.record_outcome(i as usize, OutcomeClass::Ok, 0.010 * (i + 1) as f64, false);
            } else {
                r.record_outcome(i as usize, OutcomeClass::Timeout, 1.0, false);
            }
            let w = windows.advance(&r.snapshot());
            assert_eq!(w.issued, 1, "each window holds exactly the new work");
            total.merge(&w);
        }
        assert_eq!(total, r.snapshot(), "sum of windows reconstructs the cumulative snapshot");
        assert_eq!(windows.cumulative(), &r.snapshot());
        // An empty window is empty, not negative. (Only the counters:
        // `delta` deliberately carries the running min/max through, since
        // extrema cannot be un-observed window by window.)
        let z = windows.advance(&r.snapshot());
        assert_eq!(z.issued, 0);
        assert_eq!(z.completed, 0);
        assert_eq!(z.errors, [0; 4]);
        assert_eq!(z.response.total(), 0);
    }

    #[test]
    fn error_rate_is_zero_when_nothing_finished() {
        let s = Snapshot::default();
        assert_eq!(s.error_rate(), 0.0);
        assert!(s.response_quantile_ms(0.5).is_nan());
    }

    #[test]
    fn snapshot_merge_accumulates_and_roundtrips() {
        let r = Recorder::new(2);
        r.record_issued(0);
        r.record_issued(1);
        r.record_outcome(0, OutcomeClass::Ok, 0.010, true);
        r.record_outcome(1, OutcomeClass::Shed, 0.001, false);
        let a = r.snapshot();
        let r2 = Recorder::new(1);
        r2.record_issued(0);
        r2.record_outcome(0, OutcomeClass::Timeout, 2.0, false);
        let b = r2.snapshot();

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.issued, 3);
        assert_eq!(merged.completed, 1);
        assert_eq!(merged.errors, [0, 1, 0, 1]);
        assert_eq!(merged.cold_starts, 1);
        assert_eq!(merged.response.total(), 3);

        // Merging the other way round is identical (fleet aggregation
        // order independence).
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(merged, flipped);

        // Wire (de)serialization for the fleet protocol.
        let json = serde_json::to_string(&merged).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(merged, back);
    }

    #[test]
    fn snapshot_exports_prometheus_text() {
        let r = Recorder::new(2);
        r.record_issued(0);
        r.record_outcome(0, OutcomeClass::Ok, 0.010, true);
        r.record_outcome(1, OutcomeClass::Transport, 0.5, false);
        let text = r.snapshot().to_prometheus("faasrail_replay");
        assert!(text.contains("faasrail_replay_issued_total 1"), "{text}");
        assert!(text.contains("faasrail_replay_completed_total 1"), "{text}");
        assert!(text.contains("faasrail_replay_errors_total{class=\"transport\"} 1"), "{text}");
        assert!(text.contains("faasrail_replay_response_seconds_count 2"), "{text}");
        assert!(text.contains("le=\"+Inf\""), "{text}");
    }
}
