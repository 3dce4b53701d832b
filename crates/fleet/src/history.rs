//! Bounded time-series history behind the coordinator's ops console.
//!
//! The coordinator's main loop already merges every agent's cumulative
//! [`Snapshot`] once per progress window; [`History`] turns that stream
//! into an operator-queryable record: a ring buffer of [`FleetSample`]s
//! (windowed deltas derived through the *same*
//! [`faasrail_telemetry::DeltaWindow`] the stderr progress line uses, so
//! the two can never disagree), the latest per-agent lease state, and the
//! reassignment timeline. Consumers page through it with a `since` cursor:
//! `GET /state?since=N` returns exactly the samples published after `N`,
//! plus a `dropped` flag when the window they missed has been evicted.
//!
//! Memory is bounded by construction: at most `capacity` samples are
//! retained regardless of run length, and everything else the store holds
//! (agent rows, reassignment spans) is proportional to fleet activity, not
//! duration.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use faasrail_telemetry::{DeltaWindow, ReassignSpan, Snapshot};

/// Default ring capacity: ten minutes of 1 s windows.
pub const DEFAULT_HISTORY_CAPACITY: usize = 600;

/// Condensed statistics for one window (or one cumulative total), derived
/// from a [`Snapshot`] via the same accessors the stderr progress line
/// uses. Quantiles are `None` when nothing was recorded in the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Requests dispatched (offered load).
    pub issued: u64,
    /// Requests finished successfully.
    pub completed: u64,
    /// `[app_error, timeout, transport, shed]`.
    pub errors: [u64; 4],
    pub cold_starts: u64,
    pub offered_rps: f64,
    pub achieved_rps: f64,
    pub error_rate: f64,
    pub p50_ms: Option<f64>,
    pub p95_ms: Option<f64>,
    pub p99_ms: Option<f64>,
}

impl WindowStats {
    /// Derive display statistics from a snapshot covering `window_secs`.
    pub fn of(snapshot: &Snapshot, window_secs: f64) -> WindowStats {
        let rate = |n: u64| if window_secs > 0.0 { n as f64 / window_secs } else { 0.0 };
        let quantile = |q: f64| {
            let v = snapshot.response_quantile_ms(q);
            v.is_finite().then_some(v)
        };
        WindowStats {
            issued: snapshot.issued,
            completed: snapshot.completed,
            errors: snapshot.errors,
            cold_starts: snapshot.cold_starts,
            offered_rps: rate(snapshot.issued),
            achieved_rps: rate(snapshot.completed + snapshot.errors_total()),
            error_rate: snapshot.error_rate(),
            p50_ms: quantile(0.50),
            p95_ms: quantile(0.95),
            p99_ms: quantile(0.99),
        }
    }

    pub fn errors_total(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// The progress-line tail (`offered … | achieved … | err … | p50/p95/p99 …`)
    /// rendered from the condensed stats — same numbers, same formatting
    /// rules as [`Snapshot::progress_line`].
    pub fn summary(&self) -> String {
        let quantile = |q: Option<f64>| match q {
            Some(v) => format!("{v:.0}"),
            None => "-".to_string(),
        };
        format!(
            "offered {:.1} rps | achieved {:.1} rps | err {:.1}% | p50/p95/p99 {}/{}/{} ms",
            self.offered_rps,
            self.achieved_rps,
            self.error_rate * 100.0,
            quantile(self.p50_ms),
            quantile(self.p95_ms),
            quantile(self.p99_ms),
        )
    }
}

/// One agent's point-in-time state as published to the console.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentState {
    pub name: String,
    pub shard: u32,
    /// Lease state: `"live"`, `"done"`, `"crash"`, `"stall"`, or
    /// `"abort: <reason>"`.
    pub status: String,
    /// Admitted mid-run (rejoin or late join).
    pub rejoined: bool,
    /// Reassignment grants taken over from dead shards.
    pub granted: u64,
    pub lag_ms: u64,
    pub max_lag_ms: u64,
    /// Cumulative counters from the agent's last progress snapshot.
    pub issued: u64,
    pub completed: u64,
    pub errors: u64,
    pub shed: u64,
}

impl AgentState {
    pub fn is_live(&self) -> bool {
        self.status == "live"
    }
}

/// One published fleet sample: the windowed delta since the previous
/// sample plus the cumulative totals and per-agent states at that instant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSample {
    /// Monotonic cursor; the first sample of a run is `1`.
    pub seq: u64,
    /// Milliseconds since the synchronized start epoch.
    pub at_ms: u64,
    /// The wall-clock span this sample's window covers.
    pub window_ms: u64,
    /// What happened in this window alone.
    pub window: WindowStats,
    /// Cumulative fleet totals (rates over the whole elapsed run).
    pub total: WindowStats,
    pub agents: Vec<AgentState>,
}

/// What `GET /state?since=N` returns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StateView {
    /// Milliseconds since epoch of the newest sample (0 before the first).
    pub now_ms: u64,
    /// Pass this back as `since` to receive only newer samples.
    pub next: u64,
    /// True when samples between `since` and the oldest retained one were
    /// evicted from the ring — the consumer missed a window.
    pub dropped: bool,
    /// Samples with `seq > since`, oldest first.
    pub samples: Vec<FleetSample>,
    /// Latest per-agent states (redundant with the newest sample, but
    /// always present even when `samples` is empty).
    pub agents: Vec<AgentState>,
    /// Cumulative fleet totals at `now_ms`.
    pub total: Option<WindowStats>,
    /// Every mid-run reassignment so far, in issue order.
    pub reassignments: Vec<ReassignSpan>,
    pub abort_reasons: Vec<String>,
}

struct HistoryInner {
    samples: VecDeque<FleetSample>,
    /// Raw windowed snapshots, parallel to `samples` (same eviction):
    /// kept unserialized so exact histogram reconstruction stays possible
    /// without shipping hundreds of buckets per sample over `/state`.
    raw_windows: VecDeque<Snapshot>,
    /// Seq of the next sample to publish (first = 1).
    next_seq: u64,
    windows: DeltaWindow,
    agents: Vec<AgentState>,
    reassignments: Vec<ReassignSpan>,
    abort_reasons: Vec<String>,
    last_at_ms: u64,
}

/// Thread-safe bounded history store shared between the coordinator's
/// control loop (writer) and console connections (readers).
pub struct History {
    capacity: usize,
    inner: Mutex<HistoryInner>,
}

impl History {
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> History {
        assert!(capacity > 0, "History requires capacity >= 1");
        History {
            capacity,
            inner: Mutex::new(HistoryInner {
                samples: VecDeque::with_capacity(capacity.min(1024)),
                raw_windows: VecDeque::with_capacity(capacity.min(1024)),
                next_seq: 1,
                windows: DeltaWindow::new(),
                agents: Vec::new(),
                reassignments: Vec::new(),
                abort_reasons: Vec::new(),
                last_at_ms: 0,
            }),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publish one sample: `merged` is the *cumulative* fleet-wide
    /// snapshot at `at_ms` (milliseconds since the start epoch). The
    /// windowed delta against the previous publish is derived internally
    /// through [`DeltaWindow`]. Returns the sample's `seq`.
    pub fn publish(&self, at_ms: u64, merged: &Snapshot, agents: Vec<AgentState>) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let window_ms = at_ms.saturating_sub(inner.last_at_ms);
        inner.last_at_ms = at_ms;
        let raw_window = inner.windows.advance(merged);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let sample = FleetSample {
            seq,
            at_ms,
            window_ms,
            window: WindowStats::of(&raw_window, window_ms as f64 / 1e3),
            total: WindowStats::of(merged, at_ms as f64 / 1e3),
            agents: agents.clone(),
        };
        inner.agents = agents;
        inner.samples.push_back(sample);
        inner.raw_windows.push_back(raw_window);
        while inner.samples.len() > self.capacity {
            inner.samples.pop_front();
            inner.raw_windows.pop_front();
        }
        seq
    }

    /// The retained raw windowed snapshots, oldest first (parallel to the
    /// retained samples). Merging them yields exactly the cumulative
    /// snapshot spanned by the ring — the reconstruction invariant the
    /// tests hold the store to.
    pub fn raw_windows(&self) -> Vec<Snapshot> {
        self.inner.lock().unwrap().raw_windows.iter().cloned().collect()
    }

    /// The retained samples, oldest first — the bounded windowed timeline
    /// the coordinator persists into the fleet report after drain, so the
    /// run's trajectory survives for post-hoc analysis once the console
    /// is gone.
    pub fn samples(&self) -> Vec<FleetSample> {
        self.inner.lock().unwrap().samples.iter().cloned().collect()
    }

    /// Replace the reassignment timeline + abort reasons (the coordinator
    /// owns the authoritative copies; both are tiny).
    pub fn set_timeline(&self, reassignments: Vec<ReassignSpan>, abort_reasons: Vec<String>) {
        let mut inner = self.inner.lock().unwrap();
        inner.reassignments = reassignments;
        inner.abort_reasons = abort_reasons;
    }

    /// The cumulative fleet-wide snapshot as of the newest sample.
    pub fn cumulative(&self) -> Snapshot {
        self.inner.lock().unwrap().windows.cumulative().clone()
    }

    /// Latest per-agent states.
    pub fn agents(&self) -> Vec<AgentState> {
        self.inner.lock().unwrap().agents.clone()
    }

    /// Everything published after cursor `since` (0 = from the beginning).
    pub fn since(&self, since: u64) -> StateView {
        let inner = self.inner.lock().unwrap();
        let newest = inner.next_seq - 1;
        let oldest_retained = inner.samples.front().map(|s| s.seq).unwrap_or(inner.next_seq);
        // The consumer missed a window iff some sample newer than its
        // cursor has already been evicted.
        let dropped = since.saturating_add(1) < oldest_retained && newest > since;
        let samples: Vec<FleetSample> =
            inner.samples.iter().filter(|s| s.seq > since).cloned().collect();
        StateView {
            now_ms: inner.last_at_ms,
            next: newest,
            dropped,
            samples,
            agents: inner.agents.clone(),
            total: inner
                .samples
                .back()
                .map(|s| s.total.clone())
                .or_else(|| (newest > 0).then(|| WindowStats::of(inner.windows.cumulative(), 0.0))),
            reassignments: inner.reassignments.clone(),
            abort_reasons: inner.abort_reasons.clone(),
        }
    }

    /// The reassignment timeline and abort reasons as last published.
    pub fn timeline(&self) -> (Vec<ReassignSpan>, Vec<String>) {
        let inner = self.inner.lock().unwrap();
        (inner.reassignments.clone(), inner.abort_reasons.clone())
    }

    /// Agent counts by lease state, for `/healthz`.
    pub fn health_counts(&self) -> HealthCounts {
        let inner = self.inner.lock().unwrap();
        let mut h = HealthCounts::default();
        for a in &inner.agents {
            if a.rejoined {
                h.rejoined += 1;
            }
            match a.status.as_str() {
                "live" => h.alive += 1,
                "done" => h.done += 1,
                "stall" => h.stalled += 1,
                "crash" => h.crashed += 1,
                s if s.starts_with("abort") => h.aborted += 1,
                _ => h.crashed += 1,
            }
        }
        h
    }
}

/// Agent counts by lease state (see [`History::health_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthCounts {
    pub alive: usize,
    pub done: usize,
    pub stalled: usize,
    pub crashed: usize,
    pub aborted: usize,
    /// Slots admitted mid-run (rejoins/late joins), whatever their current
    /// lease state — overlaps the other buckets.
    pub rejoined: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(issued: u64, completed: u64) -> Snapshot {
        let mut s = Snapshot { issued, completed, ..Snapshot::default() };
        for _ in 0..completed {
            s.response.record(0.010);
        }
        s
    }

    fn agent(name: &str, status: &str) -> AgentState {
        AgentState {
            name: name.into(),
            shard: 0,
            status: status.into(),
            rejoined: false,
            granted: 0,
            lag_ms: 0,
            max_lag_ms: 0,
            issued: 0,
            completed: 0,
            errors: 0,
            shed: 0,
        }
    }

    #[test]
    fn ring_is_bounded_under_long_runs() {
        let h = History::new(8);
        for i in 1..=1_000u64 {
            h.publish(i * 100, &snap(i, i), vec![agent("a", "live")]);
            assert!(h.len() <= 8, "ring exceeded capacity at sample {i}");
        }
        assert_eq!(h.len(), 8);
        let view = h.since(0);
        assert_eq!(view.next, 1_000);
        assert!(view.dropped, "a cursor from before the ring window must report dropped");
        assert_eq!(view.samples.first().unwrap().seq, 993);
        assert_eq!(view.samples.last().unwrap().seq, 1_000);
    }

    #[test]
    fn since_cursor_returns_exactly_the_missed_window() {
        let h = History::new(100);
        for i in 1..=10u64 {
            h.publish(i * 100, &snap(i * 3, i * 2), vec![]);
        }
        let first = h.since(0);
        assert_eq!(first.samples.len(), 10);
        assert!(!first.dropped);
        assert_eq!(first.next, 10);

        // A consumer that saw up to seq 10 then missed 4 samples.
        for i in 11..=14u64 {
            h.publish(i * 100, &snap(i * 3, i * 2), vec![]);
        }
        let missed = h.since(first.next);
        assert_eq!(missed.samples.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![11, 12, 13, 14]);
        assert!(!missed.dropped);
        assert_eq!(missed.next, 14);
        // Caught up: empty window, same cursor.
        let idle = h.since(missed.next);
        assert!(idle.samples.is_empty());
        assert!(!idle.dropped);
        assert_eq!(idle.next, 14);
    }

    #[test]
    fn windows_partition_the_cumulative_stream() {
        let h = History::new(100);
        let mut cumulative = Snapshot::default();
        for i in 1..=20u64 {
            let mut step = Snapshot { issued: i, completed: i / 2, ..Snapshot::default() };
            step.errors[(i % 4) as usize] = 1;
            step.response.record(0.001 * i as f64);
            cumulative.merge(&step);
            h.publish(i * 50, &cumulative, vec![]);
        }
        let mut rebuilt = Snapshot::default();
        for w in h.raw_windows() {
            rebuilt.merge(&w);
        }
        assert_eq!(rebuilt, cumulative, "sum of windowed deltas == final cumulative snapshot");
    }

    proptest::proptest! {
        /// Whatever the publish cadence and per-window activity, merging
        /// every windowed delta reconstructs the final merged snapshot
        /// *exactly* — counters and histogram buckets both.
        #[test]
        fn prop_sum_of_windows_is_the_final_snapshot(
            steps in proptest::collection::vec(
                (0u64..50, 0u64..50, 0usize..4, 0u64..10, 1u64..5_000), 1..40),
        ) {
            let h = History::new(64); // > max steps: nothing evicted
            let mut cumulative = Snapshot::default();
            let mut at_ms = 0u64;
            for (issued, completed, err_class, errs, dt_ms) in steps {
                let mut step = Snapshot {
                    issued,
                    completed,
                    ..Snapshot::default()
                };
                step.errors[err_class] = errs;
                for k in 0..(completed + errs) {
                    step.response.record(0.001 + 0.003 * (k % 7) as f64);
                }
                cumulative.merge(&step);
                at_ms += dt_ms;
                h.publish(at_ms, &cumulative, vec![]);
            }
            let mut rebuilt = Snapshot::default();
            proptest::prop_assert!(!h.since(0).dropped);
            for w in h.raw_windows() {
                rebuilt.merge(&w);
            }
            proptest::prop_assert_eq!(rebuilt, cumulative);
        }
    }

    #[test]
    fn health_counts_bucket_by_lease_state() {
        let h = History::new(4);
        let mut rejoiner = agent("d", "live");
        rejoiner.rejoined = true;
        h.publish(
            100,
            &snap(1, 1),
            vec![
                agent("a", "live"),
                agent("b", "crash"),
                agent("c", "stall"),
                rejoiner,
                agent("e", "abort: operator stop"),
                agent("f", "done"),
            ],
        );
        let c = h.health_counts();
        assert_eq!(
            c,
            HealthCounts { alive: 2, done: 1, stalled: 1, crashed: 1, aborted: 1, rejoined: 1 }
        );
    }

    #[test]
    fn empty_history_view_is_sane() {
        let h = History::new(4);
        let view = h.since(0);
        assert_eq!(view.next, 0);
        assert!(!view.dropped);
        assert!(view.samples.is_empty());
        assert!(view.total.is_none());
        assert_eq!(h.health_counts(), HealthCounts::default());
    }

    #[test]
    fn window_stats_match_progress_line_semantics() {
        let mut s = Snapshot { issued: 100, completed: 95, ..Snapshot::default() };
        s.errors = [3, 1, 0, 1];
        for _ in 0..100 {
            s.response.record(0.020);
        }
        let w = WindowStats::of(&s, 10.0);
        assert!((w.offered_rps - 10.0).abs() < 1e-9);
        assert!((w.achieved_rps - 10.0).abs() < 1e-9);
        assert!((w.error_rate - 0.05).abs() < 1e-9);
        assert!(w.p50_ms.unwrap() > 0.0);
        let line = w.summary();
        assert!(line.contains("offered 10.0 rps"), "{line}");
        assert!(line.contains("err 5.0%"), "{line}");
        // Empty window: quantiles render as dashes, rates as zero.
        let empty = WindowStats::of(&Snapshot::default(), 0.0);
        assert!(empty.p50_ms.is_none());
        assert!(empty.summary().contains("p50/p95/p99 -/-/- ms"), "{}", empty.summary());
    }
}
