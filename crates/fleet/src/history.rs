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

use faasrail_telemetry::{DeltaWindow, ReassignSpan, Snapshot, WindowStats};

/// Default ring capacity: ten minutes of 1 s windows.
pub const DEFAULT_HISTORY_CAPACITY: usize = 600;

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
                next_seq: 1,
                windows: DeltaWindow::new(),
                agents: Vec::new(),
                reassignments: Vec::new(),
                abort_reasons: Vec::new(),
                last_at_ms: 0,
            }),
        }
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
    /// through [`DeltaWindow`]. Returns the sample.
    pub fn publish(&self, at_ms: u64, merged: &Snapshot, agents: Vec<AgentState>) -> FleetSample {
        let mut inner = self.inner.lock().unwrap();
        let window_ms = at_ms.saturating_sub(inner.last_at_ms);
        inner.last_at_ms = at_ms;
        let window = inner.windows.advance(merged);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let sample = FleetSample {
            seq,
            at_ms,
            window_ms,
            window: WindowStats::of(&window, window_ms as f64 / 1e3),
            total: WindowStats::of(merged, at_ms as f64 / 1e3),
            agents: agents.clone(),
        };
        inner.agents = agents;
        inner.samples.push_back(sample.clone());
        while inner.samples.len() > self.capacity {
            inner.samples.pop_front();
        }
        sample
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
    use faasrail_stats::rng::{cases, Rng};

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
        assert_eq!(window_sums(&h), counters(&cumulative), "sum of windows == final cumulative");
        assert_eq!(h.cumulative(), cumulative);
    }

    /// Issued, completed, errors by class and cold starts, summed over the
    /// retained samples' windows.
    fn window_sums(h: &History) -> (u64, u64, [u64; 4], u64) {
        h.samples().iter().fold((0, 0, [0; 4], 0), |(i, c, mut e, cold), s| {
            let w = &s.window;
            e.iter_mut().zip(w.errors).for_each(|(a, b)| *a += b);
            (i + w.issued, c + w.completed, e, cold + w.cold_starts)
        })
    }

    fn counters(s: &Snapshot) -> (u64, u64, [u64; 4], u64) {
        (s.issued, s.completed, s.errors, s.cold_starts)
    }

    /// Whatever the publish cadence and per-window activity, the windows'
    /// counters add up to the final merged snapshot's exactly, and the
    /// store's cumulative view is that snapshot, histogram buckets included.
    #[test]
    fn prop_sum_of_windows_is_the_final_snapshot() {
        cases("prop_sum_of_windows_is_the_final_snapshot", 256, |rng| {
            let h = History::new(64); // > max steps: nothing evicted
            let mut cumulative = Snapshot::default();
            let mut at_ms = 0u64;
            for _ in 0..rng.range(1..40usize) {
                let mut step = Snapshot {
                    issued: rng.range(0..50),
                    completed: rng.range(0..50),
                    ..Snapshot::default()
                };
                let errs = rng.range(0..10);
                step.errors[rng.range(0..4usize)] = errs;
                for k in 0..(step.completed + errs) {
                    step.response.record(0.001 + 0.003 * (k % 7) as f64);
                }
                cumulative.merge(&step);
                at_ms += rng.range(1..5_000u64);
                h.publish(at_ms, &cumulative, vec![]);
            }
            assert!(!h.since(0).dropped);
            assert_eq!(window_sums(&h), counters(&cumulative));
            assert_eq!(h.cumulative(), cumulative);
        });
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
}
