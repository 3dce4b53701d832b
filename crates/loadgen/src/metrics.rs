//! Run metrics: what a replay measures.

use faasrail_stats::histogram::LogHistogram;
use faasrail_telemetry::{tally_minute, Snapshot};
use faasrail_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Metrics collected by one replay (or one worker, before merging).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Requests handed to the backend.
    pub issued: u64,
    /// Requests the backend reported as successful.
    pub completed: u64,
    /// Requests the backend reported as failed (all classes).
    pub errors: u64,
    /// Failures the backend executed and rejected (not retryable).
    /// `app_errors + timeouts + transport_errors + shed == errors`.
    #[serde(default)]
    pub app_errors: u64,
    /// Failures where the per-request deadline expired.
    #[serde(default)]
    pub timeouts: u64,
    /// Failures in the network path (connect/read/write, gateway 5xx).
    #[serde(default)]
    pub transport_errors: u64,
    /// Requests refused by overload protection (gateway `429` load
    /// shedding or an open client-side circuit breaker).
    #[serde(default)]
    pub shed: u64,
    /// Whether the run was stopped early via the replay stop flag; the
    /// counters then cover only the dispatched prefix of the trace.
    #[serde(default)]
    pub aborted: bool,
    /// Cold starts reported by the backend.
    pub cold_starts: u64,
    /// End-to-end response time (dispatch → backend return), seconds.
    pub response: LogHistogram,
    /// Backend-reported pure service time, seconds.
    pub service: LogHistogram,
    /// Dispatch lateness (actual fire − scheduled fire), seconds — the
    /// real-time schedule's accuracy.
    pub lateness: LogHistogram,
    /// Completed requests per benchmark kind.
    pub per_kind: BTreeMap<WorkloadKind, u64>,
    /// Requests dispatched per scheduled experiment minute (achieved-rate
    /// series; indexed by `scheduled_at_ms / 60_000`).
    pub issued_per_minute: Vec<u64>,
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RunMetrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        RunMetrics {
            issued: 0,
            completed: 0,
            errors: 0,
            app_errors: 0,
            timeouts: 0,
            transport_errors: 0,
            shed: 0,
            aborted: false,
            cold_starts: 0,
            response: LogHistogram::latency_seconds(),
            service: LogHistogram::latency_seconds(),
            lateness: LogHistogram::lateness_seconds(),
            per_kind: BTreeMap::new(),
            issued_per_minute: Vec::new(),
        }
    }

    /// The error counters by [`OutcomeClass::error_index`](crate::OutcomeClass::error_index),
    /// the order of [`Snapshot::errors`]; [`RunMetrics::snapshot`] reads them so.
    fn error_counters(&mut self) -> [&mut u64; 4] {
        [&mut self.app_errors, &mut self.timeouts, &mut self.transport_errors, &mut self.shed]
    }

    /// Record one invocation result against the per-class outcome counters
    /// (and `completed`/`errors`).
    pub fn record_outcome(&mut self, result: &crate::backend::InvocationResult) {
        match result.outcome().error_index() {
            None => self.completed += 1,
            Some(i) => {
                self.errors += 1;
                *self.error_counters()[i] += 1;
            }
        }
    }

    /// The counters and response histogram as a progress snapshot: what a
    /// replay's live [`Recorder`](faasrail_telemetry::Recorder) ends on.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            issued: self.issued,
            completed: self.completed,
            errors: [self.app_errors, self.timeouts, self.transport_errors, self.shed],
            cold_starts: self.cold_starts,
            response: self.response.clone(),
        }
    }

    /// The inverse of [`RunMetrics::snapshot`], every series empty.
    pub fn from_snapshot(s: &Snapshot) -> RunMetrics {
        let mut m = RunMetrics {
            issued: s.issued,
            completed: s.completed,
            errors: s.errors_total(),
            cold_starts: s.cold_starts,
            response: s.response.clone(),
            ..RunMetrics::new()
        };
        for (counter, n) in m.error_counters().into_iter().zip(s.errors) {
            *counter = n;
        }
        m
    }

    /// One-line per-class outcome breakdown for replay summaries.
    pub fn outcome_breakdown(&self) -> String {
        format!(
            "ok={} app-error={} timeout={} transport={} shed={}",
            self.completed, self.app_errors, self.timeouts, self.transport_errors, self.shed
        )
    }

    /// Count one dispatched request against its scheduled minute.
    pub fn record_issued(&mut self, scheduled_at_ms: u64) {
        tally_minute(&mut self.issued_per_minute, scheduled_at_ms);
        self.issued += 1;
    }

    /// Merge another worker's metrics into this one.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.errors += other.errors;
        self.app_errors += other.app_errors;
        self.timeouts += other.timeouts;
        self.transport_errors += other.transport_errors;
        self.shed += other.shed;
        self.aborted |= other.aborted;
        self.cold_starts += other.cold_starts;
        self.response.merge(&other.response);
        self.service.merge(&other.service);
        self.lateness.merge(&other.lateness);
        for (k, v) in &other.per_kind {
            *self.per_kind.entry(*k).or_insert(0) += v;
        }
        if self.issued_per_minute.len() < other.issued_per_minute.len() {
            self.issued_per_minute.resize(other.issued_per_minute.len(), 0);
        }
        for (a, b) in self.issued_per_minute.iter_mut().zip(&other.issued_per_minute) {
            *a += b;
        }
    }

    /// Response-time quantile in milliseconds (`NaN`-free convenience).
    pub fn response_quantile_ms(&self, q: f64) -> f64 {
        if self.response.total() == 0 {
            return f64::NAN;
        }
        self.response.quantile(q) * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = RunMetrics::new();
        a.issued = 10;
        a.completed = 9;
        a.errors = 1;
        a.app_errors = 1;
        a.response.record(0.010);
        a.per_kind.insert(WorkloadKind::Pyaes, 5);

        let mut b = RunMetrics::new();
        b.issued = 5;
        b.completed = 2;
        b.errors = 3;
        b.timeouts = 1;
        b.transport_errors = 1;
        b.shed = 1;
        b.aborted = true;
        b.response.record(0.020);
        b.per_kind.insert(WorkloadKind::Pyaes, 2);
        b.per_kind.insert(WorkloadKind::Matmul, 3);

        a.merge(&b);
        assert_eq!(a.issued, 15);
        assert_eq!(a.completed, 11);
        assert_eq!(a.errors, 4);
        assert_eq!(a.app_errors, 1);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.transport_errors, 1);
        assert_eq!(a.shed, 1);
        assert!(a.aborted, "aborted is sticky across merges");
        assert_eq!(a.response.total(), 2);
        assert_eq!(a.per_kind[&WorkloadKind::Pyaes], 7);
        assert_eq!(a.per_kind[&WorkloadKind::Matmul], 3);
    }

    #[test]
    fn record_outcome_classifies() {
        use crate::backend::InvocationResult;
        let mut m = RunMetrics::new();
        m.record_outcome(&InvocationResult::success(1.0, false));
        m.record_outcome(&InvocationResult::app_error(1.0, "rejected"));
        m.record_outcome(&InvocationResult::timeout("deadline"));
        m.record_outcome(&InvocationResult::transport("refused"));
        m.record_outcome(&InvocationResult::transport("reset"));
        m.record_outcome(&InvocationResult::shed("circuit open"));
        assert_eq!(m.completed, 1);
        assert_eq!(m.errors, 5);
        assert_eq!(m.app_errors, 1);
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.transport_errors, 2);
        assert_eq!(m.shed, 1);
        assert_eq!(m.app_errors + m.timeouts + m.transport_errors + m.shed, m.errors);
        assert_eq!(m.outcome_breakdown(), "ok=1 app-error=1 timeout=1 transport=2 shed=1");
    }

    #[test]
    fn snapshot_projection_matches_metrics() {
        let mut m = RunMetrics::new();
        m.issued = 10;
        m.completed = 7;
        m.errors = 3;
        m.app_errors = 1;
        m.timeouts = 2;
        m.cold_starts = 4;
        m.response.record(0.050);
        let s = m.snapshot();
        assert_eq!(s.issued, 10);
        assert_eq!(s.completed, 7);
        assert_eq!(s.errors, [1, 2, 0, 0]);
        assert_eq!(s.cold_starts, 4);
        assert_eq!(s.response.total(), 1);
    }

    /// Both directions of the mapping agree, class by class.
    #[test]
    fn from_snapshot_inverts_snapshot() {
        use crate::backend::{InvocationResult, OutcomeClass};
        let mut m = RunMetrics::new();
        m.issued = 8;
        for (i, result) in [
            InvocationResult::success(1.0, true),
            InvocationResult::app_error(1.0, "rejected"),
            InvocationResult::timeout("deadline"),
            InvocationResult::transport("refused"),
            InvocationResult::shed("429"),
        ]
        .iter()
        .enumerate()
        {
            for _ in 0..=i {
                m.record_outcome(result);
            }
        }
        m.cold_starts = 2;
        m.response.record(0.010);
        let s = m.snapshot();
        for class in OutcomeClass::ALL {
            assert_eq!(s.count(class), class.index() as u64 + 1, "{class:?}");
        }
        let back = RunMetrics::from_snapshot(&s);
        assert_eq!(back.snapshot(), s);
        assert_eq!(back.outcome_breakdown(), m.outcome_breakdown());
        assert_eq!(back.errors, m.errors);
    }

    #[test]
    fn quantile_nan_when_empty() {
        let m = RunMetrics::new();
        assert!(m.response_quantile_ms(0.5).is_nan());
    }

    #[test]
    fn merge_extends_shorter_minute_series() {
        // Short ← long: the receiver must grow to fit the donor.
        let mut short = RunMetrics::new();
        short.issued_per_minute = vec![1, 2];
        let mut long = RunMetrics::new();
        long.issued_per_minute = vec![10, 20, 30, 40];
        short.merge(&long);
        assert_eq!(short.issued_per_minute, vec![11, 22, 30, 40]);
    }

    #[test]
    fn merge_keeps_longer_minute_series_tail() {
        // Long ← short: the tail beyond the donor must survive untouched.
        let mut long = RunMetrics::new();
        long.issued_per_minute = vec![10, 20, 30, 40];
        let mut short = RunMetrics::new();
        short.issued_per_minute = vec![1, 2];
        long.merge(&short);
        assert_eq!(long.issued_per_minute, vec![11, 22, 30, 40]);
    }
}
