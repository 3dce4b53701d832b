//! Property: the per-class outcome breakdown in [`RunMetrics`] is a true
//! partition of the error count, and completions plus errors account for
//! every recorded outcome — under any randomized sequence of outcomes,
//! including merged (multi-worker) metrics. And a replay, under any pacing
//! and however many workers claim from the trace, counts what a serial walk
//! of it counts.

use faasrail_core::{Request, RequestTrace};
use faasrail_loadgen::{
    replay_observed, Backend, InvocationRequest, InvocationResult, Pacing, ReplayConfig,
    ReplayInstruments, RunMetrics,
};
use faasrail_stats::rng::{cases, mix64_pair, Rng};
use faasrail_telemetry::{RingSink, TelemetryEvent};
use faasrail_workloads::{CostModel, WorkloadPool};
use std::sync::atomic::AtomicBool;

/// One arbitrary invocation outcome.
fn arb_outcome(rng: &mut impl Rng) -> InvocationResult {
    match rng.below(5) {
        0 => InvocationResult::success(rng.uniform(0.0..1_000.0), rng.below(2) == 1),
        1 => InvocationResult::app_error(rng.uniform(0.0..1_000.0), "app failed"),
        2 => InvocationResult::timeout("deadline exceeded"),
        3 => InvocationResult::transport("connection reset"),
        _ => InvocationResult::shed("circuit breaker open"),
    }
}

fn arb_outcomes(rng: &mut impl Rng, max_len: usize) -> Vec<InvocationResult> {
    (0..rng.range(0..max_len)).map(|_| arb_outcome(rng)).collect()
}

fn classes_partition_errors(m: &RunMetrics) {
    assert_eq!(
        m.app_errors + m.timeouts + m.transport_errors + m.shed,
        m.errors,
        "breakdown: {}",
        m.outcome_breakdown()
    );
}

#[test]
fn outcome_classes_partition_errors() {
    cases("outcome_classes_partition_errors", 256, |rng| {
        let outcomes = arb_outcomes(rng, 200);
        let mut m = RunMetrics::new();
        for r in &outcomes {
            m.record_issued(0);
            m.record_outcome(r);
        }
        classes_partition_errors(&m);
        assert_eq!(m.completed + m.errors, m.issued);
        assert_eq!(m.issued as usize, outcomes.len());
    });
}

#[test]
fn merge_preserves_the_partition() {
    cases("merge_preserves_the_partition", 256, |rng| {
        let (a, b) = (arb_outcomes(rng, 100), arb_outcomes(rng, 100));
        // Per-worker metrics merged into one, as replay() does.
        let mut ma = RunMetrics::new();
        for r in &a {
            ma.record_issued(0);
            ma.record_outcome(r);
        }
        let mut mb = RunMetrics::new();
        for r in &b {
            mb.record_issued(0);
            mb.record_outcome(r);
        }
        let mut merged = RunMetrics::new();
        merged.merge(&ma);
        merged.merge(&mb);
        classes_partition_errors(&merged);
        assert_eq!(merged.completed + merged.errors, merged.issued);
        assert_eq!(merged.issued as usize, a.len() + b.len());
    });
}

/// Answers each request with a class and a cold start that are a function
/// of the request alone, so any interleaving of workers must add up to the
/// same counts.
struct Keyed;

impl Backend for Keyed {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let h = mix64_pair(req.function_index as u64, req.scheduled_at_ms);
        let mut result = match (h >> 1) % 5 {
            0 => InvocationResult::success(0.01, false),
            1 => InvocationResult::app_error(0.01, "app failed"),
            2 => InvocationResult::timeout("deadline exceeded"),
            3 => InvocationResult::transport("connection reset"),
            _ => InvocationResult::shed("circuit breaker open"),
        };
        result.cold_start = h & 1 == 1;
        result
    }
}

#[test]
fn a_replay_counts_what_a_serial_walk_counts() {
    let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
    cases("a_replay_counts_what_a_serial_walk_counts", 64, |rng| {
        let n = rng.range(0..500usize);
        let workers = rng.range(1..6usize);
        let pacing = rng.below(3);
        let mut at_ms = 0;
        let requests: Vec<Request> = (0..n)
            .map(|_| {
                at_ms += rng.range(0..3_000u64);
                let workload = pool.workloads()[rng.range(0..pool.len())].id;
                Request { at_ms, workload, function_index: rng.range(0..8u32) }
            })
            .collect();
        let trace = RequestTrace { duration_minutes: (at_ms / 60_000) as usize + 1, requests };
        let pacing = match pacing {
            0 => Pacing::Unpaced,
            1 => Pacing::ClosedLoop,
            // Compressed to span 20 ms at most.
            _ => Pacing::RealTime { compression: (at_ms as f64 / 20.0).max(1.0) },
        };

        let mut want = RunMetrics::new();
        for r in &trace.requests {
            let input = pool.get(r.workload).expect("pool workload").input;
            let result = Keyed.invoke(&InvocationRequest {
                workload: r.workload,
                input,
                function_index: r.function_index,
                scheduled_at_ms: r.at_ms,
                trace_id: 0,
            });
            want.record_issued(r.at_ms);
            want.record_outcome(&result);
            want.cold_starts += result.cold_start as u64;
            *want.per_kind.entry(input.kind()).or_insert(0) += 1;
        }

        let sink = RingSink::with_capacity(n + 2);
        let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };
        let cfg = ReplayConfig { pacing, workers };
        let m = replay_observed(&trace, &pool, &Keyed, &cfg, &AtomicBool::new(false), &inst);
        let counts = |m: &RunMetrics| {
            let classes = [m.completed, m.errors, m.app_errors, m.timeouts, m.transport_errors];
            (m.issued, classes, m.shed, m.cold_starts, m.per_kind.clone(), m.aborted)
        };
        assert_eq!(counts(&m), counts(&want), "{pacing:?} on {workers} workers");
        assert_eq!(m.issued_per_minute, want.issued_per_minute);

        let spans: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TelemetryEvent::Invocation(span) => Some(span),
                _ => None,
            })
            .collect();
        let mut seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..n as u64).collect::<Vec<_>>(), "span seqs are a permutation");
        let mut ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "trace ids are unique");
        for s in &spans {
            assert!(
                s.target_us <= s.dispatched_us
                    && s.dispatched_us <= s.picked_up_us
                    && s.picked_up_us <= s.completed_us,
                "{pacing:?}: {s:?}"
            );
            // A real-time request either waited for its due instant (it
            // was dispatched when picked up) or was claimed late (it was
            // dispatched when due).
            if let Pacing::RealTime { .. } = pacing {
                assert!(
                    s.dispatched_us == s.picked_up_us || s.dispatched_us == s.target_us,
                    "{s:?}"
                );
            }
        }
    });
}
