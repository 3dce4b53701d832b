//! Dynamic resharding: exact accounting and deterministic planning for a
//! dead shard's remaining schedule.
//!
//! Everything here is pure — no sockets, no clocks — so the control
//! plane's accounting algebra is property-testable in isolation:
//!
//! * [`prefix_metrics`] converts a lost work item's last acked
//!   [`WorkPrefix`] (the contiguous-finished high-water mark) plus the
//!   retained trace into [`RunMetrics`] for exactly the finished prefix —
//!   per-minute and per-kind series reconstructed from the trace, so the
//!   fleet's merged offered series stays bit-identical to an unkilled
//!   run's. Latency histograms are *not* reconstructable from counters and
//!   are deliberately left empty (a documented loss: a dead agent takes
//!   its histograms with it; counts never lie).
//! * [`plan_grants`] splits the unfinished remainder across survivors by
//!   function, as the original sharding did, under a hash keyed by the
//!   grant generation ([`faasrail_loadgen::partition_remainder`]), so
//!   reassignment is a pure function of `(trace, watermark, survivor set,
//!   next grant id)` — two coordinators observing the same death in the
//!   same state plan the same grants — and a remainder spreads even when
//!   there are as many survivors as there were shards.

use faasrail_core::RequestTrace;
use faasrail_loadgen::{partition_remainder, remainder_after, RunMetrics};
use faasrail_telemetry::Snapshot;
use faasrail_workloads::WorkloadPool;

use crate::wire::{Grant, WorkPrefix};

/// Metrics for the finished prefix of a lost work item.
///
/// `prefix.watermark` is clamped to the trace length; counters are taken
/// from the prefix (the agent counted outcomes, the coordinator cannot
/// re-derive them), while `issued_per_minute` and `per_kind` are
/// reconstructed from the retained trace so schedule-shaped series stay
/// exact. `completed + errors == issued` holds whenever the agent's
/// prefix was consistent ([`WorkPrefix::is_consistent`]).
pub fn prefix_metrics(
    trace: &RequestTrace,
    pool: &WorkloadPool,
    prefix: &WorkPrefix,
) -> RunMetrics {
    let w = (prefix.watermark as usize).min(trace.requests.len());
    let mut m = RunMetrics::from_snapshot(&Snapshot {
        completed: prefix.completed,
        errors: prefix.errors,
        cold_starts: prefix.cold_starts,
        ..Snapshot::default()
    });
    for r in &trace.requests[..w] {
        m.record_issued(r.at_ms);
        if let Some(workload) = pool.get(r.workload) {
            *m.per_kind.entry(workload.input.kind()).or_insert(0) += 1;
        }
    }
    m
}

/// Plan the reassignment of a dead work item's remainder.
///
/// `trace` is the work's full retained trace, `watermark` its last acked
/// finished-prefix length. The remainder (everything at or beyond the
/// watermark) is partitioned across `survivors` (shard ids, order-
/// significant — pass them sorted for cross-run determinism); each
/// non-empty part becomes one [`Grant`] with consecutive ids starting at
/// `next_id`. Returns the planned grants paired with their target shard.
/// Empty when the remainder is empty; panics if `survivors` is empty
/// (callers must take the aborted-remainder path instead).
pub fn plan_grants(
    trace: &RequestTrace,
    watermark: u64,
    survivors: &[u32],
    next_id: u64,
    origin_shard: u32,
    elapsed_ms: u64,
) -> Vec<(u32, Grant)> {
    let remainder = remainder_after(trace, watermark as usize);
    if remainder.requests.is_empty() {
        return Vec::new();
    }
    partition_remainder(&remainder, survivors, next_id)
        .into_iter()
        .enumerate()
        .map(|(i, (target, part))| {
            (target, Grant { id: next_id + i as u64, origin_shard, elapsed_ms, trace: part })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_core::Request;
    use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};

    fn pool() -> WorkloadPool {
        WorkloadPool::vanilla(&CostModel::default_calibration())
    }

    fn trace(n: u64) -> RequestTrace {
        RequestTrace {
            duration_minutes: 2,
            requests: (0..n)
                .map(|i| Request {
                    at_ms: i * 1_000,
                    workload: WorkloadId((i % 3) as u32),
                    function_index: (i % 7) as u32,
                })
                .collect(),
        }
    }

    #[test]
    fn prefix_metrics_reconstructs_schedule_series() {
        let t = trace(100);
        let p = WorkPrefix {
            work: 0,
            watermark: 70,
            completed: 60,
            errors: [4, 3, 2, 1],
            cold_starts: 5,
        };
        assert!(p.is_consistent());
        let m = prefix_metrics(&t, &pool(), &p);
        assert_eq!(m.issued, 70);
        assert_eq!(m.completed + m.errors, 70, "prefix partition is exact");
        assert_eq!(m.issued_per_minute, vec![60, 10], "minutes from the trace prefix");
        assert_eq!(m.per_kind.values().sum::<u64>(), 70);
        assert_eq!(m.cold_starts, 5);
        assert_eq!(m.response.total(), 0, "histograms are not reconstructable");
        assert!(!m.aborted, "prefix work finished; the remainder moves, not aborts");
    }

    #[test]
    fn prefix_metrics_clamps_watermark() {
        let t = trace(10);
        let p = WorkPrefix { watermark: 1_000, completed: 10, ..WorkPrefix::default() };
        let m = prefix_metrics(&t, &pool(), &p);
        assert_eq!(m.issued, 10);
    }

    #[test]
    fn plan_grants_partitions_remainder_deterministically() {
        let t = trace(90);
        let survivors = [0u32, 2];
        let grants = plan_grants(&t, 30, &survivors, 100, 1, 31_000);
        assert!(!grants.is_empty());
        let total: usize = grants.iter().map(|(_, g)| g.trace.requests.len()).sum();
        assert_eq!(total, 60, "grants cover exactly the remainder");
        let mut ids: Vec<u64> = grants.iter().map(|(_, g)| g.id).collect();
        ids.dedup();
        assert_eq!(ids, (100..100 + grants.len() as u64).collect::<Vec<_>>());
        for (target, g) in &grants {
            assert!(survivors.contains(target));
            assert_eq!(g.origin_shard, 1);
            assert_eq!(g.elapsed_ms, 31_000);
            assert!(g.trace.requests.iter().all(|r| r.at_ms >= 30_000), "remainder only");
        }
        // Pure function: identical plan on replay.
        let again = plan_grants(&t, 30, &survivors, 100, 1, 31_000);
        assert_eq!(
            serde_json::to_string(&grants.iter().map(|(s, g)| (s, &g.trace)).collect::<Vec<_>>())
                .unwrap(),
            serde_json::to_string(&again.iter().map(|(s, g)| (s, &g.trace)).collect::<Vec<_>>())
                .unwrap()
        );
    }

    #[test]
    fn plan_grants_empty_for_finished_work() {
        let t = trace(10);
        assert!(plan_grants(&t, 10, &[0], 5, 1, 0).is_empty());
    }
}
