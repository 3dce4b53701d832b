//! The simulator's byte-identity contract, committed.
//!
//! A fixed-seed grid — 4 balancers × 5 keep-alive policies × 2 cluster
//! shapes × {plain, jitter + crash + slow node} = 80 cells over one lazy
//! schedule — is folded, cell by cell, into one `u64`: each cell's
//! `SimMetrics` as `serde_json` text, byte by byte through
//! `stats::rng::mix64`. The constant below was computed on the commit
//! *before* the sandbox lifecycle moved out of `engine.rs` (PR 21), so any
//! refactor of the engine, the lifecycle core or the cluster index that
//! moves a counter, reorders one `f64` addition or fires one timer at a
//! different instant fails here rather than in a scratch directory.
//!
//! The shapes are chosen so every lifecycle path runs: both clusters
//! evict under memory pressure, the thin one queues on cores, the fat one
//! refuses sandboxes that do not fit beside running ones (288 614 requests
//! queue on memory), ten-minute and learned TTLs expire inside the 25
//! minutes, prewarming re-creates sandboxes, and the faulty half crashes a
//! node with work in flight and idle sandboxes parked.

use faasrail_core::{ArrivalStream, ExperimentSpec, IatModel, ScheduleModel, SpecEntry};
use faasrail_faas_sim::{
    simulate, BalancerKind, ClusterConfig, HybridHistogram, KeepAlivePolicy, NodeFault, PolicyKind,
    SimMetrics, SimOptions,
};
use faasrail_stats::rng::mix64;
use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};

/// Fold of the 80 cells on the parent of PR 21 (see CHANGES.md).
const GOLDEN: u64 = 0x55f5_0a03_5f2b_d16b;

const MINUTES: usize = 25;

/// 24 functions over the ten vanilla workloads: a few hot, most sparse, two
/// strictly periodic (what prewarming feeds on), every count a pure
/// function of the indices.
fn spec() -> ExperimentSpec {
    ExperimentSpec {
        duration_minutes: MINUTES,
        target_max_rps: 40.0,
        iat: IatModel::Poisson,
        entries: (0..24u32)
            .map(|f| SpecEntry {
                function_index: f,
                workload: WorkloadId(f % 10),
                alternates: vec![],
                trace_duration_ms: 25.0,
                per_minute: (0..MINUTES as u64)
                    .map(|m| {
                        let h = mix64(0x21 ^ (f as u64) << 8 ^ m);
                        match f {
                            0..=2 => 60 + h % 240,              // hot
                            3 | 4 => 1,                         // periodic
                            _ if m % 9 == 8 => 0,               // a silent minute
                            _ => (h % 7).saturating_sub(3) * 4, // sparse, bursty
                        }
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn policies() -> [fn() -> Box<dyn KeepAlivePolicy>; 5] {
    [
        || PolicyKind::FixedTtl.build(),
        || PolicyKind::Lru.build(),
        || PolicyKind::GreedyDual.build(),
        || PolicyKind::HybridHistogram.build(),
        || Box::new(HybridHistogram::new().with_prewarming()),
    ]
}

fn shapes() -> [ClusterConfig; 2] {
    [
        ClusterConfig {
            nodes: 2,
            cores_per_node: 4,
            memory_mb_per_node: 700.0,
            ..Default::default()
        },
        ClusterConfig {
            nodes: 12,
            cores_per_node: 1,
            memory_mb_per_node: 300.0,
            ..Default::default()
        },
    ]
}

fn options(faulty: bool, cell: u64) -> SimOptions {
    if !faulty {
        return SimOptions::default();
    }
    SimOptions {
        service_jitter_sigma: 0.4,
        seed: 1_000 + cell,
        node_faults: vec![
            NodeFault { node: 0, crash_at_ms: Some(7 * 60_000 + 13), slow_factor: 1.0 },
            NodeFault { node: 1, crash_at_ms: None, slow_factor: 2.5 },
        ],
    }
}

fn fold(mut acc: u64, m: &SimMetrics) -> u64 {
    let json = serde_json::to_string(m).expect("metrics serialise");
    for b in json.bytes() {
        acc = mix64(acc ^ b as u64);
    }
    acc
}

#[test]
fn eighty_cells_fold_to_the_pinned_constant() {
    let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
    let model = ScheduleModel::from_spec(&spec());
    let stream = ArrivalStream::new(&model, 21);

    let (mut acc, mut cell) = (0x6F6C_6467u64, 0u64);
    // What the grid reached, summed over cells: it is only a contract for
    // the paths it runs.
    let mut reached = [0u64; 8];
    for balancer in BalancerKind::ALL {
        for policy in policies() {
            for cluster in shapes() {
                for faulty in [false, true] {
                    let m = simulate(
                        &stream,
                        &pool,
                        &cluster,
                        balancer.build().as_mut(),
                        policy().as_mut(),
                        &options(faulty, cell),
                    );
                    assert_eq!(m.completions + m.starved + m.killed, m.arrivals, "cell {cell}");
                    acc = fold(acc, &m);
                    cell += 1;
                    let parts = [
                        m.warm_starts,
                        m.cold_starts,
                        m.evictions,
                        m.expirations,
                        m.prewarms,
                        m.killed,
                        m.sandboxes_lost,
                        m.max_queue,
                    ];
                    reached.iter_mut().zip(parts).for_each(|(total, part)| *total += part);
                }
            }
        }
    }
    assert_eq!(cell, 80);
    assert!(reached.iter().all(|&n| n > 0), "a lifecycle path never ran: {reached:?}");
    assert_eq!(acc, GOLDEN, "fold = {acc:#018x}, reached {reached:?}");
}
