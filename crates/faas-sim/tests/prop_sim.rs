//! Property tests over the discrete-event engine: conservation laws must
//! hold for arbitrary request traces, cluster shapes, and policies, and
//! the lazy arrival stream must be indistinguishable from the trace it
//! materializes to, and a balancer's indexed `pick` from its `pick_node`
//! over a slice of node views.

use faasrail_core::{
    generate_requests, materialize, ArrivalCursor, ArrivalStream, ExperimentSpec, IatModel,
    Request, RequestTrace, ScheduleModel, ScheduleSource, SpecEntry,
};
use faasrail_faas_sim::{
    simulate, ClusterConfig, FixedTtl, GreedyDual, HybridHistogram, KeepAlivePolicy, LeastLoaded,
    LoadBalancer, LruPolicy, NodeFault, NodeView, RoundRobin, SimOptions, WarmFirst,
};
use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
use proptest::prelude::*;

fn vanilla() -> WorkloadPool {
    WorkloadPool::vanilla(&CostModel::default_calibration())
}

fn arb_trace() -> impl Strategy<Value = RequestTrace> {
    proptest::collection::vec((0u64..600_000, 0u32..10), 1..300).prop_map(|mut reqs| {
        reqs.sort_unstable();
        RequestTrace {
            duration_minutes: 10,
            requests: reqs
                .into_iter()
                .map(|(at_ms, w)| Request { at_ms, workload: WorkloadId(w), function_index: w })
                .collect(),
        }
    })
}

fn policy(which: u8) -> Box<dyn KeepAlivePolicy> {
    match which % 5 {
        0 => Box::new(FixedTtl::ten_minutes()),
        1 => Box::new(LruPolicy),
        2 => Box::new(GreedyDual),
        3 => Box::new(HybridHistogram::new()),
        _ => Box::new(HybridHistogram::new().with_prewarming()),
    }
}

fn balancer(which: u8) -> Box<dyn LoadBalancer> {
    match which % 4 {
        0 => Box::new(RoundRobin::default()),
        1 => Box::new(LeastLoaded),
        2 => Box::new(WarmFirst),
        _ => Box::new(faasrail_faas_sim::HashAffinity),
    }
}

/// Forwards `pick_node` and `name` only, so the engine reaches the wrapped
/// balancer through the trait's default `pick`: node views materialised
/// from the index, then the slice scan. That path is the oracle for the
/// in-tree balancers' indexed `pick`, and out-of-tree balancers run on it.
struct SliceOnly(Box<dyn LoadBalancer>);

impl LoadBalancer for SliceOnly {
    fn pick_node(&mut self, workload: WorkloadId, nodes: &[NodeView]) -> usize {
        self.0.pick_node(workload, nodes)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn iat(which: u8) -> IatModel {
    match which % 4 {
        0 => IatModel::Poisson,
        1 => IatModel::UniformRandom,
        2 => IatModel::Equidistant,
        _ => IatModel::Bursty { cv: 1.5 },
    }
}

fn arb_spec() -> impl Strategy<Value = (ExperimentSpec, u64)> {
    (
        proptest::collection::vec((0u32..10, proptest::collection::vec(0u64..40, 3)), 1..8),
        0u8..4,
        proptest::arbitrary::any::<u64>(),
    )
        .prop_map(|(entries, which, seed)| {
            let spec = ExperimentSpec {
                duration_minutes: 3,
                target_max_rps: 10.0,
                iat: iat(which),
                entries: entries
                    .into_iter()
                    .enumerate()
                    .map(|(i, (w, per_minute))| SpecEntry {
                        function_index: i as u32,
                        workload: WorkloadId(w),
                        alternates: vec![],
                        trace_duration_ms: 20.0,
                        per_minute,
                    })
                    .collect(),
            };
            (spec, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_laws(
        trace in arb_trace(),
        nodes in 1usize..5,
        cores in 1usize..8,
        memory in 300.0f64..8_192.0,
        pol in 0u8..4,
        bal in 0u8..4,
        jitter in 0u8..2,
    ) {
        let pool = vanilla();
        let cluster = ClusterConfig {
            nodes,
            cores_per_node: cores,
            memory_mb_per_node: memory,
            ..Default::default()
        };
        let mut p = policy(pol);
        let mut b = balancer(bal);
        let opts = SimOptions {
            service_jitter_sigma: if jitter == 0 { 0.0 } else { 0.3 },
            seed: 7,
            ..Default::default()
        };
        let m = simulate(&trace, &pool, &cluster, b.as_mut(), p.as_mut(), &opts);

        // Every request arrives exactly once.
        prop_assert_eq!(m.arrivals as usize, trace.requests.len());
        // Every arrival either completes or is starved — none vanish.
        prop_assert_eq!(m.completions + m.starved, m.arrivals);
        // Every completion started exactly once, warm xor cold.
        prop_assert_eq!(m.cold_starts + m.warm_starts, m.completions);
        // Response times were recorded for every completion.
        prop_assert_eq!(m.response.total(), m.completions);
        // Derived quantities are within physical bounds.
        if m.completions > 0 {
            let u = m.utilization();
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
            let cf = m.cold_start_fraction();
            prop_assert!((0.0..=1.0).contains(&cf));
        }
        prop_assert!(m.idle_mb_ms >= 0.0);
    }

    #[test]
    fn single_workload_single_node_cold_starts_bounded(
        n in 1usize..100,
        gap_ms in 1u64..120_000,
    ) {
        // One workload on one node with ample memory: at most
        // ceil over TTL-expiries + 1 cold starts; with gaps below the TTL,
        // exactly one.
        let pool = vanilla();
        let trace = RequestTrace {
            duration_minutes: ((n as u64 * gap_ms) / 60_000 + 1) as usize,
            requests: (0..n as u64)
                .map(|i| Request { at_ms: i * gap_ms, workload: WorkloadId(7), function_index: 7 })
                .collect(),
        };
        let mut p = FixedTtl::ten_minutes();
        let mut b = RoundRobin::default();
        let m = simulate(
            &trace,
            &pool,
            &ClusterConfig::single_node(4, 8_192.0),
            &mut b,
            &mut p,
            &SimOptions::default(),
        );
        prop_assert_eq!(m.completions as usize, n);
        if gap_ms < 600_000 {
            // Gaps below the keep-alive window: sandbox never expires. The
            // only extra cold starts come from burst concurrency (several
            // in flight at once), bounded by the core count.
            prop_assert!(m.cold_starts <= 4, "cold starts = {}", m.cold_starts);
        }
    }

    #[test]
    fn lazy_stream_equals_materialized_path(
        (spec, seed) in arb_spec(),
        pol in 0u8..4,
        bal in 0u8..4,
    ) {
        // The lazy ArrivalStream must yield exactly the arrival sequence
        // generate_requests materializes for the same spec and seed...
        let model = ScheduleModel::from_spec(&spec);
        let stream = ArrivalStream::new(&model, seed);
        let eager = generate_requests(&spec, seed);
        let mut cursor = stream.cursor();
        for (i, r) in eager.requests.iter().enumerate() {
            let a = cursor.next_arrival();
            prop_assert!(a.is_some(), "stream ended early at {i}");
            let a = a.unwrap();
            prop_assert_eq!(
                (a.at_ms, a.workload, a.function_index),
                (r.at_ms, r.workload, r.function_index),
                "divergence at arrival {}", i
            );
        }
        prop_assert!(cursor.next_arrival().is_none(), "stream outlives the trace");
        prop_assert_eq!(materialize(&stream), eager.clone());

        // ...and the engine must not be able to tell the two apart: same
        // metrics, bit for bit, under every policy/balancer combination.
        let pool = vanilla();
        let cluster = ClusterConfig::default();
        let run_lazy = {
            let mut p = policy(pol);
            let mut b = balancer(bal);
            simulate(&stream, &pool, &cluster, b.as_mut(), p.as_mut(), &SimOptions::default())
        };
        let run_eager = {
            let mut p = policy(pol);
            let mut b = balancer(bal);
            simulate(&eager, &pool, &cluster, b.as_mut(), p.as_mut(), &SimOptions::default())
        };
        prop_assert_eq!(run_lazy, run_eager);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_pick_equals_slice_pick(
        trace in arb_trace(),
        nodes in 1usize..97,
        cores in 1usize..4,
        // From one large sandbox per node (constant eviction) to roomy.
        memory in 300.0f64..4_096.0,
        pol in 0u8..5,
        bal in 0u8..4,
        jitter in 0u8..2,
        faults in proptest::collection::vec((0usize..96, 0u64..600_000, 0u8..3, 1.0f64..4.0), 0..4),
    ) {
        let pool = vanilla();
        let cluster = ClusterConfig {
            nodes,
            cores_per_node: cores,
            memory_mb_per_node: memory,
            ..Default::default()
        };
        let opts = SimOptions {
            service_jitter_sigma: if jitter == 0 { 0.0 } else { 0.3 },
            seed: 7,
            node_faults: faults
                .into_iter()
                .map(|(node, at_ms, kind, slow)| NodeFault {
                    node: (node % nodes) as u32,
                    crash_at_ms: (kind != 1).then_some(at_ms),
                    slow_factor: if kind == 0 { 1.0 } else { slow },
                })
                .collect(),
        };
        let indexed =
            simulate(&trace, &pool, &cluster, balancer(bal).as_mut(), policy(pol).as_mut(), &opts);
        let oracle = simulate(
            &trace,
            &pool,
            &cluster,
            &mut SliceOnly(balancer(bal)),
            policy(pol).as_mut(),
            &opts,
        );
        prop_assert_eq!(&indexed, &oracle);
        prop_assert_eq!(indexed.completions + indexed.starved + indexed.killed, indexed.arrivals);
    }
}
