//! Real-time backend: one FaaS node serving the load generator.
//!
//! Where [`crate::engine`] drives the sandbox lifecycle (`lifecycle.rs`) in
//! virtual time from its event heap, this backend drives the same lines on
//! the *wall clock*: every concurrent invocation gets its own sandbox,
//! eviction, TTLs and prewarming follow the [`KeepAlivePolicy`] it was built
//! with, misses sleep a (scaled) cold-start delay, and then the workload
//! kernel actually runs — real FaaS behaviour under real generated load.

use crate::cluster::{ClusterConfig, ColdStartModel};
use crate::index::Sandbox;
use crate::keepalive::KeepAlivePolicy;
use crate::lifecycle::{Armed, Lifecycle, LifecycleStats, Timer};
use faasrail_loadgen::{Backend, InvocationRequest, InvocationResult};
use faasrail_workloads::{WorkloadId, WorkloadPool};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Configuration for the warm-cache backend.
#[derive(Debug, Clone, Copy)]
pub struct WarmCacheConfig {
    /// Total sandbox memory, MiB.
    pub capacity_mb: f64,
    /// Cold-start model (delays are slept, scaled by `cold_scale`).
    pub cold_start: ColdStartModel,
    /// Multiplier on slept cold-start delays (0 disables sleeping, keeping
    /// tests fast while still *counting* cold starts).
    pub cold_scale: f64,
    /// Execute the real kernel (`true`) or just account for it (`false`).
    pub execute_kernels: bool,
}

impl Default for WarmCacheConfig {
    fn default() -> Self {
        WarmCacheConfig {
            capacity_mb: 8_192.0,
            cold_start: ColdStartModel::default(),
            cold_scale: 1.0,
            execute_kernels: true,
        }
    }
}

/// What the backend's mutex guards: the lifecycle core over a one-node
/// cluster, its policy, and the timers the core armed. Time is an argument
/// here too — [`WarmCacheBackend`] passes the wall clock, tests pass any
/// non-decreasing instants.
struct Node {
    life: Lifecycle,
    policy: Box<dyn KeepAlivePolicy>,
    /// `(at_us, arming order, timer)`, earliest first: the order the
    /// simulator's heap fires them in.
    timers: BinaryHeap<Reverse<(u64, u64, Timer)>>,
    armed: u64,
}

impl Node {
    fn arm(&mut self, timer: Option<Armed>) {
        if let Some((at_us, timer)) = timer {
            self.armed += 1;
            self.timers.push(Reverse((at_us, self.armed, timer)));
        }
    }

    /// Fire what came due before `now_us`, each timer at its own instant,
    /// so that popping lazily equals having fired on time. An invocation
    /// wins a tie with a timer, as an arrival does in the simulator.
    fn advance(&mut self, now_us: u64) {
        while let Some(&Reverse((at_us, _, timer))) = self.timers.peek() {
            if at_us >= now_us {
                break;
            }
            self.timers.pop();
            let fired = self.life.fire(timer, at_us, self.policy.as_mut());
            self.arm(fired.arm);
        }
    }

    /// An invocation of `workload` starts: its sandbox and whether it is
    /// cold. No sandbox is the over-capacity rule — there is no queue to
    /// wait in, so it runs as an uncached cold start.
    fn begin(&mut self, workload: WorkloadId, now_us: u64) -> (Option<Sandbox>, bool) {
        self.advance(now_us);
        self.policy.on_arrival(workload, now_us / 1_000);
        match self.life.acquire(0, workload, now_us, self.policy.as_mut()) {
            Some((sandbox, cold)) => (Some(sandbox), cold),
            None => {
                self.life.stats.cold_starts += 1;
                (None, true)
            }
        }
    }

    /// The invocation holding `sandbox` is over.
    fn end(&mut self, sandbox: Sandbox, now_us: u64) {
        self.advance(now_us);
        let expiry = self.life.release(0, sandbox, now_us, self.policy.as_mut());
        self.arm(expiry);
    }
}

/// A single-node FaaS backend on the wall clock.
pub struct WarmCacheBackend {
    pool: WorkloadPool,
    cfg: WarmCacheConfig,
    epoch: Instant,
    node: Mutex<Node>,
}

/// A running invocation's hold on its sandbox. Dropping it — on return, or
/// while a kernel panic unwinds — parks the sandbox, so a crashing workload
/// cannot leak the node's memory.
struct Lease<'a>(&'a WarmCacheBackend, Option<Sandbox>);

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if let Some(sandbox) = self.1.take() {
            let (mut node, now_us) = self.0.node();
            node.end(sandbox, now_us);
        }
    }
}

impl WarmCacheBackend {
    /// Create a backend serving workloads from `pool`, keeping sandboxes
    /// alive per `policy`.
    pub fn new(pool: WorkloadPool, cfg: WarmCacheConfig, policy: Box<dyn KeepAlivePolicy>) -> Self {
        assert!(cfg.capacity_mb > 0.0, "capacity must be positive");
        let cluster = ClusterConfig {
            cold_start: cfg.cold_start,
            ..ClusterConfig::single_node(usize::MAX, cfg.capacity_mb)
        };
        let node = Node {
            life: Lifecycle::new(&cluster, &pool),
            policy,
            timers: BinaryHeap::new(),
            armed: 0,
        };
        WarmCacheBackend { pool, cfg, epoch: Instant::now(), node: Mutex::new(node) }
    }

    /// The node and the time, read under its lock so that the instants the
    /// lifecycle sees never run backwards. A poisoned lock is taken anyway:
    /// kernels run outside it.
    fn node(&self) -> (MutexGuard<'_, Node>, u64) {
        let node = self.node.lock().unwrap_or_else(PoisonError::into_inner);
        let now_us = self.epoch.elapsed().as_micros() as u64;
        (node, now_us)
    }

    /// Number of currently warm (idle) sandboxes.
    pub fn warm_count(&self) -> usize {
        let (mut node, now_us) = self.node();
        node.advance(now_us);
        node.life.index.idle_on(0).count()
    }

    /// What the lifecycle has counted so far — the simulator's counters,
    /// measured on the wall clock.
    pub fn stats(&self) -> LifecycleStats {
        let (mut node, now_us) = self.node();
        node.advance(now_us);
        node.life.stats_at(now_us)
    }
}

impl Backend for WarmCacheBackend {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let Some(w) = self.pool.get(req.workload) else {
            return InvocationResult::app_error(
                0.0,
                format!("workload {:?} not in pool", req.workload),
            );
        };
        let (sandbox, cold) = {
            let (mut node, now_us) = self.node();
            node.begin(req.workload, now_us)
        };
        let _lease = Lease(self, sandbox);
        let start = Instant::now();
        if cold && self.cfg.cold_scale > 0.0 {
            let delay_ms = self.cfg.cold_start.delay_ms(w.memory_mb);
            std::thread::sleep(Duration::from_secs_f64(delay_ms * self.cfg.cold_scale / 1_000.0));
        }
        if self.cfg.execute_kernels {
            std::hint::black_box(faasrail_workloads::kernels::execute(&req.input));
        }
        InvocationResult::success(start.elapsed().as_secs_f64() * 1_000.0, cold)
    }

    fn name(&self) -> &str {
        "warm-cache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keepalive::FixedTtl;
    use crate::{simulate_observed, HybridHistogram, PolicyKind, RoundRobin, SimOptions};
    use faasrail_core::{Request, RequestTrace};
    use faasrail_telemetry::{RingSink, TelemetryEvent};
    use faasrail_workloads::{CostModel, WorkloadInput};
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn pool() -> WorkloadPool {
        WorkloadPool::vanilla(&CostModel::default_calibration())
    }

    fn memory_mb(id: u32) -> f64 {
        pool().get(WorkloadId(id)).expect("a vanilla workload").memory_mb
    }

    fn backend_with(cfg: WarmCacheConfig) -> WarmCacheBackend {
        WarmCacheBackend::new(pool(), cfg, Box::new(FixedTtl::ten_minutes()))
    }

    fn backend(capacity_mb: f64) -> WarmCacheBackend {
        backend_with(WarmCacheConfig {
            capacity_mb,
            cold_scale: 0.0,
            execute_kernels: false,
            ..Default::default()
        })
    }

    fn req_with(id: u32, input: WorkloadInput) -> InvocationRequest {
        InvocationRequest {
            workload: WorkloadId(id),
            input,
            function_index: id,
            scheduled_at_ms: 0,
            trace_id: 0,
        }
    }

    fn req(id: u32) -> InvocationRequest {
        req_with(id, WorkloadInput::Pyaes { bytes: 16 })
    }

    /// Memory the node has handed out, MiB, after checking that it is all
    /// held by the `running_mb` executing or by parked sandboxes.
    fn used_mb(b: &WarmCacheBackend, running_mb: f64) -> f64 {
        let node = b.node().0;
        node.life.index.audit(&[running_mb]);
        b.cfg.capacity_mb - node.life.index.node(0).free_memory_mb
    }

    #[test]
    fn cold_then_warm() {
        let b = backend(8_192.0);
        assert!(b.invoke(&req(7)).cold_start);
        assert!(!b.invoke(&req(7)).cold_start);
        assert_eq!(b.warm_count(), 1);
        let stats = b.stats();
        assert_eq!((stats.cold_starts, stats.warm_starts), (1, 1));
    }

    #[test]
    fn capacity_evicts_lru() {
        // Room for either sandbox, not both: each admission evicts the other.
        let b = backend(80.0);
        assert!(b.invoke(&req(7)).cold_start); // pyaes 33 MiB
        assert!(b.invoke(&req(3)).cold_start); // json 66 MiB → evicts pyaes
        assert_eq!((b.warm_count(), used_mb(&b, 0.0)), (1, memory_mb(3)));
        assert!(b.invoke(&req(7)).cold_start, "pyaes was evicted");
        assert_eq!(b.stats().evictions, 2);
    }

    #[test]
    fn unknown_workload_fails() {
        assert!(!backend(1_024.0).invoke(&req(9_999)).ok);
    }

    #[test]
    fn ttl_expires_entries() {
        let b = backend(8_192.0);
        let mut node = b.node().0;
        let ttl_us = 600_000_000;
        let (first, cold) = node.begin(WorkloadId(7), 0);
        assert!(cold);
        node.end(first.expect("it fits"), 1_000);
        // Still warm at the very instant its timer is due (the invocation
        // wins the tie); the second idle spell runs out unobserved.
        let (again, cold) = node.begin(WorkloadId(7), 1_000 + ttl_us);
        assert!(!cold);
        node.end(again.expect("it fits"), 2_000 + ttl_us);
        let (_, cold) = node.begin(WorkloadId(7), 5 * ttl_us);
        assert!(cold, "the sandbox should have expired");
        assert_eq!(node.life.stats.expirations, 1);
        // Two whole TTLs idle: the expiry is charged at its own instant,
        // not when it was noticed.
        let one_ttl = memory_mb(7) * ttl_us as f64 / 1_000.0;
        assert_eq!(node.life.stats.idle_mb_ms, one_ttl + one_ttl);
    }

    #[test]
    fn kernel_execution_takes_time() {
        let b = backend_with(WarmCacheConfig { cold_scale: 0.0, ..Default::default() });
        let r = b.invoke(&req_with(7, WorkloadInput::Pyaes { bytes: 256 * 1024 }));
        assert!(r.ok);
        assert!(r.service_ms > 0.1, "256 KiB of software AES takes real time");
    }

    #[test]
    fn concurrent_invocations_get_a_sandbox_each() {
        // In virtual time: the second arrives while the first is starting.
        let b = backend(8_192.0);
        let both = 2.0 * memory_mb(7);
        let (first, second) = {
            let mut node = b.node().0;
            (node.begin(WorkloadId(7), 0), node.begin(WorkloadId(7), 1))
        };
        assert!(first.1 && second.1, "a sandbox that is busy serves nobody else");
        assert_eq!(used_mb(&b, both), both, "memory is charged per sandbox");
        for (sandbox, _) in [first, second] {
            b.node().0.end(sandbox.expect("both fit"), 2);
        }
        assert_eq!((b.warm_count(), used_mb(&b, 0.0)), (2, both));

        // On the wall clock: four threads, one workload, every cold start
        // asleep for ~100 ms while the others arrive.
        let b = backend_with(WarmCacheConfig {
            cold_scale: 0.4,
            execute_kernels: false,
            ..Default::default()
        });
        let gate = std::sync::Barrier::new(4);
        let invoke = || {
            gate.wait();
            b.invoke(&req(7)).cold_start
        };
        let cold = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4).map(|_| scope.spawn(invoke)).collect();
            threads.into_iter().map(|t| t.join().expect("no panic")).filter(|&cold| cold).count()
        });
        assert!(cold >= 2, "{cold} cold starts: a sandbox still initialising was shared");
        assert_eq!(b.stats().cold_starts, cold as u64);
        assert_eq!((b.warm_count(), used_mb(&b, 0.0)), (cold, cold as f64 * memory_mb(7)));
    }

    #[test]
    fn a_workload_that_cannot_fit_runs_uncached() {
        // 20 MiB of node for a 33 MiB sandbox: every invocation is a cold
        // start that holds no node memory and is never parked.
        let b = backend(20.0);
        for _ in 0..2 {
            assert!(b.invoke(&req(7)).cold_start);
            assert_eq!((b.warm_count(), used_mb(&b, 0.0)), (0, 0.0));
        }
        // Nor beside what is running: 100 MiB holds json (66) or pyaes (33)
        // plus json only by evicting, and json is busy.
        let b = backend(80.0);
        let (json, _) = b.node().0.begin(WorkloadId(3), 0);
        let (pyaes, cold) = b.node().0.begin(WorkloadId(7), 1);
        assert!(cold && pyaes.is_none(), "uncached: the node is never pushed past its memory");
        assert_eq!(used_mb(&b, memory_mb(3)), memory_mb(3));
        b.node().0.end(json.expect("json fits"), 2);
        let stats = b.node().0.life.stats;
        assert_eq!((stats.cold_starts, stats.evictions), (2, 0));
    }

    #[test]
    fn a_panicking_kernel_releases_its_sandbox() {
        let b = backend_with(WarmCacheConfig { cold_scale: 0.0, ..Default::default() });
        // A 2×2 image is too small for the CNN's two pooling stages.
        let bad = req_with(1, WorkloadInput::CnnServing { image_size: 2, filters: 1 });
        assert!(catch_unwind(AssertUnwindSafe(|| b.invoke(&bad))).is_err());
        assert_eq!((b.warm_count(), used_mb(&b, 0.0)), (1, memory_mb(1)));
        let good = req_with(1, WorkloadInput::CnnServing { image_size: 8, filters: 1 });
        let r = b.invoke(&good);
        assert!(r.ok && !r.cold_start, "the sandbox was parked, not leaked");
        assert_eq!((b.warm_count(), used_mb(&b, 0.0)), (1, memory_mb(1)));
    }

    /// Every policy the registry builds, and the prewarming hybrid.
    fn policies() -> Vec<Box<dyn KeepAlivePolicy>> {
        let mut all: Vec<_> = PolicyKind::ALL.iter().map(|kind| kind.build()).collect();
        all.push(Box::new(HybridHistogram::new().with_prewarming()));
        all
    }

    /// Gaps that keep invocations from overlapping (the slowest takes
    /// ~1.4 s cold), from back to back to past the ten-minute TTL.
    fn arb_schedule() -> impl Strategy<Value = Vec<(u64, u32)>> {
        let gap_ms = prop_oneof![
            4 => 1_500u64..5_000,
            3 => 5_000u64..120_000,
            1 => 590_000u64..700_000,
            1 => 700_000u64..3_000_000,
        ];
        proptest::collection::vec((gap_ms, 0u32..10), 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The simulator and the wall-clock node are one model: over a
        /// schedule with one invocation in flight at a time they agree on
        /// every invocation's warm/cold verdict and on every counter,
        /// down to the last bit of the idle-memory integral.
        #[test]
        fn node_agrees_with_the_simulator_in_virtual_time(
            schedule in arb_schedule(),
            capacity_mb in prop_oneof![Just(270.0), Just(400.0), Just(700.0), Just(8_192.0)],
        ) {
            let pool = pool();
            let mut at_ms = 0;
            let requests: Vec<Request> = schedule
                .iter()
                .map(|&(gap_ms, w)| {
                    at_ms += gap_ms;
                    Request { at_ms, workload: WorkloadId(w), function_index: w }
                })
                .collect();
            let trace = RequestTrace { duration_minutes: 1 + (at_ms / 60_000) as usize, requests };
            let cluster = ClusterConfig::single_node(2, capacity_mb);

            for (mut sim_policy, node_policy) in policies().into_iter().zip(policies()) {
                let sink = RingSink::with_capacity(trace.requests.len() + 2);
                let sim = simulate_observed(
                    &trace,
                    &pool,
                    &cluster,
                    &mut RoundRobin::default(),
                    sim_policy.as_mut(),
                    &SimOptions::default(),
                    &sink,
                );
                let sim_cold: Vec<bool> = sink
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        TelemetryEvent::Invocation(span) => Some(span.cold_start),
                        _ => None,
                    })
                    .collect();

                let cfg = WarmCacheConfig { capacity_mb, ..Default::default() };
                let b = WarmCacheBackend::new(pool.clone(), cfg, node_policy);
                let mut node = b.node().0;
                let (mut cold_seq, mut last_us) = (Vec::new(), 0);
                for r in &trace.requests {
                    let now_us = r.at_ms * 1_000;
                    prop_assert!(now_us >= last_us, "the schedule overlaps");
                    let (sandbox, cold) = node.begin(r.workload, now_us);
                    let sandbox = sandbox.expect("every workload fits an idle node");
                    let w = pool.get(r.workload).expect("in the pool");
                    let busy_ms = w.mean_ms + if cold { sandbox.init_cost_ms } else { 0.0 };
                    last_us = now_us + (busy_ms * 1_000.0) as u64;
                    node.end(sandbox, last_us);
                    cold_seq.push(cold);
                }
                node.advance(u64::MAX);
                let real = node.life.stats_at(last_us);

                prop_assert_eq!(&cold_seq, &sim_cold, "{}", sim.policy);
                prop_assert_eq!(
                    (real.cold_starts, real.warm_starts, real.evictions, real.expirations, real.prewarms),
                    (sim.cold_starts, sim.warm_starts, sim.evictions, sim.expirations, sim.prewarms),
                    "{}", sim.policy
                );
                prop_assert_eq!(real.idle_mb_ms.to_bits(), sim.idle_mb_ms.to_bits(), "{}", sim.policy);
            }
        }
    }
}
