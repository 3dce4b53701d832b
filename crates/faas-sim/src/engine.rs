//! The discrete-event cluster simulation engine.
//!
//! Replays a schedule of arrivals against a virtual cluster in virtual
//! time: arrivals are load-balanced to nodes, served warm when an idle
//! sandbox exists, cold-started when memory allows (evicting per the
//! keep-alive policy), and queued FIFO otherwise. The engine measures
//! exactly the quantities the paper's motivating research areas care
//! about: cold-start counts, response times, memory wasted by idle
//! sandboxes, and per-node utilization.
//!
//! The engine is generic over [`ScheduleSource`]: a materialized
//! [`RequestTrace`](faasrail_core::RequestTrace) replays exact requests,
//! while a lazy [`ArrivalStream`](faasrail_core::ArrivalStream) generates
//! arrivals on demand. Arrivals never enter the event queue
//! ([`crate::queue`]): it holds only the *active horizon* — a finish per
//! busy core, scheduled faults, pending prewarms, and the expiry of every
//! sandbox parked within the last TTL, each TTL's in a FIFO lane of its
//! own — so peak memory grows with the arrival rate times the TTL, never
//! with how many invocations the schedule contains. That is what lets one
//! machine simulate a full Azure day (~10⁹ invocations, ≈ 6 × 10⁶ expiries
//! pending under the ten-minute TTL) without materializing the request
//! vector.
//!
//! Arrivals come in through the hand-off ([`crate::handoff`]): when a core
//! is free, the source's cursor runs on a helper thread ahead of the
//! engine and passes its arrivals over in batches; otherwise the engine
//! expands the cursor itself. The event loop reads one stream of arrivals
//! either way, in the same order, so no result can depend on which way
//! they came.

use crate::cluster::{ClusterConfig, Refused};
use crate::handoff;
use crate::index::{QueuedReq, Sandbox};
use crate::keepalive::KeepAlivePolicy;
use crate::lifecycle::{Armed, Lifecycle, Timer};
use crate::metrics::SimMetrics;
use crate::queue::{Due, EventQueue};
use crate::scheduler::LoadBalancer;
use faasrail_core::{Arrival, ArrivalCursor, ScheduleSource};
use faasrail_stats::rng::{seeded_rng, Xoshiro256pp};
use faasrail_stats::sampler::{LogNormal, Sampler};
use faasrail_telemetry::{
    EventSink, InvocationSpan, NullSink, OutcomeClass, RunInfo, RunSummary, TelemetryEvent,
};
use faasrail_workloads::WorkloadPool;

/// A node-level fault injected into the virtual cluster — the simulator's
/// counterpart of the gateway's seeded connection faults. Crashes model a
/// worker machine dying mid-experiment (everything in flight lost, the
/// warm-sandbox cache gone); slow factors model persistent stragglers
/// (thermal throttling, noisy neighbours) that degrade service without
/// failing outright.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// Which node (index into the cluster).
    pub node: u32,
    /// Crash the node at this virtual instant (ms from experiment start):
    /// running invocations are killed, queued requests are lost, and all
    /// idle sandboxes vanish. The node restarts immediately with cold
    /// memory and keeps serving later arrivals.
    pub crash_at_ms: Option<u64>,
    /// Persistent service-time multiplier for this node (`1.0` = healthy,
    /// `3.0` = three times slower). Applies to service time only — cold
    /// start initialization is memory-bound, not core-bound, in this model.
    pub slow_factor: f64,
}

impl Default for NodeFault {
    fn default() -> Self {
        NodeFault { node: 0, crash_at_ms: None, slow_factor: 1.0 }
    }
}

/// Engine options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Log-normal sigma for per-invocation service-time jitter around the
    /// workload's mean (0 = deterministic service times).
    pub service_jitter_sigma: f64,
    /// RNG seed for the jitter.
    pub seed: u64,
    /// Node-level faults (crashes, slow nodes); empty = healthy cluster.
    pub node_faults: Vec<NodeFault>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { service_jitter_sigma: 0.0, seed: 0, node_faults: Vec::new() }
    }
}

impl SimOptions {
    /// Validate the options: a finite jitter sigma of at least 0, and for
    /// every fault a finite slow factor above 0 and a crash instant whose
    /// microseconds fit in a `u64`.
    pub fn validate(&self) -> Result<(), Refused> {
        let sigma = self.service_jitter_sigma;
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(Refused {
                field: "service_jitter_sigma",
                why: "must be finite and at least 0",
            });
        }
        for f in &self.node_faults {
            if !(f.slow_factor.is_finite() && f.slow_factor > 0.0) {
                return Err(Refused { field: "slow_factor", why: "must be finite and above 0" });
            }
            if f.crash_at_ms.is_some_and(|ms| ms.checked_mul(1_000).is_none()) {
                return Err(Refused {
                    field: "crash_at_ms",
                    why: "must fit in a u64 as microseconds",
                });
            }
        }
        Ok(())
    }
}

/// Internal (non-arrival) events. Arrivals never enter the queue: they are
/// pulled from the schedule cursor and interleaved by timestamp, with
/// arrivals winning ties — the same order the historic all-arrivals-in-heap
/// implementation produced, where every arrival's sequence number preceded
/// every dynamically scheduled event's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// An invocation finished on `node`; `key` identifies the slab entry.
    Finish { node: u32, key: u64 },
    /// A timer the lifecycle core armed (expiry, prewarm) has come due.
    Lifecycle(Timer),
    /// `node` crashes: in-flight and queued work is lost, warm state gone.
    Crash { node: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Running {
    node: u32,
    sandbox: Sandbox,
    arrival_seq: u64,
    function_index: u32,
    arrived_us: u64,
    /// Virtual instant the invocation left the queue and began executing.
    started_us: u64,
    /// Jitter/slowdown-adjusted service time (excludes cold-start init).
    service_ms: f64,
    started_cold: bool,
}

/// In-flight invocations in a generation-stamped slab. Keys are
/// `generation << 32 | slot`: a slot freed by a crash and later reused
/// keeps the stale Finish event harmless (its generation no longer
/// matches), which is how crash tombstones work without a hash map on the
/// hot path. Occupancy is bounded by the cluster's core count.
#[derive(Default)]
struct RunSlab {
    slots: Vec<(u32, Option<Running>)>,
    free: Vec<u32>,
}

impl RunSlab {
    fn with_capacity(cap: usize) -> Self {
        RunSlab { slots: Vec::with_capacity(cap), free: Vec::new() }
    }

    fn insert(&mut self, run: Running) -> u64 {
        let idx = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                self.slots.push((0, None));
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        debug_assert!(slot.1.is_none());
        slot.1 = Some(run);
        ((slot.0 as u64) << 32) | idx as u64
    }

    fn remove(&mut self, key: u64) -> Option<Running> {
        let idx = (key & 0xFFFF_FFFF) as usize;
        let generation = (key >> 32) as u32;
        let slot = self.slots.get_mut(idx)?;
        if slot.0 != generation {
            return None;
        }
        let run = slot.1.take()?;
        slot.0 = slot.0.wrapping_add(1);
        self.free.push(idx as u32);
        Some(run)
    }

    /// Remove and return every entry running on `node` (crash path).
    fn take_node(&mut self, node: u32) -> Vec<Running> {
        let mut doomed = Vec::new();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.1.is_some_and(|r| r.node == node) {
                doomed.push(slot.1.take().expect("checked occupied"));
                slot.0 = slot.0.wrapping_add(1);
                self.free.push(idx as u32);
            }
        }
        doomed
    }
}

/// The span of `run`, over at `completed_us`: served, or killed by a node
/// crash (anything but [`OutcomeClass::Ok`]).
fn span(run: &Running, completed_us: u64, outcome: OutcomeClass) -> TelemetryEvent {
    let ok = outcome == OutcomeClass::Ok;
    TelemetryEvent::Invocation(InvocationSpan {
        trace_id: 0, // single-tier: nothing to join against
        seq: run.arrival_seq,
        workload: run.sandbox.workload.0 as u64,
        function_index: run.function_index,
        scheduled_ms: run.arrived_us / 1_000,
        target_us: run.arrived_us,
        dispatched_us: run.arrived_us,
        picked_up_us: run.started_us,
        completed_us,
        service_ms: if ok { run.service_ms } else { 0.0 },
        outcome,
        cold_start: run.started_cold,
        error: (!ok).then(|| "node crash".to_string()),
    })
}

/// Shared mutable simulation state; methods replace what used to be free
/// functions threading fifteen parameters each.
struct Engine<'a> {
    pool: &'a WorkloadPool,
    cluster: &'a ClusterConfig,
    jitter: Option<LogNormal>,
    rng: Xoshiro256pp,
    slow: Vec<f64>,
    /// Sandboxes and memory, over the cluster index (`life.index`: all
    /// cluster state a balancer can see). The engine itself moves only
    /// cores and queues there.
    life: Lifecycle,
    /// Crashes are filed first so that, among equal timestamps, a crash
    /// fires before any Finish/Expire/Prewarm — exactly the historic
    /// ordering.
    queue: EventQueue<EventKind>,
    running: RunSlab,
    metrics: SimMetrics,
}

impl Engine<'_> {
    fn arm(&mut self, now_us: u64, timer: Option<Armed>) {
        if let Some((due, timer)) = timer {
            self.queue.push(now_us, due, EventKind::Lifecycle(timer));
        }
    }

    /// Try to start `req` on `node_idx` at `now_us`. Returns false if it
    /// must queue. On success, schedules the Finish event.
    fn try_start(
        &mut self,
        node_idx: usize,
        req: QueuedReq,
        now_us: u64,
        policy: &mut dyn KeepAlivePolicy,
    ) -> bool {
        if self.life.index.node(node_idx).busy_cores >= self.cluster.cores_per_node {
            return false;
        }
        let w = self.pool.get(req.workload).expect("workload in pool");
        let mut service_ms = w.mean_ms * self.slow[node_idx];
        if let Some(j) = &self.jitter {
            service_ms *= j.sample(&mut self.rng);
        }

        let Some((sandbox, cold)) = self.life.acquire(node_idx, req.workload, now_us, policy)
        else {
            return false;
        };

        self.life.index.update(node_idx, |n| n.busy_cores += 1);
        let total_ms = service_ms + if cold { sandbox.init_cost_ms } else { 0.0 };
        self.metrics.busy_core_ms += total_ms;
        self.metrics.per_node_busy_ms[node_idx] += total_ms;
        let finish_us = now_us.saturating_add((total_ms * 1_000.0) as u64);
        let run_key = self.running.insert(Running {
            node: node_idx as u32,
            sandbox,
            arrival_seq: req.arrival_seq,
            function_index: req.function_index,
            arrived_us: req.arrived_us,
            started_us: now_us,
            service_ms,
            started_cold: cold,
        });
        let finish = EventKind::Finish { node: node_idx as u32, key: run_key };
        self.queue.push(now_us, Due::At(finish_us), finish);
        true
    }

    /// Debug builds re-derive the index from scratch between events: each
    /// of a run's first 1024 (most unit and property test cases end
    /// sooner), then every 1024th, because the audit costs O(state) and
    /// debug-build tests elsewhere replay millions of events.
    fn audit(&self) {
        let events = self.metrics.sim_events;
        if cfg!(debug_assertions) && (events < 1024 || events.is_multiple_of(1024)) {
            let mut running_mb = vec![0.0; self.cluster.nodes];
            for run in self.running.slots.iter().filter_map(|slot| slot.1.as_ref()) {
                running_mb[run.node as usize] += run.sandbox.memory_mb;
            }
            self.life.index.audit(&running_mb);
        }
    }

    /// The event loop: interleave `cursor`'s arrivals with the event queue
    /// until both are empty. Returns the last instant anything happened.
    fn run(
        &mut self,
        cursor: &mut impl ArrivalCursor,
        balancer: &mut dyn LoadBalancer,
        policy: &mut dyn KeepAlivePolicy,
        sink: &dyn EventSink,
    ) -> u64 {
        let spans_enabled = sink.enabled();
        let mut pending = cursor.next_arrival();
        let mut arrival_seq: u64 = 0;
        let mut last_us = 0u64;

        loop {
            self.audit();
            // Interleave the arrival stream with the internal event queue;
            // arrivals win ties (see `EventKind`).
            let take_arrival = match (&pending, self.queue.peek()) {
                (Some(a), Some((at_us, _))) => a.at_ms * 1_000 <= at_us,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            self.metrics.sim_events += 1;

            if take_arrival {
                let Arrival { at_ms, workload, function_index } =
                    pending.take().expect("checked above");
                pending = cursor.next_arrival();
                let now_us = at_ms * 1_000;
                last_us = last_us.max(now_us);

                self.metrics.arrivals += 1;
                policy.on_arrival(workload, now_us / 1_000);
                let target = balancer.pick(workload, &self.life.index).min(self.cluster.nodes - 1);
                let req = QueuedReq { arrival_seq, function_index, arrived_us: now_us, workload };
                arrival_seq += 1;
                if !self.try_start(target, req, now_us, policy) {
                    self.life.index.update(target, |n| n.queue.push_back(req));
                    self.metrics.max_queue =
                        self.metrics.max_queue.max(self.life.index.queued_total());
                }
                continue;
            }

            let (now_us, kind) = self.queue.pop().expect("checked above");
            last_us = last_us.max(now_us);
            match kind {
                EventKind::Finish { node, key } => {
                    // A missing entry is a tombstone: the invocation was killed
                    // by a node crash before its finish event fired.
                    let Some(run) = self.running.remove(key) else { continue };
                    debug_assert_eq!(run.node, node);
                    debug_assert!(run.started_cold || run.sandbox.uses >= 1);
                    self.life.index.update(node as usize, |n| n.busy_cores -= 1);
                    self.metrics.completions += 1;
                    // Response includes queueing and (for cold starts) the
                    // sandbox creation delay by construction.
                    self.metrics
                        .response
                        .record(((now_us - run.arrived_us) as f64 / 1e6).max(1e-9));
                    if spans_enabled {
                        sink.emit(&span(&run, now_us, OutcomeClass::Ok));
                    }
                    let expiry = self.life.release(node as usize, run.sandbox, now_us, policy);
                    self.arm(now_us, expiry);

                    // Drain the node's queue (FIFO head-of-line).
                    self.drain_queue(node as usize, now_us, policy);
                }
                EventKind::Lifecycle(timer) => {
                    let fired = self.life.fire(timer, now_us, policy);
                    self.arm(now_us, fired.arm);
                    if let Some(node) = fired.freed {
                        // Freed memory may unblock the head of the queue.
                        self.drain_queue(node, now_us, policy);
                    }
                }
                EventKind::Crash { node } => {
                    if node as usize >= self.cluster.nodes {
                        continue;
                    }
                    // In-flight invocations die with the node; their Finish
                    // events become tombstones (the Finish arm tolerates a
                    // dead slab generation).
                    for run in self.running.take_node(node) {
                        self.metrics.killed += 1;
                        if spans_enabled {
                            sink.emit(&span(&run, now_us, OutcomeClass::Transport));
                        }
                    }
                    // Warm state is gone: account idle time up to the crash,
                    // then drop every sandbox. Queued work is lost too.
                    self.metrics.killed += self.life.crash(node as usize, now_us);
                }
            }
        }
        last_us
    }

    /// Start as many queued requests as now fit (FIFO head-of-line).
    fn drain_queue(&mut self, node_idx: usize, now_us: u64, policy: &mut dyn KeepAlivePolicy) {
        while let Some(&front) = self.life.index.node(node_idx).queue.front() {
            if self.try_start(node_idx, front, now_us, policy) {
                let waited = (now_us - front.arrived_us) as f64 / 1e6;
                self.metrics.queue_wait.record(waited.max(1e-9));
                self.life.index.update(node_idx, |n| n.queue.pop_front());
            } else {
                break;
            }
        }
    }
}

/// Run the simulation.
pub fn simulate<S: ScheduleSource + ?Sized>(
    source: &S,
    pool: &WorkloadPool,
    cluster: &ClusterConfig,
    balancer: &mut dyn LoadBalancer,
    policy: &mut dyn KeepAlivePolicy,
    opts: &SimOptions,
) -> SimMetrics {
    simulate_observed(source, pool, cluster, balancer, policy, opts, &NullSink)
}

/// Run the simulation, emitting a telemetry event stream as it goes.
///
/// The emitted spans carry *virtual* timestamps (microseconds of simulated
/// time since experiment start), so the same `faasrail report` pipeline
/// that digests a wall-clock replay log works on simulator output:
/// `dispatched_us` is the arrival instant (the simulator's open-loop
/// schedule never lags), `picked_up_us` is when a core started executing
/// the invocation (queue wait in between), and cold-start initialization
/// shows up as overhead between pickup and completion beyond `service_ms`.
/// Invocations killed by a node crash become [`OutcomeClass::Transport`]
/// spans; requests still queued when a node dies (or starved at the end of
/// the run) never started and get no span. Span `seq` is the arrival's
/// 0-based position in schedule (time) order.
///
/// When the sink reports [`enabled() == false`](EventSink::enabled) — true
/// of the [`NullSink`] the plain [`simulate`] uses — per-invocation span
/// construction is skipped entirely, which matters at 10⁹ completions.
#[allow(clippy::too_many_arguments)]
pub fn simulate_observed<S: ScheduleSource + ?Sized>(
    source: &S,
    pool: &WorkloadPool,
    cluster: &ClusterConfig,
    balancer: &mut dyn LoadBalancer,
    policy: &mut dyn KeepAlivePolicy,
    opts: &SimOptions,
    sink: &dyn EventSink,
) -> SimMetrics {
    cluster.validate().expect("invalid cluster");
    opts.validate().expect("invalid simulation options");
    sink.emit(&TelemetryEvent::RunStart(RunInfo {
        requests: source.arrivals_hint(),
        duration_minutes: source.duration_minutes() as u64,
        workers: (cluster.nodes * cluster.cores_per_node) as u64,
        pacing: "simulated".to_string(),
        compression: 1.0,
    }));
    let mut metrics = SimMetrics::new(policy.name(), balancer.name());
    metrics.per_node_busy_ms = vec![0.0; cluster.nodes];
    let total_cores = cluster.nodes * cluster.cores_per_node;
    let mut engine = Engine {
        pool,
        cluster,
        jitter: (opts.service_jitter_sigma > 0.0)
            .then(|| LogNormal::new(0.0, opts.service_jitter_sigma)),
        rng: seeded_rng(opts.seed),
        slow: vec![1.0f64; cluster.nodes],
        life: Lifecycle::new(cluster, pool),
        // Sized for the keys that need no lane: a Finish per core, the
        // faults, a few prewarms and lane fronts.
        queue: EventQueue::with_capacity(total_cores + opts.node_faults.len() + 64),
        running: RunSlab::with_capacity(total_cores),
        metrics,
    };

    // Node-fault setup: per-node service slowdown, plus scheduled crashes.
    for f in &opts.node_faults {
        let Some(s) = engine.slow.get_mut(f.node as usize) else { continue };
        *s *= f.slow_factor;
        if let Some(crash_ms) = f.crash_at_ms {
            let crash = EventKind::Crash { node: f.node };
            engine.queue.push(0, Due::At(crash_ms.saturating_mul(1_000)), crash);
        }
    }

    // Arrivals come from the schedule's cursor, expanded here or on a
    // helper (`handoff`); the engine sees the same stream either way.
    let _engine_core = handoff::engine_core();
    let last_us = match handoff::helper_core() {
        Some(core) => handoff::feed(source, core, |feed| engine.run(feed, balancer, policy, sink)),
        None => engine.run(&mut source.cursor(), balancer, policy, sink),
    };

    // What the lifecycle counted, with the sandboxes still warm at the end
    // charged for their idle memory up to it.
    metrics = engine.metrics;
    let life = engine.life.stats_at(last_us);
    metrics.cold_starts = life.cold_starts;
    metrics.warm_starts = life.warm_starts;
    metrics.evictions = life.evictions;
    metrics.expirations = life.expirations;
    metrics.prewarms = life.prewarms;
    metrics.sandboxes_lost = life.sandboxes_lost;
    metrics.idle_mb_ms = life.idle_mb_ms;
    // Anything still queued never ran (cluster too small).
    metrics.starved = engine.life.index.queued_total();
    metrics.duration_ms = last_us as f64 / 1_000.0;
    metrics.total_cores = total_cores as u64;
    sink.emit(&TelemetryEvent::RunEnd(RunSummary {
        issued: metrics.arrivals,
        completed: metrics.completions,
        errors: metrics.killed + metrics.starved,
        aborted: false,
        wall_us: last_us,
    }));
    sink.flush();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keepalive::{FixedTtl, LruPolicy};
    use crate::scheduler::{LeastLoaded, RoundRobin, WarmFirst};
    use faasrail_core::{Request, RequestTrace};
    use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};

    fn pool() -> WorkloadPool {
        WorkloadPool::vanilla(&CostModel::default_calibration())
    }

    fn trace_of(reqs: Vec<(u64, u32)>) -> RequestTrace {
        RequestTrace {
            duration_minutes: 1 + reqs.iter().map(|r| r.0).max().unwrap_or(0) as usize / 60_000,
            requests: reqs
                .into_iter()
                .map(|(at_ms, w)| Request { at_ms, workload: WorkloadId(w), function_index: w })
                .collect(),
        }
    }

    #[test]
    fn first_invocation_is_cold_second_is_warm() {
        let trace = trace_of(vec![(0, 7), (5_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl::ten_minutes();
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
        );
        assert_eq!(m.arrivals, 2);
        assert_eq!(m.completions, 2);
        assert_eq!(m.cold_starts, 1);
        assert_eq!(m.warm_starts, 1);
    }

    #[test]
    fn ttl_expiry_causes_second_cold_start() {
        // Second request arrives *after* the keep-alive window.
        let trace = trace_of(vec![(0, 7), (120_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl { ttl_ms: 60_000 };
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
        );
        assert_eq!(m.cold_starts, 2);
        // Both sandboxes eventually idle out (the second expires at sim end).
        assert_eq!(m.expirations, 2);
    }

    #[test]
    fn memory_pressure_evicts() {
        // Node fits one big sandbox at a time; alternating workloads force
        // eviction on every switch.
        let trace = trace_of(vec![(0, 1), (5_000, 9), (10_000, 1), (15_000, 9)]);
        let mut lb = RoundRobin::default();
        let mut ka = LruPolicy;
        // cnn (id 1) is ~269 MiB, video (id 9) ~128 MiB: 300 MiB node holds
        // only one at a time.
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 300.0),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
        );
        assert_eq!(m.completions, 4);
        assert_eq!(m.cold_starts, 4, "every arrival must cold start");
        assert!(m.evictions >= 3, "evictions = {}", m.evictions);
    }

    #[test]
    fn queueing_when_cores_exhausted() {
        // 1 core, burst of 4 long-ish requests at t=0 → 3 queue.
        let trace = trace_of(vec![(0, 4), (0, 4), (0, 4), (0, 4)]);
        let mut lb = LeastLoaded;
        let mut ka = FixedTtl::ten_minutes();
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(1, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
        );
        assert_eq!(m.completions, 4);
        assert!(m.max_queue >= 3);
        // Three requests waited in the queue, and the serialized service
        // must show up in the response-time spread.
        assert_eq!(m.queue_wait.total(), 3);
        assert!(m.response.quantile(0.99) > 1.5 * m.response.quantile(0.05));
    }

    #[test]
    fn warm_first_beats_round_robin_on_cold_starts() {
        // 40 requests to one workload over 4 nodes: warm-first concentrates
        // them on the node that already has the sandbox.
        let reqs: Vec<(u64, u32)> = (0..40).map(|i| (i * 2_000, 7)).collect();
        let trace = trace_of(reqs);
        let cluster = ClusterConfig { nodes: 4, ..Default::default() };
        let run = |lb: &mut dyn LoadBalancer| {
            let mut ka = FixedTtl::ten_minutes();
            simulate(&trace, &pool(), &cluster, lb, &mut ka, &SimOptions::default())
        };
        let rr = run(&mut RoundRobin::default());
        let wf = run(&mut WarmFirst);
        assert!(
            wf.cold_starts < rr.cold_starts,
            "warm-first {} vs round-robin {}",
            wf.cold_starts,
            rr.cold_starts
        );
        assert_eq!(wf.cold_starts, 1);
    }

    #[test]
    fn deterministic_without_jitter() {
        let reqs: Vec<(u64, u32)> = (0..50).map(|i| (i * 500, (i % 10) as u32)).collect();
        let trace = trace_of(reqs);
        let run = || {
            let mut lb = LeastLoaded;
            let mut ka = FixedTtl::ten_minutes();
            simulate(
                &trace,
                &pool(),
                &ClusterConfig::default(),
                &mut lb,
                &mut ka,
                &SimOptions::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.idle_mb_ms, b.idle_mb_ms);
    }

    #[test]
    fn idle_memory_accumulates() {
        let trace = trace_of(vec![(0, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = LruPolicy; // no TTL: sandbox idles until sim end
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
        );
        // Sim ends at the single finish; no idle time accrues afterwards,
        // so idle_mb_ms is ~0 — but with a TTL the expiry extends the sim.
        let mut ka2 = FixedTtl { ttl_ms: 30_000 };
        let mut lb2 = RoundRobin::default();
        let m2 = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb2,
            &mut ka2,
            &SimOptions::default(),
        );
        assert!(m2.idle_mb_ms > m.idle_mb_ms);
        assert!(m2.idle_mb_ms > 30_000.0 * 30.0, "idle_mb_ms = {}", m2.idle_mb_ms);
    }

    #[test]
    fn hybrid_histogram_adapts_to_interarrival_times() {
        use crate::keepalive::HybridHistogram;
        // A workload invoked every 5 s: the learned TTL should hug ~5.5 s,
        // far below the 10-minute default — so after the run ends its
        // sandbox expires quickly, wasting far less memory than FixedTtl.
        let reqs: Vec<(u64, u32)> = (0..50).map(|i| (i * 5_000, 7)).collect();
        let trace = trace_of(reqs);
        let cluster = ClusterConfig::single_node(4, 4_096.0);
        let mut lb = RoundRobin::default();
        let mut hybrid = HybridHistogram::new();
        let mh = simulate(&trace, &pool(), &cluster, &mut lb, &mut hybrid, &SimOptions::default());
        let mut lb2 = RoundRobin::default();
        let mut fixed = FixedTtl::ten_minutes();
        let mf = simulate(&trace, &pool(), &cluster, &mut lb2, &mut fixed, &SimOptions::default());
        // Same service quality (steady arrivals stay warm under both)...
        assert_eq!(mh.completions, 50);
        assert_eq!(mh.cold_starts, 1, "steady workload must stay warm");
        assert_eq!(mf.cold_starts, 1);
        // ...but the adaptive policy wastes much less idle memory, because
        // the trailing keep-alive window is ~5.5 s instead of 10 min.
        // (During-run idle between 5 s arrivals is identical for both; the
        // saving comes from the trailing window: ~5.5 s vs 600 s.)
        assert!(
            mh.idle_mb_ms * 2.5 < mf.idle_mb_ms,
            "hybrid idle {} vs fixed idle {}",
            mh.idle_mb_ms,
            mf.idle_mb_ms
        );
    }

    #[test]
    fn prewarming_saves_memory_without_extra_cold_starts() {
        use crate::keepalive::HybridHistogram;
        // A periodic workload invoked every 60 s. Plain hybrid keeps the
        // sandbox warm across the whole gap; prewarming expires it early and
        // re-creates it just before the next predicted arrival.
        let reqs: Vec<(u64, u32)> = (0..30).map(|i| (i * 60_000, 7)).collect();
        let trace = trace_of(reqs);
        let cluster = ClusterConfig::single_node(4, 4_096.0);
        let run = |ka: &mut dyn crate::keepalive::KeepAlivePolicy| {
            let mut lb = RoundRobin::default();
            simulate(&trace, &pool(), &cluster, &mut lb, ka, &SimOptions::default())
        };
        let mut plain = HybridHistogram::new();
        let mp = run(&mut plain);
        let mut pre = HybridHistogram::new().with_prewarming();
        let mr = run(&mut pre);
        assert_eq!(mp.completions, 30);
        assert_eq!(mr.completions, 30);
        assert!(mr.prewarms > 10, "prewarms = {}", mr.prewarms);
        // Warm-hit quality comparable after warm-up...
        assert!(
            mr.cold_starts <= mp.cold_starts + 6,
            "prewarming cold {} vs plain {}",
            mr.cold_starts,
            mp.cold_starts
        );
        // ...at substantially less idle memory.
        assert!(
            mr.idle_mb_ms * 1.5 < mp.idle_mb_ms,
            "prewarm idle {} vs plain idle {}",
            mr.idle_mb_ms,
            mp.idle_mb_ms
        );
    }

    #[test]
    fn hybrid_histogram_learns_counts() {
        use crate::keepalive::HybridHistogram;
        let mut p = HybridHistogram::new();
        // Before warm-up: default 10-minute window.
        assert_eq!(p.idle_ttl_ms(WorkloadId(3)), Some(600_000));
        for i in 0..10u64 {
            p.on_arrival(WorkloadId(3), i * 2_000);
        }
        assert_eq!(p.observed(WorkloadId(3)), 10);
        let ttl = p.idle_ttl_ms(WorkloadId(3)).unwrap();
        // Learned ~2 s inter-arrival → TTL near 2.2 s (log-bucket slack).
        assert!((1_500..5_000).contains(&ttl), "learned ttl = {ttl}");
    }

    #[test]
    fn jitter_changes_times_not_counts() {
        let reqs: Vec<(u64, u32)> = (0..20).map(|i| (i * 1_000, 7)).collect();
        let trace = trace_of(reqs);
        let mut lb = LeastLoaded;
        let mut ka = FixedTtl::ten_minutes();
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::default(),
            &mut lb,
            &mut ka,
            &SimOptions { service_jitter_sigma: 0.3, seed: 9, ..Default::default() },
        );
        assert_eq!(m.completions, 20);
    }

    #[test]
    fn crash_kills_in_flight_request_but_node_recovers() {
        // The request at t=0 is mid-flight (cold init alone exceeds 1 ms)
        // when the node crashes; the request ten minutes later lands on the
        // restarted node and must cold-start again.
        let trace = trace_of(vec![(0, 7), (600_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl::ten_minutes();
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions {
                node_faults: vec![NodeFault {
                    node: 0,
                    crash_at_ms: Some(1),
                    ..Default::default()
                }],
                ..Default::default()
            },
        );
        assert_eq!(m.arrivals, 2);
        assert_eq!(m.killed, 1);
        assert_eq!(m.completions, 1);
        assert_eq!(m.cold_starts, 2, "restarted node has no warm state");
        assert_eq!(m.completions + m.starved + m.killed, m.arrivals);
    }

    #[test]
    fn crash_destroys_idle_sandboxes() {
        // First request completes well before the crash at t=60s; its warm
        // sandbox (ten-minute TTL) dies with the node, so the second
        // request cold-starts even though it arrives inside the TTL.
        let trace = trace_of(vec![(0, 7), (120_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl::ten_minutes();
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions {
                node_faults: vec![NodeFault {
                    node: 0,
                    crash_at_ms: Some(60_000),
                    ..Default::default()
                }],
                ..Default::default()
            },
        );
        assert_eq!(m.killed, 0);
        assert_eq!(m.sandboxes_lost, 1);
        assert_eq!(m.completions, 2);
        assert_eq!(m.cold_starts, 2, "warm cache lost in the crash");
    }

    #[test]
    fn crash_loses_queued_requests_too() {
        // 1 core, burst of 4: one running + three queued when the node
        // dies. Nothing completes, nothing is left starved at drain — the
        // crash accounts for all four.
        let trace = trace_of(vec![(0, 4), (0, 4), (0, 4), (0, 4)]);
        let mut lb = LeastLoaded;
        let mut ka = FixedTtl::ten_minutes();
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(1, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions {
                node_faults: vec![NodeFault {
                    node: 0,
                    crash_at_ms: Some(1),
                    ..Default::default()
                }],
                ..Default::default()
            },
        );
        assert_eq!(m.completions, 0);
        assert_eq!(m.killed, 4);
        assert_eq!(m.starved, 0);
        assert_eq!(m.completions + m.starved + m.killed, m.arrivals);
    }

    #[test]
    fn slow_node_inflates_busy_time_not_counts() {
        let reqs: Vec<(u64, u32)> = (0..10).map(|i| (i * 2_000, 7)).collect();
        let run = |faults: Vec<NodeFault>| {
            let mut lb = RoundRobin::default();
            let mut ka = FixedTtl::ten_minutes();
            simulate(
                &trace_of(reqs.clone()),
                &pool(),
                &ClusterConfig::single_node(4, 4_096.0),
                &mut lb,
                &mut ka,
                &SimOptions { node_faults: faults, ..Default::default() },
            )
        };
        let healthy = run(Vec::new());
        let straggler = run(vec![NodeFault { node: 0, slow_factor: 4.0, ..Default::default() }]);
        assert_eq!(straggler.completions, healthy.completions);
        assert!(
            straggler.busy_core_ms > 1.5 * healthy.busy_core_ms,
            "slow node busy {} vs healthy {}",
            straggler.busy_core_ms,
            healthy.busy_core_ms
        );
        assert!(straggler.response.quantile(0.5) > healthy.response.quantile(0.5));
    }

    #[test]
    fn observed_simulation_emits_sim_time_spans() {
        use faasrail_telemetry::RingSink;
        let trace = trace_of(vec![(0, 7), (5_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl::ten_minutes();
        let sink = RingSink::with_capacity(16);
        let m = simulate_observed(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
            &sink,
        );
        let events = sink.events();
        assert!(matches!(events.first(), Some(TelemetryEvent::RunStart(_))));
        let Some(TelemetryEvent::RunEnd(end)) = events.last() else {
            panic!("stream must end with run_end");
        };
        assert_eq!(end.issued, m.arrivals);
        assert_eq!(end.completed, m.completions);
        assert_eq!(end.errors, 0);

        let spans: Vec<&InvocationSpan> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Invocation(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len() as u64, m.completions);
        assert!(spans[0].cold_start && !spans[1].cold_start);
        for s in &spans {
            assert_eq!(s.outcome, OutcomeClass::Ok);
            assert!(s.dispatched_us <= s.picked_up_us);
            assert!(s.picked_up_us <= s.completed_us);
            assert!(s.service_ms > 0.0);
        }
        // Cold-start init is visible as pickup→completion overhead beyond
        // the service time; the warm invocation has none (virtual time, so
        // the decomposition is exact up to microsecond truncation).
        assert!(spans[0].overhead_s() > 0.0);
        assert_eq!(spans[1].overhead_s(), 0.0);
        // Idle cluster: no queue wait, dispatch == arrival.
        assert_eq!(spans[1].dispatched_us, 5_000_000);
        assert_eq!(spans[1].queue_wait_s(), 0.0);
    }

    #[test]
    fn observed_simulation_records_crash_kills_as_transport_spans() {
        use faasrail_telemetry::RingSink;
        let trace = trace_of(vec![(0, 7), (600_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl::ten_minutes();
        let sink = RingSink::with_capacity(16);
        let m = simulate_observed(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions {
                node_faults: vec![NodeFault {
                    node: 0,
                    crash_at_ms: Some(1),
                    ..Default::default()
                }],
                ..Default::default()
            },
            &sink,
        );
        assert_eq!(m.killed, 1);
        let events = sink.events();
        let spans: Vec<&InvocationSpan> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Invocation(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        let killed: Vec<_> =
            spans.iter().filter(|s| s.outcome == OutcomeClass::Transport).collect();
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].seq, 0, "the t=0 request died in the crash");
        assert_eq!(killed[0].error.as_deref(), Some("node crash"));
        assert_eq!(killed[0].completed_us, 1_000, "killed at the crash instant");
        let Some(TelemetryEvent::RunEnd(end)) = events.last() else {
            panic!("stream must end with run_end");
        };
        assert_eq!(end.errors, m.killed + m.starved);
    }

    #[test]
    fn out_of_range_fault_node_is_ignored() {
        let trace = trace_of(vec![(0, 7), (1_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl::ten_minutes();
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions {
                node_faults: vec![NodeFault { node: 99, crash_at_ms: Some(1), slow_factor: 10.0 }],
                ..Default::default()
            },
        );
        assert_eq!(m.completions, 2);
        assert_eq!(m.killed, 0);
        assert_eq!(m.sandboxes_lost, 0);
    }

    #[test]
    fn options_validation_names_the_refused_field() {
        assert_eq!(SimOptions::default().validate(), Ok(()));
        let refused = |opts: SimOptions| opts.validate().unwrap_err().field;
        for sigma in [f64::INFINITY, f64::NAN, -1.0] {
            let opts = SimOptions { service_jitter_sigma: sigma, ..Default::default() };
            assert_eq!(refused(opts), "service_jitter_sigma", "{sigma}");
        }
        let faulty =
            |fault: NodeFault| SimOptions { node_faults: vec![fault], ..Default::default() };
        for slow_factor in [f64::INFINITY, f64::NAN, -2.0, 0.0] {
            let opts = faulty(NodeFault { slow_factor, ..Default::default() });
            assert_eq!(refused(opts), "slow_factor", "{slow_factor}");
        }
        let late = NodeFault { crash_at_ms: Some(u64::MAX / 1_000 + 1), ..Default::default() };
        assert_eq!(refused(faulty(late)), "crash_at_ms");
        let latest = NodeFault { crash_at_ms: Some(u64::MAX / 1_000), ..Default::default() };
        assert_eq!(faulty(latest).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid simulation options")]
    fn simulate_refuses_options_validate_refuses() {
        let opts = SimOptions { service_jitter_sigma: -1.0, ..Default::default() };
        let (mut lb, mut ka) = (RoundRobin::default(), FixedTtl::ten_minutes());
        let cluster = ClusterConfig::single_node(4, 4_096.0);
        simulate(&trace_of(vec![(0, 7)]), &pool(), &cluster, &mut lb, &mut ka, &opts);
    }

    #[test]
    fn sim_events_counts_arrivals_and_internal_events() {
        // Two arrivals served warm/cold on an idle node with a TTL policy:
        // 2 arrivals + 2 finishes + 2 expiries = 6 discrete events.
        let trace = trace_of(vec![(0, 7), (5_000, 7)]);
        let mut lb = RoundRobin::default();
        let mut ka = FixedTtl { ttl_ms: 60_000 };
        let m = simulate(
            &trace,
            &pool(),
            &ClusterConfig::single_node(4, 4_096.0),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
        );
        assert_eq!(m.sim_events, 6);
        assert!(m.sim_events >= m.arrivals + m.completions);
    }

    #[test]
    fn lazy_stream_source_matches_materialized_trace() {
        // The engine is generic over the schedule source: a lazy
        // ArrivalStream and the trace it materializes to must produce
        // byte-identical metrics (the lab's core equivalence).
        use faasrail_core::{
            materialize, ArrivalStream, ExperimentSpec, IatModel, ScheduleModel, SpecEntry,
        };
        let spec = ExperimentSpec {
            duration_minutes: 3,
            target_max_rps: 10.0,
            iat: IatModel::Poisson,
            entries: (0..6)
                .map(|i| SpecEntry {
                    function_index: i,
                    workload: WorkloadId(i % 10),
                    alternates: vec![],
                    trace_duration_ms: 25.0,
                    per_minute: vec![40, 90, 15],
                })
                .collect(),
        };
        let model = ScheduleModel::from_spec(&spec);
        let stream = ArrivalStream::new(&model, 17);
        let trace = materialize(&stream);
        assert!(trace.len() > 100, "spec must generate real load");

        let run_lazy = || {
            let mut lb = WarmFirst;
            let mut ka = FixedTtl::ten_minutes();
            simulate(
                &stream,
                &pool(),
                &ClusterConfig::default(),
                &mut lb,
                &mut ka,
                &SimOptions::default(),
            )
        };
        let mut lb = WarmFirst;
        let mut ka = FixedTtl::ten_minutes();
        let eager = simulate(
            &trace,
            &pool(),
            &ClusterConfig::default(),
            &mut lb,
            &mut ka,
            &SimOptions::default(),
        );
        assert_eq!(run_lazy(), eager);
        assert_eq!(run_lazy(), eager, "lazy cursor must be re-openable");
    }
}
