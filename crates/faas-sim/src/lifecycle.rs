//! The sandbox lifecycle, stated once: is this invocation cold, who is
//! evicted to make room, when does an idle sandbox die. Time is an
//! argument (`now_us`), the keep-alive policy is an argument, and what
//! comes back is what happened plus the timer to arm — events in, timers
//! out. No clock, no lock, no thread: the discrete-event engine
//! ([`crate::engine`]) and the wall-clock node ([`crate::rt_backend`]) are
//! two executors of these lines, so a disagreement between the tiers is a
//! difference of timing, never of policy.
//!
//! ```text
//!            acquire, none idle: evict idle sandboxes in the policy's
//!            victim order until it fits, then create        (cold start)
//!   (none) ──────────────────────────────────────────────────► RUNNING
//!     │ ▲                                                        │   ▲
//!     │ │ evicted · fire(Expire) under its         release:      │   │ acquire: the most
//!     │ │ current stamp · node crash               re-stamped    ▼   │ recently parked
//!     │ └────────────────────────────────────────────────────── IDLE ─┘ (warm start)
//!     │                                                          ▲
//!     └─ fire(Prewarm): none idle for the workload and the ──────┘
//!        memory is free (never evicts)
//! ```
//!
//! **Timers.** Parking a sandbox ([`Lifecycle::release`], a prewarm) arms
//! `Expire` at `now + policy.idle_ttl_ms` carrying the sandbox's stamp; the
//! stamp changes each time it is parked, so a timer that outlived a reuse or
//! an eviction finds nothing and does nothing. An expiry of a sandbox that
//! served at least one invocation arms `Prewarm` at `last use +
//! policy.prewarm_after_ms` when that is still ahead; a prewarmed sandbox
//! that expires unused arms nothing, or the cycle would feed itself. The
//! executor owns the timer queue: it must fire timers in `(at_us, arming
//! order)` and hand each its own `at_us`, so popping them lazily equals
//! having fired them on time.
//!
//! **Accounting.** Idle memory is charged when a sandbox leaves the idle
//! set — reuse, eviction, expiry, crash — as MiB × ms since it was parked;
//! [`Lifecycle::stats_at`] adds what is still parked. Memory is charged to
//! the node per sandbox, running or idle ([`ClusterIndex::audit`]).
//!
//! **The over-capacity rule.** [`Lifecycle::acquire`] never pushes a node
//! past its memory: when the policy has no victim left and the sandbox still
//! does not fit, it returns `None` (what it evicted on the way stays
//! evicted). The engine queues the request on the node and retries at the
//! next `Finish` or expiry; the wall-clock node has no queue and serves it
//! as an *uncached* cold start — created, run, torn down, holding no node
//! memory and never parked.
//!
//! **What the tiers add.** The engine: cores, FIFO queues, service-time
//! draws, spans, node crashes, and one heap in which these timers share a
//! sequence with its own `Finish` events. The wall-clock node: one mutex, a
//! run-epoch clock read under it, a small timer heap drained before every
//! entry, the cold-start delay and the kernel.

use crate::cluster::{ClusterConfig, ColdStartModel};
use crate::index::{ClusterIndex, Sandbox};
use crate::keepalive::{IdleSandbox, KeepAlivePolicy};
use faasrail_workloads::{WorkloadId, WorkloadPool};

/// What the lifecycle counted; the simulator copies it into
/// [`SimMetrics`](crate::SimMetrics) field for field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LifecycleStats {
    pub cold_starts: u64,
    pub warm_starts: u64,
    /// Idle sandboxes evicted under memory pressure.
    pub evictions: u64,
    /// Idle sandboxes expired by TTL.
    pub expirations: u64,
    /// Sandboxes created speculatively by predictive prewarming.
    pub prewarms: u64,
    /// Idle sandboxes destroyed by node crashes.
    pub sandboxes_lost: u64,
    /// Memory held by idle sandboxes, integrated over time (MiB·ms).
    pub idle_mb_ms: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Timer {
    /// TTL check for the idle sandbox parked under `stamp`.
    Expire { node: u32, workload: WorkloadId, stamp: u64 },
    /// Predictively re-create a warm sandbox for `workload` on `node`.
    Prewarm { node: u32, workload: WorkloadId },
}

/// A timer for the executor to arm: `(at_us, what)`.
pub(crate) type Armed = (u64, Timer);

/// What [`Lifecycle::fire`] did.
#[derive(Default)]
pub(crate) struct Fired {
    /// The node memory came free on (a request queued there may now fit).
    pub freed: Option<usize>,
    pub arm: Option<Armed>,
}

fn idle_mb_ms(s: &Sandbox, now_us: u64) -> f64 {
    s.memory_mb * (now_us - s.last_used_us) as f64 / 1_000.0
}

pub(crate) struct Lifecycle {
    /// Nodes, queues and idle sandboxes. The executor owns cores and
    /// queues; sandboxes and memory move only through the methods below.
    pub index: ClusterIndex,
    pub stats: LifecycleStats,
    cold_start: ColdStartModel,
    /// What a sandbox of each workload weighs, MiB, by workload id.
    memory_mb: Vec<f64>,
    next_stamp: u64,
    /// Scratch for the eviction view a keep-alive policy picks its victim
    /// from, and each entry's position among its workload's sandboxes.
    idle_view: Vec<IdleSandbox>,
    idle_view_at: Vec<usize>,
}

// `acquire`, `release` and `fire` are `#[inline(always)]`: the engine calls
// each from one place on its per-event path. Out of line `sim_fat8` read
// 2.7 % fewer events/s than the engine that had these lines in its own loop
// (behind in 10 pairs of 10); inlined it is within 1 %, inside the spread
// (results/pairs/pr21.md).
impl Lifecycle {
    pub fn new(cluster: &ClusterConfig, pool: &WorkloadPool) -> Self {
        Lifecycle {
            index: ClusterIndex::new(cluster, pool.len()),
            stats: LifecycleStats::default(),
            cold_start: cluster.cold_start,
            memory_mb: pool.workloads().iter().map(|w| w.memory_mb).collect(),
            next_stamp: 0,
            idle_view: Vec::new(),
            idle_view_at: Vec::new(),
        }
    }

    /// A sandbox for `workload` on `node`, and whether it starts cold;
    /// `None` when it does not fit (the over-capacity rule).
    #[inline(always)]
    pub fn acquire(
        &mut self,
        node: usize,
        workload: WorkloadId,
        now_us: u64,
        policy: &mut dyn KeepAlivePolicy,
    ) -> Option<(Sandbox, bool)> {
        if let Some(mut s) = self.index.take_idle(workload, node, None) {
            self.stats.idle_mb_ms += idle_mb_ms(&s, now_us);
            s.uses += 1;
            self.stats.warm_starts += 1;
            return Some((s, false));
        }
        // Eviction is the cold path: the flat view the policy indexes into
        // is only ever built here.
        let memory_mb = self.memory_mb[workload.0 as usize];
        while self.index.node(node).free_memory_mb < memory_mb {
            self.index.idle_view(node, &mut self.idle_view, &mut self.idle_view_at);
            let victim = policy.pick_victim(&self.idle_view, now_us / 1_000)?;
            self.discard(node, self.idle_view[victim].workload, self.idle_view_at[victim], now_us);
            self.stats.evictions += 1;
        }
        self.stats.cold_starts += 1;
        Some((self.create(node, workload, now_us, 1), true))
    }

    /// The invocation `s` served is over: park it, re-stamped.
    #[inline(always)]
    pub fn release(
        &mut self,
        node: usize,
        mut s: Sandbox,
        now_us: u64,
        policy: &mut dyn KeepAlivePolicy,
    ) -> Option<Armed> {
        self.next_stamp += 1;
        s.last_used_us = now_us;
        s.stamp = self.next_stamp;
        self.park(node, s, now_us, policy)
    }

    /// A timer this core armed has come due.
    #[inline(always)]
    pub fn fire(&mut self, timer: Timer, now_us: u64, policy: &mut dyn KeepAlivePolicy) -> Fired {
        match timer {
            Timer::Expire { node, workload, stamp } => {
                let idle = self.index.idle(workload, node as usize);
                let Some(pos) = idle.iter().position(|s| s.stamp == stamp) else {
                    return Fired::default();
                };
                let s = self.discard(node as usize, workload, pos, now_us);
                self.stats.expirations += 1;
                let arm = policy
                    .prewarm_after_ms(workload)
                    .filter(|_| s.uses > 0)
                    .map(|after_ms| s.last_used_us.saturating_add(after_ms * 1_000))
                    .filter(|&at_us| at_us > now_us)
                    .map(|at_us| (at_us, Timer::Prewarm { node, workload }));
                Fired { freed: Some(node as usize), arm }
            }
            Timer::Prewarm { node, workload } => {
                let n = node as usize;
                if !self.index.idle(workload, n).is_empty()
                    || self.index.node(n).free_memory_mb < self.memory_mb[workload.0 as usize]
                {
                    return Fired::default();
                }
                let s = self.create(n, workload, now_us, 0);
                self.stats.prewarms += 1;
                Fired { freed: None, arm: self.park(n, s, now_us, policy) }
            }
        }
    }

    /// `node` died: its idle sandboxes are lost, cores, queue and memory
    /// reset. Returns how many requests were queued there.
    pub fn crash(&mut self, node: usize, now_us: u64) -> u64 {
        let stats = &mut self.stats;
        self.index.crash(node, |s| {
            stats.idle_mb_ms += idle_mb_ms(&s, now_us);
            stats.sandboxes_lost += 1;
        })
    }

    /// The counters, with the sandboxes still parked charged up to `now_us`.
    pub fn stats_at(&self, now_us: u64) -> LifecycleStats {
        let mut stats = self.stats;
        for s in (0..self.index.node_count()).flat_map(|node| self.index.idle_on(node)) {
            stats.idle_mb_ms += idle_mb_ms(s, now_us);
        }
        stats
    }

    /// Charge `node` for a new sandbox of `workload`, stamped.
    fn create(&mut self, node: usize, workload: WorkloadId, now_us: u64, uses: u64) -> Sandbox {
        let memory_mb = self.memory_mb[workload.0 as usize];
        self.index.update(node, |n| n.free_memory_mb -= memory_mb);
        self.next_stamp += 1;
        Sandbox {
            workload,
            memory_mb,
            last_used_us: now_us,
            init_cost_ms: self.cold_start.delay_ms(memory_mb),
            uses,
            stamp: self.next_stamp,
        }
    }

    /// Park `s` and arm its expiry under the stamp it carries.
    fn park(
        &mut self,
        node: usize,
        s: Sandbox,
        now_us: u64,
        policy: &mut dyn KeepAlivePolicy,
    ) -> Option<Armed> {
        let (workload, stamp) = (s.workload, s.stamp);
        self.index.push_idle(node, s);
        let ttl_ms = policy.idle_ttl_ms(workload)?;
        Some((now_us + ttl_ms * 1_000, Timer::Expire { node: node as u32, workload, stamp }))
    }

    /// Tear down the idle sandbox at `pos` of `workload`'s on `node`.
    fn discard(&mut self, node: usize, workload: WorkloadId, pos: usize, now_us: u64) -> Sandbox {
        let s = self.index.take_idle(workload, node, Some(pos)).expect("an idle sandbox at pos");
        self.stats.idle_mb_ms += idle_mb_ms(&s, now_us);
        self.index.update(node, |n| n.free_memory_mb += s.memory_mb);
        s
    }
}
