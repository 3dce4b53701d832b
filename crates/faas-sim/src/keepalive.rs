//! Keep-alive (sandbox caching) policies.
//!
//! The paper motivates FaaSRail with exactly this research area: "providers
//! keep [functions] cached even when idling, effectively wasting memory",
//! and representative load is needed to evaluate caching policies fairly.
//! Four policies are provided: the industry-default fixed TTL, plain LRU
//! under memory pressure, a greedy-dual cost/size policy in the spirit of
//! FaasCache (ASPLOS '21, cited as [34]), and the hybrid histogram. Eviction
//! under memory pressure is LRU, [`KeepAlivePolicy::pick_victim`]'s provided
//! body, unless a policy overrides it (only [`GreedyDual`] does).

use faasrail_stats::histogram::{LogHistogram, RunningQuantile};
use faasrail_workloads::WorkloadId;

/// An idle (warm, not executing) sandbox, as presented to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleSandbox {
    pub workload: WorkloadId,
    pub memory_mb: f64,
    /// When the sandbox last finished an invocation, ms of virtual time.
    pub last_used_ms: u64,
    /// What it would cost to recreate it (cold-start delay), ms.
    pub init_cost_ms: f64,
    /// How many invocations this sandbox has served.
    pub uses: u64,
}

/// A sandbox keep-alive policy.
pub trait KeepAlivePolicy: Send {
    /// How long an idle sandbox of `workload` may live before expiring on
    /// its own. `None` keeps sandboxes until evicted under memory pressure.
    fn idle_ttl_ms(&self, workload: WorkloadId) -> Option<u64>;

    /// Pick the index of the sandbox to evict when memory is needed.
    /// `None` refuses to evict (the request will queue). Default: the least
    /// recently used.
    fn pick_victim(&mut self, idle: &[IdleSandbox], _now_ms: u64) -> Option<usize> {
        idle.iter().enumerate().min_by_key(|(_, s)| s.last_used_ms).map(|(i, _)| i)
    }

    /// Observe a request arrival (adaptive policies learn inter-arrival
    /// behaviour from this). Default: ignore.
    fn on_arrival(&mut self, _workload: WorkloadId, _now_ms: u64) {}

    /// Predictive prewarming (the second half of the hybrid-histogram
    /// policy): after an idle sandbox *expires*, how long after the
    /// workload's last arrival should a fresh sandbox be pre-created so it
    /// is warm for the predicted next invocation? `None` (default)
    /// disables prewarming.
    fn prewarm_after_ms(&self, _workload: WorkloadId) -> Option<u64> {
        None
    }

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Fixed keep-alive window (the 10-minute industry default the Azure trace
/// paper describes); evicts the LRU sandbox under pressure.
#[derive(Debug, Clone, Copy)]
pub struct FixedTtl {
    pub ttl_ms: u64,
}

impl FixedTtl {
    /// The canonical 10-minute window.
    pub fn ten_minutes() -> Self {
        FixedTtl { ttl_ms: 10 * 60 * 1_000 }
    }
}

impl KeepAlivePolicy for FixedTtl {
    fn idle_ttl_ms(&self, _workload: WorkloadId) -> Option<u64> {
        Some(self.ttl_ms)
    }

    fn name(&self) -> &'static str {
        "fixed-ttl"
    }
}

/// No TTL; pure LRU eviction under memory pressure.
#[derive(Debug, Clone, Copy, Default)]
pub struct LruPolicy;

impl KeepAlivePolicy for LruPolicy {
    fn idle_ttl_ms(&self, _workload: WorkloadId) -> Option<u64> {
        None
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Greedy-dual keep-alive: evict the sandbox with the lowest
/// `last_used + uses × init_cost / memory` priority — cheap-to-recreate,
/// rarely-used, memory-hungry sandboxes go first (FaasCache-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyDual;

impl GreedyDual {
    fn priority(s: &IdleSandbox) -> f64 {
        s.last_used_ms as f64 + s.uses as f64 * s.init_cost_ms / s.memory_mb.max(1.0)
    }
}

impl KeepAlivePolicy for GreedyDual {
    fn idle_ttl_ms(&self, _workload: WorkloadId) -> Option<u64> {
        None
    }

    fn pick_victim(&mut self, idle: &[IdleSandbox], _now_ms: u64) -> Option<usize> {
        idle.iter()
            .enumerate()
            .min_by(|a, b| {
                Self::priority(a.1).partial_cmp(&Self::priority(b.1)).expect("finite priority")
            })
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "greedy-dual"
    }
}

/// Hybrid-histogram keep-alive (after "Serverless in the Wild", ATC '20 —
/// the policy the Azure trace release accompanies, simplified).
///
/// Each workload's inter-arrival times feed a log-bucketed histogram; its
/// idle TTL is the `percentile` of that histogram (clamped to
/// `[min_ttl_ms, max_ttl_ms]`). Until `warmup_arrivals` observations exist,
/// the industry-default fixed window applies. Eviction under memory
/// pressure is LRU.
///
/// The policy reads one quantile per workload — the `percentile`, or the
/// 10th percentile with prewarming — so each histogram is a
/// [`RunningQuantile`] that keeps it current as arrivals are recorded, and
/// the trackers are a vector indexed by [`WorkloadId`]: an arrival or a TTL
/// query costs neither a hash nor a bucket walk.
pub struct HybridHistogram {
    percentile: f64,
    min_ttl_ms: u64,
    max_ttl_ms: u64,
    default_ttl_ms: u64,
    warmup_arrivals: u64,
    prewarm: bool,
    trackers: Vec<Option<IatTracker>>,
}

struct IatTracker {
    last_arrival_ms: u64,
    arrivals: u64,
    iat: RunningQuantile,
}

/// The quantile prewarming aims at.
const PREWARM_QUANTILE: f64 = 0.10;

impl HybridHistogram {
    /// The canonical configuration: 99th percentile, 1 s – 2 h clamp,
    /// 10-minute default window.
    pub fn new() -> Self {
        HybridHistogram {
            percentile: 0.99,
            min_ttl_ms: 1_000,
            max_ttl_ms: 2 * 60 * 60 * 1_000,
            default_ttl_ms: 10 * 60 * 1_000,
            warmup_arrivals: 5,
            prewarm: false,
            trackers: Vec::new(),
        }
    }

    /// Enable predictive prewarming: after a sandbox expires, a fresh one is
    /// created shortly before the *10th-percentile* next inter-arrival, so
    /// periodic workloads find it warm (the ATC '20 policy's prewarm half).
    pub fn with_prewarming(mut self) -> Self {
        self.prewarm = true;
        self.retarget();
        self
    }

    /// Observed arrivals for a workload (for tests/inspection).
    pub fn observed(&self, workload: WorkloadId) -> u64 {
        self.tracker(workload).map_or(0, |t| t.arrivals)
    }

    /// The one quantile the policy reads.
    fn quantile(&self) -> f64 {
        if self.prewarm {
            PREWARM_QUANTILE
        } else {
            self.percentile
        }
    }

    /// Point every tracker at [`quantile`](Self::quantile) after
    /// `with_prewarming` changed it.
    fn retarget(&mut self) {
        let q = self.quantile();
        for t in self.trackers.iter_mut().flatten() {
            t.iat.retarget(q);
        }
    }

    fn tracker(&self, workload: WorkloadId) -> Option<&IatTracker> {
        self.trackers.get(workload.0 as usize)?.as_ref()
    }

    /// The tracked inter-arrival quantile, once `warmup_arrivals` arrivals
    /// have been seen.
    fn learned(&self, workload: WorkloadId) -> Option<f64> {
        self.tracker(workload).filter(|t| t.arrivals >= self.warmup_arrivals)?.iat.value()
    }
}

impl Default for HybridHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl KeepAlivePolicy for HybridHistogram {
    fn idle_ttl_ms(&self, workload: WorkloadId) -> Option<u64> {
        let ttl = match self.learned(workload) {
            // With prewarming, the sandbox need not bridge the whole gap:
            // expire early and re-create just before the predicted next
            // arrival (saving idle memory in between).
            Some(p10) if self.prewarm => (p10 * 0.5) as u64,
            // Keep alive just past the typical inter-arrival gap.
            Some(p) => (p * 1.1) as u64,
            None => self.default_ttl_ms,
        };
        Some(ttl.clamp(self.min_ttl_ms, self.max_ttl_ms))
    }

    fn prewarm_after_ms(&self, workload: WorkloadId) -> Option<u64> {
        if !self.prewarm {
            return None;
        }
        // Aim just below the typical gap: warm when the next arrival
        // becomes plausible.
        self.learned(workload).map(|p10| ((p10 * 0.9) as u64).max(self.min_ttl_ms))
    }

    fn on_arrival(&mut self, workload: WorkloadId, now_ms: u64) {
        let w = workload.0 as usize;
        if w >= self.trackers.len() {
            self.trackers.resize_with(w + 1, || None);
        }
        let q = self.quantile();
        let t = self.trackers[w].get_or_insert_with(|| IatTracker {
            last_arrival_ms: now_ms,
            arrivals: 0,
            // 100 ms .. 4 h inter-arrival range at ~10% resolution.
            iat: RunningQuantile::new(LogHistogram::new(100.0, 14_400_000.0, 1.1), q),
        });
        if t.arrivals > 0 {
            let iat = (now_ms - t.last_arrival_ms) as f64;
            t.iat.record(iat.max(1.0));
        }
        t.arrivals += 1;
        t.last_arrival_ms = now_ms;
    }

    fn name(&self) -> &'static str {
        "hybrid-histogram"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(w: u32, mem: f64, last: u64, cost: f64, uses: u64) -> IdleSandbox {
        IdleSandbox {
            workload: WorkloadId(w),
            memory_mb: mem,
            last_used_ms: last,
            init_cost_ms: cost,
            uses,
        }
    }

    #[test]
    fn fixed_ttl_evicts_lru() {
        let mut p = FixedTtl::ten_minutes();
        assert_eq!(p.idle_ttl_ms(WorkloadId(0)), Some(600_000));
        let idle = [sb(0, 100.0, 50, 300.0, 1), sb(1, 100.0, 10, 300.0, 1)];
        assert_eq!(p.pick_victim(&idle, 100), Some(1));
    }

    #[test]
    fn lru_no_ttl() {
        let mut p = LruPolicy;
        assert_eq!(p.idle_ttl_ms(WorkloadId(0)), None);
        assert_eq!(p.pick_victim(&[], 0), None);
    }

    #[test]
    fn greedy_dual_prefers_cheap_large_idle() {
        let mut p = GreedyDual;
        // Same recency: the big, cheap-to-recreate, rarely used sandbox
        // should be evicted before the small, expensive, popular one.
        let idle = [
            sb(0, 1_000.0, 100, 100.0, 1), // big, cheap, cold: low priority
            sb(1, 64.0, 100, 2_000.0, 50), // small, expensive, hot
        ];
        assert_eq!(p.pick_victim(&idle, 200), Some(0));
    }

    #[test]
    fn hybrid_settings_apply_to_arrivals_already_seen() {
        // Irregular gaps for three workloads with holes between their ids;
        // workload 7 stays below the warm-up count.
        let gaps = [900u64, 40, 120_000, 3_000, 3_100, 2_900, 700_000, 55, 3_000, 18_000];
        let arrivals: Vec<(WorkloadId, u64)> = [(0u32, 10usize), (3, 10), (7, 3)]
            .iter()
            .flat_map(|&(w, n)| {
                let mut at = 0;
                gaps[..n].iter().map(move |&g| {
                    at += g * (w as u64 + 1);
                    (WorkloadId(w), at)
                })
            })
            .collect();
        let feed = |mut p: HybridHistogram| {
            for &(w, at) in &arrivals {
                p.on_arrival(w, at);
            }
            p
        };
        // Prewarming set before the arrivals, and set after them.
        let before = feed(HybridHistogram::new().with_prewarming());
        let after = feed(HybridHistogram::new()).with_prewarming();
        for w in (0..9).map(WorkloadId) {
            assert_eq!(before.idle_ttl_ms(w), after.idle_ttl_ms(w), "{w:?}");
            assert_eq!(before.prewarm_after_ms(w), after.prewarm_after_ms(w), "{w:?}");
        }
        // Both quantiles, walked the long way, for workload 3.
        let mut hist = LogHistogram::new(100.0, 14_400_000.0, 1.1);
        for g in &gaps[1..] {
            hist.record((g * 4) as f64);
        }
        let p99 = (hist.quantile(0.99) * 1.1) as u64;
        assert_eq!(feed(HybridHistogram::new()).idle_ttl_ms(WorkloadId(3)), Some(p99));
        let p10 = ((hist.quantile(0.10) * 0.9) as u64).max(1_000);
        assert_eq!(after.prewarm_after_ms(WorkloadId(3)), Some(p10));
        assert_eq!(after.idle_ttl_ms(WorkloadId(7)), Some(600_000), "still warming up");
    }

    #[test]
    fn greedy_dual_respects_recency() {
        let mut p = GreedyDual;
        let idle = [sb(0, 100.0, 500_000, 300.0, 1), sb(1, 100.0, 10, 300.0, 1)];
        assert_eq!(p.pick_victim(&idle, 600_000), Some(1));
    }
}
