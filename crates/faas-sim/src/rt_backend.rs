//! Real-time backend: a warm-cache FaaS node serving the load generator.
//!
//! Where [`crate::engine`] simulates a cluster in virtual time, this backend
//! plugs into `faasrail-loadgen` and serves requests on the *wall clock*:
//! it keeps a memory-bounded warm-sandbox cache with TTL expiry, charges a
//! (scaled) cold-start delay on misses, and then actually executes the
//! workload kernel — real FaaS behaviour under real generated load.

use crate::cluster::ColdStartModel;
use faasrail_loadgen::{Backend, InvocationRequest, InvocationResult};
use faasrail_workloads::{WorkloadId, WorkloadPool};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct WarmEntry {
    memory_mb: f64,
    last_used: Instant,
}

struct CacheState {
    entries: HashMap<WorkloadId, WarmEntry>,
    used_mb: f64,
}

/// Configuration for the warm-cache backend.
#[derive(Debug, Clone, Copy)]
pub struct WarmCacheConfig {
    /// Total sandbox memory, MiB.
    pub capacity_mb: f64,
    /// Idle TTL before a warm sandbox expires.
    pub ttl: Duration,
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
            ttl: Duration::from_secs(600),
            cold_start: ColdStartModel::default(),
            cold_scale: 1.0,
            execute_kernels: true,
        }
    }
}

/// A single-node warm-cache FaaS backend.
pub struct WarmCacheBackend {
    pool: WorkloadPool,
    cfg: WarmCacheConfig,
    state: Mutex<CacheState>,
}

impl WarmCacheBackend {
    /// Create a backend serving workloads from `pool`.
    pub fn new(pool: WorkloadPool, cfg: WarmCacheConfig) -> Self {
        assert!(cfg.capacity_mb > 0.0, "capacity must be positive");
        WarmCacheBackend {
            pool,
            cfg,
            state: Mutex::new(CacheState { entries: HashMap::new(), used_mb: 0.0 }),
        }
    }

    /// The cache, whether or not a panicking thread held it: every panic
    /// the critical sections can raise is an allocation failure.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of currently warm sandboxes (for tests/inspection).
    pub fn warm_count(&self) -> usize {
        self.state().entries.len()
    }

    /// Decide warm/cold and update the cache; returns `(cold, delay_ms)`.
    fn admit(&self, workload: WorkloadId, memory_mb: f64) -> (bool, f64) {
        let now = Instant::now();
        let mut st = self.state();

        // Expire idle entries past their TTL.
        let ttl = self.cfg.ttl;
        let expired: Vec<WorkloadId> = st
            .entries
            .iter()
            .filter(|(_, e)| now.duration_since(e.last_used) > ttl)
            .map(|(&k, _)| k)
            .collect();
        for k in expired {
            if let Some(e) = st.entries.remove(&k) {
                st.used_mb -= e.memory_mb;
            }
        }

        if let Some(e) = st.entries.get_mut(&workload) {
            e.last_used = now;
            return (false, 0.0);
        }

        // Cold: make room (LRU) and install.
        while st.used_mb + memory_mb > self.cfg.capacity_mb && !st.entries.is_empty() {
            let victim = *st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
                .expect("non-empty");
            if let Some(e) = st.entries.remove(&victim) {
                st.used_mb -= e.memory_mb;
            }
        }
        st.used_mb += memory_mb;
        st.entries.insert(workload, WarmEntry { memory_mb, last_used: now });
        (true, self.cfg.cold_start.delay_ms(memory_mb))
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
        let (cold, delay_ms) = self.admit(req.workload, w.memory_mb);
        let start = Instant::now();
        if cold && self.cfg.cold_scale > 0.0 {
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
    use faasrail_workloads::{CostModel, WorkloadInput};

    fn backend(capacity_mb: f64) -> WarmCacheBackend {
        WarmCacheBackend::new(
            WorkloadPool::vanilla(&CostModel::default_calibration()),
            WarmCacheConfig {
                capacity_mb,
                cold_scale: 0.0,
                execute_kernels: false,
                ..Default::default()
            },
        )
    }

    fn req(id: u32) -> InvocationRequest {
        InvocationRequest {
            workload: WorkloadId(id),
            input: WorkloadInput::Pyaes { bytes: 16 },
            function_index: id,
            scheduled_at_ms: 0,
            trace_id: 0,
        }
    }

    #[test]
    fn cold_then_warm() {
        let b = backend(8_192.0);
        assert!(b.invoke(&req(7)).cold_start);
        assert!(!b.invoke(&req(7)).cold_start);
        assert_eq!(b.warm_count(), 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        // Tiny cache: each admission evicts the previous workload.
        let b = backend(64.0);
        assert!(b.invoke(&req(7)).cold_start); // pyaes ~33 MiB
        assert!(b.invoke(&req(3)).cold_start); // json ~66 MiB → evicts pyaes
        assert!(b.invoke(&req(7)).cold_start, "pyaes was evicted");
    }

    #[test]
    fn unknown_workload_fails() {
        let b = backend(1_024.0);
        let r = b.invoke(&InvocationRequest {
            workload: WorkloadId(9_999),
            input: WorkloadInput::Pyaes { bytes: 16 },
            function_index: 0,
            scheduled_at_ms: 0,
            trace_id: 0,
        });
        assert!(!r.ok);
    }

    #[test]
    fn ttl_expires_entries() {
        let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
        let b = WarmCacheBackend::new(
            pool,
            WarmCacheConfig {
                ttl: Duration::from_millis(20),
                cold_scale: 0.0,
                execute_kernels: false,
                ..Default::default()
            },
        );
        assert!(b.invoke(&req(7)).cold_start);
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.invoke(&req(7)).cold_start, "entry should have expired");
    }

    #[test]
    fn kernel_execution_takes_time() {
        let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
        let b = WarmCacheBackend::new(
            pool,
            WarmCacheConfig { cold_scale: 0.0, execute_kernels: true, ..Default::default() },
        );
        let r = b.invoke(&InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 256 * 1024 },
            function_index: 0,
            scheduled_at_ms: 0,
            trace_id: 0,
        });
        assert!(r.ok);
        assert!(r.service_ms > 0.1, "256 KiB of software AES takes real time");
    }
}
