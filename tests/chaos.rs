//! Chaos harness: replay through a gateway that drops, stalls, delays,
//! 500s, and sheds — and prove the bookkeeping survives.
//!
//! The acceptance properties for the overload-resilience work:
//!
//! 1. **Nothing is lost.** Under simultaneous connection drops, injected
//!    `500`s, black-hole stalls, and admission-queue shedding, every request
//!    the replayer issues is accounted for exactly once:
//!    `completed + errors == issued` and the per-class breakdown partitions
//!    the errors (`app_errors + timeouts + transport_errors + shed`).
//! 2. **Overload is a signal.** The gateway's bounded admission queue turns
//!    excess concurrency into `429`s, which the client surfaces as
//!    `OutcomeClass::Shed` rather than hangs or mystery transport errors.
//! 3. **Panics are contained.** A backend kernel that panics mid-replay is
//!    recorded as an app error; the run keeps going.
//! 4. **Stopping is graceful.** Raising the stop flag mid-replay drains the
//!    in-flight work and flushes partial metrics marked `aborted`.

mod common;

use common::{spawn_server, ClientKind, ServerMode};
use faasrail::core::RequestTrace;
use faasrail::gateway::{Client, FaultConfig, GatewayConfig, Handle, RetryPolicy};
use faasrail::loadgen::{
    replay, replay_observed, Backend, InvocationRequest, InvocationResult, NoopBackend, Pacing,
    ReplayConfig, ReplayInstruments, RunMetrics,
};
use faasrail::prelude::*;
use faasrail::workloads::WorkloadId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A trace of `n` requests to a real pool workload, `gap_ms` apart.
fn dense_trace(n: usize, gap_ms: u64) -> (RequestTrace, WorkloadPool) {
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let trace = RequestTrace {
        duration_minutes: 1 + (n as u64 * gap_ms) as usize / 60_000,
        requests: (0..n as u64)
            .map(|i| faasrail::core::Request {
                at_ms: i * gap_ms,
                workload: WorkloadId(7),
                function_index: 7,
            })
            .collect(),
    };
    (trace, pool)
}

fn assert_nothing_lost(m: &RunMetrics, n: usize) {
    assert_eq!(m.issued as usize, n, "every request dispatched");
    assert_eq!(
        m.completed + m.errors,
        m.issued,
        "accounted exactly once: {}",
        m.outcome_breakdown()
    );
    assert_eq!(
        m.app_errors + m.timeouts + m.transport_errors + m.shed,
        m.errors,
        "outcome classes partition the errors: {}",
        m.outcome_breakdown()
    );
}

/// A small gateway (4 workers, queue of 2) under a seeded fault cocktail,
/// hammered by far more replay workers than it has capacity for.
fn chaos_gateway(mode: ServerMode, fault: FaultConfig) -> Handle {
    spawn_server(
        mode,
        Arc::new(NoopBackend),
        GatewayConfig {
            workers: 4,
            queue_capacity: 2,
            read_timeout: Duration::from_secs(1),
            fault,
            ..GatewayConfig::default()
        },
    )
}

fn chaos_client(kind: ClientKind, handle: &Handle) -> Client {
    kind.connect(
        handle.addr(),
        Duration::from_millis(250),
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            jitter: 0.5,
            jitter_seed: 11,
        },
    )
}

#[test]
fn chaos_replay_accounts_for_every_request() {
    chaos_replay_accounts_for_every_request_in(ServerMode::Threaded, ClientKind::Pooled);
}

#[test]
fn chaos_replay_accounts_for_every_request_reactor() {
    chaos_replay_accounts_for_every_request_in(ServerMode::Reactor, ClientKind::Pooled);
}

#[test]
fn chaos_replay_accounts_for_every_request_mux() {
    chaos_replay_accounts_for_every_request_in(ServerMode::Threaded, ClientKind::Mux);
}

#[test]
fn chaos_replay_accounts_for_every_request_reactor_mux() {
    chaos_replay_accounts_for_every_request_in(ServerMode::Reactor, ClientKind::Mux);
}

fn chaos_replay_accounts_for_every_request_in(mode: ServerMode, kind: ClientKind) {
    let n = 300;
    let (trace, pool) = dense_trace(n, 0);
    let handle = chaos_gateway(
        mode,
        FaultConfig {
            drop_fraction: 0.05,
            error_fraction: 0.10,
            stall_fraction: 0.05,
            stall_ms: 400,
            seed: 17,
            ..FaultConfig::default()
        },
    );

    // 24 unpaced workers against 4 server workers + a queue of 2: the first
    // wave alone overflows admission, so shedding must fire.
    let client = chaos_client(kind, &handle);
    let m = replay(&trace, &pool, &client, &ReplayConfig { pacing: Pacing::Unpaced, workers: 24 });

    assert_nothing_lost(&m, n);
    assert!(m.completed > 0, "some requests must get through: {}", m.outcome_breakdown());
    assert!(m.shed > 0, "overload must surface as Shed: {}", m.outcome_breakdown());

    drop(client);
    let stats = handle.stats();
    assert!(stats.shed.load(Ordering::Relaxed) > 0, "server-side shed counter");
    // The admission queue drains asynchronously: workers still have to pick
    // up (and discard) connections the finished client already closed.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stats.queue_depth.load(Ordering::Relaxed) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 0, "queue drains to empty");
    handle.stop();
}

/// Every 10th invocation panics inside the backend.
struct PanickyBackend {
    calls: AtomicU64,
}

impl Backend for PanickyBackend {
    fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if n % 10 == 9 {
            panic!("kernel exploded on call {n}");
        }
        InvocationResult::success(1.0, false)
    }

    fn name(&self) -> &str {
        "panicky"
    }
}

#[test]
fn panicking_kernel_mid_replay_does_not_abort_the_run() {
    let n = 100;
    let (trace, pool) = dense_trace(n, 0);
    let backend = PanickyBackend { calls: AtomicU64::new(0) };
    let m = replay(&trace, &pool, &backend, &ReplayConfig { pacing: Pacing::Unpaced, workers: 8 });

    assert_nothing_lost(&m, n);
    assert!(!m.aborted);
    assert_eq!(m.app_errors, 10, "one app error per panic: {}", m.outcome_breakdown());
    assert_eq!(m.completed, 90);
}

/// Every other invocation panics inside the backend.
struct AlternatelyPanicking(AtomicU64);

impl Backend for AlternatelyPanicking {
    fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
        let n = self.0.fetch_add(1, Ordering::Relaxed);
        if n % 2 == 1 {
            panic!("kernel exploded on call {n}");
        }
        InvocationResult::success(1.0, false)
    }
}

#[test]
fn a_panicking_backend_behind_the_gateway_fails_its_invocation_not_the_worker() {
    for mode in ServerMode::BOTH {
        // One worker: a panic that took it down would leave nobody to answer.
        let handle = spawn_server(
            mode,
            Arc::new(AlternatelyPanicking(AtomicU64::new(0))),
            GatewayConfig { workers: 1, ..GatewayConfig::default() },
        );
        let client = ClientKind::Pooled.connect(
            handle.addr(),
            Duration::from_secs(2),
            RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        );
        for i in 0..10 {
            let req = InvocationRequest {
                workload: WorkloadId(7),
                input: WorkloadInput::Pyaes { bytes: 64 },
                function_index: i,
                scheduled_at_ms: 0,
                trace_id: 0,
            };
            let r = client.invoke(&req);
            if i % 2 == 0 {
                assert!(r.ok, "{mode:?}, invocation {i}: {r:?}");
            } else {
                assert_eq!(r.outcome(), OutcomeClass::AppError, "{mode:?}, invocation {i}: {r:?}");
                let error = r.error.as_deref().unwrap_or_default();
                assert!(error.contains("backend panicked: kernel exploded"), "{mode:?}: {error}");
            }
        }
        drop(client);
        assert_eq!(handle.stats().invocations_ok.load(Ordering::Relaxed), 5, "{mode:?}");
        assert_eq!(handle.stats().invocations_failed.load(Ordering::Relaxed), 5, "{mode:?}");
        handle.stop();
    }
}

#[test]
fn stop_flag_drains_gateway_replay_and_flushes_partial_metrics() {
    stop_flag_drains_gateway_replay_and_flushes_partial_metrics_in(ServerMode::Threaded);
}

#[test]
fn stop_flag_drains_gateway_replay_and_flushes_partial_metrics_reactor() {
    stop_flag_drains_gateway_replay_and_flushes_partial_metrics_in(ServerMode::Reactor);
}

fn stop_flag_drains_gateway_replay_and_flushes_partial_metrics_in(mode: ServerMode) {
    let n = 5_000;
    let (trace, pool) = dense_trace(n, 2);
    let handle = chaos_gateway(mode, FaultConfig::default());
    let client = chaos_client(ClientKind::Pooled, &handle);
    let stop = AtomicBool::new(false);

    let m = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            replay_observed(
                &trace,
                &pool,
                &client,
                &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 8 },
                &stop,
                &ReplayInstruments::default(),
            )
        });
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        worker.join().expect("replay thread")
    });

    assert!(m.aborted, "stop flag must mark the run aborted");
    assert!(m.issued > 0, "some requests dispatched before the stop");
    assert!((m.issued as usize) < n, "stop must cut the schedule short");
    assert_eq!(m.completed + m.errors, m.issued, "drained: {}", m.outcome_breakdown());
    assert_eq!(m.app_errors + m.timeouts + m.transport_errors + m.shed, m.errors);

    drop(client);
    handle.stop();
}

/// Heavier cocktail, more workers, more requests. Slow (several seconds of
/// stall time); run with `cargo test --test chaos -- --ignored`.
#[test]
#[ignore]
fn chaos_stress_heavy_fault_cocktail() {
    chaos_stress_heavy_fault_cocktail_in(ServerMode::Threaded);
}

#[test]
#[ignore]
fn chaos_stress_heavy_fault_cocktail_reactor() {
    chaos_stress_heavy_fault_cocktail_in(ServerMode::Reactor);
}

fn chaos_stress_heavy_fault_cocktail_in(mode: ServerMode) {
    let n = 2_000;
    let (trace, pool) = dense_trace(n, 0);
    let handle = chaos_gateway(
        mode,
        FaultConfig {
            drop_fraction: 0.10,
            error_fraction: 0.15,
            stall_fraction: 0.08,
            stall_ms: 300,
            latency_fraction: 0.10,
            latency_ms: 50,
            seed: 23,
        },
    );

    let client = chaos_client(ClientKind::Pooled, &handle);
    let m = replay(&trace, &pool, &client, &ReplayConfig { pacing: Pacing::Unpaced, workers: 32 });

    assert_nothing_lost(&m, n);
    assert!(m.completed > 0);
    assert!(m.shed > 0);
    assert!(m.errors > 0, "a 30%+ fault cocktail must cause visible errors");

    drop(client);
    let stats = handle.stats();
    assert!(stats.shed.load(Ordering::Relaxed) > 0);
    assert!(stats.faults_stalled.load(Ordering::Relaxed) > 0);
    assert!(stats.faults_delayed.load(Ordering::Relaxed) > 0);
    handle.stop();
}
