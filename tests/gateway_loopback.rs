//! Over-the-wire replay through the gateway, end to end over loopback.
//!
//! Two acceptance properties for `faasrail-gateway`:
//!
//! 1. **Distribution preservation** — replaying a ≥1k-request generated
//!    spec through `HttpBackend → 127.0.0.1 → Gateway → backend` completes
//!    with zero transport failures and yields the same invocation-duration
//!    distribution as replaying the identical requests in-process
//!    (KS distance < 0.05). The backend is deterministic (it reports each
//!    workload's modelled mean duration), so any distributional drift could
//!    only come from the wire: lost, duplicated, or corrupted invocations.
//!
//! 2. **Fault recovery** — with the server dropping connections and
//!    injecting `500`s at seeded fractions, client-side retry recovers
//!    every retryable failure and the per-class outcome breakdown in the
//!    replay metrics stays clean.
//!
//! 3. **Observability endpoints** — `GET /stats` answers with
//!    `application/json` and `GET /metrics` with Prometheus text format
//!    (`text/plain; version=0.0.4`), both over a real loopback connection.

mod common;

use common::{spawn_server, ClientKind, ServerMode};
use faasrail::gateway::http::{read_response, write_request};
use faasrail::gateway::{FaultConfig, GatewayConfig, HttpBackend, HttpBackendConfig, RetryPolicy};
use faasrail::loadgen::{
    replay, Backend, InvocationRequest, InvocationResult, Pacing, ReplayConfig,
};
use faasrail::prelude::*;
use faasrail::stats::{ks_distance, Ecdf};
use faasrail::trace::azure::{generate as gen_azure, AzureTraceConfig};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deterministic backend: reports each workload's modelled mean duration.
/// Remote and in-process replays of the same requests therefore produce
/// identical duration multisets unless the wire loses or corrupts some.
struct ModelBackend {
    pool: WorkloadPool,
}

impl Backend for ModelBackend {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        match self.pool.get(req.workload) {
            Some(w) => InvocationResult::success(w.mean_ms, false),
            None => {
                InvocationResult::app_error(0.0, format!("unknown workload {:?}", req.workload))
            }
        }
    }

    fn name(&self) -> &str {
        "model"
    }
}

/// Wrapper that records the service duration of every successful invocation.
struct Recording<B> {
    inner: B,
    durations: Mutex<Vec<f64>>,
}

impl<B> Recording<B> {
    fn new(inner: B) -> Self {
        Recording { inner, durations: Mutex::new(Vec::new()) }
    }

    fn durations(&self) -> Vec<f64> {
        self.durations.lock().unwrap().clone()
    }
}

impl<B: Backend> Backend for Recording<B> {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let r = self.inner.invoke(req);
        if r.ok {
            self.durations.lock().unwrap().push(r.service_ms);
        }
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A generated spec with an exact request count (Smirnov mode).
fn generated_requests(seed: u64, n: usize) -> (RequestTrace, WorkloadPool) {
    let trace = gen_azure(&AzureTraceConfig::scaled(seed, 300, 60_000));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let cfg = SmirnovConfig {
        num_invocations: n,
        rate_rps: 50.0,
        iat: IatModel::Poisson,
        mapping: MappingConfig::default(),
        seed,
    };
    let (reqs, _) = faasrail::core::smirnov::generate(&trace, &pool, &cfg);
    assert_eq!(reqs.len(), n);
    (reqs, pool)
}

#[test]
fn loopback_replay_preserves_invocation_durations() {
    loopback_replay_preserves_invocation_durations_in(ServerMode::Threaded);
}

#[test]
fn loopback_replay_preserves_invocation_durations_reactor() {
    loopback_replay_preserves_invocation_durations_in(ServerMode::Reactor);
}

fn loopback_replay_preserves_invocation_durations_in(mode: ServerMode) {
    let (reqs, pool) = generated_requests(21, 1_200);

    let handle = spawn_server(
        mode,
        Arc::new(ModelBackend { pool: pool.clone() }),
        GatewayConfig { workers: 16, read_timeout: Duration::from_secs(1), ..Default::default() },
    );

    let client = HttpBackend::connect(&handle.addr().to_string(), HttpBackendConfig::default())
        .expect("resolve gateway address");
    let remote = Recording::new(client);
    let replay_cfg = ReplayConfig { pacing: Pacing::Unpaced, workers: 8 };
    let m = replay(&reqs, &pool, &remote, &replay_cfg);

    assert_eq!(m.issued as usize, reqs.len());
    assert_eq!(m.completed as usize, reqs.len(), "every invocation must come back");
    assert_eq!(m.errors, 0, "breakdown: {}", m.outcome_breakdown());
    assert_eq!(m.transport_errors, 0, "zero transport errors over loopback");
    assert_eq!(m.timeouts, 0);

    let remote_durations = remote.durations();
    drop(remote); // release pooled connections before stopping the server
    let server_stats = handle.stats();
    assert_eq!(server_stats.invocations_ok.load(std::sync::atomic::Ordering::Relaxed), 1_200);
    handle.stop();

    // The same requests, replayed in-process.
    let local = Recording::new(ModelBackend { pool: pool.clone() });
    let lm = replay(&reqs, &pool, &local, &replay_cfg);
    assert_eq!(lm.errors, 0);
    let local_durations = local.durations();

    assert_eq!(remote_durations.len(), local_durations.len());
    let d = ks_distance(&Ecdf::new(&remote_durations), &Ecdf::new(&local_durations));
    assert!(d < 0.05, "KS distance remote vs in-process = {d}");
    // With a deterministic backend the distributions should in fact match
    // exactly, not just within the acceptance bound.
    assert!(d < 1e-12, "expected identical duration multisets, KS = {d}");
}

#[test]
fn fault_injection_is_recovered_by_client_retry() {
    fault_injection_is_recovered_by_client_retry_in(ServerMode::Threaded, ClientKind::Pooled);
}

#[test]
fn fault_injection_is_recovered_by_client_retry_reactor() {
    fault_injection_is_recovered_by_client_retry_in(ServerMode::Reactor, ClientKind::Pooled);
}

#[test]
fn fault_injection_is_recovered_by_client_retry_mux() {
    fault_injection_is_recovered_by_client_retry_in(ServerMode::Threaded, ClientKind::Mux);
}

#[test]
fn fault_injection_is_recovered_by_client_retry_reactor_mux() {
    fault_injection_is_recovered_by_client_retry_in(ServerMode::Reactor, ClientKind::Mux);
}

fn fault_injection_is_recovered_by_client_retry_in(mode: ServerMode, kind: ClientKind) {
    let (reqs, pool) = generated_requests(22, 400);

    // 5% dropped connections + 15% injected 500s, deterministically seeded.
    let handle = spawn_server(
        mode,
        Arc::new(ModelBackend { pool: pool.clone() }),
        GatewayConfig {
            workers: 16,
            read_timeout: Duration::from_secs(1),
            fault: FaultConfig {
                drop_fraction: 0.05,
                error_fraction: 0.15,
                seed: 9,
                ..FaultConfig::default()
            },
            ..Default::default()
        },
    );

    let client = kind.connect(
        handle.addr(),
        Duration::from_secs(10),
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            jitter: 0.5,
            jitter_seed: 77,
        },
    );

    let m = replay(&reqs, &pool, &client, &ReplayConfig { pacing: Pacing::Unpaced, workers: 4 });

    // Every retryable failure recovered: the replay sees only successes.
    assert_eq!(m.completed as usize, reqs.len(), "breakdown: {}", m.outcome_breakdown());
    assert_eq!(m.completed + m.errors, m.issued);
    assert_eq!(m.errors, 0);
    assert_eq!(m.app_errors, 0);
    assert_eq!(m.timeouts, 0);
    assert_eq!(m.transport_errors, 0);

    // The faults actually fired, and recovery left tracks. An injected 500
    // is a real response, so it always consumes a retry attempt; a dropped
    // connection kills the socket, so it always forces a fresh connect
    // (in the pool it only costs a *retry* when it hits a non-reused
    // connection — a reused one is replaced for free, per the pooling
    // contract; in the mux it costs one for every request pipelined there).
    let retries = client.stats().retries.load(std::sync::atomic::Ordering::Relaxed);
    let connects = client.stats().connects.load(std::sync::atomic::Ordering::Relaxed);
    assert!(retries > 0, "expected some retries under 20% fault rate");
    drop(client);
    let stats = handle.stats();
    let dropped = stats.faults_dropped.load(std::sync::atomic::Ordering::Relaxed);
    let errored = stats.faults_errored.load(std::sync::atomic::Ordering::Relaxed);
    assert!(dropped > 0, "expected some dropped connections");
    assert!(errored > 0, "expected some injected 500s");
    assert!(
        retries >= errored,
        "each injected 500 costs a retry: retries={retries} errored={errored}"
    );
    assert!(
        connects > dropped,
        "each dropped connection forces a reconnect: connects={connects} dropped={dropped}"
    );
    handle.stop();
}

/// What a `500` costs an invocation is the policy's to say, not the
/// transport's: over the same seeded fault pattern both clients lose the
/// same invocations to it at one attempt, and neither loses any at four.
#[test]
fn both_clients_count_the_same_injected_errors_and_both_recover() {
    let (reqs, pool) = generated_requests(24, 200);
    // One worker: which attempt draws which fault is then fixed by the seed.
    let sequential = ReplayConfig { pacing: Pacing::Unpaced, workers: 1 };
    let run = |mode: ServerMode, kind: ClientKind, max_attempts: u32| {
        let handle = spawn_server(
            mode,
            Arc::new(ModelBackend { pool: pool.clone() }),
            GatewayConfig {
                fault: FaultConfig { error_fraction: 0.2, seed: 9, ..FaultConfig::default() },
                ..Default::default()
            },
        );
        let retry = RetryPolicy {
            max_attempts,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        let client = kind.connect(handle.addr(), Duration::from_secs(10), retry);
        let m = replay(&reqs, &pool, &client, &sequential);
        let cell = format!("{mode:?} x {kind:?} x {max_attempts}: {}", m.outcome_breakdown());
        assert_eq!(m.completed + m.errors, m.issued, "{cell}");
        assert_eq!(m.transport_errors, m.errors, "{cell}");
        let counted = client.stats().transport_errors.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(counted, m.transport_errors, "{cell}");
        drop(client);
        let injected = handle.stats().faults_errored.load(std::sync::atomic::Ordering::Relaxed);
        handle.stop();
        (m.transport_errors, injected)
    };
    for mode in ServerMode::BOTH {
        let (pooled, injected) = run(mode, ClientKind::Pooled, 1);
        assert!(pooled > 0, "{mode:?}: a fifth of {} requests should draw a 500", reqs.len());
        assert_eq!(pooled, injected, "{mode:?}: one attempt sees every injected 500");
        assert_eq!(run(mode, ClientKind::Mux, 1), (pooled, injected), "{mode:?}");
        for kind in ClientKind::BOTH {
            let (lost, injected) = run(mode, kind, 4);
            assert_eq!(lost, 0, "{mode:?} x {kind:?}: four attempts recover every 500");
            assert!(injected >= pooled, "{mode:?} x {kind:?}: the faults still fired");
        }
    }
}

#[test]
fn stats_and_metrics_endpoints_set_correct_content_types() {
    stats_and_metrics_endpoints_set_correct_content_types_in(ServerMode::Threaded);
}

#[test]
fn stats_and_metrics_endpoints_set_correct_content_types_reactor() {
    stats_and_metrics_endpoints_set_correct_content_types_in(ServerMode::Reactor);
}

fn stats_and_metrics_endpoints_set_correct_content_types_in(mode: ServerMode) {
    let (reqs, pool) = generated_requests(23, 32);

    let handle = spawn_server(
        mode,
        Arc::new(ModelBackend { pool: pool.clone() }),
        GatewayConfig { workers: 4, read_timeout: Duration::from_secs(1), ..Default::default() },
    );

    // Put some real traffic on the wire first so the scraped counters are
    // non-trivial.
    let client = HttpBackend::connect(&handle.addr().to_string(), HttpBackendConfig::default())
        .expect("resolve gateway address");
    let m = replay(&reqs, &pool, &client, &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 });
    assert_eq!(m.completed as usize, reqs.len());
    drop(client);

    // Scrape both observability endpoints on one keep-alive connection.
    let stream = TcpStream::connect(handle.addr()).expect("connect to gateway");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = &stream;

    write_request(&mut writer, "GET", "/stats", "loopback", "text/plain", b"", true)
        .expect("send GET /stats");
    let stats = read_response(&mut reader).expect("read /stats response");
    assert_eq!(stats.status, 200);
    assert_eq!(stats.content_type.as_deref(), Some("application/json"));
    let parsed: serde_json::Value =
        serde_json::from_slice(&stats.body).expect("/stats body must be valid JSON");
    assert_eq!(parsed["invocations_ok"].as_u64(), Some(reqs.len() as u64));
    // The replay client hung up, so once its handlers notice the EOFs the
    // only live connection is the one doing this scrape. Re-poll on the
    // same connection while they wind down.
    let mut active = parsed["connections_active"].as_u64().expect("gauge in /stats");
    for _ in 0..50 {
        if active == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        write_request(&mut writer, "GET", "/stats", "loopback", "text/plain", b"", true)
            .expect("send GET /stats");
        let again = read_response(&mut reader).expect("read /stats response");
        let v: serde_json::Value = serde_json::from_slice(&again.body).expect("valid JSON");
        active = v["connections_active"].as_u64().expect("gauge in /stats");
    }
    assert_eq!(active, 1, "the scraping connection must be the only one left");

    write_request(&mut writer, "GET", "/metrics", "loopback", "text/plain", b"", false)
        .expect("send GET /metrics");
    let metrics = read_response(&mut reader).expect("read /metrics response");
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.content_type.as_deref(), Some("text/plain; version=0.0.4"));
    let text = String::from_utf8(metrics.body).expect("/metrics body must be UTF-8");
    assert!(text.contains("# TYPE faasrail_gateway_invocations_total counter"), "{text}");
    assert!(text.contains(&format!("faasrail_gateway_invocations_total {}", reqs.len())), "{text}");
    assert!(text.contains("# TYPE faasrail_gateway_connections_active gauge"), "{text}");
    assert!(text.contains("faasrail_gateway_connections_active 1"), "{text}");

    drop(reader);
    drop(stream);
    handle.stop();
}
