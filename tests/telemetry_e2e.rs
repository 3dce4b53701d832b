//! End-to-end telemetry acceptance tests.
//!
//! 1. **Prometheus validity** — the gateway's `GET /metrics` body and the
//!    replay recorder's rendered snapshot both pass a text-format 0.0.4
//!    grammar check (HELP/TYPE comments, sample lines, quoted label
//!    values, declared types, cumulative histogram with an `+Inf` bucket).
//!
//! 2. **Report reconstruction** — a loopback replay through the gateway
//!    with a JSONL event sink produces a log from which `RunReport`
//!    reconstructs the outcome partition *exactly* as the replay's final
//!    `RunMetrics` recorded it: issued, per-class outcomes, cold starts,
//!    and the per-minute offered/achieved series.

mod common;

use common::assert_valid_prometheus_0_0_4;
use faasrail::gateway::{FaultConfig, Gateway, GatewayConfig, HttpBackend, HttpBackendConfig};
use faasrail::loadgen::{
    replay_observed, Backend, InvocationRequest, InvocationResult, Pacing, ReplayConfig,
    ReplayInstruments,
};
use faasrail::prelude::*;
use faasrail::telemetry::{parse_jsonl, JsonlSink, Recorder, RunReport};
use faasrail::trace::azure::{generate as gen_azure, AzureTraceConfig};
use std::fs::File;
use std::io::BufReader;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic backend reporting each workload's modelled mean duration.
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

/// Hostile label values round-trip the exposition grammar: the encoder
/// escapes `\`, `"`, and newlines, and the shared validator's escape-aware
/// scanner accepts the result (it rejects the raw forms).
#[test]
fn counter_vec_label_escaping_survives_the_grammar_check() {
    use faasrail::telemetry::{escape_label_value, PromText};
    let mut out = PromText::new();
    out.counter_vec(
        "faasrail_test_agent_issued_total",
        "per-agent issued",
        "agent",
        &[("agent \"A\"", 3), ("path\\host", 5), ("multi\nline", 8)],
    );
    let text = out.finish();
    assert_valid_prometheus_0_0_4(&text);
    assert!(text.contains(r#"{agent="agent \"A\""} 3"#), "{text}");
    assert!(text.contains(r#"{agent="path\\host"} 5"#), "{text}");
    assert!(text.contains(r#"{agent="multi\nline"} 8"#), "{text}");
    assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

    // The validator itself must reject an unescaped quote in a value —
    // otherwise the assertions above prove nothing.
    let bad = "# TYPE e_total counter\ne_total{agent=\"un\"escaped\"} 1\n";
    let refused = std::panic::catch_unwind(|| assert_valid_prometheus_0_0_4(bad)).is_err();
    assert!(refused, "validator accepted a raw quote inside a label value");
}

#[test]
fn gateway_metrics_and_recorder_snapshot_are_valid_prometheus() {
    use faasrail::gateway::http::{read_response, write_request};
    let (reqs, pool) = generated_requests(31, 64);

    let handle = Gateway::bind(
        "127.0.0.1:0",
        Arc::new(ModelBackend { pool: pool.clone() }),
        GatewayConfig { workers: 4, read_timeout: Duration::from_secs(1), ..Default::default() },
    )
    .expect("bind loopback gateway")
    .spawn();

    // Drive real traffic through the gateway with a live recorder attached.
    let client = HttpBackend::connect(&handle.addr().to_string(), HttpBackendConfig::default())
        .expect("resolve gateway address");
    let recorder = Recorder::new(3);
    let inst = ReplayInstruments { recorder: Some(&recorder), ..Default::default() };
    let m = replay_observed(
        &reqs,
        &pool,
        &client,
        &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
        &AtomicBool::new(false),
        &inst,
    );
    assert_eq!(m.completed as usize, reqs.len());
    drop(client);

    // The wire-level scrape must be valid 0.0.4 with the right content type.
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect to gateway");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    write_request(&mut (&stream), "GET", "/metrics", "loopback", "text/plain", b"", false)
        .expect("send GET /metrics");
    let resp = read_response(&mut reader).expect("read /metrics response");
    handle.stop();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type.as_deref(), Some(faasrail::telemetry::prometheus::CONTENT_TYPE));
    let text = String::from_utf8(resp.body).expect("metrics body must be UTF-8");
    assert_valid_prometheus_0_0_4(&text);
    assert!(text.contains(&format!("faasrail_gateway_invocations_total {}", reqs.len())), "{text}");

    // The recorder's rendered snapshot (histogram included) passes too, and
    // its +Inf bucket is cumulative: equal to the series count.
    let snap = recorder.snapshot();
    let prom = snap.to_prometheus("faasrail_replay");
    assert_valid_prometheus_0_0_4(&prom);
    let inf_bucket = prom
        .lines()
        .find(|l| l.starts_with("faasrail_replay_response_seconds_bucket{le=\"+Inf\"}"))
        .expect("histogram must expose an +Inf bucket");
    let count_line = prom
        .lines()
        .find(|l| l.starts_with("faasrail_replay_response_seconds_count"))
        .expect("histogram must expose _count");
    let inf: u64 = inf_bucket.rsplit(' ').next().unwrap().parse().unwrap();
    let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(inf, count, "+Inf bucket must equal _count");
    assert_eq!(count, m.completed + m.errors);
}

/// Trim trailing zero minutes so series that only differ by schedule-length
/// padding compare equal.
fn trimmed(v: &[u64]) -> &[u64] {
    let end = v.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    &v[..end]
}

#[test]
fn jsonl_event_log_reconstructs_the_exact_run_metrics_partition() {
    let (reqs, pool) = generated_requests(32, 500);

    // Inject 500s server-side; with retries disabled each one surfaces as
    // exactly one transport error, so the run has a non-trivial outcome mix.
    let handle = Gateway::bind(
        "127.0.0.1:0",
        Arc::new(ModelBackend { pool: pool.clone() }),
        GatewayConfig {
            workers: 8,
            read_timeout: Duration::from_secs(1),
            fault: FaultConfig { error_fraction: 0.2, seed: 5, ..FaultConfig::default() },
            ..Default::default()
        },
    )
    .expect("bind faulty gateway")
    .spawn();

    let client = HttpBackend::connect(
        &handle.addr().to_string(),
        HttpBackendConfig {
            retry: faasrail::gateway::RetryPolicy { max_attempts: 1, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("resolve gateway address");

    let dir = std::env::temp_dir();
    let path = dir.join(format!("faasrail-telemetry-e2e-{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).expect("create JSONL sink");
    let m = replay_observed(
        &reqs,
        &pool,
        &client,
        &ReplayConfig { pacing: Pacing::Unpaced, workers: 4 },
        &AtomicBool::new(false),
        &ReplayInstruments { sink: &sink, recorder: None, pace: None },
    );
    drop(client);
    handle.stop();
    assert_eq!(sink.write_errors(), 0);
    drop(sink); // flush

    assert_eq!(m.issued as usize, reqs.len());
    assert!(m.transport_errors > 0, "fault injection must produce errors");
    assert!(m.completed > 0);

    let events =
        parse_jsonl(BufReader::new(File::open(&path).expect("open event log"))).expect("parse log");
    std::fs::remove_file(&path).ok();
    let report = RunReport::from_events(&events);

    // The reconstruction is exact, not approximate: every counter in the
    // outcome partition matches the replay's own metrics.
    assert_eq!(report.issued, m.issued);
    assert_eq!(report.completed, m.completed);
    assert_eq!(report.errors, m.errors);
    assert_eq!(report.app_errors, m.app_errors);
    assert_eq!(report.timeouts, m.timeouts);
    assert_eq!(report.transport_errors, m.transport_errors);
    assert_eq!(report.shed, m.shed);
    assert_eq!(report.cold_starts, m.cold_starts);
    assert_eq!(
        report.completed
            + report.app_errors
            + report.timeouts
            + report.transport_errors
            + report.shed,
        report.issued,
        "outcome classes partition the issued count"
    );

    // Offered load per minute reconstructs the replay's own series.
    assert_eq!(trimmed(&report.issued_per_minute), trimmed(&m.issued_per_minute));
    assert_eq!(report.issued_per_minute.iter().sum::<u64>(), m.issued);
    assert_eq!(report.completed_per_minute.iter().sum::<u64>(), m.completed);
    assert_eq!(report.errors_per_minute.iter().sum::<u64>(), m.errors);

    // Run-end trailer agrees with the body of the log.
    let end = report.end.expect("log must carry run_end");
    assert_eq!(end.issued, m.issued);
    assert_eq!(end.completed, m.completed);
    assert_eq!(end.errors, m.errors);
    assert!(!end.aborted);

    // And the human-readable rendering reflects the same numbers.
    let md = report.to_markdown();
    assert!(md.contains("# FaaSRail run report"), "{md}");
    assert!(md.contains(&format!("| completed | {} |", m.completed)), "{md}");
}

/// A target whose `200` carries a service time JSON cannot hold (`1e999`
/// reads as infinity, which an event log writes as `null`) costs those
/// requests as transport errors, not the log: what the replay wrote reads
/// back whole.
#[test]
fn a_target_answering_an_infinite_service_time_leaves_a_readable_event_log() {
    use faasrail::gateway::http::{read_request, write_response};
    use std::net::TcpListener;

    let (reqs, pool) = generated_requests(33, 40);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(&stream);
                let body = br#"{"ok":true,"service_ms":1e999,"cold_start":false}"#;
                while let Ok(Some(_)) = read_request(&mut reader) {
                    if write_response(&mut (&stream), 200, "application/json", body, true).is_err()
                    {
                        break;
                    }
                }
            });
        }
    });
    let client = HttpBackend::connect(
        &addr,
        HttpBackendConfig {
            retry: faasrail::gateway::RetryPolicy { max_attempts: 2, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("resolve the stub's address");

    let path = std::env::temp_dir()
        .join(format!("faasrail-telemetry-e2e-infinite-{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).expect("create JSONL sink");
    let m = replay_observed(
        &reqs,
        &pool,
        &client,
        &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
        &AtomicBool::new(false),
        &ReplayInstruments { sink: &sink, recorder: None, pace: None },
    );
    assert_eq!(sink.write_errors(), 0);
    drop(sink); // flush

    let events = parse_jsonl(BufReader::new(File::open(&path).expect("open event log")))
        .expect("the log reads back");
    std::fs::remove_file(&path).ok();
    assert_eq!((m.issued, m.transport_errors), (40, 40), "{m:?}");
    let report = RunReport::from_events(&events);
    assert_eq!((report.issued, report.transport_errors), (40, 40));
}
