//! Helpers shared by the root integration tests.
//!
//! Each `tests/*.rs` binary that says `mod common;` compiles its own copy,
//! so every item is `#[allow(dead_code)]` — not every binary uses every
//! helper.

use faasrail::fleet::session::{Action, Event, Session};
use faasrail::fleet::{read_frame, wall_clock_us, write_frame, Assignment, WorkPrefix};
use faasrail::gateway::{
    Client, Gateway, GatewayConfig, Handle, HttpBackendConfig, MuxConfig, ReactorGateway,
    RetryPolicy,
};
use faasrail::loadgen::{Backend, InvocationRequest, InvocationResult, RunMetrics};
use faasrail::prelude::*;
use faasrail::telemetry::EventSink;
use faasrail::trace::azure::{generate as gen_azure, AzureTraceConfig};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Which gateway implementation a test spins up: the thread-per-connection
/// server or the epoll reactor. The external contract (routes, status
/// codes, shedding, fault injection, span semantics) is identical, so the
/// e2e suites run against both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(dead_code)]
pub enum ServerMode {
    Threaded,
    Reactor,
}

#[allow(dead_code)]
impl ServerMode {
    pub const BOTH: [ServerMode; 2] = [ServerMode::Threaded, ServerMode::Reactor];
}

/// Bind and spawn a loopback gateway in the given mode.
#[allow(dead_code)]
pub fn spawn_server(mode: ServerMode, backend: Arc<dyn Backend>, cfg: GatewayConfig) -> Handle {
    spawn_server_with_sink(mode, backend, cfg, None)
}

/// Like [`spawn_server`], with an optional server-side trace sink.
#[allow(dead_code)]
pub fn spawn_server_with_sink(
    mode: ServerMode,
    backend: Arc<dyn Backend>,
    cfg: GatewayConfig,
    sink: Option<Arc<dyn EventSink>>,
) -> Handle {
    let gateway = match mode {
        ServerMode::Threaded => Gateway::bind("127.0.0.1:0", backend, cfg),
        ServerMode::Reactor => ReactorGateway::bind("127.0.0.1:0", backend, cfg),
    }
    .expect("bind gateway");
    match sink {
        Some(sink) => gateway.with_trace_sink(sink),
        None => gateway,
    }
    .spawn()
}

/// Which transport a test's client rides: the keep-alive pool or the
/// multiplexed driver. What the client decides (retry, classification,
/// counting) is one policy over both, so the suites that lean on it run
/// through both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(dead_code)]
pub enum ClientKind {
    Pooled,
    Mux,
}

#[allow(dead_code)]
impl ClientKind {
    pub const BOTH: [ClientKind; 2] = [ClientKind::Pooled, ClientKind::Mux];

    /// A client of this kind for `addr`; the mux pipelines four deep over
    /// eight connections.
    pub fn connect(
        self,
        addr: SocketAddr,
        request_timeout: Duration,
        retry: RetryPolicy,
    ) -> Client {
        match self {
            ClientKind::Pooled => Client::connect(
                &addr.to_string(),
                HttpBackendConfig { request_timeout, retry, ..HttpBackendConfig::default() },
            ),
            ClientKind::Mux => Client::new(
                addr,
                MuxConfig {
                    connections: 8,
                    pipeline_depth: 4,
                    request_timeout,
                    retry,
                    ..MuxConfig::default()
                },
            ),
        }
        .expect("resolve gateway address")
    }
}

/// Outcome depends only on the request itself (no shared counters, no
/// clock), so a sharded fleet and a single process must classify every
/// request identically — and an impostor can *truthfully* claim a prefix
/// it never ran.
#[allow(dead_code)]
pub struct DeterministicBackend;

impl Backend for DeterministicBackend {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        match req.function_index % 7 {
            0 => InvocationResult::app_error(0.2, "synthetic app failure"),
            1 => InvocationResult::timeout("synthetic deadline"),
            2 => InvocationResult::shed("synthetic overload"),
            _ => InvocationResult::success(0.2, req.function_index.is_multiple_of(5)),
        }
    }
    fn name(&self) -> &str {
        "deterministic"
    }
}

/// What [`DeterministicBackend`] would report for the first `watermark`
/// requests of `trace` — the prefix a crashing impostor claims.
#[allow(dead_code)]
pub fn claimed_prefix(trace: &RequestTrace, work: u64, watermark: usize) -> WorkPrefix {
    let mut p = WorkPrefix { work, watermark: watermark as u64, ..WorkPrefix::default() };
    for r in &trace.requests[..watermark] {
        match r.function_index % 7 {
            0 => p.errors[0] += 1,
            1 => p.errors[1] += 1,
            2 => p.errors[3] += 1, // shed
            _ => {
                p.completed += 1;
                if r.function_index.is_multiple_of(5) {
                    p.cold_starts += 1;
                }
            }
        }
    }
    assert!(p.is_consistent());
    p
}

/// What a [`DeterministicBackend`] agent's `Done` reports for a fully run
/// `trace`, latency histograms aside (they are wall-clock measurements).
#[allow(dead_code)]
pub fn claimed_metrics(trace: &RequestTrace, pool: &WorkloadPool) -> RunMetrics {
    let p = claimed_prefix(trace, 0, trace.requests.len());
    let mut m = RunMetrics::new();
    m.completed = p.completed;
    [m.app_errors, m.timeouts, m.transport_errors, m.shed] = p.errors;
    m.errors = p.errors.iter().sum();
    m.cold_starts = p.cold_starts;
    for r in &trace.requests {
        m.record_issued(r.at_ms);
        if let Some(workload) = pool.get(r.workload) {
            *m.per_kind.entry(workload.input.kind()).or_insert(0) += 1;
        }
    }
    m
}

/// A shrunk Azure schedule small enough for a loopback fleet, large enough
/// to shard.
#[allow(dead_code)]
pub fn small_schedule(seed: u64) -> (RequestTrace, WorkloadPool) {
    let trace = gen_azure(&AzureTraceConfig::scaled(seed, 250, 40_000));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let (spec, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(3, 3.0)).unwrap();
    let reqs = generate_requests(&spec, seed);
    assert!(reqs.len() > 50, "schedule too small to exercise sharding: {}", reqs.len());
    (reqs, pool)
}

/// The agent's own session core over a socket, up to the start instant:
/// an impostor speaks whatever the agent speaks. Returns the received
/// assignment and the live connection halves.
#[allow(dead_code)]
pub fn impostor_handshake(
    addr: SocketAddr,
    name: &str,
) -> (BufReader<TcpStream>, TcpStream, Assignment) {
    let mut writer = TcpStream::connect(addr).unwrap();
    writer.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let (mut session, hello) = Session::new(wall_clock_us(), name.into(), None);
    let mut assignment = None;
    let mut actions = vec![hello];
    loop {
        for action in actions {
            match action {
                Action::Send(msg) => write_frame(&mut writer, &msg).unwrap(),
                Action::Lease(_) => {}
                Action::Prepare(a) => assignment = Some(a),
                Action::WakeAt(_) => {
                    return (reader, writer, assignment.expect("assign before start"))
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        let frame = read_frame(&mut reader).unwrap().unwrap();
        actions = session.handle(wall_clock_us(), Event::Frame(frame));
    }
}

/// A Prometheus metric (or label) name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
#[allow(dead_code)]
pub fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Scan one `{label="value",...}` body with escape-aware value parsing.
/// Returns the parsed `(name, unescaped_value)` pairs or panics with
/// `line` in the message. Inside a quoted value only `\\`, `\"` and `\n`
/// are legal escapes (text format 0.0.4); raw `"` ends the value and raw
/// newlines cannot occur (the caller iterates lines).
#[allow(dead_code)]
fn parse_label_set(inner: &str, line: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        // Label name up to '='.
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if name.is_empty() && chars.peek().is_none() {
            break; // empty label set `{}` or a trailing comma — both legal
        }
        assert!(is_metric_name(&name), "bad label name {name:?}: {line}");
        assert_eq!(chars.next(), Some('='), "label without '=': {line}");
        assert_eq!(chars.next(), Some('"'), "label value must be quoted: {line}");
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => panic!("illegal escape \\{other:?} in label value: {line}"),
                },
                Some(c) => value.push(c),
                None => panic!("unterminated label value: {line}"),
            }
        }
        pairs.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => panic!("junk {c:?} after label value: {line}"),
        }
    }
    pairs
}

/// Assert `text` is well-formed Prometheus text exposition format 0.0.4:
/// only `# HELP`/`# TYPE` comments, every sample parseable as
/// `name[{label="value",...}] value` with escape-aware label values (no
/// raw quotes or newlines inside; only `\\`, `\"`, `\n` escapes), and
/// every sample's base metric declared by a preceding `# TYPE` line
/// (histogram samples may append the `_bucket`/`_sum`/`_count` suffixes).
#[allow(dead_code)]
pub fn assert_valid_prometheus_0_0_4(text: &str) {
    let mut types: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP must name a metric");
            assert!(is_metric_name(name), "bad metric name in HELP: {line}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE must name a metric");
            let ty = it.next().expect("TYPE must give a type");
            assert!(is_metric_name(name), "bad metric name in TYPE: {line}");
            assert!(
                ["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty),
                "unknown metric type: {line}"
            );
            assert!(it.next().is_none(), "trailing junk in TYPE: {line}");
            types.insert(name.to_string(), ty.to_string());
        } else {
            assert!(!line.starts_with('#'), "only HELP/TYPE comments are allowed: {line}");
            let (series, value) = line.rsplit_once(' ').expect("sample line needs a value");
            let v: f64 = value.parse().unwrap_or_else(|_| panic!("unparseable value: {line}"));
            assert!(v.is_finite(), "non-finite sample value: {line}");
            let name = match series.split_once('{') {
                Some((n, labels)) => {
                    let inner = labels
                        .strip_suffix('}')
                        .unwrap_or_else(|| panic!("unterminated label set: {line}"));
                    parse_label_set(inner, line);
                    n
                }
                None => series,
            };
            assert!(is_metric_name(name), "bad sample name: {line}");
            let declared = types.iter().any(|(base, ty)| {
                name == base
                    || (ty == "histogram"
                        && [
                            format!("{base}_bucket"),
                            format!("{base}_sum"),
                            format!("{base}_count"),
                        ]
                        .iter()
                        .any(|s| s == name))
            });
            assert!(declared, "sample without a preceding TYPE declaration: {line}");
            samples += 1;
        }
    }
    assert!(samples > 0, "no samples in exposition");
}
