//! HTTP parser and connection-lifecycle torture tests, run against BOTH
//! gateway implementations (thread-per-connection and epoll reactor).
//!
//! The two servers share one external contract; these tests pin the edges
//! of it that normal replay traffic never exercises:
//!
//! 1. **1-byte reads** — a request head dribbled a byte at a time parses
//!    exactly once the final byte lands, in either server.
//! 2. **Pipelining** — several requests written back-to-back on one
//!    keep-alive connection come back complete and in order.
//! 3. **Oversized heads** — a header section past `MAX_HEAD_BYTES` is
//!    rejected with the *same* status (400) by both servers, then the
//!    connection is closed.
//! 4. **Malformed request lines** — garbage before the first CRLF is a
//!    400 in both servers, never a hang or a silent close.
//! 5. **Slow loris** — a peer that starts a head and stalls is reaped
//!    after `head_read_timeout` without stalling other connections.
//! 6. **Multiplexed client e2e** — `MuxHttpBackend`'s pipelined pool
//!    replays cleanly against both servers.
//! 7. **One codec, one core** — the cases where the two servers used to
//!    differ (a signed `Content-Length`, non-UTF-8 header bytes, a head cut
//!    by EOF, a malformed body in the delay band), and one scripted
//!    conversation whose response bytes must be identical across them.

mod common;

use common::{spawn_server, spawn_server_with_sink, ServerMode};
use faasrail::gateway::http::{read_response, write_request, MAX_HEAD_BYTES};
use faasrail::gateway::{FaultConfig, GatewayConfig, MuxConfig, MuxHttpBackend};
use faasrail::loadgen::{
    replay, InvocationRequest, InvocationResult, NoopBackend, Pacing, ReplayConfig,
};
use faasrail::prelude::*;
use faasrail::telemetry::RingSink;
use faasrail::workloads::WorkloadId;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn default_server(mode: ServerMode) -> common::AnyHandle {
    spawn_server(
        mode,
        Arc::new(NoopBackend),
        GatewayConfig { workers: 4, read_timeout: Duration::from_secs(5), ..Default::default() },
    )
}

fn connect(handle: &common::AnyHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect to gateway");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

// 1. A valid request head fed one byte at a time must parse and answer.

#[test]
fn one_byte_dribble_completes_threaded() {
    one_byte_dribble_completes(ServerMode::Threaded);
}

#[test]
fn one_byte_dribble_completes_reactor() {
    one_byte_dribble_completes(ServerMode::Reactor);
}

fn one_byte_dribble_completes(mode: ServerMode) {
    let handle = default_server(mode);
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));

    let raw = b"GET /healthz HTTP/1.1\r\nHost: torture\r\nConnection: close\r\n\r\n";
    for chunk in raw.chunks(1) {
        (&stream).write_all(chunk).expect("write byte");
        (&stream).flush().expect("flush byte");
        // A small pause defeats loopback coalescing often enough that the
        // server really does see partial heads.
        std::thread::sleep(Duration::from_millis(1));
    }
    let resp = read_response(&mut reader).expect("read dribbled response");
    assert_eq!(resp.status, 200, "{mode:?}");
    assert!(!resp.body.is_empty(), "{mode:?}: healthz body");
    handle.stop();
}

// 2. Pipelined keep-alive requests answer completely and in order.

#[test]
fn pipelined_requests_answer_in_order_threaded() {
    pipelined_requests_answer_in_order(ServerMode::Threaded);
}

#[test]
fn pipelined_requests_answer_in_order_reactor() {
    pipelined_requests_answer_in_order(ServerMode::Reactor);
}

fn pipelined_requests_answer_in_order(mode: ServerMode) {
    let handle = default_server(mode);
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = &stream;

    // Distinct content types prove the responses come back in request
    // order, not just "five responses".
    let paths = ["/healthz", "/stats", "/metrics", "/healthz", "/stats"];
    for (i, path) in paths.iter().enumerate() {
        let keep = i + 1 < paths.len();
        write_request(&mut writer, "GET", path, "torture", "text/plain", b"", keep)
            .expect("pipeline request");
    }
    for (i, path) in paths.iter().enumerate() {
        let resp = read_response(&mut reader).expect("pipelined response");
        assert_eq!(resp.status, 200, "{mode:?}: response {i} to {path}");
        let want =
            if *path == "/metrics" { "text/plain; version=0.0.4" } else { "application/json" };
        assert_eq!(resp.content_type.as_deref(), Some(want), "{mode:?}: response {i} to {path}");
    }
    handle.stop();
}

// 3 + 4. Protocol violations get the same status from both servers.

/// Send raw bytes on a fresh connection, return the response status, and
/// assert the server closes the connection afterwards.
fn status_for_raw(handle: &common::AnyHandle, raw: &[u8], what: &str) -> u16 {
    let stream = connect(handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (&stream).write_all(raw).expect("write raw request");
    let resp = read_response(&mut reader).unwrap_or_else(|e| panic!("{what}: no response: {e}"));
    // The violation must also kill the connection.
    let mut rest = Vec::new();
    let closed = reader.read_to_end(&mut rest);
    assert!(
        matches!(closed, Ok(0)) || closed.is_err(),
        "{what}: connection must close after a {} (read {rest:?})",
        resp.status
    );
    resp.status
}

fn oversized_head() -> Vec<u8> {
    let mut raw = b"GET /healthz HTTP/1.1\r\nHost: torture\r\nX-Flood: ".to_vec();
    raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1024));
    raw.extend_from_slice(b"\r\n\r\n");
    raw
}

#[test]
fn oversized_header_section_gets_the_same_status_from_both_servers() {
    let mut statuses = Vec::new();
    for mode in ServerMode::BOTH {
        let handle = default_server(mode);
        statuses.push(status_for_raw(&handle, &oversized_head(), "oversized head"));
        handle.stop();
    }
    assert_eq!(statuses, [400, 400], "threaded vs reactor");
}

#[test]
fn malformed_request_line_gets_the_same_status_from_both_servers() {
    let mut statuses = Vec::new();
    for mode in ServerMode::BOTH {
        let handle = default_server(mode);
        statuses.push(status_for_raw(&handle, b"THIS IS NOT HTTP\r\n\r\n", "malformed line"));
        handle.stop();
    }
    assert_eq!(statuses, [400, 400], "threaded vs reactor");
}

// 5. Slow loris: a stalled partial head is reaped on `head_read_timeout`
// without collateral damage to well-behaved connections.

#[test]
fn slow_loris_is_reaped_without_stalling_other_connections_threaded() {
    slow_loris_is_reaped_without_stalling_other_connections(ServerMode::Threaded);
}

#[test]
fn slow_loris_is_reaped_without_stalling_other_connections_reactor() {
    slow_loris_is_reaped_without_stalling_other_connections(ServerMode::Reactor);
}

fn slow_loris_is_reaped_without_stalling_other_connections(mode: ServerMode) {
    let handle = spawn_server(
        mode,
        Arc::new(NoopBackend),
        GatewayConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30),
            head_read_timeout: Duration::from_millis(250),
            ..Default::default()
        },
    );

    // The attacker: starts a request head, then goes quiet forever.
    let loris = connect(&handle);
    (&loris).write_all(b"GET /healthz HTTP/1.1\r\nHost: lo").expect("partial head");

    // A well-behaved client keeps getting answers while the loris hangs.
    let polite = connect(&handle);
    let mut polite_reader = BufReader::new(polite.try_clone().expect("clone stream"));
    let start = Instant::now();
    let mut served = 0;
    while start.elapsed() < Duration::from_millis(400) {
        write_request(&mut (&polite), "GET", "/healthz", "torture", "text/plain", b"", true)
            .expect("polite request");
        let resp = read_response(&mut polite_reader).expect("polite response");
        assert_eq!(resp.status, 200, "well-behaved client must keep being served");
        served += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(served > 5, "the polite client got {served} responses during the attack window");

    // The loris connection must be dead by now: ~400ms elapsed against a
    // 250ms head deadline. The server sends nothing — just a close.
    let mut loris_reader = loris.try_clone().expect("clone stream");
    loris_reader.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut buf = [0u8; 64];
    match loris_reader.read(&mut buf) {
        Ok(0) => {}                                                     // clean FIN
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {} // RST also fine
        other => panic!("loris socket should be closed, got {other:?}"),
    }
    // The threaded server's stop waits for open keep-alive connections.
    drop((polite, polite_reader));
    handle.stop();
}

// 6. The multiplexed pipelined client replays cleanly against both servers.

#[test]
fn mux_client_replays_cleanly_threaded() {
    mux_client_replays_cleanly(ServerMode::Threaded);
}

#[test]
fn mux_client_replays_cleanly_reactor() {
    mux_client_replays_cleanly(ServerMode::Reactor);
}

fn mux_client_replays_cleanly(mode: ServerMode) {
    let n = 400usize;
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let trace = faasrail::core::RequestTrace {
        duration_minutes: 1,
        requests: (0..n as u64)
            .map(|i| faasrail::core::Request {
                at_ms: i,
                workload: WorkloadId(7),
                function_index: 7,
            })
            .collect(),
    };

    let handle = default_server(mode);
    let client = MuxHttpBackend::new(
        handle.addr().to_string(),
        MuxConfig { connections: 3, pipeline_depth: 16, ..MuxConfig::default() },
    )
    .expect("resolve gateway address");

    let m = replay(&trace, &pool, &client, &ReplayConfig { pacing: Pacing::Unpaced, workers: 8 });
    assert_eq!(m.issued as usize, n, "{mode:?}");
    assert_eq!(m.completed as usize, n, "{mode:?}: breakdown: {}", m.outcome_breakdown());
    assert_eq!(m.errors, 0, "{mode:?}: breakdown: {}", m.outcome_breakdown());

    // The whole point of the mux client: few sockets, many requests.
    let stats = client.stats();
    let connects = stats.connects.load(std::sync::atomic::Ordering::Relaxed);
    let reuses = stats.reuses.load(std::sync::atomic::Ordering::Relaxed);
    assert!(connects <= 3, "{mode:?}: fixed pool must not grow: connects={connects}");
    assert!(reuses > 0, "{mode:?}: pipelined connections must be reused");
    drop(client);
    handle.stop();
}

// 7. One codec and one core under both servers.

/// Everything the server sends until it closes (or resets) the connection.
fn read_until_closed(stream: &TcpStream) -> Vec<u8> {
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match (&*stream).read(&mut chunk) {
            Ok(0) | Err(_) => return got,
            Ok(n) => got.extend_from_slice(&chunk[..n]),
        }
    }
}

fn invoke_request(body: &[u8], connection: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST /invoke HTTP/1.1\r\nHost: torture\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

fn valid_invocation() -> Vec<u8> {
    let req = InvocationRequest {
        workload: WorkloadId(7),
        input: WorkloadInput::Pyaes { bytes: 1024 },
        function_index: 3,
        scheduled_at_ms: 12,
        trace_id: 0,
    };
    serde_json::to_vec(&req).expect("request serializes")
}

#[test]
fn signed_content_length_is_refused_by_both_servers() {
    for mode in ServerMode::BOTH {
        let handle = default_server(mode);
        let raw = b"GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello";
        assert_eq!(status_for_raw(&handle, raw, "signed content-length"), 400, "{mode:?}");
        handle.stop();
    }
}

#[test]
fn non_utf8_bytes_in_an_unknown_header_are_served_by_both_servers() {
    for mode in ServerMode::BOTH {
        let handle = default_server(mode);
        let stream = connect(&handle);
        (&stream)
            .write_all(
                b"GET /healthz HTTP/1.1\r\nX-Blob: \xff\xfe\x80\r\nConnection: close\r\n\r\n",
            )
            .expect("write request");
        let resp = read_response(&mut BufReader::new(&stream)).expect("a response");
        assert_eq!(resp.status, 200, "{mode:?}");
        handle.stop();
    }
}

#[test]
fn a_head_cut_by_half_close_is_closed_without_a_byte_by_both_servers() {
    for mode in ServerMode::BOTH {
        let handle = default_server(mode);
        let stream = connect(&handle);
        (&stream).write_all(b"GET /healthz HTTP/1.1\r\nHost: tor").expect("partial head");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        let end = (&stream).read_to_end(&mut got);
        assert!(end.is_ok(), "{mode:?}: a clean close, got {end:?}");
        assert_eq!(got, b"", "{mode:?}: no response to half a head");
        assert_eq!(handle.stats().http_400.load(Ordering::Relaxed), 0, "{mode:?}");
        handle.stop();
    }
}

#[test]
fn a_malformed_body_in_the_delay_band_is_a_plain_400_in_both_servers() {
    for mode in ServerMode::BOTH {
        let sink = Arc::new(RingSink::with_capacity(16));
        let fault = FaultConfig { latency_fraction: 1.0, latency_ms: 3_000, ..Default::default() };
        let handle = spawn_server_with_sink(
            mode,
            Arc::new(NoopBackend),
            GatewayConfig { workers: 2, fault, ..Default::default() },
            Some(Arc::clone(&sink) as Arc<dyn EventSink>),
        );
        let stream = connect(&handle);
        let started = Instant::now();
        (&stream).write_all(&invoke_request(b"{ not json", "close")).expect("write request");
        let resp = read_response(&mut BufReader::new(&stream)).expect("a response");
        assert_eq!(resp.status, 400, "{mode:?}");
        assert!(
            started.elapsed() < Duration::from_millis(1_500),
            "{mode:?}: answered after {:?}, so the 3 s delay was served first",
            started.elapsed()
        );
        handle.stop(); // joins the server: the span has been emitted
        let events = sink.events();
        let [TelemetryEvent::ServerSpan(span)] = &events[..] else {
            panic!("{mode:?}: one span expected, got {events:?}");
        };
        assert_eq!(span.fault, None, "{mode:?}");
        assert_eq!(span.outcome, OutcomeClass::Transport, "{mode:?}");
    }
}

/// A backend that holds every invocation until the gate opens.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    entered: AtomicUsize,
}

impl Backend for Gate {
    fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.opened.wait(open).expect("gate lock");
        }
        InvocationResult::success(0.0, false)
    }

    fn name(&self) -> &str {
        "gate"
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The bytes of a shed: one worker held at the gate, one admission slot
/// taken, and a third arrival refused.
fn shed_bytes(mode: ServerMode) -> Vec<u8> {
    let gate = Arc::new(Gate::default());
    let handle = spawn_server(
        mode,
        Arc::clone(&gate) as Arc<dyn Backend>,
        GatewayConfig { workers: 1, queue_capacity: 1, ..Default::default() },
    );
    let invoke = invoke_request(&valid_invocation(), "close");
    let a = connect(&handle);
    (&a).write_all(&invoke).expect("first invocation");
    wait_until("the worker is inside the backend", || gate.entered.load(Ordering::SeqCst) == 1);
    let b = connect(&handle);
    (&b).write_all(&invoke).expect("second invocation");
    wait_until("the admission queue is full", || {
        handle.stats().queue_depth.load(Ordering::Relaxed) == 1
    });
    let c = connect(&handle);
    // The threaded server refuses at accept; a request written at a socket
    // it has already closed would turn its FIN into a reset.
    if mode == ServerMode::Reactor {
        (&c).write_all(&invoke).expect("third invocation");
    }
    let shed = read_until_closed(&c);
    assert_eq!(handle.stats().shed.load(Ordering::Relaxed), 1, "{mode:?}");

    *gate.open.lock().expect("gate lock") = true;
    gate.opened.notify_all();
    for admitted in [&a, &b] {
        let resp = read_response(&mut BufReader::new(admitted)).expect("admitted response");
        assert_eq!(resp.status, 200, "{mode:?}");
    }
    handle.stop();
    shed
}

/// One scripted conversation, as the response bytes of each connection.
fn conversation(mode: ServerMode) -> Vec<Vec<u8>> {
    let handle = default_server(mode);
    let exchange = |raw: &[u8]| {
        let stream = connect(&handle);
        (&stream).write_all(raw).expect("write script");
        read_until_closed(&stream)
    };
    // A valid invocation, one whose body does not decode, and an unknown
    // path, pipelined on one keep-alive connection.
    let mut pipelined = invoke_request(&valid_invocation(), "keep-alive");
    pipelined.extend(invoke_request(b"{ not json", "keep-alive"));
    pipelined.extend_from_slice(b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    let oversized_body = b"POST /invoke HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
    let replies = vec![
        exchange(&pipelined),
        exchange(b"THIS IS NOT HTTP\r\n\r\n"),
        exchange(&oversized_head()),
        exchange(oversized_body),
    ];
    handle.stop();
    replies
}

#[test]
fn a_scripted_conversation_gets_identical_bytes_from_both_servers() {
    let threaded = conversation(ServerMode::Threaded);
    let reactor = conversation(ServerMode::Reactor);
    let text = |replies: &[Vec<u8>]| -> Vec<String> {
        replies.iter().map(|r| String::from_utf8_lossy(r).into_owned()).collect()
    };
    assert_eq!(text(&threaded), text(&reactor));

    // And they are the bytes this contract has always put on the wire.
    let result = serde_json::to_string(&InvocationResult::success(0.0, false)).expect("serializes");
    let pipelined = text(&threaded)[0].clone();
    let ok = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n{result}",
        result.len()
    );
    assert!(pipelined.starts_with(&ok), "{pipelined}");
    assert!(pipelined.contains("HTTP/1.1 400 Bad Request\r\n"), "{pipelined}");
    assert!(pipelined.contains("\r\n\r\nbad invocation request: "), "{pipelined}");
    let not_found = "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 9\r\n\
                     Connection: close\r\n\r\nnot found";
    assert!(pipelined.ends_with(not_found), "{pipelined}");
    for (reply, why) in text(&threaded)[1..].iter().zip([
        "malformed head",
        "header section too large",
        "body too large",
    ]) {
        let body = format!("bad request: {why}");
        let want = format!(
            "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(reply, &want);
    }

    let shed = shed_bytes(ServerMode::Threaded);
    assert_eq!(
        String::from_utf8_lossy(&shed),
        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/plain\r\nContent-Length: 35\r\n\
         Connection: close\r\nRetry-After: 1\r\n\r\nshedding load: admission queue full"
    );
    assert_eq!(shed, shed_bytes(ServerMode::Reactor));
}
