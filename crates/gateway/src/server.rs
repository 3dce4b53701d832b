//! The threaded engine of [`crate::Gateway`]: any `Backend` behind a real
//! wire, on a dependency-free HTTP/1.1 server over `std::net::TcpListener`.
//!
//! What is served, refused, injected and traced is [`crate::core`]'s
//! contract. This file is the transport: an accept loop feeding a
//! **bounded** queue of connections (`cfg.queue_capacity`; a connection
//! arriving with it full is shed with `429` there and then, so overload
//! is an immediate signal instead of peers timing out in the OS backlog),
//! and `cfg.workers` threads that each take one connection at a time and
//! block on it — reading through `http::RequestClock`, running each
//! invocation (an injected delay included) in `Core::run_invoke`, sleeping
//! out injected stalls in place, writing each reply before reading on.

use crate::core::{micros_since, Arrival, Core, Reply, Step};
use crate::{http, lock};
use std::io::{self, BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Duration;

/// One accepted connection in flight from the accept loop to a worker.
struct ConnMeta {
    stream: TcpStream,
    /// When the connection was accepted, µs from gateway start.
    accepted_us: u64,
    /// Pending connections ahead of this one at admission.
    depth: u64,
}

/// Serve `listener` until shut down; queued connections are served before
/// the workers exit.
pub(crate) fn run(core: &Core, listener: &TcpListener) {
    let stats = &*core.stats;
    let capacity = core.cfg.queue_capacity.max(1);
    let (tx, rx) = sync_channel(capacity);
    // The idle worker waits in `recv` under the lock, the rest on the
    // lock; a connection is handed over once, so the lock is taken per
    // connection, not per request.
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for worker in 0..core.cfg.workers as u64 {
            let next = || lock(&rx).recv().ok();
            scope.spawn(move || {
                while let Some(conn) = next() {
                    stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    stats.connections_active.fetch_add(1, Ordering::Relaxed);
                    handle_connection(conn, core, worker);
                    stats.connections_active.fetch_sub(1, Ordering::Relaxed);
                    stats.connections_closed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        loop {
            if core.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    if core.shutdown.load(Ordering::SeqCst) {
                        break; // the shutdown wake-up connection itself
                    }
                    let Some(depth) = core.admit() else {
                        shed_connection(stream, core);
                        continue;
                    };
                    let accepted_us = micros_since(core.epoch);
                    stats.handoffs.fetch_add(1, Ordering::Relaxed);
                    // Admitted work always finds room: this never blocks.
                    if tx.send(ConnMeta { stream, accepted_us, depth }).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(_) => {
                    if core.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        }
        drop(tx); // workers drain queued connections, then exit
    });
}

/// Write `reply`, then emit its span (a response that failed to reach the
/// wire still has one). `Ok(keep)` says whether the connection lives on.
fn send(stream: &TcpStream, core: &Core, reply: Reply) -> io::Result<bool> {
    let written = http::write_response_with(
        &mut &*stream,
        reply.status,
        reply.content_type,
        reply.extra_headers,
        &reply.body,
        reply.keep,
    );
    if let Some(span) = reply.span {
        core.emit(span, micros_since(core.epoch));
    }
    written.map(|()| reply.keep)
}

/// Refuse a connection the admission queue has no room for. Runs on the
/// accept thread, so the write gets a short timeout — a peer too slow to
/// take a two-line response isn't worth stalling admission for.
fn shed_connection(stream: TcpStream, core: &Core) {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(Duration::from_millis(100))).ok();
    let _ = send(&stream, core, core.shed());
}

/// Serve one connection until it closes (client close, read deadline,
/// refused head, injected drop or stall, write failure, or shutdown).
fn handle_connection(conn: ConnMeta, core: &Core, worker: u64) {
    let stream = &conn.stream;
    let dequeued_us = micros_since(core.epoch);
    stream.set_nodelay(true).ok();
    let clock = http::RequestClock::new(stream, core.cfg.read_timeout, core.cfg.head_read_timeout);
    let mut reader = BufReader::new(clock);
    let mut served: u64 = 0;

    loop {
        // A pipelined request already in the buffer has begun arriving.
        let begun = !reader.buffer().is_empty();
        reader.get_mut().next_request(begun);
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let _ = send(stream, core, core.bad_request(&e));
                break;
            }
            // Clean close between requests, a read deadline, a reset, or
            // EOF mid-request: just close.
            Ok(None) | Err(_) => break,
        };
        served += 1;
        // Keep-alive requests after the first never waited in the admission
        // queue, and the worker was already blocked on the socket before the
        // client even sent them — so their accepted/dequeued stamps collapse
        // to the moment the request finished reading. Idle keep-alive gaps
        // must not masquerade as queue wait or read time: the client→server
        // transfer shows up in the join's `net_out` stage instead.
        let (accepted_us, dequeued_us, queue_depth) = if served == 1 {
            (conn.accepted_us, dequeued_us, conn.depth)
        } else {
            let now = micros_since(core.epoch);
            (now, now, 0)
        };
        let reply = match core.route(Arrival {
            method: req.method.as_bytes(),
            path: req.path.as_bytes(),
            keep_alive: req.keep_alive,
            trace_id: req.trace_id,
            body: &req.body,
            served,
            accepted_us,
            dequeued_us,
            queue_depth,
            worker,
        }) {
            Step::Reply(reply) => reply,
            Step::Invoke { inv, span, delay, keep } => core.run_invoke(&inv, span, delay, keep),
            Step::Vanish { span, hold } => {
                std::thread::sleep(hold);
                core.close(span);
                break;
            }
        };
        if !matches!(send(stream, core, reply), Ok(true)) {
            break;
        }
    }
    core.stats.max_requests_per_connection.fetch_max(served, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{HttpBackend, HttpBackendConfig};
    use crate::{FaultConfig, Gateway, GatewayConfig, GatewayHandle};
    use faasrail_loadgen::{InvocationRequest, InvocationResult, NoopBackend};
    use faasrail_telemetry::{
        EventSink, OutcomeClass, RingSink, ServerFault, ServerSpan, TelemetryEvent,
    };
    use faasrail_workloads::{WorkloadId, WorkloadInput};
    use std::io::BufReader;
    use std::sync::Arc;
    use std::time::Instant;

    fn test_cfg() -> GatewayConfig {
        GatewayConfig {
            workers: 4,
            queue_capacity: 4,
            read_timeout: Duration::from_millis(500),
            ..GatewayConfig::default()
        }
    }

    fn spawn_noop(cfg: GatewayConfig) -> GatewayHandle {
        Gateway::bind("127.0.0.1:0", Arc::new(NoopBackend), cfg).unwrap().spawn()
    }

    fn request_json() -> Vec<u8> {
        let req = InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 1024 },
            function_index: 3,
            scheduled_at_ms: 12,
            trace_id: 0,
        };
        serde_json::to_vec(&req).unwrap()
    }

    /// One raw request/response exchange on an existing connection.
    fn roundtrip(stream: &TcpStream, method: &str, path: &str, body: &[u8]) -> http::Response {
        http::write_request(&mut (&*stream), method, path, "test", "application/json", body, true)
            .unwrap();
        http::read_response(&mut BufReader::new(stream)).unwrap()
    }

    #[test]
    fn healthz_stats_and_404_share_a_keep_alive_connection() {
        let handle = spawn_noop(test_cfg());
        let stream = TcpStream::connect(handle.addr()).unwrap();

        let resp = roundtrip(&stream, "GET", "/healthz", b"");
        assert_eq!(resp.status, 200);
        let health = String::from_utf8(resp.body).unwrap();
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"queue_depth\":0"), "{health}");
        assert!(health.contains("\"shed\":0"), "{health}");
        assert!(health.contains("\"version\":\""), "{health}");
        assert!(health.contains("\"git_sha\":\""), "{health}");
        assert!(resp.keep_alive);

        let resp = roundtrip(&stream, "GET", "/nope", b"");
        assert_eq!(resp.status, 404);

        let resp = roundtrip(&stream, "GET", "/stats", b"");
        assert_eq!(resp.status, 200);
        let json = String::from_utf8(resp.body).unwrap();
        assert!(json.contains("\"requests\":3"), "{json}");
        assert!(json.contains("\"http_404\":1"), "{json}");
        assert!(json.contains("\"connections_accepted\":1"), "{json}");

        drop(stream);
        handle.stop();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let handle = spawn_noop(test_cfg());
        let stream = TcpStream::connect(handle.addr()).unwrap();

        let resp = roundtrip(&stream, "POST", "/invoke", &request_json());
        assert_eq!(resp.status, 200);

        let resp = roundtrip(&stream, "GET", "/metrics", b"");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type.as_deref(), Some("text/plain; version=0.0.4"));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("# TYPE faasrail_gateway_requests_total counter"), "{text}");
        assert!(
            text.contains("faasrail_gateway_invocation_results_total{result=\"ok\"} 1"),
            "{text}"
        );
        assert!(text.contains("faasrail_gateway_connections_active 1"), "{text}");

        // /stats stays JSON on the same connection.
        let resp = roundtrip(&stream, "GET", "/stats", b"");
        assert_eq!(resp.content_type.as_deref(), Some("application/json"));

        drop(stream);
        handle.stop();
    }

    #[test]
    fn invoke_executes_the_backend_over_the_wire() {
        let handle = spawn_noop(test_cfg());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let resp = roundtrip(&stream, "POST", "/invoke", &request_json());
        assert_eq!(resp.status, 200);
        let result: InvocationResult = serde_json::from_slice(&resp.body).unwrap();
        assert!(result.ok);
        assert_eq!(result.outcome(), OutcomeClass::Ok);
        drop(stream);
        let stats = handle.stats();
        assert_eq!(stats.invocations.load(Ordering::Relaxed), 1);
        assert_eq!(stats.invocations_ok.load(Ordering::Relaxed), 1);
        handle.stop();
    }

    #[test]
    fn malformed_invocation_body_is_400_not_a_crash() {
        let handle = spawn_noop(test_cfg());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let resp = roundtrip(&stream, "POST", "/invoke", b"{ not json");
        assert_eq!(resp.status, 400);
        // The connection survives a body-level 400.
        let resp = roundtrip(&stream, "GET", "/healthz", b"");
        assert_eq!(resp.status, 200);
        drop(stream);
        assert_eq!(handle.stats().http_400.load(Ordering::Relaxed), 1);
        handle.stop();
    }

    #[test]
    fn injected_500s_surface_to_the_client_as_retryable() {
        let cfg = GatewayConfig {
            fault: FaultConfig { error_fraction: 1.0, seed: 3, ..FaultConfig::default() },
            ..test_cfg()
        };
        let handle = spawn_noop(cfg);
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let resp = roundtrip(&stream, "POST", "/invoke", &request_json());
        assert_eq!(resp.status, 500);
        drop(stream);
        assert_eq!(handle.stats().faults_errored.load(Ordering::Relaxed), 1);
        handle.stop();
    }

    #[test]
    fn end_to_end_with_http_backend_client() {
        let handle = spawn_noop(test_cfg());
        let client =
            HttpBackend::connect(&handle.addr().to_string(), HttpBackendConfig::default()).unwrap();
        let req = InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 1024 },
            function_index: 0,
            scheduled_at_ms: 0,
            trace_id: 0,
        };
        for _ in 0..5 {
            let r = faasrail_loadgen::Backend::invoke(&client, &req);
            assert!(r.ok, "{:?}", r.error);
        }
        drop(client); // release pooled connections before stopping the server
        let stats = handle.stats();
        assert_eq!(stats.invocations_ok.load(Ordering::Relaxed), 5);
        assert!(
            stats.connections_accepted.load(Ordering::Relaxed) <= 2,
            "keep-alive should confine 5 invocations to very few connections"
        );
        handle.stop();
    }

    #[test]
    fn full_admission_queue_sheds_with_429_and_retry_after() {
        // One worker, queue of one. Connection A occupies the worker (its
        // keep-alive roundtrip proves a worker picked it up); B then sits in
        // the queue; C must be shed with a 429 at admission.
        let handle = spawn_noop(GatewayConfig { workers: 1, queue_capacity: 1, ..test_cfg() });
        let a = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(roundtrip(&a, "GET", "/healthz", b"").status, 200);

        let b = TcpStream::connect(handle.addr()).unwrap();
        // B is queued, not yet served; give the accept thread a moment to
        // enqueue it before driving C.
        std::thread::sleep(Duration::from_millis(50));

        let c = TcpStream::connect(handle.addr()).unwrap();
        let resp = http::read_response(&mut BufReader::new(&c)).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(1));
        assert!(!resp.keep_alive);
        drop(c);
        assert_eq!(handle.stats().shed.load(Ordering::Relaxed), 1);

        // Freeing the worker lets the queued connection B get served — and
        // the health probe now reports the shed it witnessed.
        drop(a);
        let health = roundtrip(&b, "GET", "/healthz", b"");
        assert_eq!(health.status, 200);
        let health = String::from_utf8(health.body).unwrap();
        assert!(health.contains("\"shed\":1"), "{health}");
        let resp = roundtrip(&b, "GET", "/stats", b"");
        let json = String::from_utf8(resp.body).unwrap();
        assert!(json.contains("\"shed\":1"), "{json}");
        assert!(json.contains("\"queue_depth\":0"), "{json}");
        drop(b);
        handle.stop();
    }

    #[test]
    fn connections_queued_at_stop_are_served_before_the_workers_exit() {
        // One worker, held by connection A. B and C send their requests and
        // wait in the admission queue; stop() is then called with both
        // still queued.
        let handle = spawn_noop(GatewayConfig { workers: 1, queue_capacity: 2, ..test_cfg() });
        let core = Arc::clone(&handle.core);
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::yield_now();
            }
        };
        let a = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(roundtrip(&a, "GET", "/healthz", b"").status, 200);
        let queued: Vec<TcpStream> = (0..2)
            .map(|_| {
                let stream = TcpStream::connect(handle.addr()).unwrap();
                http::write_request(
                    &mut (&stream),
                    "POST",
                    "/invoke",
                    "test",
                    "application/json",
                    &request_json(),
                    false,
                )
                .unwrap();
                stream
            })
            .collect();
        wait_for("B and C to be queued", &|| core.stats.queue_depth.load(Ordering::Relaxed) == 2);

        let stopper = std::thread::spawn(move || handle.stop());
        wait_for("stop() to be under way", &|| core.shutdown.load(Ordering::SeqCst));
        assert_eq!(core.stats.queue_depth.load(Ordering::Relaxed), 2, "nothing drained yet");

        drop(a); // frees the worker; the sender may already be gone
        for stream in &queued {
            let resp = http::read_response(&mut BufReader::new(stream)).unwrap();
            assert_eq!(resp.status, 200);
            assert!(serde_json::from_slice::<InvocationResult>(&resp.body).unwrap().ok);
        }
        stopper.join().unwrap();
        assert_eq!(core.stats.queue_depth.load(Ordering::Relaxed), 0);
        assert_eq!(core.stats.invocations_ok.load(Ordering::Relaxed), 2);
        assert_eq!(core.stats.connections_closed.load(Ordering::Relaxed), 3);
        assert_eq!(core.stats.shed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stall_fault_black_holes_the_connection() {
        let cfg = GatewayConfig {
            fault: FaultConfig {
                stall_fraction: 1.0,
                stall_ms: 50,
                seed: 5,
                ..FaultConfig::default()
            },
            ..test_cfg()
        };
        let handle = spawn_noop(cfg);
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let start = std::time::Instant::now();
        http::write_request(
            &mut (&stream),
            "POST",
            "/invoke",
            "test",
            "application/json",
            &request_json(),
            true,
        )
        .unwrap();
        // No response ever arrives: the read ends in EOF after the stall.
        let err = http::read_response(&mut BufReader::new(&stream)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(start.elapsed() >= Duration::from_millis(45), "stall held the socket");
        drop(stream);
        assert_eq!(handle.stats().faults_stalled.load(Ordering::Relaxed), 1);
        handle.stop();
    }

    fn spawn_traced(cfg: GatewayConfig) -> (GatewayHandle, Arc<RingSink>) {
        let sink = Arc::new(RingSink::with_capacity(256));
        let handle = Gateway::bind("127.0.0.1:0", Arc::new(NoopBackend), cfg)
            .unwrap()
            .with_trace_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .spawn();
        (handle, sink)
    }

    /// Spans are emitted just after the response is written, so a client
    /// that has read the response may still be a beat ahead of the sink.
    fn wait_for_spans(sink: &RingSink, n: usize) -> Vec<ServerSpan> {
        for _ in 0..200 {
            let spans: Vec<ServerSpan> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    TelemetryEvent::ServerSpan(s) => Some(s),
                    _ => None,
                })
                .collect();
            if spans.len() >= n {
                return spans;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("never saw {n} server spans; events: {:?}", sink.events().len());
    }

    #[test]
    fn invoke_emits_a_server_span_tagged_from_the_trace_header() {
        let (handle, sink) = spawn_traced(test_cfg());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        http::write_request_with(
            &mut (&stream),
            "POST",
            "/invoke",
            "test",
            "application/json",
            &[(http::TRACE_HEADER, "deadbeef")],
            &request_json(),
            true,
        )
        .unwrap();
        let resp = http::read_response(&mut BufReader::new(&stream)).unwrap();
        assert_eq!(resp.status, 200);

        let spans = wait_for_spans(&sink, 1);
        let s = &spans[0];
        assert_eq!(s.trace_id, 0xdead_beef, "header id wins");
        assert_eq!(s.seq, 0);
        assert_eq!(s.outcome, OutcomeClass::Ok);
        assert_eq!(s.fault, None);
        assert!(
            s.accepted_us <= s.dequeued_us
                && s.dequeued_us <= s.handler_start_us
                && s.handler_start_us <= s.handler_end_us
                && s.handler_end_us <= s.flushed_us,
            "stages must be monotonic: {s:?}"
        );
        drop(stream);
        handle.stop();
    }

    #[test]
    fn body_trace_id_is_the_fallback_when_no_header_is_sent() {
        let (handle, sink) = spawn_traced(test_cfg());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let req = InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 1024 },
            function_index: 3,
            scheduled_at_ms: 12,
            trace_id: 0xf00d,
        };
        let resp = roundtrip(&stream, "POST", "/invoke", &serde_json::to_vec(&req).unwrap());
        assert_eq!(resp.status, 200);
        let spans = wait_for_spans(&sink, 1);
        assert_eq!(spans[0].trace_id, 0xf00d);
        drop(stream);
        handle.stop();
    }

    #[test]
    fn fault_spans_are_classified_drop_stall_error_delay() {
        // (fault config, expected fault, expected outcome, gets a response)
        let cases = [
            (
                FaultConfig { drop_fraction: 1.0, seed: 3, ..FaultConfig::default() },
                ServerFault::Drop,
                OutcomeClass::Transport,
                false,
            ),
            (
                FaultConfig {
                    stall_fraction: 1.0,
                    stall_ms: 20,
                    seed: 3,
                    ..FaultConfig::default()
                },
                ServerFault::Stall,
                OutcomeClass::Timeout,
                false,
            ),
            (
                FaultConfig { error_fraction: 1.0, seed: 3, ..FaultConfig::default() },
                ServerFault::Error,
                OutcomeClass::Transport,
                true,
            ),
            (
                FaultConfig {
                    latency_fraction: 1.0,
                    latency_ms: 10,
                    seed: 3,
                    ..FaultConfig::default()
                },
                ServerFault::Delay,
                OutcomeClass::Ok,
                true,
            ),
        ];
        for (fault, expect_fault, expect_outcome, responds) in cases {
            let (handle, sink) = spawn_traced(GatewayConfig { fault, ..test_cfg() });
            let stream = TcpStream::connect(handle.addr()).unwrap();
            http::write_request(
                &mut (&stream),
                "POST",
                "/invoke",
                "test",
                "application/json",
                &request_json(),
                true,
            )
            .unwrap();
            let read = http::read_response(&mut BufReader::new(&stream));
            assert_eq!(read.is_ok(), responds, "{expect_fault:?}: {read:?}");
            let spans = wait_for_spans(&sink, 1);
            assert_eq!(spans[0].fault, Some(expect_fault), "{spans:?}");
            assert_eq!(spans[0].outcome, expect_outcome, "{spans:?}");
            drop(stream);
            handle.stop();
        }
    }

    #[test]
    fn shed_connections_produce_no_server_span() {
        let (handle, sink) =
            spawn_traced(GatewayConfig { workers: 1, queue_capacity: 1, ..test_cfg() });
        let a = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(roundtrip(&a, "GET", "/healthz", b"").status, 200);
        let _b = TcpStream::connect(handle.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let c = TcpStream::connect(handle.addr()).unwrap();
        let resp = http::read_response(&mut BufReader::new(&c)).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(handle.stats().shed.load(Ordering::Relaxed), 1);
        assert!(
            sink.events().is_empty(),
            "a shed connection must stay an orphan on the client side"
        );
        drop((a, c));
        handle.stop();
    }

    #[test]
    fn metrics_include_stage_histograms_after_an_invocation() {
        let (handle, _sink) = spawn_traced(test_cfg());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(roundtrip(&stream, "POST", "/invoke", &request_json()).status, 200);
        let resp = roundtrip(&stream, "GET", "/metrics", b"");
        let text = String::from_utf8(resp.body).unwrap();
        for stage in ["queue_wait", "service", "flush", "total"] {
            let name = format!("faasrail_gateway_stage_{stage}_seconds");
            assert!(text.contains(&format!("# TYPE {name} histogram")), "{name} missing");
            assert!(text.contains(&format!("{name}_count 1")), "{name} not recorded:\n{text}");
        }
        drop(stream);
        handle.stop();
    }

    #[test]
    fn latency_fault_delays_but_still_answers() {
        let cfg = GatewayConfig {
            fault: FaultConfig {
                latency_fraction: 1.0,
                latency_ms: 60,
                seed: 5,
                ..FaultConfig::default()
            },
            ..test_cfg()
        };
        let handle = spawn_noop(cfg);
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let start = std::time::Instant::now();
        let resp = roundtrip(&stream, "POST", "/invoke", &request_json());
        assert_eq!(resp.status, 200, "a straggler is not a failure");
        assert!(start.elapsed() >= Duration::from_millis(55), "delay was injected");
        drop(stream);
        assert_eq!(handle.stats().faults_delayed.load(Ordering::Relaxed), 1);
        handle.stop();
    }
}
