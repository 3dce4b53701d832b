//! The gateway's request core: everything the two servers decide about a
//! request, with no socket in sight.
//!
//! [`crate::Gateway`] (a thread per connection) and
//! [`crate::ReactorGateway`] (epoll shards) both parse with
//! `faasrail_reactor::http1`, hand each request to `Core::route`, and
//! carry out the `Step` it returns. The contract lives here, once:
//!
//! | request | answer |
//! |---|---|
//! | `POST /invoke`, body an [`InvocationRequest`] | `200`, the backend's `InvocationResult` as JSON (an application failure is `ok: false` in a `200`, never an HTTP error) |
//! | `POST /invoke`, body that does not decode | `400 bad invocation request: ..`, connection kept |
//! | `GET /healthz` | `200` JSON: status, live queue depth, shed total, version, git sha |
//! | `GET /stats` | `200` JSON: [`GatewayStats::to_json`] |
//! | `GET /metrics` | `200` Prometheus text 0.0.4: the counters, then the [`StageMetrics`] histograms |
//! | anything else | `404 not found`, connection kept |
//! | a head `http1` refuses | `400 bad request: ..` (`Core::bad_request`), connection closed |
//! | a head or body cut short by EOF or a read deadline | closed without a byte |
//! | no room in the admission queue | `429` + `Retry-After: 1` (`Core::shed`), connection closed, no span |
//!
//! **Fault bands.** Invocation `n` (the value of
//! [`GatewayStats::invocations`] when it arrived) draws a uniform variate
//! from ([`FaultConfig::seed`], `n`), and the unit interval is carved into
//! consecutive bands: *drop* (close at once, no reply), *error* (`500
//! injected fault`), *stall* (hold the socket silent for `stall_ms`, then
//! close), *delay* (wait `latency_ms`, then serve normally). The body is
//! decoded only when the request will be served, so a dropped, stalled or
//! errored request costs no decode, and a body that does not decode is the
//! plain `400` above even inside the delay band (no wait, no `Delay` tag,
//! no `faults_delayed` count).
//!
//! **Spans.** Every `POST /invoke` that reached `Core::route` yields one
//! [`ServerSpan`], whichever way it ends. The transport supplies the stamps
//! only it can know (`Arrival`: accepted, dequeued, queue depth, worker)
//! and the flush instant (`Core::emit`); `route` stamps `handler_start_us`,
//! and whoever finishes the handler stage stamps `handler_end_us`: `route`
//! for the `500` and the `400`, `Core::run_invoke` after the backend
//! returns, `Core::close` when a vanished request's connection is let go.
//!
//! What is left to a transport: sockets, threads, buffers, timers, where
//! the admission queue sits (connections waiting for a worker thread, or
//! invocations waiting for a handler thread, so `queue_depth` counts the
//! one or the other), and how a `Step` is carried out.

use crate::backoff::mix_fraction;
use crate::lock;
use faasrail_loadgen::{Backend, InvocationRequest};
use faasrail_telemetry::{
    EventSink, LogHistogram, NullSink, OutcomeClass, PromText, ServerFault, ServerSpan,
    TelemetryEvent,
};
use std::borrow::Cow;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seeded fault injection: each invocation draws a deterministic uniform
/// variate from (`seed`, invocation index) and the unit interval is carved
/// into consecutive fault bands — `drop_fraction` closes the connection
/// without replying, then `error_fraction` replies `500`, then
/// `stall_fraction` black-holes the connection (reads the request, holds
/// the socket open for `stall_ms`, closes without a byte of response —
/// exercising the client's deadline rather than its retry path), then
/// `latency_fraction` delays the response by `latency_ms` but answers
/// normally (a straggler, not a failure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Fraction of invocations whose connection is dropped mid-request.
    pub drop_fraction: f64,
    /// Fraction of invocations answered with an injected `500`.
    pub error_fraction: f64,
    /// Fraction of invocations black-holed: the connection stays open,
    /// silent, for `stall_ms`, then closes without a response.
    pub stall_fraction: f64,
    /// How long a stalled connection is held before closing, ms.
    pub stall_ms: u64,
    /// Fraction of invocations delayed by `latency_ms` before a normal
    /// response (injected stragglers).
    pub latency_fraction: f64,
    /// Injected straggler delay, ms.
    pub latency_ms: u64,
    /// Seed for the fault stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_fraction: 0.0,
            error_fraction: 0.0,
            stall_fraction: 0.0,
            stall_ms: 1_000,
            latency_fraction: 0.0,
            latency_ms: 100,
            seed: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    None,
    Drop,
    Error,
    Stall,
    Delay,
}

impl FaultConfig {
    pub(crate) fn decide(&self, invocation: u64) -> Fault {
        let total =
            self.drop_fraction + self.error_fraction + self.stall_fraction + self.latency_fraction;
        if total <= 0.0 {
            return Fault::None;
        }
        let u = mix_fraction(self.seed, invocation);
        let mut edge = 0.0;
        for (fraction, fault) in [
            (self.drop_fraction, Fault::Drop),
            (self.error_fraction, Fault::Error),
            (self.stall_fraction, Fault::Stall),
            (self.latency_fraction, Fault::Delay),
        ] {
            edge += fraction;
            if u < edge {
                return fault;
            }
        }
        Fault::None
    }
}

/// Gateway server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Handler threads. In the threaded server each keep-alive connection
    /// occupies one for its lifetime, so size this at or above the expected
    /// client concurrency.
    pub workers: usize,
    /// Bound on work admitted but not yet picked up by a worker (the
    /// admission-control queue). Work arriving with the queue full is
    /// *shed*: answered `429 Too Many Requests` with `Retry-After` and
    /// closed, instead of letting accept backpressure stall the OS
    /// backlog and silently time peers out.
    pub queue_capacity: usize,
    /// Idle keep-alive timeout: a connection with no request for this long
    /// is closed (also bounds how long shutdown waits on idle peers).
    pub read_timeout: Duration,
    /// Budget for receiving one whole request once its first byte has
    /// arrived. A peer dribbling a byte at a time (slow loris) is closed,
    /// without a response, after this long; both servers enforce it.
    pub head_read_timeout: Duration,
    /// Fault injection (off by default).
    pub fault: FaultConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 64,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(30),
            head_read_timeout: Duration::from_secs(10),
            fault: FaultConfig::default(),
        }
    }
}

/// Aggregate and per-connection counters, updated lock-free.
#[derive(Debug, Default)]
pub struct GatewayStats {
    pub connections_accepted: AtomicU64,
    pub connections_active: AtomicU64,
    pub connections_closed: AtomicU64,
    /// All HTTP requests parsed (any endpoint).
    pub requests: AtomicU64,
    /// `POST /invoke` requests reaching the fault/backend stage.
    pub invocations: AtomicU64,
    pub invocations_ok: AtomicU64,
    pub invocations_failed: AtomicU64,
    /// Connections refused with `429` because the admission queue was full.
    pub shed: AtomicU64,
    /// Connections accepted but not yet picked up by a worker (gauge).
    pub queue_depth: AtomicU64,
    pub faults_dropped: AtomicU64,
    pub faults_errored: AtomicU64,
    pub faults_stalled: AtomicU64,
    pub faults_delayed: AtomicU64,
    pub http_400: AtomicU64,
    pub http_404: AtomicU64,
    /// Most requests any single connection has served (keep-alive depth).
    pub max_requests_per_connection: AtomicU64,
}

impl GatewayStats {
    /// Render the counters as a flat JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let closed = self.connections_closed.load(Ordering::Relaxed);
        let requests = self.requests.load(Ordering::Relaxed);
        let mean_per_conn = if closed == 0 { 0.0 } else { requests as f64 / closed as f64 };
        format!(
            concat!(
                "{{\"connections_accepted\":{},\"connections_active\":{},",
                "\"connections_closed\":{},\"requests\":{},\"invocations\":{},",
                "\"invocations_ok\":{},\"invocations_failed\":{},",
                "\"shed\":{},\"queue_depth\":{},",
                "\"faults_dropped\":{},\"faults_errored\":{},",
                "\"faults_stalled\":{},\"faults_delayed\":{},",
                "\"http_400\":{},\"http_404\":{},",
                "\"max_requests_per_connection\":{},",
                "\"mean_requests_per_closed_connection\":{:.3}}}"
            ),
            self.connections_accepted.load(Ordering::Relaxed),
            self.connections_active.load(Ordering::Relaxed),
            closed,
            requests,
            self.invocations.load(Ordering::Relaxed),
            self.invocations_ok.load(Ordering::Relaxed),
            self.invocations_failed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.queue_depth.load(Ordering::Relaxed),
            self.faults_dropped.load(Ordering::Relaxed),
            self.faults_errored.load(Ordering::Relaxed),
            self.faults_stalled.load(Ordering::Relaxed),
            self.faults_delayed.load(Ordering::Relaxed),
            self.http_400.load(Ordering::Relaxed),
            self.http_404.load(Ordering::Relaxed),
            self.max_requests_per_connection.load(Ordering::Relaxed),
            mean_per_conn,
        )
    }

    /// Render the counters in Prometheus text format (0.0.4), for
    /// `GET /metrics`.
    pub fn to_prometheus(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut p = PromText::new();
        p.counter(
            "faasrail_gateway_connections_accepted_total",
            "TCP connections accepted.",
            load(&self.connections_accepted),
        );
        p.counter(
            "faasrail_gateway_connections_closed_total",
            "Connections fully handled and closed.",
            load(&self.connections_closed),
        );
        p.gauge(
            "faasrail_gateway_connections_active",
            "Connections currently held by a handler worker.",
            load(&self.connections_active) as f64,
        );
        p.counter(
            "faasrail_gateway_requests_total",
            "HTTP requests parsed (any endpoint).",
            load(&self.requests),
        );
        p.counter(
            "faasrail_gateway_invocations_total",
            "POST /invoke requests reaching the fault/backend stage.",
            load(&self.invocations),
        );
        p.counter_vec(
            "faasrail_gateway_invocation_results_total",
            "Backend invocation outcomes.",
            "result",
            &[("ok", load(&self.invocations_ok)), ("failed", load(&self.invocations_failed))],
        );
        p.counter(
            "faasrail_gateway_shed_total",
            "Connections refused with 429 at admission.",
            load(&self.shed),
        );
        p.gauge(
            "faasrail_gateway_queue_depth",
            "Connections accepted but not yet picked up by a worker.",
            load(&self.queue_depth) as f64,
        );
        p.counter_vec(
            "faasrail_gateway_faults_injected_total",
            "Injected faults, by kind.",
            "kind",
            &[
                ("drop", load(&self.faults_dropped)),
                ("error", load(&self.faults_errored)),
                ("stall", load(&self.faults_stalled)),
                ("delay", load(&self.faults_delayed)),
            ],
        );
        p.counter_vec(
            "faasrail_gateway_http_errors_total",
            "Error responses, by status code.",
            "code",
            &[("400", load(&self.http_400)), ("404", load(&self.http_404))],
        );
        p.gauge(
            "faasrail_gateway_max_requests_per_connection",
            "Most requests any single connection has served.",
            load(&self.max_requests_per_connection) as f64,
        );
        p.finish()
    }
}

/// Per-stage server-side residency histograms, fed from every emitted
/// [`ServerSpan`] and rendered on `GET /metrics`. Coarse mutexes are fine
/// here: one `record` per invocation, far off the per-byte hot path.
pub struct StageMetrics {
    queue_wait: Mutex<LogHistogram>,
    service: Mutex<LogHistogram>,
    flush: Mutex<LogHistogram>,
    total: Mutex<LogHistogram>,
}

impl StageMetrics {
    fn new() -> StageMetrics {
        StageMetrics {
            queue_wait: Mutex::new(LogHistogram::latency_seconds()),
            service: Mutex::new(LogHistogram::latency_seconds()),
            flush: Mutex::new(LogHistogram::latency_seconds()),
            total: Mutex::new(LogHistogram::latency_seconds()),
        }
    }

    fn record(&self, span: &ServerSpan) {
        lock(&self.queue_wait).record(span.queue_wait_s());
        lock(&self.service).record(span.handler_s());
        lock(&self.flush).record(span.flush_s());
        lock(&self.total).record(span.total_s());
    }

    /// Render the four stage histograms in Prometheus text format.
    pub fn to_prometheus(&self) -> String {
        let mut p = PromText::new();
        p.histogram(
            "faasrail_gateway_stage_queue_wait_seconds",
            "Accept to worker dequeue (admission queue wait).",
            &lock(&self.queue_wait),
        );
        p.histogram(
            "faasrail_gateway_stage_service_seconds",
            "Handler start to handler end (backend execution).",
            &lock(&self.service),
        );
        p.histogram(
            "faasrail_gateway_stage_flush_seconds",
            "Handler end to response flushed.",
            &lock(&self.flush),
        );
        p.histogram(
            "faasrail_gateway_stage_total_seconds",
            "Accept to response flushed (total server residency).",
            &lock(&self.total),
        );
        p.finish()
    }
}

pub(crate) fn micros_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

/// One parsed request as a transport hands it over, with the stamps only
/// the transport can know.
pub(crate) struct Arrival<'a> {
    pub method: &'a [u8],
    pub path: &'a [u8],
    /// The head's keep-alive verdict.
    pub keep_alive: bool,
    /// Trace id from the `X-FaaSRail-Trace` header, if it carried one.
    pub trace_id: Option<u64>,
    pub body: &'a [u8],
    /// Requests this connection has carried, this one included.
    pub served: u64,
    pub accepted_us: u64,
    pub dequeued_us: u64,
    pub queue_depth: u64,
    pub worker: u64,
}

/// A response to put on the wire.
pub(crate) struct Reply {
    pub status: u16,
    pub content_type: &'static str,
    pub extra_headers: &'static [(&'static str, &'static str)],
    pub body: Cow<'static, [u8]>,
    /// Whether the connection outlives the response.
    pub keep: bool,
    /// The invocation's span, to [`Core::emit`] once the response is flushed.
    pub span: Option<ServerSpan>,
}

impl Reply {
    fn new(status: u16, content_type: &'static str, body: Cow<'static, [u8]>, keep: bool) -> Reply {
        Reply { status, content_type, extra_headers: &[], body, keep, span: None }
    }
}

/// What a transport does next with a routed request.
pub(crate) enum Step {
    Reply(Reply),
    /// Wait out `delay` if there is one, then [`Core::run_invoke`] on a
    /// handler thread and send what it returns.
    Invoke {
        inv: InvocationRequest,
        span: ServerSpan,
        delay: Option<Duration>,
        keep: bool,
    },
    /// Answer nothing: keep the socket silent for `hold`, then [`Core::close`]
    /// the span and close the connection.
    Vanish {
        span: ServerSpan,
        hold: Duration,
    },
}

/// What both servers share: configuration, the backend, counters, the
/// span sink and the clock spans are stamped against.
pub(crate) struct Core {
    pub cfg: GatewayConfig,
    pub backend: Arc<dyn Backend>,
    pub stats: Arc<GatewayStats>,
    pub stages: Arc<StageMetrics>,
    pub sink: Arc<dyn EventSink>,
    pub epoch: Instant,
    pub shutdown: AtomicBool,
}

impl Core {
    pub(crate) fn new(backend: Arc<dyn Backend>, cfg: GatewayConfig) -> Core {
        assert!(cfg.workers > 0, "need at least one handler worker");
        Core {
            cfg,
            backend,
            stats: Arc::new(GatewayStats::default()),
            stages: Arc::new(StageMetrics::new()),
            sink: Arc::new(NullSink),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Count the request and decide what becomes of it.
    pub(crate) fn route(&self, a: Arrival) -> Step {
        let stats = &*self.stats;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let keep = a.keep_alive && !self.shutdown.load(Ordering::Relaxed);
        let json =
            |body: String| Reply::new(200, "application/json", body.into_bytes().into(), keep);
        Step::Reply(match (a.method, a.path) {
            (b"POST", b"/invoke") => return self.route_invoke(a, keep),
            (b"GET", b"/healthz") => {
                let build = faasrail_telemetry::BuildInfo::current();
                json(format!(
                    "{{\"status\":\"ok\",\"queue_depth\":{},\"shed\":{},\"version\":\"{}\",\"git_sha\":\"{}\"}}",
                    stats.queue_depth.load(Ordering::Relaxed),
                    stats.shed.load(Ordering::Relaxed),
                    build.version,
                    build.git_sha,
                ))
            }
            (b"GET", b"/stats") => {
                stats.max_requests_per_connection.fetch_max(a.served, Ordering::Relaxed);
                json(stats.to_json())
            }
            (b"GET", b"/metrics") => {
                stats.max_requests_per_connection.fetch_max(a.served, Ordering::Relaxed);
                let mut text = stats.to_prometheus();
                text.push_str(&self.stages.to_prometheus());
                let content_type = faasrail_telemetry::prometheus::CONTENT_TYPE;
                Reply::new(200, content_type, text.into_bytes().into(), keep)
            }
            _ => {
                stats.http_404.fetch_add(1, Ordering::Relaxed);
                Reply::new(404, "text/plain", b"not found".as_slice().into(), keep)
            }
        })
    }

    fn route_invoke(&self, a: Arrival, keep: bool) -> Step {
        let stats = &*self.stats;
        let n = stats.invocations.fetch_add(1, Ordering::Relaxed);
        let mut span = ServerSpan {
            // The header's id wins; the body's is the fallback, once (and
            // if) the body decodes.
            trace_id: a.trace_id.unwrap_or(0),
            seq: n,
            worker: a.worker,
            accepted_us: a.accepted_us,
            dequeued_us: a.dequeued_us,
            handler_start_us: micros_since(self.epoch),
            handler_end_us: 0,
            flushed_us: 0,
            queue_depth: a.queue_depth,
            service_ms: 0.0,
            outcome: OutcomeClass::Ok,
            fault: None,
            cold_start: false,
        };
        let fault = &self.cfg.fault;
        let mut injected = |counter: &AtomicU64, kind: ServerFault, outcome: OutcomeClass| {
            counter.fetch_add(1, Ordering::Relaxed);
            span.fault = Some(kind);
            span.outcome = outcome;
        };
        let band = fault.decide(n);
        let reply = match band {
            Fault::Drop => {
                // The client sees a broken connection: transport.
                injected(&stats.faults_dropped, ServerFault::Drop, OutcomeClass::Transport);
                return Step::Vanish { span, hold: Duration::ZERO };
            }
            Fault::Stall => {
                // A black hole: the client's deadline, not its retry
                // logic, has to catch this.
                injected(&stats.faults_stalled, ServerFault::Stall, OutcomeClass::Timeout);
                return Step::Vanish { span, hold: Duration::from_millis(fault.stall_ms) };
            }
            Fault::Error => {
                injected(&stats.faults_errored, ServerFault::Error, OutcomeClass::Transport);
                Reply::new(500, "text/plain", b"injected fault".as_slice().into(), keep)
            }
            Fault::None | Fault::Delay => match serde_json::from_slice::<InvocationRequest>(a.body)
            {
                Ok(inv) => {
                    if span.trace_id == 0 {
                        span.trace_id = inv.trace_id;
                    }
                    // A straggler: the wait lands inside the handler
                    // stage, where a real one's time would.
                    let delay = (band == Fault::Delay).then(|| {
                        injected(&stats.faults_delayed, ServerFault::Delay, OutcomeClass::Ok);
                        Duration::from_millis(fault.latency_ms)
                    });
                    return Step::Invoke { inv, span, delay, keep };
                }
                Err(e) => {
                    stats.http_400.fetch_add(1, Ordering::Relaxed);
                    // The body never became an invocation; from the client's
                    // side this is a non-retryable transport-class failure.
                    span.outcome = OutcomeClass::Transport;
                    let body = format!("bad invocation request: {e}").into_bytes();
                    Reply::new(400, "text/plain", body.into(), keep)
                }
            },
        };
        span.handler_end_us = micros_since(self.epoch);
        Step::Reply(Reply { span: Some(span), ..reply })
    }

    /// Run the backend for an admitted invocation and build its `200`;
    /// the result is serialized into `body`, an empty buffer that is the
    /// caller's to recycle.
    pub(crate) fn run_invoke(
        &self,
        inv: &InvocationRequest,
        mut span: ServerSpan,
        keep: bool,
        mut body: Vec<u8>,
    ) -> Reply {
        let result = self.backend.invoke(inv);
        let counter =
            if result.ok { &self.stats.invocations_ok } else { &self.stats.invocations_failed };
        counter.fetch_add(1, Ordering::Relaxed);
        span.service_ms = result.service_ms;
        span.outcome = result.outcome();
        span.cold_start = result.cold_start;
        span.handler_end_us = micros_since(self.epoch);
        if serde_json::to_writer(&mut body, &result).is_err() {
            body.clear();
            body.extend_from_slice(b"{\"ok\":false}");
        }
        Reply { span: Some(span), ..Reply::new(200, "application/json", body.into(), keep) }
    }

    /// The reply to a head the parser refused; the connection closes.
    pub(crate) fn bad_request(&self, why: &dyn Display) -> Reply {
        self.stats.http_400.fetch_add(1, Ordering::Relaxed);
        Reply::new(400, "text/plain", format!("bad request: {why}").into_bytes().into(), false)
    }

    /// Count a shed and build its reply. No span: the client's side of the
    /// trace stays an orphan, which is how the join counts sheds.
    pub(crate) fn shed(&self) -> Reply {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        Reply {
            extra_headers: &[("Retry-After", "1")],
            ..Reply::new(
                429,
                "text/plain",
                b"shedding load: admission queue full".as_slice().into(),
                false,
            )
        }
    }

    /// The response (if there was one) has left: stamp the flush, feed the
    /// stage histograms and the sink.
    pub(crate) fn emit(&self, mut span: ServerSpan, flushed_us: u64) {
        span.flushed_us = flushed_us.max(span.handler_end_us);
        self.stages.record(&span);
        self.sink.emit(&TelemetryEvent::ServerSpan(span));
    }

    /// A request that got no answer ends when its connection does.
    pub(crate) fn close(&self, mut span: ServerSpan) {
        span.handler_end_us = micros_since(self.epoch);
        let flushed_us = span.handler_end_us;
        self.emit(span, flushed_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_loadgen::{InvocationResult, NoopBackend};
    use faasrail_telemetry::RingSink;
    use faasrail_workloads::{WorkloadId, WorkloadInput};

    fn core_with(fault: FaultConfig) -> Core {
        Core::new(Arc::new(NoopBackend), GatewayConfig { fault, ..GatewayConfig::default() })
    }

    fn invocation(trace_id: u64) -> Vec<u8> {
        let req = InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 1024 },
            function_index: 3,
            scheduled_at_ms: 12,
            trace_id,
        };
        serde_json::to_vec(&req).unwrap()
    }

    /// The stamps are arbitrary, and distinct so a swapped field shows.
    fn arrival<'a>(method: &'a str, path: &'a str, body: &'a [u8]) -> Arrival<'a> {
        Arrival {
            method: method.as_bytes(),
            path: path.as_bytes(),
            keep_alive: true,
            trace_id: None,
            body,
            served: 5,
            accepted_us: 11,
            dequeued_us: 22,
            queue_depth: 3,
            worker: 9,
        }
    }

    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn fault_decide_is_deterministic_and_proportional() {
        let f = FaultConfig {
            drop_fraction: 0.1,
            error_fraction: 0.2,
            stall_fraction: 0.1,
            latency_fraction: 0.1,
            seed: 11,
            ..FaultConfig::default()
        };
        let first: Vec<Fault> = (0..2_000).map(|n| f.decide(n)).collect();
        let second: Vec<Fault> = (0..2_000).map(|n| f.decide(n)).collect();
        assert_eq!(first, second, "same seed, same fault pattern");
        let count = |c: Fault| first.iter().filter(|&&x| x == c).count();
        let (drops, errors) = (count(Fault::Drop), count(Fault::Error));
        let (stalls, delays) = (count(Fault::Stall), count(Fault::Delay));
        assert!((100..300).contains(&drops), "~10% drops expected, got {drops}/2000");
        assert!((250..550).contains(&errors), "~20% errors expected, got {errors}/2000");
        assert!((100..300).contains(&stalls), "~10% stalls expected, got {stalls}/2000");
        assert!((100..300).contains(&delays), "~10% delays expected, got {delays}/2000");
    }

    #[test]
    fn plain_routes_reply_without_touching_the_invocation_counters() {
        // (method, path, status, content type, counted as a 404)
        let table = [
            ("GET", "/healthz", 200, "application/json", 0),
            ("GET", "/stats", 200, "application/json", 0),
            ("GET", "/metrics", 200, "text/plain; version=0.0.4", 0),
            ("GET", "/nope", 404, "text/plain", 1),
            ("GET", "/invoke", 404, "text/plain", 1),
            ("POST", "/healthz", 404, "text/plain", 1),
        ];
        // Whatever the fault band: faults are drawn for invocations only.
        let every_band = FaultConfig { drop_fraction: 1.0, ..FaultConfig::default() };
        for fault in [FaultConfig::default(), every_band] {
            for (method, path, status, content_type, not_found) in table {
                let core = core_with(fault);
                let Step::Reply(reply) = core.route(arrival(method, path, b"")) else {
                    panic!("{method} {path}: not a reply");
                };
                let what = format!("{method} {path}");
                assert_eq!((reply.status, reply.content_type), (status, content_type), "{what}");
                assert!(reply.keep && reply.span.is_none() && reply.extra_headers.is_empty());
                assert_eq!(load(&core.stats.requests), 1, "{what}");
                assert_eq!(load(&core.stats.http_404), not_found, "{what}");
                assert_eq!(load(&core.stats.invocations), 0, "{what}");
                assert_eq!(load(&core.stats.faults_dropped), 0, "{what}");
                let scraped = matches!(path, "/stats" | "/metrics") && status == 200;
                let depth = load(&core.stats.max_requests_per_connection);
                assert_eq!(depth, if scraped { 5 } else { 0 }, "{what}");
            }
        }
        let core = core_with(FaultConfig::default());
        let Step::Reply(reply) = core.route(arrival("GET", "/healthz", b"")) else { panic!() };
        let body = String::from_utf8(reply.body.into_owned()).unwrap();
        assert!(body.starts_with("{\"status\":\"ok\",\"queue_depth\":0,\"shed\":0,"), "{body}");
    }

    #[derive(Debug, PartialEq)]
    enum Expect {
        Invoke { delay_ms: Option<u64> },
        Reply { status: u16 },
        Vanish { hold_ms: u64 },
    }

    #[test]
    fn invoke_by_fault_band_and_body() {
        use Expect::*;
        let band = |pick: fn(&mut FaultConfig)| {
            let mut fault = FaultConfig { stall_ms: 70, latency_ms: 40, ..FaultConfig::default() };
            pick(&mut fault);
            fault
        };
        let none = band(|_| ());
        let drop = band(|f| f.drop_fraction = 1.0);
        let error = band(|f| f.error_fraction = 1.0);
        let stall = band(|f| f.stall_fraction = 1.0);
        let delay = band(|f| f.latency_fraction = 1.0);
        let (transport, timeout, ok) =
            (OutcomeClass::Transport, OutcomeClass::Timeout, OutcomeClass::Ok);
        // (band, body decodes, step, span fault, span outcome,
        //  [dropped, errored, stalled, delayed, http_400])
        let table = [
            (none, true, Invoke { delay_ms: None }, None, ok, [0, 0, 0, 0, 0]),
            (none, false, Reply { status: 400 }, None, transport, [0, 0, 0, 0, 1]),
            (
                drop,
                true,
                Vanish { hold_ms: 0 },
                Some(ServerFault::Drop),
                transport,
                [1, 0, 0, 0, 0],
            ),
            (
                drop,
                false,
                Vanish { hold_ms: 0 },
                Some(ServerFault::Drop),
                transport,
                [1, 0, 0, 0, 0],
            ),
            (
                error,
                true,
                Reply { status: 500 },
                Some(ServerFault::Error),
                transport,
                [0, 1, 0, 0, 0],
            ),
            (
                error,
                false,
                Reply { status: 500 },
                Some(ServerFault::Error),
                transport,
                [0, 1, 0, 0, 0],
            ),
            (
                stall,
                true,
                Vanish { hold_ms: 70 },
                Some(ServerFault::Stall),
                timeout,
                [0, 0, 1, 0, 0],
            ),
            (
                stall,
                false,
                Vanish { hold_ms: 70 },
                Some(ServerFault::Stall),
                timeout,
                [0, 0, 1, 0, 0],
            ),
            (
                delay,
                true,
                Invoke { delay_ms: Some(40) },
                Some(ServerFault::Delay),
                ok,
                [0, 0, 0, 1, 0],
            ),
            // No wait, no tag, no count: it is a plain 400.
            (delay, false, Reply { status: 400 }, None, transport, [0, 0, 0, 0, 1]),
        ];
        for (fault, decodes, expect, span_fault, outcome, counters) in table {
            let what = format!("{expect:?} (body decodes: {decodes}) under {fault:?}");
            let core = core_with(fault);
            let body = if decodes { invocation(0xf00d) } else { b"{ not json".to_vec() };
            let (step, span, keep) = match core.route(arrival("POST", "/invoke", &body)) {
                Step::Invoke { inv, span, delay, keep } => {
                    assert_eq!(inv.function_index, 3, "{what}");
                    assert_eq!(span.handler_end_us, 0, "{what}: the handler has yet to run");
                    (Invoke { delay_ms: delay.map(|d| d.as_millis() as u64) }, span, keep)
                }
                Step::Reply(reply) => {
                    let text = String::from_utf8_lossy(&reply.body).into_owned();
                    let prefix = if reply.status == 500 {
                        "injected fault"
                    } else {
                        "bad invocation request: "
                    };
                    assert!(text.starts_with(prefix), "{what}: {text}");
                    assert_eq!(reply.content_type, "text/plain", "{what}");
                    let span = reply.span.expect("an /invoke reply carries its span");
                    assert!(span.handler_end_us >= span.handler_start_us, "{what}: {span:?}");
                    (Reply { status: reply.status }, span, reply.keep)
                }
                Step::Vanish { span, hold } => {
                    (Vanish { hold_ms: hold.as_millis() as u64 }, span, true)
                }
            };
            assert_eq!(step, expect, "{what}");
            assert!(keep, "{what}: a keep-alive request stays keep-alive");
            assert_eq!((span.fault, span.outcome), (span_fault, outcome), "{what}");
            assert_eq!((span.seq, span.worker, span.queue_depth), (0, 9, 3), "{what}");
            assert_eq!((span.accepted_us, span.dequeued_us), (11, 22), "{what}");
            // The body's trace id is the fallback, and only a decoded body has one.
            let traced = matches!(step, Invoke { .. });
            assert_eq!(span.trace_id, if traced { 0xf00d } else { 0 }, "{what}");
            let s = &core.stats;
            let got = [&s.faults_dropped, &s.faults_errored, &s.faults_stalled, &s.faults_delayed]
                .map(load);
            assert_eq!(got, counters[..4], "{what}");
            assert_eq!(load(&s.http_400), counters[4], "{what}");
            assert_eq!((load(&s.requests), load(&s.invocations)), (1, 1), "{what}");
        }
    }

    #[test]
    fn header_trace_id_wins_and_sequence_numbers_count_invocations() {
        let core = core_with(FaultConfig::default());
        let body = invocation(0xf00d);
        for seq in 0..3 {
            let traced = Arrival { trace_id: Some(0xbeef), ..arrival("POST", "/invoke", &body) };
            let Step::Invoke { span, .. } = core.route(traced) else { panic!("not served") };
            assert_eq!((span.trace_id, span.seq), (0xbeef, seq));
        }
    }

    #[test]
    fn run_invoke_counts_the_result_and_finishes_the_span() {
        struct Failing;
        impl Backend for Failing {
            fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                InvocationResult::app_error(2.5, "boom")
            }
            fn name(&self) -> &str {
                "failing"
            }
        }
        let sink = Arc::new(RingSink::with_capacity(8));
        let mut core = Core::new(Arc::new(Failing), GatewayConfig::default());
        core.sink = Arc::clone(&sink) as Arc<dyn EventSink>;
        let body = invocation(1);
        let Step::Invoke { inv, span, keep, .. } = core.route(arrival("POST", "/invoke", &body))
        else {
            panic!("not served");
        };
        let reply = core.run_invoke(&inv, span, keep, Vec::new());
        assert_eq!((reply.status, reply.content_type, reply.keep), (200, "application/json", true));
        let result: InvocationResult = serde_json::from_slice(&reply.body).unwrap();
        assert_eq!(result, InvocationResult::app_error(2.5, "boom"));
        assert_eq!(load(&core.stats.invocations_ok), 0);
        assert_eq!(load(&core.stats.invocations_failed), 1);

        let span = reply.span.expect("the 200 carries the span");
        assert_eq!((span.outcome, span.service_ms), (OutcomeClass::AppError, 2.5));
        assert!(span.handler_end_us >= span.handler_start_us);
        // A flush stamp earlier than the handler's end is clamped.
        core.emit(span.clone(), 0);
        let events = sink.events();
        let [TelemetryEvent::ServerSpan(emitted)] = &events[..] else { panic!("{events:?}") };
        assert_eq!(emitted.flushed_us, span.handler_end_us);
        assert!(core
            .stages
            .to_prometheus()
            .contains("faasrail_gateway_stage_total_seconds_count 1"));
    }

    #[test]
    fn shed_bad_request_and_shutdown_replies() {
        let core = core_with(FaultConfig::default());
        let shed = core.shed();
        assert_eq!((shed.status, shed.keep), (429, false));
        assert_eq!(shed.extra_headers, [("Retry-After", "1")]);
        assert_eq!(&shed.body[..], b"shedding load: admission queue full");
        assert!(shed.span.is_none(), "a shed leaves no span");
        assert_eq!(load(&core.stats.shed), 1);

        let refused = core.bad_request(&"header section too large");
        assert_eq!((refused.status, refused.keep), (400, false));
        assert_eq!(&refused.body[..], b"bad request: header section too large");
        assert_eq!(load(&core.stats.http_400), 1);

        core.shutdown.store(true, Ordering::SeqCst);
        let Step::Reply(reply) = core.route(arrival("GET", "/healthz", b"")) else { panic!() };
        assert!(!reply.keep, "a draining gateway closes after the response");
    }
}
