//! `HttpBackend`: a [`Backend`] that replays invocations over the wire.
//!
//! Plugging this into the load generator turns an in-process replay into an
//! over-the-wire one against a [`crate::Gateway`] (or anything speaking the
//! same `POST /invoke` JSON protocol). Design points:
//!
//! * **connection pool** — keep-alive connections are parked in a
//!   mutex-guarded LIFO free-list and reused across invocations;
//!   a reused connection that fails before yielding a response is replaced
//!   by a fresh one without consuming a retry attempt (it was likely closed
//!   by the peer while idle);
//! * **deadline** — each invocation gets one overall deadline
//!   (`request_timeout`). A connection remembers the timeout its socket
//!   carries and is re-armed only when an exchange needs another: an
//!   invocation's first exchange takes `request_timeout` itself, so a
//!   keep-alive connection is armed once in its life; an exchange after a
//!   failed one takes what is left of the budget. An exhausted budget
//!   classifies as
//!   [`OutcomeClass::Timeout`](faasrail_loadgen::OutcomeClass::Timeout);
//! * **retry** — connect failures, transport errors, `429` and `5xx`
//!   responses are retried under a seeded capped-exponential
//!   [`RetryPolicy`], with each backoff sleep clamped to the remaining
//!   deadline (a retry can never overshoot the invocation budget);
//!   application failures (`200` with `ok: false`) and other `4xx` are
//!   **not** retried — invocations are not assumed idempotent, and a `404`
//!   will not get better by resending;
//! * **circuit breaker** — an optional [`CircuitBreaker`] shared across
//!   worker threads trips on consecutive transport failures, timeouts, and
//!   `429`/`5xx` responses; while open, invocations fail fast as
//!   [`OutcomeClass::Shed`](faasrail_loadgen::OutcomeClass::Shed) without touching the network, and a `429` that
//!   survives the retry budget also classifies as shed (the upstream
//!   refused the work; nothing broke).

use crate::backoff::RetryPolicy;
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::{http, lock};
use faasrail_loadgen::{Backend, InvocationRequest, InvocationResult};
use faasrail_stats::rng::SplitMix64;
use std::io::{self, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpBackendConfig {
    /// Timeout for establishing one TCP connection (also bounded by the
    /// invocation's remaining deadline).
    pub connect_timeout: Duration,
    /// Overall per-invocation deadline across all attempts and backoff.
    pub request_timeout: Duration,
    /// Retry policy for retryable failures.
    pub retry: RetryPolicy,
    /// Max parked keep-alive connections; excess connections are closed on
    /// check-in rather than pooled.
    pub pool_capacity: usize,
    /// Circuit breaker (disabled by default: `failure_threshold: 0`).
    pub breaker: BreakerConfig,
}

impl Default for HttpBackendConfig {
    fn default() -> Self {
        HttpBackendConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            pool_capacity: 64,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Client-side transport counters, updated lock-free.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Fresh TCP connections established.
    pub connects: AtomicU64,
    /// Invocation attempts served by a pooled connection.
    pub reuses: AtomicU64,
    /// Retry attempts (beyond each invocation's first).
    pub retries: AtomicU64,
    /// Times a socket's timeouts were set: once per connection, plus once
    /// per change between `request_timeout` and a retry's remaining budget.
    pub timeout_arms: AtomicU64,
    /// Invocations returning `ok: true`.
    pub ok: AtomicU64,
    /// Invocations returning an application failure (not retried).
    pub app_errors: AtomicU64,
    /// Invocations abandoned at the deadline.
    pub timeouts: AtomicU64,
    /// Invocations that exhausted retries or hit a non-retryable transport
    /// failure.
    pub transport_errors: AtomicU64,
    /// Invocations shed: fast-failed by an open circuit breaker, or `429`
    /// through the whole retry budget.
    pub shed: AtomicU64,
}

enum TryError {
    /// Worth another attempt (connect failure, broken exchange, `429`,
    /// 5xx). `shed` marks upstream overload refusals (`429`) so an
    /// exhausted retry budget classifies as [`OutcomeClass::Shed`](faasrail_loadgen::OutcomeClass::Shed) rather
    /// than transport; `retry_after` carries the server's backoff hint.
    Retryable { msg: String, shed: bool, retry_after: Option<u64> },
    /// Deadline exhausted mid-attempt.
    Timeout(String),
    /// Not worth retrying (e.g. a non-429 4xx).
    Fatal(String),
}

/// One keep-alive connection, as the pool parks it.
struct Conn {
    /// Owns the stream; requests are written through `get_ref`. The buffer
    /// lives as long as the connection, so bytes read past a response stay
    /// visible instead of vanishing with a per-exchange reader.
    reader: BufReader<TcpStream>,
    /// The read and write timeout the socket carries now (zero: none set).
    armed: Duration,
}

impl Conn {
    /// Give the socket `timeout`, unless it carries it already.
    fn arm(&mut self, timeout: Duration, stats: &ClientStats) -> io::Result<()> {
        if timeout != self.armed {
            let stream = self.reader.get_ref();
            stream.set_write_timeout(Some(timeout))?;
            stream.set_read_timeout(Some(timeout))?;
            self.armed = timeout;
            stats.timeout_arms.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// A [`Backend`] that ships each invocation to a gateway over HTTP/1.1.
pub struct HttpBackend {
    addr: SocketAddr,
    host: String,
    cfg: HttpBackendConfig,
    idle: Mutex<Vec<Conn>>,
    rng: Mutex<SplitMix64>,
    stats: ClientStats,
    breaker: CircuitBreaker,
    name: String,
}

impl HttpBackend {
    /// Resolve `target` (e.g. `"127.0.0.1:7471"`) and build a client. No
    /// connection is opened until the first invocation.
    pub fn connect(target: &str, cfg: HttpBackendConfig) -> io::Result<HttpBackend> {
        let addr = target.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(ErrorKind::NotFound, format!("unresolvable: {target}"))
        })?;
        Ok(HttpBackend {
            addr,
            host: target.to_string(),
            cfg,
            idle: Mutex::new(Vec::new()),
            rng: Mutex::new(SplitMix64::new(cfg.retry.jitter_seed)),
            stats: ClientStats::default(),
            breaker: CircuitBreaker::new(cfg.breaker),
            name: format!("http:{target}"),
        })
    }

    /// Transport counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The shared circuit breaker (for diagnostics and tests).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// One-line transport summary for run reports.
    pub fn transport_summary(&self) -> String {
        format!(
            "connects={} reuses={} retries={} timeout-arms={} ok={} app-error={} timeout={} \
             transport={} shed={} breaker-trips={}",
            self.stats.connects.load(Ordering::Relaxed),
            self.stats.reuses.load(Ordering::Relaxed),
            self.stats.retries.load(Ordering::Relaxed),
            self.stats.timeout_arms.load(Ordering::Relaxed),
            self.stats.ok.load(Ordering::Relaxed),
            self.stats.app_errors.load(Ordering::Relaxed),
            self.stats.timeouts.load(Ordering::Relaxed),
            self.stats.transport_errors.load(Ordering::Relaxed),
            self.stats.shed.load(Ordering::Relaxed),
            self.breaker.trips.load(Ordering::Relaxed),
        )
    }

    fn checkout(&self) -> Option<Conn> {
        lock(&self.idle).pop()
    }

    fn checkin(&self, conn: Conn) {
        let mut idle = lock(&self.idle);
        if idle.len() < self.cfg.pool_capacity {
            idle.push(conn);
        }
    }

    fn open(&self, deadline: Instant) -> io::Result<Conn> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let timeout = self.cfg.connect_timeout.min(remaining);
        if timeout < Duration::from_millis(1) {
            return Err(io::Error::new(ErrorKind::TimedOut, "no budget left to connect"));
        }
        let stream = TcpStream::connect_timeout(&self.addr, timeout)?;
        stream.set_nodelay(true).ok();
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        Ok(Conn { reader: BufReader::new(stream), armed: Duration::ZERO })
    }

    /// One request/response exchange on `conn`. An invocation's `first`
    /// exchange runs under `request_timeout` itself — what a reused
    /// connection already carries, and longer than the budget only by the
    /// time since `deadline` was set: a pool checkout or one connect. Any
    /// later exchange runs under what is left of the budget.
    /// A non-zero `trace_id` is propagated as `X-FaaSRail-Trace` so the
    /// gateway can tag its server-side span without parsing the body.
    fn exchange(
        &self,
        conn: &mut Conn,
        body: &[u8],
        trace_id: u64,
        deadline: Instant,
        first: bool,
    ) -> io::Result<http::Response> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining < Duration::from_millis(1) {
            return Err(io::Error::new(ErrorKind::TimedOut, "deadline exhausted"));
        }
        conn.arm(if first { self.cfg.request_timeout } else { remaining }, &self.stats)?;
        let hex = faasrail_telemetry::format_trace_id(trace_id);
        let mut extra: Vec<(&str, &str)> = Vec::new();
        if trace_id != 0 {
            extra.push((http::TRACE_HEADER, &hex));
        }
        http::write_request_with(
            &mut conn.reader.get_ref(),
            "POST",
            "/invoke",
            &self.host,
            "application/json",
            &extra,
            body,
            true,
        )?;
        http::read_response(&mut conn.reader)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
}

impl Backend for HttpBackend {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let body = match serde_json::to_vec(req) {
            Ok(b) => b,
            Err(e) => {
                self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                return InvocationResult::transport(format!("encode: {e}"));
            }
        };
        if !self.breaker.allow() {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return InvocationResult::shed("circuit breaker open: failing fast");
        }
        let deadline = Instant::now() + self.cfg.request_timeout;
        let attempts = self.cfg.retry.max_attempts.max(1);
        let mut last_err = String::new();
        let mut last_shed = false;
        let mut retry_after_hint: Option<u64> = None;

        for attempt in 0..attempts {
            if attempt > 0 {
                let mut delay = {
                    let mut rng = lock(&self.rng);
                    self.cfg.retry.delay(attempt - 1, &mut rng)
                };
                if let Some(secs) = retry_after_hint.take() {
                    // Honor the server's `Retry-After` hint: back off at
                    // least that long (still subject to the deadline clamp
                    // below).
                    delay = delay.max(Duration::from_secs(secs));
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining <= delay {
                    // The backoff would overshoot the invocation budget:
                    // give up now instead of sleeping past the deadline and
                    // mislabeling the result a transport failure. A shed
                    // request stays shed (the server refused it and asked
                    // for more patience than the budget allows).
                    return if last_shed {
                        self.stats.shed.fetch_add(1, Ordering::Relaxed);
                        InvocationResult::shed(format!(
                            "deadline before retry {attempt}: {last_err}"
                        ))
                    } else {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        InvocationResult::timeout(format!(
                            "deadline before retry {attempt}: {last_err}"
                        ))
                    };
                }
                std::thread::sleep(delay.min(remaining));
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }

            match self.try_attempt(&body, req.trace_id, deadline, attempt == 0) {
                Ok(result) => {
                    // Any parsed 200 — success or application failure —
                    // proves the transport path healthy.
                    self.breaker.on_success();
                    if result.ok {
                        self.stats.ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.stats.app_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    return result;
                }
                Err(TryError::Timeout(msg)) => {
                    self.breaker.on_failure();
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    return InvocationResult::timeout(msg);
                }
                Err(TryError::Fatal(msg)) => {
                    // A non-429 4xx is a responsive server rejecting this
                    // request — not a health signal against the transport.
                    self.breaker.on_success();
                    self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                    return InvocationResult::transport(msg);
                }
                Err(TryError::Retryable { msg, shed, retry_after }) => {
                    self.breaker.on_failure();
                    last_err = msg;
                    last_shed = shed;
                    retry_after_hint = retry_after;
                }
            }
        }
        if last_shed {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            InvocationResult::shed(format!("shed after {attempts} attempts: {last_err}"))
        } else {
            self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
            InvocationResult::transport(format!("gave up after {attempts} attempts: {last_err}"))
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl HttpBackend {
    /// One attempt including response interpretation: `200` parses into an
    /// [`InvocationResult`], `429` is retryable-as-shed (honoring any
    /// `Retry-After`), `5xx` is retryable, other statuses are fatal.
    fn try_attempt(
        &self,
        body: &[u8],
        trace_id: u64,
        deadline: Instant,
        first: bool,
    ) -> Result<InvocationResult, TryError> {
        let resp = self.try_once_at(body, trace_id, deadline, first)?;
        match resp.status {
            200 => serde_json::from_slice::<InvocationResult>(&resp.body).map_err(|e| {
                TryError::Retryable {
                    msg: format!("unparseable 200 body: {e}"),
                    shed: false,
                    retry_after: None,
                }
            }),
            429 => Err(TryError::Retryable {
                msg: format!("HTTP 429: {}", String::from_utf8_lossy(&resp.body)),
                shed: true,
                retry_after: resp.retry_after,
            }),
            s if (500..600).contains(&s) => Err(TryError::Retryable {
                msg: format!("HTTP {s}: {}", String::from_utf8_lossy(&resp.body)),
                shed: false,
                retry_after: resp.retry_after,
            }),
            s => Err(TryError::Fatal(format!("HTTP {s}: {}", String::from_utf8_lossy(&resp.body)))),
        }
    }

    fn try_once_at(
        &self,
        body: &[u8],
        trace_id: u64,
        deadline: Instant,
        mut first: bool,
    ) -> Result<http::Response, TryError> {
        let mut pooled_fallback = true;
        loop {
            let (mut conn, reused) = match self.checkout() {
                Some(s) => {
                    self.stats.reuses.fetch_add(1, Ordering::Relaxed);
                    (s, true)
                }
                None => match self.open(deadline) {
                    Ok(s) => (s, false),
                    Err(e) if is_timeout(&e) => {
                        return Err(TryError::Timeout(format!("connect: {e}")))
                    }
                    Err(e) => {
                        return Err(TryError::Retryable {
                            msg: format!("connect: {e}"),
                            shed: false,
                            retry_after: None,
                        })
                    }
                },
            };
            match self.exchange(&mut conn, body, trace_id, deadline, first) {
                Ok(resp) => {
                    // Bytes past a complete response belong to no request:
                    // a parked connection holding them would hand them to
                    // the next invocation as its answer.
                    if resp.keep_alive && conn.reader.buffer().is_empty() {
                        self.checkin(conn);
                    }
                    return Ok(resp);
                }
                Err(e) if is_timeout(&e) => return Err(TryError::Timeout(e.to_string())),
                Err(e) => {
                    if reused && pooled_fallback {
                        pooled_fallback = false;
                        // The dead connection may have spent budget failing.
                        first = false;
                        continue;
                    }
                    return Err(TryError::Retryable {
                        msg: e.to_string(),
                        shed: false,
                        retry_after: None,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_loadgen::OutcomeClass;
    use faasrail_workloads::{WorkloadId, WorkloadInput};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn request() -> InvocationRequest {
        InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 4096 },
            function_index: 0,
            scheduled_at_ms: 0,
            trace_id: 0,
        }
    }

    /// A scripted server: `reply(n, stream)` answers the `n`-th request it
    /// parses, counted across connections; an `Err` closes the connection.
    /// Returns (address, parsed-request counter).
    fn scripted_server(
        reply: impl Fn(usize, &TcpStream) -> io::Result<()> + Send + 'static,
    ) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let served = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&served);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut reader = BufReader::new(&stream);
                while let Ok(Some(_req)) = http::read_request(&mut reader) {
                    if reply(counter.fetch_add(1, Ordering::SeqCst), &stream).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, served)
    }

    /// A `200` carrying a successful `InvocationResult`.
    fn reply_ok(mut w: impl io::Write) -> io::Result<()> {
        let body = serde_json::to_vec(&InvocationResult::success(2.5, false)).unwrap();
        http::write_response(&mut w, 200, "application/json", &body, true)
    }

    /// A canned server: answers the `n`-th request with the `n`-th status of
    /// `script` (repeating the last entry forever). `200` carries a
    /// successful `InvocationResult`; everything else a plain body.
    fn canned_server(script: Vec<u16>) -> (String, Arc<AtomicUsize>) {
        scripted_server(move |n, mut stream| {
            match script.get(n).or(script.last()).copied().unwrap_or(200) {
                200 => reply_ok(stream),
                status => http::write_response(
                    &mut stream,
                    status,
                    "application/json",
                    b"canned failure",
                    true,
                ),
            }
        })
    }

    fn fast_cfg(attempts: u32) -> HttpBackendConfig {
        HttpBackendConfig {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(5),
            retry: RetryPolicy {
                max_attempts: attempts,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(5),
                jitter: 0.5,
                jitter_seed: 7,
            },
            pool_capacity: 4,
            breaker: BreakerConfig::default(),
        }
    }

    #[test]
    fn success_over_the_wire() {
        let (addr, served) = canned_server(vec![200]);
        let be = HttpBackend::connect(&addr, fast_cfg(3)).unwrap();
        let res = be.invoke(&request());
        assert!(res.ok);
        assert_eq!(res.service_ms, 2.5);
        assert_eq!(res.outcome(), OutcomeClass::Ok);
        assert_eq!(served.load(Ordering::SeqCst), 1);
        assert_eq!(be.stats().retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn trace_header_reaches_the_server_only_when_traced() {
        // A server that records the trace id of each parsed request.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let seen: Arc<Mutex<Vec<Option<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut reader = BufReader::new(&stream);
                while let Ok(Some(req)) = http::read_request(&mut reader) {
                    lock(&log).push(req.trace_id);
                    let body = serde_json::to_vec(&InvocationResult::success(1.0, false)).unwrap();
                    if http::write_response(&mut (&stream), 200, "application/json", &body, true)
                        .is_err()
                    {
                        break;
                    }
                }
            }
        });
        let be = HttpBackend::connect(&addr, fast_cfg(2)).unwrap();
        let traced = InvocationRequest { trace_id: 0xfeed_f00d, ..request() };
        assert!(be.invoke(&traced).ok);
        assert!(be.invoke(&request()).ok, "untraced request");
        assert_eq!(*lock(&seen), vec![Some(0xfeed_f00d), None]);
    }

    #[test]
    fn pooled_connection_is_reused() {
        let (addr, _served) = canned_server(vec![200]);
        let be = HttpBackend::connect(&addr, fast_cfg(3)).unwrap();
        assert!(be.invoke(&request()).ok);
        assert!(be.invoke(&request()).ok);
        assert_eq!(be.stats().connects.load(Ordering::Relaxed), 1, "second call reuses");
        assert_eq!(be.stats().reuses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn app_failure_is_not_retried() {
        // A 200 response whose body says ok=false: an application-level
        // failure, which must not be retried (invocations are not assumed
        // idempotent).
        let (addr, served) = scripted_server(|_, mut stream| {
            let body = serde_json::to_vec(&InvocationResult::app_error(1.0, "boom")).unwrap();
            http::write_response(&mut stream, 200, "application/json", &body, true)
        });
        let be = HttpBackend::connect(&addr, fast_cfg(5)).unwrap();
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::AppError);
        assert_eq!(res.error.as_deref(), Some("boom"));
        assert_eq!(served.load(Ordering::SeqCst), 1, "app failures are final");
        assert_eq!(be.stats().retries.load(Ordering::Relaxed), 0);
        assert_eq!(be.stats().app_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn transient_5xx_is_retried_to_success() {
        let (addr, served) = canned_server(vec![500, 500, 200]);
        let be = HttpBackend::connect(&addr, fast_cfg(4)).unwrap();
        let res = be.invoke(&request());
        assert!(res.ok, "third attempt succeeds: {:?}", res.error);
        assert_eq!(served.load(Ordering::SeqCst), 3);
        assert_eq!(be.stats().retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn gives_up_after_attempt_budget() {
        let (addr, served) = canned_server(vec![500]);
        let be = HttpBackend::connect(&addr, fast_cfg(3)).unwrap();
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Transport);
        assert!(res.error.as_deref().unwrap_or("").contains("gave up after 3 attempts"));
        assert_eq!(served.load(Ordering::SeqCst), 3, "exactly the attempt budget");
        assert_eq!(be.stats().transport_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fourxx_is_fatal_without_retry() {
        let (addr, served) = canned_server(vec![404]);
        let be = HttpBackend::connect(&addr, fast_cfg(5)).unwrap();
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Transport);
        assert_eq!(served.load(Ordering::SeqCst), 1, "4xx is not retryable");
    }

    #[test]
    fn unreachable_target_classifies_as_transport() {
        // Bind then drop a listener so the port is (very likely) closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let be = HttpBackend::connect(&addr, fast_cfg(2)).unwrap();
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert!(matches!(res.outcome(), OutcomeClass::Transport | OutcomeClass::Timeout));
    }

    #[test]
    fn deadline_exhaustion_classifies_as_timeout() {
        // A server that accepts but never responds.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                held.push(stream); // keep the socket open, never reply
            }
        });
        let cfg = HttpBackendConfig { request_timeout: Duration::from_millis(200), ..fast_cfg(3) };
        let be = HttpBackend::connect(&addr, cfg).unwrap();
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Timeout);
        assert_eq!(be.stats().timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exhausted_429s_classify_as_shed() {
        let (addr, served) = canned_server(vec![429]);
        let be = HttpBackend::connect(&addr, fast_cfg(3)).unwrap();
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Shed, "{:?}", res.error);
        assert!(res.error.as_deref().unwrap_or("").contains("shed after 3 attempts"));
        assert_eq!(served.load(Ordering::SeqCst), 3, "429 is retried before shedding");
        assert_eq!(be.stats().shed.load(Ordering::Relaxed), 1);
        assert_eq!(be.stats().transport_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_and_fails_fast() {
        let (addr, served) = canned_server(vec![500]);
        let cfg = HttpBackendConfig {
            retry: RetryPolicy { max_attempts: 1, ..fast_cfg(1).retry },
            breaker: BreakerConfig::tripping(2, Duration::from_secs(30)),
            ..fast_cfg(1)
        };
        let be = HttpBackend::connect(&addr, cfg).unwrap();
        assert_eq!(be.invoke(&request()).outcome(), OutcomeClass::Transport);
        assert_eq!(be.invoke(&request()).outcome(), OutcomeClass::Transport);
        assert!(be.breaker().is_open(), "two consecutive failures trip the breaker");

        let res = be.invoke(&request());
        assert_eq!(res.outcome(), OutcomeClass::Shed);
        assert!(res.error.as_deref().unwrap_or("").contains("circuit breaker open"));
        assert_eq!(served.load(Ordering::SeqCst), 2, "fast fail never touched the network");
        assert_eq!(be.stats().shed.load(Ordering::Relaxed), 1);
        assert_eq!(be.breaker().trips.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn breaker_recovers_through_a_half_open_probe() {
        let (addr, served) = canned_server(vec![500, 200]);
        let cfg = HttpBackendConfig {
            retry: RetryPolicy { max_attempts: 1, ..fast_cfg(1).retry },
            breaker: BreakerConfig::tripping(1, Duration::from_millis(50)),
            ..fast_cfg(1)
        };
        let be = HttpBackend::connect(&addr, cfg).unwrap();
        assert_eq!(be.invoke(&request()).outcome(), OutcomeClass::Transport);
        assert!(be.breaker().is_open());
        assert_eq!(be.invoke(&request()).outcome(), OutcomeClass::Shed);

        std::thread::sleep(Duration::from_millis(80));
        assert!(be.invoke(&request()).ok, "probe succeeds and closes the breaker");
        assert!(!be.breaker().is_open());
        assert!(be.invoke(&request()).ok);
        assert_eq!(served.load(Ordering::SeqCst), 3, "one 500, one probe, one normal");
        assert_eq!(be.breaker().trips.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retry_backoff_never_overshoots_the_deadline() {
        let (addr, _served) = canned_server(vec![500]);
        let cfg = HttpBackendConfig {
            request_timeout: Duration::from_millis(150),
            retry: RetryPolicy {
                max_attempts: 5,
                base: Duration::from_millis(400),
                cap: Duration::from_millis(400),
                jitter: 0.0,
                jitter_seed: 7,
            },
            ..fast_cfg(5)
        };
        let be = HttpBackend::connect(&addr, cfg).unwrap();
        let start = Instant::now();
        let res = be.invoke(&request());
        let elapsed = start.elapsed();
        assert_eq!(res.outcome(), OutcomeClass::Timeout, "{:?}", res.error);
        assert!(
            elapsed < Duration::from_millis(350),
            "a 400 ms backoff must not be slept on a 150 ms budget: took {elapsed:?}"
        );
    }

    #[test]
    fn retry_after_hint_delays_the_next_attempt() {
        // First response: 429 with `Retry-After: 1`; then 200s. The second
        // attempt must wait out the hint, not just the millisecond backoff.
        let (addr, _served) = scripted_server(|n, mut stream| match n {
            0 => http::write_response_with(
                &mut stream,
                429,
                "text/plain",
                &[("Retry-After", "1")],
                b"busy",
                true,
            ),
            _ => reply_ok(stream),
        });
        let be = HttpBackend::connect(&addr, fast_cfg(3)).unwrap();
        let start = Instant::now();
        let res = be.invoke(&request());
        assert!(res.ok, "{:?}", res.error);
        assert!(
            start.elapsed() >= Duration::from_millis(950),
            "Retry-After hint ignored: retried after {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn a_keep_alive_connection_is_armed_once() {
        let (addr, _served) = canned_server(vec![200]);
        let be = HttpBackend::connect(&addr, fast_cfg(3)).unwrap();
        for _ in 0..50 {
            assert!(be.invoke(&request()).ok);
        }
        assert_eq!(be.stats().connects.load(Ordering::Relaxed), 1);
        assert_eq!(be.stats().timeout_arms.load(Ordering::Relaxed), 1);
        assert!(be.transport_summary().contains(" timeout-arms=1 "), "{}", be.transport_summary());
    }

    #[test]
    fn a_retrys_short_timeout_does_not_outlive_its_invocation() {
        // Request 0 waits out most of the budget before its 500, so the
        // retry (request 1) arms the little that is left. Request 2, a new
        // invocation on the same connection, is answered later than that
        // short arm would allow.
        let (addr, _served) = scripted_server(|n, mut stream| match n {
            0 => {
                std::thread::sleep(Duration::from_millis(400));
                http::write_response(&mut stream, 500, "text/plain", b"slow failure", true)
            }
            1 => reply_ok(stream),
            _ => {
                std::thread::sleep(Duration::from_millis(350));
                reply_ok(stream)
            }
        });
        let cfg = HttpBackendConfig { request_timeout: Duration::from_millis(600), ..fast_cfg(2) };
        let be = HttpBackend::connect(&addr, cfg).unwrap();
        let res = be.invoke(&request());
        assert!(res.ok, "{:?}", res.error);
        assert_eq!(be.stats().retries.load(Ordering::Relaxed), 1);
        assert_eq!(be.stats().timeout_arms.load(Ordering::Relaxed), 2, "full, then remaining");

        let res = be.invoke(&request());
        assert!(res.ok, "the retry's ~200 ms arm was still on the socket: {:?}", res.error);
        assert_eq!(be.stats().timeout_arms.load(Ordering::Relaxed), 3, "full again");
        assert_eq!(be.stats().connects.load(Ordering::Relaxed), 1, "all on one connection");
    }

    #[test]
    fn a_stall_on_a_reused_connection_times_out_on_schedule() {
        // The connection is armed once, by the first invocation; the second
        // must still be cut off at its own deadline.
        let (addr, _served) = scripted_server(|n, stream| match n {
            0 => reply_ok(stream),
            _ => {
                std::thread::sleep(Duration::from_secs(2));
                Err(ErrorKind::TimedOut.into())
            }
        });
        let timeout = Duration::from_millis(300);
        let cfg = HttpBackendConfig { request_timeout: timeout, ..fast_cfg(3) };
        let be = HttpBackend::connect(&addr, cfg).unwrap();
        assert!(be.invoke(&request()).ok);

        let start = Instant::now();
        let res = be.invoke(&request());
        let elapsed = start.elapsed();
        assert_eq!(res.outcome(), OutcomeClass::Timeout, "{:?}", res.error);
        assert!(
            elapsed >= timeout && elapsed < timeout + Duration::from_millis(150),
            "a {timeout:?} budget was cut off after {elapsed:?}"
        );
        assert_eq!(be.stats().connects.load(Ordering::Relaxed), 1);
        assert_eq!(be.stats().reuses.load(Ordering::Relaxed), 1);
        assert_eq!(be.stats().timeout_arms.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bytes_past_a_response_retire_the_connection() {
        use std::io::Write;
        let (addr, served) = scripted_server(|n, mut stream| {
            if n > 0 {
                return reply_ok(stream);
            }
            // One write, so response and stray bytes reach the client's
            // buffer in the same read.
            let mut wire = Vec::new();
            reply_ok(&mut wire)?;
            wire.extend_from_slice(b"stray");
            stream.write_all(&wire)
        });
        let be = HttpBackend::connect(&addr, fast_cfg(1)).unwrap();
        assert!(be.invoke(&request()).ok, "the response itself is valid");
        let res = be.invoke(&request());
        assert!(res.ok, "stray bytes were read as the next response: {:?}", res.error);
        assert_eq!(be.stats().connects.load(Ordering::Relaxed), 2, "not checked in");
        assert_eq!(be.stats().reuses.load(Ordering::Relaxed), 0);
        assert_eq!(served.load(Ordering::SeqCst), 2);
    }
}
