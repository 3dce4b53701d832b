//! The gateway client's policy core: everything a client decides about an
//! invocation, with no socket in sight.
//!
//! [`HttpBackend`] and [`MuxHttpBackend`] are one type, [`Client`], over
//! two transports: [`Client::connect`] puts it on the blocking keep-alive
//! pool (`pool.rs`: one socket per invocation in flight),
//! [`Client::new`] on the multiplexed driver (`mux.rs`: one reactor thread
//! pipelining over a fixed set of sockets). What a `429`, a `5xx` or a
//! dropped connection *means* is stated here, once, so a run's error rates
//! do not depend on which of the two carried it:
//!
//! | the attempt ends in | the invocation |
//! |---|---|
//! | `200`, body an `InvocationResult` | returns it: `ok: false` is an application failure and final (invocations are not assumed idempotent) |
//! | `200`, body that does not parse, or whose `service_ms` is not a finite time ≥ 0 (an event log could not hold it) | is retried; then [`Transport`]. A body that parses proves the function ran, so each retry runs it again |
//! | `429` | is retried no sooner than its `Retry-After`; when the attempts run out it is [`Shed`], not transport (the upstream refused the work; nothing broke) |
//! | `5xx` | is retried (`Retry-After` honoured); when the attempts run out it is [`Transport`] |
//! | any other status | is [`Transport`] at once: a `404` will not get better by resending |
//! | a refused connect, a broken or poisoned connection | is retried; then [`Transport`] |
//! | the deadline, connecting or waiting for the response | is [`Timeout`] at once |
//!
//! **Deadline.** One per invocation (`request_timeout`), set before the
//! first attempt and handed unchanged to every attempt; a transport never
//! lets an exchange outlive it.
//!
//! **Retry.** Up to [`RetryPolicy::max_attempts`] attempts, a seeded
//! capped-exponential backoff between them. A backoff that would overshoot
//! the deadline is not slept: the invocation ends there as [`Timeout`] (or
//! [`Shed`], when what it was waiting out was a `429`). The loop runs on
//! the caller's thread under both transports, so a transport needs no
//! timer for it. `max_attempts: 1` is how a saturation probe sees every
//! failure; it is a value the caller passes, not a property of a transport.
//!
//! **Circuit breaker.** An optional [`CircuitBreaker`], shared by the
//! worker threads, counts consecutive attempts that ended in a transport
//! failure, a timeout, a `429` or a `5xx`; a parsed `200` or a fatal `4xx`
//! is a responsive upstream and resets it. While open, invocations fail
//! fast as [`Shed`] without reaching the transport.
//!
//! **Counting.** Every invocation adds one to exactly one outcome counter
//! of [`ClientStats`], by the class of the result it returns; every attempt
//! past an invocation's first adds one to `retries`.
//!
//! What is left to a `Transport`: sockets, buffers, which connection an
//! exchange rides, what a dead or poisoned connection costs its neighbours,
//! and the `connects` / `reuses` / `timeout_arms` counters.
//!
//! [`Shed`]: faasrail_loadgen::OutcomeClass::Shed
//! [`Transport`]: faasrail_loadgen::OutcomeClass::Transport
//! [`Timeout`]: faasrail_loadgen::OutcomeClass::Timeout

use crate::backoff::RetryPolicy;
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::mux::{Mux, MuxConfig};
use crate::pool::Pool;
use crate::{http, lock};
use faasrail_loadgen::{Backend, InvocationRequest, InvocationResult, OutcomeClass};
use faasrail_stats::rng::SplitMix64;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a client on the keep-alive pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpBackendConfig {
    /// Timeout for establishing one TCP connection (also bounded by the
    /// invocation's remaining deadline).
    pub connect_timeout: Duration,
    /// Overall per-invocation deadline across all attempts and backoff.
    pub request_timeout: Duration,
    /// Retry policy for retryable failures.
    pub retry: RetryPolicy,
    /// Max idle keep-alive connections; excess connections are closed on
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

/// Client-side counters, updated lock-free.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Fresh TCP connections established.
    pub connects: AtomicU64,
    /// Attempts sent over a connection that was already established.
    pub reuses: AtomicU64,
    /// Retry attempts (beyond each invocation's first).
    pub retries: AtomicU64,
    /// Times the pool set a socket's timeouts: once per connection, plus
    /// once per change between `request_timeout` and a retry's remaining
    /// budget. The multiplexed sockets are non-blocking and carry none.
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

/// How one attempt failed.
pub(crate) enum TryError {
    /// Worth another attempt (connect failure, broken exchange, `429`,
    /// 5xx). `shed` marks upstream overload refusals (`429`) so an
    /// exhausted retry budget classifies as [`OutcomeClass::Shed`] rather
    /// than transport; `retry_after` carries the server's backoff hint.
    Retryable { msg: String, shed: bool, retry_after: Option<u64> },
    /// Deadline exhausted mid-attempt.
    Timeout(String),
    /// Not worth retrying (e.g. a non-429 4xx).
    Fatal(String),
}

impl TryError {
    /// A transport failure worth another attempt.
    pub(crate) fn retryable(msg: impl Into<String>) -> TryError {
        TryError::Retryable { msg: msg.into(), shed: false, retry_after: None }
    }
}

/// What [`Client`] asks of the sockets under it: one request/response
/// exchange of an encoded invocation, over by `deadline`. `first` is false
/// for an invocation's later attempts, which have less than
/// `request_timeout` left. `Err` says whether another attempt is worth
/// making; what the response means is not the transport's to say.
pub(crate) trait Transport: Send + Sync {
    fn exchange(
        &self,
        body: &[u8],
        trace_id: u64,
        deadline: Instant,
        first: bool,
    ) -> Result<http::Response, TryError>;
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
}

/// Open a connection for an attempt, within `connect_timeout` and within
/// what is left until `deadline`. Whichever of the two runs out, the
/// invocation has spent budget waiting and ends as a timeout; a refusal is
/// worth another attempt.
pub(crate) fn open(
    addr: &SocketAddr,
    connect_timeout: Duration,
    deadline: Instant,
    stats: &ClientStats,
) -> Result<TcpStream, TryError> {
    let timeout = connect_timeout.min(deadline.saturating_duration_since(Instant::now()));
    let connected = if timeout < Duration::from_millis(1) {
        Err(io::Error::new(ErrorKind::TimedOut, "no budget left to connect"))
    } else {
        TcpStream::connect_timeout(addr, timeout)
    };
    match connected {
        Ok(stream) => {
            stream.set_nodelay(true).ok();
            stats.connects.fetch_add(1, Ordering::Relaxed);
            Ok(stream)
        }
        Err(e) if is_timeout(&e) => Err(TryError::Timeout(format!("connect: {e}"))),
        Err(e) => Err(TryError::retryable(format!("connect: {e}"))),
    }
}

/// An invocation as it goes on the wire, head and body in one `write`. A
/// non-zero `trace_id` is propagated as `X-FaaSRail-Trace` so the gateway
/// can tag its server-side span without parsing the body.
pub(crate) fn write_invoke(
    w: &mut impl Write,
    host: &str,
    body: &[u8],
    trace_id: u64,
) -> io::Result<()> {
    let hex = faasrail_telemetry::format_trace_id(trace_id);
    let traced = [(http::TRACE_HEADER, hex.as_str())];
    let extra = if trace_id != 0 { &traced[..] } else { &[] };
    http::write_request_with(w, "POST", "/invoke", host, "application/json", extra, body, true)
}

/// What a response means: `200` parses into an [`InvocationResult`], `429`
/// is retryable-as-shed, `5xx` is retryable (both honoring any
/// `Retry-After`), other statuses are fatal.
fn interpret(resp: http::Response) -> Result<InvocationResult, TryError> {
    let refusal = |s: u16| format!("HTTP {s}: {}", String::from_utf8_lossy(&resp.body));
    match resp.status {
        200 => match serde_json::from_slice::<InvocationResult>(&resp.body) {
            Ok(res) if res.service_ms.is_finite() && res.service_ms >= 0.0 => Ok(res),
            Ok(res) => Err(TryError::retryable(format!(
                "unparseable 200 body: service_ms {} is not a finite time ≥ 0",
                res.service_ms
            ))),
            Err(e) => Err(TryError::retryable(format!("unparseable 200 body: {e}"))),
        },
        429 => Err(TryError::Retryable {
            msg: refusal(429),
            shed: true,
            retry_after: resp.retry_after,
        }),
        s if (500..600).contains(&s) => {
            Err(TryError::Retryable { msg: refusal(s), shed: false, retry_after: resp.retry_after })
        }
        s => Err(TryError::Fatal(refusal(s))),
    }
}

/// A [`Backend`] that ships each invocation to a gateway over HTTP/1.1 (or
/// to anything speaking the same `POST /invoke` JSON protocol). See the
/// module docs for what it decides; which sockets carry it is chosen at
/// construction.
pub struct Client {
    transport: Box<dyn Transport>,
    request_timeout: Duration,
    retry: RetryPolicy,
    rng: Mutex<SplitMix64>,
    stats: Arc<ClientStats>,
    breaker: CircuitBreaker,
    name: String,
}

/// A [`Client`] on the blocking keep-alive pool: [`Client::connect`].
pub type HttpBackend = Client;
/// A [`Client`] on the multiplexed driver: [`Client::new`].
pub type MuxHttpBackend = Client;

fn resolve(target: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    target
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "unresolvable address"))
}

impl Client {
    /// Resolve `target` (e.g. `"127.0.0.1:7471"`) and build a client on the
    /// keep-alive pool: one connection per invocation in flight, kept idle for
    /// reuse between invocations. No connection is opened until the first
    /// invocation.
    pub fn connect(target: &str, cfg: HttpBackendConfig) -> io::Result<Client> {
        let stats = Arc::new(ClientStats::default());
        let pool = Pool::new(resolve(target)?, target.to_string(), cfg, Arc::clone(&stats));
        let name = format!("http:{target}");
        Ok(Client::over(Box::new(pool), name, cfg.request_timeout, cfg.retry, cfg.breaker, stats))
    }

    /// Resolve `addr` and build a client on the multiplexed driver: one
    /// reactor thread pipelining every invocation in flight over
    /// [`MuxConfig::connections`] sockets. Sockets are established lazily,
    /// so an unreachable upstream surfaces per invocation, not here.
    pub fn new(addr: impl ToSocketAddrs, cfg: MuxConfig) -> io::Result<Client> {
        let addr = resolve(addr)?;
        let stats = Arc::new(ClientStats::default());
        let mux = Mux::spawn(addr, &cfg, Arc::clone(&stats))?;
        let name = format!("http-mux:{addr}");
        Ok(Client::over(Box::new(mux), name, cfg.request_timeout, cfg.retry, cfg.breaker, stats))
    }

    fn over(
        transport: Box<dyn Transport>,
        name: String,
        request_timeout: Duration,
        retry: RetryPolicy,
        breaker: BreakerConfig,
        stats: Arc<ClientStats>,
    ) -> Client {
        Client {
            transport,
            request_timeout,
            retry,
            rng: Mutex::new(SplitMix64::new(retry.jitter_seed)),
            stats,
            breaker: CircuitBreaker::new(breaker),
            name,
        }
    }

    /// Client-side counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The shared circuit breaker (for diagnostics and tests).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The counters on one line, for run reports.
    pub fn summary(&self) -> String {
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

    /// Breaker gate, deadline and attempt loop: one invocation, start to
    /// classified result.
    fn attempt(&self, req: &InvocationRequest) -> InvocationResult {
        let body = match serde_json::to_vec(req) {
            Ok(b) => b,
            Err(e) => return InvocationResult::transport(format!("encode: {e}")),
        };
        if !self.breaker.allow() {
            return InvocationResult::shed("circuit breaker open: failing fast");
        }
        let deadline = Instant::now() + self.request_timeout;
        let attempts = self.retry.max_attempts.max(1);
        let mut last_err = String::new();
        let mut last_shed = false;
        let mut retry_after_hint: Option<u64> = None;

        for attempt in 0..attempts {
            if attempt > 0 {
                let mut delay = {
                    let mut rng = lock(&self.rng);
                    self.retry.delay(attempt - 1, &mut rng)
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
                    let msg = format!("deadline before retry {attempt}: {last_err}");
                    return if last_shed {
                        InvocationResult::shed(msg)
                    } else {
                        InvocationResult::timeout(msg)
                    };
                }
                std::thread::sleep(delay);
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }

            let tried = self
                .transport
                .exchange(&body, req.trace_id, deadline, attempt == 0)
                .and_then(interpret);
            // Any parsed 200 — success or application failure — proves the
            // transport path healthy, and a non-429 4xx is a responsive
            // server rejecting this request: not a health signal against
            // the transport either.
            if matches!(tried, Ok(_) | Err(TryError::Fatal(_))) {
                self.breaker.on_success();
            } else {
                self.breaker.on_failure();
            }
            match tried {
                Ok(result) => return result,
                Err(TryError::Timeout(msg)) => return InvocationResult::timeout(msg),
                Err(TryError::Fatal(msg)) => return InvocationResult::transport(msg),
                Err(TryError::Retryable { msg, shed, retry_after }) => {
                    last_err = msg;
                    last_shed = shed;
                    retry_after_hint = retry_after;
                }
            }
        }
        if last_shed {
            InvocationResult::shed(format!("shed after {attempts} attempts: {last_err}"))
        } else {
            InvocationResult::transport(format!("gave up after {attempts} attempts: {last_err}"))
        }
    }
}

impl Backend for Client {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let result = self.attempt(req);
        let counter = match result.outcome() {
            OutcomeClass::Ok => &self.stats.ok,
            OutcomeClass::AppError => &self.stats.app_errors,
            OutcomeClass::Timeout => &self.stats.timeouts,
            OutcomeClass::Transport => &self.stats.transport_errors,
            OutcomeClass::Shed => &self.stats.shed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_workloads::{WorkloadId, WorkloadInput};
    use std::io::BufReader;
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

    /// Which transport a policy test runs over. The scripted server takes
    /// one connection at a time, so the mux gets one.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Pool,
        Mux,
    }

    fn client(kind: Kind, addr: &str, cfg: HttpBackendConfig) -> Client {
        match kind {
            Kind::Pool => Client::connect(addr, cfg),
            Kind::Mux => Client::new(
                addr,
                MuxConfig {
                    connections: 1,
                    pipeline_depth: 4,
                    connect_timeout: cfg.connect_timeout,
                    request_timeout: cfg.request_timeout,
                    retry: cfg.retry,
                    breaker: cfg.breaker,
                },
            ),
        }
        .unwrap()
    }

    /// The policy is one; each test of it runs through both transports.
    macro_rules! through_both_transports {
        ($($test:ident => $check:ident),* $(,)?) => {
            $(#[test] fn $test() { $check(Kind::Pool) })*
            mod mux {
                use super::*;
                $(#[test] fn $test() { $check(Kind::Mux) })*
            }
        };
    }

    through_both_transports! {
        app_failure_is_not_retried => app_failure_is_not_retried_in,
        transient_5xx_is_retried_to_success => transient_5xx_is_retried_to_success_in,
        gives_up_after_attempt_budget => gives_up_after_attempt_budget_in,
        fourxx_is_fatal_without_retry => fourxx_is_fatal_without_retry_in,
        unreachable_target_classifies_as_transport => unreachable_target_classifies_as_transport_in,
        deadline_exhaustion_classifies_as_timeout => deadline_exhaustion_classifies_as_timeout_in,
        exhausted_429s_classify_as_shed => exhausted_429s_classify_as_shed_in,
        breaker_trips_on_consecutive_failures_and_fails_fast =>
            breaker_trips_on_consecutive_failures_and_fails_fast_in,
        breaker_recovers_through_a_half_open_probe => breaker_recovers_through_a_half_open_probe_in,
        retry_backoff_never_overshoots_the_deadline =>
            retry_backoff_never_overshoots_the_deadline_in,
        retry_after_hint_delays_the_next_attempt => retry_after_hint_delays_the_next_attempt_in,
        a_service_time_the_log_cannot_hold_is_retried_as_transport =>
            a_service_time_the_log_cannot_hold_is_retried_as_transport_in,
    }

    #[test]
    fn a_connect_with_no_budget_left_is_a_timeout_not_a_refusal() {
        // Bind then drop a listener so the port is (very likely) closed.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let stats = ClientStats::default();
        let second = Duration::from_secs(1);
        let spent = Instant::now();
        assert!(matches!(open(&addr, second, spent, &stats), Err(TryError::Timeout(_))));
        let refused = open(&addr, second, spent + second, &stats);
        assert!(matches!(refused, Err(TryError::Retryable { shed: false, .. })));
        assert_eq!(stats.connects.load(Ordering::Relaxed), 0);
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

    fn app_failure_is_not_retried_in(kind: Kind) {
        // A 200 response whose body says ok=false: an application-level
        // failure, which must not be retried (invocations are not assumed
        // idempotent).
        let (addr, served) = scripted_server(|_, mut stream| {
            let body = serde_json::to_vec(&InvocationResult::app_error(1.0, "boom")).unwrap();
            http::write_response(&mut stream, 200, "application/json", &body, true)
        });
        let be = client(kind, &addr, fast_cfg(5));
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::AppError);
        assert_eq!(res.error.as_deref(), Some("boom"));
        assert_eq!(served.load(Ordering::SeqCst), 1, "app failures are final");
        assert_eq!(be.stats().retries.load(Ordering::Relaxed), 0);
        assert_eq!(be.stats().app_errors.load(Ordering::Relaxed), 1);
    }

    fn a_service_time_the_log_cannot_hold_is_retried_as_transport_in(kind: Kind) {
        // `1e999` reads as infinity, which a JSONL event log writes as
        // `null` and cannot read back; a negative time is no duration.
        for service_ms in ["1e999", "-1.0"] {
            let body = format!(r#"{{"ok":true,"service_ms":{service_ms},"cold_start":false}}"#);
            let (addr, served) = scripted_server(move |_, mut stream| {
                http::write_response(&mut stream, 200, "application/json", body.as_bytes(), true)
            });
            let be = client(kind, &addr, fast_cfg(2));
            let res = be.invoke(&request());
            assert!(!res.ok, "{service_ms}");
            assert_eq!(res.outcome(), OutcomeClass::Transport, "{service_ms}");
            assert!(res.service_ms.is_finite(), "{service_ms}");
            let error = res.error.unwrap_or_default();
            assert!(error.contains("unparseable 200 body"), "{service_ms}: {error}");
            assert_eq!(served.load(Ordering::SeqCst), 2, "{service_ms}: retryable");
        }
    }

    fn transient_5xx_is_retried_to_success_in(kind: Kind) {
        let (addr, served) = canned_server(vec![500, 500, 200]);
        let be = client(kind, &addr, fast_cfg(4));
        let res = be.invoke(&request());
        assert!(res.ok, "third attempt succeeds: {:?}", res.error);
        assert_eq!(served.load(Ordering::SeqCst), 3);
        assert_eq!(be.stats().retries.load(Ordering::Relaxed), 2);
    }

    fn gives_up_after_attempt_budget_in(kind: Kind) {
        let (addr, served) = canned_server(vec![500]);
        let be = client(kind, &addr, fast_cfg(3));
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Transport);
        assert!(res.error.as_deref().unwrap_or("").contains("gave up after 3 attempts"));
        assert_eq!(served.load(Ordering::SeqCst), 3, "exactly the attempt budget");
        assert_eq!(be.stats().transport_errors.load(Ordering::Relaxed), 1);
    }

    fn fourxx_is_fatal_without_retry_in(kind: Kind) {
        let (addr, served) = canned_server(vec![404]);
        let be = client(kind, &addr, fast_cfg(5));
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Transport);
        assert_eq!(served.load(Ordering::SeqCst), 1, "4xx is not retryable");
    }

    fn unreachable_target_classifies_as_transport_in(kind: Kind) {
        // Bind then drop a listener so the port is (very likely) closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let be = client(kind, &addr, fast_cfg(2));
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert!(matches!(res.outcome(), OutcomeClass::Transport | OutcomeClass::Timeout));
    }

    fn deadline_exhaustion_classifies_as_timeout_in(kind: Kind) {
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
        let be = client(kind, &addr, cfg);
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Timeout);
        assert_eq!(be.stats().timeouts.load(Ordering::Relaxed), 1);
    }

    fn exhausted_429s_classify_as_shed_in(kind: Kind) {
        let (addr, served) = canned_server(vec![429]);
        let be = client(kind, &addr, fast_cfg(3));
        let res = be.invoke(&request());
        assert!(!res.ok);
        assert_eq!(res.outcome(), OutcomeClass::Shed, "{:?}", res.error);
        assert!(res.error.as_deref().unwrap_or("").contains("shed after 3 attempts"));
        assert_eq!(served.load(Ordering::SeqCst), 3, "429 is retried before shedding");
        assert_eq!(be.stats().shed.load(Ordering::Relaxed), 1);
        assert_eq!(be.stats().transport_errors.load(Ordering::Relaxed), 0);
    }

    fn breaker_trips_on_consecutive_failures_and_fails_fast_in(kind: Kind) {
        let (addr, served) = canned_server(vec![500]);
        let cfg = HttpBackendConfig {
            retry: RetryPolicy { max_attempts: 1, ..fast_cfg(1).retry },
            breaker: BreakerConfig::tripping(2, Duration::from_secs(30)),
            ..fast_cfg(1)
        };
        let be = client(kind, &addr, cfg);
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

    fn breaker_recovers_through_a_half_open_probe_in(kind: Kind) {
        let (addr, served) = canned_server(vec![500, 200]);
        let cfg = HttpBackendConfig {
            retry: RetryPolicy { max_attempts: 1, ..fast_cfg(1).retry },
            breaker: BreakerConfig::tripping(1, Duration::from_millis(50)),
            ..fast_cfg(1)
        };
        let be = client(kind, &addr, cfg);
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

    fn retry_backoff_never_overshoots_the_deadline_in(kind: Kind) {
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
        let be = client(kind, &addr, cfg);
        let start = Instant::now();
        let res = be.invoke(&request());
        let elapsed = start.elapsed();
        assert_eq!(res.outcome(), OutcomeClass::Timeout, "{:?}", res.error);
        assert!(
            elapsed < Duration::from_millis(350),
            "a 400 ms backoff must not be slept on a 150 ms budget: took {elapsed:?}"
        );
    }

    fn retry_after_hint_delays_the_next_attempt_in(kind: Kind) {
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
        let be = client(kind, &addr, fast_cfg(3));
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
        assert!(be.summary().contains(" timeout-arms=1 "), "{}", be.summary());
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
