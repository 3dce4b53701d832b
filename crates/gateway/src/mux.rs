//! The multiplexed driver: the transport under
//! [`MuxHttpBackend`](crate::MuxHttpBackend).
//!
//! The keep-alive pool binds one connection to each exchange in flight, so
//! N concurrent invocations need N sockets. Here caller threads park on a
//! completion slot while a single driver thread multiplexes every exchange
//! over [`MuxConfig::connections`] sockets, pipelining up to
//! [`MuxConfig::pipeline_depth`] requests per connection. What an
//! exchange's outcome means — and whether it is tried again — is
//! `client.rs`'s to say; what this file owns:
//!
//! * **pipelining and FIFO matching** — HTTP/1.1 responses arrive in
//!   request order, so a FIFO of in-flight slots per connection is all the
//!   bookkeeping required. A response is copied out of the read buffer and
//!   handed to its caller unread;
//! * **the backlog** — exchanges that found every pipeline full wait in
//!   deadline order: a retried attempt carries its invocation's original
//!   deadline, goes ahead of younger work, and expires when that deadline
//!   does;
//! * **poisoning** — an exchange whose deadline passes unanswered times
//!   out, and takes its connection with it: the responses behind it can no
//!   longer be trusted to line up, so the rest of that FIFO fails as
//!   *retryable* transport errors and the socket is reconnected. A
//!   connection that breaks fails its FIFO the same way;
//! * **connecting** — blocking, on the driver thread, within
//!   [`MuxConfig::connect_timeout`] and within the budget of the exchange
//!   it is for.

use crate::backoff::RetryPolicy;
use crate::breaker::BreakerConfig;
use crate::client::{self, ClientStats, Transport, TryError};
use crate::http;
use faasrail_reactor::http1;
use faasrail_reactor::{Interest, Poller, ReadBuf, Waker, WriteBuf};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a client on the multiplexed driver.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Fixed number of connections the driver multiplexes over.
    pub connections: usize,
    /// Maximum requests in flight (written, unanswered) per connection.
    pub pipeline_depth: usize,
    /// Budget for establishing one TCP connection (also bounded by the
    /// remaining deadline of the invocation it is opened for).
    pub connect_timeout: Duration,
    /// Overall per-invocation deadline across all attempts and backoff.
    pub request_timeout: Duration,
    /// Retry policy for retryable failures.
    pub retry: RetryPolicy,
    /// Circuit breaker (disabled by default: `failure_threshold: 0`).
    pub breaker: BreakerConfig,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            connections: 8,
            pipeline_depth: 32,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

type Exchanged = Result<http::Response, TryError>;

/// Rendezvous between a blocked caller thread and the driver.
struct Slot {
    done: Mutex<Option<Exchanged>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { done: Mutex::new(None), cv: Condvar::new() })
    }

    fn complete(&self, outcome: Exchanged) {
        let mut done = self.done.lock().unwrap();
        if done.is_none() {
            *done = Some(outcome);
            self.cv.notify_one();
        }
    }

    fn wait(&self, until: Instant) -> Exchanged {
        let mut done = self.done.lock().unwrap();
        loop {
            if let Some(outcome) = done.take() {
                return outcome;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Defensive: the driver enforces the real deadline; this
                // only trips if the driver wedged or died.
                return Err(TryError::Timeout("mux driver unresponsive".into()));
            }
            let (guard, _timeout) = self.cv.wait_timeout(done, left).unwrap();
            done = guard;
        }
    }
}

/// One request waiting for a connection with pipeline room.
struct MuxJob {
    /// Head and body, as they go on the wire.
    wire: Vec<u8>,
    deadline: Instant,
    slot: Arc<Slot>,
}

/// One request written to a socket, awaiting its (in-order) response.
struct InFlight {
    deadline: Instant,
    slot: Arc<Slot>,
}

/// Submission queue shared between caller threads and the driver.
///
/// The eventfd wake is elided unless the driver is parked in `epoll_wait`
/// (`parked`) and nobody has woken it since its last drain (`notified`): the
/// driver drains `jobs` on every loop iteration regardless, so a wake only
/// matters when it interrupts a blocking wait.
struct Submit {
    jobs: Mutex<VecDeque<MuxJob>>,
    waker: Waker,
    shutdown: AtomicBool,
    parked: AtomicBool,
    notified: AtomicBool,
}

impl Submit {
    fn wake_if_parked(&self) {
        if self.parked.load(Ordering::SeqCst) && !self.notified.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn force_wake(&self) {
        self.notified.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

enum ConnSock {
    Idle,
    Live(TcpStream),
}

struct MuxConn {
    sock: ConnSock,
    rbuf: ReadBuf,
    wbuf: WriteBuf,
    inflight: VecDeque<InFlight>,
}

impl MuxConn {
    fn new() -> MuxConn {
        MuxConn {
            sock: ConnSock::Idle,
            rbuf: ReadBuf::with_capacity(16 * 1024),
            wbuf: WriteBuf::with_capacity(16 * 1024),
            inflight: VecDeque::new(),
        }
    }
}

const TOKEN_SUBMIT: u64 = u64::MAX;

struct Driver {
    addr: SocketAddr,
    cfg: MuxConfig,
    stats: Arc<ClientStats>,
    submit: Arc<Submit>,
    poller: Poller,
    conns: Vec<MuxConn>,
    /// Requests accepted but not yet written anywhere (all pipelines full
    /// or all sockets down), earliest deadline first.
    backlog: VecDeque<MuxJob>,
}

impl Driver {
    fn run(mut self) {
        let mut events = Vec::with_capacity(64);
        loop {
            let inflight_any =
                !self.backlog.is_empty() || self.conns.iter().any(|c| !c.inflight.is_empty());
            // Deadlines are enforced by polling at a coarse tick; parked
            // submission-only waits block indefinitely on the eventfd.
            let timeout = if inflight_any { Some(Duration::from_millis(10)) } else { None };
            events.clear();
            // Park protocol mirroring the gateway shard: publish intent to
            // block, then re-check the submission queue so a push that raced
            // past the elided wake is still picked up without sleeping.
            self.submit.parked.store(true, Ordering::SeqCst);
            let timeout = if self.submit.jobs.lock().unwrap().is_empty() {
                timeout
            } else {
                Some(Duration::from_millis(0))
            };
            let waited = self.poller.wait(timeout, &mut events);
            self.submit.parked.store(false, Ordering::SeqCst);
            if waited.is_err() {
                break;
            }
            for ev in &events {
                if ev.token != TOKEN_SUBMIT {
                    let idx = ev.token as usize;
                    if idx < self.conns.len() && !self.read_conn(idx) {
                        self.fail_conn(idx, "connection error");
                    }
                }
            }
            // Drained every iteration (wakes are only hints); reset the
            // eventfd level first so a wake racing this drain survives.
            self.submit.waker.drain();
            self.submit.notified.store(false, Ordering::SeqCst);
            {
                // A fresh job's deadline is the latest yet, give or take a
                // race between two callers; a retried attempt's is its
                // invocation's original one and lands further forward.
                let mut jobs = self.submit.jobs.lock().unwrap();
                for job in jobs.drain(..) {
                    let at = self.backlog.partition_point(|ahead| ahead.deadline <= job.deadline);
                    self.backlog.insert(at, job);
                }
            }
            self.expire_deadlines();
            self.assign_backlog();
            for idx in 0..self.conns.len() {
                if !self.flush_conn(idx) {
                    self.fail_conn(idx, "write error");
                }
            }
            if self.submit.shutdown.load(Ordering::SeqCst) {
                // Fail everything still outstanding and exit.
                while let Some(job) = self.backlog.pop_front() {
                    job.slot.complete(Err(TryError::Fatal("mux backend shut down".into())));
                }
                for idx in 0..self.conns.len() {
                    self.fail_conn(idx, "mux backend shut down");
                }
                break;
            }
        }
    }

    /// Time out what has expired: backlog jobs (sorted, so the expired ones
    /// are at the front) and, with their connections, in-flight requests.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        while self.backlog.front().is_some_and(|job| job.deadline <= now) {
            let job = self.backlog.pop_front().expect("checked front");
            job.slot.complete(Err(TryError::Timeout("deadline exceeded before dispatch".into())));
        }
        for idx in 0..self.conns.len() {
            if self.conns[idx].inflight.iter().any(|f| f.deadline <= now) {
                self.fail_conn(idx, "connection poisoned by timeout");
            }
        }
    }

    /// Establish (or re-establish) a socket for `idx`, on behalf of a job
    /// due by `deadline`. Blocking connect — the driver briefly stalls,
    /// which is the price of a dependency-free connector.
    fn ensure_connected(&mut self, idx: usize, deadline: Instant) -> Result<(), TryError> {
        if matches!(self.conns[idx].sock, ConnSock::Live(_)) {
            return Ok(());
        }
        let stream = client::open(&self.addr, self.cfg.connect_timeout, deadline, &self.stats)?;
        stream
            .set_nonblocking(true)
            .and_then(|()| self.poller.add(stream.as_raw_fd(), Interest::EDGE_RW, idx as u64))
            .map_err(|e| TryError::retryable(format!("connect: {e}")))?;
        self.conns[idx].sock = ConnSock::Live(stream);
        Ok(())
    }

    /// Hand backlog jobs to the least-loaded connections with room.
    fn assign_backlog(&mut self) {
        while let Some(deadline) = self.backlog.front().map(|job| job.deadline) {
            let mut best: Option<(usize, usize)> = None;
            for idx in 0..self.conns.len() {
                let depth = self.conns[idx].inflight.len();
                if depth < self.cfg.pipeline_depth
                    && best.is_none_or(|(_, best_depth)| depth < best_depth)
                {
                    best = Some((idx, depth));
                }
            }
            let Some((idx, _)) = best else { return }; // every pipeline full
            let was_live = matches!(self.conns[idx].sock, ConnSock::Live(_));
            let connected = self.ensure_connected(idx, deadline);
            let job = self.backlog.pop_front().expect("checked non-empty");
            if let Err(e) = connected {
                // Upstream unreachable right now: fail this job alone, like
                // a connect error in the pool.
                job.slot.complete(Err(e));
                continue;
            }
            // Same semantics as the pool: any request sent over an
            // already-established connection counts as a reuse, whether it
            // pipelines behind others or rides an idle keep-alive socket.
            if was_live {
                self.stats.reuses.fetch_add(1, Ordering::Relaxed);
            }
            let conn = &mut self.conns[idx];
            let _ = conn.wbuf.write_all(&job.wire);
            conn.inflight.push_back(InFlight { deadline: job.deadline, slot: job.slot });
        }
    }

    /// Drain readable bytes and complete responses in FIFO order.
    /// Returns `false` when the connection must be failed.
    fn read_conn(&mut self, idx: usize) -> bool {
        let mut peer_closed = false;
        {
            let conn = &mut self.conns[idx];
            let ConnSock::Live(stream) = &mut conn.sock else { return true };
            loop {
                match conn.rbuf.fill_from(stream, 16 * 1024) {
                    Ok(0) => {
                        peer_closed = true;
                        break;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
        }
        loop {
            let conn = &mut self.conns[idx];
            let head = match http1::parse_response(conn.rbuf.filled(), http::MAX_HEAD_BYTES) {
                Ok(Some(h)) if conn.rbuf.len() >= h.total_len() => h,
                Ok(_) => break,         // partial head or body
                Err(_) => return false, // garbled response stream
            };
            let Some(flight) = conn.inflight.pop_front() else {
                return false; // response with no matching request
            };
            let msg = conn.rbuf.filled();
            flight.slot.complete(Ok(http::Response {
                status: head.status,
                keep_alive: head.keep_alive,
                retry_after: head.retry_after,
                content_type: head.content_type.clone().map(|range| http::text(msg, range)),
                body: msg[head.body_range()].to_vec(),
            }));
            conn.rbuf.consume(head.total_len());
            if !head.keep_alive {
                // Server is hanging up after this response; anything else
                // pipelined behind it will never be answered here.
                return false;
            }
        }
        !peer_closed || self.conns[idx].inflight.is_empty()
    }

    fn flush_conn(&mut self, idx: usize) -> bool {
        let conn = &mut self.conns[idx];
        let ConnSock::Live(stream) = &mut conn.sock else { return true };
        if conn.wbuf.is_empty() {
            return true;
        }
        conn.wbuf.flush_to(stream).is_ok()
    }

    /// Tear a connection down and fail its whole in-flight FIFO: requests
    /// whose deadline has passed time out, the rest fail with `why` and are
    /// worth another attempt (their responses can no longer be matched once
    /// the socket is abandoned).
    fn fail_conn(&mut self, idx: usize, why: &str) {
        let now = Instant::now();
        let conn = &mut self.conns[idx];
        if let ConnSock::Live(stream) = &conn.sock {
            let _ = self.poller.delete(stream.as_raw_fd());
        }
        conn.sock = ConnSock::Idle;
        let stale = conn.rbuf.len();
        conn.rbuf.consume(stale);
        while !conn.wbuf.is_empty() {
            let mut sink = std::io::sink();
            if conn.wbuf.flush_to(&mut sink).is_err() {
                break;
            }
        }
        for flight in conn.inflight.drain(..) {
            flight.slot.complete(Err(if flight.deadline <= now {
                TryError::Timeout("no response within deadline".into())
            } else {
                TryError::retryable(why)
            }));
        }
    }
}

/// The caller-side handle of the driver thread; dropping it stops the
/// thread.
pub(crate) struct Mux {
    submit: Arc<Submit>,
    host: String,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl Mux {
    pub(crate) fn spawn(
        addr: SocketAddr,
        cfg: &MuxConfig,
        stats: Arc<ClientStats>,
    ) -> std::io::Result<Mux> {
        let submit = Arc::new(Submit {
            jobs: Mutex::new(VecDeque::new()),
            waker: Waker::new()?,
            shutdown: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            notified: AtomicBool::new(false),
        });
        let poller = Poller::new()?;
        poller.add(submit.waker.fd(), Interest::READ, TOKEN_SUBMIT)?;
        let driver = Driver {
            addr,
            cfg: cfg.clone(),
            stats,
            submit: Arc::clone(&submit),
            poller,
            conns: (0..cfg.connections.max(1)).map(|_| MuxConn::new()).collect(),
            backlog: VecDeque::new(),
        };
        let handle = std::thread::spawn(move || driver.run());
        Ok(Mux { submit, host: addr.to_string(), driver: Some(handle) })
    }
}

impl Transport for Mux {
    fn exchange(&self, body: &[u8], trace_id: u64, deadline: Instant, _first: bool) -> Exchanged {
        let mut wire = Vec::new();
        client::write_invoke(&mut wire, &self.host, body, trace_id)
            .expect("writing to a Vec cannot fail");
        let slot = Slot::new();
        let job = MuxJob { wire, deadline, slot: Arc::clone(&slot) };
        self.submit.jobs.lock().unwrap().push_back(job);
        self.submit.wake_if_parked();
        // The driver owns the real deadline; the grace term only guards
        // against a wedged driver thread.
        slot.wait(deadline + Duration::from_secs(5))
    }
}

impl Drop for Mux {
    fn drop(&mut self) {
        self.submit.shutdown.store(true, Ordering::SeqCst);
        self.submit.force_wake();
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MuxHttpBackend;
    use faasrail_loadgen::{Backend, InvocationRequest};
    use faasrail_telemetry::OutcomeClass;
    use faasrail_workloads::{WorkloadId, WorkloadInput};
    use std::io::{BufReader, Read};
    use std::net::TcpListener;

    fn request() -> InvocationRequest {
        InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 1024 },
            function_index: 0,
            scheduled_at_ms: 0,
            trace_id: 0,
        }
    }

    #[test]
    fn a_response_announcing_more_than_the_body_cap_fails_the_connection_unbuffered() {
        const IN_FLIGHT: usize = 3;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers the pipelined requests with one head that promises 100 GB,
        // then dribbles "body" for as long as the client keeps taking it.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (mut seen, mut chunk) = (Vec::new(), [0u8; 4096]);
            while seen.windows(12).filter(|w| w == b"POST /invoke").count() < IN_FLIGHT {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up before sending {IN_FLIGHT} requests");
                seen.extend_from_slice(&chunk[..n]);
            }
            stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n").unwrap();
            let deadline = Instant::now() + Duration::from_secs(12);
            let mut taken = 0;
            while Instant::now() < deadline {
                match stream.write(&[b'x'; 4096]) {
                    Ok(n) => taken += n,
                    Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            taken
        });

        // One attempt: a retry would reconnect to a server that accepts
        // once, and wait out the deadline there.
        let cfg = MuxConfig {
            connections: 1,
            pipeline_depth: IN_FLIGHT,
            request_timeout: Duration::from_secs(20),
            retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            ..MuxConfig::default()
        };
        let client = Arc::new(MuxHttpBackend::new(addr, cfg).unwrap());
        let started = Instant::now();
        let callers: Vec<_> = (0..IN_FLIGHT)
            .map(|_| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.invoke(&request()))
            })
            .collect();
        for caller in callers {
            let result = caller.join().unwrap();
            assert_eq!(result.outcome(), OutcomeClass::Transport, "{result:?}");
        }
        assert!(started.elapsed() < Duration::from_secs(5), "failed at the head, not a deadline");
        assert_eq!(client.stats().transport_errors.load(Ordering::Relaxed), IN_FLIGHT as u64);
        let taken = server.join().unwrap();
        assert!(taken < http::MAX_BODY_BYTES, "the client took {taken} bytes of a refused body");
    }

    #[test]
    fn a_retried_attempt_behind_younger_jobs_expires_at_its_original_deadline() {
        // The server fails the first request at once and is silent ever
        // after, on that connection and on any other.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                if held.is_empty() && http::read_request(&mut BufReader::new(&stream)).is_ok() {
                    let _ = http::write_response(&mut (&stream), 500, "text/plain", b"no", true);
                }
                held.push(stream);
            }
        });

        // One socket, one request in flight: invocation 0 is refused and
        // backs off for 300 ms of its 600; invocation 1 then takes the
        // pipeline and stalls there, so 2 and 3 queue; 0's second attempt
        // arrives behind them with less time left than either.
        let timeout = Duration::from_millis(600);
        let backoff = Duration::from_millis(300);
        let cfg = MuxConfig {
            connections: 1,
            pipeline_depth: 1,
            request_timeout: timeout,
            retry: RetryPolicy {
                max_attempts: 2,
                base: backoff,
                cap: backoff,
                jitter: 0.0,
                ..RetryPolicy::default()
            },
            ..MuxConfig::default()
        };
        let client = Arc::new(MuxHttpBackend::new(addr, cfg).unwrap());
        let callers: Vec<_> = [100, 100, 0, 0]
            .into_iter()
            .map(|pause_ms| {
                let client = Arc::clone(&client);
                let caller = std::thread::spawn(move || {
                    let started = Instant::now();
                    (client.invoke(&request()), started.elapsed())
                });
                std::thread::sleep(Duration::from_millis(pause_ms));
                caller
            })
            .collect();
        let mut results = callers.into_iter().map(|caller| caller.join().unwrap());

        let (retried, elapsed) = results.next().unwrap();
        assert_eq!(retried.outcome(), OutcomeClass::Timeout, "{retried:?}");
        assert!(
            elapsed >= timeout && elapsed < timeout + Duration::from_millis(150),
            "the retried attempt waited out a younger job's deadline: {elapsed:?}"
        );
        for (younger, _) in results {
            assert_eq!(younger.outcome(), OutcomeClass::Timeout, "{younger:?}");
        }
        assert_eq!(client.stats().retries.load(Ordering::Relaxed), 1);
        assert_eq!(client.stats().timeouts.load(Ordering::Relaxed), 4);
    }
}
