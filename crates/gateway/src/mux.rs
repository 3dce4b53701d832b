//! A multiplexed HTTP client backend: one reactor thread drives a fixed
//! pool of pipelined keep-alive connections.
//!
//! [`crate::HttpBackend`] binds one pooled connection per in-flight
//! invocation, so N concurrent invocations need N sockets and N blocked
//! worker threads. [`MuxHttpBackend`] decouples the two: worker threads
//! park on a completion slot while a single driver thread multiplexes all
//! requests over [`MuxConfig::connections`] sockets, pipelining up to
//! [`MuxConfig::pipeline_depth`] requests per connection (HTTP/1.1
//! responses arrive in request order, so a FIFO of in-flight slots per
//! connection is all the bookkeeping required).
//!
//! Classification matches [`crate::HttpBackend`] without its retry loop:
//! `200` parses the body, `429` is [`OutcomeClass::Shed`], any other
//! status or transport failure is [`OutcomeClass::Transport`], and a
//! request whose [`MuxConfig::request_timeout`] expires is
//! [`OutcomeClass::Timeout`] — which also poisons its connection (later
//! pipelined responses on that socket can no longer be trusted to line
//! up, so the rest of its FIFO fails as transport and the socket is
//! reconnected).
//!
//! [`OutcomeClass::Shed`]: faasrail_telemetry::OutcomeClass::Shed
//! [`OutcomeClass::Transport`]: faasrail_telemetry::OutcomeClass::Transport
//! [`OutcomeClass::Timeout`]: faasrail_telemetry::OutcomeClass::Timeout

use crate::client::ClientStats;
use crate::http;
use faasrail_loadgen::{Backend, InvocationRequest, InvocationResult};
use faasrail_reactor::http1;
use faasrail_reactor::{Interest, Poller, ReadBuf, Waker, WriteBuf};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning for [`MuxHttpBackend`].
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Fixed number of connections the driver multiplexes over.
    pub connections: usize,
    /// Maximum requests in flight (written, unanswered) per connection.
    pub pipeline_depth: usize,
    /// Budget for establishing one TCP connection.
    pub connect_timeout: Duration,
    /// Per-request deadline, submission to response.
    pub request_timeout: Duration,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            connections: 8,
            pipeline_depth: 32,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// Rendezvous between a blocked worker thread and the driver.
struct Slot {
    done: Mutex<Option<InvocationResult>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { done: Mutex::new(None), cv: Condvar::new() })
    }

    fn complete(&self, result: InvocationResult) {
        let mut done = self.done.lock().unwrap();
        if done.is_none() {
            *done = Some(result);
            self.cv.notify_one();
        }
    }

    fn wait(&self, budget: Duration) -> InvocationResult {
        let mut done = self.done.lock().unwrap();
        let deadline = Instant::now() + budget;
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Defensive: the driver enforces the real deadline; this
                // only trips if the driver wedged or died.
                return InvocationResult::timeout("mux driver unresponsive");
            }
            let (guard, _timeout) = self.cv.wait_timeout(done, left).unwrap();
            done = guard;
        }
    }
}

/// One request waiting for a connection with pipeline room.
struct MuxJob {
    body: Vec<u8>,
    trace_hex: String,
    deadline: Instant,
    slot: Arc<Slot>,
}

/// One request written to a socket, awaiting its (in-order) response.
struct InFlight {
    deadline: Instant,
    slot: Arc<Slot>,
}

/// Submission queue shared between worker threads and the driver.
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
    host: String,
    cfg: MuxConfig,
    stats: Arc<ClientStats>,
    submit: Arc<Submit>,
    poller: Poller,
    conns: Vec<MuxConn>,
    /// Requests accepted but not yet written anywhere (all pipelines full
    /// or all sockets down).
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
                let mut jobs = self.submit.jobs.lock().unwrap();
                self.backlog.extend(jobs.drain(..));
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
                    job.slot.complete(InvocationResult::transport("mux backend shut down"));
                    self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                }
                for idx in 0..self.conns.len() {
                    self.fail_conn(idx, "mux backend shut down");
                }
                break;
            }
        }
    }

    /// Move expired requests to `Timeout` and poison their connections.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        while let Some(front) = self.backlog.front() {
            if front.deadline > now {
                break;
            }
            let job = self.backlog.pop_front().expect("checked front");
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            job.slot.complete(InvocationResult::timeout("deadline exceeded before dispatch"));
        }
        for idx in 0..self.conns.len() {
            let expired = self.conns[idx].inflight.iter().any(|f| f.deadline <= now);
            if expired {
                self.timeout_conn(idx, now);
            }
        }
    }

    /// Establish (or re-establish) a socket for `idx`. Blocking connect —
    /// the driver briefly stalls, which is the price of a dependency-free
    /// connector; bounded by `connect_timeout`.
    fn ensure_connected(&mut self, idx: usize) -> bool {
        if matches!(self.conns[idx].sock, ConnSock::Live(_)) {
            return true;
        }
        match TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout) {
            Ok(stream) => {
                if stream.set_nonblocking(true).is_err() {
                    return false;
                }
                stream.set_nodelay(true).ok();
                if self.poller.add(stream.as_raw_fd(), Interest::EDGE_RW, idx as u64).is_err() {
                    return false;
                }
                self.stats.connects.fetch_add(1, Ordering::Relaxed);
                self.conns[idx].sock = ConnSock::Live(stream);
                true
            }
            Err(_) => false,
        }
    }

    /// Hand backlog jobs to the least-loaded connections with room.
    fn assign_backlog(&mut self) {
        while !self.backlog.is_empty() {
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
            if !self.ensure_connected(idx) {
                // Upstream unreachable right now: fail fast, like a
                // connect error in the unpooled client.
                let job = self.backlog.pop_front().expect("checked non-empty");
                self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                job.slot.complete(InvocationResult::transport("connect failed"));
                continue;
            }
            let job = self.backlog.pop_front().expect("checked non-empty");
            // Same semantics as the pooled client: any request sent over an
            // already-established connection counts as a reuse, whether it
            // pipelines behind others or rides an idle keep-alive socket.
            if was_live {
                self.stats.reuses.fetch_add(1, Ordering::Relaxed);
            }
            let conn = &mut self.conns[idx];
            let mut extra: Vec<(&str, &str)> = Vec::new();
            if !job.trace_hex.is_empty() {
                extra.push((http::TRACE_HEADER, &job.trace_hex));
            }
            let _ = http1::write_request_head(
                &mut conn.wbuf,
                "POST",
                "/invoke",
                &self.host,
                "application/json",
                job.body.len(),
                true,
                &extra,
            );
            let _ = conn.wbuf.write_all(&job.body);
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
            let body = &conn.rbuf.filled()[head.body_range()];
            let result = classify(head.status, body);
            count(&self.stats, &result);
            flight.slot.complete(result);
            let keep = head.keep_alive;
            let total = head.total_len();
            conn.rbuf.consume(total);
            if !keep {
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

    /// Tear a connection down, failing its whole in-flight FIFO as
    /// transport errors.
    fn fail_conn(&mut self, idx: usize, why: &str) {
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
        while let Some(flight) = conn.inflight.pop_front() {
            self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
            flight.slot.complete(InvocationResult::transport(why));
        }
    }

    /// Deadline expiry on a pipelined connection: expired requests time
    /// out, the survivors fail as transport (their responses can no longer
    /// be matched once the socket is abandoned), and the socket drops.
    fn timeout_conn(&mut self, idx: usize, now: Instant) {
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
        while let Some(flight) = conn.inflight.pop_front() {
            if flight.deadline <= now {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                flight.slot.complete(InvocationResult::timeout("no response within deadline"));
            } else {
                self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                flight.slot.complete(InvocationResult::transport("connection poisoned by timeout"));
            }
        }
    }
}

/// Mirror of [`crate::HttpBackend`]'s status classification, minus retries.
fn classify(status: u16, body: &[u8]) -> InvocationResult {
    match status {
        200 => match serde_json::from_slice::<InvocationResult>(body) {
            Ok(result) => result,
            Err(e) => InvocationResult::transport(format!("unparseable 200 body: {e}")),
        },
        429 => InvocationResult::shed("gateway shedding load (429)"),
        s => InvocationResult::transport(format!("gateway returned {s}")),
    }
}

fn count(stats: &ClientStats, result: &InvocationResult) {
    use faasrail_telemetry::OutcomeClass;
    match result.outcome() {
        OutcomeClass::Ok => stats.ok.fetch_add(1, Ordering::Relaxed),
        OutcomeClass::AppError => stats.app_errors.fetch_add(1, Ordering::Relaxed),
        OutcomeClass::Timeout => stats.timeouts.fetch_add(1, Ordering::Relaxed),
        OutcomeClass::Transport => stats.transport_errors.fetch_add(1, Ordering::Relaxed),
        OutcomeClass::Shed => stats.shed.fetch_add(1, Ordering::Relaxed),
    };
}

/// A [`Backend`] that multiplexes invocations over a fixed connection pool
/// driven by one reactor thread. See the module docs for semantics.
pub struct MuxHttpBackend {
    submit: Arc<Submit>,
    stats: Arc<ClientStats>,
    request_timeout: Duration,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl MuxHttpBackend {
    /// Connect a multiplexed backend to `addr` (e.g. `"127.0.0.1:8080"`).
    /// Sockets are established lazily on first use, so this cannot fail on
    /// an unreachable upstream — those failures surface per-invocation.
    pub fn new(addr: impl ToSocketAddrs, cfg: MuxConfig) -> std::io::Result<MuxHttpBackend> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::NotFound, "unresolvable address"))?;
        let submit = Arc::new(Submit {
            jobs: Mutex::new(VecDeque::new()),
            waker: Waker::new()?,
            shutdown: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            notified: AtomicBool::new(false),
        });
        let stats = Arc::new(ClientStats::default());
        let poller = Poller::new()?;
        poller.add(submit.waker.fd(), Interest::READ, TOKEN_SUBMIT)?;
        let driver = Driver {
            addr,
            host: addr.to_string(),
            cfg: cfg.clone(),
            stats: Arc::clone(&stats),
            submit: Arc::clone(&submit),
            poller,
            conns: (0..cfg.connections.max(1)).map(|_| MuxConn::new()).collect(),
            backlog: VecDeque::new(),
        };
        let handle = std::thread::spawn(move || driver.run());
        Ok(MuxHttpBackend {
            submit,
            stats,
            request_timeout: cfg.request_timeout,
            driver: Some(handle),
        })
    }

    /// Live client-side counters (shared shape with [`crate::HttpBackend`]).
    pub fn stats(&self) -> Arc<ClientStats> {
        Arc::clone(&self.stats)
    }

    /// One-line human summary of the counters.
    pub fn summary(&self) -> String {
        format!(
            "mux connects={} reuses={} ok={} app-error={} timeout={} transport={} shed={}",
            self.stats.connects.load(Ordering::Relaxed),
            self.stats.reuses.load(Ordering::Relaxed),
            self.stats.ok.load(Ordering::Relaxed),
            self.stats.app_errors.load(Ordering::Relaxed),
            self.stats.timeouts.load(Ordering::Relaxed),
            self.stats.transport_errors.load(Ordering::Relaxed),
            self.stats.shed.load(Ordering::Relaxed),
        )
    }
}

impl Backend for MuxHttpBackend {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let body = match serde_json::to_vec(req) {
            Ok(b) => b,
            Err(e) => {
                self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                return InvocationResult::transport(format!("encode: {e}"));
            }
        };
        let trace_hex = if req.trace_id != 0 {
            faasrail_telemetry::format_trace_id(req.trace_id)
        } else {
            String::new()
        };
        let slot = Slot::new();
        let job = MuxJob {
            body,
            trace_hex,
            deadline: Instant::now() + self.request_timeout,
            slot: Arc::clone(&slot),
        };
        self.submit.jobs.lock().unwrap().push_back(job);
        self.submit.wake_if_parked();
        // The driver owns the real deadline; the grace term only guards
        // against a wedged driver thread.
        slot.wait(self.request_timeout + Duration::from_secs(5))
    }
}

impl Drop for MuxHttpBackend {
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
    use faasrail_telemetry::OutcomeClass;
    use faasrail_workloads::{WorkloadId, WorkloadInput};
    use std::io::Read;
    use std::net::TcpListener;

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

        let cfg = MuxConfig {
            connections: 1,
            pipeline_depth: IN_FLIGHT,
            request_timeout: Duration::from_secs(20),
            ..MuxConfig::default()
        };
        let client = Arc::new(MuxHttpBackend::new(addr, cfg).unwrap());
        let request = InvocationRequest {
            workload: WorkloadId(7),
            input: WorkloadInput::Pyaes { bytes: 1024 },
            function_index: 0,
            scheduled_at_ms: 0,
            trace_id: 0,
        };
        let started = Instant::now();
        let callers: Vec<_> = (0..IN_FLIGHT)
            .map(|_| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.invoke(&request))
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
}
