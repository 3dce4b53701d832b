//! The reactor-mode gateway server: the same external contract as
//! [`crate::Gateway`], served by epoll event loops instead of a thread per
//! connection.
//!
//! ## Architecture
//!
//! * **N event-loop shards** ([`ReactorGateway::bind_sharded`]) each own an
//!   epoll instance, a listening socket (`SO_REUSEPORT` when `N > 1`, so
//!   the kernel spreads accepts), a connection slab, a deadline wheel, and
//!   a completion mailbox. A shard never blocks on a socket: connections
//!   are registered once, edge-triggered, and drained to `WouldBlock`.
//! * **One shared handler pool** of `cfg.workers` threads executes backend
//!   invocations, which may block arbitrarily long (that is the [`Backend`]
//!   contract). The pool's bounded queue *is* the admission queue: a
//!   `POST /invoke` arriving with `cfg.queue_capacity` jobs already queued
//!   is shed with `429` + `Retry-After` and the connection closed — the
//!   same signal the threaded server gives when its accept queue is full.
//! * **Per-connection deadlines** ride the shard's timer wheel: an idle
//!   keep-alive connection is reaped after `cfg.read_timeout`, and a peer
//!   that has started a request but not finished sending it (slow loris)
//!   is reaped after `cfg.head_read_timeout` — without stalling anyone
//!   else, because no shard thread ever blocks on one socket.
//!
//! What is served, refused, injected and traced is [`crate::core`]'s
//! contract, shared with the threaded server. Two differences are the
//! transport's own, and invisible on the wire: shedding happens when an
//! invocation is dispatched instead of when a connection is accepted (a
//! client sees `429` + `Retry-After` + close either way), so
//! `queue_depth` counts queued invocations rather than queued
//! connections, and the pool-queue wait is what a span's `queue_wait`
//! stage holds.

use crate::core::{micros_since, Arrival, Core, Reply, Step};
use crate::http;
use crate::{GatewayConfig, GatewayStats, StageMetrics};
use faasrail_loadgen::{Backend, InvocationRequest};
use faasrail_reactor::http1;
use faasrail_reactor::{
    bind_listeners, Interest, Listener, Poller, ReadBuf, TimerWheel, Waker, WriteBuf,
};
use faasrail_telemetry::{EventSink, ServerSpan};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Event-loop tokens: connections use `slot | generation << 32`, so the
/// listener and waker live outside the 32-bit slot space.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

const READ_CHUNK: usize = 16 * 1024;

fn conn_token(slot: usize, gen: u32) -> u64 {
    (slot as u64) | (u64::from(gen) << 32)
}

fn token_slot(token: u64) -> usize {
    (token & 0xffff_ffff) as usize
}

fn token_gen(token: u64) -> u32 {
    (token >> 32) as u32
}

/// One `/invoke` awaiting a handler thread.
struct Job {
    shard: usize,
    token: u64,
    inv: InvocationRequest,
    span: ServerSpan,
    /// Injected-delay jobs keep the dequeue/handler-start stamps they got
    /// at routing, so the parked delay lands in the service stage (where
    /// the threaded server's in-handler sleep puts it).
    preset_stamps: bool,
    keep: bool,
}

/// A finished invocation travelling back to its shard.
struct Completion {
    token: u64,
    /// The `200`; its body is pooled (back to [`BufPool`] after staging).
    reply: Reply,
}

/// Free-list of response-body buffers so steady-state completions reuse
/// allocations instead of growing fresh `Vec`s.
#[derive(Default)]
struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    fn take(&self) -> Vec<u8> {
        self.free.lock().unwrap().pop().unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut free = self.free.lock().unwrap();
        if free.len() < 256 {
            free.push(buf);
        }
    }
}

/// The bounded invoke queue feeding the handler pool. Its capacity is the
/// gateway's admission bound: `dispatch` refuses (sheds) beyond it.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
}

impl Pool {
    fn new(capacity: usize) -> Pool {
        Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Enqueue `job`, or hand it back if the admission queue is full.
    /// `forced` bypasses the bound (used to resume injected-delay jobs that
    /// were already admitted once).
    // Err carries the whole Job back so the shed path stays allocation-free.
    #[allow(clippy::result_large_err)]
    fn dispatch(&self, job: Job, forced: bool, stats: &GatewayStats) -> Result<(), Job> {
        let mut queue = self.queue.lock().unwrap();
        if !forced && queue.len() >= self.capacity {
            return Err(job);
        }
        queue.push_back(job);
        stats.queue_depth.store(queue.len() as u64, Ordering::Relaxed);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once shut down and drained.
    fn pop(&self, stats: &GatewayStats) -> Option<Job> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(job) = queue.pop_front() {
                stats.queue_depth.store(queue.len() as u64, Ordering::Relaxed);
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = self.available.wait(queue).unwrap();
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }
}

/// A shard's inbox of finished invocations, plus the eventfd that pulls the
/// shard out of `epoll_wait` when something lands.
///
/// The eventfd write is elided unless the shard is parked (or about to park)
/// in `epoll_wait` *and* no other deliverer has already woken it this cycle:
/// the shard drains the inbox on every loop iteration anyway, so a wake is
/// only load-bearing when it interrupts a blocking wait. At saturation this
/// collapses one `write(2)` per completion into at most one per batch.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    /// Shard is inside (or committed to entering) a blocking `epoll_wait`.
    parked: AtomicBool,
    /// A wake has been issued and not yet consumed by `drain`.
    notified: AtomicBool,
}

impl Mailbox {
    fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            parked: AtomicBool::new(false),
            notified: AtomicBool::new(false),
        })
    }

    fn deliver(&self, completion: Completion) {
        self.completions.lock().unwrap().push(completion);
        // `parked` is stored (SeqCst) before the shard re-checks the inbox, so
        // either the shard sees this push and skips the blocking wait, or this
        // load sees `parked == true` and the wake goes through.
        if self.parked.load(Ordering::SeqCst) && !self.notified.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// Unconditional wake for shutdown paths — bypasses the parked elision.
    fn force_wake(&self) {
        self.notified.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    fn drain(&self, into: &mut Vec<Completion>) {
        // Always reset the eventfd level (a wake may have raced past the
        // `notified` hand-off); consuming a wake whose completion is already
        // in the vec is harmless, and a wake issued after this read survives
        // to the next loop iteration because the eventfd is level-triggered.
        self.waker.drain();
        self.notified.store(false, Ordering::SeqCst);
        into.append(&mut self.completions.lock().unwrap());
    }

    fn has_pending(&self) -> bool {
        !self.completions.lock().unwrap().is_empty()
    }
}

/// Everything shared by shards, handler threads, and the handle.
struct Shared {
    core: Core,
    pool: Pool,
    bodies: BufPool,
    mailboxes: Vec<Arc<Mailbox>>,
}

impl Shared {
    /// A `200` whose connection is gone: the work still has its span
    /// (nothing reached the wire, so it counts as flushed now).
    fn discard(&self, reply: Reply) {
        if let Some(span) = reply.span {
            self.core.emit(span, micros_since(self.core.epoch));
        }
        if let Cow::Owned(body) = reply.body {
            self.bodies.put(body);
        }
    }

    fn wake_all(&self) {
        for mailbox in &self.mailboxes {
            mailbox.force_wake();
        }
    }
}

/// A span waiting for its response bytes to reach the socket. Emitted once
/// the connection's flushed-byte counter passes `done_at`.
struct PendingSpan {
    span: ServerSpan,
    done_at: u64,
}

enum ConnState {
    /// Between requests (or mid-head): the parser drives.
    Ready,
    /// One `/invoke` is out at the handler pool; buffered pipelined
    /// requests wait so responses stay in order.
    Busy,
    /// Injected-latency fault: the request is parked until `until`, then
    /// force-dispatched.
    Delayed { until: Instant, job: Option<Box<Job>> },
    /// Injected stall: the socket is held open and silent until `until`,
    /// then closed without a response.
    Stalled { until: Instant, span: Option<Box<ServerSpan>> },
}

struct Conn {
    stream: TcpStream,
    token: u64,
    rbuf: ReadBuf,
    wbuf: WriteBuf,
    /// Bytes actually written to the socket (monotonic), compared against
    /// [`PendingSpan::done_at`] to stamp flush times.
    flushed_bytes: u64,
    pending_spans: VecDeque<PendingSpan>,
    state: ConnState,
    accepted_us: u64,
    served: u64,
    idle_since: Instant,
    /// When the (incomplete) request on hand started arriving — the
    /// slow-loris clock.
    head_since: Option<Instant>,
    /// Earliest armed wheel deadline, if any (wheel entries are lazy
    /// hints; the real deadline is re-checked when one fires).
    armed_until: Option<Instant>,
    read_closed: bool,
    close_after_flush: bool,
}

/// Arm `conn`'s wheel entry for `deadline` unless an earlier one is
/// already live. A free function over disjoint fields so callers can hold
/// a `&mut Conn` borrowed out of the shard's slab.
fn arm(wheel: &mut TimerWheel, conn: &mut Conn, deadline: Instant) {
    if conn.armed_until.is_none_or(|armed| armed > deadline) {
        wheel.insert(conn.token, deadline);
        conn.armed_until = Some(deadline);
    }
}

enum Parsed {
    /// Keep parsing (a complete request was consumed).
    Continue,
    /// Stop parsing for now (partial input, or the connection went busy).
    Stop,
    /// The connection must be torn down immediately.
    Close,
}

enum TimerAction {
    Nothing,
    Rearm(Instant),
    Close,
    /// Stall expired: emit the parked span, then close silently.
    FinishStall(Box<ServerSpan>),
    /// Injected delay expired: the job re-enters the pool, bypassing the
    /// admission bound it already passed.
    DispatchDelayed(Box<Job>),
}

struct Shard {
    id: usize,
    poller: Poller,
    listener: Option<Listener>,
    mailbox: Arc<Mailbox>,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    wheel: TimerWheel,
}

impl Shard {
    fn new(id: usize, listener: Listener, shared: Arc<Shared>) -> io::Result<Shard> {
        let poller = Poller::new()?;
        poller.add(listener.raw_fd(), Interest::READ, TOKEN_LISTENER)?;
        let mailbox = Arc::clone(&shared.mailboxes[id]);
        poller.add(mailbox.waker.fd(), Interest::READ, TOKEN_WAKER)?;
        let epoch = shared.core.epoch;
        Ok(Shard {
            id,
            poller,
            listener: Some(listener),
            mailbox,
            shared,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(epoch),
        })
    }

    fn live_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn run(mut self) {
        let mut events = Vec::with_capacity(1024);
        let mut completions: Vec<Completion> = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        loop {
            let shutting_down = self.shared.core.shutdown.load(Ordering::SeqCst);
            // A coarse tick keeps the wheel honest; park indefinitely only
            // when no deadline can possibly be pending.
            let timeout = if shutting_down {
                Some(Duration::from_millis(5))
            } else if self.wheel.is_empty() {
                None
            } else {
                Some(Duration::from_millis(16))
            };
            events.clear();
            // Park protocol: publish intent to block, then re-check the inbox.
            // A deliverer either sees `parked == true` (its wake interrupts the
            // wait) or its push lands before the re-check (we skip blocking).
            self.mailbox.parked.store(true, Ordering::SeqCst);
            let timeout =
                if self.mailbox.has_pending() { Some(Duration::from_millis(0)) } else { timeout };
            let waited = self.poller.wait(timeout, &mut events);
            self.mailbox.parked.store(false, Ordering::SeqCst);
            if waited.is_err() {
                break; // EBADF etc. — unrecoverable for this shard
            }
            let mut accept_pass = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_pass = true,
                    TOKEN_WAKER => {} // drained with the mailbox below
                    token => self.on_conn_event(token, ev.readable(), ev.error()),
                }
            }
            completions.clear();
            self.mailbox.drain(&mut completions);
            for completion in completions.drain(..) {
                self.on_completion(completion);
            }
            if accept_pass {
                self.accept_ready();
            }
            fired.clear();
            self.wheel.advance(Instant::now(), &mut fired);
            for token in fired.drain(..) {
                self.on_timer(token);
            }
            if self.shared.core.shutdown.load(Ordering::SeqCst) {
                if let Some(l) = self.listener.take() {
                    let _ = self.poller.delete(l.raw_fd());
                }
                self.sweep_for_shutdown();
                if self.live_conns() == 0 {
                    break;
                }
            }
        }
    }

    // ---- accept ---------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok(Some(stream)) => self.install(stream),
                Ok(None) => return,
                Err(_) => return,
            }
        }
    }

    fn install(&mut self, stream: TcpStream) {
        if self.shared.core.shutdown.load(Ordering::SeqCst) {
            return; // late straggler during shutdown: drop before counting
        }
        self.shared.core.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true).ok();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let gen = self.gens[slot];
        let token = conn_token(slot, gen);
        if self.poller.add(stream.as_raw_fd(), Interest::EDGE_RW, token).is_err() {
            self.shared.core.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
            self.free.push(slot);
            return;
        }
        let now = Instant::now();
        let conn = Conn {
            stream,
            token,
            rbuf: ReadBuf::with_capacity(READ_CHUNK),
            wbuf: WriteBuf::with_capacity(READ_CHUNK),
            flushed_bytes: 0,
            pending_spans: VecDeque::new(),
            state: ConnState::Ready,
            accepted_us: micros_since(self.shared.core.epoch),
            served: 0,
            idle_since: now,
            head_since: None,
            armed_until: None,
            read_closed: false,
            close_after_flush: false,
        };
        self.shared.core.stats.connections_active.fetch_add(1, Ordering::Relaxed);
        self.conns[slot] = Some(conn);
        let read_timeout = self.shared.core.cfg.read_timeout;
        arm(
            &mut self.wheel,
            self.conns[slot].as_mut().expect("just installed"),
            now + read_timeout,
        );
        // Bytes may already be waiting (or the peer may already have
        // half-closed); treat installation as a readable edge.
        self.on_conn_event(token, true, false);
    }

    // ---- readiness ------------------------------------------------------

    fn conn_alive(&self, token: u64) -> bool {
        let slot = token_slot(token);
        slot < self.conns.len() && self.gens[slot] == token_gen(token) && self.conns[slot].is_some()
    }

    fn on_conn_event(&mut self, token: u64, readable: bool, error: bool) {
        if !self.conn_alive(token) {
            return; // stale event for a recycled slot
        }
        let slot = token_slot(token);
        if error {
            self.close_conn(slot);
            return;
        }
        if readable && !self.fill_read_buffer(slot) {
            self.close_conn(slot);
            return;
        }
        if !self.advance_conn(slot) {
            self.close_conn(slot);
            return;
        }
        // Always push staged bytes: a response produced on a read event
        // will never get its own writable edge (the socket never filled).
        if !self.try_flush(slot) {
            self.close_conn(slot);
        }
    }

    /// Drain the socket into the connection's read buffer. Returns `false`
    /// when the connection should be torn down (hard transport error).
    fn fill_read_buffer(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().expect("checked alive");
        loop {
            match conn.rbuf.fill_from(&mut conn.stream, READ_CHUNK) {
                Ok(0) => {
                    conn.read_closed = true;
                    return true;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Parse and route as many buffered requests as the connection's state
    /// allows. Returns `false` when the connection must close immediately.
    fn advance_conn(&mut self, slot: usize) -> bool {
        loop {
            {
                let conn = self.conns[slot].as_mut().expect("checked alive");
                if conn.close_after_flush || !matches!(conn.state, ConnState::Ready) {
                    return true;
                }
            }
            match self.parse_one(slot) {
                Parsed::Continue => continue,
                Parsed::Stop => return true,
                Parsed::Close => return false,
            }
        }
    }

    /// Try to parse and handle exactly one request off the read buffer.
    fn parse_one(&mut self, slot: usize) -> Parsed {
        let shared = Arc::clone(&self.shared);
        let core = &shared.core;
        let conn = self.conns[slot].as_mut().expect("checked alive");
        let head = match http1::parse_request(conn.rbuf.filled(), http::MAX_HEAD_BYTES) {
            Ok(Some(head)) if conn.rbuf.len() >= head.total_len() => head,
            Err(refused) => {
                stage(conn, core.bad_request(&refused));
                return Parsed::Stop;
            }
            Ok(None) if conn.rbuf.is_empty() => {
                conn.head_since = None;
                if conn.read_closed {
                    // Clean close between requests (after any staged
                    // response drains).
                    if conn.wbuf.is_empty() {
                        return Parsed::Close;
                    }
                    conn.close_after_flush = true;
                }
                return Parsed::Stop;
            }
            // Part of a request is in, head or body.
            Ok(_) => {
                if conn.read_closed {
                    return Parsed::Close; // cut short by EOF: no answer
                }
                // The slow-loris clock runs from the request's first byte.
                let since = *conn.head_since.get_or_insert_with(Instant::now);
                arm(&mut self.wheel, conn, since + core.cfg.head_read_timeout);
                return Parsed::Stop;
            }
        };
        conn.head_since = None;
        conn.idle_since = Instant::now();
        conn.served += 1;
        let now_us = micros_since(core.epoch);
        let buf = conn.rbuf.filled();
        let step = core.route(Arrival {
            method: &buf[head.method.clone()],
            path: &buf[head.path.clone()],
            keep_alive: head.keep_alive,
            trace_id: http::trace_id(buf, &head),
            body: &buf[head.body_range()],
            served: conn.served,
            // Keep-alive follow-ups never waited for admission; their
            // accepted stamp collapses to the parse instant (as in the
            // threaded server).
            accepted_us: if conn.served == 1 { conn.accepted_us } else { now_us },
            // Until a handler thread picks the invocation up and says
            // otherwise.
            dequeued_us: now_us,
            queue_depth: core.stats.queue_depth.load(Ordering::Relaxed),
            worker: self.id as u64,
        });
        conn.rbuf.consume(head.total_len());
        match step {
            Step::Reply(reply) => {
                stage(conn, reply);
            }
            Step::Invoke { inv, span, delay, keep } => {
                let preset_stamps = delay.is_some();
                let job = Job { shard: self.id, token: conn.token, inv, span, preset_stamps, keep };
                if let Some(delay) = delay {
                    let until = Instant::now() + delay;
                    conn.state = ConnState::Delayed { until, job: Some(Box::new(job)) };
                    arm(&mut self.wheel, conn, until);
                } else if shared.pool.dispatch(job, false, &core.stats).is_ok() {
                    conn.state = ConnState::Busy;
                } else {
                    stage(conn, core.shed()); // admission queue full
                }
            }
            Step::Vanish { span, hold } if hold.is_zero() => {
                core.close(span);
                conn.close_after_flush = true;
            }
            Step::Vanish { span, hold } => {
                let until = Instant::now() + hold;
                conn.state = ConnState::Stalled { until, span: Some(Box::new(span)) };
                arm(&mut self.wheel, conn, until);
            }
        }
        Parsed::Continue
    }

    // ---- completions ----------------------------------------------------

    fn on_completion(&mut self, completion: Completion) {
        let shared = Arc::clone(&self.shared);
        if !self.conn_alive(completion.token) {
            shared.discard(completion.reply); // died while the backend ran
            return;
        }
        let slot = token_slot(completion.token);
        {
            let conn = self.conns[slot].as_mut().expect("checked alive");
            conn.state = ConnState::Ready;
            conn.idle_since = Instant::now();
            if let Cow::Owned(body) = stage(conn, completion.reply) {
                shared.bodies.put(body);
            }
            arm(&mut self.wheel, conn, Instant::now() + shared.core.cfg.read_timeout);
        }
        // Pipelined follow-ups may already be buffered.
        if !self.advance_conn(slot) || !self.try_flush(slot) {
            self.close_conn(slot);
        }
    }

    // ---- timers ---------------------------------------------------------

    fn on_timer(&mut self, token: u64) {
        if !self.conn_alive(token) {
            return; // stale entry for a recycled slot
        }
        let slot = token_slot(token);
        let shared = Arc::clone(&self.shared);
        let now = Instant::now();
        let action = {
            let conn = self.conns[slot].as_mut().expect("checked alive");
            conn.armed_until = None;
            match &mut conn.state {
                ConnState::Stalled { until, span } => {
                    if now >= *until {
                        TimerAction::FinishStall(span.take().expect("stall span emitted once"))
                    } else {
                        TimerAction::Rearm(*until)
                    }
                }
                ConnState::Delayed { until, job } => {
                    if now >= *until {
                        let job = job.take().expect("delay job dispatched once");
                        conn.state = ConnState::Busy;
                        TimerAction::DispatchDelayed(job)
                    } else {
                        TimerAction::Rearm(*until)
                    }
                }
                // No deadline while the backend runs; the idle timer is
                // re-armed when the completion lands.
                ConnState::Busy => TimerAction::Nothing,
                ConnState::Ready => {
                    let deadline = if conn.rbuf.is_empty() {
                        conn.idle_since + shared.core.cfg.read_timeout
                    } else {
                        conn.head_since.unwrap_or(conn.idle_since)
                            + shared.core.cfg.head_read_timeout
                    };
                    if now >= deadline {
                        // Idle keep-alive expiry, or a reaped slow loris —
                        // the threaded server's read timeout also closes
                        // without a response.
                        TimerAction::Close
                    } else {
                        TimerAction::Rearm(deadline)
                    }
                }
            }
        };
        match action {
            TimerAction::Nothing => {}
            TimerAction::Rearm(deadline) => {
                let conn = self.conns[slot].as_mut().expect("checked alive");
                arm(&mut self.wheel, conn, deadline);
            }
            TimerAction::Close => self.close_conn(slot),
            TimerAction::FinishStall(span) => {
                shared.core.close(*span);
                self.close_conn(slot);
            }
            TimerAction::DispatchDelayed(job) => {
                // Forced: the request passed admission when it arrived.
                if shared.pool.dispatch(*job, true, &shared.core.stats).is_err() {
                    unreachable!("forced dispatch cannot be refused");
                }
            }
        }
    }

    // ---- writes and teardown --------------------------------------------

    /// Push staged bytes at the socket; emit spans whose responses are now
    /// fully flushed. Returns `false` if the transport broke.
    fn try_flush(&mut self, slot: usize) -> bool {
        let shared = Arc::clone(&self.shared);
        let should_close = {
            let conn = self.conns[slot].as_mut().expect("checked alive");
            if !conn.wbuf.is_empty() {
                match conn.wbuf.flush_to(&mut conn.stream) {
                    Ok(n) => conn.flushed_bytes += n as u64,
                    Err(_) => return false,
                }
            }
            let now_us = micros_since(shared.core.epoch);
            while let Some(front) = conn.pending_spans.front() {
                if front.done_at > conn.flushed_bytes {
                    break;
                }
                let pending = conn.pending_spans.pop_front().expect("checked front");
                shared.core.emit(pending.span, now_us);
            }
            conn.close_after_flush && conn.wbuf.is_empty()
        };
        if should_close {
            self.close_conn(slot);
        }
        true
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else { return };
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        let core = &self.shared.core;
        let stats = &core.stats;
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        stats.connections_active.fetch_sub(1, Ordering::Relaxed);
        stats.connections_closed.fetch_add(1, Ordering::Relaxed);
        stats.max_requests_per_connection.fetch_max(conn.served, Ordering::Relaxed);
        // Responses that never fully reached the wire still get their
        // spans (flush stamped now), mirroring the threaded server's
        // emit-then-propagate-the-write-error ordering.
        let now_us = micros_since(core.epoch);
        for pending in conn.pending_spans {
            core.emit(pending.span, now_us);
        }
        if let ConnState::Stalled { span: Some(span), .. } = conn.state {
            core.close(*span);
        }
        // A ConnState::Delayed job dies with its connection un-invoked
        // (nothing ran, nothing answered): no span, like a shed. A Busy
        // connection's completion emits via the stale-token path.
    }

    /// On shutdown: flush what we can and close idle connections; busy or
    /// fault-parked ones drain on their own (bounded by the backend,
    /// `latency_ms`, or `stall_ms`).
    fn sweep_for_shutdown(&mut self) {
        for slot in 0..self.conns.len() {
            let idle =
                matches!(self.conns[slot].as_ref().map(|c| &c.state), Some(ConnState::Ready));
            // Flush failure already closed nothing (try_flush reports, we
            // close); a successful flush still closes the idle connection.
            if idle && (!self.try_flush(slot) || self.conns[slot].is_some()) {
                self.close_conn(slot);
            }
        }
    }
}

// ---- response encoding (no per-request allocation) ----------------------

/// Stage `reply` in the connection's write buffer; its span waits there
/// for the flush. The body comes back for whoever recycles it.
fn stage(conn: &mut Conn, reply: Reply) -> Cow<'static, [u8]> {
    let _ = http1::write_response_head(
        &mut conn.wbuf,
        reply.status,
        http::status_reason(reply.status),
        reply.content_type,
        reply.body.len(),
        reply.keep,
        reply.extra_headers,
    );
    let _ = conn.wbuf.write_all(&reply.body);
    if let Some(span) = reply.span {
        conn.pending_spans.push_back(PendingSpan { span, done_at: conn.wbuf.bytes_staged() });
    }
    if !reply.keep {
        conn.close_after_flush = true;
    }
    reply.body
}

// ---- handler pool -------------------------------------------------------

fn handler_loop(shared: Arc<Shared>, worker: u64) {
    let core = &shared.core;
    while let Some(mut job) = shared.pool.pop(&core.stats) {
        if !job.preset_stamps {
            let now = micros_since(core.epoch);
            job.span.dequeued_us = now;
            job.span.handler_start_us = now;
        }
        job.span.worker = worker;
        let reply = core.run_invoke(&job.inv, job.span, job.keep, shared.bodies.take());
        shared.mailboxes[job.shard].deliver(Completion { token: job.token, reply });
    }
}

// ---- public surface -----------------------------------------------------

/// The reactor-mode gateway: same contract as [`crate::Gateway`], served by
/// epoll event-loop shards plus a bounded handler pool.
pub struct ReactorGateway {
    listeners: Vec<Listener>,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ReactorGateway {
    /// Bind a single-shard reactor gateway (the common case; equivalent to
    /// [`ReactorGateway::bind_sharded`] with one shard).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        cfg: GatewayConfig,
    ) -> io::Result<ReactorGateway> {
        ReactorGateway::bind_sharded(addr, backend, cfg, 1)
    }

    /// Bind with `shards` event loops. With more than one shard the
    /// listeners share the port via `SO_REUSEPORT` (IPv4 only) and the
    /// kernel spreads incoming connections across them.
    pub fn bind_sharded(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        cfg: GatewayConfig,
        shards: usize,
    ) -> io::Result<ReactorGateway> {
        let core = Core::new(backend, cfg);
        let shards = shards.max(1);
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "unresolvable bind address"))?;
        let (listeners, addr) = bind_listeners(addr, shards)?;
        let mut mailboxes = Vec::with_capacity(shards);
        for _ in 0..shards {
            mailboxes.push(Arc::new(Mailbox::new()?));
        }
        let pool = Pool::new(cfg.queue_capacity);
        let shared = Arc::new(Shared { core, pool, bodies: BufPool::default(), mailboxes });
        Ok(ReactorGateway { listeners, addr, shared })
    }

    /// Install an [`EventSink`] receiving one [`ServerSpan`] per
    /// `POST /invoke` (default: `NullSink`).
    pub fn with_trace_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        Arc::get_mut(&mut self.shared)
            .expect("with_trace_sink must be called before spawn/run")
            .core
            .sink = sink;
        self
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared counters (live; safe to read while serving).
    pub fn stats(&self) -> Arc<GatewayStats> {
        Arc::clone(&self.shared.core.stats)
    }

    /// Per-stage residency histograms (live; safe to read while serving).
    pub fn stage_metrics(&self) -> Arc<StageMetrics> {
        Arc::clone(&self.shared.core.stages)
    }

    /// Serve until shut down, blocking the calling thread.
    pub fn run(self) {
        let shared = self.shared;
        let mut shard_threads = Vec::new();
        for (id, listener) in self.listeners.into_iter().enumerate() {
            let shard = Shard::new(id, listener, Arc::clone(&shared))
                .expect("epoll instance for reactor shard");
            shard_threads.push(std::thread::spawn(move || shard.run()));
        }
        let mut handler_threads = Vec::new();
        for worker in 0..shared.core.cfg.workers {
            let shared = Arc::clone(&shared);
            handler_threads.push(std::thread::spawn(move || handler_loop(shared, worker as u64)));
        }
        for t in shard_threads {
            let _ = t.join();
        }
        // Shards are gone; let the pool drain whatever is still queued,
        // then stop the handlers.
        shared.pool.stop();
        for t in handler_threads {
            let _ = t.join();
        }
        // Completions for connections that closed during shutdown still
        // carry spans — account for them before declaring the run over.
        let mut leftovers = Vec::new();
        for mailbox in &shared.mailboxes {
            mailbox.drain(&mut leftovers);
        }
        for completion in leftovers {
            shared.discard(completion.reply);
        }
        shared.core.sink.flush();
    }

    /// Serve on a background thread; returns a handle for address, stats,
    /// and shutdown.
    pub fn spawn(self) -> ReactorHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let join = std::thread::spawn(move || self.run());
        ReactorHandle { addr, shared, join }
    }
}

/// Handle to a reactor gateway serving on a background thread. Mirrors
/// [`crate::GatewayHandle`].
pub struct ReactorHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: std::thread::JoinHandle<()>,
}

impl ReactorHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &GatewayStats {
        &self.shared.core.stats
    }

    /// Stop accepting, drain in-flight work, and join the server threads.
    pub fn stop(self) {
        self.shared.core.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        let _ = self.join.join();
    }
}
