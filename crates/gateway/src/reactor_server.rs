//! The reactor engine of [`crate::Gateway`]: the threaded engine's external
//! contract, served by epoll event loops instead of a thread per
//! connection.
//!
//! ## Architecture
//!
//! * **N event-loop shards** ([`ReactorGateway::bind_sharded`]) each own an
//!   epoll instance, a listening socket (`SO_REUSEPORT` when `N > 1`, so
//!   the kernel spreads accepts), a connection slab, a deadline wheel, and
//!   an [`Inbox`] of completions. A shard never blocks on a socket:
//!   connections are registered once, edge-triggered, and read to
//!   `WouldBlock` while they are ready to parse.
//! * **Runs.** A shard parses every complete request a connection has
//!   buffered, and its consecutive `POST /invoke`s become one *run*, handed
//!   to the handler pool as one job when parsing stops; a lone request is a
//!   run of one. One handler executes the run in request order, as a
//!   threaded worker serves a pipelined connection, and the connection is
//!   busy until the run's last response lands. Only an invocation joins an
//!   open run: any other request stays unparsed until the run is answered,
//!   and an invocation routed to a reply or a vanish (`400`, injected `500`,
//!   drop, stall) is held and carried out after the run's last response,
//!   ending the run, as does one whose reply closes the connection. While a
//!   run is out a connection reads only until `READ_CHUNK` unparsed bytes
//!   are buffered, so a peer pipelining behind a slow invocation is held by
//!   the kernel's backpressure, as it is on the threaded engine.
//! * **One shared handler pool** of `cfg.workers` threads runs every
//!   invocation in [`Core::run_invoke`], the threaded engine's handler
//!   stage: an injected delay is waited out there, then the backend runs,
//!   which may block arbitrarily long (that is the [`Backend`] contract).
//!   The pool is fed by one `sync_channel` of `cfg.queue_capacity`, and
//!   that bound *is* the admission queue: a run takes one slot
//!   (`Core::admit`) when its first invocation is routed, and one routed
//!   with all slots taken is shed with `429` + `Retry-After` and the
//!   connection closed — the same signal the threaded server gives when its
//!   accept queue is full. A handler gives the slot back when it dequeues
//!   the run. When the shards have exited, their senders are gone and the
//!   handlers drain what is queued, then stop.
//! * **What only the event loop can do** stays on it: parsing, staging and
//!   flushing responses, and the per-connection deadlines on the shard's
//!   timer wheel. Each completion is staged as it lands, and a connection
//!   is flushed once per loop pass, after the inbox is drained, so no
//!   response waits for a later invocation of its run. An idle keep-alive
//!   connection is reaped after `cfg.read_timeout`, a peer that has started
//!   a request but not finished sending it (slow loris) after
//!   `cfg.head_read_timeout`, and an injected drop or stall
//!   (`Step::Vanish`, which runs no backend) is a hold on the socket —
//!   without stalling anyone else, because no shard thread ever blocks on
//!   one socket.
//!
//! What is served, refused, injected and traced is [`crate::core`]'s
//! contract, shared with the threaded server. Two differences are the
//! transport's own, and invisible on the wire: shedding happens when a run
//! opens instead of when a connection is accepted (a client sees `429` +
//! `Retry-After` + close either way), so `queue_depth` counts queued runs
//! rather than queued connections; and a span's `queue_wait` stage holds
//! the handler-queue wait plus the wait behind its run's earlier
//! invocations, since a handler stamps `dequeued_us` as it starts each one.

use crate::core::{micros_since, Arrival, Core, Reply, Step};
use crate::front::{Engine, Gateway};
use crate::{http, lock, GatewayConfig};
use faasrail_loadgen::{Backend, InvocationRequest};
use faasrail_reactor::http1;
use faasrail_reactor::{
    bind_listeners, Inbox, Interest, Listener, Poller, ReadBuf, TimerWheel, WriteBuf,
};
use faasrail_telemetry::ServerSpan;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Event-loop tokens: connections use `slot | generation << 32`, so the
/// listener and inbox live outside the 32-bit slot space.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_INBOX: u64 = u64::MAX - 1;

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

/// A routed `/invoke`, as a handler runs it.
struct Invocation {
    inv: InvocationRequest,
    span: ServerSpan,
    delay: Option<Duration>,
    keep: bool,
}

/// One admitted run on its way to a handler thread: a connection's
/// consecutive buffered invocations, in request order.
struct Job {
    shard: usize,
    token: u64,
    invs: Vec<Invocation>,
}

/// A finished invocation travelling back to its shard.
pub(crate) struct Completion {
    token: u64,
    reply: Reply,
}

/// A `200` whose connection is gone: the work still has its span (nothing
/// reached the wire, so it counts as flushed now).
fn discard(core: &Core, reply: Reply) {
    if let Some(span) = reply.span {
        core.emit(span, micros_since(core.epoch));
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
    /// A run is out at the handler pool with `left` of its responses still
    /// to come; buffered pipelined requests wait so responses stay in order.
    Busy { left: usize },
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
    /// The socket may hold bytes a bounded read left there.
    unread: bool,
    close_after_flush: bool,
    /// A step routed behind an open run (a `400`, an injected `500`, a drop
    /// or a stall), carried out once the run's last response is staged.
    held: Option<Step>,
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

enum TimerAction {
    Nothing,
    Rearm(Instant),
    Close,
    /// Stall expired: emit the held span, then close silently.
    FinishStall(Box<ServerSpan>),
}

struct Shard<'a> {
    id: usize,
    poller: Poller,
    listener: Option<Listener>,
    inbox: &'a Inbox<Completion>,
    core: &'a Core,
    /// The admission queue: the handler pool's bounded channel.
    jobs: SyncSender<Job>,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    wheel: TimerWheel,
}

impl<'a> Shard<'a> {
    fn new(
        id: usize,
        listener: Listener,
        core: &'a Core,
        inbox: &'a Inbox<Completion>,
        jobs: SyncSender<Job>,
    ) -> io::Result<Shard<'a>> {
        let poller = Poller::new()?;
        poller.add(listener.raw_fd(), Interest::READ, TOKEN_LISTENER)?;
        inbox.register(&poller, TOKEN_INBOX)?;
        Ok(Shard {
            id,
            poller,
            listener: Some(listener),
            inbox,
            core,
            jobs,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(core.epoch),
        })
    }

    fn live_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn run(mut self) {
        let mut events = Vec::with_capacity(1024);
        let mut completions: Vec<Completion> = Vec::new();
        let mut staged: Vec<u64> = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        loop {
            let shutting_down = self.core.shutdown.load(Ordering::SeqCst);
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
            if self.inbox.wait(&mut self.poller, timeout, &mut events).is_err() {
                break; // EBADF etc. — unrecoverable for this shard
            }
            let mut accept_pass = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_pass = true,
                    TOKEN_INBOX => {} // drained below
                    token => self.on_conn_event(token, ev.readable(), ev.error()),
                }
            }
            completions.clear();
            self.inbox.drain(&mut completions);
            for completion in completions.drain(..) {
                let token = completion.token;
                if self.on_completion(completion) && staged.last() != Some(&token) {
                    staged.push(token);
                }
            }
            // One flush per connection per pass, however many of its
            // responses landed.
            for token in staged.drain(..) {
                if self.conn_alive(token) {
                    self.flush_or_close(token_slot(token));
                }
            }
            if accept_pass {
                self.accept_ready();
            }
            fired.clear();
            self.wheel.advance(Instant::now(), &mut fired);
            for token in fired.drain(..) {
                self.on_timer(token);
            }
            if self.core.shutdown.load(Ordering::SeqCst) {
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
        if self.core.shutdown.load(Ordering::SeqCst) {
            return; // late straggler during shutdown: drop before counting
        }
        self.core.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
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
            self.core.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
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
            accepted_us: micros_since(self.core.epoch),
            served: 0,
            idle_since: now,
            head_since: None,
            armed_until: None,
            read_closed: false,
            unread: false,
            close_after_flush: false,
            held: None,
        };
        self.core.stats.connections_active.fetch_add(1, Ordering::Relaxed);
        self.conns[slot] = Some(conn);
        let read_timeout = self.core.cfg.read_timeout;
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
        let conn = self.conns[slot].as_mut().expect("checked alive");
        if error || (readable && fill(conn).is_err()) {
            self.close_conn(slot);
            return;
        }
        self.advance_conn(slot);
        // Always push staged bytes: a response produced on a read event
        // will never get its own writable edge (the socket never filled).
        self.flush_or_close(slot);
    }

    /// Parse and route as many buffered requests as the connection's state
    /// allows. Consecutive invocations make one run, handed to the handler
    /// pool in one job when parsing stops; while a run is open only a
    /// complete `POST /invoke` is parsed, so every other request answers
    /// after the run's responses, in order.
    fn advance_conn(&mut self, slot: usize) {
        let core = self.core;
        let conn = self.conns[slot].as_mut().expect("checked alive");
        let mut run = Vec::new();
        while !conn.close_after_flush && matches!(conn.state, ConnState::Ready) {
            let head = match http1::parse_request(conn.rbuf.filled(), http::MAX_HEAD_BYTES) {
                Ok(Some(head)) if conn.rbuf.len() >= head.total_len() => head,
                // Whatever it is, it waits for the run.
                _ if !run.is_empty() => break,
                Err(refused) => {
                    stage(conn, core.bad_request(&refused));
                    break;
                }
                Ok(None) if conn.rbuf.is_empty() => {
                    conn.head_since = None;
                    // A clean close between requests, once any staged
                    // response drains.
                    conn.close_after_flush = conn.read_closed;
                    break;
                }
                // Part of a request is in, head or body.
                Ok(_) => {
                    if conn.read_closed {
                        // Cut short by EOF: no answer to it.
                        conn.close_after_flush = true;
                        break;
                    }
                    // The slow-loris clock runs from the request's first byte.
                    let since = *conn.head_since.get_or_insert_with(Instant::now);
                    arm(&mut self.wheel, conn, since + core.cfg.head_read_timeout);
                    break;
                }
            };
            let buf = conn.rbuf.filled();
            let (method, path) = (&buf[head.method.clone()], &buf[head.path.clone()]);
            if !run.is_empty() && (method, path) != (&b"POST"[..], &b"/invoke"[..]) {
                break;
            }
            conn.head_since = None;
            conn.idle_since = Instant::now();
            conn.served += 1;
            let now_us = micros_since(core.epoch);
            let step = core.route(Arrival {
                method,
                path,
                keep_alive: head.keep_alive,
                trace_id: http::trace_id(buf, &head),
                body: &buf[head.body_range()],
                served: conn.served,
                // Keep-alive follow-ups never waited for admission; their
                // accepted stamp collapses to the parse instant (as in the
                // threaded server).
                accepted_us: if conn.served == 1 { conn.accepted_us } else { now_us },
                // Until a handler thread starts the invocation and says
                // otherwise.
                dequeued_us: now_us,
                queue_depth: core.stats.queue_depth.load(Ordering::Relaxed),
                worker: self.id as u64,
            });
            conn.rbuf.consume(head.total_len());
            match step {
                Step::Invoke { inv, span, delay, keep } => {
                    // A run takes one admission slot, when it opens.
                    if run.is_empty() && core.admit().is_none() {
                        stage(conn, core.shed());
                        break;
                    }
                    run.push(Invocation { inv, span, delay, keep });
                    if !keep {
                        break; // its reply closes the connection
                    }
                }
                step if run.is_empty() => carry_out(&mut self.wheel, core, conn, step),
                step => {
                    conn.held = Some(step);
                    break;
                }
            }
        }
        if !run.is_empty() {
            conn.state = ConnState::Busy { left: run.len() };
            core.stats.handoffs.fetch_add(1, Ordering::Relaxed);
            let job = Job { shard: self.id, token: conn.token, invs: run };
            // Admitted work always finds room, and the handlers outlive
            // every shard: this never blocks or fails.
            self.jobs.send(job).expect("handler pool is running");
        }
    }

    // ---- completions ----------------------------------------------------

    /// Stage a finished invocation's response; after a run's last one,
    /// carry out the held step and parse on. `true` when the connection
    /// lives and has bytes to flush.
    fn on_completion(&mut self, completion: Completion) -> bool {
        if !self.conn_alive(completion.token) {
            discard(self.core, completion.reply); // died while the backend ran
            return false;
        }
        let slot = token_slot(completion.token);
        let core = self.core;
        let conn = self.conns[slot].as_mut().expect("checked alive");
        stage(conn, completion.reply);
        let ConnState::Busy { left } = &mut conn.state else {
            unreachable!("a completion lands on the connection that ran it")
        };
        *left -= 1;
        if *left > 0 {
            return true;
        }
        let now = Instant::now();
        conn.state = ConnState::Ready;
        conn.idle_since = now;
        arm(&mut self.wheel, conn, now + core.cfg.read_timeout);
        if let Some(step) = conn.held.take() {
            carry_out(&mut self.wheel, core, conn, step);
        }
        // Read what the socket kept while the run was out, then parse the
        // pipelined follow-ups.
        if conn.unread && fill(conn).is_err() {
            self.close_conn(slot);
            return false;
        }
        self.advance_conn(slot);
        true
    }

    // ---- timers ---------------------------------------------------------

    fn on_timer(&mut self, token: u64) {
        if !self.conn_alive(token) {
            return; // stale entry for a recycled slot
        }
        let slot = token_slot(token);
        let cfg = &self.core.cfg;
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
                // No deadline while the run is out; the idle timer is
                // re-armed when its last completion lands.
                ConnState::Busy { .. } => TimerAction::Nothing,
                ConnState::Ready => {
                    let deadline = if conn.rbuf.is_empty() {
                        conn.idle_since + cfg.read_timeout
                    } else {
                        conn.head_since.unwrap_or(conn.idle_since) + cfg.head_read_timeout
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
                self.core.close(*span);
                self.close_conn(slot);
            }
        }
    }

    // ---- writes and teardown --------------------------------------------

    /// Push staged bytes at the socket and emit the spans whose responses
    /// are now fully flushed; close the connection if the transport broke,
    /// or if it was to close and nothing is left to send.
    fn flush_or_close(&mut self, slot: usize) {
        let core = self.core;
        let conn = self.conns[slot].as_mut().expect("checked alive");
        if !conn.wbuf.is_empty() {
            match conn.wbuf.flush_to(&mut conn.stream) {
                Ok(n) => conn.flushed_bytes += n as u64,
                Err(_) => return self.close_conn(slot),
            }
        }
        let now_us = micros_since(core.epoch);
        while let Some(front) = conn.pending_spans.front() {
            if front.done_at > conn.flushed_bytes {
                break;
            }
            let pending = conn.pending_spans.pop_front().expect("checked front");
            core.emit(pending.span, now_us);
        }
        if conn.close_after_flush && conn.wbuf.is_empty() {
            self.close_conn(slot);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else { return };
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        let core = self.core;
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
        // A step held behind the run ends here too.
        match conn.held {
            Some(Step::Reply(reply)) => discard(core, reply),
            Some(Step::Vanish { span, .. } | Step::Invoke { span, .. }) => core.close(span),
            None => {}
        }
        // A Busy connection's completions emit via the stale-token path.
    }

    /// On shutdown: flush what we can and close idle connections; busy or
    /// stalled ones drain on their own (bounded by the backend and
    /// `latency_ms`, or by `stall_ms`).
    fn sweep_for_shutdown(&mut self) {
        for slot in 0..self.conns.len() {
            let idle =
                matches!(self.conns[slot].as_ref().map(|c| &c.state), Some(ConnState::Ready));
            if idle {
                // Flush what is staged, then close the idle connection
                // (a no-op if the flush already did).
                self.flush_or_close(slot);
                self.close_conn(slot);
            }
        }
    }
}

/// Carry out a routed step that runs no handler: stage a reply, or let the
/// connection go silent, closed now (a drop) or held for `hold` from now (a
/// stall).
fn carry_out(wheel: &mut TimerWheel, core: &Core, conn: &mut Conn, step: Step) {
    match step {
        Step::Reply(reply) => stage(conn, reply),
        Step::Vanish { span, hold } if hold.is_zero() => {
            core.close(span);
            conn.close_after_flush = true;
        }
        Step::Vanish { span, hold } => {
            let until = Instant::now() + hold;
            conn.state = ConnState::Stalled { until, span: Some(Box::new(span)) };
            arm(wheel, conn, until);
        }
        Step::Invoke { .. } => unreachable!("an invocation runs on a handler"),
    }
}

/// Read what the socket holds: all of it while the connection is ready to
/// parse; otherwise (a run is out, or a stall holds it) only until
/// `READ_CHUNK` unparsed bytes are buffered, noting that more may wait, so
/// a peer pipelining behind a slow invocation meets the kernel's
/// backpressure instead of a growing buffer.
fn fill(conn: &mut Conn) -> io::Result<()> {
    let limit = if matches!(conn.state, ConnState::Ready) { usize::MAX } else { READ_CHUNK };
    let eof = conn.rbuf.drain_from(&mut conn.stream, READ_CHUNK, limit)?;
    conn.read_closed |= eof;
    conn.unread = !eof && conn.rbuf.len() >= limit;
    Ok(())
}

// ---- response encoding (no per-request allocation) ----------------------

/// Stage `reply` in the connection's write buffer; its span waits there
/// for the flush.
fn stage(conn: &mut Conn, reply: Reply) {
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
}

/// Serve until shut down: one thread per listener's shard, `cfg.workers`
/// handler threads, and `inboxes[i]` carrying shard `i`'s completions.
pub(crate) fn run(core: &Core, listeners: Vec<Listener>, inboxes: &[Inbox<Completion>]) {
    let stats = &*core.stats;
    let (tx, rx): (SyncSender<Job>, _) = sync_channel(core.cfg.queue_capacity.max(1));
    // As in the threaded engine: the idle handler waits in `recv` under
    // the lock, the rest on the lock.
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for worker in 0..core.cfg.workers as u64 {
            let next = || lock(&rx).recv().ok();
            scope.spawn(move || {
                while let Some(job) = next() {
                    stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    for Invocation { inv, mut span, delay, keep } in job.invs {
                        // Waiting behind the run's earlier invocations is
                        // queue wait.
                        let now = micros_since(core.epoch);
                        span.dequeued_us = now;
                        span.handler_start_us = now;
                        span.worker = worker;
                        let reply = core.run_invoke(&inv, span, delay, keep);
                        inboxes[job.shard].push(Completion { token: job.token, reply });
                    }
                }
            });
        }
        for (id, listener) in listeners.into_iter().enumerate() {
            let shard = Shard::new(id, listener, core, &inboxes[id], tx.clone())
                .expect("epoll instance for reactor shard");
            scope.spawn(move || shard.run());
        }
        // Each shard drops its sender when it exits; then the handlers
        // drain whatever is still queued and stop.
        drop(tx);
    });
    // Completions for connections that closed during shutdown still
    // carry spans — account for them before declaring the run over.
    let mut leftovers = Vec::new();
    for inbox in inboxes {
        inbox.drain(&mut leftovers);
    }
    for completion in leftovers {
        discard(core, completion.reply);
    }
}

/// The reactor engine's constructors: epoll event-loop shards plus a
/// bounded handler pool, behind the one [`Gateway`].
pub enum ReactorGateway {}

impl ReactorGateway {
    /// Bind a single-shard reactor gateway (the common case; equivalent to
    /// [`ReactorGateway::bind_sharded`] with one shard).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        cfg: GatewayConfig,
    ) -> io::Result<Gateway> {
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
    ) -> io::Result<Gateway> {
        let core = Arc::new(Core::new(backend, cfg));
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "unresolvable bind address"))?;
        let (listeners, addr) = bind_listeners(addr, shards.max(1))?;
        let inboxes = listeners.iter().map(|_| Inbox::new()).collect::<io::Result<Vec<_>>>()?;
        Ok(Gateway { addr, core, engine: Engine::Reactor(listeners, inboxes.into()) })
    }
}
