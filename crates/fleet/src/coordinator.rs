//! The fleet coordinator: the sockets, threads and clocks around the
//! control core.
//!
//! What a fleet run *decides* is [`control`](crate::control), stated once
//! and free of IO. This file accepts and handshakes agents over
//! [`wire`](crate::wire) (version check → clock probes → shard assignment
//! → synchronized start), turns what the sockets do into [`Event`]s, and
//! carries out the frames the core returns.
//!
//! * **One owner.** The main thread owns the [`Control`] and every agent's
//!   write half. Reader threads (one per agent) and the admission thread
//!   (rejoins and late joiners) only handshake and parse; they push events
//!   into one channel. No state is shared, so nothing is sent under a lock.
//! * **Liveness is a socket timeout.** An admitted stream carries the lease
//!   ([`FleetConfig::lease_ms`]) as its read and its write timeout: silence
//!   past it is a *stall*, EOF or reset a *crash*. A send that fails or
//!   times out (an agent connected but not reading) shuts the stream down
//!   and reaches the core as a loss like any other, so a wedged grantee
//!   costs one lease, never the run.
//!
//! The loop ends when the core says the run is resolved and every reader
//! is gone: a fleet run always terminates with a report.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use serde::Serialize;

use faasrail_core::RequestTrace;
use faasrail_loadgen::{Pacing, RunMetrics};
use faasrail_telemetry::{
    midpoint_offset, ClockOffset, ReassignSpan, RunReport, Snapshot, TelemetryEvent,
};
use faasrail_workloads::WorkloadPool;

use crate::console::ConsoleServer;
use crate::control::{Control, Event, Outbound};
use crate::history::{FleetSample, History, DEFAULT_HISTORY_CAPACITY};
use crate::wire::{
    arm, read_frame, read_link, send, wall_clock_us, write_frame, Assignment, FleetMessage,
    PROTOCOL_VERSION,
};

/// How often the main loop feeds the operator's stop flag to the core.
const POLL: Duration = Duration::from_millis(50);

/// Knobs for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Agents (= initial shards) to wait for before starting.
    pub agents: usize,
    /// Replay worker threads per agent.
    pub workers: usize,
    pub pacing: Pacing,
    /// Collect agent span logs and build a merged [`RunReport`].
    pub capture_events: bool,
    /// Agent progress cadence, milliseconds.
    pub progress_every_ms: u64,
    /// Gap between the last `Ready` and the synchronized epoch — must
    /// cover one `Start` round trip to every agent.
    pub start_delay_ms: u64,
    /// Gateway URL the agents should replay against; `None` = in-process.
    pub target: Option<String>,
    /// Clock probes per agent for offset estimation.
    pub probes: u32,
    /// Print a live fleet-wide progress line once per progress window.
    pub live: bool,
    /// Handshake-phase socket timeout (before the lease takes over).
    pub agent_timeout: Duration,
    /// Liveness lease: an agent with no frame for this long is declared
    /// stalled and its work reshards. Must comfortably exceed
    /// `progress_every_ms`.
    pub lease_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            agents: 2,
            workers: 4,
            pacing: Pacing::RealTime { compression: 1.0 },
            capture_events: false,
            progress_every_ms: 1_000,
            start_delay_ms: 500,
            target: None,
            probes: 7,
            live: false,
            agent_timeout: Duration::from_secs(30),
            lease_ms: 5_000,
        }
    }
}

/// Per-agent outcome inside a [`FleetReport`].
#[derive(Debug, Clone, Serialize)]
pub struct AgentReport {
    pub name: String,
    pub shard: u32,
    /// Requests assigned to this shard at handshake (grants excluded).
    pub assigned: u64,
    /// Whether the agent delivered its final `Done`.
    pub completed: bool,
    /// `"done"`, `"crash"`, `"stall"`, or `"abort: <reason>"`.
    pub status: String,
    /// Reassignment grants this agent took over from dead shards.
    pub granted: u64,
    /// Whether this slot was admitted mid-run (rejoin or late join).
    pub rejoined: bool,
    /// Last and worst reported pacing lag, milliseconds.
    pub lag_ms: u64,
    pub max_lag_ms: u64,
    /// Agent-minus-coordinator clock offset measured at handshake.
    pub clock: ClockOffset,
    /// Last progress snapshot received.
    pub last_progress: Snapshot,
}

/// The merged result of one fleet run.
#[derive(Debug, Serialize)]
pub struct FleetReport {
    pub shards: u32,
    /// Requests in the full (unsharded) schedule.
    pub offered: u64,
    /// Offered invocations that never finished anywhere — work no
    /// survivor could take, or an operator abort. `metrics.completed +
    /// metrics.errors + aborted_invocations == offered` always holds.
    pub aborted_invocations: u64,
    /// Fleet-wide merged replay metrics.
    pub metrics: RunMetrics,
    pub agents: Vec<AgentReport>,
    /// Every mid-run reassignment, in issue order.
    pub reassignments: Vec<ReassignSpan>,
    /// Abort reasons observed (agent aborts, protocol refusals, operator
    /// stop) — distinguishable in the report since PR 7.
    pub abort_reasons: Vec<String>,
    /// Worst pacing lag reported by any agent, milliseconds (fleet-wide
    /// offered-vs-achieved skew).
    pub max_lag_ms: u64,
    /// Aborted invocations by scheduled minute: the offered series minus
    /// `metrics.issued_per_minute`, so it sums to `aborted_invocations`.
    pub aborted_per_minute: Vec<u64>,
    /// Merged cross-agent report, present when `capture_events` was set
    /// and at least one agent returned its span log.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub run_report: Option<RunReport>,
    /// The merged, epoch-rebased event stream behind `run_report` (not
    /// serialized into the report JSON; write it as JSONL separately).
    #[serde(skip_serializing)]
    pub events: Vec<TelemetryEvent>,
    /// Build provenance of the coordinator binary that merged this run.
    pub build: faasrail_telemetry::BuildInfo,
    /// The console history ring's contents at drain — the bounded,
    /// windowed fleet timeline (same `FleetSample`s `/state` served
    /// live), persisted so the trajectory survives the run for post-hoc
    /// analysis.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub console_history: Option<Vec<FleetSample>>,
}

/// A bound fleet coordinator, ready to accept agents.
pub struct Coordinator {
    listener: TcpListener,
    console: Option<ConsoleServer>,
}

impl Coordinator {
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Coordinator> {
        Ok(Coordinator { listener: TcpListener::bind(addr)?, console: None })
    }

    /// The bound address — hand this to agents (`port 0` resolves here).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve the HTTP ops console (`/state`, `/metrics`, `/healthz`,
    /// `/dashboard`) on `addr` for the duration of [`Coordinator::run`].
    /// It is bound here, so its address (e.g. `port 0`) is known before the
    /// run blocks.
    pub fn with_console<A: ToSocketAddrs>(mut self, addr: A) -> io::Result<Coordinator> {
        self.console = Some(ConsoleServer::bind(addr)?);
        Ok(self)
    }

    /// The console's bound address, when one was bound via `with_console`.
    pub fn console_addr(&self) -> Option<SocketAddr> {
        self.console.as_ref().and_then(|c| c.local_addr().ok())
    }

    /// Run one fleet replay to completion and merge the results.
    ///
    /// Blocks accepting `cfg.agents` connections, handshakes each
    /// (version check → clock probes → shard assignment), fires the
    /// synchronized start, then runs the control plane — collecting
    /// progress, resharding dead agents' remainders, admitting rejoins —
    /// until every offered invocation is accounted for. Setting `stop`
    /// aborts cooperatively: agents drain in-flight work, report their
    /// prefix, and the remainder books as aborted.
    pub fn run(
        &self,
        trace: &RequestTrace,
        pool: &WorkloadPool,
        cfg: &FleetConfig,
        stop: &AtomicBool,
    ) -> io::Result<FleetReport> {
        assert!(cfg.agents > 0, "a fleet needs at least one agent");
        let shards = cfg.agents as u32;
        let run_token = format!("fleet-{:x}", wall_clock_us());

        // The ops console, if one was bound, serves from before the first
        // handshake to the merge. One history windows the merged progress
        // for it and for `--live` alike, console or not.
        let console_run = self.console.as_ref().map(ConsoleServer::start).transpose()?;
        let history = match &self.console {
            Some(c) => c.history(),
            None => Arc::new(History::new(DEFAULT_HISTORY_CAPACITY)),
        };

        // Phase 1: accept + handshake each agent, one after the other: a
        // synchronized start makes staggered handshakes harmless.
        let mut initial = Vec::with_capacity(cfg.agents);
        for shard in 0..shards {
            let (stream, peer) = self.listener.accept()?;
            let token = format!("{run_token}-{shard}");
            initial.push(handshake(stream, peer, shard, trace, pool, cfg, token).map_err(|e| {
                io::Error::new(e.kind(), format!("handshake with shard {shard}: {e}"))
            })?);
        }

        // Phase 2: one epoch, rebased per agent onto its own clock.
        let epoch_us = wall_clock_us() + cfg.start_delay_ms * 1_000;
        let epoch_at = Instant::now() + Duration::from_millis(cfg.start_delay_ms);
        for agent in &mut initial {
            start(agent, epoch_us)?;
        }

        // Phase 3: the control plane. Readers and the admission thread
        // feed one channel; this thread owns the core and the write halves.
        let mut control = Control::new(trace, pool, cfg, epoch_us);
        let mut writers: BTreeMap<u32, TcpStream> = BTreeMap::new();
        let run_over = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<Arrival>();

        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for (shard, agent) in (0..shards).zip(initial) {
                enlist(scope, &tx, shard, agent);
            }

            // Admission: rejoins and late joiners become spare capacity (an
            // empty assignment, a `Start` at the past epoch). It owns the
            // last sender besides the readers': the channel disconnects
            // once it and they are gone.
            let (listener, run_over) = (&self.listener, &run_over);
            scope.spawn(move || {
                let mut next_shard = shards;
                while !run_over.load(Ordering::Acquire) {
                    let Ok((stream, peer)) = listener.accept() else {
                        std::thread::sleep(POLL);
                        continue;
                    };
                    let shard = next_shard;
                    next_shard += 1;
                    let token = format!("fleet-spare-{:x}-{shard}", wall_clock_us());
                    let admitted = handshake(stream, peer, shard, trace, pool, cfg, token)
                        .and_then(|mut agent| start(&mut agent, epoch_us).map(|()| agent));
                    match admitted {
                        Ok(agent) => enlist(scope, &tx, shard, agent),
                        Err(e) => {
                            let (peer, error) = (peer.to_string(), e.to_string());
                            tx.send((Event::AdmissionFailed { peer, error }, None)).ok();
                        }
                    }
                }
            });

            let window = Duration::from_millis(cfg.progress_every_ms.max(100));
            let since_epoch = || Instant::now().saturating_duration_since(epoch_at);
            let mut next_publish = Instant::now() + window;
            let mut outbox: VecDeque<Outbound> = VecDeque::new();
            loop {
                let wait = POLL.min(next_publish.saturating_duration_since(Instant::now()));
                match rx.recv_timeout(wait) {
                    Ok((event, stream)) => {
                        if let (Event::Joined { shard, .. }, Some(stream)) = (&event, stream) {
                            writers.insert(*shard, stream);
                        }
                        outbox.extend(control.handle(wall_clock_us(), event));
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                if stop.load(Ordering::Relaxed) {
                    outbox.extend(control.handle(wall_clock_us(), Event::Stop));
                }
                while let Some((shard, msg)) = outbox.pop_front() {
                    let stream = writers.get_mut(&shard).expect("only joined shards are addressed");
                    if let Err(loss) = send(stream, &msg) {
                        let failed = Event::SendFailed { shard, loss };
                        outbox.extend(control.handle(wall_clock_us(), failed));
                    }
                }
                if Instant::now() >= next_publish {
                    next_publish = Instant::now() + window;
                    // `--live` prints the window it just published: the
                    // line, `/state` and `fleet top` read one sample.
                    let sample = publish(&history, &control, since_epoch());
                    if cfg.live {
                        let lag = sample.agents.iter().map(|a| a.lag_ms).max().unwrap_or(0);
                        let at_s = sample.at_ms as f64 / 1e3;
                        let (agents, line) = (sample.agents.len(), sample.window.summary());
                        eprintln!("[fleet {agents} agents, lag {lag}ms] t={at_s:.0}s {line}");
                    }
                }
                if control.is_over() {
                    run_over.store(true, Ordering::Release);
                }
            }

            // One terminal sample so consumers that poll after the last
            // window still see final lease states and the complete timeline.
            publish(&history, &control, since_epoch());
        });
        self.listener.set_nonblocking(false).ok();
        if let Some(run) = console_run {
            run.stop();
        }

        let mut report = control.into_report();
        // The bounded console timeline outlives the console in the report.
        report.console_history = self.console.as_ref().map(|_| history.samples());
        Ok(report)
    }
}

/// What the reader and admission threads push at the main thread: an
/// event and, with a `Joined`, the agent's write half. The main thread
/// stamps it when it acts on it, which is when a grant it causes is issued.
type Arrival = (Event, Option<TcpStream>);

/// A connection that completed its handshake.
struct Handshaken {
    name: String,
    clock: ClockOffset,
    rejoined: bool,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One console sample (cumulative snapshot, agent rows, timeline) `at`
/// after the epoch; returns it.
fn publish(history: &History, control: &Control<'_>, at: Duration) -> FleetSample {
    let (reassignments, abort_reasons) = control.timeline();
    history.set_timeline(reassignments.to_vec(), abort_reasons.to_vec());
    history.publish(at.as_millis() as u64, &control.merged_progress(), control.agent_states())
}

/// Convert a coordinator-clock instant to the agent's clock using the
/// measured agent-minus-coordinator offset.
fn rebase(coordinator_us: u64, offset_us: f64) -> u64 {
    let shifted = coordinator_us as i64 + offset_us.round() as i64;
    shifted.max(0) as u64
}

fn proto_err(what: &str, got: &FleetMessage) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("expected {what}, got {got:?}"))
}

/// Hello → version check → HelloAck → probes → Assign → Ready on a fresh
/// agent connection, under `cfg.agent_timeout`; the stream leaves armed
/// with the lease.
fn handshake(
    stream: TcpStream,
    peer: SocketAddr,
    shard: u32,
    trace: &RequestTrace,
    pool: &WorkloadPool,
    cfg: &FleetConfig,
    token: String,
) -> io::Result<Handshaken> {
    stream.set_nodelay(true).ok();
    arm(&stream, cfg.agent_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);

    let mut recv = || {
        let eof = || io::Error::new(io::ErrorKind::UnexpectedEof, "agent hung up");
        read_frame(&mut reader)?.ok_or_else(eof)
    };
    let (name, rejoined) = match recv()? {
        FleetMessage::Hello { name, proto, resume_token, .. } => {
            let proto = crate::wire::effective_proto(proto);
            if proto != PROTOCOL_VERSION {
                let reason = format!(
                    "protocol version mismatch: coordinator v{PROTOCOL_VERSION}, agent v{proto}"
                );
                // Best effort: the handshake fails with `reason` either way.
                write_frame(&mut writer, &FleetMessage::Abort { reason: reason.clone() }).ok();
                return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
            }
            let name = if name.is_empty() { format!("agent@{peer}") } else { name };
            (name, resume_token.is_some())
        }
        other => return Err(proto_err("hello", &other)),
    };
    write_frame(
        &mut writer,
        &FleetMessage::HelloAck { proto: PROTOCOL_VERSION, token, lease_ms: cfg.lease_ms },
    )?;

    let mut samples = Vec::with_capacity(cfg.probes as usize);
    for seq in 0..cfg.probes {
        let send_us = wall_clock_us();
        write_frame(&mut writer, &FleetMessage::Probe { seq, wall_us: send_us })?;
        match recv()? {
            FleetMessage::ProbeReply { seq: got, agent_wall_us: at, .. } if got == seq => {
                samples.push((send_us, wall_clock_us(), at, at));
            }
            other => return Err(proto_err("probe reply", &other)),
        }
    }
    // A reply seen before its probe left is a clock step mid-exchange.
    let clock = midpoint_offset(samples.into_iter().filter(|&(send, recv, ..)| recv >= send));

    let shard_trace = Control::assignment(trace, shard, cfg.agents as u32);
    let assigned = shard_trace.requests.len() as u64;
    let assignment = Assignment {
        shard,
        shards: cfg.agents as u32,
        pacing: cfg.pacing,
        workers: cfg.workers,
        capture_events: cfg.capture_events,
        progress_every_ms: cfg.progress_every_ms,
        target: cfg.target.clone(),
        trace: shard_trace,
        pool: pool.clone(),
        event_capacity: trace.requests.len() as u64 + 64,
    };
    write_frame(&mut writer, &FleetMessage::Assign { assignment })?;
    match recv()? {
        FleetMessage::Ready { shard: got, requests } if (got, requests) == (shard, assigned) => {}
        other => {
            return Err(proto_err(&format!("shard {shard} ready for {assigned} requests"), &other))
        }
    }

    arm(&stream, Duration::from_millis(cfg.lease_ms.max(100)))?;
    Ok(Handshaken { name, clock, rejoined, stream, reader })
}

/// Send `Start` at the fleet epoch, rebased onto the agent's own clock.
fn start(agent: &mut Handshaken, epoch_us: u64) -> io::Result<()> {
    let at_agent_wall_us = rebase(epoch_us, agent.clock.offset_us);
    write_frame(&mut agent.stream, &FleetMessage::Start { at_agent_wall_us })
}

/// Hand a started agent (its write half rides the `Joined` event) to the
/// main thread, then start its reader: the join precedes its first frame.
fn enlist<'scope>(
    scope: &'scope Scope<'scope, '_>,
    tx: &Sender<Arrival>,
    shard: u32,
    agent: Handshaken,
) {
    let Handshaken { name, clock, rejoined, stream, reader } = agent;
    let joined = Event::Joined { shard, name, clock, rejoined };
    if tx.send((joined, Some(stream))).is_err() {
        return;
    }
    // Forward its frames until `Done`, `Abort` or a loss; the lease is the
    // socket's read timeout (timeout = stall, EOF/reset = crash).
    let tx = tx.clone();
    scope.spawn(move || {
        read_link(reader, |got| {
            let event = match got {
                Ok(msg) => Event::Frame { shard, msg },
                Err(loss) => Event::Lost { shard, loss },
            };
            let last = matches!(
                event,
                Event::Lost { .. }
                    | Event::Frame {
                        msg: FleetMessage::Done { .. } | FleetMessage::Abort { .. },
                        ..
                    }
            );
            tx.send((event, None)).is_ok() && !last
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Grant, Loss};
    use faasrail_core::Request;
    use faasrail_workloads::{CostModel, WorkloadId};

    #[test]
    fn rebase_applies_offset_and_clamps() {
        assert_eq!(rebase(1_000_000, 250.0), 1_000_250);
        assert_eq!(rebase(1_000_000, -250.4), 999_750);
        assert_eq!(rebase(100, -1e9), 0, "pathological offsets clamp instead of wrapping");
    }

    /// A handshaken peer that never reads (SIGSTOP, a full receive buffer)
    /// costs one lease, not the run: the send that finds its buffers full
    /// times out, shuts the stream down and is booked as a stall.
    #[test]
    fn a_peer_that_never_reads_fails_the_send_within_the_lease() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _wedged = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let lease = Duration::from_millis(300);
        arm(&stream, lease).unwrap();

        let trace = RequestTrace {
            duration_minutes: 1,
            requests: (0..20_000)
                .map(|i| Request { at_ms: i, workload: WorkloadId(0), function_index: i as u32 })
                .collect(),
        };
        let grant = Grant { id: 1 << 32, origin_shard: 0, elapsed_ms: 0, trace: trace.clone() };
        let msg = FleetMessage::Reassign { grant };
        let mut delivered = 0;
        let loss = loop {
            let began = Instant::now();
            match send(&mut stream, &msg) {
                Ok(()) => delivered += 1,
                Err(loss) => {
                    // A write that timed out half way returns short; the
                    // retry then times out with nothing written.
                    assert!(began.elapsed() < 3 * lease, "{:?}", began.elapsed());
                    break loss;
                }
            }
            assert!(delivered < 1_000, "the peer's buffers never filled");
        };
        assert_eq!(loss, Loss::Stall, "a timed-out write is a stall");
        let mut rest = Vec::new();
        let eof = io::Read::read_to_end(&mut stream, &mut rest);
        assert_eq!(eof.ok(), Some(0), "the stream is shut down: its reader sees the loss too");

        let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
        let cfg = FleetConfig { agents: 2, ..FleetConfig::default() };
        let mut control = Control::new(&trace, &pool, &cfg, 0);
        for shard in 0..2 {
            let clock = ClockOffset::default();
            control.handle(0, Event::Joined { shard, name: String::new(), clock, rejoined: false });
        }
        control.handle(1, Event::SendFailed { shard: 1, loss });
        assert_eq!(control.agent_states()[1].status, "stall");
    }
}
