//! The fleet agent: the socket, threads and clock around the session core.
//!
//! What an agent *decides* — handshake order, the works it holds, what a
//! `Progress` carries, when it stops, how a session ends, what a lost link
//! costs — is [`session`](crate::session), stated once and free of IO. This
//! file dials the coordinator, turns what the socket, the replays and the
//! clock do into [`Event`]s and carries out the [`Action`]s returned; a
//! session that ends `Lost` rejoins, backing off, with the `HelloAck` token.
//!
//! **One owner.** The calling thread owns the [`Session`], the write half
//! and the [`PrefixTracker`]s. A reader thread forwards frames and the loss
//! that ends them; each work is one thread around the single replay call,
//! sending its [`RunMetrics`] back. All feed one channel, and the loop
//! waits on it until the wake the core asked for (the start instant, then
//! the progress cadence): nothing polls. The link's timeout, both ways, is
//! the lease `HelloAck` advertised: a coordinator that stops reading fails
//! the send inside it, a loss like any other; its silence is not one.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use faasrail_loadgen::{
    replay_resumed, Backend, PaceGauge, ReplayConfig, ReplayInstruments, ResumeSpec, RunMetrics,
};
use faasrail_telemetry::{EventSink, OutcomeClass, Recorder, RingSink, TelemetryEvent};

use crate::session::{Action, Event, Session, SessionEnd, Work};
use crate::wire::{
    arm, read_link, send, wall_clock_us, Assignment, FleetMessage, Loss, WorkPrefix,
};

/// Agent-side knobs (everything else arrives in the [`Assignment`]).
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Name reported in `Hello` (shows up in the coordinator's report).
    pub name: String,
    /// Connection attempts before giving up — agents usually start
    /// before (or racing) the coordinator.
    pub connect_attempts: u32,
    pub retry_delay: Duration,
    /// Reconnect after a lost coordinator link mid-run. Disable to get
    /// the pre-elastic behavior: a lost link fails the agent.
    pub rejoin: bool,
    /// Cap on the exponential rejoin backoff (which starts at
    /// `retry_delay` and doubles per attempt).
    pub max_rejoin_backoff: Duration,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            name: String::new(),
            connect_attempts: 40,
            retry_delay: Duration::from_millis(250),
            rejoin: true,
            max_rejoin_backoff: Duration::from_secs(5),
        }
    }
}

/// What one agent run produced (the same data the coordinator received).
#[derive(Debug)]
pub struct AgentRun {
    pub shard: u32,
    pub assigned: u64,
    /// Reassignment grants this agent served on top of its own shard.
    pub granted: u64,
    /// Times the agent lost the coordinator link and rejoined.
    pub rejoined: u32,
    pub metrics: RunMetrics,
}

/// Contiguous-completion tracker for one work item, interposed as the
/// replay's [`EventSink`].
///
/// Invocation spans carry their dispatch sequence number (`seq` equals
/// the request's index in the work's trace, because the pacer dispatches
/// in order); the tracker advances a watermark over the *contiguous*
/// finished prefix, buffering out-of-order completions until the gap
/// closes, and counts outcomes within the prefix. The resulting
/// [`WorkPrefix`] is what `Progress` ships to the coordinator — exactly
/// the state resharding needs if this agent dies.
///
/// Optionally forwards spans to a shared [`RingSink`] (span capture),
/// shifting grant-replay timestamps onto the agent's main run timeline so
/// one `run_start_wall_us` rebases the whole log.
pub struct PrefixTracker {
    work: u64,
    /// Added to span timestamps before forwarding (grant replays start
    /// later than the main run but share its event log).
    shift_us: u64,
    /// Forward `run_start`/`run_end` lifecycle events too (main work
    /// only — grant replays would duplicate them in the shared log).
    forward_lifecycle: bool,
    capture: Option<Arc<RingSink>>,
    state: Mutex<PrefixState>,
}

#[derive(Default)]
struct PrefixState {
    watermark: u64,
    completed: u64,
    errors: [u64; 4],
    cold_starts: u64,
    /// Finished out of order, waiting for the gap below them to close.
    pending: BTreeMap<u64, (OutcomeClass, bool)>,
}

impl PrefixState {
    fn apply(&mut self, outcome: OutcomeClass, cold: bool) {
        match outcome.error_index() {
            None => self.completed += 1,
            Some(i) => self.errors[i] += 1,
        }
        if cold {
            self.cold_starts += 1;
        }
        self.watermark += 1;
    }

    fn observe(&mut self, seq: u64, outcome: OutcomeClass, cold: bool) {
        if seq == self.watermark {
            self.apply(outcome, cold);
            while let Some(&(o, c)) = self.pending.get(&self.watermark) {
                self.pending.remove(&self.watermark);
                self.apply(o, c);
            }
        } else if seq > self.watermark {
            self.pending.insert(seq, (outcome, cold));
        }
        // seq < watermark would be a duplicate span; ignore.
    }
}

impl PrefixTracker {
    pub fn new(
        work: u64,
        shift_us: u64,
        forward_lifecycle: bool,
        capture: Option<Arc<RingSink>>,
    ) -> Self {
        PrefixTracker {
            work,
            shift_us,
            forward_lifecycle,
            capture,
            state: Mutex::new(PrefixState::default()),
        }
    }

    /// Current cumulative prefix, for a `Progress` frame.
    pub fn prefix(&self) -> WorkPrefix {
        let st = self.state.lock().unwrap();
        WorkPrefix {
            work: self.work,
            watermark: st.watermark,
            completed: st.completed,
            errors: st.errors,
            cold_starts: st.cold_starts,
        }
    }
}

impl EventSink for PrefixTracker {
    fn emit(&self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::Invocation(span) => {
                self.state.lock().unwrap().observe(span.seq, span.outcome, span.cold_start);
                if let Some(ring) = &self.capture {
                    if self.shift_us == 0 {
                        ring.emit(event);
                    } else {
                        let mut s = span.clone();
                        s.target_us += self.shift_us;
                        s.dispatched_us += self.shift_us;
                        s.picked_up_us += self.shift_us;
                        s.completed_us += self.shift_us;
                        ring.emit(&TelemetryEvent::Invocation(s));
                    }
                }
            }
            other => {
                if self.forward_lifecycle {
                    if let Some(ring) = &self.capture {
                        ring.emit(other);
                    }
                }
            }
        }
    }
}

/// Dial the coordinator and serve one shard (plus whatever is granted
/// mid-run) on a caller-chosen backend, constructed once per session when
/// the assignment (and thus the `target`) is known. A backend that fails
/// to construct fails the agent *before* it acknowledges `Ready`, so the
/// coordinator sees a handshake error instead of a shard lost mid-run.
///
/// Returns `Ok(None)` if the coordinator aborted the run before start.
/// A lost link mid-run rejoins with bounded exponential backoff (unless
/// [`AgentConfig::rejoin`] is off) — the rejoined session presents the
/// coordinator-issued resume token and serves whatever the control plane
/// reassigns next.
pub fn run_agent_with<A, F>(
    addr: A,
    cfg: &AgentConfig,
    make_backend: F,
) -> io::Result<Option<AgentRun>>
where
    A: ToSocketAddrs + Clone,
    F: Fn(&Assignment) -> io::Result<Arc<dyn Backend>>,
{
    let mut token: Option<String> = None;
    let mut backoff = cfg.retry_delay.max(Duration::from_millis(10));
    let mut rejoined = 0u32;
    loop {
        match run_session(addr.clone(), cfg, &make_backend, token.take())? {
            SessionEnd::Finished(run) => return Ok(Some(AgentRun { rejoined, ..run })),
            SessionEnd::AbortedBeforeStart => return Ok(None),
            SessionEnd::Failed(e) => return Err(e),
            SessionEnd::Lost { .. } if !cfg.rejoin => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "coordinator link lost mid-run (rejoin disabled)",
                ));
            }
            SessionEnd::Lost { token: t } => {
                token = t;
                rejoined += 1;
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2).min(cfg.max_rejoin_backoff);
            }
        }
    }
}

/// What every replay of one session shares.
struct Run {
    assignment: Assignment,
    backend: Arc<dyn Backend>,
    cfg: ReplayConfig,
    recorder: Recorder,
    gauge: PaceGauge,
    ring: Option<Arc<RingSink>>,
    stop: AtomicBool,
}

impl Run {
    fn new(backend: Arc<dyn Backend>, assignment: Assignment) -> Run {
        let cfg = ReplayConfig { pacing: assignment.pacing, workers: assignment.workers.max(1) };
        let own = assignment.trace.requests.len() as u64;
        let ring = assignment.capture_events.then(|| {
            Arc::new(RingSink::with_capacity(assignment.event_capacity.max(own + 16) as usize))
        });
        let recorder = Recorder::new(cfg.workers + 1);
        let (gauge, stop) = (PaceGauge::new(), AtomicBool::new(false));
        Run { assignment, backend, cfg, recorder, gauge, ring, stop }
    }

    /// One work, start to finish: the one place a replay is started.
    fn replay(&self, work: &Work, tracker: &PrefixTracker) -> RunMetrics {
        let inst = ReplayInstruments {
            sink: tracker,
            recorder: Some(&self.recorder),
            pace: Some(&self.gauge),
        };
        let trace = work.trace.as_ref().unwrap_or(&self.assignment.trace);
        let resume = ResumeSpec { elapsed_ms: work.elapsed_ms };
        let (pool, backend) = (&self.assignment.pool, &self.backend);
        replay_resumed(trace, pool, backend, &self.cfg, &self.stop, &inst, &resume)
    }
}

/// One full coordinator session: connect, then carry out the core's
/// actions in order and wait for the next event or the wake it asked for,
/// whichever is first, until it says how the session ended.
fn run_session<A, F>(
    addr: A,
    cfg: &AgentConfig,
    make_backend: &F,
    resume_token: Option<String>,
) -> io::Result<SessionEnd>
where
    A: ToSocketAddrs + Clone,
    F: Fn(&Assignment) -> io::Result<Arc<dyn Backend>>,
{
    let mut stream = connect_with_retry(addr, cfg)?;
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone()?);
    let (tx, rx) = mpsc::channel::<Event>();
    let (mut session, hello) = Session::new(wall_clock_us(), cfg.name.clone(), resume_token);
    let mut todo = VecDeque::from([hello]);
    let mut run: Option<Arc<Run>> = None;
    let mut trackers: Vec<Arc<PrefixTracker>> = Vec::new();
    let mut wake: Option<u64> = None;

    std::thread::scope(|scope| {
        let frames = tx.clone();
        scope.spawn(move || {
            read_link(reader, |got| match got {
                Ok(msg) => frames.send(Event::Frame(msg)).is_ok(),
                Err(Loss::Stall) => true, // the coordinator owes the agent no heartbeat
                Err(_) => {
                    frames.send(Event::Lost).ok();
                    false
                }
            })
        });
        let end = 'session: loop {
            while let Some(action) = todo.pop_front() {
                match action {
                    Action::Send(mut msg) => {
                        if let (FleetMessage::Done { events, .. }, Some(run)) = (&mut msg, &run) {
                            *events = run.ring.as_ref().map(|r| r.events()).unwrap_or_default();
                        }
                        if send(&mut stream, &msg).is_err() {
                            todo.extend(session.handle(wall_clock_us(), Event::Lost));
                        }
                    }
                    Action::Lease(ms) => {
                        if let Err(e) = arm(&stream, Duration::from_millis(ms.max(100))) {
                            break 'session SessionEnd::Failed(e);
                        }
                    }
                    Action::Prepare(assignment) => match make_backend(&assignment) {
                        Ok(backend) => run = Some(Arc::new(Run::new(backend, assignment))),
                        Err(e) => break 'session SessionEnd::Failed(e),
                    },
                    Action::WakeAt(at) => wake = Some(at),
                    Action::Spawn(work) => {
                        let run = Arc::clone(run.as_ref().expect("prepared before any work"));
                        let (id, shift_us, ring) = (work.id, work.shift_us, run.ring.clone());
                        let tracker =
                            Arc::new(PrefixTracker::new(id, shift_us, work.lifecycle, ring));
                        trackers.push(Arc::clone(&tracker));
                        let tx = tx.clone();
                        scope.spawn(move || {
                            let metrics = run.replay(&work, &tracker);
                            tx.send(Event::WorkDone { work: id, metrics }).ok();
                        });
                    }
                    Action::StopReplays => {
                        if let Some(run) = &run {
                            run.stop.store(true, Ordering::Release);
                        }
                    }
                    Action::End(end) => break 'session end,
                }
            }
            let now = wall_clock_us();
            let event = match (wake, &run) {
                (Some(due), Some(run)) if due <= now => {
                    wake = None;
                    Event::Tick {
                        snapshot: run.recorder.snapshot(),
                        prefixes: trackers.iter().map(|t| t.prefix()).collect(),
                        lag: (run.gauge.lag_ms(), run.gauge.max_lag_ms()),
                    }
                }
                (Some(due), _) => {
                    match rx.recv_timeout(Duration::from_micros(due.saturating_sub(now))) {
                        Ok(event) => event,
                        Err(_) => continue,
                    }
                }
                (None, _) => rx.recv().expect("this thread holds a sender"),
            };
            todo.extend(session.handle(wall_clock_us(), event));
        };
        // Whatever the end, the reader must see one too.
        stream.shutdown(Shutdown::Both).ok();
        Ok(end)
    })
}

fn connect_with_retry<A: ToSocketAddrs + Clone>(
    addr: A,
    cfg: &AgentConfig,
) -> io::Result<TcpStream> {
    let attempts = cfg.connect_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        match TcpStream::connect(addr.clone()) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
        if attempt + 1 < attempts {
            std::thread::sleep(cfg.retry_delay);
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no connect attempts")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, Grant, PROTOCOL_VERSION};
    use faasrail_core::{Request, RequestTrace};
    use faasrail_loadgen::{NoopBackend, Pacing};
    use faasrail_telemetry::InvocationSpan;
    use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn connect_retry_reports_last_error() {
        // Port 1 on localhost: reliably refused.
        let cfg = AgentConfig {
            connect_attempts: 2,
            retry_delay: Duration::from_millis(1),
            ..AgentConfig::default()
        };
        assert!(connect_with_retry("127.0.0.1:1", &cfg).is_err());
    }

    /// A scripted coordinator: the test decides what the link does.
    struct Script(TcpListener);

    type Link = (BufReader<TcpStream>, TcpStream);

    impl Script {
        fn bind() -> (Script, std::net::SocketAddr) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            (Script(listener), addr)
        }

        /// Accept the agent's next connection (inside ten seconds) and admit
        /// it through `Start`, `start_in` from now; returns the resume token
        /// its `Hello` presented.
        fn admit(
            &self,
            token: &str,
            lease_ms: u64,
            assignment: Assignment,
            start_in: Duration,
        ) -> (Option<String>, Link) {
            let deadline = Instant::now() + Duration::from_secs(10);
            let stream = loop {
                match self.0.accept() {
                    Ok((stream, _)) => break stream,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    Err(e) => panic!("the agent never dialled in: {e}"),
                }
            };
            stream.set_nonblocking(false).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let Some(FleetMessage::Hello { resume_token, .. }) = read_frame(&mut reader).unwrap()
            else {
                panic!("expected hello")
            };
            let requests = assignment.trace.requests.len() as u64;
            let ack =
                FleetMessage::HelloAck { proto: PROTOCOL_VERSION, token: token.into(), lease_ms };
            write_frame(&mut writer, &ack).unwrap();
            write_frame(&mut writer, &FleetMessage::Assign { assignment }).unwrap();
            match read_frame(&mut reader).unwrap() {
                Some(FleetMessage::Ready { requests: got, .. }) if got == requests => {}
                other => panic!("expected ready for {requests}, got {other:?}"),
            }
            let at_agent_wall_us = wall_clock_us() + start_in.as_micros() as u64;
            write_frame(&mut writer, &FleetMessage::Start { at_agent_wall_us }).unwrap();
            (resume_token, (reader, writer))
        }

        /// Admit with nothing to do, say `Finish`, and read to `Done`.
        fn admit_spare_and_finish(&self, token: &str) -> Option<String> {
            let (resumed, (mut reader, mut writer)) =
                self.admit(token, 5_000, assignment(0, 1, Pacing::Unpaced, false), Duration::ZERO);
            write_frame(&mut writer, &FleetMessage::Finish).unwrap();
            read_to_done(&mut reader);
            resumed
        }
    }

    fn read_to_done(reader: &mut BufReader<TcpStream>) -> RunMetrics {
        loop {
            match read_frame(reader).unwrap().expect("done before eof") {
                FleetMessage::Done { metrics, .. } => return metrics,
                FleetMessage::Progress { .. } | FleetMessage::ReassignAck { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    /// `n` requests `gap_ms` apart.
    fn assignment(n: u64, gap_ms: u64, pacing: Pacing, capture_events: bool) -> Assignment {
        let request = |i| Request { at_ms: i * gap_ms, workload: WorkloadId(0), function_index: 4 };
        Assignment {
            shard: 0,
            shards: 1,
            pacing,
            workers: 2,
            capture_events,
            progress_every_ms: 50,
            target: None,
            trace: RequestTrace { duration_minutes: 1, requests: (0..n).map(request).collect() },
            pool: WorkloadPool::vanilla(&CostModel::default_calibration()),
            event_capacity: 0,
        }
    }

    /// The agent under test, on a thread of its own so that a wedged one
    /// fails the test instead of hanging it.
    fn agent(addr: std::net::SocketAddr) -> std::thread::JoinHandle<io::Result<Option<AgentRun>>> {
        let cfg = AgentConfig {
            name: "under-test".into(),
            retry_delay: Duration::from_millis(50),
            max_rejoin_backoff: Duration::from_millis(200),
            ..AgentConfig::default()
        };
        std::thread::spawn(move || {
            run_agent_with(addr, &cfg, |_| Ok(Arc::new(NoopBackend) as Arc<dyn Backend>))
        })
    }

    /// A link that dies between a `Reassign` and its ack used to fail the
    /// agent, and only after its unstopped replays had run out the shard.
    /// The coordinator closes on unread `Progress` frames, so the reset
    /// rides right behind the grant and the ack's write finds it.
    #[test]
    fn a_link_lost_under_the_reassign_ack_stops_the_replays_and_rejoins() {
        let (script, addr) = Script::bind();
        let agent = agent(addr);
        let paced = Pacing::RealTime { compression: 1.0 };
        let six_seconds = assignment(600, 10, paced, false);
        let (first, (reader, mut writer)) =
            script.admit("tok-1", 5_000, six_seconds, Duration::ZERO);
        assert_eq!(first, None);
        // Wait for a `Progress` to arrive, and leave it unread.
        assert_eq!(reader.get_ref().peek(&mut [0]).unwrap(), 1);
        let grant = Grant {
            id: 1 << 32,
            origin_shard: 7,
            elapsed_ms: 0,
            trace: assignment(3, 10, paced, false).trace,
        };
        write_frame(&mut writer, &FleetMessage::Reassign { grant }).unwrap();
        drop((reader, writer));
        let dropped = Instant::now();

        let resumed = script.admit_spare_and_finish("tok-2");
        assert_eq!(resumed.as_deref(), Some("tok-1"), "the rejoin presents the session token");
        assert!(
            dropped.elapsed() < Duration::from_secs(3),
            "the shard's replay was stopped, not run out"
        );
        let run = agent.join().unwrap().unwrap().expect("the rejoined session finishes");
        assert_eq!((run.rejoined, run.metrics.issued), (1, 0));
    }

    /// An `Abort` inside the armed window used to sit unread under the
    /// start wait: the replay started (and, unless the stop won a race with
    /// its first dispatch, issued) before the frame was seen.
    #[test]
    fn an_abort_before_the_start_instant_issues_nothing_and_still_delivers_done() {
        let (script, addr) = Script::bind();
        let agent = agent(addr);
        let shard = assignment(500, 0, Pacing::Unpaced, false);
        let start_in = Duration::from_millis(1_500);
        let (_, (mut reader, mut writer)) = script.admit("tok-1", 5_000, shard, start_in);
        let armed = Instant::now();
        write_frame(&mut writer, &FleetMessage::Abort { reason: "operator".into() }).unwrap();
        let done = read_to_done(&mut reader);
        assert!(armed.elapsed() < start_in / 2, "`Done` waited for the start instant");
        assert!(
            done.aborted && done.issued == 0,
            "issued {} before the abort was seen",
            done.issued
        );
        let run = agent.join().unwrap().unwrap().expect("an aborted run still reports");
        assert_eq!((run.assigned, run.metrics.issued, run.metrics.aborted), (500, 0, true));
    }

    /// The other direction of `a_peer_that_never_reads_fails_the_send_
    /// within_the_lease`: the agent used to drop `HelloAck.lease_ms` and set
    /// no write timeout, so a coordinator that stopped reading wedged it in
    /// a write for good. The span log makes `Done` outgrow the socket
    /// buffers; the send gives up inside the advertised lease and the
    /// agent comes back as fresh capacity.
    #[test]
    fn a_coordinator_that_stops_reading_costs_one_lease_not_the_agent() {
        let (script, addr) = Script::bind();
        let agent = agent(addr);
        let captured = assignment(40_000, 0, Pacing::Unpaced, true);
        let (_, (_reader, mut writer)) = script.admit("tok-1", 300, captured, Duration::ZERO);
        write_frame(&mut writer, &FleetMessage::Finish).unwrap();
        // ... and never read again: `_reader` stays open and idle.
        let resumed = script.admit_spare_and_finish("tok-2");
        assert_eq!(resumed.as_deref(), Some("tok-1"), "a timed-out send is a lost link: rejoin");
        let run = agent.join().unwrap().unwrap().expect("the rejoined session finishes");
        assert_eq!(run.rejoined, 1);
    }

    fn span(seq: u64, outcome: OutcomeClass, cold: bool) -> TelemetryEvent {
        TelemetryEvent::Invocation(InvocationSpan {
            trace_id: seq + 1,
            seq,
            workload: 0,
            function_index: 0,
            scheduled_ms: seq * 1_000,
            target_us: 10,
            dispatched_us: 20,
            picked_up_us: 30,
            completed_us: 40,
            service_ms: 1.0,
            outcome,
            cold_start: cold,
            error: None,
        })
    }

    #[test]
    fn prefix_tracker_advances_only_over_contiguous_completions() {
        let t = PrefixTracker::new(3, 0, false, None);
        t.emit(&span(0, OutcomeClass::Ok, true));
        t.emit(&span(2, OutcomeClass::Timeout, false)); // hole at 1
        let p = t.prefix();
        assert_eq!(p.work, 3);
        assert_eq!(p.watermark, 1, "seq 2 is beyond the hole");
        assert_eq!((p.completed, p.cold_starts), (1, 1));
        t.emit(&span(1, OutcomeClass::AppError, false)); // gap closes, 2 drains
        let p = t.prefix();
        assert_eq!(p.watermark, 3);
        assert_eq!(p.completed, 1);
        assert_eq!(p.errors, [1, 1, 0, 0]);
        assert!(p.is_consistent());
    }

    #[test]
    fn prefix_tracker_shifts_captured_spans() {
        let ring = Arc::new(RingSink::with_capacity(8));
        let t = PrefixTracker::new(0, 1_000, false, Some(Arc::clone(&ring)));
        t.emit(&span(0, OutcomeClass::Ok, false));
        match &ring.events()[0] {
            TelemetryEvent::Invocation(s) => {
                assert_eq!(s.target_us, 1_010);
                assert_eq!(s.dispatched_us, 1_020);
                assert_eq!(s.completed_us, 1_040);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn prefix_tracker_filters_lifecycle_for_grants() {
        let ring = Arc::new(RingSink::with_capacity(8));
        let grant = PrefixTracker::new(1, 0, false, Some(Arc::clone(&ring)));
        grant.emit(&TelemetryEvent::RunEnd(faasrail_telemetry::RunSummary {
            issued: 1,
            completed: 1,
            errors: 0,
            aborted: false,
            wall_us: 1,
        }));
        assert!(ring.is_empty(), "grant replays must not duplicate run_start/run_end");
    }
}
