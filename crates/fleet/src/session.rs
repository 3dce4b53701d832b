//! The fleet agent's session core: everything one agent decides between
//! dialing a coordinator and leaving it, stated once and free of IO.
//!
//! [`run_agent_with`](crate::run_agent_with) feeds the single-owner
//! [`Session`] [`Event`]s, each with the agent's wall clock when it is
//! acted on, and carries out the [`Action`]s returned, in order. No socket,
//! clock, lock or thread in here: the tests below run whole sessions in
//! virtual time, and `tests/common::impostor_handshake` is this core over a
//! socket, so an impostor speaks whatever the agent speaks.
//!
//! ```text
//! phase      event                  actions                          next
//! Greeting   (new)                  Send(Hello + resume token)
//!            HelloAck, same proto   Lease(lease_ms)                  Handshake
//! Handshake  Probe                  Send(ProbeReply)
//!            Assign (once)          Prepare(assignment), Send(Ready)
//!            Start (after Assign)   WakeAt(start instant)            Armed
//! Armed      Tick                   Spawn(shard), WakeAt(+cadence)   Running
//!            Reassign               held until the run starts
//! Running    Reassign               Send(ReassignAck), Spawn(grant)
//!            Tick                   Send(Progress), WakeAt(+cadence)
//!            Finish | Abort         - | StopReplays                  Draining
//! Draining   Tick, work running     Send(Progress), WakeAt(+cadence)
//!            last WorkDone          WakeAt(now)
//!            Tick, none running     Send(Progress idle), Send(Done)  Delivered
//! Delivered  Tick                   End(Finished)
//! Armed..    Lost                   StopReplays; End(Lost) once none runs
//! ```
//!
//! **Who owns what.** The core: the phase, the works running (spawned, not
//! yet reported), the grant count, the run's `t = 0` (`run_start_wall_us`,
//! the start tick; a grant's spans shift by its arrival minus that) and the
//! merged [`RunMetrics`]. The executor: the socket, its reader thread, one
//! thread per [`Work`], the instruments a `Tick` samples, the stop flag, and
//! the span log it fills into `Done`. A work is one record: the shard is
//! work `shard` (no resume offset, no shift, lifecycle events on), a grant
//! the same with its own values. `Finish` or `Abort` inside the armed window
//! starts the run first (`Abort`: already stopped, so nothing is issued), so
//! `Done.metrics` is always the merge of exactly the reports fed.
//!
//! **How a session ends.** `Finished`: `Done` was written (a whole run, or
//! an aborted one with its partial, `aborted`-marked metrics) and no loss
//! followed. `AbortedBeforeStart`: `Abort` during the handshake. `Lost`: the
//! link died (EOF, reset, a send that failed or outlasted the lease) at or
//! after `Start`; the replays stop, every work reports, nothing more is
//! sent, and the agent may rejoin with the `HelloAck` token as fresh
//! capacity. The coordinator resharded this session's work when it saw the
//! loss, so a lost link costs the unacked tail of each work run twice and
//! this session's latency histograms. `Failed` fails the agent: a protocol
//! violation, a refusal in place of `HelloAck`, a link lost before `Start`.

use std::collections::BTreeSet;
use std::io::{Error, ErrorKind};

use faasrail_core::RequestTrace;
use faasrail_loadgen::RunMetrics;
use faasrail_telemetry::Snapshot;

use crate::agent::AgentRun;
use crate::wire::{Assignment, FleetMessage as M, Grant, WorkPrefix, PROTOCOL_VERSION};

/// One thing that happened to the session, as the executor saw it. `Lost`:
/// EOF, reset, or a send that failed or timed out. `WorkDone`: that replay
/// ran down, finished or stopped. `Tick`: the instant of the last
/// [`Action::WakeAt`] came; what the instruments read, a prefix per work.
// `Frame` holds a whole `FleetMessage` (see the note on that enum).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Event {
    Frame(M),
    Lost,
    WorkDone { work: u64, metrics: RunMetrics },
    Tick { snapshot: Snapshot, prefixes: Vec<WorkPrefix>, lag: (u64, u64) },
}

/// One replay to run: what [`faasrail_loadgen::ResumeSpec`] and
/// [`PrefixTracker`](crate::PrefixTracker) need to know of it.
#[derive(Debug)]
pub struct Work {
    pub id: u64,
    /// A grant's remainder; `None` is the shard's own trace, which the
    /// executor holds since [`Action::Prepare`].
    pub trace: Option<RequestTrace>,
    pub elapsed_ms: u64,
    /// Added to span timestamps: this replay's start on the run timeline.
    pub shift_us: u64,
    /// Forward `run_start`/`run_end` to the span log (the shard only).
    pub lifecycle: bool,
}

/// `Send`: write the frame; a failed write comes back as [`Event::Lost`].
/// `Lease`: arm the link's timeouts with these milliseconds. `Prepare`:
/// build the backend and instruments; failing fails the agent before
/// `Ready`. `WakeAt`: feed a `Tick` at this wall-clock instant (the first is
/// the synchronized start); replaces any earlier wake. `Spawn`: start the
/// replay; its metrics come back as [`Event::WorkDone`].
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Action {
    Send(M),
    Lease(u64),
    Prepare(Assignment),
    WakeAt(u64),
    Spawn(Work),
    StopReplays,
    End(SessionEnd),
}

/// How a session ended; see the module docs.
// One per session, moved once: no `Box` around the run.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SessionEnd {
    Finished(AgentRun),
    AbortedBeforeStart,
    Lost { token: Option<String> },
    Failed(Error),
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
enum Phase {
    #[default]
    Greeting,
    Handshake,
    Armed,
    Running,
    Draining,
    Delivered,
    /// The link is gone; the stopped replays are still reporting.
    Severed,
    Ended,
}

/// One coordinator session's state. See the module docs for the contract.
#[derive(Default)]
pub struct Session {
    phase: Phase,
    /// This session's rejoin token, from `HelloAck`.
    token: Option<String>,
    shard: u32,
    /// Requests in the shard's own trace, once assigned.
    assigned: Option<u64>,
    cadence_us: u64,
    run_start_wall_us: u64,
    /// Grants that arrived inside the armed window.
    held: Vec<Grant>,
    /// Works spawned and not yet reported.
    running: BTreeSet<u64>,
    granted: u64,
    stopped: bool,
    metrics: RunMetrics,
}

impl Session {
    /// A session opened at wall-clock `at` by the agent `name`, and its
    /// first frame; `resume_token` is the previous session's on a rejoin.
    pub fn new(at: u64, name: String, resume_token: Option<String>) -> (Session, Action) {
        let hello = M::Hello { name, wall_us: at, proto: PROTOCOL_VERSION, resume_token };
        (Session::default(), Action::Send(hello))
    }

    /// Apply one event that happened at agent-wall-clock `at`
    /// (microseconds); returns what to do, in order.
    pub fn handle(&mut self, at: u64, event: Event) -> Vec<Action> {
        use {Event::*, Phase::*};
        let mut out = Vec::new();
        match (self.phase, event) {
            (Greeting, Frame(M::HelloAck { proto, token, lease_ms })) => {
                if proto != PROTOCOL_VERSION {
                    let why =
                        format!("coordinator speaks v{proto}, this agent v{PROTOCOL_VERSION}");
                    return self.fail(ErrorKind::InvalidData, why);
                }
                (self.token, self.phase) = (Some(token), Handshake);
                out.push(Action::Lease(lease_ms));
            }
            (Greeting, Frame(M::Abort { reason })) => {
                let why = format!("coordinator refused this agent: {reason}");
                return self.fail(ErrorKind::ConnectionRefused, why);
            }
            (Handshake, Frame(M::Probe { seq, wall_us })) => {
                out.push(Action::Send(M::ProbeReply { seq, wall_us, agent_wall_us: at }))
            }
            (Handshake, Frame(M::Assign { assignment: a })) if self.assigned.is_none() => {
                let requests = a.trace.requests.len() as u64;
                (self.shard, self.assigned) = (a.shard, Some(requests));
                self.cadence_us = a.progress_every_ms.max(50) * 1_000;
                out.push(Action::Prepare(a));
                out.push(Action::Send(M::Ready { shard: self.shard, requests }));
            }
            (Handshake, Frame(M::Start { at_agent_wall_us })) if self.assigned.is_some() => {
                out.push(Action::WakeAt(at_agent_wall_us));
                self.phase = Armed;
            }
            (Handshake, Frame(M::Abort { .. })) => return self.end(SessionEnd::AbortedBeforeStart),
            (Handshake, Frame(M::Assign { .. })) => return self.violation("double assign"),
            (Handshake, Frame(M::Start { .. })) => return self.violation("start before assign"),
            (Greeting | Handshake, Frame(_)) => return self.violation("unexpected frame"),
            (Greeting | Handshake, Lost) => {
                return self.fail(ErrorKind::UnexpectedEof, "coordinator hung up".into())
            }

            (Armed, Tick { .. }) => {
                self.start(at, &mut out);
                out.push(Action::WakeAt(at + self.cadence_us));
            }
            (Armed, Frame(M::Reassign { grant })) => self.held.push(grant),
            (Running, Frame(M::Reassign { grant })) => self.accept(at, grant, &mut out),
            (Armed | Running, Frame(msg @ (M::Finish | M::Abort { .. }))) => {
                if matches!(msg, M::Abort { .. }) {
                    self.stop(&mut out);
                }
                if self.phase == Armed {
                    self.start(at, &mut out);
                }
                self.phase = Draining;
                self.sample_if_drained(at, &mut out);
            }
            (Running | Draining, Tick { snapshot, prefixes, lag: (lag_ms, max_lag_ms) }) => {
                let (shard, idle) = (self.shard, self.running.is_empty());
                let progress = M::Progress { shard, snapshot, prefixes, lag_ms, max_lag_ms, idle };
                out.push(Action::Send(progress));
                if self.phase == Draining && idle {
                    // The executor attaches the span log. `Done` must land:
                    // the next event settles whether it did.
                    let (run_start_wall_us, metrics) =
                        (self.run_start_wall_us, self.metrics.clone());
                    let done = M::Done { shard, run_start_wall_us, metrics, events: Vec::new() };
                    out.extend([Action::Send(done), Action::WakeAt(at)]);
                    self.phase = Delivered;
                } else {
                    out.push(Action::WakeAt(at + self.cadence_us));
                }
            }
            (Delivered, Tick { .. }) => {
                let (shard, granted, assigned) =
                    (self.shard, self.granted, self.assigned.unwrap_or(0));
                let metrics = std::mem::take(&mut self.metrics);
                let run = AgentRun { shard, assigned, granted, rejoined: 0, metrics };
                return self.end(SessionEnd::Finished(run));
            }
            (Running | Draining | Severed, WorkDone { work, metrics }) => {
                assert!(self.running.remove(&work), "work {work} is not running");
                self.metrics.merge(&metrics);
                match self.phase {
                    Draining => self.sample_if_drained(at, &mut out),
                    Severed if self.running.is_empty() => return self.end_lost(out),
                    _ => {}
                }
            }
            (Armed | Running | Draining | Delivered, Lost) => {
                self.stop(&mut out);
                self.phase = Severed;
                if self.running.is_empty() {
                    return self.end_lost(out);
                }
            }
            _ => {} // stray frames; anything after the loss or the end
        }
        out
    }

    /// The run's `t = 0`: the shard's own replay, then what the armed
    /// window held back.
    fn start(&mut self, at: u64, out: &mut Vec<Action>) {
        (self.phase, self.run_start_wall_us) = (Phase::Running, at);
        let id = self.shard as u64;
        self.running.insert(id);
        out.push(Action::Spawn(Work {
            id,
            trace: None,
            elapsed_ms: 0,
            shift_us: 0,
            lifecycle: true,
        }));
        for grant in std::mem::take(&mut self.held) {
            self.accept(at, grant, out);
        }
    }

    fn accept(&mut self, at: u64, grant: Grant, out: &mut Vec<Action>) {
        let Grant { id, elapsed_ms, trace, .. } = grant;
        self.granted += 1;
        self.running.insert(id);
        let requests = trace.requests.len() as u64;
        out.push(Action::Send(M::ReassignAck { shard: self.shard, grant: id, requests }));
        let shift_us = at.saturating_sub(self.run_start_wall_us);
        out.push(Action::Spawn(Work {
            id,
            trace: Some(trace),
            elapsed_ms,
            shift_us,
            lifecycle: false,
        }));
    }

    fn stop(&mut self, out: &mut Vec<Action>) {
        if !std::mem::replace(&mut self.stopped, true) {
            out.push(Action::StopReplays);
        }
    }

    /// Draining and nothing left running: ask for the final sample now.
    fn sample_if_drained(&mut self, at: u64, out: &mut Vec<Action>) {
        if self.running.is_empty() {
            out.push(Action::WakeAt(at));
        }
    }

    fn end(&mut self, end: SessionEnd) -> Vec<Action> {
        self.phase = Phase::Ended;
        vec![Action::End(end)]
    }

    fn end_lost(&mut self, mut out: Vec<Action>) -> Vec<Action> {
        let token = self.token.take();
        out.extend(self.end(SessionEnd::Lost { token }));
        out
    }

    fn fail(&mut self, kind: ErrorKind, why: String) -> Vec<Action> {
        self.end(SessionEnd::Failed(Error::new(kind, why)))
    }

    fn violation(&mut self, why: &str) -> Vec<Action> {
        self.fail(ErrorKind::InvalidData, format!("handshake: {why}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_core::Request;
    use faasrail_loadgen::Pacing;
    use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
    use proptest::prelude::*;

    fn trace(n: u64) -> RequestTrace {
        let request = |i| Request { at_ms: i * 10, workload: WorkloadId(0), function_index: 4 };
        RequestTrace { duration_minutes: 1, requests: (0..n).map(request).collect() }
    }

    fn assign(shard: u32, n: u64) -> M {
        let assignment = Assignment {
            shard,
            shards: 4,
            pacing: Pacing::Unpaced,
            workers: 2,
            capture_events: false,
            progress_every_ms: 100,
            target: None,
            trace: trace(n),
            pool: WorkloadPool::vanilla(&CostModel::default_calibration()),
            event_capacity: 0,
        };
        M::Assign { assignment }
    }

    fn hello_ack(proto: u32) -> M {
        M::HelloAck { proto, token: "tok-1".into(), lease_ms: 5_000 }
    }

    fn grant(id: u64, n: u64) -> M {
        M::Reassign { grant: Grant { id, origin_shard: 9, elapsed_ms: 70, trace: trace(n) } }
    }

    fn abort() -> M {
        M::Abort { reason: "operator".into() }
    }

    fn report(issued: u64) -> RunMetrics {
        let mut m = RunMetrics::new();
        (0..issued).for_each(|i| m.record_issued(i * 10));
        m.completed = issued;
        m
    }

    /// One word per action, so a whole session reads as a list.
    fn label(action: &Action) -> String {
        match action {
            Action::Send(msg) => {
                let json = serde_json::to_string(msg).unwrap();
                let tag = json.split('"').nth(3).unwrap().to_string();
                match msg {
                    M::Progress { idle: true, .. } => format!("{tag}:idle"),
                    _ => tag,
                }
            }
            Action::Lease(ms) => format!("lease:{ms}"),
            Action::Prepare(a) => format!("prepare:{}", a.shard),
            Action::WakeAt(at) => format!("wake:{at}"),
            Action::Spawn(w) => format!("spawn:{}", w.id),
            Action::StopReplays => "stop".into(),
            Action::End(SessionEnd::Finished(_)) => "end:finished".into(),
            Action::End(SessionEnd::AbortedBeforeStart) => "end:aborted-before-start".into(),
            Action::End(SessionEnd::Lost { token }) => format!("end:lost:{}", token.is_some()),
            Action::End(SessionEnd::Failed(e)) => format!("end:failed:{:?}", e.kind()),
        }
    }

    /// A session in virtual time: the shipped core on one side; on the
    /// other the executor's half of the contract, checked on every action.
    struct Sim {
        session: Session,
        now: u64,
        wake: Option<u64>,
        spawned: Vec<u64>,
        running: Vec<u64>,
        reports: RunMetrics,
        sent: Vec<M>,
        stops: usize,
        ends: Vec<SessionEnd>,
        lost: bool,
    }

    impl Sim {
        fn new() -> Sim {
            Sim {
                session: Session::new(0, "sim".into(), None).0,
                now: 1_000_000,
                wake: None,
                spawned: Vec::new(),
                running: Vec::new(),
                reports: RunMetrics::new(),
                sent: Vec::new(),
                stops: 0,
                ends: Vec::new(),
                lost: false,
            }
        }

        /// Shard 3 with five requests, through `Start` at `at`.
        fn armed(at: u64) -> Sim {
            let mut sim = Sim::new();
            for msg in
                [hello_ack(PROTOCOL_VERSION), assign(3, 5), M::Start { at_agent_wall_us: at }]
            {
                sim.frame(msg);
            }
            assert_eq!(sim.wake, Some(at), "the first wake is the start instant");
            sim
        }

        /// Feed one event a millisecond after the last; returns the
        /// actions' labels.
        fn feed(&mut self, event: Event) -> Vec<String> {
            self.now += 1_000;
            self.lost |= matches!(event, Event::Lost);
            let actions = self.session.handle(self.now, event);
            let labels = actions.iter().map(label).collect();
            for action in actions {
                match action {
                    Action::Send(msg) => {
                        assert!(!self.lost, "sent {msg:?} after the link was lost");
                        if let M::Progress { idle, prefixes, .. } = &msg {
                            assert_eq!(
                                *idle,
                                self.running.is_empty(),
                                "idle means no work running"
                            );
                            assert_eq!(prefixes.len(), self.spawned.len(), "a prefix per work");
                        }
                        self.sent.push(msg);
                    }
                    Action::WakeAt(at) => self.wake = Some(at),
                    Action::Spawn(work) => {
                        self.spawned.push(work.id);
                        self.running.push(work.id);
                    }
                    Action::StopReplays => self.stops += 1,
                    Action::End(end) => {
                        assert!(self.running.is_empty(), "ended with {:?} running", self.running);
                        self.ends.push(end);
                    }
                    Action::Lease(_) | Action::Prepare(_) => {}
                }
            }
            labels
        }

        fn frame(&mut self, msg: M) -> Vec<String> {
            self.feed(Event::Frame(msg))
        }

        fn tick(&mut self) -> Vec<String> {
            self.wake = None;
            let prefixes = self
                .spawned
                .iter()
                .map(|&work| WorkPrefix { work, ..Default::default() })
                .collect();
            self.feed(Event::Tick { snapshot: Snapshot::default(), prefixes, lag: (0, 0) })
        }

        /// The `n`th running work (modulo) reports `issued` requests.
        fn work_done(&mut self, n: usize, issued: u64) -> Vec<String> {
            let work = self.running.remove(n % self.running.len());
            let metrics = report(issued);
            self.reports.merge(&metrics);
            self.feed(Event::WorkDone { work, metrics })
        }

        /// What the executor does once nothing else happens: replays run
        /// down, due wakes fire, until the core ends the session.
        fn run_down(&mut self) {
            for step in 0.. {
                assert!(step < 1_000, "the session never ended");
                if !self.ends.is_empty() {
                    return;
                }
                if !self.running.is_empty() {
                    self.work_done(step, step as u64);
                } else {
                    assert!(self.wake.is_some(), "nothing running, no wake asked for: wedged");
                    self.tick();
                }
            }
        }
    }

    #[test]
    fn a_clean_session_is_the_state_diagram() {
        let (_, hello) = Session::new(7, "sim".into(), Some("tok-0".into()));
        assert_eq!(label(&hello), "hello");
        let mut sim = Sim::new();
        assert_eq!(sim.frame(hello_ack(PROTOCOL_VERSION)), ["lease:5000"]);
        assert_eq!(sim.frame(M::Probe { seq: 0, wall_us: 7 }), ["probe_reply"]);
        assert_eq!(sim.frame(assign(3, 5)), ["prepare:3", "ready"]);
        assert_eq!(sim.frame(M::Probe { seq: 1, wall_us: 8 }), ["probe_reply"]);
        assert_eq!(sim.frame(M::Start { at_agent_wall_us: 2_000_000 }), ["wake:2000000"]);
        // A grant inside the armed window waits for the run's t = 0.
        assert_eq!(sim.frame(grant(1 << 32, 2)), [""; 0]);
        let t0 = sim.now + 1_000;
        assert_eq!(
            sim.tick(),
            [
                "spawn:3",
                "reassign_ack",
                &format!("spawn:{}", 1u64 << 32),
                &format!("wake:{}", t0 + 100_000)
            ]
        );
        assert_eq!(sim.tick()[0], "progress");
        assert_eq!(sim.frame(grant((1 << 32) + 1, 4)).len(), 2);
        sim.work_done(0, 5);
        sim.work_done(0, 2);
        assert_eq!(sim.frame(M::Finish), [""; 0], "a grant is still running: no final sample yet");
        assert_eq!(sim.tick()[0], "progress", "the heartbeat goes on while draining");
        assert_eq!(sim.work_done(0, 4), [format!("wake:{}", sim.now)]);
        assert_eq!(
            sim.tick(),
            ["progress:idle".into(), "done".into(), format!("wake:{}", sim.now)]
        );
        assert_eq!(sim.tick(), ["end:finished"]);
        assert_eq!(sim.tick(), [""; 0], "nothing after the end");

        let Some(SessionEnd::Finished(run)) = sim.ends.pop() else { panic!("finished") };
        assert_eq!((run.shard, run.assigned, run.granted), (3, 5, 2));
        assert_eq!(run.metrics, sim.reports);
        let Some(M::Done { run_start_wall_us, metrics, .. }) = sim.sent.pop() else {
            panic!("done")
        };
        assert_eq!((run_start_wall_us, &metrics), (t0, &sim.reports));
        assert_eq!(sim.stops, 0, "finish stops nothing");
    }

    #[test]
    fn handshake_violations_end_the_way_they_always_did() {
        let ack = || hello_ack(PROTOCOL_VERSION);
        let start = || M::Start { at_agent_wall_us: 0 };
        let table: Vec<(&str, Vec<M>, &str)> = vec![
            ("wrong proto", vec![hello_ack(999)], "end:failed:InvalidData"),
            ("refused", vec![abort()], "end:failed:ConnectionRefused"),
            ("no hello_ack", vec![start()], "end:failed:InvalidData"),
            ("double assign", vec![ack(), assign(0, 1), assign(0, 1)], "end:failed:InvalidData"),
            ("start before assign", vec![ack(), start()], "end:failed:InvalidData"),
            ("stray frame", vec![ack(), M::Finish], "end:failed:InvalidData"),
            ("abort before start", vec![ack(), assign(0, 1), abort()], "end:aborted-before-start"),
        ];
        for (case, frames, want) in table {
            let mut sim = Sim::new();
            let last = frames.into_iter().map(|msg| sim.frame(msg)).last().unwrap();
            assert_eq!(last.last().map(String::as_str), Some(want), "{case}");
            assert!(sim.spawned.is_empty() && sim.stops == 0, "{case}");
        }
        let mut sim = Sim::new();
        sim.frame(ack());
        assert_eq!(sim.feed(Event::Lost), ["end:failed:UnexpectedEof"], "no rejoin before `Start`");
    }

    /// Satellite (a): the ack's failed send reaches the core as `Lost` with
    /// the grant's `Spawn` still queued behind it.
    #[test]
    fn a_link_lost_between_a_reassign_and_its_ack_stops_drains_and_rejoins() {
        let mut sim = Sim::armed(0);
        sim.tick();
        let id = 1 << 32;
        assert_eq!(sim.frame(grant(id, 2)), ["reassign_ack".into(), format!("spawn:{id}")]);
        assert_eq!(sim.feed(Event::Lost), ["stop"]);
        assert_eq!(sim.tick(), [""; 0], "a lost session sends nothing and asks for no wake");
        assert_eq!(sim.work_done(0, 1), [""; 0]);
        assert_eq!(sim.work_done(0, 0), ["end:lost:true"], "the token is there to rejoin with");
        assert_eq!(sim.feed(Event::Lost), [""; 0], "the reader's report of the same loss");
    }

    /// Satellite (b): stopped before it is spawned, the shard's replay
    /// issues nothing and reports `aborted`; `Done` carries that.
    #[test]
    fn an_abort_inside_the_armed_window_stops_before_it_starts() {
        let mut sim = Sim::armed(5_000_000);
        assert_eq!(sim.frame(abort()), ["stop", "spawn:3"]);
        let mut stopped = RunMetrics::new();
        stopped.aborted = true;
        sim.running.clear();
        sim.feed(Event::WorkDone { work: 3, metrics: stopped });
        sim.run_down();
        assert_eq!(label(&Action::End(sim.ends.pop().unwrap())), "end:finished");
        let Some(M::Done { metrics, .. }) = sim.sent.pop() else { panic!("done") };
        assert!(metrics.aborted && metrics.issued == 0);
    }

    #[test]
    fn a_done_that_does_not_land_is_a_lost_link() {
        let mut sim = Sim::armed(0);
        sim.tick();
        sim.work_done(0, 5);
        sim.frame(M::Finish);
        assert_eq!(sim.tick()[..2], ["progress:idle", "done"]);
        assert_eq!(sim.feed(Event::Lost), ["stop", "end:lost:true"]);
    }

    proptest! {
        /// Any interleaving of grants, ticks and reports, ended by `Finish`,
        /// `Abort` or a loss (inside the armed window included).
        #[test]
        fn any_interleaving_ends_once_and_accounts_every_report(
            steps in prop::collection::vec((0u8..3, 0usize..8), 0..40),
            ending in 0u8..3,
        ) {
            let mut sim = Sim::armed(0);
            let mut grants = 0;
            for (kind, n) in steps {
                match kind {
                    0 => {
                        sim.frame(grant((1 << 32) + grants, n as u64));
                        grants += 1;
                    }
                    1 => drop(sim.tick()),
                    _ if !sim.running.is_empty() => drop(sim.work_done(n, n as u64)),
                    _ => {}
                }
            }
            match ending {
                0 => sim.frame(M::Finish),
                1 => sim.frame(abort()),
                _ => sim.feed(Event::Lost),
            };
            sim.run_down();

            prop_assert_eq!(sim.ends.len(), 1);
            prop_assert_eq!(sim.stops, (ending != 0) as usize);
            prop_assert!(sim.running.is_empty());
            let acks = sim.sent.iter().filter(|m| matches!(m, M::ReassignAck { .. })).count();
            match sim.ends.pop().unwrap() {
                SessionEnd::Finished(run) if ending != 2 => {
                    prop_assert_eq!(run.granted, grants);
                    prop_assert_eq!(acks as u64, grants, "every grant was acked");
                    prop_assert_eq!(&run.metrics, &sim.reports);
                    prop_assert_eq!(sim.spawned.len() as u64, 1 + grants);
                    let Some(M::Done { metrics, .. }) = sim.sent.pop() else { panic!("done last") };
                    prop_assert_eq!(&metrics, &sim.reports);
                    // `feed` held this one to a prefix for every work, too.
                    let last_is_idle = matches!(sim.sent.pop(), Some(M::Progress { idle: true, .. }));
                    prop_assert!(last_is_idle);
                }
                SessionEnd::Lost { token } if ending == 2 => {
                    prop_assert_eq!(token.as_deref(), Some("tok-1"));
                    let delivered = sim.sent.iter().any(|m| matches!(m, M::Done { .. }));
                    prop_assert!(!delivered);
                }
                other => prop_assert!(false, "ending {} gave {:?}", ending, other),
            }
            prop_assert!(sim.tick().is_empty() && sim.feed(Event::Lost).is_empty());
        }
    }
}
