//! The fleet control core: every lease, death, salvage, regrant, rejoin
//! and finish decision of a fleet run, stated once and free of IO.
//!
//! [`Coordinator::run`](crate::Coordinator::run) feeds the single-owner
//! [`Control`] [`Event`]s, each with the coordinator-clock time it is acted
//! on, and carries out the frames it returns ([`Outbound`]: `Reassign`,
//! `Finish`, `Abort`, by shard id). The core touches no socket, clock or
//! thread, so `tests/fleet_reshard_prop.rs` drives whole kill / stall /
//! rejoin / late-join schedules through it in virtual time.
//!
//! **Join.** An initial agent owns its hash partition of the schedule
//! ([`Control::assignment`]). A spare (a rejoin presenting its `HelloAck`
//! resume token, or a late joiner) owns an *empty* assignment and is fresh
//! capacity for later grants. Re-sending a token is idempotent: the old
//! slot stays dead and accounted, the new one starts clean.
//!
//! **Lease.** Every frame is proof of life. Each `Progress` carries one
//! [`WorkPrefix`] per work item held: the contiguous-finished high-water
//! mark and the outcome counts within it, so no request is both claimed
//! and reassignable.
//!
//! **Death.** The core salvages each owned work item's acked prefix
//! ([`prefix_metrics`]: the merged offered series stays bit-identical to an
//! unkilled run; only latency histograms die with the agent), then
//! re-partitions the remainder across the live slots in shard order
//! ([`plan_grants`]), one `Reassign{grant}` per part. Grants keep their
//! `at_ms` stamps (overdue requests fire at once and book their lateness)
//! and are work items like any other. With no live slot, or once an
//! operator stop is under way, nothing is granted: the remainder is never
//! issued, and [`Control::into_report`] books it as aborted minute by
//! minute, the offered series minus the issued one. That subtraction is
//! the only place aborted work is counted.
//!
//! | Event | Detection | Accounting | Report |
//! |---|---|---|---|
//! | Agent crash (socket EOF/reset) | immediate | prefix salvaged, remainder regranted | status `crash`, `reassignments` entries |
//! | Agent stall (connected, silent) | lease expiry | same as crash | status `stall` |
//! | Agent abort (`Abort` frame) | immediate | same as crash | status `abort: <reason>`, reason listed |
//! | Send fails or times out | at the write | same as crash | `crash`, or `stall` on a timeout |
//! | Grantee dies | its own loss mode | its grants reshard again | chained `reassignments` |
//! | All agents dead | last loss | prefix salvaged, remainder aborted | `aborted_invocations`, `aborted_per_minute` |
//! | Operator stop | stop flag | agents drain in flight and report `Done`; a death salvages its acked prefix; the rest aborts | `aborted_invocations`, `aborted_per_minute` |
//! | Rejoin after link loss | `resume_token` present | old slot stays accounted; new slot is capacity | `rejoined` flag |
//! | Join after `Finish` or stop | at `Joined` | refused with `Abort`, no slot | reason listed |
//!
//! **Invariants.** `completed + errors + aborted == offered` in total, per
//! error kind and per minute, through any event sequence; the same
//! sequence yields the same report. `Finish` goes out exactly once, to
//! every live slot, and only when each work item is accounted or covered
//! by its live owner's acked watermark. A dead slot never comes back:
//! later frames and losses for it are ignored, so a failed send and the
//! reader's report of the same loss cannot account it twice. A fleet run
//! always terminates with a balanced report.

use std::collections::BTreeMap;

use faasrail_core::RequestTrace;
use faasrail_loadgen::{Pacing, RunMetrics, ShardSpec};
use faasrail_telemetry::{
    merge_event_logs, tally_minute, ClockOffset, OutcomeClass, ReassignSpan, RunReport, Snapshot,
    TelemetryEvent,
};
use faasrail_workloads::WorkloadPool;

use crate::coordinator::{AgentReport, FleetConfig, FleetReport};
use crate::history::AgentState;
use crate::reshard::{plan_grants, prefix_metrics};
use crate::wire::{FleetMessage, Loss, WorkPrefix};

/// Grant work ids live in a separate id space from shard ids (which also
/// name each agent's original work), so a late-joining shard can never
/// collide with an issued grant.
const GRANT_ID_BASE: u64 = 1 << 32;

const REFUSAL: &str = "run is finishing; no capacity needed";

/// One thing that happened to the fleet, as the IO layer saw it. `Joined`:
/// agent `shard` completed its handshake with the measured
/// agent-minus-coordinator `clock`, `rejoined` if it presented a resume
/// token. `SendFailed`: a frame the core returned could not be delivered.
// `Frame` holds a whole `FleetMessage` (see the note on that enum); one
// event lives at a time per reader, so the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Event {
    Joined { shard: u32, name: String, clock: ClockOffset, rejoined: bool },
    Frame { shard: u32, msg: FleetMessage },
    Lost { shard: u32, loss: Loss },
    SendFailed { shard: u32, loss: Loss },
    AdmissionFailed { peer: String, error: String },
    Stop,
}

/// The shard of the agent to deliver a frame to, and the frame.
pub type Outbound = (u32, FleetMessage);

#[derive(Debug, Clone, Default, PartialEq)]
enum Status {
    #[default]
    Live,
    Done,
    Dead(String),
}

impl Status {
    /// For the report and the console: `live`, `done`, or the loss.
    fn label(&self) -> String {
        match self {
            Status::Live => "live".to_string(),
            Status::Done => "done".to_string(),
            Status::Dead(reason) => reason.clone(),
        }
    }
}

struct Outcome {
    run_start_wall_us: u64,
    metrics: RunMetrics,
    events: Vec<TelemetryEvent>,
}

#[derive(Default)]
struct Slot {
    name: String,
    assigned: u64,
    clock: ClockOffset,
    status: Status,
    rejoined: bool,
    last_progress: Snapshot,
    lag_ms: u64,
    max_lag_ms: u64,
    granted: u64,
    outcome: Option<Outcome>,
}

#[derive(Default)]
struct Work {
    /// Retained trace; taken when the work's owner dies.
    trace: Option<RequestTrace>,
    len: u64,
    owner: u32,
    origin_shard: u32,
    /// The owner's last acked contiguous-finished prefix.
    acked: Option<WorkPrefix>,
    /// The owner reported `Done`, or died and this was salvaged and moved.
    accounted: bool,
}

/// The fleet's control state. See the module docs for the contract.
pub struct Control<'a> {
    trace: &'a RequestTrace,
    pool: &'a WorkloadPool,
    cfg: &'a FleetConfig,
    epoch_us: u64,
    /// Keyed by shard id, so every walk is in shard order.
    slots: BTreeMap<u32, Slot>,
    /// Keyed by work id: a shard's own work, then its grants as issued.
    works: BTreeMap<u64, Work>,
    next_grant_id: u64,
    abort_reasons: Vec<String>,
    reassignments: Vec<ReassignSpan>,
    /// Prefix metrics salvaged from dead agents' works.
    salvaged: RunMetrics,
    /// Operator stop in progress: deaths stop resharding (the work is
    /// being cancelled anyway).
    stopping: bool,
    finishing: bool,
}

impl<'a> Control<'a> {
    /// A fleet of `cfg.agents` initial shards over `trace`, started at
    /// coordinator-clock `epoch_us`. Event times are on the same clock.
    pub fn new(
        trace: &'a RequestTrace,
        pool: &'a WorkloadPool,
        cfg: &'a FleetConfig,
        epoch_us: u64,
    ) -> Self {
        Control {
            trace,
            pool,
            cfg,
            epoch_us,
            slots: BTreeMap::new(),
            works: BTreeMap::new(),
            next_grant_id: GRANT_ID_BASE,
            abort_reasons: Vec::new(),
            reassignments: Vec::new(),
            salvaged: RunMetrics::new(),
            stopping: false,
            finishing: false,
        }
    }

    /// What `shard` is assigned at its handshake: its hash partition of
    /// the schedule for one of the `shards` initial agents, else nothing.
    pub fn assignment(trace: &RequestTrace, shard: u32, shards: u32) -> RequestTrace {
        if shard < shards {
            ShardSpec::new(shard, shards).filter(trace)
        } else {
            RequestTrace { duration_minutes: trace.duration_minutes, requests: Vec::new() }
        }
    }

    /// Apply one event that happened at coordinator-clock `at_us`; returns
    /// the frames to send, in order.
    pub fn handle(&mut self, at_us: u64, event: Event) -> Vec<Outbound> {
        let mut out = Vec::new();
        match event {
            Event::Joined { shard, name, clock, rejoined } => {
                self.on_joined(shard, Slot { name, clock, rejoined, ..Slot::default() }, &mut out)
            }
            Event::Frame { shard, msg } => match msg {
                FleetMessage::Progress { snapshot, prefixes, lag_ms, max_lag_ms, .. } => {
                    let Some(slot) = self.live_slot(shard) else { return out }; // dead: ignored
                    slot.last_progress = snapshot;
                    slot.lag_ms = lag_ms;
                    slot.max_lag_ms = slot.max_lag_ms.max(max_lag_ms);
                    for p in prefixes {
                        if let Some(w) = self.works.get_mut(&p.work).filter(|w| w.owner == shard) {
                            w.acked = Some(p);
                        }
                    }
                }
                FleetMessage::Done { run_start_wall_us, metrics, events, .. } => {
                    self.on_done(shard, Outcome { run_start_wall_us, metrics, events })
                }
                FleetMessage::Abort { reason } => {
                    self.on_dead(at_us, shard, Loss::Abort(reason), &mut out)
                }
                _ => {} // `ReassignAck` and strays: proof of life only
            },
            Event::Lost { shard, loss } | Event::SendFailed { shard, loss } => {
                self.on_dead(at_us, shard, loss, &mut out)
            }
            Event::AdmissionFailed { peer, error } => {
                self.abort_reasons.push(format!("spare admission from {peer} failed: {error}"))
            }
            Event::Stop if !self.stopping => {
                self.stopping = true;
                let reason = "coordinator stop requested".to_string();
                self.to_live(&mut out, FleetMessage::Abort { reason });
            }
            Event::Stop => {}
        }
        if !self.finishing && !self.stopping && self.all_work_resolved() {
            self.finishing = true;
            self.to_live(&mut out, FleetMessage::Finish);
        }
        out
    }

    /// The run is resolved: `Finish` or the operator's `Abort` went out
    /// and no slot is live any more.
    pub fn is_over(&self) -> bool {
        (self.finishing || self.stopping) && self.live().next().is_none()
    }

    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().filter(|(_, s)| s.status == Status::Live).map(|(&shard, _)| shard)
    }

    fn to_live(&self, out: &mut Vec<Outbound>, msg: FleetMessage) {
        out.extend(self.live().map(|shard| (shard, msg.clone())));
    }

    fn live_slot(&mut self, shard: u32) -> Option<&mut Slot> {
        self.slots.get_mut(&shard).filter(|s| s.status == Status::Live)
    }

    fn on_joined(&mut self, shard: u32, mut slot: Slot, out: &mut Vec<Outbound>) {
        if self.finishing || self.stopping {
            out.push((shard, FleetMessage::Abort { reason: REFUSAL.to_string() }));
            self.abort_reasons.push(format!("refused {}: {REFUSAL}", slot.name));
            return;
        }
        assert!(!self.slots.contains_key(&shard), "shard {shard} joined twice");
        let trace = Self::assignment(self.trace, shard, self.cfg.agents as u32);
        slot.assigned = trace.requests.len() as u64;
        let (len, trace) = (slot.assigned, Some(trace));
        let work = Work { trace, len, owner: shard, origin_shard: shard, ..Work::default() };
        self.works.insert(shard as u64, work);
        self.slots.insert(shard, slot);
    }

    fn on_done(&mut self, shard: u32, outcome: Outcome) {
        let Some(slot) = self.live_slot(shard) else { return };
        slot.last_progress = outcome.metrics.snapshot();
        slot.lag_ms = 0;
        slot.status = Status::Done;
        slot.outcome = Some(outcome);
        self.account(shard);
    }

    /// Mark everything `shard` still owns accounted; returns those work
    /// ids, its own work first, then its grants as issued.
    fn account(&mut self, shard: u32) -> Vec<u64> {
        let owned = self.works.iter_mut().filter(|(_, w)| w.owner == shard && !w.accounted);
        owned
            .map(|(&id, work)| {
                work.accounted = true;
                id
            })
            .collect()
    }

    /// Declare a slot dead and re-plan its work: the one death path.
    fn on_dead(&mut self, at_us: u64, shard: u32, loss: Loss, out: &mut Vec<Outbound>) {
        let Some(slot) = self.live_slot(shard) else { return };
        let kind = match loss {
            Loss::Crash => "crash",
            Loss::Stall => "stall",
            Loss::Abort(_) => "abort",
        };
        slot.status = Status::Dead(kind.to_string());
        if let Loss::Abort(reason) = loss {
            slot.status = Status::Dead(format!("{kind}: {reason}"));
            self.abort_reasons.push(format!("shard {shard}: {reason}"));
        }
        let owned = self.account(shard);
        // A stop cancels the remainder; it does not move it.
        let survivors: Vec<u32> = if self.stopping { Vec::new() } else { self.live().collect() };
        let run_us = at_us.saturating_sub(self.epoch_us);
        let elapsed_ms = match self.cfg.pacing {
            Pacing::RealTime { compression } => ((run_us / 1_000) as f64 * compression) as u64,
            _ => 0,
        };
        for w in owned {
            let work = self.works.get_mut(&w).expect("accounted just above");
            let prefix = work.acked.unwrap_or(WorkPrefix { work: w, ..WorkPrefix::default() });
            let origin_shard = work.origin_shard;
            let trace = work.trace.take().expect("an unaccounted work retains its trace");

            // The acked prefix happened: salvage it. The remainder moves to
            // the survivors; with none it is never issued, so the report
            // books it as aborted.
            self.salvaged.merge(&prefix_metrics(&trace, self.pool, &prefix));
            if survivors.is_empty() {
                continue;
            }
            let grants = plan_grants(
                &trace,
                prefix.watermark,
                &survivors,
                self.next_grant_id,
                origin_shard,
                elapsed_ms,
            );
            self.next_grant_id += grants.len() as u64;
            for (target, grant) in grants {
                let (len, trace) = (grant.trace.requests.len() as u64, Some(grant.trace.clone()));
                let work = Work { trace, len, owner: target, origin_shard, ..Work::default() };
                self.works.insert(grant.id, work);
                self.slots.get_mut(&target).expect("planned target is a live slot").granted += 1;
                self.reassignments.push(ReassignSpan {
                    at_us: run_us,
                    from_shard: shard,
                    to_shard: target,
                    work: grant.id,
                    requests: len,
                    reason: kind.to_string(),
                });
                // A grantee that cannot take the frame dies of the failed
                // send, and its own death reshards this grant again.
                out.push((target, FleetMessage::Reassign { grant }));
            }
        }
    }

    /// Every initial agent joined, and every work item finished (its live
    /// owner's acked watermark covers it) or accounted.
    fn all_work_resolved(&self) -> bool {
        self.slots.len() >= self.cfg.agents
            && self.works.values().all(|work| {
                work.accounted
                    || (self.slots[&work.owner].status == Status::Live
                        && work.acked.map_or(work.len == 0, |p| p.watermark >= work.len))
            })
    }

    /// The cumulative fleet-wide snapshot: every slot's last progress.
    pub(crate) fn merged_progress(&self) -> Snapshot {
        self.slots.values().fold(Snapshot::default(), |mut merged, slot| {
            merged.merge(&slot.last_progress);
            merged
        })
    }

    /// The slots as the console's per-agent rows.
    pub(crate) fn agent_states(&self) -> Vec<AgentState> {
        self.slots
            .iter()
            .map(|(&shard, s)| AgentState {
                name: s.name.clone(),
                shard,
                status: s.status.label(),
                rejoined: s.rejoined,
                granted: s.granted,
                lag_ms: s.lag_ms,
                max_lag_ms: s.max_lag_ms,
                issued: s.last_progress.issued,
                completed: s.last_progress.completed,
                errors: s.last_progress.errors_total(),
                shed: s.last_progress.count(OutcomeClass::Shed),
            })
            .collect()
    }

    /// Reassignments in issue order, and the abort reasons seen so far.
    pub(crate) fn timeline(&self) -> (&[ReassignSpan], &[String]) {
        (&self.reassignments, &self.abort_reasons)
    }

    /// Merge everything the run produced into its report.
    pub fn into_report(self) -> FleetReport {
        let offered = self.trace.requests.len() as u64;
        let mut metrics = self.salvaged;
        let mut agents = Vec::with_capacity(self.slots.len());
        let mut logs: Vec<Vec<TelemetryEvent>> = Vec::new();
        let mut max_lag_ms = 0;
        for (shard, slot) in self.slots {
            let completed = slot.outcome.is_some();
            max_lag_ms = max_lag_ms.max(slot.max_lag_ms);
            // A dead slot's acked prefix was salvaged when it died.
            if let Some(out) = slot.outcome {
                metrics.merge(&out.metrics);
                if !out.events.is_empty() {
                    logs.push(rebase_events(
                        out.events,
                        out.run_start_wall_us,
                        slot.clock.offset_us,
                        self.epoch_us,
                    ));
                }
            }
            agents.push(AgentReport {
                name: slot.name,
                shard,
                assigned: slot.assigned,
                completed,
                status: slot.status.label(),
                granted: slot.granted,
                rejoined: slot.rejoined,
                lag_ms: slot.lag_ms,
                max_lag_ms: slot.max_lag_ms,
                clock: slot.clock,
                last_progress: slot.last_progress,
            });
        }
        // Whatever was offered in a minute and issued nowhere was aborted.
        let mut aborted_per_minute = Vec::new();
        for r in &self.trace.requests {
            tally_minute(&mut aborted_per_minute, r.at_ms);
        }
        for (offered, issued) in aborted_per_minute.iter_mut().zip(&metrics.issued_per_minute) {
            *offered = offered.saturating_sub(*issued);
        }
        let aborted_invocations = aborted_per_minute.iter().sum();
        metrics.aborted |= aborted_invocations > 0;

        if !self.reassignments.is_empty() {
            logs.push(self.reassignments.iter().cloned().map(TelemetryEvent::Reassign).collect());
        }
        let events = merge_event_logs(&logs);
        let run_report = (self.cfg.capture_events && !events.is_empty())
            .then(|| RunReport::from_events(&events));
        FleetReport {
            shards: self.cfg.agents as u32,
            offered,
            aborted_invocations,
            metrics,
            agents,
            reassignments: self.reassignments,
            abort_reasons: self.abort_reasons,
            max_lag_ms,
            aborted_per_minute,
            run_report,
            events,
            build: faasrail_telemetry::BuildInfo::current(),
            console_history: None,
        }
    }
}

/// Shift one agent's run-relative span timestamps onto the fleet epoch:
/// the agent's t=0 sits `(run_start_wall_us − offset) − epoch` after the
/// epoch in coordinator time, so all agents' spans land on one comparable
/// timeline before the logs merge.
fn rebase_events(
    mut events: Vec<TelemetryEvent>,
    run_start_wall_us: u64,
    offset_us: f64,
    epoch_us: u64,
) -> Vec<TelemetryEvent> {
    let start_coord_us = run_start_wall_us as i64 - offset_us.round() as i64;
    let shift = start_coord_us - epoch_us as i64;
    for event in &mut events {
        if let TelemetryEvent::Invocation(span) = event {
            span.shift(shift);
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebase_events_shifts_invocation_spans_only() {
        use faasrail_telemetry::{InvocationSpan, OutcomeClass, RunSummary};
        let span = InvocationSpan {
            trace_id: 1,
            seq: 0,
            workload: 0,
            function_index: 0,
            scheduled_ms: 0,
            target_us: 1_000,
            dispatched_us: 1_100,
            picked_up_us: 1_200,
            completed_us: 1_300,
            service_ms: 0.1,
            outcome: OutcomeClass::Ok,
            cold_start: false,
            error: None,
        };
        let end = RunSummary { issued: 1, completed: 1, errors: 0, aborted: false, wall_us: 9 };
        let events = vec![TelemetryEvent::Invocation(span), TelemetryEvent::RunEnd(end)];
        // Agent clock runs 500us ahead; run_start_wall_us = 10_500 on the
        // agent clock is 10_000 coordinator time, epoch at 8_000 → shift
        // = +2_000.
        let out = rebase_events(events, 10_500, 500.0, 8_000);
        match &out[0] {
            TelemetryEvent::Invocation(s) => {
                assert_eq!(s.target_us, 3_000);
                assert_eq!(s.dispatched_us, 3_100);
                assert_eq!(s.picked_up_us, 3_200);
                assert_eq!(s.completed_us, 3_300);
            }
            other => panic!("expected invocation span, got {other:?}"),
        }
        match &out[1] {
            TelemetryEvent::RunEnd(e) => assert_eq!(e.wall_us, 9, "run_end is untouched"),
            other => panic!("expected run_end, got {other:?}"),
        }
    }
}
