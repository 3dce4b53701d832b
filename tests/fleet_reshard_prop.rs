//! The fleet control core in virtual time: random kill/rejoin schedules
//! and scripted failure sequences fed to [`Control`] — the state machine
//! `Coordinator::run` itself runs — as events, with no socket and no
//! clock. The invariants the elastic control plane stakes its accounting
//! on:
//!
//! * **exact partition** — across any sequence of kills, regrants,
//!   rejoins, and a no-survivor collapse, `completed + errors + aborted`
//!   equals the offered schedule exactly, per outcome kind and per
//!   minute (issued + aborted minute series == offered minute series,
//!   element-wise);
//! * **determinism** — replaying the identical kill schedule produces an
//!   identical grant plan and identical merged metrics.
//!
//! The outcome of every request is a pure function of its function index
//! (the same convention the e2e fleet tests use), so "what the agent
//! would have reported" is computable without running anything.

mod common;

use common::{claimed_metrics, claimed_prefix};
use faasrail::core::{Request, RequestTrace};
use faasrail::fleet::{
    per_minute_of, Control, Event, FleetConfig, FleetMessage, FleetReport, Loss, WorkPrefix,
};
use faasrail::prelude::*;
use faasrail::telemetry::{ClockOffset, Snapshot};
use faasrail::workloads::WorkloadId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// (target shard, grant id, request count, first at_ms) per grant issued.
type Plan = Vec<(u32, u64, usize, u64)>;

/// A fleet in virtual time. On one side the shipped [`Control`]; on the
/// other what each live agent holds, learnt the way a real agent learns
/// it: its assignment at the handshake, then the `Reassign` frames
/// addressed to it.
struct Fleet<'a> {
    trace: &'a RequestTrace,
    pool: &'a WorkloadPool,
    shards: u32,
    control: Control<'a>,
    now_us: u64,
    next_spare: u32,
    /// Live agents: shard → (work id, trace) per work item held.
    held: BTreeMap<u32, Vec<(u64, RequestTrace)>>,
    plan: Plan,
    /// Shards `Finish` was addressed to, in order.
    finished: Vec<u32>,
    /// Shards `Abort` was addressed to, in order.
    aborted: Vec<u32>,
}

impl<'a> Fleet<'a> {
    /// `cfg.agents` initial agents, all joined.
    fn start(trace: &'a RequestTrace, pool: &'a WorkloadPool, cfg: &'a FleetConfig) -> Fleet<'a> {
        let mut fleet = Fleet {
            trace,
            pool,
            shards: cfg.agents as u32,
            control: Control::new(trace, pool, cfg, 0),
            now_us: 0,
            next_spare: cfg.agents as u32,
            held: BTreeMap::new(),
            plan: Vec::new(),
            finished: Vec::new(),
            aborted: Vec::new(),
        };
        for shard in 0..fleet.shards {
            fleet.join(shard, false);
        }
        fleet
    }

    /// Feed one event a millisecond after the last and act on the frames
    /// returned, as the agents they address would.
    fn feed(&mut self, event: Event) {
        self.now_us += 1_000;
        for (shard, msg) in self.control.handle(self.now_us, event) {
            match msg {
                FleetMessage::Reassign { grant } => {
                    self.plan.push((
                        shard,
                        grant.id,
                        grant.trace.requests.len(),
                        grant.trace.requests.first().map(|r| r.at_ms).unwrap_or(0),
                    ));
                    let works = self.held.get_mut(&shard).expect("grants go to live agents");
                    works.push((grant.id, grant.trace));
                }
                FleetMessage::Finish => self.finished.push(shard),
                FleetMessage::Abort { .. } => self.aborted.push(shard),
                other => panic!("the core only sends reassign, finish and abort: {other:?}"),
            }
        }
    }

    fn join(&mut self, shard: u32, rejoined: bool) {
        let assignment = Control::assignment(self.trace, shard, self.shards);
        self.held.insert(shard, vec![(shard as u64, assignment)]);
        let clock = ClockOffset::default();
        self.feed(Event::Joined { shard, name: format!("agent-{shard}"), clock, rejoined });
        if self.aborted.contains(&shard) {
            self.held.remove(&shard); // refused
        }
    }

    /// A fresh agent joins mid-run; returns its shard id.
    fn join_spare(&mut self) -> u32 {
        let shard = self.next_spare;
        self.next_spare += 1;
        self.join(shard, true);
        shard
    }

    fn alive(&self) -> Vec<u32> {
        self.held.keys().copied().collect()
    }

    /// `shard` reports `frac` of every work item it holds finished.
    fn ack(&mut self, shard: u32, frac: f64) {
        let prefixes: Vec<WorkPrefix> = self.held[&shard]
            .iter()
            .map(|(id, work)| {
                let n = work.requests.len();
                claimed_prefix(work, *id, (frac * n as f64) as usize % (n + 1))
            })
            .collect();
        let snapshot = Snapshot {
            issued: prefixes.iter().map(|p| p.watermark).sum(),
            completed: prefixes.iter().map(|p| p.completed).sum(),
            ..Snapshot::default()
        };
        let msg = FleetMessage::Progress {
            shard,
            snapshot,
            prefixes,
            lag_ms: 0,
            max_lag_ms: 0,
            idle: frac >= 1.0,
        };
        self.feed(Event::Frame { shard, msg });
    }

    /// `shard` dies without another word.
    fn lose(&mut self, shard: u32, loss: Loss) {
        self.held.remove(&shard);
        self.feed(Event::Lost { shard, loss });
    }

    /// `shard` answers `Finish` (or an operator `Abort`): one `Done` with
    /// everything it ran.
    fn done(&mut self, shard: u32, frac: f64) {
        let mut metrics = faasrail::loadgen::RunMetrics::new();
        for (_, work) in self.held.remove(&shard).expect("only live agents report") {
            let n = (frac * work.requests.len() as f64) as usize;
            let ran = RequestTrace {
                duration_minutes: work.duration_minutes,
                requests: work.requests[..n].to_vec(),
            };
            metrics.merge(&claimed_metrics(&ran, self.pool));
        }
        let msg = FleetMessage::Done { shard, run_start_wall_us: 0, metrics, events: Vec::new() };
        self.feed(Event::Frame { shard, msg });
    }

    /// Whoever is still alive finishes everything it holds: the core
    /// answers with exactly one `Finish` per live agent, and the run is
    /// over once each has reported `Done`. (With nobody left alive the
    /// core has finished on its own.)
    fn drain(mut self) -> (FleetReport, Plan) {
        let live = self.alive();
        for &shard in &live {
            self.ack(shard, 1.0);
        }
        assert_eq!(self.finished, live, "one Finish per live agent, once");
        for shard in live {
            assert!(!self.control.is_over(), "shard {shard} has not reported");
            self.done(shard, 1.0);
        }
        assert!(self.control.is_over());
        (self.control.into_report(), self.plan)
    }
}

fn vanilla_pool() -> WorkloadPool {
    WorkloadPool::vanilla(&CostModel::default_calibration())
}

/// `n` requests, one every `step_ms`, spread over 60 functions.
fn ramp(n: u64, step_ms: u64, pool: &WorkloadPool) -> RequestTrace {
    RequestTrace {
        duration_minutes: 3,
        requests: (0..n)
            .map(|i| Request {
                at_ms: i * step_ms,
                workload: WorkloadId((i % pool.len() as u64) as u32),
                function_index: (i * 7 % 60) as u32,
            })
            .collect(),
    }
}

fn fleet_of(agents: usize) -> FleetConfig {
    FleetConfig { agents, ..FleetConfig::default() }
}

/// One kill event in the schedule: which live shard dies (as a fraction
/// of the live set), how far through each of its works it got, how it
/// was lost, and whether a fresh agent rejoins right after.
#[derive(Debug, Clone)]
struct Kill {
    victim_frac: f64,
    watermark_frac: f64,
    loss: u8,
    rejoin: bool,
}

/// Drive the control core through a full fleet lifetime: initial hash
/// partition, kills with prefix salvage + remainder regrants (or aborts
/// when no survivor is left), optional rejoins as fresh capacity, and
/// full completion of whatever is still owned at the end.
fn run_schedule(
    trace: &RequestTrace,
    pool: &WorkloadPool,
    shards: u32,
    kills: &[Kill],
) -> (FleetReport, Plan) {
    let cfg = fleet_of(shards as usize);
    let mut fleet = Fleet::start(trace, pool, &cfg);
    for kill in kills {
        let alive = fleet.alive();
        if alive.is_empty() {
            break;
        }
        let victim = alive[(kill.victim_frac * alive.len() as f64) as usize % alive.len()];
        fleet.ack(victim, kill.watermark_frac);
        fleet.lose(
            victim,
            match kill.loss {
                0 => Loss::Crash,
                1 => Loss::Stall,
                _ => Loss::Abort("out of memory".into()),
            },
        );
        if kill.rejoin {
            fleet.join_spare();
        }
    }
    fleet.drain()
}

fn padded(v: &[u64], len: usize) -> Vec<u64> {
    let mut out = v.to_vec();
    out.resize(len.max(out.len()), 0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random traces, shard counts, and kill/rejoin schedules: the
    /// outcome partition stays exact — in total, per error kind, and
    /// minute by minute — and the plan is a pure function of the inputs.
    #[test]
    fn random_kill_schedules_preserve_the_partition_exactly(
        raw in prop::collection::vec((0u64..180_000, 0u32..60, 0u32..4), 20..200),
        shards in 2u32..5,
        kills in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u8..3, 0u8..2).prop_map(|(v, w, loss, r)| Kill {
                victim_frac: v,
                watermark_frac: w,
                loss,
                rejoin: r == 1,
            }),
            0..6,
        ),
    ) {
        let pool = vanilla_pool();
        let mut requests: Vec<Request> = raw
            .iter()
            .map(|&(at_ms, fi, w)| Request {
                at_ms,
                workload: WorkloadId(w % pool.len() as u32),
                function_index: fi,
            })
            .collect();
        requests.sort_by_key(|r| r.at_ms);
        let trace = RequestTrace { duration_minutes: 3, requests };
        let offered = trace.requests.len() as u64;

        let (report, plan) = run_schedule(&trace, &pool, shards, &kills);
        let m = &report.metrics;
        let aborted_per_minute = report.aborted_per_minute.clone().expect("a resharding run");
        let aborted: u64 = aborted_per_minute.iter().sum();

        // Total partition: every offered request finished somewhere or
        // aborted with no survivor — never both, never neither.
        prop_assert_eq!(m.completed + m.errors + aborted, offered);
        prop_assert_eq!(aborted, report.aborted_invocations);
        prop_assert_eq!(m.issued, m.completed + m.errors);
        prop_assert_eq!(
            m.app_errors + m.timeouts + m.transport_errors + m.shed,
            m.errors,
            "error kinds partition the error total"
        );

        // Per-kind conservation: issued requests carry their workload kind.
        prop_assert_eq!(m.per_kind.values().sum::<u64>(), m.issued);

        // Per-minute: issued + aborted == offered, element-wise.
        let full = per_minute_of(&trace);
        let len = full.len();
        let issued_pm = padded(&m.issued_per_minute, len);
        let aborted_pm = padded(&aborted_per_minute, len);
        let full_pm = padded(&full, len);
        for (minute, ((i, a), f)) in
            issued_pm.iter().zip(&aborted_pm).zip(&full_pm).enumerate()
        {
            prop_assert_eq!(i + a, *f, "minute {} must balance", minute);
        }

        // Every grant is in the report's timeline, in issue order.
        prop_assert_eq!(
            report.reassignments.iter().map(|r| (r.to_shard, r.work)).collect::<Vec<_>>(),
            plan.iter().map(|&(to, id, _, _)| (to, id)).collect::<Vec<_>>()
        );

        // Determinism: the identical schedule replans identically.
        let (again, plan_again) = run_schedule(&trace, &pool, shards, &kills);
        prop_assert_eq!(&plan, &plan_again, "grant plan must be deterministic");
        prop_assert_eq!(
            serde_json::to_string(&report.metrics).unwrap(),
            serde_json::to_string(&again.metrics).unwrap()
        );
        prop_assert_eq!(&report.aborted_per_minute, &again.aborted_per_minute);
    }
}

/// A grantee that dies hands its grants on: the second death's
/// reassignments carry the grant the first one issued, and nothing is
/// lost or double-counted along the chain.
#[test]
fn a_dead_grantee_regrants_its_grants() {
    let pool = vanilla_pool();
    let trace = ramp(180, 1_000, &pool);
    let cfg = fleet_of(3);
    let mut fleet = Fleet::start(&trace, &pool, &cfg);

    fleet.ack(0, 0.25);
    fleet.lose(0, Loss::Crash);
    let first: Vec<_> = fleet.plan.clone();
    assert!(!first.is_empty() && first.iter().all(|&(to, ..)| to == 1 || to == 2));

    // Shard 1 got part of shard 0's remainder; it runs half of everything
    // it holds, then stalls.
    assert!(first.iter().any(|&(to, ..)| to == 1), "the hash left shard 1 nothing: {first:?}");
    fleet.ack(1, 0.5);
    fleet.lose(1, Loss::Stall);
    let second = &fleet.plan[first.len()..];
    assert!(second.iter().all(|&(to, ..)| to == 2), "one survivor left: {second:?}");
    assert!(second.len() >= 2, "shard 1's own work and its grant both move: {second:?}");

    let (report, plan) = fleet.drain();
    assert_eq!(report.aborted_invocations, 0);
    assert_eq!(report.metrics.completed + report.metrics.errors, report.offered);
    assert_eq!(report.metrics.issued_per_minute, per_minute_of(&trace));
    let chain: Vec<(u32, u32, &str)> = report
        .reassignments
        .iter()
        .map(|r| (r.from_shard, r.to_shard, r.reason.as_str()))
        .collect();
    assert!(chain.contains(&(0, 1, "crash")) && chain.contains(&(1, 2, "stall")), "{chain:?}");
    let statuses: Vec<&str> = report.agents.iter().map(|a| a.status.as_str()).collect();
    assert_eq!(statuses, ["crash", "stall", "done"]);
    let to_last = plan.iter().filter(|&&(to, ..)| to == 2).count();
    assert_eq!(report.agents[2].granted as usize, to_last);
}

/// ROADMAP 9c: a spare has joined, so a dead shard's remainder is split
/// across as many survivors as there were shards. Re-hashed with the hash
/// that sharded, all of it went to one of them; under the generation-keyed
/// hash no survivor gets more than twice its share, and a function still
/// has one owner.
#[test]
fn a_remainder_spreads_across_as_many_survivors_as_there_were_shards() {
    let pool = vanilla_pool();
    let shards = 3;
    let trace = RequestTrace {
        duration_minutes: 2,
        requests: (0..64 * shards * shards)
            .map(|f| Request { at_ms: f as u64 * 100, workload: WorkloadId(0), function_index: f })
            .collect(),
    };
    let cfg = fleet_of(shards as usize);
    let mut fleet = Fleet::start(&trace, &pool, &cfg);
    let spare = fleet.join_spare();
    fleet.lose(0, Loss::Crash);

    let lost = Control::assignment(&trace, 0, shards).requests.len();
    assert_eq!(fleet.plan.iter().map(|&(_, _, n, _)| n).sum::<usize>(), lost);
    for survivor in [1, 2, spare] {
        let granted: usize =
            fleet.plan.iter().filter(|&&(to, ..)| to == survivor).map(|&(_, _, n, _)| n).sum();
        assert!(granted > 0 && granted * shards as usize <= 2 * lost, "{survivor}: {granted}");
    }
    let mut owner_of = BTreeMap::new();
    for (shard, works) in &fleet.held {
        for r in works.iter().flat_map(|(_, work)| &work.requests) {
            assert_eq!(owner_of.insert(r.function_index, *shard), None, "function split");
        }
    }
    assert_eq!(owner_of.len(), trace.requests.len());

    let (report, _) = fleet.drain();
    assert_eq!(report.metrics.completed + report.metrics.errors, report.offered);
}

/// `Finish` comes exactly once, and not before every work item is covered
/// by an ack or accounted by a death.
#[test]
fn finish_is_sent_once_and_only_when_all_work_is_resolved() {
    let pool = vanilla_pool();
    let trace = ramp(120, 500, &pool);
    let cfg = fleet_of(3);
    let mut fleet = Fleet::start(&trace, &pool, &cfg);

    fleet.ack(0, 1.0);
    fleet.ack(1, 1.0);
    fleet.ack(2, 0.9);
    assert!(fleet.finished.is_empty(), "shard 2 still owes a tenth of its work");
    fleet.lose(1, Loss::Crash);
    assert!(fleet.finished.is_empty(), "shard 1 had acked everything, so nothing moved");
    assert!(fleet.plan.is_empty());
    fleet.ack(2, 1.0);
    assert_eq!(fleet.finished, [0, 2], "every live agent, once");

    // Late frames change nothing: no second Finish.
    fleet.ack(0, 1.0);
    fleet.feed(Event::Lost { shard: 1, loss: Loss::Stall });
    assert_eq!(fleet.finished, [0, 2]);
    fleet.done(0, 1.0);
    assert!(!fleet.control.is_over(), "shard 2 has not reported");
    fleet.done(2, 1.0);
    assert!(fleet.control.is_over());
    assert_eq!(fleet.finished, [0, 2]);

    let report = fleet.control.into_report();
    assert_eq!(report.aborted_invocations, 0);
    assert_eq!(report.agents[1].status, "crash", "the first loss names the slot");
}

/// After an operator stop a death plans nothing: the work is being
/// cancelled anyway, and the partition still balances.
#[test]
fn a_death_after_operator_stop_issues_no_grants() {
    let pool = vanilla_pool();
    let trace = ramp(150, 400, &pool);
    let cfg = fleet_of(3);
    let mut fleet = Fleet::start(&trace, &pool, &cfg);
    fleet.ack(0, 0.5);
    fleet.ack(1, 0.5);

    let live = fleet.alive();
    fleet.feed(Event::Stop);
    assert_eq!(fleet.aborted, live, "every live agent is told to stop");
    fleet.feed(Event::Stop);
    assert_eq!(fleet.aborted, live, "a second stop says nothing new");

    fleet.lose(0, Loss::Crash);
    assert!(fleet.plan.is_empty(), "no grants while stopping");
    assert!(fleet.finished.is_empty(), "a stopped run never sends Finish");
    fleet.done(1, 0.5);
    assert!(!fleet.control.is_over(), "shard 2 is still live");
    fleet.lose(2, Loss::Stall);
    assert!(fleet.control.is_over());

    let report = fleet.control.into_report();
    assert!(report.reassignments.is_empty());
    let m = &report.metrics;
    assert!(m.aborted);
    assert_eq!(m.completed + m.errors + report.aborted_invocations, report.offered);
    assert!(report.aborted_invocations > 0);
}

/// A spare that completes its handshake after `Finish` went out is turned
/// away with `Abort` and never becomes a slot.
#[test]
fn a_spare_joining_after_finish_is_refused() {
    let pool = vanilla_pool();
    let trace = ramp(60, 500, &pool);
    let cfg = fleet_of(2);
    let mut fleet = Fleet::start(&trace, &pool, &cfg);
    let early = fleet.join_spare();
    assert!(fleet.aborted.is_empty() && fleet.alive().contains(&early), "mid-run spares join");

    fleet.ack(0, 1.0);
    fleet.ack(1, 1.0);
    assert_eq!(fleet.finished, [0, 1, early], "the spare's empty assignment owes nothing");
    let late = fleet.join_spare();
    assert_eq!(fleet.aborted, [late]);

    for shard in [0, 1, early] {
        fleet.done(shard, 1.0);
    }
    assert!(fleet.control.is_over());
    let report = fleet.control.into_report();
    assert_eq!(report.agents.len(), 3, "the refused spare is not a slot");
    assert!(report.agents[2].rejoined);
    assert!(
        report.abort_reasons.iter().any(|r| r.contains("refused") && r.contains("finishing")),
        "{:?}",
        report.abort_reasons
    );
    assert_eq!(report.aborted_invocations, 0);
}

/// A frame that cannot be delivered kills its addressee like any other
/// loss: the grant it carried moves on, and the reader's later report of
/// the same broken stream changes nothing.
#[test]
fn a_send_failure_is_a_death() {
    let pool = vanilla_pool();
    let trace = ramp(180, 1_000, &pool);
    let cfg = fleet_of(3);
    let mut fleet = Fleet::start(&trace, &pool, &cfg);
    fleet.lose(0, Loss::Crash);
    let to_one = fleet.plan.iter().filter(|&&(to, ..)| to == 1).count();
    assert!(to_one > 0, "the hash left shard 1 nothing: {:?}", fleet.plan);
    let before = fleet.plan.len();

    // Shard 1 is wedged: the `Reassign` write timed out.
    fleet.held.remove(&1);
    fleet.feed(Event::SendFailed { shard: 1, loss: Loss::Stall });
    let moved = &fleet.plan[before..];
    assert_eq!(moved.len(), to_one + 1, "its shard and every grant it was sent: {moved:?}");
    assert!(moved.iter().all(|&(to, ..)| to == 2));
    // Its reader then reports the stream the failed send shut down.
    fleet.feed(Event::Lost { shard: 1, loss: Loss::Crash });
    assert_eq!(fleet.plan.len(), before + to_one + 1, "the same loss, reported twice");

    let (report, _) = fleet.drain();
    assert_eq!(report.agents[1].status, "stall", "the first report of the loss names it");
    assert_eq!(report.aborted_invocations, 0);
    assert_eq!(report.metrics.issued_per_minute, per_minute_of(&trace));
}

/// The same event schedule twice gives the same report, byte for byte.
#[test]
fn the_same_schedule_gives_an_identical_report() {
    let pool = vanilla_pool();
    let trace = ramp(200, 700, &pool);
    let kills = [
        Kill { victim_frac: 0.4, watermark_frac: 0.3, loss: 2, rejoin: true },
        Kill { victim_frac: 0.9, watermark_frac: 0.6, loss: 1, rejoin: false },
        Kill { victim_frac: 0.0, watermark_frac: 0.8, loss: 0, rejoin: true },
    ];
    let json = |(report, _): (FleetReport, _)| serde_json::to_string(&report).unwrap();
    let first = json(run_schedule(&trace, &pool, 4, &kills));
    assert_eq!(first, json(run_schedule(&trace, &pool, 4, &kills)));
    assert!(first.contains("\"abort: out of memory\"") && first.contains("\"stall\""), "{first}");
}
