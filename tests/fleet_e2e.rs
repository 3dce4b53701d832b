//! End-to-end fleet mode: a coordinator and real agent processes (well,
//! threads — same protocol, same code paths, real TCP) replaying one
//! sharded schedule.
//!
//! The load-bearing claims:
//! * a 2-agent fleet produces exactly the same outcome partition as a
//!   single-process replay of the same spec — sharding changes *where*
//!   requests run, never *what* runs;
//! * killing an agent mid-run costs nothing: the coordinator salvages the
//!   acked finished prefix and reshards the remainder to survivors, so
//!   the run completes with zero aborted invocations and the merged
//!   per-minute offered series bit-identical to an unkilled run;
//! * a *stalled* agent (connected but silent past the lease) is detected
//!   and resharded the same way, with a distinguishable status;
//! * killing *every* agent still terminates cleanly with the whole
//!   schedule accounted as aborted, minute by minute;
//! * a protocol-version mismatch is refused with a clean `Abort` naming
//!   both versions;
//! * an agent that loses the coordinator link rejoins with its resume
//!   token and serves grants as fresh capacity;
//! * with `--no-reshard`, a lost shard degrades to the pre-elastic
//!   aborted-remainder accounting.

mod common;

use common::{claimed_prefix, impostor_handshake, small_schedule, DeterministicBackend};
use faasrail::core::{Request, RequestTrace};
use faasrail::fleet::{
    read_frame, run_agent_with, wall_clock_us, write_frame, AgentConfig, Assignment, Coordinator,
    FleetConfig, FleetMessage, Grant, PROTOCOL_VERSION,
};
use faasrail::loadgen::{replay, Backend, Pacing, ReplayConfig};
use faasrail::prelude::*;
use faasrail::telemetry::Snapshot;
use faasrail::workloads::WorkloadId;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fast_fleet_config(agents: usize, capture_events: bool) -> FleetConfig {
    FleetConfig {
        agents,
        workers: 3,
        pacing: Pacing::Unpaced,
        capture_events,
        progress_every_ms: 100,
        start_delay_ms: 100,
        target: None,
        probes: 3,
        live: false,
        agent_timeout: Duration::from_secs(10),
        lease_ms: 5_000,
        reshard: true,
        console: None,
    }
}

fn per_minute(reqs: &RequestTrace) -> Vec<u64> {
    let mut v = Vec::new();
    for r in &reqs.requests {
        let m = (r.at_ms / 60_000) as usize;
        if v.len() <= m {
            v.resize(m + 1, 0);
        }
        v[m] += 1;
    }
    v
}

#[test]
fn two_agent_fleet_matches_single_process_replay() {
    let (reqs, pool) = small_schedule(21);
    let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let cfg = fast_fleet_config(2, true);

    let report = std::thread::scope(|scope| {
        let run =
            scope.spawn(|| coordinator.run(&reqs, &pool, &cfg, &AtomicBool::new(false)).unwrap());
        for i in 0..2 {
            scope.spawn(move || {
                let agent_cfg = AgentConfig { name: format!("agent-{i}"), ..Default::default() };
                let run = run_agent_with(addr, &agent_cfg, |_| {
                    Ok(Arc::new(DeterministicBackend) as Arc<dyn Backend>)
                })
                .unwrap();
                assert!(run.is_some(), "agent {i} must run to completion");
            });
        }
        run.join().unwrap()
    });

    let single = replay(
        &reqs,
        &pool,
        &DeterministicBackend,
        &ReplayConfig { pacing: Pacing::Unpaced, workers: 3 },
    );

    // The outcome partition is *identical* — not approximately equal.
    let m = &report.metrics;
    assert_eq!(report.offered as usize, reqs.len());
    assert_eq!(report.aborted_invocations, 0);
    assert_eq!(m.issued, single.issued);
    assert_eq!(m.completed, single.completed);
    assert_eq!(m.errors, single.errors);
    assert_eq!(m.app_errors, single.app_errors);
    assert_eq!(m.timeouts, single.timeouts);
    assert_eq!(m.transport_errors, single.transport_errors);
    assert_eq!(m.shed, single.shed);
    assert_eq!(m.cold_starts, single.cold_starts);
    assert_eq!(m.per_kind, single.per_kind);
    assert_eq!(m.issued_per_minute, single.issued_per_minute);
    assert!(!m.aborted);
    assert_eq!(m.completed + m.errors + report.aborted_invocations, report.offered);

    // Both agents completed and together cover the schedule exactly.
    assert_eq!(report.shards, 2);
    assert_eq!(report.agents.len(), 2);
    assert!(report.agents.iter().all(|a| a.completed && a.status == "done"), "{:?}", report.agents);
    assert_eq!(report.agents.iter().map(|a| a.assigned).sum::<u64>(), report.offered);
    let names: Vec<&str> = report.agents.iter().map(|a| a.name.as_str()).collect();
    assert!(names.contains(&"agent-0") && names.contains(&"agent-1"), "{names:?}");
    assert!(report.reassignments.is_empty(), "nothing died; nothing reshards");
    assert!(report.abort_reasons.is_empty());

    // Captured spans merged across agents: one per offered request, and
    // the merged report reproduces the metrics.
    let spans = report
        .events
        .iter()
        .filter(|e| matches!(e, faasrail::telemetry::TelemetryEvent::Invocation(_)))
        .count();
    assert_eq!(spans as u64, report.offered, "no span lost or duplicated in the merge");
    let rr = report.run_report.as_ref().expect("capture_events builds a run report");
    assert_eq!(rr.issued, m.issued);
    assert_eq!(rr.completed, m.completed);
    assert_eq!(rr.timeouts, m.timeouts);
}

/// The tentpole claim: kill 1 of 3 agents at ~40% of its shard and the
/// fleet still completes 100% of the offered schedule via resharding —
/// zero aborted invocations, outcome partition and per-minute offered
/// series bit-identical to an unkilled (single-process) run.
#[test]
fn killing_one_of_three_reshards_to_survivors() {
    let (reqs, pool) = small_schedule(23);
    let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let cfg = fast_fleet_config(3, false);

    let report = std::thread::scope(|scope| {
        let run =
            scope.spawn(|| coordinator.run(&reqs, &pool, &cfg, &AtomicBool::new(false)).unwrap());
        for i in 0..2 {
            scope.spawn(move || {
                let agent_cfg = AgentConfig { name: format!("survivor-{i}"), ..Default::default() };
                run_agent_with(addr, &agent_cfg, |_| {
                    Ok(Arc::new(DeterministicBackend) as Arc<dyn Backend>)
                })
                .unwrap()
                .expect("survivors run to completion");
            });
        }
        // The victim: a scripted agent that truthfully reports ~40% of
        // its shard finished (outcomes the deterministic backend would
        // have produced), then crashes.
        scope.spawn(move || {
            let (_reader, mut writer, assignment) = impostor_handshake(addr, "victim");
            let shard_len = assignment.trace.requests.len();
            assert!(shard_len > 10, "victim's shard too small: {shard_len}");
            let watermark = shard_len * 2 / 5;
            let prefix = claimed_prefix(&assignment.trace, assignment.shard as u64, watermark);
            let snapshot = Snapshot {
                issued: prefix.watermark,
                completed: prefix.completed,
                errors: prefix.errors,
                cold_starts: prefix.cold_starts,
                ..Snapshot::default()
            };
            let progress = FleetMessage::Progress {
                shard: assignment.shard,
                snapshot,
                prefixes: vec![prefix],
                lag_ms: 0,
                max_lag_ms: 0,
                idle: false,
            };
            write_frame(&mut writer, &progress).unwrap();
            // Dropping both halves closes the socket: a crash, not a stall.
        });
        run.join().unwrap()
    });

    let single = replay(
        &reqs,
        &pool,
        &DeterministicBackend,
        &ReplayConfig { pacing: Pacing::Unpaced, workers: 3 },
    );

    let m = &report.metrics;
    assert_eq!(report.aborted_invocations, 0, "resharding leaves no aborted remainder");
    assert!(!m.aborted);
    assert_eq!(m.issued, single.issued);
    assert_eq!(m.completed, single.completed);
    assert_eq!(m.errors, single.errors);
    assert_eq!(m.app_errors, single.app_errors);
    assert_eq!(m.timeouts, single.timeouts);
    assert_eq!(m.shed, single.shed);
    assert_eq!(m.cold_starts, single.cold_starts);
    assert_eq!(m.per_kind, single.per_kind);
    assert_eq!(
        m.issued_per_minute, single.issued_per_minute,
        "per-minute offered series must be bit-identical to an unkilled run"
    );
    assert_eq!(m.completed + m.errors + report.aborted_invocations, report.offered);

    let victim = report.agents.iter().find(|a| a.name == "victim").unwrap();
    assert_eq!(victim.status, "crash");
    assert!(!victim.completed);
    assert!(!report.reassignments.is_empty(), "the victim's remainder was regranted");
    let regranted: u64 = report.reassignments.iter().map(|r| r.requests).sum();
    let watermark = victim.assigned as usize * 2 / 5;
    assert_eq!(regranted, victim.assigned - watermark as u64);
    assert!(report.reassignments.iter().all(|r| r.from_shard == victim.shard));
    let granted: u64 =
        report.agents.iter().filter(|a| a.name.starts_with("survivor")).map(|a| a.granted).sum();
    assert_eq!(granted, report.reassignments.len() as u64);
}

/// A connected-but-silent agent trips the lease and reshards just like a
/// crash — but with a distinguishable `stall` status.
#[test]
fn stalled_agent_is_detected_and_resharded() {
    let (reqs, pool) = small_schedule(24);
    let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let cfg = FleetConfig { lease_ms: 500, ..fast_fleet_config(2, false) };
    let done = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let run =
            scope.spawn(|| coordinator.run(&reqs, &pool, &cfg, &AtomicBool::new(false)).unwrap());
        scope.spawn(|| {
            let agent_cfg = AgentConfig { name: "survivor".into(), ..Default::default() };
            run_agent_with(addr, &agent_cfg, |_| {
                Ok(Arc::new(DeterministicBackend) as Arc<dyn Backend>)
            })
            .unwrap()
            .expect("survivor runs to completion");
        });
        let done = &done;
        scope.spawn(move || {
            // Handshake, then go silent while *keeping the socket open*.
            let (_reader, _writer, _assignment) = impostor_handshake(addr, "sleeper");
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let report = run.join().unwrap();
        done.store(true, Ordering::Release);
        report
    });

    assert_eq!(report.aborted_invocations, 0);
    assert_eq!(report.metrics.completed + report.metrics.errors, report.offered);
    let sleeper = report.agents.iter().find(|a| a.name == "sleeper").unwrap();
    assert_eq!(sleeper.status, "stall", "silence past the lease is a stall, not a crash");
    assert!(!report.reassignments.is_empty());
    assert_eq!(
        report.reassignments.iter().map(|r| r.requests).sum::<u64>(),
        sleeper.assigned,
        "the sleeper acked nothing, so its whole shard moves"
    );
}

/// Killing every agent cannot hang the run or lose accounting: the
/// coordinator terminates with the entire schedule aborted, and the
/// per-minute aborted series is exactly the offered schedule's.
#[test]
fn killing_every_agent_terminates_with_full_accounting() {
    let (reqs, pool) = small_schedule(25);
    let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let cfg = fast_fleet_config(2, false);

    let report = std::thread::scope(|scope| {
        let run =
            scope.spawn(|| coordinator.run(&reqs, &pool, &cfg, &AtomicBool::new(false)).unwrap());
        for i in 0..2 {
            scope.spawn(move || {
                // Crash the moment the run starts.
                let _ = impostor_handshake(addr, &format!("casualty-{i}"));
            });
        }
        run.join().unwrap()
    });

    assert_eq!(report.aborted_invocations, report.offered, "nothing ran anywhere");
    assert_eq!(report.metrics.issued, 0);
    assert!(report.metrics.aborted);
    assert!(report.agents.iter().all(|a| a.status == "crash"));
    let aborted_pm = report.aborted_per_minute.as_ref().expect("resharding runs track the series");
    assert_eq!(aborted_pm.iter().sum::<u64>(), report.offered);
    assert_eq!(aborted_pm, &per_minute(&reqs), "aborted minute-by-minute == offered schedule");
}

/// A protocol-version mismatch is refused with a clean `Abort` naming
/// both versions, and the coordinator reports the handshake failure.
#[test]
fn version_mismatch_is_refused_with_abort() {
    let (reqs, pool) = small_schedule(26);
    let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let cfg = fast_fleet_config(1, false);

    std::thread::scope(|scope| {
        let run = scope.spawn(|| coordinator.run(&reqs, &pool, &cfg, &AtomicBool::new(false)));
        scope.spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let hello = FleetMessage::Hello {
                name: "time-traveler".into(),
                wall_us: wall_clock_us(),
                proto: 999,
                resume_token: None,
            };
            write_frame(&mut writer, &hello).unwrap();
            match read_frame(&mut reader).unwrap().unwrap() {
                FleetMessage::Abort { reason } => {
                    assert!(reason.contains("999") && reason.contains("version"), "{reason}");
                }
                other => panic!("expected abort, got {other:?}"),
            }
        });
        let err = run.join().unwrap().expect_err("mismatched agent fails the handshake");
        assert!(err.to_string().contains("protocol version mismatch"), "{err}");
    });
}

/// An agent that loses the coordinator link reconnects with the resume
/// token from its `HelloAck` and serves grants as fresh capacity. The
/// coordinator here is scripted so the test controls the link loss.
#[test]
fn agent_rejoins_with_resume_token_and_serves_grants() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
    let mini = |n: u64| RequestTrace {
        duration_minutes: 1,
        requests: (0..n)
            .map(|i| Request { at_ms: i * 10, workload: WorkloadId(0), function_index: 4 })
            .collect(),
    };
    let assignment = |trace: RequestTrace, pool: &WorkloadPool| Assignment {
        shard: 0,
        shards: 1,
        pacing: Pacing::Unpaced,
        workers: 2,
        capture_events: false,
        progress_every_ms: 50,
        target: None,
        trace,
        pool: pool.clone(),
        event_capacity: 0,
    };

    std::thread::scope(|scope| {
        let (pool, mini, assignment) = (&pool, &mini, &assignment);
        let script = scope.spawn(move || {
            let expect_hello =
                |reader: &mut BufReader<TcpStream>| match read_frame(reader).unwrap().unwrap() {
                    FleetMessage::Hello { proto, resume_token, .. } => {
                        assert_eq!(proto, PROTOCOL_VERSION);
                        resume_token
                    }
                    other => panic!("expected hello, got {other:?}"),
                };
            // Connection 1: admit, assign, start — then hang up.
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            assert_eq!(expect_hello(&mut reader), None, "first contact has no resume token");
            let ack = FleetMessage::HelloAck {
                proto: PROTOCOL_VERSION,
                token: "tok-1".into(),
                lease_ms: 5_000,
            };
            write_frame(&mut writer, &ack).unwrap();
            write_frame(
                &mut writer,
                &FleetMessage::Assign { assignment: assignment(mini(5), pool) },
            )
            .unwrap();
            match read_frame(&mut reader).unwrap().unwrap() {
                FleetMessage::Ready { requests: 5, .. } => {}
                other => panic!("expected ready for 5, got {other:?}"),
            }
            write_frame(&mut writer, &FleetMessage::Start { at_agent_wall_us: wall_clock_us() })
                .unwrap();
            drop(writer);
            drop(reader); // link lost

            // Connection 2: the rejoin. Same agent, token echoed back.
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            assert_eq!(
                expect_hello(&mut reader),
                Some("tok-1".into()),
                "rejoin presents the HelloAck token"
            );
            let ack = FleetMessage::HelloAck {
                proto: PROTOCOL_VERSION,
                token: "tok-2".into(),
                lease_ms: 5_000,
            };
            write_frame(&mut writer, &ack).unwrap();
            write_frame(
                &mut writer,
                &FleetMessage::Assign { assignment: assignment(mini(0), pool) },
            )
            .unwrap();
            match read_frame(&mut reader).unwrap().unwrap() {
                FleetMessage::Ready { requests: 0, .. } => {}
                other => panic!("expected empty ready, got {other:?}"),
            }
            write_frame(&mut writer, &FleetMessage::Start { at_agent_wall_us: wall_clock_us() })
                .unwrap();

            // Fresh capacity: hand it a grant, watch the prefix complete.
            let grant = Grant { id: 1 << 32, origin_shard: 7, elapsed_ms: 0, trace: mini(3) };
            write_frame(&mut writer, &FleetMessage::Reassign { grant }).unwrap();
            let mut acked = false;
            loop {
                match read_frame(&mut reader).unwrap().unwrap() {
                    FleetMessage::ReassignAck { grant: id, requests, .. } => {
                        assert_eq!(id, 1 << 32);
                        assert_eq!(requests, 3);
                        acked = true;
                    }
                    FleetMessage::Progress { prefixes, .. } => {
                        if let Some(p) = prefixes.iter().find(|p| p.work == 1 << 32) {
                            if p.watermark == 3 {
                                assert!(acked, "ack precedes completion");
                                assert!(p.is_consistent());
                                break;
                            }
                        }
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            write_frame(&mut writer, &FleetMessage::Finish).unwrap();
            loop {
                match read_frame(&mut reader).unwrap().unwrap() {
                    FleetMessage::Done { metrics, .. } => {
                        assert_eq!(metrics.issued, 3, "second session ran exactly the grant");
                        break;
                    }
                    FleetMessage::Progress { .. } => {}
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        });

        let agent_cfg = AgentConfig {
            name: "phoenix".into(),
            retry_delay: Duration::from_millis(50),
            max_rejoin_backoff: Duration::from_millis(200),
            ..Default::default()
        };
        let run = run_agent_with(addr, &agent_cfg, |_| {
            Ok(Arc::new(DeterministicBackend) as Arc<dyn Backend>)
        })
        .unwrap()
        .expect("rejoined agent finishes");
        assert_eq!(run.rejoined, 1, "exactly one link loss");
        assert_eq!(run.granted, 1, "served the regrant after rejoining");
        assert_eq!(run.metrics.issued, 3);
        script.join().unwrap();
    });
}

/// `--no-reshard` restores the pre-elastic semantics exactly: a lost
/// shard's remainder books as aborted from its last snapshot and nothing
/// is reassigned.
#[test]
fn no_reshard_degrades_to_aborted_remainder() {
    let (reqs, pool) = small_schedule(22);
    let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let cfg = FleetConfig { reshard: false, ..fast_fleet_config(2, false) };

    let report = std::thread::scope(|scope| {
        let run =
            scope.spawn(|| coordinator.run(&reqs, &pool, &cfg, &AtomicBool::new(false)).unwrap());
        scope.spawn(move || {
            let agent_cfg = AgentConfig { name: "survivor".into(), ..Default::default() };
            run_agent_with(addr, &agent_cfg, |_| {
                Ok(Arc::new(DeterministicBackend) as Arc<dyn Backend>)
            })
            .unwrap();
        });
        // An impostor that crashes the moment the run starts.
        scope.spawn(move || {
            let _ = impostor_handshake(addr, "crasher");
        });
        run.join().unwrap()
    });

    let crashed = report.agents.iter().find(|a| a.name == "crasher").expect("impostor in report");
    let survivor = report.agents.iter().find(|a| a.name == "survivor").expect("agent in report");
    assert!(!crashed.completed, "dead shard must be marked lost");
    assert_eq!(crashed.status, "crash");
    assert!(survivor.completed);
    assert_eq!(survivor.status, "done");

    // The dead shard never dispatched anything, so its entire assignment
    // is the aborted remainder — and the partition still balances.
    assert_eq!(report.aborted_invocations, crashed.assigned);
    assert!(report.aborted_invocations > 0, "crasher's shard must not be empty");
    assert!(report.reassignments.is_empty(), "no-reshard must not reassign");
    assert!(report.aborted_per_minute.is_none(), "pre-elastic accounting has no aborted series");
    let m = &report.metrics;
    assert!(m.aborted, "a degraded fleet run is marked aborted");
    assert_eq!(m.completed + m.errors, survivor.assigned);
    assert_eq!(m.completed + m.errors + report.aborted_invocations, report.offered);
}

/// An operator stop over the wire: every live agent is told to abort,
/// drains what is in flight and still reports `Done`; the run terminates
/// with the unfinished remainder booked as aborted and nothing regranted.
#[test]
fn operator_stop_drains_agents_and_balances_the_report() {
    let (reqs, pool) = small_schedule(27);
    let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let cfg = FleetConfig {
        pacing: Pacing::RealTime { compression: 1.0 },
        ..fast_fleet_config(2, false)
    };
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let run = scope.spawn(|| coordinator.run(&reqs, &pool, &cfg, &stop).unwrap());
        for i in 0..2 {
            scope.spawn(move || {
                let agent_cfg = AgentConfig { name: format!("agent-{i}"), ..Default::default() };
                run_agent_with(addr, &agent_cfg, |_| {
                    Ok(Arc::new(DeterministicBackend) as Arc<dyn Backend>)
                })
                .unwrap()
                .expect("a stopped agent still delivers its partial result");
            });
        }
        // Minutes of schedule at real-time pacing; stop it well inside.
        std::thread::sleep(Duration::from_millis(800));
        stop.store(true, Ordering::Release);
        run.join().unwrap()
    });

    let m = &report.metrics;
    assert!(report.aborted_invocations > 0, "the stop landed mid-schedule");
    assert!(m.aborted);
    assert_eq!(m.completed + m.errors + report.aborted_invocations, report.offered);
    assert!(report.agents.iter().all(|a| a.completed && a.status == "done"), "{:?}", report.agents);
    assert!(report.reassignments.is_empty(), "a stop cancels work, it does not move it");
}
