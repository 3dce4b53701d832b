//! End-to-end ops console: a live fleet run with `--console` serves all
//! four HTTP endpoints, and killing an agent mid-run becomes visible in
//! `/state` (crash status + recorded reassignment) while the run is still
//! going — which is the whole point of an observability plane.
//!
//! Fleet topology: two real agents plus two scripted impostors. The
//! *victim* truthfully acks ~40% of its shard and crashes on signal; the
//! *holder* acks nothing and stays connected until the end, which keeps
//! the run (and therefore the console) alive while the test observes the
//! victim's death over HTTP. `fleet top`'s client half ([`fetch_state`] +
//! [`render_top`]) is exercised against the same live console.

mod common;

use common::{
    assert_valid_prometheus_0_0_4, claimed_prefix, impostor_handshake, small_schedule,
    DeterministicBackend,
};
use faasrail::fleet::{
    fetch_state, render_top, run_agent_with, write_frame, AgentConfig, Coordinator, FleetConfig,
    FleetMessage, StateView,
};
use faasrail::loadgen::{replay, Backend, Pacing, ReplayConfig};
use faasrail::telemetry::Snapshot;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One plain HTTP/1.0-style GET against the console, using the same
/// framing the server does. Returns `(status, content_type, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, Option<String>, Vec<u8>) {
    use faasrail::gateway::http::{read_response, write_request};
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write_request(&mut writer, "GET", path, "console", "application/json", b"", false).unwrap();
    let resp = read_response(&mut BufReader::new(stream)).unwrap();
    (resp.status, resp.content_type, resp.body)
}

fn get_state(addr: SocketAddr, since: u64) -> StateView {
    let (status, _, body) = http_get(addr, &format!("/state?since={since}"));
    assert_eq!(status, 200);
    serde_json::from_slice(&body).expect("/state body parses as StateView")
}

/// Poll `f` every 50 ms until it returns `Some`, or panic after `secs`.
fn poll_until<T>(secs: u64, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn live_console_serves_state_metrics_healthz_dashboard_and_shows_a_kill() {
    let (reqs, pool) = small_schedule(29);
    let coordinator =
        Coordinator::bind("127.0.0.1:0").unwrap().with_console("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let console = coordinator.console_addr().expect("pre-bound console address");
    let cfg = FleetConfig {
        agents: 4,
        workers: 3,
        pacing: Pacing::Unpaced,
        capture_events: false,
        progress_every_ms: 100,
        start_delay_ms: 100,
        target: None,
        probes: 3,
        live: false,
        agent_timeout: Duration::from_secs(10),
        lease_ms: 5_000,
        reshard: true,
        // Pre-bound via with_console: cfg.console stays None.
        console: None,
    };
    let drop_victim = AtomicBool::new(false);
    let drop_holder = AtomicBool::new(false);

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
        // The victim: truthfully acks ~40% of its shard in heartbeats,
        // then crashes (socket drop) when the test signals it.
        let victim_flag = &drop_victim;
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
            while !victim_flag.load(Ordering::Acquire) {
                let progress = FleetMessage::Progress {
                    shard: assignment.shard,
                    snapshot: snapshot.clone(),
                    prefixes: vec![prefix],
                    lag_ms: 0,
                    max_lag_ms: 0,
                    idle: false,
                };
                if write_frame(&mut writer, &progress).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            // Dropping both halves closes the socket: a crash, not a stall.
        });
        // The holder: acks nothing, keeps its socket open until signaled —
        // it holds the run open so the console stays up for the test.
        let holder_flag = &drop_holder;
        scope.spawn(move || {
            let (_reader, mut writer, assignment) = impostor_handshake(addr, "holder");
            let prefix = claimed_prefix(&assignment.trace, assignment.shard as u64, 0);
            while !holder_flag.load(Ordering::Acquire) {
                let progress = FleetMessage::Progress {
                    shard: assignment.shard,
                    snapshot: Snapshot::default(),
                    prefixes: vec![prefix],
                    lag_ms: 0,
                    max_lag_ms: 0,
                    idle: false,
                };
                if write_frame(&mut writer, &progress).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        // Phase 1: the console comes up with the whole fleet live and a
        // growing sample history.
        let view = poll_until(20, "4 live agents and 3 samples in /state", || {
            let view = get_state(console, 0);
            let live = view.agents.iter().filter(|a| a.is_live()).count();
            (live == 4 && view.samples.len() >= 3).then_some(view)
        });
        assert!(view.total.is_some(), "cumulative totals published");
        assert!(view.next >= 3);
        for name in ["survivor-0", "survivor-1", "victim", "holder"] {
            assert!(view.agents.iter().any(|a| a.name == name), "missing {name}: {view:?}");
        }
        // Windowed samples carry per-agent rows and monotonic cursors.
        let seqs: Vec<u64> = view.samples.iter().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "contiguous seqs: {seqs:?}");

        // The since cursor pages over HTTP exactly like the in-process API.
        let newer = poll_until(10, "a sample newer than the cursor", || {
            let v = get_state(console, view.next);
            (!v.samples.is_empty()).then_some(v)
        });
        assert!(newer.samples.iter().all(|s| s.seq > view.next), "cursor respected");
        assert!(!newer.dropped, "nothing evicted in a short run");
        assert_eq!(newer.agents.len(), 4, "agent rows present even on incremental polls");

        // Phase 2: /metrics is valid Prometheus 0.0.4 with per-agent labels.
        let (status, content_type, body) = http_get(console, "/metrics");
        assert_eq!(status, 200);
        assert_eq!(content_type.as_deref(), Some(faasrail::telemetry::prometheus::CONTENT_TYPE));
        let text = String::from_utf8(body).expect("metrics body is UTF-8");
        assert_valid_prometheus_0_0_4(&text);
        for name in ["survivor-0", "survivor-1", "victim", "holder"] {
            assert!(
                text.contains(&format!("faasrail_fleet_agent_issued_total{{agent=\"{name}\"}}")),
                "missing per-agent series for {name}:\n{text}"
            );
        }
        assert!(text.contains("faasrail_fleet_agents 4"), "{text}");
        assert!(text.contains("faasrail_fleet_agents_by_state{state=\"alive\"} 4"), "{text}");

        // Phase 3: /healthz mirrors the gateway probe shape.
        let (status, _, body) = http_get(console, "/healthz");
        assert_eq!(status, 200);
        let health = String::from_utf8(body).unwrap();
        assert!(health.starts_with("{\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"alive\":4"), "{health}");
        assert!(health.contains("\"crashed\":0"), "{health}");

        // Phase 4: /dashboard is one self-contained page.
        let (status, content_type, body) = http_get(console, "/dashboard");
        assert_eq!(status, 200);
        assert_eq!(content_type.as_deref(), Some("text/html; charset=utf-8"));
        let page = String::from_utf8(body).unwrap();
        assert!(page.contains("<canvas"), "dashboard draws sparklines");
        assert!(page.contains("/state?since="), "dashboard polls the state endpoint");
        assert!(
            !page.contains("http://") && !page.contains("https://"),
            "dashboard must carry no external assets"
        );
        assert_eq!(http_get(console, "/nope").0, 404);

        // Phase 5: `fleet top`'s client half renders the same data.
        let top = render_top(&fetch_state(&console.to_string(), 0).unwrap());
        for name in ["survivor-0", "survivor-1", "victim", "holder"] {
            assert!(top.contains(name), "fleet top must list {name}:\n{top}");
        }
        assert!(top.contains("4 agents (4 live)"), "{top}");
        assert!(top.contains("offered"), "{top}");

        // Phase 6: kill the victim; its crash and the salvage reassignment
        // must surface in /state within one lease interval.
        drop_victim.store(true, Ordering::Release);
        let crashed = poll_until(5, "victim crash visible in /state", || {
            let v = get_state(console, 0);
            let victim = v.agents.iter().find(|a| a.name == "victim")?.clone();
            (victim.status == "crash" && !v.reassignments.is_empty()).then_some((v, victim))
        });
        let (view, victim) = crashed;
        assert!(
            view.reassignments.iter().all(|r| r.from_shard == victim.shard),
            "only the victim has died so far: {:?}",
            view.reassignments
        );
        let regranted: u64 = view.reassignments.iter().map(|r| r.requests).sum();
        assert!(regranted > 0, "the victim's unfinished remainder was regranted");
        let health = String::from_utf8(http_get(console, "/healthz").2).unwrap();
        assert!(health.contains("\"crashed\":1"), "healthz tracks the crash: {health}");
        let top = render_top(&view);
        assert!(top.contains("crash"), "fleet top shows the crash:\n{top}");
        assert!(top.contains("reassignments:"), "fleet top shows the timeline:\n{top}");

        // Phase 7: release the holder; the fleet drains and completes.
        drop_holder.store(true, Ordering::Release);
        run.join().unwrap()
    });

    // The run still resolves the entire schedule: the victim's claimed
    // prefix plus resharded remainders add up to a partition identical to
    // a single-process replay.
    let single = replay(
        &reqs,
        &pool,
        &DeterministicBackend,
        &ReplayConfig { pacing: Pacing::Unpaced, workers: 3 },
    );
    let m = &report.metrics;
    assert_eq!(report.aborted_invocations, 0, "resharding leaves no aborted remainder");
    assert_eq!(m.issued, single.issued);
    assert_eq!(m.completed, single.completed);
    assert_eq!(m.errors, single.errors);
    assert_eq!(m.completed + m.errors, report.offered);
    let victim = report.agents.iter().find(|a| a.name == "victim").unwrap();
    assert_eq!(victim.status, "crash");
    let holder = report.agents.iter().find(|a| a.name == "holder").unwrap();
    assert_eq!(holder.status, "crash");
    assert!(!report.reassignments.is_empty());

    // The console's sampled history survives into the final report (PR 9):
    // bounded, windowed, monotonically sequenced — the perf-trajectory
    // record a post-mortem reads instead of re-scraping a dead console.
    let history = report.console_history.as_ref().expect("console run persists its history");
    assert!(!history.is_empty(), "at least the terminal sample is recorded");
    assert!(
        history.len() <= faasrail::fleet::DEFAULT_HISTORY_CAPACITY,
        "history stays bounded: {}",
        history.len()
    );
    assert!(history.windows(2).all(|w| w[0].seq < w[1].seq), "samples are ordered");
    assert!(!report.build.git_sha.is_empty(), "fleet report is build-stamped");
}
