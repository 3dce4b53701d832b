//! Fleet mode: one coordinator sharding a replay across agent processes, and
//! the terminal view of its ops console.

use crate::args::{Args, Command, Opt};
use crate::offline::REQUESTS_FILE;
use crate::transport::{connect, warm_cache, ClientOpts};
use crate::{read_json, read_requests, write_file, write_json};
use faasrail_fleet::{
    fetch_state, render_top, run_agent_with, AgentConfig, Coordinator, FleetConfig,
};
use faasrail_gateway::BreakerConfig;
use faasrail_loadgen::Pacing;
use faasrail_workloads::WorkloadPool;
use std::time::Duration;

pub static COORDINATE: Command = Command {
    name: "fleet coordinate",
    about: "shard a replay across agent processes, start them together, merge their results",
    positionals: &[],
    opts: &[
        REQUESTS_FILE,
        Opt::req("pool", "FILE", "workload pool JSON, sent to the agents"),
        Opt::val("addr", "HOST:PORT", "127.0.0.1:7571", "where agents dial in"),
        Opt::val("agents", "N", "2", "agents to wait for; one shard each"),
        Opt::val("workers", "N", "4", "worker threads per agent"),
        Opt::val("compression", "X", "1", "time compression: X schedule seconds per second"),
        Opt::maybe(
            "target",
            "HOST:PORT",
            "gateway the agents replay against (default: in process)",
        ),
        Opt::maybe("events", "FILE", "write the agents' merged JSONL span log"),
        Opt::maybe("report-out", "FILE", "write the fleet report as JSON"),
        Opt::val("progress-ms", "T", "1000", "agents' progress (and heartbeat) interval"),
        Opt::val("start-delay-ms", "T", "500", "lead time of the synchronized start"),
        Opt::val("probes", "N", "7", "clock-offset probes per agent"),
        Opt::flag("live", "print a fleet-wide windowed progress line"),
        Opt::val("agent-timeout-s", "N", "30", "socket timeout of the join handshake"),
        Opt::val("lease-ms", "T", "5000", "silence after which a connected agent is stalled"),
        Opt::maybe("console", "HOST:PORT", "serve /state /metrics /healthz /dashboard here"),
    ],
    run: cmd_coordinate,
};

pub fn fleet_config(args: &Args) -> Result<FleetConfig, String> {
    Ok(FleetConfig {
        agents: args.count("agents")?,
        workers: args.count("workers")?,
        pacing: Pacing::RealTime { compression: args.positive("compression")? },
        capture_events: args.get("events").is_some(),
        progress_every_ms: args.num("progress-ms")?,
        start_delay_ms: args.num("start-delay-ms")?,
        target: args.get("target").map(str::to_string),
        probes: args.num("probes")?,
        live: args.flag("live"),
        agent_timeout: Duration::from_secs(args.num("agent-timeout-s")?),
        lease_ms: args.num("lease-ms")?,
    })
}

/// Blocks until every shard is done or lost.
fn cmd_coordinate(args: &Args) -> Result<(), String> {
    use std::sync::atomic::AtomicBool;

    let cfg = fleet_config(args)?;
    let pool: WorkloadPool = read_json(args.str("pool"))?;
    let reqs = read_requests(args, "requests", &pool)?;
    let mut coordinator = Coordinator::bind(args.str("addr")).map_err(|e| e.to_string())?;
    if let Some(addr) = args.get("console") {
        coordinator = coordinator.with_console(addr).map_err(|e| e.to_string())?;
    }
    if let Some(console) = coordinator.console_addr() {
        eprintln!(
            "fleet: ops console at http://{console} — \
             /state /metrics /healthz /dashboard (fleet top --coordinator {console})"
        );
    }
    eprintln!(
        "fleet: coordinating {} agents at {} — {} requests / {}-minute schedule, target={}",
        cfg.agents,
        coordinator.local_addr().map_err(|e| e.to_string())?,
        reqs.len(),
        reqs.duration_minutes,
        cfg.target.as_deref().unwrap_or("in-process"),
    );
    let report = coordinator
        .run(&reqs, &pool, &cfg, &AtomicBool::new(false))
        .map_err(|e| format!("fleet run: {e}"))?;

    if let Some(path) = args.get("events") {
        let mut out = String::new();
        for event in &report.events {
            out.push_str(&serde_json::to_string(event).map_err(|e| format!("serializing: {e}"))?);
            out.push('\n');
        }
        write_file(path, out)?;
        eprintln!("wrote {path}: {} merged events", report.events.len());
    }
    if let Some(path) = args.get("report-out") {
        write_json(path, &report)?;
        eprintln!("wrote {path}");
    }
    for a in &report.agents {
        eprintln!(
            "fleet: shard {} ({}) assigned={} granted={} status={}{} max-lag={}ms \
             clock-offset={:.0}us(+/-{:.0}us)",
            a.shard,
            a.name,
            a.assigned,
            a.granted,
            a.status,
            if a.rejoined { " (rejoined)" } else { "" },
            a.max_lag_ms,
            a.clock.offset_us,
            a.clock.error_us,
        );
    }
    if !report.reassignments.is_empty() {
        eprintln!(
            "fleet: {} reassignment grant(s) issued — {}",
            report.reassignments.len(),
            report
                .reassignments
                .iter()
                .map(|r| format!(
                    "{}→{} ({} reqs, {})",
                    r.from_shard, r.to_shard, r.requests, r.reason
                ))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    for reason in &report.abort_reasons {
        eprintln!("fleet: abort reason: {reason}");
    }
    if report.max_lag_ms > 0 {
        eprintln!("fleet: worst offered-vs-achieved pacing lag {}ms", report.max_lag_ms);
    }
    let m = &report.metrics;
    println!(
        "fleet: shards={} offered={} issued={} completed={} errors={} aborted={} \
         cold={} p50={:.1}ms p99={:.1}ms",
        report.shards,
        report.offered,
        m.issued,
        m.completed,
        m.errors,
        report.aborted_invocations,
        m.cold_starts,
        m.response_quantile_ms(0.5),
        m.response_quantile_ms(0.99),
    );
    println!("outcomes: {}", m.outcome_breakdown());
    if report.aborted_invocations > 0 {
        return Err(format!(
            "{} of {} offered invocations never ran (lost agents or abort)",
            report.aborted_invocations, report.offered
        ));
    }
    Ok(())
}

pub static AGENT: Command = Command {
    name: "fleet agent",
    about: "serve one shard; trace, pool, pacing and target arrive from the coordinator",
    positionals: &[],
    opts: &[
        Opt::req("coordinator", "HOST:PORT", "the coordinator's --addr"),
        Opt::maybe("name", "NAME", "name in the fleet report (default: agent@<its address>)"),
        Opt::val("timeout-ms", "T", "30000", "deadline per invocation, when the run has a target"),
        Opt::val("attempts", "N", "4", "attempts per invocation, when the run has a target"),
        Opt::val("max-rejoin-backoff-ms", "T", "5000", "cap of the reconnect backoff"),
    ],
    run: cmd_agent,
};

pub fn agent_config(args: &Args) -> Result<(AgentConfig, ClientOpts), String> {
    let cfg = AgentConfig {
        name: args.get("name").unwrap_or_default().to_string(),
        max_rejoin_backoff: Duration::from_millis(args.num("max-rejoin-backoff-ms")?),
        ..AgentConfig::default()
    };
    let client = ClientOpts {
        timeout_ms: args.num("timeout-ms")?,
        attempts: args.num("attempts")?,
        breaker: BreakerConfig::default(),
        mux: None,
    };
    Ok((cfg, client))
}

fn cmd_agent(args: &Args) -> Result<(), String> {
    let (cfg, client) = agent_config(args)?;
    let addr = args.str("coordinator");
    eprintln!("fleet agent: dialing coordinator at {addr}");
    let run = run_agent_with(addr, &cfg, |assignment| {
        Ok(match &assignment.target {
            Some(target) => {
                let client = connect(target, &client).map_err(std::io::Error::other)?;
                eprintln!("fleet agent: replaying against {target}");
                client
            }
            None => {
                eprintln!("fleet agent: in-process warm-cache backend");
                warm_cache(assignment.pool.clone())
            }
        })
    })
    .map_err(|e| format!("agent run: {e}"))?;

    match run {
        Some(r) => {
            println!(
                "fleet agent: shard {} done — issued={} completed={} errors={} aborted={} \
                 grants-taken={} rejoins={}",
                r.shard,
                r.metrics.issued,
                r.metrics.completed,
                r.metrics.errors,
                r.metrics.aborted,
                r.granted,
                r.rejoined,
            );
            Ok(())
        }
        None => Err("coordinator aborted the run before start".into()),
    }
}

pub static TOP: Command = Command {
    name: "fleet top",
    about: "live terminal view of a running fleet, from the coordinator's ops console",
    positionals: &[],
    opts: &[
        Opt::req("coordinator", "HOST:PORT", "the coordinator's --console address"),
        Opt::val("interval-ms", "T", "1000", "redraw interval"),
        Opt::val("iterations", "N", "0", "frames to draw (0: until the run ends)"),
    ],
    run: cmd_top,
};

/// Redraws until the console stops answering (run over) or `--iterations`
/// frames have been drawn.
fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.str("coordinator");
    let interval = Duration::from_millis(args.num("interval-ms")?);
    let iterations: u64 = args.num("iterations")?;
    let mut drawn = 0u64;
    let mut misses = 0u32;
    loop {
        match fetch_state(addr, 0) {
            Ok(view) => {
                misses = 0;
                drawn += 1;
                // Clear screen + home, then one full frame: a plain redraw
                // keeps this usable under `watch`, pipes, and dumb terminals.
                print!("\x1b[2J\x1b[H{}", render_top(&view));
                use std::io::Write;
                std::io::stdout().flush().map_err(|e| e.to_string())?;
            }
            Err(e) => {
                misses += 1;
                if drawn == 0 && misses >= 3 {
                    return Err(format!("fleet top: no console at {addr}: {e}"));
                }
                if misses >= 3 {
                    eprintln!("fleet top: console at {addr} stopped answering ({e}) — run over");
                    return Ok(());
                }
            }
        }
        if iterations > 0 && drawn >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}
