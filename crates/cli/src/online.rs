//! The online tier: real-time replay, the gateway it can replay against, and
//! the report over the span logs both leave behind.

use crate::args::{Args, Command, Opt};
use crate::offline::{POOL, REQUESTS_FILE};
use crate::transport::{bind, connect, warm_cache, ClientOpts, MUX, MUX_DEPTH, SHARDS};
use crate::{read_json, write_file, write_json};
use faasrail_core::RequestTrace;
use faasrail_gateway::{BreakerConfig, FaultConfig, GatewayConfig};
use faasrail_loadgen::{Backend, Pacing, ReplayConfig};
use faasrail_telemetry::{SpanJoin, TelemetryEvent};
use faasrail_workloads::WorkloadPool;
use std::sync::Arc;
use std::time::Duration;

fn read_events(path: &str) -> Result<Vec<TelemetryEvent>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    faasrail_telemetry::parse_jsonl(std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))
}

/// One-line join summary shared by `replay --server-events` and
/// `report --server-log`.
fn join_summary(join: &SpanJoin) -> String {
    let [ok, app, timeout, transport, shed] = join.orphans_by_class;
    format!(
        "joined={} orphans={} (ok={ok} app-error={app} timeout={timeout} \
         transport={transport} shed={shed}) server-unmatched={} retries={} \
         clock-offset={:.0}us (+/-{:.0}us from {} pairs)",
        join.joined.len(),
        join.orphaned(),
        join.server_unmatched,
        join.extra_attempts,
        join.offset.offset_us,
        join.offset.error_us,
        join.offset.pairs,
    )
}

pub static REPLAY: Command = Command {
    name: "replay",
    about: "replay a request trace in real time, in process or against a gateway",
    positionals: &[],
    opts: &[
        REQUESTS_FILE,
        POOL,
        Opt::val("compression", "X", "1", "time compression: X schedule seconds per second"),
        Opt::val("workers", "N", "8", "worker threads issuing requests"),
        Opt::maybe("shard", "I/N", "replay only shard I of N (the fleet's partitioner)"),
        Opt::maybe("target", "HOST:PORT", "gateway to replay against (default: in process)"),
        Opt::val("timeout-ms", "T", "30000", "deadline per invocation").needs("target"),
        Opt::val("attempts", "N", "4", "attempts per invocation").needs("target"),
        Opt::val("breaker-threshold", "N", "0", "failures in a row that open it; 0: off")
            .needs("target"),
        Opt::val("breaker-open-ms", "T", "1000", "how long the breaker stays open").needs("target"),
        MUX.needs("target"),
        MUX_DEPTH,
        Opt::flag("live-metrics", "print a windowed progress line while replaying"),
        Opt::val("window-s", "N", "5", "seconds per window").needs("live-metrics"),
        Opt::maybe("events", "FILE", "write one JSONL span per invocation"),
        Opt::maybe("server-events", "FILE", "join with this serve --trace-out log").needs("events"),
        Opt::maybe("metrics-out", "FILE", "write the final RunMetrics as JSON"),
        Opt::maybe("prom-out", "FILE", "write the final metrics in Prometheus text format"),
    ],
    run: cmd_replay,
};

/// Everything `replay` reads that is a number, checked before any file is.
pub struct ReplayOpts {
    pub compression: f64,
    pub workers: usize,
    pub window_s: u64,
    pub client: ClientOpts,
}

pub fn replay_opts(args: &Args) -> Result<ReplayOpts, String> {
    Ok(ReplayOpts {
        compression: args.positive("compression")?,
        workers: args.count("workers")?,
        window_s: args.num::<u64>("window-s")?.max(1),
        client: ClientOpts {
            timeout_ms: args.num("timeout-ms")?,
            attempts: args.num("attempts")?,
            breaker: BreakerConfig::tripping(
                args.num("breaker-threshold")?,
                Duration::from_millis(args.num("breaker-open-ms")?),
            ),
            mux: ClientOpts::mux(args)?,
        },
    })
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    use faasrail_loadgen::{replay_observed, ReplayInstruments, ShardSpec};
    use faasrail_telemetry::{spawn_progress_printer, EventSink, JsonlSink, NullSink, Recorder};
    use std::sync::atomic::{AtomicBool, Ordering};

    let ReplayOpts { compression, workers, window_s, client: client_opts } = replay_opts(args)?;
    let cfg = ReplayConfig { pacing: Pacing::RealTime { compression }, workers };
    let shard = args.get("shard").map(ShardSpec::parse).transpose()?;
    let events_path = args.get("events");
    let mut reqs: RequestTrace = read_json(args.str("requests"))?;
    let pool: WorkloadPool = read_json(args.str("pool"))?;

    // `--shard I/N`: replay only this shard of the schedule (the same
    // deterministic partitioner fleet mode uses, so N manual replayers
    // exactly cover the schedule with no overlap).
    if let Some(shard) = shard {
        let full = reqs.requests.len();
        reqs = shard.filter(&reqs);
        eprintln!("replay: shard {shard} holds {} of {} requests", reqs.len(), full);
    }

    // Observability: optional JSONL event log, optional live windowed
    // metrics (one shard per worker plus one for the pacer).
    let sink: Box<dyn EventSink> = match events_path {
        Some(path) => {
            Box::new(JsonlSink::create(path).map_err(|e| format!("creating {path}: {e}"))?)
        }
        None => Box::new(NullSink),
    };
    let live = args.flag("live-metrics");
    let recorder =
        (live || args.get("prom-out").is_some()).then(|| Arc::new(Recorder::new(workers + 1)));
    let stop = Arc::new(AtomicBool::new(false));
    let printer = live.then(|| {
        spawn_progress_printer(
            Arc::clone(recorder.as_ref().expect("live metrics imply a recorder")),
            Duration::from_secs(window_s),
            Arc::clone(&stop),
        )
    });
    let inst = ReplayInstruments { sink: sink.as_ref(), recorder: recorder.as_deref(), pace: None };

    eprintln!(
        "replay: {} requests / {}-minute schedule; pacing=realtime compression={}x workers={} \
         events={} live-metrics={}",
        reqs.len(),
        reqs.duration_minutes,
        compression,
        workers,
        events_path.unwrap_or("off"),
        if live { "on" } else { "off" },
    );

    let client = match args.get("target") {
        Some(target) => {
            let client = connect(target, &client_opts)?;
            let ClientOpts { timeout_ms, attempts, breaker, mux } = client_opts;
            eprintln!(
                "replay: target={target} timeout-ms={timeout_ms} attempts={attempts} \
                 breaker-threshold={} breaker-open-ms={}{}",
                breaker.failure_threshold,
                breaker.open_for.as_millis(),
                mux.map(|(connections, depth)| format!(" mux={connections} mux-depth={depth}"))
                    .unwrap_or_default()
            );
            Some(client)
        }
        None => {
            eprintln!("replay: backend=warm-cache (in-process)");
            None
        }
    };
    let backend: Arc<dyn Backend> = match &client {
        Some(client) => client.clone(),
        None => warm_cache(pool.clone()),
    };
    let m = replay_observed(&reqs, &pool, &backend, &cfg, &stop, &inst);
    if let Some(client) = &client {
        eprintln!("transport: {}", client.summary());
    }
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = printer {
        let _ = handle.join();
    }
    sink.flush();

    // Cross-tier join: merge our own span log with the gateway's
    // (`faasrail serve --trace-out`) right after the run.
    if let (Some(server_path), Some(client_path)) = (args.get("server-events"), events_path) {
        let client_events = read_events(client_path)?;
        let server_events = read_events(server_path)?;
        let join = faasrail_telemetry::join_spans(&client_events, &server_events);
        eprintln!("trace join: {}", join_summary(&join));
    }

    if let Some(path) = args.get("metrics-out") {
        write_json(path, &m)?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.get("prom-out") {
        let snap = recorder.as_ref().expect("prom-out implies a recorder").snapshot();
        write_file(path, snap.to_prometheus("faasrail_replay"))?;
        eprintln!("wrote {path}");
    }
    println!(
        "issued={} completed={} errors={} cold={} p50={:.1}ms p99={:.1}ms lateness_p99={:.2}ms",
        m.issued,
        m.completed,
        m.errors,
        m.cold_starts,
        m.response_quantile_ms(0.5),
        m.response_quantile_ms(0.99),
        m.lateness.quantile(0.99) * 1_000.0
    );
    println!("outcomes: {}", m.outcome_breakdown());
    Ok(())
}

pub static REPORT: Command = Command {
    name: "report",
    about: "digest JSONL span logs into a run report, optionally joined with the gateway's",
    positionals: &[],
    opts: &[
        Opt::req("events", "FILE", "client span log; several (one per fleet agent) merge").repeat(),
        Opt::maybe("metrics", "FILE", "RunMetrics JSON to cross-check the log against"),
        Opt::maybe(
            "server-log",
            "FILE",
            "gateway span log to join by trace id (serve --trace-out)",
        ),
        Opt::maybe("slowest", "N", "append the N worst end-to-end traces"),
        Opt::val("format", "FORMAT", "markdown", "markdown|json"),
        Opt::maybe("out", "FILE", "write the report here instead of stdout"),
    ],
    run: cmd_report,
};

/// Markdown table of the `n` worst end-to-end traces, cross-tier when a
/// server log was joined, client-only otherwise.
fn slowest_table(events: &[TelemetryEvent], join: Option<&SpanJoin>, n: usize) -> String {
    use faasrail_telemetry::{format_trace_id, slowest_client_spans};
    let mut out = String::from("\n## Slowest traces\n\n");
    match join {
        Some(join) => {
            out.push_str(
                "| trace | outcome | response | lateness | client queue | net out | gateway \
                 | service | net back | attempts |\n|---|---|---|---|---|---|---|---|---|---|\n",
            );
            for j in join.slowest(n) {
                let s = &j.stages;
                out.push_str(&format!(
                    "| {} | {} | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms \
                     | {:.1} ms | {} |\n",
                    format_trace_id(j.client.trace_id),
                    j.client.outcome.name(),
                    s.response_s * 1e3,
                    s.lateness_s * 1e3,
                    s.client_queue_s * 1e3,
                    s.net_out_s * 1e3,
                    s.gateway_s * 1e3,
                    s.service_s * 1e3,
                    s.net_back_s * 1e3,
                    j.attempts,
                ));
            }
        }
        None => {
            out.push_str(
                "| trace | outcome | response | queue wait | service |\n|---|---|---|---|---|\n",
            );
            for s in slowest_client_spans(events, n) {
                out.push_str(&format!(
                    "| {} | {} | {:.1} ms | {:.1} ms | {:.1} ms |\n",
                    format_trace_id(s.trace_id),
                    s.outcome.name(),
                    s.response_s() * 1e3,
                    s.queue_wait_s() * 1e3,
                    s.service_ms,
                ));
            }
        }
    }
    out
}

/// With `--metrics`, the log is cross-checked against the replay's final
/// `RunMetrics` so silent event loss is caught instead of papered over.
/// Several `--events` logs merge into one stream: headers and trailers
/// combine, spans dedupe by trace id and order by timestamp. With
/// `--server-log`, the gateway's spans are joined by trace id into a
/// cross-tier six-stage decomposition.
fn cmd_report(args: &Args) -> Result<(), String> {
    use faasrail_telemetry::{merge_event_logs, RunReport};

    let slowest: Option<usize> = args.num_opt("slowest")?;
    let json = match args.str("format") {
        "markdown" | "md" => false,
        "json" => true,
        f => return Err(format!("unknown format {f} (try markdown|json)")),
    };
    let paths = args.all("events");
    let events = if paths.len() == 1 {
        read_events(paths[0])?
    } else {
        let logs = paths.iter().map(|p| read_events(p)).collect::<Result<Vec<_>, _>>()?;
        let spans_in: usize = logs.iter().map(Vec::len).sum();
        let merged = merge_event_logs(&logs);
        eprintln!(
            "merged {} event logs: {} events in, {} out (duplicate trace ids folded)",
            logs.len(),
            spans_in,
            merged.len()
        );
        merged
    };
    let (report, join): (RunReport, Option<SpanJoin>) = match args.get("server-log") {
        Some(server_path) => {
            let server_events = read_events(server_path)?;
            let (report, join) = RunReport::with_server_events(&events, &server_events);
            eprintln!("trace join: {}", join_summary(&join));
            (report, Some(join))
        }
        None => (RunReport::from_events(&events), None),
    };

    if let Some(mpath) = args.get("metrics") {
        let m: faasrail_loadgen::RunMetrics = read_json(mpath)?;
        let checks = [
            ("issued", report.issued, m.issued),
            ("completed", report.completed, m.completed),
            ("app_errors", report.app_errors, m.app_errors),
            ("timeouts", report.timeouts, m.timeouts),
            ("transport_errors", report.transport_errors, m.transport_errors),
            ("shed", report.shed, m.shed),
            ("cold_starts", report.cold_starts, m.cold_starts),
        ];
        let mismatches: Vec<String> = checks
            .iter()
            .filter(|(_, from_log, from_metrics)| from_log != from_metrics)
            .map(|(name, from_log, from_metrics)| {
                format!("{name}: event log {from_log} vs metrics {from_metrics}")
            })
            .collect();
        if !mismatches.is_empty() {
            return Err(format!("event log disagrees with {mpath}: {}", mismatches.join("; ")));
        }
        eprintln!("event log agrees with {mpath} on every outcome counter");
    }

    let table = slowest.map(|n| slowest_table(&events, join.as_ref(), n)).unwrap_or_default();
    let rendered = if json {
        // JSON stays machine-parseable; the trace dump goes to stderr.
        eprint!("{table}");
        serde_json::to_string_pretty(&report).map_err(|e| format!("serializing report: {e}"))?
    } else {
        report.to_markdown() + &table
    };
    match args.get("out") {
        Some(out) => {
            write_file(out, rendered)?;
            eprintln!("wrote {out}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

pub static SERVE: Command = Command {
    name: "serve",
    about: "expose a backend over HTTP for networked replay; runs until killed",
    positionals: &[],
    opts: &[
        Opt::val("addr", "HOST:PORT", "127.0.0.1:7471", "listen address (port 0: ephemeral)"),
        Opt::val("backend", "NAME", "warm-cache", "warm-cache (needs --pool)|in-process|noop"),
        Opt::flag("reactor", "epoll event-loop server instead of a thread per connection"),
        SHARDS,
        Opt::maybe("pool", "FILE", "workload pool JSON, from build-pool"),
        Opt::val("conn-workers", "N", "64", "handler threads"),
        Opt::val("queue-cap", "N", "64", "admission queue bound; beyond it requests get 429"),
        Opt::val("read-timeout-s", "N", "30", "idle keep-alive connections close after this"),
        Opt::val("head-timeout-s", "N", "10", "a request head must arrive within this"),
        Opt::maybe("trace-out", "FILE", "write one JSONL server span per invocation"),
        Opt::val("drop-frac", "X", "0", "fraction of invocations dropped mid-request"),
        Opt::val("error-frac", "X", "0", "fraction answered with an injected 500"),
        Opt::val("stall-frac", "X", "0", "fraction black-holed for --stall-ms, then closed"),
        Opt::val("stall-ms", "T", "1000", "how long a stalled connection is held"),
        Opt::val("latency-frac", "X", "0", "fraction delayed by --latency-ms, then answered"),
        Opt::val("latency-ms", "T", "100", "injected straggler delay"),
        Opt::val("fault-seed", "N", "1", "seed of the fault stream"),
    ],
    run: cmd_serve,
};

/// The gateway's configuration. The four fault bands partition `[0, 1)` in
/// `FaultConfig::decide`, so each is a fraction and together they fit in 1.
pub fn gateway_config(args: &Args) -> Result<GatewayConfig, String> {
    let fault = FaultConfig {
        drop_fraction: args.fraction("drop-frac")?,
        error_fraction: args.fraction("error-frac")?,
        stall_fraction: args.fraction("stall-frac")?,
        stall_ms: args.num("stall-ms")?,
        latency_fraction: args.fraction("latency-frac")?,
        latency_ms: args.num("latency-ms")?,
        seed: args.num("fault-seed")?,
    };
    let total =
        fault.drop_fraction + fault.error_fraction + fault.stall_fraction + fault.latency_fraction;
    if total > 1.0 {
        return Err(format!(
            "--drop-frac, --error-frac, --stall-frac and --latency-frac of `faasrail serve` \
             sum to {total}: at most 1"
        ));
    }
    Ok(GatewayConfig {
        workers: args.count("conn-workers")?,
        queue_capacity: args.num("queue-cap")?,
        read_timeout: Duration::from_secs(args.num("read-timeout-s")?),
        head_read_timeout: Duration::from_secs(args.num("head-timeout-s")?),
        fault,
    })
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let cfg = gateway_config(args)?;
    let shards = args.flag("reactor").then(|| args.num("shards")).transpose()?;
    let backend: Arc<dyn Backend> = match args.str("backend") {
        "warm-cache" => {
            let path =
                args.get("pool").ok_or("`faasrail serve --backend warm-cache` needs --pool")?;
            warm_cache(read_json(path)?)
        }
        "in-process" => Arc::new(faasrail_loadgen::InProcessBackend),
        "noop" => Arc::new(faasrail_loadgen::NoopBackend),
        b => return Err(format!("unknown backend {b} (try warm-cache|in-process|noop)")),
    };
    let name = backend.name().to_string();
    let trace_sink: Option<Arc<dyn faasrail_telemetry::EventSink>> = match args.get("trace-out") {
        Some(path) => {
            // Autoflush so the span log stays parseable even if the server
            // is killed rather than shut down (the usual way a serve run
            // ends).
            let sink = faasrail_telemetry::JsonlSink::create_autoflush(path)
                .map_err(|e| format!("creating {path}: {e}"))?;
            eprintln!("serve: tracing server spans to {path}");
            Some(Arc::new(sink))
        }
        None => None,
    };
    let server = bind(args.str("addr"), backend, cfg, shards, trace_sink)?;
    let f = &cfg.fault;
    eprintln!(
        "serve: backend={name} at http://{} (conn-workers={} queue-cap={} read-timeout-s={} \
         head-timeout-s={}{})",
        server.addr,
        cfg.workers,
        cfg.queue_capacity,
        cfg.read_timeout.as_secs(),
        cfg.head_read_timeout.as_secs(),
        shards.map(|n| format!(" reactor shards={n}")).unwrap_or_default(),
    );
    eprintln!(
        "serve: faults: drop={} error={} stall={}@{}ms latency={}@{}ms seed={}",
        f.drop_fraction,
        f.error_fraction,
        f.stall_fraction,
        f.stall_ms,
        f.latency_fraction,
        f.latency_ms,
        f.seed
    );
    eprintln!(
        "serve: endpoints POST /invoke, GET /healthz, GET /stats, GET /metrics; ctrl-c to stop"
    );
    server.run();
    Ok(())
}
