//! `faasrail` — the command-line interface to the shrink ray and the load
//! generator.
//!
//! ```text
//! faasrail gen-trace  --kind azure|huawei [--scale small|paper] [--seed N] --out trace.json
//! faasrail build-pool [--measure] --out pool.json
//! faasrail shrink     --trace t.json --pool p.json --minutes N --max-rps X
//!                     [--minute-range START] [--iat poisson|uniform|equidistant]
//!                     [--threshold 0.1] --out spec.json
//! faasrail requests   --spec spec.json [--seed N] --out reqs.json
//! faasrail smirnov    --trace t.json --pool p.json --invocations N --rate X
//!                     [--seed N] --out reqs.json
//! faasrail simulate   --requests r.json --pool p.json [--nodes N] [--cores N]
//!                     [--policy fixed-ttl|lru|greedy-dual|hybrid-histogram]
//!                     [--balancer round-robin|least-loaded|warm-first|hash]
//!                     [--crash-node N --crash-at-ms T] [--slow-node N --slow-factor X]
//! faasrail replay     --requests r.json --pool p.json [--compression X] [--workers N]
//!                     [--shard I/N]
//!                     [--target HOST:PORT [--timeout-ms N] [--attempts N]
//!                      [--breaker-threshold N] [--breaker-open-ms T]
//!                      [--mux CONNS [--mux-depth N]]]   # multiplexed pipelined client
//!                     [--live-metrics [--window-s N]] [--events spans.jsonl]
//!                     [--server-events server.jsonl]
//!                     [--metrics-out metrics.json] [--prom-out metrics.prom]
//! faasrail report     --events spans.jsonl [--events more.jsonl ...]
//!                     [--metrics metrics.json]
//!                     [--server-log server.jsonl] [--slowest N]
//!                     [--format markdown|json] [--out report.md]
//! faasrail fleet coordinate
//!                     --requests r.json --pool p.json [--addr 127.0.0.1:7571]
//!                     [--agents N] [--workers N] [--compression X]
//!                     [--target HOST:PORT] [--events merged.jsonl]
//!                     [--report-out fleet.json] [--progress-ms T]
//!                     [--start-delay-ms T] [--agent-timeout-s N] [--live]
//!                     [--lease-ms T] [--no-reshard] [--console ADDR]
//! faasrail fleet agent
//!                     --coordinator HOST:PORT [--name NAME]
//!                     [--timeout-ms N] [--attempts N]
//!                     [--max-rejoin-backoff-ms T] [--no-rejoin]
//! faasrail fleet top  --coordinator ADDR   # the coordinator's --console address
//!                     [--interval-ms T] [--iterations N]  # N=0: until the run ends
//! faasrail serve      [--addr 127.0.0.1:7471] [--backend warm-cache|in-process|noop]
//!                     [--reactor [--shards N]]    # epoll event-loop server
//!                     [--pool p.json] [--conn-workers N] [--queue-cap N]
//!                     [--read-timeout-s N] [--head-timeout-s N] [--trace-out server.jsonl]
//!                     [--drop-frac X] [--error-frac X]
//!                     [--stall-frac X] [--stall-ms T] [--latency-frac X]
//!                     [--latency-ms T] [--fault-seed N]
//! faasrail lab run    [--scale small|paper] [--seed N] [--pool p.json]
//!                     [--policies a,b,..] [--balancers a,b,..] [--seeds a,b,..]
//!                     [--parallel N] [--nodes N] [--cores N] [--memory-mb X]
//!                     [--jitter X] [--iat poisson|uniform|equidistant|bursty]
//!                     [--out report.json] [--md report.md]
//!                     [--bench-out bench.json] [--bench-name NAME]
//! faasrail bench saturate
//!                     [--target HOST:PORT]        # default: self-hosted loopback noop gateway
//!                     [--reactor [--shards N]]    # self-host the epoll server instead
//!                     [--mux CONNS [--mux-depth N]]   # multiplexed pipelined client
//!                     [--p99-ms 50] [--max-error-rate 0.001] [--max-lateness-ms 100]
//!                     [--start-rps 64] [--max-rps 65536] [--resolution-rps 16]
//!                     [--max-probes 24] [--duration-s 2] [--workers N] [--poisson]
//!                     [--seed N] [--timeout-ms 1000] [--pool p.json] [--workload-id N]
//!                     [--name NAME] [--out BENCH_gateway.json]
//! faasrail bench fixed
//!                     [--rps R --rps R ...]       # the measurement ladder (default: 200)
//!                     [--target HOST:PORT] [--reactor [--shards N]]
//!                     [--mux CONNS [--mux-depth N]]
//!                     [--duration-s 2] [--workers N] [--poisson]
//!                     [--seed N] [--timeout-ms 1000] [--pool p.json] [--workload-id N]
//!                     [--name NAME] [--out BENCH_gateway.json]
//! faasrail bench diff OLD.json NEW.json
//!                     [--threshold 0.10] [--advisory]   # advisory: report, never fail
//! faasrail calibrate  [--repeats N]
//! faasrail analyze    --trace t.json
//! faasrail compare    --a r1.json --b r2.json --pool p.json
//! faasrail evaluate   --trace t.json --requests r.json --pool p.json
//! faasrail export     --trace t.json --out-dir DIR   # real Azure CSV schema
//! ```
//!
//! IAT models accept `poisson`, `uniform`, `equidistant`, `bursty`, or
//! `bursty:<cv>` (the Cox-process extension).

mod args;

use args::Args;
use faasrail_core::{
    generate_requests, shrink, IatModel, MappingConfig, RequestTrace, ShrinkRayConfig,
    SmirnovConfig, TimeScaling,
};
use faasrail_faas_sim::{
    simulate, ClusterConfig, KeepAlivePolicy, LoadBalancer, NodeFault, SimOptions,
    WarmCacheBackend, WarmCacheConfig,
};
use faasrail_loadgen::{Pacing, ReplayConfig};
use faasrail_trace::azure::AzureTraceConfig;
use faasrail_trace::huawei::HuaweiTraceConfig;
use faasrail_trace::Trace;
use faasrail_workloads::calibrate::{quick_calibration, CalibrationOptions};
use faasrail_workloads::{CostModel, WorkloadKind, WorkloadPool};
use std::fs;
use std::process::ExitCode;

const USAGE: &str = "usage: faasrail <gen-trace|build-pool|shrink|requests|smirnov|simulate|replay|report|serve|fleet coordinate|fleet agent|fleet top|lab run|bench saturate|bench fixed|bench diff|calibrate|analyze|compare|evaluate|export> [options]
run with a bad option to see each command's requirements; see crate docs for the full grammar";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let s = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&s).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let s = serde_json::to_string(value).map_err(|e| format!("serializing: {e}"))?;
    fs::write(path, s).map_err(|e| format!("writing {path}: {e}"))
}

fn read_events(path: &str) -> Result<Vec<faasrail_telemetry::TelemetryEvent>, String> {
    let file = fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    faasrail_telemetry::parse_jsonl(std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))
}

/// One-line join summary shared by `replay --server-events` and
/// `report --server-log`.
fn join_summary(join: &faasrail_telemetry::SpanJoin) -> String {
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

/// Markdown table of the `n` worst end-to-end traces, cross-tier when a
/// server log was joined, client-only otherwise.
fn slowest_table(
    events: &[faasrail_telemetry::TelemetryEvent],
    join: Option<&faasrail_telemetry::SpanJoin>,
    n: usize,
) -> String {
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

fn run(args: &Args) -> Result<(), String> {
    // Only `bench diff OLD NEW` has a positional grammar; everywhere else
    // a bare word is a usage mistake, not input.
    if args.command != "bench diff" {
        args.no_positionals()?;
    }
    match args.command.as_str() {
        "gen-trace" => gen_trace(args),
        "build-pool" => build_pool(args),
        "shrink" => cmd_shrink(args),
        "requests" => cmd_requests(args),
        "smirnov" => cmd_smirnov(args),
        "simulate" => cmd_simulate(args),
        "replay" => cmd_replay(args),
        "report" => cmd_report(args),
        "serve" => cmd_serve(args),
        "fleet coordinate" => cmd_fleet_coordinate(args),
        "fleet agent" => cmd_fleet_agent(args),
        "fleet top" => cmd_fleet_top(args),
        "lab run" => cmd_lab_run(args),
        "bench saturate" => cmd_bench_run(args, true),
        "bench fixed" => cmd_bench_run(args, false),
        "bench diff" => cmd_bench_diff(args),
        "calibrate" => cmd_calibrate(args),
        "analyze" => cmd_analyze(args),
        "evaluate" => cmd_evaluate(args),
        "export" => cmd_export(args),
        "compare" => cmd_compare(args),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

/// `faasrail evaluate --trace t.json --requests r.json --pool p.json` —
/// score a generated request trace against a production trace on the
/// paper's four critical statistical properties.
fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let trace: Trace = read_json(args.require("trace")?)?;
    let requests: RequestTrace = read_json(args.require("requests")?)?;
    let pool: WorkloadPool = read_json(args.require("pool")?)?;
    let r = faasrail_core::evaluate(&trace, &requests, &pool);
    println!("property (i)   KS distinct-workload durations : {:.4}", r.ks_workload_durations);
    println!("property (ii)  |top-1% share error|           : {:.4}", r.top1_share_error);
    println!("               |top-10% share error|          : {:.4}", r.top10_share_error);
    println!("property (iii) KS invocation durations        : {:.4}", r.ks_invocation_durations);
    println!("property (iv)  load-shape MAE                 : {:.4}", r.load_shape_mae);
    println!("               burstiness ratio (gen/trace)   : {:.3}", r.burstiness_ratio);
    println!("worst distribution distance                   : {:.4}", r.worst_distance());
    Ok(())
}

/// `faasrail export --trace t.json --out-dir DIR` — write a trace in the
/// real Azure CSV schema (interop with other Azure-schema tools).
fn cmd_export(args: &Args) -> Result<(), String> {
    use faasrail_trace::writer;
    let trace: Trace = read_json(args.require("trace")?)?;
    let dir = std::path::Path::new(args.require("out-dir")?);
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: &str, f: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        let mut buf = Vec::new();
        f(&mut buf).map_err(|e| format!("{name}: {e}"))?;
        let path = dir.join(name);
        fs::write(&path, buf).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("invocations_per_function.csv", &|b| writer::write_invocations(&trace, b))?;
    write("function_durations.csv", &|b| writer::write_durations(&trace, b))?;
    write("app_memory.csv", &|b| writer::write_memory(&trace, b))?;
    eprintln!(
        "exported {} functions / {} apps to {}",
        trace.functions.len(),
        trace.apps.len(),
        dir.display()
    );
    Ok(())
}

/// `faasrail analyze --trace t.json` — print the critical statistical
/// properties of a trace (the quantities FaaSRail preserves).
fn cmd_analyze(args: &Args) -> Result<(), String> {
    use faasrail_stats::timeseries::{fano_factor, peak};
    use faasrail_trace::summarize;
    let trace: Trace = read_json(args.require("trace")?)?;
    faasrail_trace::validate(&trace).map_err(|e| e.to_string())?;

    println!(
        "kind: {:?}; functions: {}; apps: {}",
        trace.kind,
        trace.functions.len(),
        trace.apps.len()
    );
    println!("invocations (selected day): {}", trace.total_invocations());

    let fe = summarize::functions_duration_ecdf(&trace);
    println!(
        "function durations ms: p10 {:.1}  p50 {:.1}  p90 {:.1}  p99 {:.1}  (sub-second: {:.1}%)",
        fe.quantile(0.10),
        fe.quantile(0.50),
        fe.quantile(0.90),
        fe.quantile(0.99),
        fe.eval(1_000.0) * 100.0
    );
    let we = summarize::invocations_duration_wecdf(&trace);
    println!("invocation durations: sub-second {:.1}%", we.eval(1_000.0) * 100.0);
    for frac in [0.01, 0.08, 0.20] {
        println!(
            "top {:>4.1}% of functions hold {:.1}% of invocations",
            frac * 100.0,
            summarize::top_share(&trace, frac) * 100.0
        );
    }
    let agg = trace.aggregate_minutes();
    let (peak_minute, peak_count) = peak(&agg).unwrap_or((0, 0));
    println!(
        "load: peak {} req/min at minute {}; per-minute Fano {:.1}",
        peak_count,
        peak_minute,
        fano_factor(&agg)
    );
    let breakdown = summarize::trigger_breakdown(&trace);
    let parts: Vec<String> =
        breakdown.iter().map(|(k, v)| format!("{k} {:.1}%", v * 100.0)).collect();
    println!("triggers by invocation share: {}", parts.join(", "));
    let sel = faasrail_core::dayselect::select_day(&trace, 0.8);
    println!(
        "day-sampling safety: CV(dur)<1 for {:.1}%, CV(inv)<1 for {:.1}% → single day safe: {}",
        sel.stable_duration_fraction * 100.0,
        sel.stable_invocations_fraction * 100.0,
        sel.single_day_safe
    );
    Ok(())
}

/// `faasrail compare --a r1.json --b r2.json --pool p.json` — how close are
/// two request traces, in the properties that matter?
fn cmd_compare(args: &Args) -> Result<(), String> {
    use faasrail_stats::ecdf::WeightedEcdf;
    use faasrail_stats::{ks_distance_weighted, timeseries::normalize_peak};
    let a: RequestTrace = read_json(args.require("a")?)?;
    let b: RequestTrace = read_json(args.require("b")?)?;
    let pool: WorkloadPool = read_json(args.require("pool")?)?;

    let wa = WeightedEcdf::new(a.expected_durations(&pool).into_iter().map(|d| (d, 1.0)));
    let wb = WeightedEcdf::new(b.expected_durations(&pool).into_iter().map(|d| (d, 1.0)));
    println!("requests: a={} b={}", a.len(), b.len());
    println!("KS(expected invocation durations) = {:.4}", ks_distance_weighted(&wa, &wb));

    // Load-shape comparison over the common duration.
    let minutes = a.duration_minutes.min(b.duration_minutes);
    if minutes > 0 {
        let na = normalize_peak(&a.per_minute_counts()[..minutes]);
        let nb = normalize_peak(&b.per_minute_counts()[..minutes]);
        let mae: f64 = na.iter().zip(&nb).map(|(x, y)| (x - y).abs()).sum::<f64>() / minutes as f64;
        println!("load-shape mean abs error over {minutes} common minutes = {mae:.4}");
    }

    let ca = a.counts_by_kind(&pool);
    let cb = b.counts_by_kind(&pool);
    println!("{:<18} {:>8} {:>8}", "benchmark", "a %", "b %");
    for kind in WorkloadKind::ALL {
        let fa = ca.get(&kind).copied().unwrap_or(0) as f64 / a.len().max(1) as f64;
        let fb = cb.get(&kind).copied().unwrap_or(0) as f64 / b.len().max(1) as f64;
        println!("{:<18} {:>7.2}% {:>7.2}%", kind.name(), fa * 100.0, fb * 100.0);
    }
    Ok(())
}

fn gen_trace(args: &Args) -> Result<(), String> {
    let seed = args.num("seed", 42u64)?;
    let scale = args.get_or("scale", "small");
    let trace = match args.get_or("kind", "azure") {
        "azure" => {
            let cfg = match scale {
                "paper" => AzureTraceConfig::paper_scale(seed),
                "small" => AzureTraceConfig::small(seed),
                s => return Err(format!("unknown scale {s}")),
            };
            faasrail_trace::azure::generate(&cfg)
        }
        "huawei" => {
            let cfg = match scale {
                "paper" => HuaweiTraceConfig::paper_scale(seed),
                "small" => HuaweiTraceConfig::small(seed),
                s => return Err(format!("unknown scale {s}")),
            };
            faasrail_trace::huawei::generate(&cfg)
        }
        k => return Err(format!("unknown trace kind {k}")),
    };
    let out = args.require("out")?;
    write_json(out, &trace)?;
    eprintln!(
        "wrote {out}: {} functions, {} invocations on the selected day",
        trace.functions.len(),
        trace.total_invocations()
    );
    Ok(())
}

fn build_pool(args: &Args) -> Result<(), String> {
    let model = if args.flag("measure") {
        eprintln!("measuring kernel warm times (quick calibration)...");
        quick_calibration(&CalibrationOptions::default())
    } else {
        CostModel::default_calibration()
    };
    let pool = WorkloadPool::build_modelled(&model);
    let out = args.require("out")?;
    write_json(out, &pool)?;
    eprintln!("wrote {out}: {} workloads from {} benchmarks", pool.len(), WorkloadKind::ALL.len());
    Ok(())
}

fn parse_iat(s: &str) -> Result<IatModel, String> {
    match s {
        "poisson" => Ok(IatModel::Poisson),
        "uniform" => Ok(IatModel::UniformRandom),
        "equidistant" => Ok(IatModel::Equidistant),
        "bursty" => Ok(IatModel::Bursty { cv: 1.5 }),
        _ => match s.strip_prefix("bursty:").map(str::parse::<f64>) {
            Some(Ok(cv)) if cv >= 0.0 => Ok(IatModel::Bursty { cv }),
            _ => {
                Err(format!("unknown iat model {s} (try poisson|uniform|equidistant|bursty[:cv])"))
            }
        },
    }
}

fn cmd_shrink(args: &Args) -> Result<(), String> {
    let trace: Trace = read_json(args.require("trace")?)?;
    let pool: WorkloadPool = read_json(args.require("pool")?)?;
    let minutes = args.num("minutes", 120usize)?;
    let max_rps = args.num("max-rps", 20.0f64)?;
    let mut cfg = ShrinkRayConfig::new(minutes, max_rps);
    if let Some(start) = args.get("minute-range") {
        let start = start.parse().map_err(|_| "invalid --minute-range")?;
        cfg.time_scaling = TimeScaling::MinuteRange { start, experiment_minutes: minutes };
    }
    cfg.iat = parse_iat(args.get_or("iat", "poisson"))?;
    cfg.mapping = MappingConfig {
        error_threshold: args.num("threshold", 0.10f64)?,
        ..MappingConfig::default()
    };
    let (spec, report) = shrink(&trace, &pool, &cfg).map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    write_json(out, &spec)?;
    eprintln!(
        "wrote {out}: {} requests / {} minutes (peak {}/min); {} functions → {} Functions; \
         mapping weighted error {:.2}%; day-sampling safe: {}",
        spec.total_requests(),
        spec.duration_minutes,
        spec.peak_per_minute(),
        report.trace_functions,
        report.aggregated_functions,
        report.mapping.weighted_rel_error * 100.0,
        report.day.single_day_safe
    );
    Ok(())
}

fn cmd_requests(args: &Args) -> Result<(), String> {
    let spec = read_json(args.require("spec")?)?;
    let seed = args.num("seed", 42u64)?;
    let reqs = generate_requests(&spec, seed);
    let out = args.require("out")?;
    write_json(out, &reqs)?;
    eprintln!("wrote {out}: {} timestamped requests", reqs.len());
    Ok(())
}

fn cmd_smirnov(args: &Args) -> Result<(), String> {
    let trace: Trace = read_json(args.require("trace")?)?;
    let pool: WorkloadPool = read_json(args.require("pool")?)?;
    let cfg = SmirnovConfig {
        num_invocations: args.num("invocations", 120_408usize)?,
        rate_rps: args.num("rate", 20.0f64)?,
        iat: parse_iat(args.get_or("iat", "poisson"))?,
        mapping: MappingConfig::default(),
        seed: args.num("seed", 42u64)?,
    };
    let (reqs, report) = faasrail_core::smirnov::generate(&trace, &pool, &cfg);
    let out = args.require("out")?;
    write_json(out, &reqs)?;
    eprintln!(
        "wrote {out}: {} requests; {:.1}% mapped within threshold; per-kind: {:?}",
        reqs.len(),
        report.within_threshold_fraction * 100.0,
        report.counts_by_kind.iter().map(|(k, c)| (k.name(), *c)).collect::<Vec<_>>()
    );
    Ok(())
}

fn parse_policy(s: &str) -> Result<Box<dyn KeepAlivePolicy>, String> {
    Ok(faasrail_faas_sim::PolicyKind::parse(s)?.build())
}

fn parse_balancer(s: &str) -> Result<Box<dyn LoadBalancer>, String> {
    Ok(faasrail_faas_sim::BalancerKind::parse(s)?.build())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let reqs: RequestTrace = read_json(args.require("requests")?)?;
    let pool: WorkloadPool = read_json(args.require("pool")?)?;
    let cluster = ClusterConfig {
        nodes: args.num("nodes", 4usize)?,
        cores_per_node: args.num("cores", 16usize)?,
        ..Default::default()
    };
    let mut policy = parse_policy(args.get_or("policy", "fixed-ttl"))?;
    let mut balancer = parse_balancer(args.get_or("balancer", "warm-first"))?;
    let mut node_faults = Vec::new();
    if let Some(node) = args.get("crash-node") {
        let node = node.parse().map_err(|_| "invalid --crash-node")?;
        let at: u64 = args.num("crash-at-ms", 0u64)?;
        node_faults.push(NodeFault { node, crash_at_ms: Some(at), ..Default::default() });
    }
    if let Some(node) = args.get("slow-node") {
        let node = node.parse().map_err(|_| "invalid --slow-node")?;
        let factor: f64 = args.num("slow-factor", 2.0f64)?;
        node_faults.push(NodeFault { node, slow_factor: factor, ..Default::default() });
    }
    let m = simulate(
        &reqs,
        &pool,
        &cluster,
        balancer.as_mut(),
        policy.as_mut(),
        &SimOptions { service_jitter_sigma: args.num("jitter", 0.0f64)?, seed: 0, node_faults },
    );
    println!(
        "policy={} balancer={} completions={} cold={:.2}% p50={:.1}ms p99={:.1}ms \
         util={:.1}% idle_mem={:.0}MiB starved={} killed={} sandboxes_lost={}",
        m.policy,
        m.balancer,
        m.completions,
        m.cold_start_fraction() * 100.0,
        m.response.quantile(0.5) * 1_000.0,
        m.response.quantile(0.99) * 1_000.0,
        m.utilization() * 100.0,
        m.mean_idle_memory_mb(),
        m.starved,
        m.killed,
        m.sandboxes_lost
    );
    Ok(())
}

/// `faasrail lab run` — the parallel experiment runner: build a
/// full-fidelity one-day schedule model from a synthetic Azure trace, then
/// sweep a (policy × balancer × seed) grid of simulations over it, one
/// cell per worker. Arrivals are expanded lazily per cell, so even the
/// paper-scale day (49.7K functions, ~908M invocations) never exists as a
/// materialized request trace.
fn cmd_lab_run(args: &Args) -> Result<(), String> {
    use faasrail_faas_sim::{BalancerKind, PolicyKind};
    use faasrail_lab::{run_lab, BenchRecord, LabConfig};

    let scale_env = std::env::var("FAASRAIL_SCALE").ok();
    let scale = args.get("scale").or(scale_env.as_deref()).unwrap_or("small");
    let seed = args.num("seed", 42u64)?;
    let trace_cfg = match scale {
        "paper" => AzureTraceConfig::paper_scale(seed),
        "small" => AzureTraceConfig::small(seed),
        s => return Err(format!("unknown scale {s} (expected small or paper)")),
    };

    let pool = match args.get("pool") {
        Some(path) => read_json(path)?,
        None => WorkloadPool::build_modelled(&CostModel::default_calibration()),
    };

    // Trace → schedule model; the trace itself is dropped before any cell
    // runs, so peak memory is the model plus per-cell simulator state.
    let iat = parse_iat(args.get_or("iat", "poisson"))?;
    let model = {
        let trace = faasrail_trace::azure::generate(&trace_cfg);
        eprintln!(
            "lab: {} trace has {} functions, {} invocations on day {}",
            scale,
            trace.functions.len(),
            trace.total_invocations(),
            trace_cfg.selected_day,
        );
        faasrail_core::ScheduleModel::from_trace_day(&trace, &pool, &MappingConfig::default(), iat)
            .map_err(|e| format!("building schedule model: {e}"))?
    };

    let parse_names = |key: &str, default: &str| -> Vec<String> {
        args.get_or(key, default).split(',').map(str::trim).map(str::to_string).collect()
    };
    let mut policies = Vec::new();
    for name in parse_names("policies", "fixed-ttl,hybrid-histogram") {
        policies.push(PolicyKind::parse(&name)?);
    }
    let mut balancers = Vec::new();
    for name in parse_names("balancers", "warm-first") {
        balancers.push(BalancerKind::parse(&name)?);
    }
    let mut seeds = Vec::new();
    for s in parse_names("seeds", "42") {
        seeds.push(s.parse::<u64>().map_err(|_| format!("invalid seed {s}"))?);
    }

    // Scale-appropriate virtual cluster. The paper-scale day averages
    // ~10.5K rps of multi-second invocations (~28K cores of mean demand),
    // so it gets ~64K virtual cores — roomy enough that queues track the
    // diurnal peaks instead of growing without bound; the small day
    // (~23 rps) still wants a couple hundred cores for the same reason.
    // The split into 8 fat nodes is history, kept so committed results
    // stay comparable: the balancers read an incrementally maintained
    // cluster index, so `--nodes` changes what is simulated (per-node
    // memory pressure, queueing behind few cores), not how fast.
    let (def_nodes, def_cores, def_mem) = match scale {
        "paper" => (8usize, 8_192usize, 4_194_304.0f64),
        _ => (8, 32, 65_536.0),
    };
    let cfg = LabConfig {
        scale: scale.to_string(),
        policies,
        balancers,
        seeds,
        cluster: ClusterConfig {
            nodes: args.num("nodes", def_nodes)?,
            cores_per_node: args.num("cores", def_cores)?,
            memory_mb_per_node: args.num("memory-mb", def_mem)?,
            ..Default::default()
        },
        parallel: args.num("parallel", 0usize)?,
        service_jitter_sigma: args.num("jitter", 0.0f64)?,
    };

    let n_cells = cfg.cells().len();
    eprintln!(
        "lab: {} cells ({} policies x {} balancers x {} seeds) on {} nodes x {} cores; \
         {} scheduled arrivals/cell",
        n_cells,
        cfg.policies.len(),
        cfg.balancers.len(),
        cfg.seeds.len(),
        cfg.cluster.nodes,
        cfg.cluster.cores_per_node,
        model.entries.iter().map(|e| e.total()).sum::<u64>(),
    );
    let (report, stats) = run_lab(&model, &pool, &cfg);

    eprintln!(
        "lab: done — {} cells, {} arrivals, {} events in {:.1}s ({:.2}M events/s, {} workers)",
        stats.cells,
        stats.arrivals,
        stats.events,
        stats.wall_ms as f64 / 1_000.0,
        stats.events_per_sec() / 1e6,
        stats.workers,
    );
    for r in &report.aggregates {
        eprintln!(
            "lab: {}/{}: cold-start rate {:.4}, idle mem {:.0} MiB, p99 {:.1} ms, starved {}",
            r.policy,
            r.balancer,
            r.mean_cold_start_rate,
            r.mean_idle_memory_mb,
            r.mean_p99_response_ms,
            r.total_starved,
        );
    }

    if let Some(out) = args.get("out") {
        let s = serde_json::to_string_pretty(&report).map_err(|e| format!("serializing: {e}"))?;
        fs::write(out, s).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("lab: wrote report {out}");
    }
    if let Some(md) = args.get("md") {
        fs::write(md, report.to_markdown()).map_err(|e| format!("writing {md}: {e}"))?;
        eprintln!("lab: wrote markdown {md}");
    }
    if let Some(bench) = args.get("bench-out") {
        // Re-emitted through the shared trajectory schema so the sim and
        // gateway BENCH files diff with the same `bench diff` gate.
        let rec = BenchRecord::from_stats(args.get_or("bench-name", "lab"), scale, &stats);
        let report = faasrail_bench::harness::sim_report(&rec);
        fs::write(bench, report.to_json()).map_err(|e| format!("writing {bench}: {e}"))?;
        eprintln!("lab: wrote bench report {bench} ({})", report.schema);
    }
    Ok(())
}

/// `faasrail bench saturate|fixed` — the online-tier benchmark harness.
///
/// Runs open-loop fixed-rate rungs (coordinated-omission-correct: pacer
/// lateness is measured, bounded, and disqualifying) against a gateway
/// over real TCP, and writes the result through the shared
/// `faasrail-bench/v1` trajectory schema. With no `--target`, a loopback
/// noop-backend gateway is self-hosted so the command measures the
/// gateway + client stack in isolation, reproducibly.
fn cmd_bench_run(args: &Args, saturate: bool) -> Result<(), String> {
    use faasrail_bench::harness::{
        run_fixed_rate, saturation_search, AcceptCriteria, BenchReport, BenchWorkload,
        FixedRateSpec, SearchConfig,
    };
    use faasrail_gateway::{
        BreakerConfig, Gateway, GatewayConfig, HttpBackend, HttpBackendConfig, MuxConfig,
        MuxHttpBackend, ReactorGateway, RetryPolicy,
    };
    use faasrail_loadgen::{ArrivalProcess, Backend, InvocationRequest, InvocationResult};
    use faasrail_workloads::WorkloadId;
    use std::sync::Arc;

    // The harness is generic over `Backend`; both transports (per-request
    // pooled, multiplexed) route through one enum so the closure below has
    // a single concrete type.
    enum BenchBackend {
        Http(Box<HttpBackend>),
        Mux(MuxHttpBackend),
    }
    impl Backend for BenchBackend {
        fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
            match self {
                BenchBackend::Http(b) => b.invoke(req),
                BenchBackend::Mux(b) => b.invoke(req),
            }
        }
    }
    enum LocalHandle {
        Threaded(faasrail_gateway::GatewayHandle),
        Reactor(faasrail_gateway::ReactorHandle),
    }
    impl LocalHandle {
        fn stop(self) {
            match self {
                LocalHandle::Threaded(h) => h.stop(),
                LocalHandle::Reactor(h) => h.stop(),
            }
        }
    }

    let duration_s = args.num("duration-s", 2.0f64)?;
    let workers = args.num("workers", 8usize)?;
    let seed = args.num("seed", 42u64)?;
    let timeout_ms = args.num("timeout-ms", 1_000u64)?;
    let process =
        if args.flag("poisson") { ArrivalProcess::Poisson } else { ArrivalProcess::Uniform };
    let workload = WorkloadId(args.num("workload-id", 7u32)?);
    let pool: WorkloadPool = match args.get("pool") {
        Some(p) => read_json(p)?,
        None => WorkloadPool::vanilla(&CostModel::default_calibration()),
    };
    if pool.get(workload).is_none() {
        return Err(format!("workload id {} not in the pool", workload.0));
    }

    // Target: an external gateway, or a self-hosted loopback gateway with
    // the noop backend (stopped on exit) so the bench is one command.
    // `--reactor [--shards N]` self-hosts the epoll server instead of the
    // thread-per-connection one.
    let reactor = args.flag("reactor");
    let shards = args.num("shards", 1usize)?;
    let (target, target_desc, local) = match args.get("target") {
        Some(t) => (t.to_string(), t.to_string(), None),
        None if reactor => {
            let handle = ReactorGateway::bind_sharded(
                "127.0.0.1:0",
                Arc::new(faasrail_loadgen::NoopBackend),
                GatewayConfig::default(),
                shards,
            )
            .map_err(|e| format!("binding loopback reactor gateway: {e}"))?
            .spawn();
            let addr = handle.addr().to_string();
            eprintln!(
                "bench: self-hosted loopback reactor gateway (noop backend, {shards} shard(s)) \
                 at {addr}"
            );
            (
                addr.clone(),
                format!("{addr}/noop (self-hosted, reactor x{shards})"),
                Some(LocalHandle::Reactor(handle)),
            )
        }
        None => {
            let handle = Gateway::bind(
                "127.0.0.1:0",
                Arc::new(faasrail_loadgen::NoopBackend),
                GatewayConfig::default(),
            )
            .map_err(|e| format!("binding loopback gateway: {e}"))?
            .spawn();
            let addr = handle.addr().to_string();
            eprintln!("bench: self-hosted loopback gateway (noop backend) at {addr}");
            (
                addr.clone(),
                format!("{addr}/noop (self-hosted)"),
                Some(LocalHandle::Threaded(handle)),
            )
        }
    };

    // Client transport: `--mux N` drives a multiplexed fixed pool of N
    // pipelined connections from one reactor thread; default is the pooled
    // one-request-per-connection-at-a-time client. One attempt, no
    // breaker: a saturation probe must *see* every failure, not paper over
    // it with retries or fail fast around it (the mux client never
    // retries by construction).
    let backend = match args.get("mux") {
        Some(n) => {
            let connections: usize =
                n.parse().map_err(|_| format!("invalid value for --mux: {n}"))?;
            let mux_cfg = MuxConfig {
                connections,
                pipeline_depth: args.num("mux-depth", 32usize)?,
                request_timeout: std::time::Duration::from_millis(timeout_ms),
                ..MuxConfig::default()
            };
            eprintln!(
                "bench: multiplexed client ({} connections, pipeline depth {})",
                mux_cfg.connections, mux_cfg.pipeline_depth
            );
            BenchBackend::Mux(
                MuxHttpBackend::new(&target, mux_cfg)
                    .map_err(|e| format!("resolving {target}: {e}"))?,
            )
        }
        None => {
            let http_cfg = HttpBackendConfig {
                request_timeout: std::time::Duration::from_millis(timeout_ms),
                retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
                breaker: BreakerConfig::tripping(0, std::time::Duration::from_millis(1_000)),
                ..HttpBackendConfig::default()
            };
            BenchBackend::Http(Box::new(
                HttpBackend::connect(&target, http_cfg)
                    .map_err(|e| format!("resolving {target}: {e}"))?,
            ))
        }
    };

    let spec = |rps: f64| FixedRateSpec { rps, duration_s, workers, process, seed, workload };
    let arrivals = if args.flag("poisson") { "poisson" } else { "uniform" };
    let workload_spec = BenchWorkload {
        arrivals: arrivals.to_string(),
        duration_s,
        workers: workers as u64,
        seed,
        target: target_desc,
    };
    let default_name = if saturate { "gateway-saturate" } else { "gateway-fixed" };
    let mut report = BenchReport::new(args.get_or("name", default_name), "gateway", workload_spec);

    if saturate {
        let criteria = AcceptCriteria {
            p99_ms: args.num("p99-ms", 50.0f64)?,
            max_error_rate: args.num("max-error-rate", 0.001f64)?,
            max_lateness_p99_ms: args.num("max-lateness-ms", 100.0f64)?,
        };
        let search = SearchConfig {
            start_rps: args.num("start-rps", 64.0f64)?,
            max_rps: args.num("max-rps", 65_536.0f64)?,
            resolution_rps: args.num("resolution-rps", 16.0f64)?,
            max_probes: args.num("max-probes", 24usize)?,
        };
        eprintln!(
            "bench: saturation search start={} max={} (p99<={}ms err<={} lateness-p99<={}ms), \
             {}s per probe, {} workers, {} arrivals",
            search.start_rps,
            search.max_rps,
            criteria.p99_ms,
            criteria.max_error_rate,
            criteria.max_lateness_p99_ms,
            duration_s,
            workers,
            arrivals,
        );
        let (summary, runs) = saturation_search(
            |rps| {
                eprintln!("bench: probing {rps:.0} rps...");
                run_fixed_rate(&backend, &pool, &spec(rps))
            },
            &criteria,
            &search,
        );
        eprintln!(
            "bench: max sustained {:.0} rps after {} probes",
            summary.max_sustained_rps, summary.probes
        );
        report.runs = runs;
        report.saturation = Some(summary);
    } else {
        let mut rates: Vec<f64> = Vec::new();
        for r in args.get_all("rps") {
            rates.push(r.parse().map_err(|_| format!("invalid value for --rps: {r}"))?);
        }
        if rates.is_empty() {
            rates.push(200.0);
        }
        for rps in rates {
            eprintln!("bench: fixed-rate rung {rps:.0} rps for {duration_s}s...");
            report.runs.push(run_fixed_rate(&backend, &pool, &spec(rps)));
        }
    }

    if let Some(handle) = local {
        handle.stop();
    }
    let out = args.get_or("out", "BENCH_gateway.json");
    fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("bench: wrote {out}");
    print!("{}", report.to_markdown());
    Ok(())
}

/// `faasrail bench diff OLD NEW` — the perf-trajectory regression gate:
/// markdown delta table on stdout, nonzero exit when any shared metric
/// regresses past `--threshold` (unless `--advisory`).
fn cmd_bench_diff(args: &Args) -> Result<(), String> {
    use faasrail_bench::harness::{diff_reports, BenchReport};
    let pos = args.expect_positionals(2, "OLD.json NEW.json")?;
    let read = |path: &str| -> Result<BenchReport, String> {
        let s = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        BenchReport::from_json(&s).map_err(|e| format!("{path}: {e}"))
    };
    let old = read(&pos[0])?;
    let new = read(&pos[1])?;
    let threshold = args.num("threshold", 0.10f64)?;
    let diff = diff_reports(&old, &new)?;
    println!(
        "# bench diff: {} ({}) → {} ({})\n",
        old.name,
        old.env.build.short_sha(),
        new.name,
        new.env.build.short_sha(),
    );
    print!("{}", diff.to_markdown(threshold));
    let regressions = diff.regressions(threshold);
    if !regressions.is_empty() && !args.flag("advisory") {
        return Err(format!(
            "{} metric(s) regressed past the {:.0}% threshold",
            regressions.len(),
            threshold * 100.0
        ));
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    use faasrail_loadgen::{replay_observed, ReplayInstruments};
    use faasrail_telemetry::{spawn_progress_printer, EventSink, JsonlSink, NullSink, Recorder};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut reqs: RequestTrace = read_json(args.require("requests")?)?;
    let pool: WorkloadPool = read_json(args.require("pool")?)?;
    let compression = args.num("compression", 1.0f64)?;
    let workers = args.num("workers", 8usize)?;
    let cfg = ReplayConfig { pacing: Pacing::RealTime { compression }, workers };

    // `--shard I/N`: replay only this shard of the schedule (the same
    // deterministic partitioner fleet mode uses, so N manual replayers
    // exactly cover the schedule with no overlap).
    if let Some(spec) = args.get("shard") {
        let shard = faasrail_loadgen::ShardSpec::parse(spec)?;
        let full = reqs.requests.len();
        reqs = shard.filter(&reqs);
        eprintln!("replay: shard {shard} holds {} of {} requests", reqs.len(), full);
    }

    // Observability: optional JSONL event log, optional live windowed
    // metrics (one shard per worker plus one for the pacer).
    let sink: Box<dyn EventSink> = match args.get("events") {
        Some(path) => {
            Box::new(JsonlSink::create(path).map_err(|e| format!("creating {path}: {e}"))?)
        }
        None => Box::new(NullSink),
    };
    let live = args.flag("live-metrics");
    let recorder =
        (live || args.get("prom-out").is_some()).then(|| Arc::new(Recorder::new(workers + 1)));
    let stop = Arc::new(AtomicBool::new(false));
    let window_s = args.num("window-s", 5u64)?.max(1);
    let printer = live.then(|| {
        spawn_progress_printer(
            Arc::clone(recorder.as_ref().expect("live metrics imply a recorder")),
            std::time::Duration::from_secs(window_s),
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
        args.get_or("events", "off"),
        if live { "on" } else { "off" },
    );

    let m = if let Some(target) = args.get("target") {
        use faasrail_gateway::{
            BreakerConfig, HttpBackend, HttpBackendConfig, MuxConfig, MuxHttpBackend, RetryPolicy,
        };
        let timeout_ms = args.num("timeout-ms", 30_000u64)?;
        let attempts = args.num("attempts", 4u32)?;
        if let Some(n) = args.get("mux") {
            // Multiplexed transport: one reactor thread drives a fixed pool
            // of pipelined connections; no retries, no breaker (every
            // failure surfaces in the outcome breakdown).
            let connections: usize =
                n.parse().map_err(|_| format!("invalid value for --mux: {n}"))?;
            let mux_cfg = MuxConfig {
                connections,
                pipeline_depth: args.num("mux-depth", 32usize)?,
                request_timeout: std::time::Duration::from_millis(timeout_ms),
                ..MuxConfig::default()
            };
            let depth = mux_cfg.pipeline_depth;
            let backend = MuxHttpBackend::new(target, mux_cfg)
                .map_err(|e| format!("resolving {target}: {e}"))?;
            eprintln!(
                "replay: target={target} timeout-ms={timeout_ms} mux={connections} \
                 mux-depth={depth}"
            );
            let m = replay_observed(&reqs, &pool, &backend, &cfg, &stop, &inst);
            eprintln!("transport: {}", backend.summary());
            m
        } else {
            let breaker_threshold = args.num("breaker-threshold", 0u32)?;
            let breaker_open_ms = args.num("breaker-open-ms", 1_000u64)?;
            let http_cfg = HttpBackendConfig {
                request_timeout: std::time::Duration::from_millis(timeout_ms),
                retry: RetryPolicy { max_attempts: attempts, ..RetryPolicy::default() },
                breaker: BreakerConfig::tripping(
                    breaker_threshold,
                    std::time::Duration::from_millis(breaker_open_ms),
                ),
                ..HttpBackendConfig::default()
            };
            let backend = HttpBackend::connect(target, http_cfg)
                .map_err(|e| format!("resolving {target}: {e}"))?;
            eprintln!(
                "replay: target={target} timeout-ms={timeout_ms} attempts={attempts} \
                 breaker-threshold={breaker_threshold} breaker-open-ms={breaker_open_ms}"
            );
            let m = replay_observed(&reqs, &pool, &backend, &cfg, &stop, &inst);
            eprintln!("transport: {}", backend.transport_summary());
            m
        }
    } else {
        let backend = WarmCacheBackend::new(pool.clone(), WarmCacheConfig::default());
        eprintln!("replay: backend=warm-cache (in-process)");
        replay_observed(&reqs, &pool, &backend, &cfg, &stop, &inst)
    };
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = printer {
        let _ = handle.join();
    }
    sink.flush();

    // Cross-tier join: merge our own span log with the gateway's
    // (`faasrail serve --trace-out`) right after the run.
    if let Some(server_path) = args.get("server-events") {
        let client_path = args
            .get("events")
            .ok_or("--server-events needs --events (the client span log to join against)")?;
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
        fs::write(path, snap.to_prometheus("faasrail_replay"))
            .map_err(|e| format!("writing {path}: {e}"))?;
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

/// `faasrail report --events spans.jsonl [--metrics metrics.json]
/// [--server-log server.jsonl] [--slowest N]` — digest a JSONL telemetry
/// log into a run report (markdown or JSON), optionally cross-checking the
/// log against the replay's final `RunMetrics` so silent event loss is
/// caught instead of papered over. `--events` repeats: multiple client
/// logs (one per fleet agent) merge into one stream — headers and trailers
/// combine, spans dedupe by trace id and order by timestamp. With
/// `--server-log`, the gateway's span log (`faasrail serve --trace-out`)
/// is joined by trace id into a cross-tier six-stage decomposition;
/// `--slowest N` appends the N worst end-to-end traces.
fn cmd_report(args: &Args) -> Result<(), String> {
    use faasrail_telemetry::{merge_event_logs, RunReport, SpanJoin};

    let paths = args.require_all("events")?;
    let events = if paths.len() == 1 {
        read_events(&paths[0])?
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

    let slowest = args.get("slowest").map(|_| args.num("slowest", 10usize)).transpose()?;
    let rendered = match args.get_or("format", "markdown") {
        "markdown" | "md" => {
            let mut md = report.to_markdown();
            if let Some(n) = slowest {
                md.push_str(&slowest_table(&events, join.as_ref(), n));
            }
            md
        }
        "json" => {
            // JSON stays machine-parseable; the trace dump goes to stderr.
            if let Some(n) = slowest {
                eprint!("{}", slowest_table(&events, join.as_ref(), n));
            }
            serde_json::to_string_pretty(&report).map_err(|e| format!("serializing report: {e}"))?
        }
        f => return Err(format!("unknown format {f} (try markdown|json)")),
    };
    match args.get("out") {
        Some(out) => {
            fs::write(out, rendered).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// `faasrail serve` — expose a backend over HTTP for networked replay
/// (`faasrail replay --target`). Blocks until killed.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use faasrail_gateway::{FaultConfig, Gateway, GatewayConfig, ReactorGateway};
    use std::sync::Arc;
    let cfg = GatewayConfig {
        workers: args.num("conn-workers", 64usize)?,
        queue_capacity: args.num("queue-cap", 64usize)?,
        read_timeout: std::time::Duration::from_secs(args.num("read-timeout-s", 30u64)?),
        head_read_timeout: std::time::Duration::from_secs(args.num("head-timeout-s", 10u64)?),
        fault: FaultConfig {
            drop_fraction: args.num("drop-frac", 0.0f64)?,
            error_fraction: args.num("error-frac", 0.0f64)?,
            stall_fraction: args.num("stall-frac", 0.0f64)?,
            stall_ms: args.num("stall-ms", 1_000u64)?,
            latency_fraction: args.num("latency-frac", 0.0f64)?,
            latency_ms: args.num("latency-ms", 100u64)?,
            seed: args.num("fault-seed", 1u64)?,
        },
    };
    let backend: Arc<dyn faasrail_loadgen::Backend> = match args.get_or("backend", "warm-cache") {
        "warm-cache" => {
            let pool: WorkloadPool = read_json(args.require("pool")?)?;
            Arc::new(WarmCacheBackend::new(pool, WarmCacheConfig::default()))
        }
        "in-process" => Arc::new(faasrail_loadgen::InProcessBackend),
        "noop" => Arc::new(faasrail_loadgen::NoopBackend),
        b => return Err(format!("unknown backend {b} (try warm-cache|in-process|noop)")),
    };
    let name = backend.name().to_string();
    let cfg_banner = format!(
        "conn-workers={} queue-cap={} read-timeout-s={}",
        cfg.workers,
        cfg.queue_capacity,
        cfg.read_timeout.as_secs()
    );
    let f = &cfg.fault;
    let fault_banner = format!(
        "faults: drop={} error={} stall={}@{}ms latency={}@{}ms seed={}",
        f.drop_fraction,
        f.error_fraction,
        f.stall_fraction,
        f.stall_ms,
        f.latency_fraction,
        f.latency_ms,
        f.seed
    );
    let addr = args.get_or("addr", "127.0.0.1:7471");
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
    if args.flag("reactor") {
        let shards = args.num("shards", 1usize)?;
        let mut gateway = ReactorGateway::bind_sharded(addr, backend, cfg, shards)
            .map_err(|e| format!("binding reactor gateway: {e}"))?;
        if let Some(sink) = trace_sink {
            gateway = gateway.with_trace_sink(sink);
        }
        eprintln!(
            "serve: backend={name} at http://{} ({cfg_banner} reactor shards={shards})",
            gateway.local_addr()
        );
        eprintln!("serve: {fault_banner}");
        eprintln!(
            "serve: endpoints POST /invoke, GET /healthz, GET /stats, GET /metrics; ctrl-c to stop"
        );
        gateway.run();
        return Ok(());
    }
    let mut gateway =
        Gateway::bind(addr, backend, cfg).map_err(|e| format!("binding gateway: {e}"))?;
    if let Some(sink) = trace_sink {
        gateway = gateway.with_trace_sink(sink);
    }
    eprintln!("serve: backend={name} at http://{} ({cfg_banner})", gateway.local_addr());
    eprintln!("serve: {fault_banner}");
    eprintln!(
        "serve: endpoints POST /invoke, GET /healthz, GET /stats, GET /metrics; ctrl-c to stop"
    );
    gateway.run();
    Ok(())
}

/// `faasrail fleet coordinate` — drive N agent processes through one
/// sharded, start-synchronized replay and merge their results into a
/// fleet report. Blocks until every shard is done or lost.
fn cmd_fleet_coordinate(args: &Args) -> Result<(), String> {
    use faasrail_fleet::{Coordinator, FleetConfig};
    use std::sync::atomic::AtomicBool;

    let reqs: RequestTrace = read_json(args.require("requests")?)?;
    let pool: WorkloadPool = read_json(args.require("pool")?)?;
    let events_out = args.get("events");
    let cfg = FleetConfig {
        agents: args.num("agents", 2usize)?,
        workers: args.num("workers", 4usize)?,
        pacing: Pacing::RealTime { compression: args.num("compression", 1.0f64)? },
        capture_events: events_out.is_some(),
        progress_every_ms: args.num("progress-ms", 1_000u64)?,
        start_delay_ms: args.num("start-delay-ms", 500u64)?,
        target: args.get("target").map(str::to_string),
        probes: args.num("probes", 7u32)?,
        live: args.flag("live"),
        agent_timeout: std::time::Duration::from_secs(args.num("agent-timeout-s", 30u64)?),
        lease_ms: args.num("lease-ms", 5_000u64)?,
        reshard: !args.flag("no-reshard"),
        console: args.get("console").map(str::to_string),
    };
    let coordinator =
        Coordinator::bind(args.get_or("addr", "127.0.0.1:7571")).map_err(|e| e.to_string())?;
    if let Some(console) = &cfg.console {
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

    if let Some(path) = events_out {
        let mut out = String::new();
        for event in &report.events {
            out.push_str(&serde_json::to_string(event).map_err(|e| format!("serializing: {e}"))?);
            out.push('\n');
        }
        fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
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

/// `faasrail fleet agent --coordinator HOST:PORT` — serve one shard. The
/// assignment (trace, pool, pacing, target) arrives over the wire; this
/// process needs no local files.
fn cmd_fleet_agent(args: &Args) -> Result<(), String> {
    use faasrail_fleet::{run_agent_with, AgentConfig};
    use std::sync::Arc;

    let addr = args.require("coordinator")?.to_string();
    let cfg = AgentConfig {
        name: args.get_or("name", "").to_string(),
        rejoin: !args.flag("no-rejoin"),
        max_rejoin_backoff: std::time::Duration::from_millis(
            args.num("max-rejoin-backoff-ms", 5_000u64)?,
        ),
        ..AgentConfig::default()
    };
    let timeout_ms = args.num("timeout-ms", 30_000u64)?;
    let attempts = args.num("attempts", 4u32)?;
    eprintln!("fleet agent: dialing coordinator at {addr}");
    let run = run_agent_with(addr.as_str(), &cfg, |assignment| {
        Ok(match &assignment.target {
            Some(target) => {
                use faasrail_gateway::{HttpBackend, HttpBackendConfig, RetryPolicy};
                let http_cfg = HttpBackendConfig {
                    request_timeout: std::time::Duration::from_millis(timeout_ms),
                    retry: RetryPolicy { max_attempts: attempts, ..RetryPolicy::default() },
                    ..HttpBackendConfig::default()
                };
                let backend = HttpBackend::connect(target, http_cfg)
                    .map_err(|e| std::io::Error::other(format!("resolving {target}: {e}")))?;
                eprintln!("fleet agent: replaying against {target}");
                Arc::new(backend) as Arc<dyn faasrail_loadgen::Backend>
            }
            None => {
                eprintln!("fleet agent: in-process warm-cache backend");
                Arc::new(WarmCacheBackend::new(assignment.pool.clone(), WarmCacheConfig::default()))
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

/// `faasrail fleet top --coordinator ADDR` — live terminal view of a
/// running fleet, rendered from the coordinator's `/state` endpoint (the
/// address given to `fleet coordinate --console`). Redraws every
/// `--interval-ms` until the console stops answering (run over) or
/// `--iterations` frames have been drawn (`0` = no limit).
fn cmd_fleet_top(args: &Args) -> Result<(), String> {
    use faasrail_fleet::{fetch_state, render_top};

    let addr = args.require("coordinator")?.to_string();
    let interval = std::time::Duration::from_millis(args.num("interval-ms", 1_000u64)?);
    let iterations = args.num("iterations", 0u64)?;
    let mut drawn = 0u64;
    let mut misses = 0u32;
    loop {
        match fetch_state(&addr, 0) {
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

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let opts = CalibrationOptions { warmups: 2, repeats: args.num("repeats", 5u32)? };
    eprintln!("running quick calibration ({} repeats per point)...", opts.repeats);
    let model = quick_calibration(&opts);
    for kind in WorkloadKind::ALL {
        let c = model.cost(kind);
        println!(
            "{:<18} overhead={:>9.1}us  ns_per_unit={:>10.3}",
            kind.name(),
            c.overhead_us,
            c.ns_per_unit
        );
    }
    if let Some(out) = args.get("out") {
        write_json(out, &model)?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_iat_all_forms() {
        assert_eq!(parse_iat("poisson").unwrap(), IatModel::Poisson);
        assert_eq!(parse_iat("uniform").unwrap(), IatModel::UniformRandom);
        assert_eq!(parse_iat("equidistant").unwrap(), IatModel::Equidistant);
        assert_eq!(parse_iat("bursty").unwrap(), IatModel::Bursty { cv: 1.5 });
        assert_eq!(parse_iat("bursty:2.5").unwrap(), IatModel::Bursty { cv: 2.5 });
        assert!(parse_iat("bursty:-1").is_err());
        assert!(parse_iat("gaussian").is_err());
    }

    #[test]
    fn parse_policy_names() {
        for name in ["fixed-ttl", "lru", "greedy-dual", "hybrid-histogram"] {
            assert!(parse_policy(name).is_ok(), "{name}");
        }
        assert!(parse_policy("mru").is_err());
    }

    #[test]
    fn parse_balancer_names() {
        for name in ["round-robin", "least-loaded", "warm-first", "hash"] {
            assert!(parse_balancer(name).is_ok(), "{name}");
        }
        assert!(parse_balancer("random").is_err());
    }

    #[test]
    fn json_io_roundtrip() {
        let dir = std::env::temp_dir().join("faasrail-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        let path = path.to_str().unwrap();
        let value = vec![1u64, 2, 3];
        write_json(path, &value).unwrap();
        let back: Vec<u64> = read_json(path).unwrap();
        assert_eq!(value, back);
        assert!(read_json::<Vec<u64>>("/nonexistent/x.json").is_err());
    }

    #[test]
    fn shrink_refuses_a_minute_range_without_invocations() {
        let dir = std::env::temp_dir().join(format!("faasrail-cli-window-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let mut trace = faasrail_trace::azure::generate(&AzureTraceConfig::small(9));
        for f in &mut trace.functions {
            let early = f.minutes.entries().iter().copied().filter(|&(m, _)| m < 600);
            f.minutes = faasrail_trace::MinuteSeries::new(early.collect());
            f.daily.clear();
        }
        write_json(&path("trace.json"), &trace).unwrap();
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        write_json(&path("pool.json"), &pool).unwrap();

        let line = [
            "shrink",
            "--trace",
            &path("trace.json"),
            "--pool",
            &path("pool.json"),
            "--minutes",
            "30",
            "--minute-range",
            "600",
            "--out",
            &path("spec.json"),
        ];
        let args = Args::parse(line.map(String::from)).unwrap();
        let err = run(&args).expect_err("main turns this into a non-zero exit");
        assert!(err.contains("no invocations in minute range [600, 630)"), "{err}");
        assert!(!dir.join("spec.json").exists(), "no spec is written");
        fs::remove_dir_all(&dir).unwrap();
    }
}
