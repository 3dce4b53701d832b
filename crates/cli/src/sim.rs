//! The simulated tier: one cluster simulation of a request trace, and the
//! lab's (policy x balancer x seed) grid over a full-fidelity day.

use crate::args::{Args, Command, Opt};
use crate::offline::{parse_iat, IAT, POOL, REQUESTS_FILE};
use crate::{read_json, write_file};
use faasrail_core::{MappingConfig, RequestTrace};
use faasrail_faas_sim::{simulate, BalancerKind, ClusterConfig, NodeFault, PolicyKind, SimOptions};
use faasrail_lab::{run_lab, BenchRecord, LabConfig};
use faasrail_trace::azure::AzureTraceConfig;
use faasrail_workloads::{CostModel, WorkloadPool};

const JITTER: Opt = Opt::val("jitter", "SIGMA", "0", "log-normal sigma of service-time jitter");

pub static SIMULATE: Command = Command {
    name: "simulate",
    about: "replay a request trace on the discrete-event cluster simulator",
    positionals: &[],
    opts: &[
        REQUESTS_FILE,
        POOL,
        Opt::val("nodes", "N", "4", "cluster nodes"),
        Opt::val("cores", "N", "16", "cores per node"),
        Opt::val("policy", "NAME", "fixed-ttl", "fixed-ttl|lru|greedy-dual|hybrid-histogram"),
        Opt::val("balancer", "NAME", "warm-first", "round-robin|least-loaded|warm-first|hash"),
        Opt::maybe("crash-node", "I", "crash node I, losing its sandboxes"),
        Opt::val("crash-at-ms", "T", "0", "when the node crashes").needs("crash-node"),
        Opt::maybe("slow-node", "I", "make node I a straggler"),
        Opt::val("slow-factor", "X", "2", "its service-time multiplier").needs("slow-node"),
        JITTER,
    ],
    run: cmd_simulate,
};

pub fn simulate_config(args: &Args) -> Result<(ClusterConfig, SimOptions), String> {
    let cluster = ClusterConfig {
        nodes: args.num("nodes")?,
        cores_per_node: args.num("cores")?,
        ..Default::default()
    };
    let mut node_faults = Vec::new();
    if let Some(node) = args.num_opt("crash-node")? {
        let at = args.num("crash-at-ms")?;
        node_faults.push(NodeFault { node, crash_at_ms: Some(at), ..Default::default() });
    }
    if let Some(node) = args.num_opt("slow-node")? {
        let slow_factor = args.num("slow-factor")?;
        node_faults.push(NodeFault { node, slow_factor, ..Default::default() });
    }
    Ok((cluster, SimOptions { service_jitter_sigma: args.num("jitter")?, seed: 0, node_faults }))
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let (cluster, options) = simulate_config(args)?;
    let mut policy = PolicyKind::parse(args.str("policy"))?.build();
    let mut balancer = BalancerKind::parse(args.str("balancer"))?.build();
    let reqs: RequestTrace = read_json(args.str("requests"))?;
    let pool: WorkloadPool = read_json(args.str("pool"))?;
    let m = simulate(&reqs, &pool, &cluster, balancer.as_mut(), policy.as_mut(), &options);
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

pub static LAB_RUN: Command = Command {
    name: "lab run",
    about: "sweep a (policy x balancer x seed) grid of simulations over a full Azure day",
    positionals: &[],
    opts: &[
        Opt::maybe("scale", "SCALE", "small|paper (default: $FAASRAIL_SCALE, else small)"),
        Opt::val("seed", "N", "42", "seed of the synthetic trace"),
        Opt::maybe("pool", "FILE", "workload pool JSON (default: the modelled pool)"),
        Opt::val("policies", "A,B,..", "fixed-ttl,hybrid-histogram", "keep-alive policies swept"),
        Opt::val("balancers", "A,B,..", "warm-first", "load balancers swept"),
        Opt::val("seeds", "A,B,..", "42", "arrival seeds swept"),
        Opt::val("parallel", "N", "0", "cells simulated at once (0: one per core)"),
        Opt::maybe("nodes", "N", "cluster nodes (default: 8)"),
        Opt::maybe("cores", "N", "cores per node (default: 32 small, 8192 paper)"),
        Opt::maybe("memory-mb", "X", "memory per node (default: 65536 small, 4194304 paper)"),
        JITTER,
        IAT,
        Opt::maybe("out", "FILE", "write the report as JSON (no wall-clock fields)"),
        Opt::maybe("md", "FILE", "write the report as Markdown tables"),
        Opt::maybe("bench-out", "FILE", "write timing as a faasrail-bench/v1 record"),
        Opt::val("bench-name", "NAME", "lab", "name of that record").needs("bench-out"),
    ],
    run: cmd_lab_run,
};

/// The grid and its virtual cluster. The paper-scale day averages ~10.5K rps
/// of multi-second invocations (~28K cores of mean demand), so it gets ~64K
/// virtual cores — roomy enough that queues track the diurnal peaks instead
/// of growing without bound; the small day (~23 rps) still wants a couple
/// hundred cores for the same reason. The split into 8 fat nodes is history,
/// kept so committed results stay comparable: the balancers read an
/// incrementally maintained cluster index, so `--nodes` changes what is
/// simulated (per-node memory pressure, queueing behind few cores), not how
/// fast.
pub fn lab_config(args: &Args, scale: &str) -> Result<LabConfig, String> {
    let names = |key: &str| args.str(key).split(',').map(str::trim);
    let policies = names("policies").map(PolicyKind::parse).collect::<Result<_, _>>()?;
    let balancers = names("balancers").map(BalancerKind::parse).collect::<Result<_, _>>()?;
    let seeds = names("seeds")
        .map(|s| s.parse::<u64>().map_err(|_| format!("invalid seed {s}")))
        .collect::<Result<_, _>>()?;
    let (cores, memory_mb) = match scale {
        "paper" => (8_192, 4_194_304.0),
        _ => (32, 65_536.0),
    };
    Ok(LabConfig {
        scale: scale.to_string(),
        policies,
        balancers,
        seeds,
        cluster: ClusterConfig {
            nodes: args.num_opt("nodes")?.unwrap_or(8),
            cores_per_node: args.num_opt("cores")?.unwrap_or(cores),
            memory_mb_per_node: args.num_opt("memory-mb")?.unwrap_or(memory_mb),
            ..Default::default()
        },
        parallel: args.num("parallel")?,
        service_jitter_sigma: args.num("jitter")?,
    })
}

/// Build a full-fidelity one-day schedule model from a synthetic Azure
/// trace, then sweep the grid over it, one cell per worker. Arrivals are
/// expanded lazily per cell, so even the paper-scale day (49.7K functions,
/// ~908M invocations) never exists as a materialized request trace.
fn cmd_lab_run(args: &Args) -> Result<(), String> {
    let scale_env = std::env::var("FAASRAIL_SCALE").ok();
    let scale = args.get("scale").or(scale_env.as_deref()).unwrap_or("small");
    let seed = args.num("seed")?;
    let trace_cfg = match scale {
        "paper" => AzureTraceConfig::paper_scale(seed),
        "small" => AzureTraceConfig::small(seed),
        s => return Err(format!("unknown scale {s} (expected small or paper)")),
    };
    let iat = parse_iat(args.str("iat"))?;
    let cfg = lab_config(args, scale)?;
    let pool = match args.get("pool") {
        Some(path) => read_json(path)?,
        None => WorkloadPool::build_modelled(&CostModel::default_calibration()),
    };

    // Trace → schedule model; the trace itself is dropped before any cell
    // runs, so peak memory is the model plus per-cell simulator state.
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
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serializing: {e}"))?;
        write_file(out, json)?;
        eprintln!("lab: wrote report {out}");
    }
    if let Some(md) = args.get("md") {
        write_file(md, report.to_markdown())?;
        eprintln!("lab: wrote markdown {md}");
    }
    if let Some(bench) = args.get("bench-out") {
        // Re-emitted through the shared trajectory schema so the sim and
        // gateway BENCH files diff with the same `bench diff` gate.
        let rec = BenchRecord::from_stats(args.str("bench-name"), scale, &stats);
        let report = faasrail_bench::harness::sim_report(&rec);
        write_file(bench, report.to_json())?;
        eprintln!("lab: wrote bench report {bench} ({})", report.schema);
    }
    Ok(())
}
