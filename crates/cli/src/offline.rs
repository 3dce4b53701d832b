//! The offline tier: traces, the workload pool, the shrink ray's two modes,
//! and the commands that inspect what they produce.

use crate::args::{Args, Command, Opt};
use crate::{read_json, read_requests, read_spec, read_trace, write_file, write_json};
use faasrail_core::{
    generate_requests, kind_shares, shrink, IatModel, MappingConfig, ShrinkRayConfig,
    SmirnovConfig, TimeScaling,
};
use faasrail_trace::Scale;
use faasrail_workloads::calibrate::{quick_calibration, CalibrationOptions};
use faasrail_workloads::{CostModel, WorkloadKind, WorkloadPool};
use std::collections::BTreeMap;

const SEED: Opt = Opt::val("seed", "N", "42", "seed of every random draw");
const TRACE: Opt = Opt::req("trace", "FILE", "trace JSON, from gen-trace");
pub const POOL: Opt = Opt::req("pool", "FILE", "workload pool JSON, from build-pool");
pub const REQUESTS_FILE: Opt =
    Opt::req("requests", "FILE", "request trace JSON, from requests or smirnov");
pub const IAT: Opt = Opt::val(
    "iat",
    "MODEL",
    "poisson",
    "arrivals in a minute: poisson|uniform|equidistant|bursty[:CV]",
);

pub static GEN_TRACE: Command = Command {
    name: "gen-trace",
    about: "generate a synthetic production trace",
    positionals: &[],
    opts: &[
        Opt::val("kind", "KIND", "azure", "trace profile: azure|huawei"),
        Opt::val("scale", "SCALE", "small", "small, or paper for the published trace's size"),
        SEED,
        Opt::req("out", "FILE", "where to write the trace JSON"),
    ],
    run: gen_trace,
};

fn gen_trace(args: &Args) -> Result<(), String> {
    let seed = args.num("seed")?;
    let scale = Scale::parse(args.str("scale"))?;
    let trace = match args.str("kind") {
        "azure" => faasrail_trace::azure::generate(&scale.azure(seed)),
        "huawei" => faasrail_trace::huawei::generate(&scale.huawei(seed)),
        k => return Err(format!("unknown trace kind {k}")),
    };
    let out = args.str("out");
    write_json(out, &trace)?;
    eprintln!(
        "wrote {out}: {} functions, {} invocations on the selected day",
        trace.functions.len(),
        trace.total_invocations()
    );
    Ok(())
}

pub static BUILD_POOL: Command = Command {
    name: "build-pool",
    about: "build the augmented workload pool (10 kernels x ~2300 inputs)",
    positionals: &[],
    opts: &[
        Opt::flag("measure", "time the kernels here instead of using the built-in calibration"),
        Opt::req("out", "FILE", "where to write the pool JSON"),
    ],
    run: build_pool,
};

fn build_pool(args: &Args) -> Result<(), String> {
    let model = if args.flag("measure") {
        eprintln!("measuring kernel warm times (quick calibration)...");
        quick_calibration(&CalibrationOptions::default())
    } else {
        CostModel::default_calibration()
    };
    let pool = WorkloadPool::build_modelled(&model);
    let out = args.str("out");
    write_json(out, &pool)?;
    eprintln!("wrote {out}: {} workloads from {} benchmarks", pool.len(), WorkloadKind::ALL.len());
    Ok(())
}

/// The arrival model `--iat` names; a name or cv it refuses exits 2.
pub fn iat_model(args: &Args) -> Result<IatModel, String> {
    let s = args.str("iat");
    parse_iat(s).map_err(|why| args.invalid("iat", s, why))
}

/// An arrival model by name, or why the name is refused.
pub fn parse_iat(s: &str) -> Result<IatModel, &'static str> {
    match s {
        "poisson" => Ok(IatModel::Poisson),
        "uniform" => Ok(IatModel::UniformRandom),
        "equidistant" => Ok(IatModel::Equidistant),
        "bursty" => Ok(IatModel::Bursty { cv: 1.5 }),
        _ => match s.strip_prefix("bursty:").map(str::parse::<f64>) {
            Some(Ok(cv)) if IatModel::bursty_cv_ok(cv) => Ok(IatModel::Bursty { cv }),
            Some(_) => Err(IatModel::BURSTY_CV_BOUND),
            None => Err("unknown model (try poisson|uniform|equidistant|bursty[:cv])"),
        },
    }
}

pub static SHRINK: Command = Command {
    name: "shrink",
    about: "Spec mode: shrink a trace to an experiment of --minutes at --max-rps",
    positionals: &[],
    opts: &[
        TRACE,
        POOL,
        Opt::val("minutes", "N", "120", "experiment duration"),
        Opt::val("max-rps", "X", "20", "request rate of the busiest experiment minute"),
        Opt::maybe("minute-range", "START", "keep day minutes [START, START+N), not thumbnails"),
        IAT,
        Opt::val("threshold", "X", "0.10", "relative duration error a mapping may carry"),
        Opt::req("out", "FILE", "where to write the experiment spec JSON"),
    ],
    run: cmd_shrink,
};

pub fn shrink_config(args: &Args) -> Result<ShrinkRayConfig, String> {
    let minutes = args.num("minutes")?;
    let max_rps = args.positive("max-rps")?;
    let mut cfg = ShrinkRayConfig::new(minutes, max_rps);
    if let Some(start) = args.num_opt("minute-range")? {
        cfg.time_scaling = TimeScaling::MinuteRange { start, experiment_minutes: minutes };
    }
    cfg.target_peak_per_minute().map_err(|e| args.invalid("max-rps", max_rps, e))?;
    cfg.iat = iat_model(args)?;
    cfg.mapping = MappingConfig {
        error_threshold: args.non_negative("threshold")?,
        ..MappingConfig::default()
    };
    Ok(cfg)
}

fn cmd_shrink(args: &Args) -> Result<(), String> {
    let cfg = shrink_config(args)?;
    let trace = read_trace(args, "trace")?;
    let pool: WorkloadPool = read_json(args.str("pool"))?;
    let (spec, report) = shrink(&trace, &pool, &cfg).map_err(|e| e.to_string())?;
    let out = args.str("out");
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

pub static REQUESTS: Command = Command {
    name: "requests",
    about: "expand an experiment spec into a timestamped request trace",
    positionals: &[],
    opts: &[
        Opt::req("spec", "FILE", "experiment spec JSON, from shrink"),
        SEED,
        Opt::req("out", "FILE", "where to write the request trace JSON"),
    ],
    run: cmd_requests,
};

fn cmd_requests(args: &Args) -> Result<(), String> {
    let seed = args.num("seed")?;
    let spec = read_spec(args, "spec")?;
    let reqs = generate_requests(&spec, seed);
    let out = args.str("out");
    write_json(out, &reqs)?;
    eprintln!("wrote {out}: {} timestamped requests", reqs.len());
    Ok(())
}

pub static SMIRNOV: Command = Command {
    name: "smirnov",
    about: "Smirnov-transform mode: sample requests from a trace's distributions at any rate",
    positionals: &[],
    opts: &[
        TRACE,
        POOL,
        Opt::val("invocations", "N", "120408", "requests to generate"),
        Opt::val("rate", "X", "20", "mean request rate, per second"),
        IAT,
        SEED,
        Opt::req("out", "FILE", "where to write the request trace JSON"),
    ],
    run: cmd_smirnov,
};

pub fn smirnov_config(args: &Args) -> Result<SmirnovConfig, String> {
    Ok(SmirnovConfig {
        num_invocations: args.count("invocations")?,
        rate_rps: args.positive("rate")?,
        iat: iat_model(args)?,
        mapping: MappingConfig::default(),
        seed: args.num("seed")?,
    })
}

fn cmd_smirnov(args: &Args) -> Result<(), String> {
    let cfg = smirnov_config(args)?;
    let trace = read_trace(args, "trace")?;
    let pool: WorkloadPool = read_json(args.str("pool"))?;
    let (reqs, report) = faasrail_core::smirnov::generate(&trace, &pool, &cfg);
    let out = args.str("out");
    write_json(out, &reqs)?;
    eprintln!(
        "wrote {out}: {} requests; {:.1}% mapped within threshold; per-kind: {:?}",
        reqs.len(),
        report.within_threshold_fraction * 100.0,
        report.counts_by_kind.iter().map(|(k, c)| (k.name(), *c)).collect::<Vec<_>>()
    );
    Ok(())
}

pub static CALIBRATE: Command = Command {
    name: "calibrate",
    about: "time every kernel on this machine and print the fitted cost model",
    positionals: &[],
    opts: &[
        Opt::val("repeats", "N", "5", "timed repetitions per calibration point"),
        Opt::maybe("out", "FILE", "also write the cost model as JSON"),
    ],
    run: cmd_calibrate,
};

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let opts = CalibrationOptions { warmups: 2, repeats: args.count("repeats")? };
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

pub static ANALYZE: Command = Command {
    name: "analyze",
    about: "print a trace's critical statistical properties (what FaaSRail preserves)",
    positionals: &[],
    opts: &[TRACE],
    run: cmd_analyze,
};

fn cmd_analyze(args: &Args) -> Result<(), String> {
    use faasrail_stats::timeseries::{fano_factor, peak};
    use faasrail_trace::summarize;
    let trace = read_trace(args, "trace")?;

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

pub static COMPARE: Command = Command {
    name: "compare",
    about: "how close are two request traces, in the properties that matter?",
    positionals: &[],
    opts: &[
        Opt::req("a", "FILE", "first request trace JSON"),
        Opt::req("b", "FILE", "second request trace JSON"),
        POOL,
    ],
    run: cmd_compare,
};

fn cmd_compare(args: &Args) -> Result<(), String> {
    use faasrail_stats::{ks_distance_weighted, timeseries::load_shape_mae};
    let pool: WorkloadPool = read_json(args.str("pool"))?;
    let a = read_requests(args, "a", &pool)?;
    let b = read_requests(args, "b", &pool)?;

    println!("requests: a={} b={}", a.len(), b.len());
    println!(
        "KS(expected invocation durations) = {:.4}",
        ks_distance_weighted(&a.duration_wecdf(&pool), &b.duration_wecdf(&pool))
    );

    // Load-shape comparison over the common duration.
    let minutes = a.duration_minutes.min(b.duration_minutes);
    if minutes > 0 {
        let mae =
            load_shape_mae(&a.per_minute_counts()[..minutes], &b.per_minute_counts()[..minutes]);
        println!("load-shape mean abs error over {minutes} common minutes = {mae:.4}");
    }

    let sa = kind_shares(&a.counts_by_kind(&pool));
    let sb = kind_shares(&b.counts_by_kind(&pool));
    println!("{:<18} {:>8} {:>8}", "benchmark", "a %", "b %");
    for kind in WorkloadKind::ALL {
        let pct = |s: &BTreeMap<WorkloadKind, f64>| s.get(&kind).copied().unwrap_or(0.0) * 100.0;
        println!("{:<18} {:>7.2}% {:>7.2}%", kind.name(), pct(&sa), pct(&sb));
    }
    Ok(())
}

pub static EVALUATE: Command = Command {
    name: "evaluate",
    about: "score a request trace against a production trace on the paper's four properties",
    positionals: &[],
    opts: &[TRACE, REQUESTS_FILE, POOL],
    run: cmd_evaluate,
};

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let trace = read_trace(args, "trace")?;
    let pool: WorkloadPool = read_json(args.str("pool"))?;
    let requests = read_requests(args, "requests", &pool)?;
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

pub static EXPORT: Command = Command {
    name: "export",
    about: "write a trace in the real Azure CSV schema",
    positionals: &[],
    opts: &[TRACE, Opt::req("out-dir", "DIR", "directory for the three CSV files")],
    run: cmd_export,
};

fn cmd_export(args: &Args) -> Result<(), String> {
    use faasrail_trace::writer;
    let trace = read_trace(args, "trace")?;
    let dir = std::path::Path::new(args.str("out-dir"));
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: &str, f: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        let mut buf = Vec::new();
        f(&mut buf).map_err(|e| format!("{name}: {e}"))?;
        write_file(dir.join(name), buf)
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
