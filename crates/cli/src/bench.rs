//! The online-tier benchmark harness: open-loop fixed-rate rungs against a
//! gateway over real TCP (coordinated-omission-correct: pacer lateness is
//! measured, bounded, and disqualifying), written through the shared
//! `faasrail-bench/v1` trajectory schema, and the regression gate over two
//! such reports.

use crate::args::{Args, Command, Opt};
use crate::transport::{bind, connect, ClientOpts, MUX, MUX_DEPTH, SHARDS};
use crate::{read_json, write_file};
use faasrail_bench::harness::{
    diff_reports, run_fixed_rate, saturation_search, AcceptCriteria, BenchReport, BenchWorkload,
    FixedRateSpec, RateRun, SearchConfig,
};
use faasrail_gateway::{BreakerConfig, GatewayConfig};
use faasrail_loadgen::{ArrivalProcess, NoopBackend};
use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
use std::sync::Arc;

/// A bench command's table: its own rows, then the rows both rung kinds share.
macro_rules! bench_table {
    (name: $name:literal, $($own:expr),* $(,)?) => {
        &[
            $($own,)*
            Opt::maybe("target", "HOST:PORT", "gateway to measure (default: self-hosted noop)"),
            Opt::flag("reactor", "self-host the epoll server instead of a thread per connection"),
            SHARDS,
            MUX,
            MUX_DEPTH,
            Opt::val("duration-s", "X", "2", "length of one rung"),
            Opt::val("workers", "N", "8", "worker threads issuing requests"),
            Opt::flag("poisson", "Poisson arrivals instead of evenly spaced ones"),
            Opt::val("seed", "N", "42", "seed of the arrival process"),
            Opt::val("timeout-ms", "T", "1000", "deadline per invocation"),
            Opt::maybe("pool", "FILE", "workload pool JSON (default: the ten vanilla workloads)"),
            Opt::val("workload-id", "N", "7", "pool id of the workload every request invokes"),
            Opt::val("name", "NAME", $name, "name recorded in the report"),
            Opt::val("out", "FILE", "BENCH_gateway.json", "where to write the report JSON"),
        ]
    };
}

pub static SATURATE: Command = Command {
    name: "bench saturate",
    about: "search for the highest request rate a gateway sustains within the acceptance gate",
    positionals: &[],
    opts: bench_table![
        name: "gateway-saturate",
        Opt::val("p99-ms", "X", "50", "gate: response p99 of a sustained rung"),
        Opt::val("max-error-rate", "X", "0.001", "gate: error fraction of a sustained rung"),
        Opt::val("max-lateness-ms", "X", "100", "gate: pacer lateness p99 (the generator kept up)"),
        Opt::val("start-rps", "X", "64", "first probe"),
        Opt::val("max-rps", "X", "65536", "ceiling of the search"),
        Opt::val("resolution-rps", "X", "16", "stop bisecting below this bracket width"),
        Opt::val("max-probes", "N", "24", "probe budget"),
    ],
    run: |args| cmd_bench_run(args, saturate),
};

pub static FIXED: Command = Command {
    name: "bench fixed",
    about: "measure per-stage latency quantiles at fixed request rates",
    positionals: &[],
    opts: bench_table![
        name: "gateway-fixed",
        Opt::val("rps", "R", "200", "one rung at R requests per second").repeat(),
    ],
    run: |args| cmd_bench_run(args, fixed),
};

/// What one rung takes: run it at `rps`, get its record.
type Rung<'a> = &'a dyn Fn(f64) -> RateRun;

pub fn search_config(args: &Args) -> Result<(AcceptCriteria, SearchConfig), String> {
    let criteria = AcceptCriteria {
        p99_ms: args.num("p99-ms")?,
        max_error_rate: args.num("max-error-rate")?,
        max_lateness_p99_ms: args.num("max-lateness-ms")?,
    };
    let search = SearchConfig {
        start_rps: args.num("start-rps")?,
        max_rps: args.num("max-rps")?,
        resolution_rps: args.num("resolution-rps")?,
        max_probes: args.num("max-probes")?,
    };
    Ok((criteria, search))
}

fn saturate(args: &Args, rung: Rung, report: &mut BenchReport) -> Result<(), String> {
    let (criteria, search) = search_config(args)?;
    let w = &report.workload;
    eprintln!(
        "bench: saturation search start={} max={} (p99<={}ms err<={} lateness-p99<={}ms), \
         {}s per probe, {} workers, {} arrivals",
        search.start_rps,
        search.max_rps,
        criteria.p99_ms,
        criteria.max_error_rate,
        criteria.max_lateness_p99_ms,
        w.duration_s,
        w.workers,
        w.arrivals,
    );
    let (summary, runs) = saturation_search(
        |rps| {
            eprintln!("bench: probing {rps:.0} rps...");
            rung(rps)
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
    Ok(())
}

pub fn fixed_rates(args: &Args) -> Result<Vec<f64>, String> {
    let parse = |r: &str| r.parse().map_err(|_| format!("invalid value for --rps: {r}"));
    args.all("rps").into_iter().map(parse).collect()
}

fn fixed(args: &Args, rung: Rung, report: &mut BenchReport) -> Result<(), String> {
    for rps in fixed_rates(args)? {
        eprintln!("bench: fixed-rate rung {rps:.0} rps for {}s...", report.workload.duration_s);
        report.runs.push(rung(rps));
    }
    Ok(())
}

/// What both rung kinds read from their shared rows.
pub struct BenchOpts {
    duration_s: f64,
    workers: usize,
    seed: u64,
    process: ArrivalProcess,
    workload: WorkloadId,
    shards: Option<usize>,
    pub client: ClientOpts,
}

pub fn bench_opts(args: &Args) -> Result<BenchOpts, String> {
    Ok(BenchOpts {
        duration_s: args.num("duration-s")?,
        workers: args.count("workers")?,
        seed: args.num("seed")?,
        process: if args.flag("poisson") {
            ArrivalProcess::Poisson
        } else {
            ArrivalProcess::Uniform
        },
        workload: WorkloadId(args.num("workload-id")?),
        shards: args.flag("reactor").then(|| args.num("shards")).transpose()?,
        // One attempt, no breaker: a saturation probe must *see* every
        // failure, not paper over it with retries or fail fast around it.
        client: ClientOpts {
            timeout_ms: args.num("timeout-ms")?,
            attempts: 1,
            breaker: BreakerConfig::default(),
            mux: ClientOpts::mux(args)?,
        },
    })
}

/// With no `--target`, a loopback noop-backend gateway is self-hosted (and
/// stopped on exit) so the command measures the gateway + client stack in
/// isolation, reproducibly.
fn cmd_bench_run(
    args: &Args,
    rungs: fn(&Args, Rung, &mut BenchReport) -> Result<(), String>,
) -> Result<(), String> {
    let BenchOpts { duration_s, workers, seed, process, workload, shards, client } =
        bench_opts(args)?;
    let pool: WorkloadPool = match args.get("pool") {
        Some(p) => read_json(p)?,
        None => WorkloadPool::vanilla(&CostModel::default_calibration()),
    };
    if pool.get(workload).is_none() {
        return Err(format!("workload id {} not in the pool", workload.0));
    }

    let (target, target_desc, local) = match args.get("target") {
        Some(t) => (t.to_string(), t.to_string(), None),
        None => {
            let server =
                bind("127.0.0.1:0", Arc::new(NoopBackend), GatewayConfig::default(), shards, None)?;
            let addr = server.local_addr().to_string();
            let desc = match shards {
                Some(shards) => {
                    eprintln!(
                        "bench: self-hosted loopback reactor gateway (noop backend, \
                         {shards} shard(s)) at {addr}"
                    );
                    format!("{addr}/noop (self-hosted, reactor x{shards})")
                }
                None => {
                    eprintln!("bench: self-hosted loopback gateway (noop backend) at {addr}");
                    format!("{addr}/noop (self-hosted)")
                }
            };
            (addr, desc, Some(server.spawn()))
        }
    };

    if let Some((connections, depth)) = client.mux {
        eprintln!("bench: multiplexed client ({connections} connections, pipeline depth {depth})");
    }
    let backend = connect(&target, &client)?;

    let arrivals = if process == ArrivalProcess::Poisson { "poisson" } else { "uniform" };
    let workload_spec = BenchWorkload {
        arrivals: arrivals.to_string(),
        duration_s,
        workers: workers as u64,
        seed,
        target: target_desc,
    };
    let mut report = BenchReport::new(args.str("name"), "gateway", workload_spec);
    let rung = |rps: f64| {
        let spec = FixedRateSpec { rps, duration_s, workers, process, seed, workload };
        run_fixed_rate(&backend, &pool, &spec)
    };
    rungs(args, &rung, &mut report)?;

    if let Some(server) = local {
        server.stop();
    }
    let out = args.str("out");
    write_file(out, report.to_json())?;
    eprintln!("bench: wrote {out}");
    print!("{}", report.to_markdown());
    Ok(())
}

pub static DIFF: Command = Command {
    name: "bench diff",
    about: "the regression gate: markdown delta table of two bench reports",
    positionals: &["OLD.json", "NEW.json"],
    opts: &[
        Opt::val("threshold", "X", "0.10", "relative change past which a metric has regressed"),
        Opt::flag("advisory", "report regressions, never fail on them"),
    ],
    run: cmd_bench_diff,
};

/// Nonzero exit when any shared metric regresses past `--threshold`.
fn cmd_bench_diff(args: &Args) -> Result<(), String> {
    let threshold = args.num("threshold")?;
    let read = |path: &str| -> Result<BenchReport, String> {
        let s = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        BenchReport::from_json(&s).map_err(|e| format!("{path}: {e}"))
    };
    let [old, new] = args.positionals() else { unreachable!("the table names two positionals") };
    let (old, new) = (read(old)?, read(new)?);
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
