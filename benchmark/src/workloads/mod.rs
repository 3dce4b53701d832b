//! The seven workloads and the loop that runs one of them.
//!
//! One run is one process and one workload: set up several times, at first
//! and again between passes (the median is `setup_s`), repeat the workload's
//! timed pass for the asked-for seconds and report the throughput its
//! undisturbed passes reached ([`STEADY_SHARE`]). A traced run alternates
//! untraced and traced passes, so that its tracing overhead compares
//! neighbours in time, and then walks the isolated-layer ledger.

pub mod offline;
pub mod replay;
pub mod sim;

use crate::ledger;
use crate::measure::{mean_of_highest, median, peak_rss_mib, timed, CpuSplit};
use crate::report::{Environment, Metrics, ResultLine, RunRecord};
use crate::tracer::{Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a run was asked to do.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Shrinks every workload so that a debug build finishes all seven in
    /// seconds; for the self-tests, never for numbers.
    pub smoke: bool,
    /// Where `trace.<workload>.json` and `record.<workload>.json` go; nothing
    /// is written without it.
    pub out: Option<PathBuf>,
}

/// What a workload sees of the run.
pub struct Ctx {
    pub seed: u64,
    pub smoke: bool,
    /// Whether this run will make traced passes: set-up then installs the
    /// span-taking wrappers (idle while the tracer is off).
    pub traced_run: bool,
    pub tracer: Arc<Tracer>,
    /// Scratch directory inside the checkout, for the JSONL event log.
    pub scratch: PathBuf,
    /// Set for the workloads that run on one CPU: which one, and where
    /// their open-loop pacer spins.
    pub cpus: Option<CpuSplit>,
}

/// Counts correctness checks and keeps the failed ones in words.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one pass of a workload's timed section measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Items the closed-loop or batch section completed, and its wall time:
    /// `items / wall_s` is `items_per_s`.
    pub items: u64,
    pub wall_s: f64,
    /// Operations offered to the program under test, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the pass's deterministic outputs.
    pub digest: u64,
}

pub trait Workload: Sized {
    /// Whether the run's process is restricted to one CPU before set-up;
    /// see [`CpuSplit`] for which workloads need that and why.
    const ONE_CPU: bool = false;

    /// Builds inputs from the seed, binds servers, warms up. Dropping the
    /// value tears all of it down.
    fn setup(ctx: &Ctx) -> Self;

    /// One pass of the timed section. With `traced`, the tracer is on and
    /// the pass goes through the span-taking path.
    fn pass(&mut self, ctx: &Ctx, traced: bool, checks: &mut Checks) -> Pass;

    /// Per-layer metrics read off the spans of a traced run's `setups`
    /// set-ups and `traced_passes` traced passes (and whatever the workload
    /// counted at the same boundaries).
    fn layer_metrics(&mut self, spans: &[Span], setups: u64, traced_passes: u64, m: &mut Metrics);

    /// Per-layer metrics computed from others, once the ledger has run.
    fn derived_metrics(&self, _m: &mut Metrics) {}

    /// Checks that need the whole run, e.g. server counters.
    fn final_checks(&mut self, _checks: &mut Checks) {}
}

/// At least this many set-ups and passes, however slow they are.
const MIN_SETUPS: usize = 3;
const MIN_PASSES: usize = 3;
/// In a traced run quick set-ups repeat until they have filled this share
/// of the run's seconds (or this many), so that a 30 ms set-up's spans are
/// not those of three.
const SETUP_FILL_SHARE: f64 = 0.06;
const MAX_SETUPS: usize = 15;
/// An untraced run, which reports `setup_s`, sets up again between passes
/// instead, whenever that has taken less than this share of the seconds gone
/// (and this many times at most). The host's slow spells last seconds:
/// set-ups made back to back all fall into one or all beside it, and the
/// run's median is one of two levels; spread over the run they sample what
/// the passes sample.
const RESETUP_SHARE: f64 = 0.1;
const MAX_RESETUPS: usize = 40;
/// `items_per_s` is the mean throughput of this share of a run's passes,
/// the fastest ones (one pass at least), not the median of all of them. The
/// passes of one run do identical work, so they differ only by what the host
/// did to them, and on a shared host that is one-sided and comes in spells:
/// for seconds to a minute at a time the same code runs 10 to 40 % slower,
/// with nothing in the guest to show for it. The median of a run is then
/// the fast level, the slow one or anything between, depending on how much
/// of the run a spell covered: over ten runs it spread by 10 to 23 % on
/// every row (30 % on the socket rows where the driver measured them),
/// where this reading spread by 3 to 7 % on the same passes. It is the
/// program's own speed as long as a twentieth of the run was left alone.
/// The mean of a few passes rather than the single best one, because now
/// and then a pass runs 10 to 20 % *above* the rest (the socket rows fall
/// into a batching rhythm), and a run should not read differently for
/// having had one.
pub const STEADY_SHARE: f64 = 0.05;
/// A traced run spends this share of its seconds on passes; the ledger
/// takes about the rest.
const TRACED_PASS_SHARE: f64 = 0.6;

pub fn run(args: &RunArgs) -> Result<RunRecord, String> {
    match args.workload.as_str() {
        "shrink_spec_azure" => Ok(run_workload::<offline::ShrinkSpecAzure>(args)),
        "smirnov_huawei" => Ok(run_workload::<offline::SmirnovHuawei>(args)),
        "replay_noop_reactor" => Ok(run_workload::<replay::NoopReactor>(args)),
        "replay_noop_threaded" => Ok(run_workload::<replay::NoopThreaded>(args)),
        "replay_spec_inproc" => Ok(run_workload::<replay::SpecInproc>(args)),
        "sim_fat8" => Ok(run_workload::<sim::Fat8>(args)),
        "sim_wide256" => Ok(run_workload::<sim::Wide256>(args)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn run_workload<W: Workload>(args: &RunArgs) -> RunRecord {
    let env = Environment::capture();
    let scratch = args.out.clone().unwrap_or_else(|| PathBuf::from(".bench_tmp"));
    let ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        traced_run: args.traced,
        tracer: Arc::new(Tracer::new()),
        scratch,
        cpus: W::ONE_CPU.then(CpuSplit::pin),
    };
    let mut checks = Checks::default();

    // A traced run also takes spans of what set-up calls.
    ctx.tracer.set_on(args.traced);
    let mut setup_s = Vec::new();
    let filling = Instant::now();
    let fill = if args.traced { args.seconds * SETUP_FILL_SHARE } else { 0.0 };
    let fill = Duration::from_secs_f64(fill);
    let mut workload = loop {
        let (seconds, built) = timed(|| W::setup(&ctx));
        setup_s.push(seconds);
        let enough = setup_s.len() >= MAX_SETUPS || filling.elapsed() >= fill;
        if setup_s.len() >= MIN_SETUPS && enough {
            break built;
        }
        drop(built);
    };
    ctx.tracer.set_on(false);

    let budget = args.seconds * if args.traced { TRACED_PASS_SHARE } else { 1.0 };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let (mut resetups, mut resetup_s) = (0, 0.0);
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
        let due = resetup_s < RESETUP_SHARE * started.elapsed().as_secs_f64();
        if !args.traced && due && resetups < MAX_RESETUPS {
            // One workload at a time, as in the first set-ups: two would
            // double the peak memory.
            drop(workload);
            let (seconds, built) = timed(|| W::setup(&ctx));
            workload = built;
            setup_s.push(seconds);
            resetups += 1;
            resetup_s += seconds;
        }
        passes.push(workload.pass(&ctx, false, &mut checks));
        if args.traced {
            ctx.tracer.set_on(true);
            traced_passes.push(workload.pass(&ctx, true, &mut checks));
            ctx.tracer.set_on(false);
        }
    }
    workload.final_checks(&mut checks);

    let first = passes[0].digest;
    checks.check(passes.iter().chain(&traced_passes).all(|p| p.digest == first), || {
        "output digest differs between passes of one seed".to_owned()
    });

    let column =
        |passes: &[Pass], f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let mut metrics = Metrics::default();
    let mut samples = BTreeMap::new();
    if args.traced {
        let spans = ctx.tracer.take();
        let (setups, traced) = (setup_s.len() as u64, traced_passes.len() as u64);
        workload.layer_metrics(&spans, setups, traced, &mut metrics);
        let wall = |p: &Pass| p.wall_s;
        metrics.set(
            "tracing_overhead_frac",
            median(&mut column(&traced_passes, wall)) / median(&mut column(&passes, wall)) - 1.0,
        );
        ledger::run(ctx.smoke, &mut metrics);
        workload.derived_metrics(&mut metrics);
        if let Some(dir) = &args.out {
            write_trace(dir, &args.workload, &spans);
        }
    } else {
        let mut throughput = column(&passes, |p| p.items as f64 / p.wall_s);
        samples.insert("setup_s", setup_s.clone());
        samples.insert("items_per_s", throughput.clone());
        metrics.set("setup_s", median(&mut setup_s));
        metrics.set("items_per_s", mean_of_highest(&mut throughput, STEADY_SHARE));
        metrics.set("peak_rss_mb", peak_rss_mib());
    }
    drop(workload);
    if args.out.is_none() {
        // The default scratch directory is ours alone; this removes it only
        // once it is empty.
        let _ = std::fs::remove_dir(&ctx.scratch);
    }

    let offered = |f: fn(&Pass) -> u64| passes.iter().chain(&traced_passes).map(f).sum::<u64>();
    let attempted = checks.attempted + offered(|p| p.attempted);
    let failed = checks.failures.len() as u64 + offered(|p| p.failed);
    RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        env,
        passes: passes.len() as u64,
        setups: setup_s.len() as u64,
        output_digest: format!("{first:016x}"),
        failures: checks.failures,
        samples: samples.into_iter().map(|(name, values)| (name.to_owned(), values)).collect(),
        result: ResultLine {
            correct: failed == 0,
            attempted: attempted.max(1),
            failed,
            metrics: if args.traced {
                metrics.finish_per_layer()
            } else {
                metrics.finish_end_to_end()
            },
        },
    }
}

fn write_trace(dir: &std::path::Path, workload: &str, spans: &[Span]) {
    let text = format!(
        "{{\"schema\":\"faasrail-benchmark-trace/v1\",\"workload\":{},\"spans\":{}}}",
        serde_json::to_string(workload).expect("a string serializes"),
        serde_json::to_string(spans).expect("spans serialize"),
    );
    let path = dir.join(format!("trace.{workload}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
