//! The paper's headline claim, as an executable test: FaaSRail-generated
//! load tracks the trace's critical statistical properties *better than
//! every prior-practice baseline* (paper Figs. 1, 8, 9, 10).

use faasrail::baselines::poisson_emulation::{self, PoissonEmulationConfig};
use faasrail::baselines::random_sampling::{self, RandomSamplingConfig};
use faasrail::prelude::*;
use faasrail::stats::ks_distance_weighted;
use faasrail::stats::summary::top_share;
use faasrail::stats::timeseries::load_shape_mae;
use faasrail::trace::azure::{generate as gen_azure, AzureTraceConfig};
use faasrail::trace::summarize::invocations_duration_wecdf;

struct Setup {
    trace: faasrail::trace::Trace,
    pool: WorkloadPool,
    vanilla: WorkloadPool,
}

fn setup() -> Setup {
    let model = CostModel::default_calibration();
    Setup {
        trace: gen_azure(&AzureTraceConfig::small(77)),
        pool: WorkloadPool::build_modelled(&model),
        vanilla: WorkloadPool::vanilla(&model),
    }
}

#[test]
fn faasrail_beats_baselines_on_runtime_distribution() {
    let s = setup();
    let target = invocations_duration_wecdf(&s.trace);

    let (spec, _) = shrink(&s.trace, &s.pool, &ShrinkRayConfig::new(120, 20.0)).unwrap();
    let rail = generate_requests(&spec, 1);
    let ks_rail = ks_distance_weighted(&target, &rail.duration_wecdf(&s.pool));

    let poisson = poisson_emulation::generate(&s.vanilla, &PoissonEmulationConfig::paper_fig1(1));
    let ks_poisson = ks_distance_weighted(&target, &poisson.duration_wecdf(&s.vanilla));

    let sampling =
        random_sampling::generate(&s.trace, &s.vanilla, &RandomSamplingConfig::paper_fig1(1));
    let ks_sampling = ks_distance_weighted(&target, &sampling.duration_wecdf(&s.vanilla));

    assert!(
        ks_rail < ks_poisson && ks_rail < ks_sampling,
        "FaaSRail KS {ks_rail:.3} must beat Poisson {ks_poisson:.3} and sampling {ks_sampling:.3}"
    );
    // And not just marginally: the paper's figures show a decisive gap.
    assert!(ks_rail * 2.0 < ks_poisson, "expected ≥2x better than plain Poisson");
}

#[test]
fn faasrail_beats_baselines_on_load_shape() {
    let s = setup();
    let day = s.trace.aggregate_minutes();

    let (spec, _) = shrink(&s.trace, &s.pool, &ShrinkRayConfig::new(120, 20.0)).unwrap();
    let rail = generate_requests(&spec, 2);
    let poisson = poisson_emulation::generate(&s.vanilla, &PoissonEmulationConfig::paper_fig1(2));

    let mae_rail = load_shape_mae(&day, &rail.per_minute_counts());
    let mae_poisson = load_shape_mae(&day, &poisson.per_minute_counts());
    assert!(
        mae_rail * 2.0 < mae_poisson,
        "load-shape error: faasrail {mae_rail:.4} vs poisson {mae_poisson:.4}"
    );
}

#[test]
fn faasrail_beats_plain_poisson_on_popularity() {
    let s = setup();
    // Trace ground truth: share of invocations from the top 1% of functions.
    let trace_top1 = faasrail::trace::summarize::top_share(&s.trace, 0.01);

    let top1_share = |reqs: &RequestTrace| top_share(&mut reqs.counts_by_function(), 0.01);

    let (spec, _) = shrink(&s.trace, &s.pool, &ShrinkRayConfig::new(120, 20.0)).unwrap();
    let rail = top1_share(&generate_requests(&spec, 3));
    let poisson = top1_share(&poisson_emulation::generate(
        &s.vanilla,
        &PoissonEmulationConfig::paper_fig1(3),
    ));

    assert!(trace_top1 > 0.3, "trace should be skewed, top1 = {trace_top1}");
    assert!(
        (rail - trace_top1).abs() < (poisson - trace_top1).abs(),
        "faasrail top-1% {rail:.3} should be closer to trace {trace_top1:.3} than poisson {poisson:.3}"
    );
}

#[test]
fn busy_loops_match_runtimes_but_run_nothing() {
    // The busy-loop baseline *does* match the runtime CDF (its selling
    // point) — FaaSRail's advantage there is real computation, which the
    // type system shows: BusyLoopFunction has no workload input at all.
    let s = setup();
    let funcs = faasrail::baselines::busy_loops::fabricate(&s.trace, 2_000, 4);
    let got =
        faasrail::stats::ecdf::Ecdf::new(&funcs.iter().map(|f| f.duration_ms).collect::<Vec<_>>());
    let want = faasrail::trace::summarize::functions_duration_ecdf(&s.trace);
    let ks = faasrail::stats::ks_distance(&want, &got);
    assert!(ks < 0.06, "busy loops should track the per-function CDF, KS = {ks}");
}
