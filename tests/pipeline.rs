//! End-to-end integration: trace → pool → shrink ray → requests → cluster.
//!
//! These tests cross every crate boundary in one flow and assert the
//! paper's four critical statistical properties survive the pipeline.

use faasrail::prelude::*;
use faasrail::sim::{FixedTtl, WarmFirst};
use faasrail::stats::ks_distance_weighted;
use faasrail::stats::summary::top_share;
use faasrail::stats::timeseries::load_shape_mae;
use faasrail::trace::azure::{generate as gen_azure, AzureTraceConfig};
use faasrail::trace::summarize::invocations_duration_wecdf;

fn setup() -> (faasrail::trace::Trace, WorkloadPool) {
    let trace = gen_azure(&AzureTraceConfig::small(1234));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    (trace, pool)
}

#[test]
fn full_pipeline_preserves_all_four_properties() {
    let (trace, pool) = setup();
    let cfg = ShrinkRayConfig::new(120, 20.0);
    let (spec, report) = shrink(&trace, &pool, &cfg).expect("shrink");
    let requests = generate_requests(&spec, 99);

    // Property (iii): invocation execution-duration distribution.
    let target = invocations_duration_wecdf(&trace);
    let ks = ks_distance_weighted(&target, &requests.duration_wecdf(&pool));
    assert!(ks < 0.15, "invocation-duration KS = {ks}");

    // Property (iv): arrival-rate trend over time follows the (thumbnailed)
    // trace day.
    let mae = load_shape_mae(&trace.aggregate_minutes(), &requests.per_minute_counts());
    assert!(mae < 0.05, "load-shape mean abs error = {mae}");

    // Property (ii): popularity skew — the top Function still dominates.
    let share = top_share(&mut requests.counts_by_function(), 0.10);
    assert!(share > 0.5, "top-10% Function share = {share}");

    // Rate budget: no minute exceeds the target.
    assert!(spec.peak_per_minute() <= 1_200);
    // Aggregation actually reduced the function count.
    assert!(report.aggregated_functions < report.trace_functions);

    // The request trace replays cleanly on the simulated cluster.
    let mut lb = WarmFirst;
    let mut ka = FixedTtl::ten_minutes();
    let m = simulate(
        &requests,
        &pool,
        &ClusterConfig::default(),
        &mut lb,
        &mut ka,
        &SimOptions::default(),
    );
    assert_eq!(m.arrivals as usize, requests.len());
    assert_eq!(m.completions + m.starved, m.arrivals);
    assert!(m.cold_start_fraction() < 0.5, "cold fraction {}", m.cold_start_fraction());
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let (trace, pool) = setup();
    let cfg = ShrinkRayConfig::new(30, 5.0);
    let run = || {
        let (spec, _) = shrink(&trace, &pool, &cfg).expect("shrink");
        generate_requests(&spec, 5)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_target_rates_scale_linearly() {
    let (trace, pool) = setup();
    let (spec5, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(60, 5.0)).unwrap();
    let (spec20, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(60, 20.0)).unwrap();
    let ratio = spec20.total_requests() as f64 / spec5.total_requests() as f64;
    assert!((ratio - 4.0).abs() < 0.2, "volume ratio = {ratio}");
}

#[test]
fn huawei_pipeline_works_too() {
    let trace =
        faasrail::trace::huawei::generate(&faasrail::trace::huawei::HuaweiTraceConfig::small(9));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let (spec, report) = shrink(&trace, &pool, &ShrinkRayConfig::new(60, 10.0)).expect("shrink");
    assert!(spec.total_requests() > 0);
    assert!(spec.peak_per_minute() <= 600);
    // Huawei aggregation uses the finer 0.1 ms resolution automatically.
    assert!(report.aggregated_functions <= report.trace_functions);
    let target = invocations_duration_wecdf(&trace);
    let got = faasrail::core::mapped_wecdf(&pool, spec.mapped_requests(), |w| w.mean_ms);
    let ks = ks_distance_weighted(&target, &got);
    assert!(ks < 0.25, "huawei mapped KS = {ks}");
}
