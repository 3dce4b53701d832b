//! Integration of the online load generator with the shrink ray's output
//! and the kernel-executing warm-cache backend.

use faasrail::prelude::*;
use faasrail::sim::{ColdStartModel, FixedTtl, WarmCacheBackend, WarmCacheConfig};
use faasrail::trace::azure::{generate as gen_azure, AzureTraceConfig};
use std::time::Duration;

#[test]
fn generated_load_replays_against_warm_cache_backend() {
    let trace = gen_azure(&AzureTraceConfig::scaled(5, 300, 50_000));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let (spec, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(5, 2.0)).unwrap();
    let reqs = generate_requests(&spec, 8);
    assert!(!reqs.is_empty());

    let backend = WarmCacheBackend::new(
        pool.clone(),
        WarmCacheConfig {
            capacity_mb: 2_048.0,
            cold_start: ColdStartModel::snapshot(),
            cold_scale: 0.0,        // don't sleep cold delays in tests
            execute_kernels: false, // account only; no real compute in CI
        },
        Box::new(FixedTtl::ten_minutes()),
    );
    let m = replay(&reqs, &pool, &backend, &ReplayConfig { pacing: Pacing::Unpaced, workers: 4 });
    assert_eq!(m.issued as usize, reqs.len());
    assert_eq!(m.completed as usize, reqs.len());
    assert_eq!(m.errors, 0);
    assert!(m.cold_starts > 0, "first touch of each workload is cold");
    assert!(m.cold_starts <= m.completed);
    // Cold starts are bounded by the distinct workloads plus re-warms after
    // eviction; with 2 GiB capacity evictions occur but stay moderate.
    let distinct: std::collections::BTreeSet<_> =
        reqs.requests.iter().map(|r| r.workload).collect();
    assert!(m.cold_starts >= distinct.len() as u64);
}

#[test]
fn per_kind_accounting_matches_request_mix() {
    let trace = gen_azure(&AzureTraceConfig::scaled(6, 300, 50_000));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let (spec, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(5, 2.0)).unwrap();
    let reqs = generate_requests(&spec, 9);

    let backend = WarmCacheBackend::new(
        pool.clone(),
        WarmCacheConfig { cold_scale: 0.0, execute_kernels: false, ..Default::default() },
        Box::new(FixedTtl::ten_minutes()),
    );
    let m = replay(&reqs, &pool, &backend, &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 });
    let expect = reqs.counts_by_kind(&pool);
    assert_eq!(m.per_kind, expect, "replay-side per-kind counts must match the trace");
}

#[test]
fn realtime_pacing_meets_schedule_under_load() {
    // Short real-time run: 5 seconds of schedule at 40 rps, 8x compressed.
    let trace = gen_azure(&AzureTraceConfig::scaled(7, 200, 40_000));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    let (spec, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(1, 4.0)).unwrap();
    let reqs = generate_requests(&spec, 10);

    let backend = WarmCacheBackend::new(
        pool.clone(),
        WarmCacheConfig { cold_scale: 0.0, execute_kernels: false, ..Default::default() },
        Box::new(FixedTtl::ten_minutes()),
    );
    let started = std::time::Instant::now();
    let m = replay(
        &reqs,
        &pool,
        &backend,
        &ReplayConfig { pacing: Pacing::RealTime { compression: 8.0 }, workers: 4 },
    );
    let wall = started.elapsed();
    assert_eq!(m.completed as usize, reqs.len());
    // 60 s of schedule at 8x ≈ 7.5 s; allow generous slack for CI.
    assert!(wall < Duration::from_secs(20), "took {wall:?}");
    assert!(
        m.lateness.quantile(0.5) < 0.01,
        "median dispatch lateness {}s",
        m.lateness.quantile(0.5)
    );
}
