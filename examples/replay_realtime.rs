//! Real-time replay: actually *running* the workload kernels under
//! FaaSRail pacing against a warm-cache FaaS node.
//!
//! Everything here is wall-clock real: each worker claims the next request
//! from the trace and sends it at its scheduled instant (time-compressed
//! 4×), or at once if it is already due, so the schedule stays open-loop;
//! the backend executes the mapped kernel (AES, matmul, JSON, …) and
//! charges real cold-start delays.
//!
//! Run with: `cargo run --release --example replay_realtime`

use faasrail::prelude::*;
use faasrail::sim::{ColdStartModel, FixedTtl, WarmCacheBackend, WarmCacheConfig};
use faasrail::trace::huawei::{generate as generate_trace, HuaweiTraceConfig};
use std::time::Instant;

fn main() {
    // Huawei profile: sub-2 s workloads, so really *executing* the mapped
    // kernels stays snappy. (An Azure-profile replay works identically but
    // its invocation mix legitimately contains multi-second kernels, so
    // budget minutes of compute for it.)
    let trace = generate_trace(&HuaweiTraceConfig::small(9));
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());

    // A 2-minute experiment at ≤ 10 rps, replayed 4× faster (~30 s wall).
    let (spec, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(2, 10.0)).expect("shrink");
    let requests = generate_requests(&spec, 2);
    println!(
        "replaying {} requests ({} experiment minutes) at 4x compression...",
        requests.len(),
        requests.duration_minutes
    );

    let backend = WarmCacheBackend::new(
        pool.clone(),
        WarmCacheConfig {
            capacity_mb: 4_096.0,
            cold_start: ColdStartModel::snapshot(),
            cold_scale: 0.25, // scale slept cold delays with the compression
            execute_kernels: true,
        },
        Box::new(FixedTtl { ttl_ms: 60_000 }),
    );

    let started = Instant::now();
    let metrics = replay(
        &requests,
        &pool,
        &backend,
        &ReplayConfig { pacing: Pacing::RealTime { compression: 4.0 }, workers: 8 },
    );
    let wall = started.elapsed();

    println!(
        "done in {:.1}s wall clock: {} completed, {} cold starts ({:.1}%)",
        wall.as_secs_f64(),
        metrics.completed,
        metrics.cold_starts,
        metrics.cold_starts as f64 / metrics.completed.max(1) as f64 * 100.0
    );
    println!(
        "service times: p50 {:.2} ms, p99 {:.2} ms (real kernel execution)",
        metrics.service.quantile(0.50) * 1_000.0,
        metrics.service.quantile(0.99) * 1_000.0
    );
    println!(
        "dispatch lateness: p50 {:.3} ms, p99 {:.3} ms (pacing accuracy)",
        metrics.lateness.quantile(0.50) * 1_000.0,
        metrics.lateness.quantile(0.99) * 1_000.0
    );
    println!(
        "response (incl. queueing): p50 {:.2} ms, p99 {:.2} ms",
        metrics.response_quantile_ms(0.50),
        metrics.response_quantile_ms(0.99)
    );
}
