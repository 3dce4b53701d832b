//! A tour of the beyond-the-paper extensions (DESIGN.md §4b), each of which
//! implements one of the paper's §3.3 "next steps".
//!
//! Run with: `cargo run --release --example extensions_tour`

use faasrail::core::mapped_wecdf;
use faasrail::core::subminute::fit_iat_model;
use faasrail::prelude::*;
use faasrail::stats::ecdf::WeightedEcdf;
use faasrail::stats::{ks_distance_weighted, wasserstein1};
use faasrail::trace::azure::{generate as gen_azure, AzureTraceConfig};
use faasrail::trace::huawei::{generate as gen_huawei, HuaweiTraceConfig};
use faasrail::trace::summarize::invocations_duration_wecdf;

fn main() {
    let trace = gen_azure(&AzureTraceConfig::scaled(21, 1_200, 1_200_000));
    let model = CostModel::default_calibration();
    let pool = WorkloadPool::build_modelled(&model);

    // 1. Memory-aware mapping: duration fidelity flat, memory fidelity up.
    println!("1) memory-aware mapping (§3.3 'Memory usage')");
    let agg = faasrail::core::aggregate(&trace, faasrail::core::DurationResolution::Millisecond);
    let mem_target = WeightedEcdf::new(
        agg.functions
            .iter()
            .filter(|f| f.total_invocations() > 0)
            .map(|f| (f.memory_mb, f.total_invocations() as f64)),
    );
    for weight in [0.0, 0.5] {
        let cfg = MappingConfig { memory_weight: weight, ..Default::default() };
        let m = faasrail::core::map_functions(&agg, &pool, &cfg);
        let mapped_mem = mapped_wecdf(&pool, m.mapped_invocations(&agg), |w| w.memory_mb);
        println!(
            "   weight {weight}: duration err {:.2}%, memory W1 {:.0} MiB",
            m.stats.weighted_rel_error * 100.0,
            wasserstein1(&mem_target, &mapped_mem)
        );
    }

    // 2. Variable inputs: rotate same-benchmark alternates per invocation.
    println!("2) variable inputs per Function (§3.3 'Fixed input')");
    let mut cfg = ShrinkRayConfig::new(10, 10.0);
    cfg.max_alternates = 3;
    let (spec, _) = shrink(&trace, &pool, &cfg).expect("shrink");
    let with_alts = spec.entries.iter().filter(|e| !e.alternates.is_empty()).count();
    println!(
        "   {}/{} spec entries carry alternates; request generation rotates them",
        with_alts,
        spec.entries.len()
    );

    // 3. Trace-fit sub-minute burstiness (§3.3 'Sub-minute behavior').
    println!("3) sub-minute model fitted from the trace");
    let huawei = gen_huawei(&HuaweiTraceConfig::small(21));
    for (name, t) in [("azure", &trace), ("huawei", &huawei)] {
        let fit = fit_iat_model(t, 0.35);
        println!(
            "   {name}: measured burst CV {:.2} over {} functions → {:?}",
            fit.cv, fit.functions_measured, fit.model
        );
    }

    // 4. Extended pool (§3.3 'more benchmarking suites').
    println!("4) auxiliary benchmark suite");
    let extended = WorkloadPool::build_modelled_extended(&model);
    println!(
        "   pool grows {} → {} workloads across {} benchmarks",
        pool.len(),
        extended.len(),
        extended.counts_by_kind().len()
    );
    let target = invocations_duration_wecdf(&trace);
    for (name, p) in [("functionbench", &pool), ("extended", &extended)] {
        let m = faasrail::core::map_functions(&agg, p, &MappingConfig::default());
        let mapped = mapped_wecdf(p, m.mapped_invocations(&agg), |w| w.mean_ms);
        println!(
            "   {name}: mapped KS {:.4}, weighted err {:.2}%",
            ks_distance_weighted(&target, &mapped),
            m.stats.weighted_rel_error * 100.0
        );
    }

    // 5. Predictive prewarming in the simulator.
    println!("5) hybrid-histogram keep-alive with prewarming");
    use faasrail::sim::{HybridHistogram, RoundRobin};
    let reqs = {
        // A periodic workload: one invocation a minute for an hour.
        faasrail::core::RequestTrace {
            duration_minutes: 60,
            requests: (0..60u64)
                .map(|i| faasrail::core::Request {
                    at_ms: i * 60_000,
                    workload: faasrail::workloads::WorkloadId(7),
                    function_index: 0,
                })
                .collect(),
        }
    };
    let cluster = ClusterConfig::single_node(4, 4_096.0);
    for (name, prewarm) in [("plain hybrid", false), ("with prewarming", true)] {
        let mut ka =
            if prewarm { HybridHistogram::new().with_prewarming() } else { HybridHistogram::new() };
        let mut lb = RoundRobin::default();
        let m = simulate(&reqs, &pool, &cluster, &mut lb, &mut ka, &SimOptions::default());
        println!(
            "   {name}: {} cold starts, {} prewarms, mean idle warm memory {:.0} MiB",
            m.cold_starts,
            m.prewarms,
            m.mean_idle_memory_mb()
        );
    }
}
