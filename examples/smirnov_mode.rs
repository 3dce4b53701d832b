//! Smirnov-Transform mode: distribution-faithful load at an arbitrary rate.
//!
//! When the study needs a *tunable* load pattern (fixed rate, chosen IAT
//! distribution) but still wants invocation runtimes that follow a
//! production trace, FaaSRail's Smirnov mode samples durations from the
//! trace's invocation-weighted ECDF by inverse transform sampling and maps
//! them to real workloads.
//!
//! Run with: `cargo run --release --example smirnov_mode`

use faasrail::core::{kind_shares, smirnov};
use faasrail::prelude::*;
use faasrail::stats::ks_distance_weighted;
use faasrail::trace::summarize::invocations_duration_wecdf;
use faasrail::trace::{azure, huawei};

fn study(name: &str, trace: &faasrail::trace::Trace, pool: &WorkloadPool) {
    let cfg = SmirnovConfig {
        num_invocations: 30_000,
        rate_rps: 100.0,
        iat: IatModel::Poisson,
        mapping: MappingConfig::default(),
        seed: 5,
    };
    let (requests, report) = smirnov::generate(trace, pool, &cfg);

    let target = invocations_duration_wecdf(trace);
    let achieved = requests.duration_wecdf(pool);
    println!(
        "{name}: {} requests over {} min; KS(trace, generated) = {:.4}; \
         {:.1}% mapped within threshold",
        requests.len(),
        requests.duration_minutes,
        ks_distance_weighted(&target, &achieved),
        report.within_threshold_fraction * 100.0
    );
    println!("  requests per benchmark:");
    for (kind, share) in kind_shares(&report.counts_by_kind) {
        println!("    {:<18} {:>6.2}%", kind.name(), share * 100.0);
    }
}

fn main() {
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());

    let azure = azure::generate(&azure::AzureTraceConfig::scaled(3, 1_000, 1_000_000));
    study("azure", &azure, &pool);

    let huawei = huawei::generate(&huawei::HuaweiTraceConfig::small(3));
    study("huawei-private", &huawei, &pool);
}
