//! Shared machinery for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (see DESIGN.md §3 for the index). Binaries print
//! machine-readable CSV to stdout — `# `-prefixed comment lines carry
//! section headers and paper-vs-measured summaries.
//!
//! Scale is controlled by the `FAASRAIL_SCALE` environment variable:
//! `small` (default; ~2 K-function traces, seconds per figure) or `paper`
//! (full 49.7 K-function / 908 M-invocation scale; use release builds).

pub mod harness;

use faasrail_stats::ecdf::{Ecdf, WeightedEcdf};
use faasrail_trace::azure::AzureTraceConfig;
use faasrail_trace::huawei::HuaweiTraceConfig;
use faasrail_trace::Trace;
use faasrail_workloads::{CostModel, WorkloadPool};

/// Experiment scale for the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced traces: fast, CI-friendly, same distributional shapes.
    Small,
    /// Full paper-scale traces (49 728 functions / 908 M invocations).
    Paper,
}

impl Scale {
    /// Read the scale from `FAASRAIL_SCALE` (default: small).
    pub fn from_env() -> Scale {
        match std::env::var("FAASRAIL_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Small,
        }
    }
}

/// The deterministic seed shared by all figures (override: `FAASRAIL_SEED`).
pub fn seed_from_env() -> u64 {
    std::env::var("FAASRAIL_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// The Azure trace at the chosen scale.
pub fn azure_trace(scale: Scale, seed: u64) -> Trace {
    let cfg = match scale {
        Scale::Small => AzureTraceConfig::small(seed),
        Scale::Paper => AzureTraceConfig::paper_scale(seed),
    };
    faasrail_trace::azure::generate(&cfg)
}

/// The Huawei trace at the chosen scale.
pub fn huawei_trace(scale: Scale, seed: u64) -> Trace {
    let cfg = match scale {
        Scale::Small => HuaweiTraceConfig::small(seed),
        Scale::Paper => HuaweiTraceConfig::paper_scale(seed),
    };
    faasrail_trace::huawei::generate(&cfg)
}

/// The standard modelled pool (2291 Workloads) and vanilla pool.
pub fn pools() -> (WorkloadPool, WorkloadPool) {
    let model = CostModel::default_calibration();
    (WorkloadPool::build_modelled(&model), WorkloadPool::vanilla(&model))
}

/// Print an unweighted CDF as `label,x,F(x)` rows, downsampled to `points`
/// quantile points (figures don't need millions of rows).
pub fn print_cdf(label: &str, ecdf: &Ecdf, points: usize) {
    for i in 0..=points {
        let q = i as f64 / points as f64;
        let x = ecdf.inverse_interp(q);
        println!("{label},{x:.6},{q:.6}");
    }
}

/// Print a weighted CDF as `label,x,F(x)` rows over its support
/// (downsampled to at most `points` support values).
pub fn print_wcdf(label: &str, wecdf: &WeightedEcdf, points: usize) {
    let n = wecdf.len();
    let step = (n / points).max(1);
    for i in (0..n).step_by(step) {
        let x = wecdf.values()[i];
        println!("{label},{x:.6},{:.6}", wecdf.cumulative()[i]);
    }
    if !(n - 1).is_multiple_of(step) {
        let x = wecdf.values()[n - 1];
        println!("{label},{x:.6},1.000000");
    }
}

/// Print a time series as `label,index,value` rows.
pub fn print_series(label: &str, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        println!("{label},{i},{v:.6}");
    }
}

/// Print a `# `-prefixed comment line (section header / summary).
pub fn comment(s: &str) {
    println!("# {s}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_small() {
        // Note: relies on the variable being unset in the test env.
        if std::env::var("FAASRAIL_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Small);
        }
    }

    #[test]
    fn pools_have_expected_sizes() {
        let (pool, vanilla) = pools();
        assert!(pool.len() > 2_000);
        assert_eq!(vanilla.len(), 10);
    }
}
