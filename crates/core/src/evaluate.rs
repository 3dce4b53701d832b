//! Representativity evaluation: score a generated request trace against a
//! production trace on the paper's four critical statistical properties.
//!
//! This packages the evaluation methodology of paper §4 as a reusable API:
//! given the original [`Trace`], the generated [`RequestTrace`], and the
//! [`WorkloadPool`] it draws from, compute one score per property —
//!
//! 1. distinct-workload duration distribution (Fig. 6): KS distance,
//! 2. function popularity (Fig. 10): top-share differences,
//! 3. invocation duration distribution (Figs. 9/11): weighted KS,
//! 4. arrival rates over time (Fig. 8): normalized-shape MAE and
//!    second-scale burstiness ratio —
//!
//! so any load generator (FaaSRail's modes, the baselines, or a user's own)
//! can be judged with one call. The statistics themselves are stated once
//! each — [`load_shape_mae`] and [`top_share`] in `faasrail-stats`,
//! [`mapped_wecdf`] and [`kind_shares`] here — and the figures, the CLI and
//! the tests read them from the same place as [`evaluate`].

use crate::request::RequestTrace;
use faasrail_stats::ecdf::{Ecdf, WeightedEcdf};
use faasrail_stats::summary::top_share;
use faasrail_stats::timeseries::{fano_factor, load_shape_mae};
use faasrail_stats::{ks_distance, ks_distance_weighted};
use faasrail_trace::summarize::functions_duration_ecdf;
use faasrail_trace::{Trace, MINUTES_PER_DAY};
use faasrail_workloads::{Workload, WorkloadId, WorkloadKind, WorkloadPool};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scores for the four critical properties (lower is better for the
/// distances; ratios are relative to the trace's own value).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Representativity {
    /// KS between the trace's distinct-function duration CDF and the
    /// distinct-workloads-used duration CDF (property i / Fig. 6).
    pub ks_workload_durations: f64,
    /// Weighted KS between invocation-duration CDFs (property iii / Fig. 9).
    pub ks_invocation_durations: f64,
    /// |top-1% invocation share (trace) − top-1% share (generated)|
    /// (property ii / Fig. 10).
    pub top1_share_error: f64,
    /// Same at the top decile.
    pub top10_share_error: f64,
    /// Mean |relative load error| per experiment minute against the
    /// thumbnailed trace day (property iv / Fig. 8). `NaN` when the
    /// generated trace is shorter than 2 minutes.
    pub load_shape_mae: f64,
    /// Generated-to-trace ratio of per-minute Fano factors (burstiness);
    /// 1.0 = same overdispersion character.
    pub burstiness_ratio: f64,
}

impl Representativity {
    /// A blunt one-number summary: the maximum of the distribution distances
    /// and share errors (shape and burstiness reported separately).
    pub fn worst_distance(&self) -> f64 {
        self.ks_workload_durations
            .max(self.ks_invocation_durations)
            .max(self.top1_share_error)
            .max(self.top10_share_error)
    }
}

/// Weighted ECDF of one attribute of the pool's Workloads (`mean_ms` for the
/// invocation-duration CDFs of Figs. 9 and 11, `memory_mb` for Fig. 7's
/// axis) under a mapping: every `(workload, count)` puts `count` invocations
/// on that Workload. [`WeightedEcdf`] sums the weights of equal values, so a
/// count stands for that many unit-weight points without sorting them.
///
/// # Panics
/// Panics if a Workload is missing from the pool or no count is positive.
pub fn mapped_wecdf(
    pool: &WorkloadPool,
    mapped: impl IntoIterator<Item = (WorkloadId, u64)>,
    of: impl Fn(&Workload) -> f64,
) -> WeightedEcdf {
    WeightedEcdf::new(
        mapped.into_iter().map(|(id, n)| (of(pool.get(id).expect("mapped")), n as f64)),
    )
}

/// Invocations per benchmark kind under a mapping (paper Fig. 12).
pub fn counts_by_kind(
    pool: &WorkloadPool,
    mapped: impl IntoIterator<Item = (WorkloadId, u64)>,
) -> BTreeMap<WorkloadKind, u64> {
    let mut out = BTreeMap::new();
    for (id, n) in mapped {
        *out.entry(pool.get(id).expect("workload in pool").kind()).or_insert(0) += n;
    }
    out
}

/// Each kind's share of the total in `counts` (all zero when the total is).
pub fn kind_shares(counts: &BTreeMap<WorkloadKind, u64>) -> BTreeMap<WorkloadKind, f64> {
    let total = counts.values().sum::<u64>().max(1) as f64;
    counts.iter().map(|(&kind, &n)| (kind, n as f64 / total)).collect()
}

/// Evaluate a generated request trace against a production trace.
///
/// # Panics
/// Panics if the request trace is empty or references workloads missing
/// from the pool.
pub fn evaluate(trace: &Trace, requests: &RequestTrace, pool: &WorkloadPool) -> Representativity {
    assert!(!requests.is_empty(), "cannot evaluate an empty request trace");

    let trace_day = trace.aggregate_minutes();
    let invoked = || trace.functions.iter().filter(|f| f.total_invocations() > 0);

    // Requests per pool Workload: both duration properties need only these
    // counts, not one value per request.
    let per_workload = requests.counts_by_workload(pool);

    // (i) distinct workloads used vs distinct trace functions.
    let used_durs: Vec<f64> = per_workload
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(id, _)| pool.get(id).expect("workload in pool").mean_ms)
        .collect();
    let ks_workload_durations =
        ks_distance(&functions_duration_ecdf(trace), &Ecdf::new(&used_durs));

    // (iii) invocation durations.
    let generated = mapped_wecdf(pool, per_workload, |w| w.mean_ms);
    let in_trace =
        WeightedEcdf::new(invoked().map(|f| (f.avg_duration_ms, f.total_invocations() as f64)));
    let ks_invocation_durations = ks_distance_weighted(&in_trace, &generated);

    // (ii) popularity by originating function.
    let mut gen_counts = requests.counts_by_function();
    let mut trace_counts: Vec<u64> = invoked().map(|f| f.total_invocations()).collect();
    let top1_share_error =
        (top_share(&mut trace_counts, 0.01) - top_share(&mut gen_counts, 0.01)).abs();
    let top10_share_error =
        (top_share(&mut trace_counts, 0.10) - top_share(&mut gen_counts, 0.10)).abs();

    // (iv) load over time.
    let minutes = requests.duration_minutes;
    let generated_minutes = requests.per_minute_counts();
    let load_shape_mae =
        if minutes >= 2 { load_shape_mae(&trace_day, &generated_minutes) } else { f64::NAN };
    let trace_fano = fano_factor(&trace_day);
    let gen_fano = fano_factor(&generated_minutes);
    // Compare relative overdispersion (Fano scales with the mean, so
    // normalize each by its mean rate first).
    let trace_total = trace.total_invocations();
    let trace_rel = trace_fano / (trace_total as f64 / MINUTES_PER_DAY as f64).max(1e-9);
    let gen_rel = gen_fano / (requests.len() as f64 / minutes.max(1) as f64).max(1e-9);
    let burstiness_ratio = gen_rel / trace_rel.max(1e-12);

    Representativity {
        ks_workload_durations,
        ks_invocation_durations,
        top1_share_error,
        top10_share_error,
        load_shape_mae,
        burstiness_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_requests, shrink, ShrinkRayConfig};
    use faasrail_trace::azure::{generate as gen_azure, AzureTraceConfig};
    use faasrail_workloads::CostModel;

    fn setup() -> (Trace, WorkloadPool) {
        (
            gen_azure(&AzureTraceConfig::small(404)),
            WorkloadPool::build_modelled(&CostModel::default_calibration()),
        )
    }

    #[test]
    fn faasrail_load_scores_well_on_every_property() {
        let (trace, pool) = setup();
        let (spec, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(120, 20.0)).unwrap();
        let reqs = generate_requests(&spec, 1);
        let r = evaluate(&trace, &reqs, &pool);
        assert!(r.ks_invocation_durations < 0.15, "{r:?}");
        assert!(r.load_shape_mae < 0.05, "{r:?}");
        assert!(r.top1_share_error < 0.30, "{r:?}");
        assert!(r.worst_distance() < 0.45, "{r:?}");
        assert!(r.burstiness_ratio.is_finite() && r.burstiness_ratio > 0.0);
    }

    #[test]
    fn poisson_baseline_scores_visibly_worse() {
        let (trace, pool) = setup();
        let vanilla = WorkloadPool::vanilla(&CostModel::default_calibration());
        let baseline = faasrail_baselines_shim(&vanilla);
        let rb = evaluate(&trace, &baseline, &vanilla);

        let (spec, _) = shrink(&trace, &pool, &ShrinkRayConfig::new(120, 20.0)).unwrap();
        let rr = evaluate(&trace, &generate_requests(&spec, 1), &pool);
        assert!(
            rr.ks_invocation_durations * 2.0 < rb.ks_invocation_durations,
            "faasrail {rr:?} vs baseline {rb:?}"
        );
        assert!(rr.load_shape_mae * 2.0 < rb.load_shape_mae);
    }

    /// A miniature plain-Poisson baseline without depending on the
    /// baselines crate (which depends on this one).
    fn faasrail_baselines_shim(pool: &WorkloadPool) -> RequestTrace {
        use faasrail_stats::sampler::{Exponential, Sampler};
        use faasrail_stats::Rng;
        let mut rng = faasrail_stats::seeded_rng(5);
        let gap = Exponential::from_mean(50.0);
        let mut t = 0.0;
        let mut requests = Vec::new();
        while (t as u64) < 120 * 60_000 {
            let w = pool.workloads()[rng.range(0..pool.len())].id;
            requests.push(crate::Request { at_ms: t as u64, workload: w, function_index: w.0 });
            t += gap.sample(&mut rng);
        }
        RequestTrace { duration_minutes: 120, requests }
    }

    #[test]
    #[should_panic]
    fn empty_requests_panic() {
        let (trace, pool) = setup();
        let empty = RequestTrace { duration_minutes: 1, requests: vec![] };
        evaluate(&trace, &empty, &pool);
    }
}
