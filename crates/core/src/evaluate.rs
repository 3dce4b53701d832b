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
//! can be judged with one call.

use crate::request::RequestTrace;
use faasrail_stats::ecdf::{Ecdf, WeightedEcdf};
use faasrail_stats::timeseries::{fano_factor, normalize_peak, rebin_sum};
use faasrail_stats::{ks_distance, ks_distance_weighted};
use faasrail_trace::summarize::functions_duration_ecdf;
use faasrail_trace::{Trace, MINUTES_PER_DAY};
use faasrail_workloads::WorkloadPool;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

fn top_share_of_counts(counts: &mut [u64], frac: f64) -> f64 {
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let grand: u64 = counts.iter().sum();
    if grand == 0 {
        return 0.0;
    }
    let k = ((counts.len() as f64 * frac).round() as usize).max(1);
    counts.iter().take(k).sum::<u64>() as f64 / grand as f64
}

/// Evaluate a generated request trace against a production trace.
///
/// # Panics
/// Panics if the request trace is empty or references workloads missing
/// from the pool.
pub fn evaluate(trace: &Trace, requests: &RequestTrace, pool: &WorkloadPool) -> Representativity {
    assert!(!requests.is_empty(), "cannot evaluate an empty request trace");

    // The trace's sparse minute entries are by far the largest input; walk
    // them once for every figure below that is drawn from them.
    let mut trace_day = vec![0u64; MINUTES_PER_DAY];
    let fn_totals: Vec<u64> = trace
        .functions
        .iter()
        .map(|f| {
            let mut total = 0u64;
            for &(m, c) in f.minutes.entries() {
                trace_day[m as usize] += c as u64;
                total += c as u64;
            }
            total
        })
        .collect();
    let invoked = || trace.functions.iter().zip(&fn_totals).filter(|&(_, &t)| t > 0);

    // Requests per pool Workload, by id: both duration properties need only
    // these counts, not one value per request.
    let mut per_workload = vec![0u64; pool.len()];
    for r in &requests.requests {
        *per_workload.get_mut(r.workload.0 as usize).expect("workload in pool") += 1;
    }
    let used = || pool.workloads().iter().zip(&per_workload).filter(|&(_, &n)| n > 0);

    // (i) distinct workloads used vs distinct trace functions.
    let used_durs: Vec<f64> = used().map(|(w, _)| w.mean_ms).collect();
    let ks_workload_durations =
        ks_distance(&functions_duration_ecdf(trace), &Ecdf::new(&used_durs));

    // (iii) invocation durations. `WeightedEcdf` sums the weights of equal
    // values, so a Workload's count stands for that many unit-weight points.
    let generated = WeightedEcdf::new(used().map(|(w, &n)| (w.mean_ms, n as f64)));
    let in_trace = WeightedEcdf::new(invoked().map(|(f, &t)| (f.avg_duration_ms, t as f64)));
    let ks_invocation_durations = ks_distance_weighted(&in_trace, &generated);

    // (ii) popularity by originating function.
    let mut by_fn: HashMap<u32, u64> = HashMap::new();
    for r in &requests.requests {
        *by_fn.entry(r.function_index).or_insert(0) += 1;
    }
    let mut gen_counts: Vec<u64> = by_fn.into_values().collect();
    let mut trace_counts: Vec<u64> = invoked().map(|(_, &t)| t).collect();
    let top1_share_error = (top_share_of_counts(&mut trace_counts, 0.01)
        - top_share_of_counts(&mut gen_counts, 0.01))
    .abs();
    let top10_share_error = (top_share_of_counts(&mut trace_counts, 0.10)
        - top_share_of_counts(&mut gen_counts, 0.10))
    .abs();

    // (iv) load over time.
    let minutes = requests.duration_minutes;
    let generated_minutes = requests.per_minute_counts();
    let load_shape_mae = if minutes >= 2 {
        let want = normalize_peak(&rebin_sum(&trace_day, minutes));
        let have = normalize_peak(&generated_minutes);
        want.iter().zip(&have).map(|(a, b)| (a - b).abs()).sum::<f64>() / minutes as f64
    } else {
        f64::NAN
    };
    let trace_fano = fano_factor(&trace_day);
    let gen_fano = fano_factor(&generated_minutes);
    // Compare relative overdispersion (Fano scales with the mean, so
    // normalize each by its mean rate first).
    let trace_total: u64 = fn_totals.iter().sum();
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
