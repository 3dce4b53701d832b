//! Smirnov Transform execution mode (paper §3.2.2, Fig. 5).
//!
//! Instead of replaying per-minute trace rates, this mode samples invocation
//! durations directly from the trace's invocation-weighted empirical CDF by
//! inverse transform sampling (the Smirnov transform, with linear
//! interpolation between support points), maps each sampled duration to a
//! pool Workload, and emits requests at a user-chosen constant rate with the
//! configured inter-arrival distribution. The result follows the trace's
//! invocation-runtime distribution while leaving the load pattern synthetic
//! and tunable.

use crate::mapping::{first_min, BalanceStrategy, MappingConfig};
use crate::request::{Request, RequestTrace};
use crate::spec::IatModel;
use faasrail_stats::ecdf::WeightedEcdf;
use faasrail_stats::sampler::{Exponential, Sampler};
use faasrail_stats::{seeded_rng, Rng};
use faasrail_trace::summarize::invocations_duration_wecdf;
use faasrail_trace::Trace;
use faasrail_workloads::{WorkloadKind, WorkloadPool};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Configuration for a Smirnov-mode run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmirnovConfig {
    /// How many invocation requests to produce.
    pub num_invocations: usize,
    /// Constant request rate, requests/second.
    pub rate_rps: f64,
    /// Inter-arrival model (Poisson → exponential gaps at `rate_rps`).
    pub iat: IatModel,
    /// Mapping parameters (threshold + balance), reused per sampled value.
    pub mapping: MappingConfig,
    pub seed: u64,
}

impl SmirnovConfig {
    /// A paper-style run: 120 K invocations at 20 rps, Poisson arrivals.
    pub fn paper_default(seed: u64) -> Self {
        SmirnovConfig {
            num_invocations: 120_408,
            rate_rps: 20.0,
            iat: IatModel::Poisson,
            mapping: MappingConfig::default(),
            seed,
        }
    }
}

/// What a Smirnov run reports alongside its request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmirnovReport {
    /// Requests per benchmark kind (paper Fig. 12b).
    pub counts_by_kind: BTreeMap<WorkloadKind, u64>,
    /// Fraction of samples mapped within the error threshold.
    pub within_threshold_fraction: f64,
    /// Mean relative duration error of the mapping.
    pub mean_rel_error: f64,
}

/// Generate a Smirnov-mode request trace from a trace and a pool.
pub fn generate(
    trace: &Trace,
    pool: &WorkloadPool,
    cfg: &SmirnovConfig,
) -> (RequestTrace, SmirnovReport) {
    assert!(cfg.num_invocations > 0, "need at least one invocation");
    assert!(cfg.rate_rps > 0.0, "rate must be positive");
    let wecdf: WeightedEcdf = invocations_duration_wecdf(trace);
    let mut rng = seeded_rng(cfg.seed);

    let index = pool.runtime_index();
    let by_ms = index.entries();
    let nearest_only = cfg.mapping.balance == BalanceStrategy::NearestOnly;

    // Candidate-band cache keyed by the sampled duration quantized to 0.1 ms
    // (the ECDF's inverse is piecewise linear, so nearby samples share
    // candidates). A band is that of the first duration seen in its bucket.
    let mut range_cache: HashMap<u64, Range<usize>> = HashMap::new();
    // Requests per Workload *variant* (see `mapping::BalanceStrategy`), by
    // position in `by_ms`.
    let mut variant_load = vec![0u64; by_ms.len()];
    let mut within = 0usize;
    let mut err_sum = 0.0f64;

    // Arrival times.
    let total_ms = cfg.num_invocations as f64 / cfg.rate_rps * 1_000.0;
    let mut requests = Vec::with_capacity(cfg.num_invocations);
    let gap = Exponential::from_mean(1_000.0 / cfg.rate_rps);
    let mut t = 0.0f64;
    // Bursty (Cox-process) state: Gamma rate multiplier, resampled every
    // 10 s of generated time.
    let burst_gamma = match cfg.iat {
        IatModel::Bursty { cv } if cv > 0.0 => {
            Some(faasrail_stats::sampler::Gamma::unit_mean_with_cv(cv))
        }
        _ => None,
    };
    let mut burst_mult = 1.0f64;
    let mut burst_until = 0.0f64;

    for i in 0..cfg.num_invocations {
        // 1. Smirnov transform: uniform variate through the inverse CDF.
        let d = wecdf.inverse(rng.next_f64());

        // 2. Map the sampled duration to a Workload.
        let key = (d * 10.0).round() as u64;
        let band = range_cache
            .entry(key)
            .or_insert_with(|| index.band(d, cfg.mapping.error_threshold))
            .clone();
        let pos = if band.is_empty() {
            index.nearest(d)
        } else {
            within += 1;
            first_min(
                band,
                |pos| if nearest_only { 0 } else { variant_load[pos] },
                |pos| (by_ms[pos].mean_ms - d).abs(),
            )
        };
        let chosen = &by_ms[pos];
        variant_load[pos] += 1;
        err_sum += if d > 0.0 { (chosen.mean_ms - d).abs() / d } else { 0.0 };

        // 3. Arrival time under the configured IAT model.
        let at_ms = match cfg.iat {
            IatModel::Poisson => {
                t += gap.sample(&mut rng);
                t as u64
            }
            IatModel::UniformRandom => (rng.next_f64() * total_ms) as u64,
            IatModel::Equidistant => ((i as f64 + 0.5) * 1_000.0 / cfg.rate_rps) as u64,
            IatModel::Bursty { .. } => {
                if t >= burst_until {
                    burst_mult = burst_gamma.as_ref().map_or(1.0, |g| g.sample(&mut rng)).max(1e-3);
                    burst_until = t + 10_000.0;
                }
                t += gap.sample(&mut rng) / burst_mult;
                t as u64
            }
        };
        requests.push(Request {
            at_ms,
            workload: chosen.id,
            // Smirnov requests have no originating trace Function; carry the
            // workload id for grouping.
            function_index: chosen.id.0,
        });
    }

    requests.sort_by_key(|r| (r.at_ms, r.function_index));
    let duration_minutes = requests.last().map(|r| (r.at_ms / 60_000) as usize + 1).unwrap_or(1);

    let mut counts_by_kind: BTreeMap<WorkloadKind, u64> = BTreeMap::new();
    for (entry, &n) in by_ms.iter().zip(&variant_load).filter(|&(_, &n)| n > 0) {
        *counts_by_kind.entry(entry.kind).or_insert(0) += n;
    }
    let report = SmirnovReport {
        counts_by_kind,
        within_threshold_fraction: within as f64 / cfg.num_invocations as f64,
        mean_rel_error: err_sum / cfg.num_invocations as f64,
    };
    (RequestTrace { duration_minutes, requests }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::ks_distance_weighted;
    use faasrail_trace::azure::{generate as gen_azure, AzureTraceConfig};
    use faasrail_trace::huawei::{generate as gen_huawei, HuaweiTraceConfig};
    use faasrail_workloads::CostModel;

    fn small_cfg(seed: u64) -> SmirnovConfig {
        SmirnovConfig {
            num_invocations: 20_000,
            rate_rps: 50.0,
            iat: IatModel::Poisson,
            mapping: MappingConfig::default(),
            seed,
        }
    }

    #[test]
    fn deterministic() {
        let trace = gen_azure(&AzureTraceConfig::small(1));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let a = generate(&trace, &pool, &small_cfg(5));
        let b = generate(&trace, &pool, &small_cfg(5));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn azure_runtime_distribution_followed() {
        // Fig. 11a: the mapped workloads' runtimes follow the trace's
        // invocation-duration CDF.
        let trace = gen_azure(&AzureTraceConfig::small(2));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let (reqs, report) = generate(&trace, &pool, &small_cfg(7));
        let target = invocations_duration_wecdf(&trace);
        let got = reqs.duration_wecdf(&pool);
        let ks = ks_distance_weighted(&target, &got);
        assert!(ks < 0.10, "KS = {ks}");
        assert!(report.within_threshold_fraction > 0.85, "{report:?}");
    }

    #[test]
    fn huawei_short_runtimes_followed() {
        // Fig. 11b: works for the much-faster Huawei distribution too.
        let trace = gen_huawei(&HuaweiTraceConfig::small(3));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let (reqs, _) = generate(&trace, &pool, &small_cfg(9));
        let target = invocations_duration_wecdf(&trace);
        let got = reqs.duration_wecdf(&pool);
        let ks = ks_distance_weighted(&target, &got);
        assert!(ks < 0.25, "KS = {ks}");
    }

    #[test]
    fn huawei_mapping_imbalanced_toward_pyaes() {
        // Fig. 12b: under the current augmentation pyaes dominates the
        // short-running pool, so Huawei-mapped requests skew heavily to it,
        // and the slow benchmarks (cnn, lr_training, video) rarely appear.
        let trace = gen_huawei(&HuaweiTraceConfig::small(4));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let (_, report) = generate(&trace, &pool, &small_cfg(11));
        let total: u64 = report.counts_by_kind.values().sum();
        let aes = report.counts_by_kind.get(&WorkloadKind::Pyaes).copied().unwrap_or(0);
        assert!(aes as f64 / total as f64 > 0.3, "pyaes share = {}/{total}", aes);
        let slow =
            [WorkloadKind::CnnServing, WorkloadKind::LrTraining, WorkloadKind::VideoProcessing];
        for k in slow {
            let c = report.counts_by_kind.get(&k).copied().unwrap_or(0);
            assert!((c as f64) < total as f64 * 0.05, "{k} over-represented: {c}/{total}");
        }
    }

    #[test]
    fn equidistant_arrivals_constant_rate() {
        let trace = gen_azure(&AzureTraceConfig::small(5));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let mut cfg = small_cfg(13);
        cfg.iat = IatModel::Equidistant;
        cfg.num_invocations = 600;
        cfg.rate_rps = 10.0;
        let (reqs, _) = generate(&trace, &pool, &cfg);
        assert_eq!(reqs.len(), 600);
        // 600 requests at 10 rps = one minute; every second carries ~10.
        let secs = reqs.per_second_counts();
        assert!(secs.iter().take(60).all(|&c| c == 10), "{secs:?}");
    }

    #[test]
    fn poisson_duration_close_to_expected() {
        let trace = gen_azure(&AzureTraceConfig::small(6));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let cfg = small_cfg(15);
        let (reqs, _) = generate(&trace, &pool, &cfg);
        let expected_minutes = cfg.num_invocations as f64 / cfg.rate_rps / 60.0;
        assert!(
            (reqs.duration_minutes as f64 - expected_minutes).abs() < expected_minutes * 0.1 + 2.0,
            "duration = {} minutes, expected ≈ {expected_minutes}",
            reqs.duration_minutes
        );
    }
}
