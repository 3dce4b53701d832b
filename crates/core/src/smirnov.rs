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
//!
//! Poisson, Bursty and Equidistant arrivals are emitted in time order (a
//! running clock, or an index), so the final ordering only sorts the
//! requests that share a millisecond; UniformRandom draws each instant
//! independently and is sorted whole.
//!
//! The mode maps every request on its own, so the per-request path bounds
//! how large a run it can generate. The draw is [`WeightedEcdf::inverse`],
//! whose guide table starts the search next to the answer (O(1) expected
//! steps, no binary search); the band's key is rounded by `round_to_u64`,
//! with no libm call, and indexes a [`BandTable`] directly, with no hash;
//! and the band's candidate is `mapping::first_min`, a scan over packed
//! integer keys with no branch per candidate. Besides the scan, what is left
//! is the exponential gap's logarithm and the output's ordering.

use crate::mapping::{check_threshold, first_min, BalanceStrategy, MappingConfig};
use crate::request::{Request, RequestTrace};
use crate::spec::IatModel;
use faasrail_stats::ecdf::WeightedEcdf;
use faasrail_stats::sampler::{Exponential, Sampler};
use faasrail_stats::{seeded_rng, Rng};
use faasrail_trace::summarize::invocations_duration_wecdf;
use faasrail_trace::Trace;
use faasrail_workloads::{WorkloadKind, WorkloadPool};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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
    check_threshold(cfg.mapping.error_threshold);
    let wecdf: WeightedEcdf = invocations_duration_wecdf(trace);
    let mut rng = seeded_rng(cfg.seed);

    let index = pool.runtime_index();
    let by_ms = index.entries();
    let nearest_only = cfg.mapping.balance == BalanceStrategy::NearestOnly;

    // Candidate bands keyed by the sampled duration quantized to 0.1 ms (the
    // ECDF's inverse is piecewise linear, so nearby samples share
    // candidates). A band is that of the first duration seen in its bucket.
    let mut bands = BandTable::new(round_to_u64(wecdf.support().1 * 10.0), by_ms.len());
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
        let band =
            bands.band(round_to_u64(d * 10.0), || index.band(d, cfg.mapping.error_threshold));
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

    // Order by `(at_ms, function_index)`. Equal keys are equal requests
    // (`function_index` is the workload id), so no sort here needs to be
    // stable. Arrivals that already ascend need only their ties ordered.
    if requests.is_sorted_by_key(|r| r.at_ms) {
        for tied in requests.chunk_by_mut(|a, b| a.at_ms == b.at_ms) {
            tied.sort_unstable_by_key(|r| r.function_index);
        }
    } else {
        requests.sort_unstable_by_key(|r| (r.at_ms, r.function_index));
    }
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

/// Slots in one [`BandTable`] page.
const PAGE: usize = 1 << 10;
/// Most pages a [`BandTable`] indexes: keys from `PAGE × MAX_PAGES`
/// (6 710 886.4 ms, about 1.9 h) up go to its ordered overflow map.
const MAX_PAGES: u64 = 1 << 16;
/// Most pages a [`BandTable`] allocates, 32 MiB of them: a key on a page it
/// may no longer allocate goes to the overflow map too.
const PAGE_BUDGET: usize = 1 << 12;

/// The first-seen candidate band of each 0.1 ms duration key, found without
/// a hash a trace could flood: a key the top level covers indexes a page of
/// [`PAGE`] packed slots, allocated on first touch; any other key goes to an
/// ordered map. Its memory bound and overflow rule are in DESIGN.md §4.
struct BandTable {
    pages: Vec<Option<Box<[u64; PAGE]>>>,
    /// Pages it may still allocate. It only falls, so a key that once went
    /// to the overflow map always does.
    spare: usize,
    overflow: BTreeMap<u64, Range<usize>>,
}

impl BandTable {
    /// A table whose top level covers the keys up to `top_key + 1` (an
    /// interpolated draw may round one past the support's top key), capped
    /// at [`MAX_PAGES`], for a band over `entries` positions.
    fn new(top_key: u64, entries: usize) -> Self {
        assert!(entries < u32::MAX as usize, "pool too large for packed bands");
        let pages = (top_key.saturating_add(1) / PAGE as u64 + 1).min(MAX_PAGES) as usize;
        BandTable {
            pages: (0..pages).map(|_| None).collect(),
            spare: PAGE_BUDGET,
            overflow: BTreeMap::new(),
        }
    }

    /// The band filed under `key`, filing `band()` first if there is none.
    fn band(&mut self, key: u64, band: impl FnOnce() -> Range<usize>) -> Range<usize> {
        let page = match usize::try_from(key / PAGE as u64).ok().and_then(|p| self.pages.get_mut(p))
        {
            Some(Some(page)) => page,
            Some(unallocated) if self.spare > 0 => {
                self.spare -= 1;
                unallocated.insert(Box::new([0; PAGE]))
            }
            _ => return self.overflow.entry(key).or_insert_with(band).clone(),
        };
        let slot = &mut page[key as usize % PAGE];
        if *slot == 0 {
            // `end + 1` keeps a filed slot, even `0..0`, off the empty 0.
            let band = band();
            *slot = (band.start as u64) << 32 | (band.end as u64 + 1);
        }
        (*slot >> 32) as usize..(*slot as u32 - 1) as usize
    }
}

/// `x.round() as u64` without `round`, which the baseline x86-64 target
/// (no SSE4.1 `roundsd`) makes a libm call. The truncation saturates as the
/// cast does (NaN and negatives to 0, at or above 2^64 to `u64::MAX`), and
/// the fraction it drops is exact below 2^52; from 2^52 up every `f64` is a
/// whole number and the fraction is 0, or, from 2^64, the sum saturates.
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add((x - whole as f64 >= 0.5) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::ks_distance_weighted;
    use faasrail_stats::rng::cases;
    use faasrail_trace::azure::{generate as gen_azure, AzureTraceConfig};
    use faasrail_trace::huawei::{generate as gen_huawei, HuaweiTraceConfig};
    use faasrail_workloads::CostModel;

    #[test]
    fn round_to_u64_is_round_then_cast() {
        let two52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            1.4999999999999998,
            two52 - 0.5,
            two52 + 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            two52 * 2.0,
            two52 * 2.0 + 2.0,
            two52 * 2.0 - 0.5,
            (1u128 << 64) as f64,
            ((1u128 << 64) as f64).next_down(),
            1e30,
            f64::MAX,
            f64::INFINITY,
            -0.4,
            -0.5,
            -2.5,
            -1e30,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        xs.extend((0..4_000).map(|i| i as f64 * 0.25));
        xs.extend((1..200).map(|i| (i as f64 + 0.5).next_down()));
        xs.extend((1..200).map(|i| (i as f64 + 0.5).next_up()));
        xs.extend((0..64).map(|e| (1u64 << e) as f64 + 0.5));
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        // Any bit pattern, and the scale of sampled durations.
        cases("round_to_u64_is_round_then_cast", 256, |rng| {
            for x in [f64::from_bits(rng.next_u64()), rng.uniform(0.0..1e6)] {
                assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
            }
        });
    }

    #[test]
    fn a_band_table_files_each_keys_first_band_wherever_the_key_lands() {
        let cap = PAGE as u64 * MAX_PAGES;
        let edges = |top: u64| {
            let near = |k: u64| (0..3).map(move |i| k.saturating_add(i).saturating_sub(1));
            [0, 1_023, 1_024, 1_025, top, top + 1, top + 2, cap - 1, cap, cap + 1, u64::MAX]
                .into_iter()
                .flat_map(near)
                .collect::<Vec<u64>>()
        };
        let tops = [0, 1_022, 1_023, 1_024, 2_047, 2_048, cap - 2, cap - 1, cap, 1 << 40];
        // With no spare page left after the first, every later page's keys
        // go to the overflow map.
        for (top, spare) in tops.into_iter().flat_map(|top| [(top, PAGE_BUDGET), (top, 1)]) {
            let mut table = BandTable::new(top, 100);
            table.spare = spare;
            let mut first_seen = BTreeMap::new();
            let keys = edges(top).into_iter().chain(edges(top).into_iter().rev());
            for (i, key) in keys.enumerate() {
                // Bands that differ by request, empty ones included.
                let band = i % 50..i % 50 + i % 3;
                let want = first_seen.entry(key).or_insert(band.clone()).clone();
                assert_eq!(table.band(key, || band), want, "top {top}, key {key}");
            }
            assert!(table.pages.len() as u64 <= MAX_PAGES, "top {top}");
            assert!(table.pages.len() as u64 * PAGE as u64 > top.min(cap - 1), "top {top}");
            let allocated = table.pages.iter().filter(|p| p.is_some()).count();
            assert_eq!(allocated + table.spare, spare, "top {top}");
        }
    }

    #[test]
    fn a_negative_or_nan_threshold_is_refused() {
        let trace = gen_huawei(&HuaweiTraceConfig::small(3));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        for threshold in [-0.5, f64::NAN] {
            let mut cfg = small_cfg(1);
            cfg.mapping.error_threshold = threshold;
            let run = std::panic::catch_unwind(|| generate(&trace, &pool, &cfg));
            assert!(run.is_err(), "threshold {threshold}");
        }
    }

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
