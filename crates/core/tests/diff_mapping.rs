//! Differential tests of the mapping step against the implementation it
//! replaced: `oracle` holds the `BTreeMap`-keyed selection loops of
//! `map_functions` and `smirnov::generate`, and the per-request `evaluate`,
//! as they stood before the pool's `RuntimeIndex` existed. Every output must
//! stay bit-identical, over arbitrary pools and both trace profiles.

use faasrail_core::mapping::{map_functions, BalanceStrategy, MappingConfig};
use faasrail_core::smirnov::{self, SmirnovConfig};
use faasrail_core::{aggregate, evaluate, DurationResolution, IatModel};
use faasrail_trace::azure::{self, AzureTraceConfig};
use faasrail_trace::huawei::{self, HuaweiTraceConfig};
use faasrail_trace::Trace;
use faasrail_workloads::{Workload, WorkloadId, WorkloadInput, WorkloadKind, WorkloadPool};
use proptest::prelude::*;

/// The replaced implementations, verbatim.
mod oracle {
    use faasrail_core::mapping::{
        Assignment, BalanceStrategy, FunctionMapping, MappingConfig, MappingStats,
    };
    use faasrail_core::smirnov::{SmirnovConfig, SmirnovReport};
    use faasrail_core::{Aggregation, IatModel, Representativity, Request, RequestTrace};
    use faasrail_stats::ecdf::{Ecdf, WeightedEcdf};
    use faasrail_stats::sampler::{Exponential, Sampler};
    use faasrail_stats::timeseries::{fano_factor, normalize_peak, rebin_sum};
    use faasrail_stats::{ks_distance, ks_distance_weighted, seeded_rng, Rng};
    use faasrail_trace::summarize::{functions_duration_ecdf, invocations_duration_wecdf};
    use faasrail_trace::Trace;
    use faasrail_workloads::{WorkloadId, WorkloadKind, WorkloadPool};
    use std::collections::{BTreeMap, HashMap};

    pub fn map_functions(
        agg: &Aggregation,
        pool: &WorkloadPool,
        cfg: &MappingConfig,
    ) -> FunctionMapping {
        struct Candidate {
            ms: f64,
            id: WorkloadId,
            memory_mb: f64,
        }
        let mut by_ms: Vec<Candidate> = pool
            .workloads()
            .iter()
            .map(|w| Candidate { ms: w.mean_ms, id: w.id, memory_mb: w.memory_mb })
            .collect();
        by_ms.sort_by(|a, b| a.ms.partial_cmp(&b.ms).expect("finite"));

        let mut order: Vec<usize> = (0..agg.functions.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(agg.functions[i].total_invocations()));

        let mut variant_weight: BTreeMap<WorkloadId, f64> = BTreeMap::new();
        let mut variant_count: BTreeMap<WorkloadId, u64> = BTreeMap::new();
        let mut assignments = Vec::with_capacity(agg.functions.len());

        for idx in order {
            let f = &agg.functions[idx];
            let d = f.avg_duration_ms;
            let f_mem = f.memory_mb;
            let lo = d * (1.0 - cfg.error_threshold);
            let hi = d * (1.0 + cfg.error_threshold);
            let start = by_ms.partition_point(|c| c.ms < lo);
            let end = by_ms.partition_point(|c| c.ms <= hi);

            let score = |c: &Candidate| -> f64 {
                let dur_err = if d > 0.0 { (c.ms - d).abs() / d } else { 0.0 };
                if cfg.memory_weight > 0.0 && f_mem > 0.0 && c.memory_mb > 0.0 {
                    dur_err + cfg.memory_weight * (c.memory_mb / f_mem).ln().abs()
                } else {
                    dur_err
                }
            };

            let (chosen, fallback) = if start < end {
                let candidates = &by_ms[start..end];
                let pick = match cfg.balance {
                    BalanceStrategy::NearestOnly => candidates
                        .iter()
                        .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite"))
                        .expect("non-empty candidate range"),
                    BalanceStrategy::ByInvocations | BalanceStrategy::ByFunctionCount => candidates
                        .iter()
                        .min_by(|a, b| {
                            let load = |w: WorkloadId| match cfg.balance {
                                BalanceStrategy::ByInvocations => {
                                    variant_weight.get(&w).copied().unwrap_or(0.0)
                                }
                                _ => variant_count.get(&w).copied().unwrap_or(0) as f64,
                            };
                            let (la, lb) = (load(a.id), load(b.id));
                            la.partial_cmp(&lb)
                                .expect("finite")
                                .then_with(|| score(a).partial_cmp(&score(b)).expect("finite"))
                        })
                        .expect("non-empty candidate range"),
                };
                (pick, false)
            } else {
                let pos = by_ms.partition_point(|c| c.ms < d);
                let nearest = match (pos.checked_sub(1).map(|i| &by_ms[i]), by_ms.get(pos)) {
                    (Some(a), Some(b)) => {
                        if (a.ms - d).abs() <= (b.ms - d).abs() {
                            a
                        } else {
                            b
                        }
                    }
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => unreachable!("pool verified non-empty"),
                };
                (nearest, true)
            };

            *variant_weight.entry(chosen.id).or_insert(0.0) += f.total_invocations() as f64;
            *variant_count.entry(chosen.id).or_insert(0) += 1;
            assignments.push(Assignment {
                function_index: idx as u32,
                workload: chosen.id,
                rel_error: if d > 0.0 { (chosen.ms - d).abs() / d } else { 0.0 },
                fallback,
            });
        }

        assignments.sort_by_key(|a| a.function_index);

        let functions = assignments.len();
        let fallbacks = assignments.iter().filter(|a| a.fallback).count();
        let mean_rel_error =
            assignments.iter().map(|a| a.rel_error).sum::<f64>() / functions.max(1) as f64;
        let total_weight: f64 =
            agg.functions.iter().map(|f| f.total_invocations() as f64).sum::<f64>().max(1.0);
        let weighted_rel_error = assignments
            .iter()
            .map(|a| {
                a.rel_error * agg.functions[a.function_index as usize].total_invocations() as f64
            })
            .sum::<f64>()
            / total_weight;
        let max_rel_error = assignments.iter().map(|a| a.rel_error).fold(0.0, f64::max);

        FunctionMapping {
            stats: MappingStats {
                functions,
                within_threshold: functions - fallbacks,
                fallbacks,
                mean_rel_error,
                weighted_rel_error,
                max_rel_error,
            },
            assignments,
        }
    }

    pub fn smirnov_generate(
        trace: &Trace,
        pool: &WorkloadPool,
        cfg: &SmirnovConfig,
    ) -> (RequestTrace, SmirnovReport) {
        let wecdf: WeightedEcdf = invocations_duration_wecdf(trace);
        let mut rng = seeded_rng(cfg.seed);

        let mut by_ms: Vec<(f64, WorkloadId, WorkloadKind)> =
            pool.workloads().iter().map(|w| (w.mean_ms, w.id, w.kind())).collect();
        by_ms.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));

        let mut range_cache: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut variant_load: BTreeMap<WorkloadId, u64> = BTreeMap::new();
        let mut counts_by_kind: BTreeMap<WorkloadKind, u64> = BTreeMap::new();
        let mut within = 0usize;
        let mut err_sum = 0.0f64;

        let total_ms = cfg.num_invocations as f64 / cfg.rate_rps * 1_000.0;
        let mut requests = Vec::with_capacity(cfg.num_invocations);
        let gap = Exponential::from_mean(1_000.0 / cfg.rate_rps);
        let mut t = 0.0f64;
        let burst_gamma = match cfg.iat {
            IatModel::Bursty { cv } if cv > 0.0 => {
                Some(faasrail_stats::sampler::Gamma::unit_mean_with_cv(cv))
            }
            _ => None,
        };
        let mut burst_mult = 1.0f64;
        let mut burst_until = 0.0f64;

        for i in 0..cfg.num_invocations {
            let d = wecdf.inverse(rng.next_f64());

            let key = (d * 10.0).round() as u64;
            let (start, end) = *range_cache.entry(key).or_insert_with(|| {
                let lo = d * (1.0 - cfg.mapping.error_threshold);
                let hi = d * (1.0 + cfg.mapping.error_threshold);
                (
                    by_ms.partition_point(|&(ms, _, _)| ms < lo),
                    by_ms.partition_point(|&(ms, _, _)| ms <= hi),
                )
            });
            let chosen = if start < end {
                within += 1;
                let candidates = &by_ms[start..end];
                match cfg.mapping.balance {
                    BalanceStrategy::NearestOnly => candidates
                        .iter()
                        .min_by(|a, b| {
                            (a.0 - d).abs().partial_cmp(&(b.0 - d).abs()).expect("finite")
                        })
                        .expect("non-empty"),
                    _ => candidates
                        .iter()
                        .min_by(|a, b| {
                            let la = variant_load.get(&a.1).copied().unwrap_or(0);
                            let lb = variant_load.get(&b.1).copied().unwrap_or(0);
                            la.cmp(&lb).then_with(|| {
                                (a.0 - d).abs().partial_cmp(&(b.0 - d).abs()).expect("finite")
                            })
                        })
                        .expect("non-empty"),
                }
            } else {
                let pos = by_ms.partition_point(|&(ms, _, _)| ms < d);
                match (pos.checked_sub(1).map(|i| &by_ms[i]), by_ms.get(pos)) {
                    (Some(a), Some(b)) => {
                        if (a.0 - d).abs() <= (b.0 - d).abs() {
                            a
                        } else {
                            b
                        }
                    }
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => unreachable!("pool is non-empty"),
                }
            };
            *variant_load.entry(chosen.1).or_insert(0) += 1;
            *counts_by_kind.entry(chosen.2).or_insert(0) += 1;
            err_sum += if d > 0.0 { (chosen.0 - d).abs() / d } else { 0.0 };

            let at_ms = match cfg.iat {
                IatModel::Poisson => {
                    t += gap.sample(&mut rng);
                    t as u64
                }
                IatModel::UniformRandom => (rng.next_f64() * total_ms) as u64,
                IatModel::Equidistant => ((i as f64 + 0.5) * 1_000.0 / cfg.rate_rps) as u64,
                IatModel::Bursty { .. } => {
                    if t >= burst_until {
                        burst_mult =
                            burst_gamma.as_ref().map_or(1.0, |g| g.sample(&mut rng)).max(1e-3);
                        burst_until = t + 10_000.0;
                    }
                    t += gap.sample(&mut rng) / burst_mult;
                    t as u64
                }
            };
            requests.push(Request { at_ms, workload: chosen.1, function_index: chosen.1 .0 });
        }

        requests.sort_by_key(|r| (r.at_ms, r.function_index));
        let duration_minutes =
            requests.last().map(|r| (r.at_ms / 60_000) as usize + 1).unwrap_or(1);

        let report = SmirnovReport {
            counts_by_kind,
            within_threshold_fraction: within as f64 / cfg.num_invocations as f64,
            mean_rel_error: err_sum / cfg.num_invocations as f64,
        };
        (RequestTrace { duration_minutes, requests }, report)
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

    /// The requests' expected-duration ECDF from one `(duration, 1.0)` pair
    /// per request, all of them sorted: what `RequestTrace::duration_wecdf`
    /// builds from per-Workload counts.
    pub fn unit_weight_wecdf(requests: &RequestTrace, pool: &WorkloadPool) -> WeightedEcdf {
        WeightedEcdf::new(
            requests
                .requests
                .iter()
                .map(|r| pool.get(r.workload).expect("in pool").mean_ms)
                .map(|d| (d, 1.0)),
        )
    }

    /// `evaluate` from one `(duration, 1.0)` pair per request.
    pub fn evaluate(
        trace: &Trace,
        requests: &RequestTrace,
        pool: &WorkloadPool,
    ) -> Representativity {
        let mut used: Vec<u32> = requests.requests.iter().map(|r| r.workload.0).collect();
        used.sort_unstable();
        used.dedup();
        let used_durs: Vec<f64> =
            used.iter().map(|&i| pool.get(WorkloadId(i)).expect("in pool").mean_ms).collect();
        let ks_workload_durations =
            ks_distance(&functions_duration_ecdf(trace), &Ecdf::new(&used_durs));

        let generated = unit_weight_wecdf(requests, pool);
        let ks_invocation_durations =
            ks_distance_weighted(&invocations_duration_wecdf(trace), &generated);

        let mut by_fn: HashMap<u32, u64> = HashMap::new();
        for r in &requests.requests {
            *by_fn.entry(r.function_index).or_insert(0) += 1;
        }
        let mut gen_counts: Vec<u64> = by_fn.into_values().collect();
        let mut trace_counts: Vec<u64> =
            trace.functions.iter().map(|f| f.total_invocations()).filter(|&t| t > 0).collect();
        let top1_share_error = (top_share_of_counts(&mut trace_counts, 0.01)
            - top_share_of_counts(&mut gen_counts, 0.01))
        .abs();
        let top10_share_error = (top_share_of_counts(&mut trace_counts, 0.10)
            - top_share_of_counts(&mut gen_counts, 0.10))
        .abs();

        let minutes = requests.duration_minutes;
        let load_shape_mae = if minutes >= 2 {
            let want = normalize_peak(&rebin_sum(&trace.aggregate_minutes(), minutes));
            let have = normalize_peak(&requests.per_minute_counts());
            want.iter().zip(&have).map(|(a, b)| (a - b).abs()).sum::<f64>() / minutes as f64
        } else {
            f64::NAN
        };
        let trace_fano = fano_factor(&trace.aggregate_minutes());
        let gen_fano = fano_factor(&requests.per_minute_counts());
        let trace_rel = trace_fano
            / (trace.total_invocations() as f64 / faasrail_trace::MINUTES_PER_DAY as f64).max(1e-9);
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
}

/// Pools of 1 to 200 Workloads with runtimes log-spread over 1 ms – 10 min.
/// Half the runtimes are rounded to whole milliseconds, so the short end
/// carries duplicates (and exact hits on integer trace durations).
fn arb_pool() -> impl Strategy<Value = WorkloadPool> {
    prop_oneof![Just(1usize), 2usize..200]
        .prop_flat_map(|n| {
            let workload =
                (0.0f64..=1.0, any::<bool>(), 0usize..WorkloadKind::ALL.len(), 16.0f64..2_048.0);
            proptest::collection::vec(workload, n)
        })
        .prop_map(|workloads| {
            WorkloadPool::from_workloads(
                workloads
                    .into_iter()
                    .map(|(pos, round, kind, memory_mb)| {
                        let ms = 600_000f64.powf(pos);
                        Workload {
                            id: WorkloadId(0),
                            input: WorkloadInput::vanilla(WorkloadKind::ALL[kind]),
                            mean_ms: if round { ms.round() } else { ms },
                            memory_mb,
                        }
                    })
                    .collect(),
            )
        })
}

fn traces(seed: u64) -> [Trace; 2] {
    [
        azure::generate(&AzureTraceConfig {
            num_days: 2,
            ..AzureTraceConfig::scaled(seed, 150, 60_000)
        }),
        huawei::generate(&HuaweiTraceConfig {
            num_functions: 60,
            daily_invocations: 60_000,
            num_days: 2,
            ..HuaweiTraceConfig::paper_scale(seed)
        }),
    ]
}

fn mapping_configs() -> Vec<MappingConfig> {
    let mut out = Vec::new();
    for error_threshold in [0.0, 0.1, 0.5] {
        for balance in [
            BalanceStrategy::ByInvocations,
            BalanceStrategy::ByFunctionCount,
            BalanceStrategy::NearestOnly,
        ] {
            for memory_weight in [0.0, 0.5] {
                out.push(MappingConfig { error_threshold, balance, memory_weight });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn map_functions_matches_the_replaced_loop(pool in arb_pool(), seed in 0u64..1_000) {
        for trace in traces(seed) {
            let agg = aggregate(&trace, DurationResolution::for_trace(&trace));
            for cfg in mapping_configs() {
                let got = map_functions(&agg, &pool, &cfg);
                let want = oracle::map_functions(&agg, &pool, &cfg);
                prop_assert_eq!(&got, &want, "{:?} on {:?}", cfg, trace.kind);
                for (g, w) in got.assignments.iter().zip(&want.assignments) {
                    prop_assert_eq!(g.rel_error.to_bits(), w.rel_error.to_bits());
                }
            }
        }
    }

    #[test]
    fn smirnov_generate_matches_the_replaced_loop(pool in arb_pool(), seed in 0u64..1_000) {
        let iats = [
            IatModel::Poisson,
            IatModel::UniformRandom,
            IatModel::Equidistant,
            IatModel::Bursty { cv: 1.5 },
        ];
        for trace in traces(seed) {
            for (i, mapping) in mapping_configs().into_iter().enumerate() {
                let cfg = SmirnovConfig {
                    num_invocations: 1_500,
                    rate_rps: 40.0,
                    iat: iats[i % iats.len()],
                    mapping,
                    seed: seed + i as u64,
                };
                let (got, got_report) = smirnov::generate(&trace, &pool, &cfg);
                let (want, want_report) = oracle::smirnov_generate(&trace, &pool, &cfg);
                prop_assert_eq!(&got, &want, "{:?} on {:?}", cfg, trace.kind);
                prop_assert_eq!(&got_report, &want_report, "{:?} on {:?}", cfg, trace.kind);
                prop_assert_eq!(
                    got_report.mean_rel_error.to_bits(),
                    want_report.mean_rel_error.to_bits()
                );
            }
        }
    }

    #[test]
    fn evaluate_matches_per_request_pairs(pool in arb_pool(), seed in 0u64..1_000) {
        for trace in traces(seed) {
            let cfg = SmirnovConfig {
                num_invocations: 5_000,
                rate_rps: 30.0,
                ..SmirnovConfig::paper_default(seed)
            };
            let (requests, _) = smirnov::generate(&trace, &pool, &cfg);
            prop_assert_eq!(
                requests.duration_wecdf(&pool),
                oracle::unit_weight_wecdf(&requests, &pool)
            );
            let got = evaluate(&trace, &requests, &pool);
            let want = oracle::evaluate(&trace, &requests, &pool);
            for (g, w) in [
                (got.ks_workload_durations, want.ks_workload_durations),
                (got.ks_invocation_durations, want.ks_invocation_durations),
                (got.top1_share_error, want.top1_share_error),
                (got.top10_share_error, want.top10_share_error),
                (got.load_shape_mae, want.load_shape_mae),
                (got.burstiness_ratio, want.burstiness_ratio),
            ] {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} vs {:?}", got, want);
            }
        }
    }
}
