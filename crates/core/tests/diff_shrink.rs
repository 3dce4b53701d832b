//! Differential tests of the shrink ray's sparse phases against the
//! implementations they replaced: `oracle` holds `aggregate` (a `BTreeMap` of
//! dense 1440-minute accumulators), `scale_request_rate` (one strided column
//! gather per minute), `apportion_largest_remainder` (`u128` throughout, a
//! full sort of the remainders) and `ScheduleModel::from_trace_day` (over
//! `aggregate` and `map_functions`) as they stood before. Every output must
//! stay bit-identical, with one intended exception:
//! `ScaleReport::silenced_functions` no longer counts a Function that had no
//! requests before scaling. `shrink()` itself bins and scales sparsely; it
//! must equal the public phases run one by one, as the benchmark's traced
//! pass runs them, on generated days as on arbitrary traces.

use faasrail_core::rate_scaling::{scale_request_rate, ScaleReport};
use faasrail_core::{
    aggregate, map_functions, shrink, DurationResolution, ExperimentSpec, IatModel, ScheduleModel,
    ShrinkError, ShrinkRayConfig, SpecEntry, TimeScaling,
};
use faasrail_stats::rng::{cases, Rng};
use faasrail_stats::timeseries::{
    apportion_in_place, apportion_largest_remainder, ApportionScratch,
};
use faasrail_trace::azure::{self, AzureTraceConfig};
use faasrail_trace::huawei::{self, HuaweiTraceConfig};
use faasrail_trace::{
    App, AppId, FunctionId, MinuteSeries, Trace, TraceFunction, TraceKind, MINUTES_PER_DAY,
};
use faasrail_workloads::{CostModel, WorkloadPool};
use std::collections::BTreeMap;
use std::ops::Range;

/// The replaced implementations, verbatim.
mod oracle {
    use faasrail_core::rate_scaling::ScaleReport;
    use faasrail_core::{
        map_functions, AggregatedFunction, Aggregation, DurationResolution, IatModel,
        MappingConfig, ModelEntry, ScheduleModel,
    };
    use faasrail_trace::{MinuteSeries, Trace, MINUTES_PER_DAY};
    use faasrail_workloads::WorkloadPool;
    use std::collections::BTreeMap;

    /// `MinuteSeries::from_dense` as it stood; `new` re-checks the entries.
    fn from_dense(counts: &[u64]) -> MinuteSeries {
        assert!(counts.len() <= MINUTES_PER_DAY, "more than {MINUTES_PER_DAY} minutes");
        MinuteSeries::new(
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(m, &c)| (m as u16, u32::try_from(c).expect("per-minute count fits u32")))
                .collect(),
        )
    }

    pub fn aggregate(trace: &Trace, resolution: DurationResolution) -> Aggregation {
        struct Acc {
            members: Vec<u32>,
            minutes: Vec<u64>,
            mem_weighted: f64,
            weight: f64,
        }
        let mut groups: BTreeMap<u64, Acc> = BTreeMap::new();
        for (i, f) in trace.functions.iter().enumerate() {
            let key = resolution.key(f.avg_duration_ms);
            let acc = groups.entry(key).or_insert_with(|| Acc {
                members: Vec::new(),
                minutes: vec![0u64; MINUTES_PER_DAY],
                mem_weighted: 0.0,
                weight: 0.0,
            });
            acc.members.push(i as u32);
            for (m, c) in f.minutes.entries() {
                acc.minutes[m as usize] += c as u64;
            }
            let mem = trace.app(f.app).map(|a| a.memory_mb).unwrap_or(170.0);
            let w = f.total_invocations().max(1) as f64;
            acc.mem_weighted += mem * w;
            acc.weight += w;
        }

        let functions = groups
            .into_iter()
            .map(|(key, acc)| AggregatedFunction {
                key,
                avg_duration_ms: resolution.ms(key),
                members: acc.members,
                minutes: from_dense(&acc.minutes),
                memory_mb: acc.mem_weighted / acc.weight,
            })
            .collect();
        Aggregation { resolution, functions }
    }

    pub fn apportion_largest_remainder(counts: &[u64], target_total: u64) -> Vec<u64> {
        let total: u128 = counts.iter().map(|&c| c as u128).sum();
        if target_total == 0 {
            return vec![0; counts.len()];
        }
        assert!(total > 0, "cannot apportion {target_total} requests over an all-zero series");

        let t = target_total as u128;
        let mut out = vec![0u64; counts.len()];
        let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(counts.len());
        let mut assigned: u128 = 0;
        for (i, &c) in counts.iter().enumerate() {
            let num = c as u128 * t;
            let q = num / total;
            let r = num % total;
            out[i] = q as u64;
            assigned += q;
            remainders.push((r, i));
        }
        let mut leftover = (t - assigned) as usize;
        remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(r, i) in &remainders {
            if leftover == 0 {
                break;
            }
            if r == 0 {
                break;
            }
            out[i] += 1;
            leftover -= 1;
        }
        out
    }

    pub fn scale_request_rate(series: &mut [Vec<u64>], target_peak_per_minute: u64) -> ScaleReport {
        assert!(target_peak_per_minute > 0, "target peak must be positive");
        assert!(!series.is_empty(), "no functions to scale");
        let minutes = series[0].len();
        assert!(series.iter().all(|s| s.len() == minutes), "ragged minute series");

        let mut totals = vec![0u64; minutes];
        for s in series.iter() {
            for (t, &v) in totals.iter_mut().zip(s.iter()) {
                *t += v;
            }
        }
        let peak_before = totals.iter().copied().max().expect("non-empty");
        assert!(peak_before > 0, "all-zero trace cannot be rate-scaled");
        let total_before: u64 = totals.iter().sum();

        let factor = target_peak_per_minute as f64 / peak_before as f64;

        let mut column = vec![0u64; series.len()];
        for m in 0..minutes {
            let scaled_total = ((totals[m] as f64) * factor).round() as u64;
            let scaled_total = scaled_total.min(target_peak_per_minute);
            for (f, s) in series.iter().enumerate() {
                column[f] = s[m];
            }
            if totals[m] == 0 {
                continue;
            }
            let scaled = apportion_largest_remainder(&column, scaled_total);
            for (f, s) in series.iter_mut().enumerate() {
                s[m] = scaled[f];
            }
        }

        let mut totals_after = vec![0u64; minutes];
        for s in series.iter() {
            for (t, &v) in totals_after.iter_mut().zip(s.iter()) {
                *t += v;
            }
        }
        let peak_after = totals_after.iter().copied().max().expect("non-empty");
        let total_after: u64 = totals_after.iter().sum();
        let silenced_functions = series.iter().filter(|s| s.iter().all(|&v| v == 0)).count();

        ScaleReport {
            peak_before,
            peak_after,
            factor,
            total_before,
            total_after,
            silenced_functions,
        }
    }

    pub fn from_trace_day(
        trace: &Trace,
        pool: &WorkloadPool,
        mapping_cfg: &MappingConfig,
        iat: IatModel,
    ) -> ScheduleModel {
        let resolution = DurationResolution::for_trace(trace);
        let agg = aggregate(trace, resolution);
        let mapping = map_functions(&agg, pool, mapping_cfg);

        let mut entries: Vec<ModelEntry> = Vec::new();
        for (gi, group) in agg.functions.iter().enumerate() {
            let workload =
                mapping.workload_for(gi as u32).expect("every aggregated function is mapped");
            for &member in &group.members {
                let f = &trace.functions[member as usize];
                if f.minutes.is_empty() {
                    continue;
                }
                entries.push(ModelEntry {
                    function_index: member,
                    workload,
                    alternates: Vec::new(),
                    minutes: f.minutes.entries().map(|(m, c)| (m as u32, c as u64)).collect(),
                });
            }
        }
        entries.sort_by_key(|e| e.function_index);
        ScheduleModel { duration_minutes: faasrail_trace::MINUTES_PER_DAY, iat, entries }
    }
}

/// `n` distinct minutes of the day, counts uniform in `counts`.
fn sparse(rng: &mut impl Rng, cells: Range<usize>, counts: Range<u32>) -> Vec<(u16, u32)> {
    let n = rng.range(cells);
    let mut day = BTreeMap::new();
    while day.len() < n {
        day.insert(rng.range(0..MINUTES_PER_DAY as u16), rng.range(counts.clone()));
    }
    day.into_iter().collect()
}

/// How one function's day is filled.
fn arb_minutes(rng: &mut impl Rng) -> MinuteSeries {
    MinuteSeries::new(match rng.below(8) {
        // Never invoked.
        0 => Vec::new(),
        // The day's two edges, alone and together.
        1 => {
            let (a, b) = (rng.range(1..50), rng.range(1..50));
            match rng.below(3) {
                0 => vec![(0, a)],
                1 => vec![(1439, b)],
                _ => vec![(0, a), (1439, b)],
            }
        }
        2..=5 => sparse(rng, 1..30, 1..500),
        _ => sparse(rng, 200..900, 1..40_000),
    })
}

/// Traces of 1 to 160 functions whose durations are drawn from a handful of
/// values and then nudged by less than half a key, so groups run from a
/// single member to (one duration, many functions) over a hundred.
fn arb_trace(rng: &mut impl Rng) -> Trace {
    let huawei = rng.below(2) == 1;
    let n_durations = match rng.below(3) {
        0 => 1,
        1 => rng.range(2..12usize),
        _ => rng.range(50..200),
    };
    let durations: Vec<f64> = (0..n_durations).map(|_| rng.next_f64()).collect();
    let n_functions = if rng.below(2) == 0 { rng.range(1..8u32) } else { rng.range(100..160) };
    let functions = (0..n_functions)
        .map(|i| {
            let pos = durations[(rng.next_u64() % durations.len() as u64) as usize];
            let nudge = rng.uniform(-0.04..0.04);
            let app = rng.range(0..4);
            // Huawei durations reach below a millisecond and are keyed
            // by tenths of one.
            let (base, step) = if huawei {
                ((0.2 * 5_000f64.powf(pos) * 10.0).round() / 10.0, 0.1)
            } else {
                (60_000f64.powf(pos).round(), 1.0)
            };
            TraceFunction {
                id: FunctionId(i),
                app: AppId(app),
                trigger: Default::default(),
                avg_duration_ms: base + nudge * step,
                minutes: arb_minutes(rng),
                daily: vec![],
            }
        })
        .collect();
    Trace {
        kind: if huawei { TraceKind::HuaweiPrivate } else { TraceKind::Azure },
        selected_day: 0,
        num_days: 1,
        functions,
        apps: [96.0, 128.0, 170.5, 1_024.0]
            .into_iter()
            .enumerate()
            .map(|(i, memory_mb)| App { id: AppId(i as u32), memory_mb })
            .collect(),
    }
}

fn generated_traces(seed: u64) -> [Trace; 2] {
    [
        azure::generate(&AzureTraceConfig::scaled(seed, 300, 200_000)),
        huawei::generate(&HuaweiTraceConfig {
            num_functions: 80,
            daily_invocations: 200_000,
            num_days: 1,
            ..HuaweiTraceConfig::paper_scale(seed)
        }),
    ]
}

fn arb_time_scaling(rng: &mut impl Rng) -> TimeScaling {
    if rng.below(2) == 0 {
        let experiment_minutes = [1usize, 7, 120, 1440][rng.range(0..4usize)];
        TimeScaling::Thumbnails { experiment_minutes }
    } else {
        TimeScaling::MinuteRange { start: rng.range(0..1400), experiment_minutes: rng.range(1..40) }
    }
}

fn assert_same_aggregation(trace: &Trace) {
    for resolution in [DurationResolution::Millisecond, DurationResolution::TenthMillisecond] {
        let got = aggregate(trace, resolution);
        let want = oracle::aggregate(trace, resolution);
        assert_eq!(&got, &want, "{:?} at {:?}", trace.kind, resolution);
        for (g, w) in got.functions.iter().zip(&want.functions) {
            assert_eq!(g.memory_mb.to_bits(), w.memory_mb.to_bits(), "key {}", g.key);
        }
    }
}

/// A Function the old count called silenced although it had nothing to lose.
fn never_audible(before: &[Vec<u64>]) -> usize {
    before.iter().filter(|s| s.iter().all(|&v| v == 0)).count()
}

fn assert_same_scaling(before: &[Vec<u64>], target: u64) -> ScaleReport {
    let (mut got, mut want) = (before.to_vec(), before.to_vec());
    let got_report = scale_request_rate(&mut got, target);
    let want_report = oracle::scale_request_rate(&mut want, target);
    assert_eq!(&got, &want, "target {}", target);
    assert_eq!(
        ScaleReport {
            silenced_functions: got_report.silenced_functions + never_audible(before),
            ..got_report
        },
        want_report
    );
    assert_eq!(got_report.factor.to_bits(), want_report.factor.to_bits());
    got_report
}

#[test]
fn aggregate_matches_the_dense_accumulators() {
    cases("aggregate_matches_the_dense_accumulators", 48, |rng| {
        assert_same_aggregation(&arb_trace(rng));
    });
}

#[test]
fn aggregate_matches_on_generated_traces() {
    cases("aggregate_matches_on_generated_traces", 48, |rng| {
        for trace in generated_traces(rng.range(0..1_000)) {
            assert_same_aggregation(&trace);
        }
    });
}

#[test]
fn rate_scaling_matches_the_column_gather() {
    cases("rate_scaling_matches_the_column_gather", 48, |rng| {
        // Only windows some request falls in.
        let series = loop {
            let trace = arb_trace(rng);
            let time_scaling = arb_time_scaling(rng);
            let agg = aggregate(&trace, DurationResolution::for_trace(&trace));
            let series: Vec<Vec<u64>> =
                agg.functions.iter().map(|f| time_scaling.apply(&f.minutes.dense())).collect();
            if series.iter().flatten().any(|&v| v > 0) {
                break series;
            }
        };
        // Down to one request a minute: most minutes then round to zero.
        let target = match rng.below(3) {
            0 => rng.range(1..4),
            1 => rng.range(1..3_000),
            _ => rng.range(100_000..10_000_000),
        };
        assert_same_scaling(&series, target);
    });
}

#[test]
fn shrink_matches_the_replaced_phases() {
    cases("shrink_matches_the_replaced_phases", 48, |rng| {
        let trace = arb_trace(rng);
        let time_scaling = arb_time_scaling(rng);
        let max_rps =
            if rng.below(2) == 0 { rng.uniform(0.01..0.1) } else { rng.uniform(0.1..50.0) };
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let cfg = ShrinkRayConfig { time_scaling, ..ShrinkRayConfig::new(1, max_rps) };

        let agg = oracle::aggregate(&trace, DurationResolution::for_trace(&trace));
        let mut series: Vec<Vec<u64>> =
            agg.functions.iter().map(|f| time_scaling.apply(&f.minutes.dense())).collect();
        if trace.functions.iter().all(|f| f.minutes.is_empty()) {
            assert_eq!(shrink(&trace, &pool, &cfg).err(), Some(ShrinkError::EmptyTrace));
            return;
        }
        if !series.iter().flatten().any(|&v| v > 0) {
            let refused =
                matches!(shrink(&trace, &pool, &cfg), Err(ShrinkError::EmptyWindow { .. }));
            assert!(refused, "a window nothing falls in");
            return;
        }
        let audible_before = series.len() - never_audible(&series);

        let mapping = map_functions(&agg, &pool, &cfg.mapping);
        let target = (max_rps * 60.0).round().max(1.0) as u64;
        let scale = oracle::scale_request_rate(&mut series, target);
        let want = ExperimentSpec {
            duration_minutes: time_scaling.experiment_minutes(),
            target_max_rps: max_rps,
            iat: cfg.iat,
            entries: series
                .into_iter()
                .enumerate()
                .filter(|(_, per_minute)| per_minute.iter().any(|&v| v > 0))
                .map(|(i, per_minute)| SpecEntry {
                    function_index: i as u32,
                    workload: mapping.workload_for(i as u32).expect("mapped"),
                    alternates: Vec::new(),
                    trace_duration_ms: agg.functions[i].avg_duration_ms,
                    per_minute,
                })
                .collect(),
        };

        let (got, report) = shrink(&trace, &pool, &cfg).expect("shrink runs");
        assert_eq!(&got, &want);
        assert_eq!(report.aggregated_functions, agg.len());
        assert_eq!(report.scale.silenced_functions, audible_before - want.entries.len());
        assert_eq!(
            ScaleReport { silenced_functions: scale.silenced_functions, ..report.scale },
            scale
        );

        // The lab's entry point runs the same aggregation: every invoked
        // function appears once, under its Function's Workload.
        let model = ScheduleModel::from_trace_day(&trace, &pool, &cfg.mapping, cfg.iat)
            .expect("model builds");
        let mut expected: Vec<(u32, _)> = agg
            .functions
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| {
                let workload = mapping.workload_for(gi as u32).expect("mapped");
                g.members.iter().map(move |&m| (m, workload))
            })
            .filter(|&(m, _)| !trace.functions[m as usize].minutes.is_empty())
            .collect();
        expected.sort_unstable_by_key(|&(m, _)| m);
        let modelled: Vec<(u32, _)> =
            model.entries.iter().map(|e| (e.function_index, e.workload)).collect();
        assert_eq!(modelled, expected);
    });
}

/// The spec and scaling report of the public phases run one by one, as the
/// benchmark's traced pass runs them: `aggregate` → `map_functions` →
/// `apply(dense())` → `scale_request_rate`.
fn shrink_by_phases(
    trace: &Trace,
    pool: &WorkloadPool,
    cfg: &ShrinkRayConfig,
) -> (ExperimentSpec, ScaleReport) {
    let agg = aggregate(trace, DurationResolution::for_trace(trace));
    let mapping = map_functions(&agg, pool, &cfg.mapping);
    let mut series: Vec<Vec<u64>> =
        agg.functions.iter().map(|f| cfg.time_scaling.apply(&f.minutes.dense())).collect();
    let target = (cfg.max_rps * 60.0).round().max(1.0) as u64;
    let scale = scale_request_rate(&mut series, target);
    let spec = ExperimentSpec {
        duration_minutes: cfg.time_scaling.experiment_minutes(),
        target_max_rps: cfg.max_rps,
        iat: cfg.iat,
        entries: series
            .into_iter()
            .enumerate()
            .filter(|(_, per_minute)| per_minute.iter().any(|&v| v > 0))
            .map(|(i, per_minute)| SpecEntry {
                function_index: i as u32,
                workload: mapping.workload_for(i as u32).expect("mapped"),
                alternates: Vec::new(),
                trace_duration_ms: agg.functions[i].avg_duration_ms,
                per_minute,
            })
            .collect(),
    };
    (spec, scale)
}

#[test]
fn shrink_equals_the_traced_phases_on_a_generated_day() {
    cases("shrink_equals_the_traced_phases_on_a_generated_day", 2, |rng| {
        let trace =
            azure::generate(&AzureTraceConfig::scaled(rng.range(0..1_000), 2_000, 2_000_000));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let window =
            TimeScaling::MinuteRange { start: rng.range(0..1_380), experiment_minutes: 60 };
        let configs = [
            ShrinkRayConfig::new(120, 20.0),
            ShrinkRayConfig { time_scaling: window, ..ShrinkRayConfig::new(60, 20.0) },
        ];
        for cfg in &configs {
            let (spec, report) = shrink(&trace, &pool, cfg).expect("shrink runs");
            let (want, scale) = shrink_by_phases(&trace, &pool, cfg);
            assert!(!want.entries.is_empty());
            assert_eq!(spec, want, "{:?}", cfg.time_scaling);
            assert_eq!(report.scale, scale, "{:?}", cfg.time_scaling);
            assert_eq!(report.scale.factor.to_bits(), scale.factor.to_bits());
        }
        let mapping = &configs[0].mapping;
        let model = ScheduleModel::from_trace_day(&trace, &pool, mapping, IatModel::Poisson);
        let want = oracle::from_trace_day(&trace, &pool, mapping, IatModel::Poisson);
        assert_eq!(model, Ok(want));
    });
}

/// Columns for the kernel: zeros, small counts that tie, the ordinary range.
fn arb_column(rng: &mut impl Rng) -> Vec<u64> {
    (0..rng.range(1..200usize))
        .map(|_| match rng.below(8) {
            0 | 1 => 0,
            2 | 3 => rng.range(1..4),
            4..=6 => rng.range(0..10_000),
            _ => rng.next_u64(),
        })
        .collect()
}

fn assert_same_apportionment(counts: &[u64], target: u64, scratch: &mut ApportionScratch) {
    let want = oracle::apportion_largest_remainder(counts, target);
    assert_eq!(&apportion_largest_remainder(counts, target), &want);
    let mut in_place = counts.to_vec();
    apportion_in_place(&mut in_place, target, scratch);
    assert_eq!(&in_place, &want);
    assert_eq!(want.iter().map(|&v| v as u128).sum::<u128>(), target as u128);
}

#[test]
fn kernel_matches_the_full_sort() {
    cases("kernel_matches_the_full_sort", 256, |rng| {
        // One scratch across the columns, as the rate scaler holds it.
        let mut scratch = ApportionScratch::default();
        for _ in 0..rng.range(1..4usize) {
            let (counts, raw, shape) = (arb_column(rng), rng.next_u64(), rng.below(4));
            let total: u128 = counts.iter().map(|&c| c as u128).sum();
            if total == 0 {
                assert_same_apportionment(&counts, 0, &mut scratch);
                continue;
            }
            let target = match shape {
                // Scaling down, the shrink ray's case: most quotas are zero.
                0 => (raw as u128 % total) as u64,
                // A handful of units over many equal counts: all ties.
                1 => raw % (counts.len() as u64 + 1),
                // target > total: scaling up.
                2 => raw,
                _ => 0,
            };
            assert_same_apportionment(&counts, target, &mut scratch);
        }
    });
}

#[test]
fn tied_remainders_go_to_the_lower_index() {
    // Equal counts have equal remainders; the leftover units must land
    // on the first of them, zeros in between notwithstanding.
    cases("tied_remainders_go_to_the_lower_index", 256, |rng| {
        let value = rng.range(1..5u64);
        let len = rng.range(2..300usize);
        let zero_every = rng.range(2..9usize);
        let counts: Vec<u64> =
            (0..len).map(|i| if i % zero_every == 0 { 0 } else { value }).collect();
        let live = counts.iter().filter(|&&c| c > 0).count() as u64;
        let target = rng.next_u64() % (3 * live + 1);
        let got = apportion_largest_remainder(&counts, target);
        assert_eq!(&got, &oracle::apportion_largest_remainder(&counts, target));
        let (base, extra) = (target / live, (target % live) as usize);
        let mut seen = 0;
        for (&c, &g) in counts.iter().zip(&got) {
            if c == 0 {
                assert_eq!(g, 0);
            } else {
                assert_eq!(g, base + (seen < extra) as u64);
                seen += 1;
            }
        }
    });
}

#[test]
fn products_past_u64_take_the_wide_path() {
    cases("products_past_u64_take_the_wide_path", 256, |rng| {
        // Columns with at least one count near u32::MAX.
        let counts = loop {
            let counts: Vec<u64> = (0..rng.range(1..120usize))
                .map(|_| {
                    if rng.below(5) == 0 {
                        0
                    } else {
                        rng.range(u32::MAX as u64 - 1_000..u32::MAX as u64 + 1)
                    }
                })
                .collect();
            if counts.iter().any(|&c| c > 0) {
                break counts;
            }
        };
        let target = rng.range(1u64 << 33..1u64 << 62);
        let largest = counts.iter().copied().max().expect("non-empty");
        assert!(largest.checked_mul(target).is_none(), "c * t must overflow u64");
        assert_same_apportionment(&counts, target, &mut ApportionScratch::default());
    });
}

#[test]
fn totals_past_u64_take_the_wide_path() {
    cases("totals_past_u64_take_the_wide_path", 256, |rng| {
        let counts: Vec<u64> =
            (0..rng.range(2..40usize)).map(|_| u64::MAX - rng.range(0..1_001)).collect();
        let target = rng.range(1..1_000);
        // Each `c * 1` fits, the sum of the counts does not.
        assert_same_apportionment(&counts, target.min(1), &mut ApportionScratch::default());
        assert_same_apportionment(&counts, target, &mut ApportionScratch::default());
    });
}

#[test]
#[should_panic(expected = "all-zero series")]
fn all_zero_column_with_a_target_still_panics() {
    apportion_in_place(&mut [0, 0, 0], 5, &mut ApportionScratch::default());
}
