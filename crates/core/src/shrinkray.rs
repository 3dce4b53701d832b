//! The shrink ray: the offline pipeline that turns a production trace plus
//! a Workload pool into a replayable experiment specification (paper Fig. 2,
//! "Spec mode").
//!
//! Pipeline: validate → day-selection check → one walk that groups the
//! functions by mean duration and bins each one's day straight into its
//! group's experiment minutes (Thumbnails / Minute Range) → map Functions
//! to Workloads → scale the aggregate request rate to the target maximum,
//! apportioning only the non-zero cells → emit the spec. No aggregated day,
//! dense series or transposed matrix is built: the one Functions ×
//! experiment-minutes matrix is binned, scaled and read in place.
//!
//! Ordering note: time scaling runs *before* rate scaling so the "no minute
//! exceeds the target" guarantee (paper §3.2.1.1) holds for the experiment's
//! wall-clock minutes — Thumbnails sums groups of trace minutes, so
//! normalizing first and rebinning after would overshoot the target by the
//! group size.

use crate::aggregate::{DurationResolution, Group, Grouping};
use crate::dayselect::{select_day, DaySelection};
use crate::error::ShrinkError;
use crate::mapping::{map_each, MappingConfig, MappingStats};
use crate::rate_scaling::{scale_cells, ScaleReport};
use crate::spec::{ExperimentSpec, IatModel, SpecEntry};
use crate::time_scaling::TimeScaling;
use faasrail_trace::{validate, Trace};
use faasrail_workloads::WorkloadPool;
use serde::{Deserialize, Serialize};

/// Shrink-ray configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkRayConfig {
    /// Target maximum request rate, requests/second (the paper's primary
    /// user input alongside the experiment duration).
    pub max_rps: f64,
    /// Time-scaling mode; its `experiment_minutes` is the experiment
    /// duration (the paper's second user input).
    pub time_scaling: TimeScaling,
    /// Function→Workload mapping parameters.
    pub mapping: MappingConfig,
    /// Sub-minute arrival model recorded in the spec.
    pub iat: IatModel,
    /// Minimum fraction of cross-day-stable functions required by the
    /// day-selection safety check (advisory; reported, not enforced).
    pub day_safety_fraction: f64,
    /// Variable-inputs extension (paper §3.3 "next step"): record up to
    /// `max_alternates` same-benchmark Workloads within the mapping
    /// threshold for each Function, so request generation can vary the input
    /// across invocations. 0 (default) reproduces the paper's fixed-input
    /// behaviour.
    #[serde(default)]
    pub max_alternates: usize,
}

impl ShrinkRayConfig {
    /// The paper's canonical configuration: Thumbnails time scaling,
    /// Poisson sub-minute arrivals, 10 % mapping threshold.
    pub fn new(experiment_minutes: usize, max_rps: f64) -> Self {
        ShrinkRayConfig {
            max_rps,
            time_scaling: TimeScaling::Thumbnails { experiment_minutes },
            mapping: MappingConfig::default(),
            iat: IatModel::Poisson,
            day_safety_fraction: 0.8,
            max_alternates: 0,
        }
    }

    /// The busiest experiment minute's request budget: `max_rps · 60`,
    /// rounded, and at least 1.
    ///
    /// Refused unless `max_rps` is finite and positive and the budget, over
    /// every experiment minute, still fits in `u64`: a spec's total is
    /// counted in one.
    pub fn target_peak_per_minute(&self) -> Result<u64, ShrinkError> {
        let rps = self.max_rps;
        if !(rps.is_finite() && rps > 0.0) {
            return Err(ShrinkError::Config(format!(
                "max_rps must be finite and positive, got {rps}"
            )));
        }
        let per_minute = (rps * 60.0).round().max(1.0);
        let minutes = self.time_scaling.experiment_minutes() as u64;
        let target = per_minute as u64;
        // `u64::MAX as f64` is 2^64: from there on the cast saturated.
        if per_minute < u64::MAX as f64 && target.checked_mul(minutes).is_some() {
            Ok(target)
        } else {
            Err(ShrinkError::Config(format!(
                "max_rps {rps} asks for {per_minute} requests a minute, more than {minutes} \
                 experiment minutes can total in u64"
            )))
        }
    }
}

/// Everything the pipeline learned along the way (for analysis & figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkReport {
    pub day: DaySelection,
    /// Number of trace functions before aggregation.
    pub trace_functions: usize,
    /// Number of super-Functions after aggregation.
    pub aggregated_functions: usize,
    pub mapping: MappingStats,
    pub scale: ScaleReport,
}

/// The traces every mode refuses: one [`validate`] refuses, and one with no
/// invocations.
pub fn check_trace(trace: &Trace) -> Result<(), ShrinkError> {
    validate(trace)?;
    // `validate` has refused zero counts, so no entries means no invocations.
    if trace.active_functions().next().is_none() {
        return Err(ShrinkError::EmptyTrace);
    }
    Ok(())
}

/// Run the full Spec-mode pipeline.
pub fn shrink(
    trace: &Trace,
    pool: &WorkloadPool,
    cfg: &ShrinkRayConfig,
) -> Result<(ExperimentSpec, ShrinkReport), ShrinkError> {
    check_trace(trace)?;
    cfg.time_scaling.validate().map_err(ShrinkError::Config)?;
    let target_peak_per_minute = cfg.target_peak_per_minute()?;

    let day = select_day(trace, cfg.day_safety_fraction);

    // Row `g` of `cells` is Function `g`'s experiment minutes. The walk bins
    // each trace function's entries straight into its Function's row.
    let minutes = cfg.time_scaling.experiment_minutes();
    let bin_of = cfg.time_scaling.minute_bins();
    let grouping = Grouping::new(trace, DurationResolution::for_trace(trace));
    let mut cells = vec![0u64; grouping.len() * minutes];
    let functions = grouping.walk(trace, |g, f| {
        let row = &mut cells[g * minutes..(g + 1) * minutes];
        for (m, c) in f.minutes.entries() {
            if let Some(b) = bin_of[m as usize] {
                row[b as usize] += c as u64;
            }
        }
    });
    let mapping = map_each(functions.iter().map(Group::mapping_input), pool, &cfg.mapping);

    let Some(scale) = scale_cells(&mut cells, minutes, target_peak_per_minute) else {
        // Thumbnails keeps every invocation; a window can miss them all,
        // and there is no peak to scale then.
        let TimeScaling::MinuteRange { start, experiment_minutes } = cfg.time_scaling else {
            unreachable!("a checked trace has invocations, and thumbnails keep them all")
        };
        return Err(ShrinkError::EmptyWindow { start, end: start + experiment_minutes });
    };

    // Variable-inputs extension: same-benchmark pool Workloads within the
    // mapping threshold, nearest first.
    let index = pool.runtime_index();
    let alternates_for = |i: usize, chosen: faasrail_workloads::WorkloadId| -> Vec<_> {
        if cfg.max_alternates == 0 {
            return Vec::new();
        }
        let chosen_kind = pool.get(chosen).expect("mapped workload").kind();
        let d = functions[i].avg_duration_ms;
        let mut cands: Vec<_> = index.entries()[index.band(d, cfg.mapping.error_threshold)]
            .iter()
            .filter(|e| e.id != chosen && e.kind == chosen_kind)
            .collect();
        cands.sort_by(|a, b| {
            (a.mean_ms - d).abs().partial_cmp(&(b.mean_ms - d).abs()).expect("finite")
        });
        cands.into_iter().take(cfg.max_alternates).map(|e| e.id).collect()
    };

    // Only the Functions scaling left audible get a series of their own.
    let entries: Vec<SpecEntry> = cells
        .chunks_exact(minutes)
        .enumerate()
        .filter(|(_, row)| row.iter().any(|&v| v > 0))
        .map(|(i, row)| {
            let workload =
                mapping.workload_for(i as u32).expect("every aggregated function was mapped");
            SpecEntry {
                function_index: i as u32,
                workload,
                alternates: alternates_for(i, workload),
                trace_duration_ms: functions[i].avg_duration_ms,
                per_minute: row.to_vec(),
            }
        })
        .collect();

    let spec = ExperimentSpec {
        duration_minutes: cfg.time_scaling.experiment_minutes(),
        target_max_rps: cfg.max_rps,
        iat: cfg.iat,
        entries,
    };
    spec.validate().map_err(ShrinkError::Spec)?;

    let report = ShrinkReport {
        day,
        trace_functions: trace.functions.len(),
        aggregated_functions: functions.len(),
        mapping: mapping.stats,
        scale,
    };
    Ok((spec, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped_wecdf;
    use faasrail_stats::ecdf::WeightedEcdf;
    use faasrail_stats::ks_distance_weighted;
    use faasrail_trace::azure::{generate, AzureTraceConfig};
    use faasrail_trace::summarize::invocations_duration_wecdf;
    use faasrail_workloads::CostModel;

    fn run_small() -> (Trace, WorkloadPool, ExperimentSpec, ShrinkReport) {
        let trace = generate(&AzureTraceConfig::small(33));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let cfg = ShrinkRayConfig::new(120, 20.0);
        let (spec, report) = shrink(&trace, &pool, &cfg).expect("pipeline runs");
        (trace, pool, spec, report)
    }

    #[test]
    fn produces_valid_spec() {
        let (_, _, spec, report) = run_small();
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.duration_minutes, 120);
        assert!(report.aggregated_functions < report.trace_functions);
        assert!(report.day.single_day_safe);
    }

    #[test]
    fn peak_respects_budget() {
        let (_, _, spec, _) = run_small();
        assert!(spec.peak_per_minute() <= 20 * 60);
        // And comes close to it (the busiest minute approximates the target).
        assert!(spec.peak_per_minute() >= (20 * 60) * 95 / 100, "{}", spec.peak_per_minute());
    }

    #[test]
    fn scaled_volume_matches_paper_ballpark() {
        // Paper: Azure day 1 at 2 h / 20 rps yields ~118 K invocations. Our
        // synthetic small trace has the same shape, so the spec total should
        // land near target_peak × duration × (mean/peak load ratio) — i.e.
        // well within [60 % .. 100 %] of 2h × 20rps = 144 K.
        let (_, _, spec, _) = run_small();
        let budget = 144_000u64;
        let total = spec.total_requests();
        assert!(
            total > budget * 55 / 100 && total <= budget,
            "spec total = {total}, budget = {budget}"
        );
    }

    #[test]
    fn weighted_duration_distribution_tracks_trace() {
        // The heart of Fig. 9: the spec's invocation-weighted duration CDF
        // (with trace durations) stays close to the trace's own.
        let (trace, _, spec, _) = run_small();
        let before = invocations_duration_wecdf(&trace);
        let after = WeightedEcdf::new(
            spec.entries.iter().map(|e| (e.trace_duration_ms, e.total_requests() as f64)),
        );
        let ks = ks_distance_weighted(&before, &after);
        assert!(ks < 0.06, "KS(trace, spec) = {ks}");
    }

    #[test]
    fn mapped_workload_durations_track_trace() {
        // Same check but through the *mapped workload* runtimes — the CDF a
        // real replay would realize.
        let (trace, pool, spec, _) = run_small();
        let before = invocations_duration_wecdf(&trace);
        let after = mapped_wecdf(&pool, spec.mapped_requests(), |w| w.mean_ms);
        // Looser than the trace-duration check: the 10 % mapping threshold
        // plus balanced selection displaces a little mass by design.
        let ks = ks_distance_weighted(&before, &after);
        assert!(ks < 0.15, "KS(trace, mapped) = {ks}");
    }

    #[test]
    fn aggregate_load_shape_tracks_trace() {
        // Fig. 8: the spec's per-minute aggregate, normalized to peak,
        // follows the thumbnailed trace day.
        let (trace, _, spec, _) = run_small();
        let mean_abs_err = faasrail_stats::timeseries::load_shape_mae(
            &trace.aggregate_minutes(),
            &spec.aggregate_minutes(),
        );
        assert!(mean_abs_err < 0.02, "mean |shape error| = {mean_abs_err}");
    }

    #[test]
    fn determinism() {
        let trace = generate(&AzureTraceConfig::small(44));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let cfg = ShrinkRayConfig::new(60, 5.0);
        let a = shrink(&trace, &pool, &cfg).unwrap();
        let b = shrink(&trace, &pool, &cfg).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn minute_range_mode_works() {
        let trace = generate(&AzureTraceConfig::small(55));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let mut cfg = ShrinkRayConfig::new(30, 10.0);
        cfg.time_scaling = TimeScaling::MinuteRange { start: 600, experiment_minutes: 30 };
        let (spec, _) = shrink(&trace, &pool, &cfg).expect("minute range runs");
        assert_eq!(spec.duration_minutes, 30);
        assert!(spec.peak_per_minute() <= 600);
    }

    #[test]
    fn minute_range_window_without_invocations_is_an_error() {
        let mut trace = generate(&AzureTraceConfig::small(55));
        for f in &mut trace.functions {
            let outside = f.minutes.entries().filter(|&(m, _)| m < 600);
            f.minutes = faasrail_trace::MinuteSeries::new(outside.collect());
            f.daily.clear(); // no roll-up left to disagree with the edit
        }
        assert!(trace.total_invocations() > 0);
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let mut cfg = ShrinkRayConfig::new(30, 10.0);
        cfg.time_scaling = TimeScaling::MinuteRange { start: 600, experiment_minutes: 30 };
        let err = shrink(&trace, &pool, &cfg).expect_err("nothing to replay");
        assert_eq!(err, ShrinkError::EmptyWindow { start: 600, end: 630 });
        // The same trace still shrinks through a window that holds traffic.
        cfg.time_scaling = TimeScaling::MinuteRange { start: 0, experiment_minutes: 600 };
        assert!(shrink(&trace, &pool, &cfg).is_ok());
    }

    #[test]
    fn variable_inputs_extension() {
        let trace = generate(&AzureTraceConfig::small(88));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let mut cfg = ShrinkRayConfig::new(30, 10.0);
        cfg.max_alternates = 3;
        let (spec, _) = shrink(&trace, &pool, &cfg).expect("shrink");

        // Alternates exist, stay within the threshold, and keep the kind.
        let mut with_alternates = 0usize;
        for e in &spec.entries {
            let chosen = pool.get(e.workload).unwrap();
            assert!(e.alternates.len() <= 3);
            for &alt in &e.alternates {
                let w = pool.get(alt).unwrap();
                assert_eq!(w.kind(), chosen.kind(), "alternate changes benchmark");
                assert_ne!(alt, e.workload);
                let rel = (w.mean_ms - e.trace_duration_ms).abs() / e.trace_duration_ms;
                assert!(rel <= 0.10 + 1e-9, "alternate outside threshold: {rel}");
            }
            if !e.alternates.is_empty() {
                with_alternates += 1;
            }
        }
        assert!(
            with_alternates * 2 > spec.entries.len(),
            "most entries should have alternates ({with_alternates}/{})",
            spec.entries.len()
        );

        // Request generation actually rotates inputs.
        let reqs = crate::generate_requests(&spec, 4);
        let busiest =
            spec.entries.iter().max_by_key(|e| e.total_requests()).expect("non-empty spec");
        if !busiest.alternates.is_empty() {
            let used: std::collections::BTreeSet<_> = reqs
                .requests
                .iter()
                .filter(|r| r.function_index == busiest.function_index)
                .map(|r| r.workload)
                .collect();
            assert!(used.len() > 1, "rotation should use multiple inputs");
        }
    }

    #[test]
    fn malformed_minute_series_from_json_is_an_error_not_a_panic() {
        // Deserialization bypasses `MinuteSeries::new`: a minute past the
        // day's end, descending minutes and a zero count all reach `shrink`.
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        let cfg = ShrinkRayConfig::new(30, 10.0);
        let mut trace = generate(&AzureTraceConfig::small(77));
        let victim = trace.functions[3].id.0;
        // With no daily roll-up to disagree with, nothing else notices.
        trace.functions[3].daily.clear();
        let sound = serde_json::to_string(&trace).expect("serializes");
        let minutes = serde_json::to_string(&trace.functions[3].minutes).expect("serializes");
        assert_eq!(sound.matches(&minutes).count(), 1, "the series to corrupt is unique");
        for entries in ["[[1440,5]]", "[[9,1],[4,1]]", "[[4,0]]"] {
            let json = sound.replace(&minutes, &format!("{{\"entries\":{entries}}}"));
            let trace: Trace = serde_json::from_str(&json).expect("parses");
            let want = ShrinkError::Trace(faasrail_trace::ValidationError::BadMinuteSeries {
                function: victim,
            });
            assert_eq!(check_trace(&trace).err(), Some(want.clone()), "{entries}");
            assert_eq!(shrink(&trace, &pool, &cfg).err(), Some(want.clone()), "{entries}");
            let model = crate::ScheduleModel::from_trace_day(&trace, &pool, &cfg.mapping, cfg.iat);
            assert_eq!(model.err(), Some(want), "{entries}");
        }
    }

    #[test]
    fn rejects_bad_config() {
        let trace = generate(&AzureTraceConfig::small(66));
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        // A busiest minute of round(max_rps · 60) requests must be a number,
        // and 60 such minutes must still total within u64.
        for max_rps in [0.0, f64::INFINITY, f64::NAN, 1e18] {
            let cfg = ShrinkRayConfig::new(60, max_rps);
            let refused = shrink(&trace, &pool, &cfg);
            assert!(matches!(refused, Err(ShrinkError::Config(_))), "{max_rps}: {refused:?}");
        }
        let cfg = ShrinkRayConfig::new(0, 10.0);
        assert!(matches!(shrink(&trace, &pool, &cfg), Err(ShrinkError::Config(_))));
    }

    #[test]
    fn the_largest_budget_that_fits_is_kept() {
        let cfg = |minutes: usize, max_rps: f64| ShrinkRayConfig::new(minutes, max_rps);
        assert_eq!(cfg(120, 20.0).target_peak_per_minute(), Ok(1_200));
        assert_eq!(cfg(120, 1e-9).target_peak_per_minute(), Ok(1), "at least one request");
        // Half of what a day of minutes can total, and twice that.
        let half = (u64::MAX / 1_440 / 2) as f64 / 60.0;
        assert!(cfg(1_440, half).target_peak_per_minute().is_ok());
        assert!(cfg(1_440, 4.0 * half).target_peak_per_minute().is_err());
        // One minute past u64 is refused too, not saturated to u64::MAX.
        assert!(cfg(1, 1e20).target_peak_per_minute().is_err());
    }
}
