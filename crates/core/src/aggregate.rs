//! Aggregation of trace functions into duration-keyed super-Functions.
//!
//! Paper §3.1.2 ("Aggregation"): all trace functions with the same reported
//! mean execution duration are merged into a single "super-Function" whose
//! invocation counts are the sums of its members'. This reduces Azure's
//! ~50 K functions to ~12.8 K Functions while *exactly* preserving the
//! invocation-weighted duration distribution, and — as Fig. 4 shows —
//! leaving function popularity virtually unaffected.

use faasrail_trace::{MinuteSeries, Trace, MINUTES_PER_DAY};
use serde::{Deserialize, Serialize};

/// Resolution at which durations are considered "the same".
///
/// The Azure trace reports integer milliseconds; the Huawei trace's sub-10 ms
/// durations need a finer key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurationResolution {
    Millisecond,
    TenthMillisecond,
}

impl DurationResolution {
    /// Quantize a duration to its aggregation key.
    pub fn key(self, ms: f64) -> u64 {
        match self {
            DurationResolution::Millisecond => ms.round().max(1.0) as u64,
            DurationResolution::TenthMillisecond => (ms * 10.0).round().max(1.0) as u64,
        }
    }

    /// Convert a key back to a representative duration in ms.
    pub fn ms(self, key: u64) -> f64 {
        match self {
            DurationResolution::Millisecond => key as f64,
            DurationResolution::TenthMillisecond => key as f64 / 10.0,
        }
    }

    /// The natural resolution for a trace kind.
    pub fn for_trace(trace: &Trace) -> Self {
        match trace.kind {
            faasrail_trace::TraceKind::HuaweiPrivate => DurationResolution::TenthMillisecond,
            _ => DurationResolution::Millisecond,
        }
    }
}

/// A super-Function: every trace function sharing one duration key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatedFunction {
    /// Quantized duration key.
    pub key: u64,
    /// Representative average duration, ms.
    pub avg_duration_ms: f64,
    /// Indices (into `trace.functions`) of the member functions.
    pub members: Vec<u32>,
    /// Summed per-minute invocations of all members (selected day).
    pub minutes: MinuteSeries,
    /// Invocation-weighted mean of the members' app memory, MiB.
    pub memory_mb: f64,
}

impl AggregatedFunction {
    /// Total selected-day invocations.
    pub fn total_invocations(&self) -> u64 {
        self.minutes.total()
    }
}

/// The result of the aggregation step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregation {
    pub resolution: DurationResolution,
    /// Super-Functions ordered by ascending duration key.
    pub functions: Vec<AggregatedFunction>,
}

impl Aggregation {
    /// Total invocations across all super-Functions.
    pub fn total_invocations(&self) -> u64 {
        self.functions.iter().map(|f| f.total_invocations()).sum()
    }

    /// Number of super-Functions (Azure: ~12 757 at paper scale).
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when no functions were aggregated.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

/// Aggregate a trace's functions by quantized mean duration.
///
/// Expects a trace that passed [`faasrail_trace::validate`]: minutes ascend
/// within each series, so its first and last entry bound its active span.
pub fn aggregate(trace: &Trace, resolution: DurationResolution) -> Aggregation {
    // `(key, index)` pairs are unique, so the unstable sort is deterministic
    // and leaves each group's members in ascending index order — the order
    // the `f64` memory sums below have always been taken in.
    let mut keyed: Vec<(u64, u32)> = trace
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (resolution.key(f.avg_duration_ms), i as u32))
        .collect();
    keyed.sort_unstable();

    // The one dense day every multi-member group is summed in; all-zero
    // between groups.
    let mut day = [0u64; MINUTES_PER_DAY];
    let functions = keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|group| {
            let key = group[0].0;
            // A lone member's series already is the group's sum.
            let lone = group.len() == 1;
            let (mut mem_weighted, mut weight) = (0.0, 0.0);
            let (mut first, mut last) = (MINUTES_PER_DAY, 0);
            for &(_, i) in group {
                let f = &trace.functions[i as usize];
                let entries = f.minutes.entries();
                let total = if lone {
                    f.minutes.total()
                } else {
                    if let (Some(&(lo, _)), Some(&(hi, _))) = (entries.first(), entries.last()) {
                        first = first.min(lo as usize);
                        last = last.max(hi as usize);
                    }
                    entries.iter().fold(0u64, |total, &(m, c)| {
                        day[m as usize] += c as u64;
                        total + c as u64
                    })
                };
                let mem = trace.app(f.app).map(|a| a.memory_mb).unwrap_or(170.0);
                // Weight memory by invocations, falling back to plain averaging
                // for groups of never-invoked functions.
                let w = total.max(1) as f64;
                mem_weighted += mem * w;
                weight += w;
            }
            let minutes = if lone {
                trace.functions[group[0].1 as usize].minutes.clone()
            } else if first > last {
                MinuteSeries::default()
            } else {
                let active = &mut day[first..=last];
                let minutes = MinuteSeries::from_dense_window(first, active);
                active.fill(0);
                minutes
            };
            AggregatedFunction {
                key,
                avg_duration_ms: resolution.ms(key),
                members: group.iter().map(|&(_, i)| i).collect(),
                minutes,
                memory_mb: mem_weighted / weight,
            }
        })
        .collect();
    debug_assert!(day.iter().all(|&c| c == 0), "a series' first and last entry bound it");
    Aggregation { resolution, functions }
}

/// Popularity change caused by aggregation (paper Fig. 4).
///
/// For every super-Function: its popularity (share of total daily
/// invocations) minus the *maximum* popularity among its member functions.
/// Values are ≥ 0 by construction and overwhelmingly tiny.
pub fn popularity_changes(trace: &Trace, agg: &Aggregation) -> Vec<f64> {
    let grand_total = trace.total_invocations() as f64;
    if grand_total == 0.0 {
        return Vec::new();
    }
    agg.functions
        .iter()
        .map(|af| {
            let new_pop = af.total_invocations() as f64 / grand_total;
            let max_member_pop = af
                .members
                .iter()
                .map(|&i| trace.functions[i as usize].total_invocations() as f64 / grand_total)
                .fold(0.0, f64::max);
            new_pop - max_member_pop
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::ecdf::WeightedEcdf;
    use faasrail_trace::azure::{generate, AzureTraceConfig};
    use faasrail_trace::summarize::invocations_duration_wecdf;
    use faasrail_trace::{App, AppId, FunctionId, TraceFunction, TraceKind};

    fn tiny_trace() -> Trace {
        let mk = |id: u32, dur: f64, minute: u16, count: u32| TraceFunction {
            id: FunctionId(id),
            app: AppId(0),
            trigger: Default::default(),
            avg_duration_ms: dur,
            minutes: MinuteSeries::new(vec![(minute, count)]),
            daily: vec![],
        };
        Trace {
            kind: TraceKind::Custom,
            selected_day: 0,
            num_days: 1,
            functions: vec![
                mk(0, 100.2, 0, 10),
                mk(1, 99.9, 5, 20), // same ms key (100) as f0
                mk(2, 250.0, 5, 5),
                mk(3, 250.4, 9, 1), // same ms key (250) as f2
                mk(4, 4000.0, 3, 7),
            ],
            apps: vec![App { id: AppId(0), memory_mb: 128.0 }],
        }
    }

    #[test]
    fn groups_by_rounded_ms() {
        let t = tiny_trace();
        let agg = aggregate(&t, DurationResolution::Millisecond);
        assert_eq!(agg.len(), 3);
        let keys: Vec<u64> = agg.functions.iter().map(|f| f.key).collect();
        assert_eq!(keys, vec![100, 250, 4000]);
        assert_eq!(agg.functions[0].members.len(), 2);
        assert_eq!(agg.functions[0].total_invocations(), 30);
        // Minute series summed.
        assert_eq!(agg.functions[0].minutes.get(0), 10);
        assert_eq!(agg.functions[0].minutes.get(5), 20);
    }

    #[test]
    fn finer_resolution_splits_groups() {
        let t = tiny_trace();
        let agg = aggregate(&t, DurationResolution::TenthMillisecond);
        assert_eq!(agg.len(), 5, "0.1 ms keys keep all five distinct");
    }

    #[test]
    fn total_invocations_preserved() {
        let t = tiny_trace();
        let agg = aggregate(&t, DurationResolution::Millisecond);
        assert_eq!(agg.total_invocations(), t.total_invocations());
    }

    #[test]
    fn weighted_duration_distribution_nearly_preserved() {
        // Aggregation quantizes durations to 1 ms, so the weighted CDF can
        // move by at most the quantization step.
        let t = generate(&AzureTraceConfig::small(5));
        let agg = aggregate(&t, DurationResolution::Millisecond);
        let before = invocations_duration_wecdf(&t);
        let after = WeightedEcdf::new(
            agg.functions
                .iter()
                .filter(|f| f.total_invocations() > 0)
                .map(|f| (f.avg_duration_ms, f.total_invocations() as f64)),
        );
        let ks = faasrail_stats::ks_distance_weighted(&before, &after);
        assert!(ks < 0.01, "KS after aggregation = {ks}");
    }

    #[test]
    fn reduces_function_count_substantially() {
        let t = generate(&AzureTraceConfig::small(6));
        let agg = aggregate(&t, DurationResolution::Millisecond);
        assert!(agg.len() < t.functions.len(), "{} !< {}", agg.len(), t.functions.len());
    }

    #[test]
    fn popularity_changes_nonnegative_and_tiny() {
        // Fig. 4: apart from a handful of outliers, popularity changes are
        // far below 1 %.
        let t = generate(&AzureTraceConfig::small(7));
        let agg = aggregate(&t, DurationResolution::Millisecond);
        let changes = popularity_changes(&t, &agg);
        assert_eq!(changes.len(), agg.len());
        assert!(changes.iter().all(|&c| c >= -1e-12));
        let big = changes.iter().filter(|&&c| c > 0.01).count();
        assert!(
            (big as f64) / (changes.len() as f64) < 0.01,
            "{big}/{} groups changed popularity by more than 1%",
            changes.len()
        );
    }

    #[test]
    fn memory_weighted_mean() {
        let mut t = tiny_trace();
        t.apps = vec![App { id: AppId(0), memory_mb: 100.0 }];
        let agg = aggregate(&t, DurationResolution::Millisecond);
        for f in &agg.functions {
            assert_eq!(f.memory_mb, 100.0);
        }
    }

    #[test]
    fn resolution_key_roundtrip() {
        let r = DurationResolution::Millisecond;
        assert_eq!(r.key(100.4), 100);
        assert_eq!(r.ms(100), 100.0);
        let r = DurationResolution::TenthMillisecond;
        assert_eq!(r.key(0.14), 1);
        assert_eq!(r.ms(14), 1.4);
        // Sub-resolution durations clamp to the smallest key, never zero.
        assert_eq!(DurationResolution::Millisecond.key(0.01), 1);
    }
}
