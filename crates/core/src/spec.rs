//! Experiment specifications — the shrink ray's output artifact.
//!
//! A spec pins down *what* to invoke (one mapped Workload per Function),
//! *how much* (per-experiment-minute request counts, already rate- and
//! time-scaled), and *how* sub-minute arrivals are modelled. Specs are
//! plain serde data: serialize one to JSON, commit it, and every replay of
//! it is identical — the paper's "consistent evaluation" goal.

use faasrail_workloads::WorkloadId;
use serde::{Deserialize, Serialize};

/// Sub-minute inter-arrival model (paper §3.2.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IatModel {
    /// The per-minute count is the intensity λ of a Poisson process:
    /// exponentially distributed gaps, stochastic per-minute totals.
    /// The paper's default: emulates sub-minute burstiness.
    Poisson,
    /// Deterministic count, uniformly random positions within the minute.
    UniformRandom,
    /// Deterministic count, equidistant positions (constant intra-minute
    /// rate, as in prior-work replay utilities).
    Equidistant,
    /// Doubly-stochastic Poisson (Cox) process: the minute is split into
    /// 10-second intervals whose rates are the per-minute rate modulated by
    /// unit-mean Gamma multipliers with the given coefficient of variation.
    ///
    /// This extends the paper's sub-minute model toward the *per-second*
    /// burstiness the Huawei trace reports (paper §3.3 flags incorporating
    /// it as future work): `cv = 0` degenerates to plain Poisson; the
    /// Huawei-like regime sits around `cv ≈ 1–2`.
    Bursty {
        /// Coefficient of variation of the 10-second rate multipliers.
        cv: f64,
    },
}

/// One Function's line in the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecEntry {
    /// Index of the aggregated Function this entry descends from.
    pub function_index: u32,
    /// The mapped Workload to invoke.
    pub workload: WorkloadId,
    /// Optional alternate Workloads of the same benchmark, all within the
    /// mapping threshold of the Function's duration. When non-empty, request
    /// generation rotates the input across invocations — the paper's
    /// "variable inputs per function" extension (§3.3). Empty by default.
    #[serde(default)]
    pub alternates: Vec<WorkloadId>,
    /// The Function's reported average duration (for analysis/plots), ms.
    pub trace_duration_ms: f64,
    /// Requests to issue during each experiment minute.
    pub per_minute: Vec<u64>,
}

impl SpecEntry {
    /// Total requests across the experiment.
    pub fn total_requests(&self) -> u64 {
        self.per_minute.iter().sum()
    }
}

/// A complete experiment specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Experiment duration, minutes.
    pub duration_minutes: usize,
    /// The user's target maximum request rate, requests/second.
    pub target_max_rps: f64,
    /// Sub-minute arrival model.
    pub iat: IatModel,
    /// Per-Function entries. Functions silenced by rate scaling are dropped.
    pub entries: Vec<SpecEntry>,
}

impl ExperimentSpec {
    /// Total requests across all Functions.
    pub fn total_requests(&self) -> u64 {
        self.entries.iter().map(|e| e.total_requests()).sum()
    }

    /// The spec as `(workload, requests)` pairs (see [`crate::mapped_wecdf`]).
    pub fn mapped_requests(&self) -> impl Iterator<Item = (WorkloadId, u64)> + '_ {
        self.entries.iter().map(|e| (e.workload, e.total_requests()))
    }

    /// Aggregate per-minute totals.
    pub fn aggregate_minutes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.duration_minutes];
        for e in &self.entries {
            for (t, &v) in out.iter_mut().zip(&e.per_minute) {
                *t += v;
            }
        }
        out
    }

    /// The busiest experiment minute's request count.
    pub fn peak_per_minute(&self) -> u64 {
        self.aggregate_minutes().into_iter().max().unwrap_or(0)
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration_minutes == 0 {
            return Err("zero-duration experiment".into());
        }
        if self.target_max_rps <= 0.0 {
            return Err("non-positive target rate".into());
        }
        for e in &self.entries {
            if e.per_minute.len() != self.duration_minutes {
                return Err(format!(
                    "entry for function {} has {} minutes, spec has {}",
                    e.function_index,
                    e.per_minute.len(),
                    self.duration_minutes
                ));
            }
            if e.total_requests() == 0 {
                return Err(format!("entry for function {} is empty", e.function_index));
            }
        }
        let budget = (self.target_max_rps * 60.0).round() as u64;
        let peak = self.peak_per_minute();
        if peak > budget {
            return Err(format!("peak minute {peak} exceeds budget {budget}"));
        }
        Ok(())
    }

    /// Restrict the spec to experiment minutes `[start, start + len)`.
    /// Entries left with no requests are dropped.
    ///
    /// # Panics
    /// Panics if the window exceeds the spec duration or is empty.
    pub fn slice(&self, start: usize, len: usize) -> ExperimentSpec {
        assert!(len > 0 && start + len <= self.duration_minutes, "window out of range");
        let entries = self
            .entries
            .iter()
            .filter_map(|e| {
                let per_minute = e.per_minute[start..start + len].to_vec();
                per_minute.iter().any(|&v| v > 0).then(|| SpecEntry {
                    function_index: e.function_index,
                    workload: e.workload,
                    alternates: e.alternates.clone(),
                    trace_duration_ms: e.trace_duration_ms,
                    per_minute,
                })
            })
            .collect();
        ExperimentSpec {
            duration_minutes: len,
            target_max_rps: self.target_max_rps,
            iat: self.iat,
            entries,
        }
    }

    /// Scale the request volume by `factor` (per entry, largest-remainder
    /// rounding, so each Function keeps its share and its minute shape).
    /// The rate budget scales accordingly. Entries scaled to zero are
    /// dropped.
    ///
    /// # Panics
    /// Panics unless `factor > 0`.
    pub fn scale_volume(&self, factor: f64) -> ExperimentSpec {
        assert!(factor > 0.0 && factor.is_finite(), "factor must be positive");
        let entries: Vec<SpecEntry> = self
            .entries
            .iter()
            .filter_map(|e| {
                let target = (e.total_requests() as f64 * factor).round() as u64;
                if target == 0 {
                    return None;
                }
                let per_minute =
                    faasrail_stats::timeseries::apportion_largest_remainder(&e.per_minute, target);
                Some(SpecEntry {
                    function_index: e.function_index,
                    workload: e.workload,
                    alternates: e.alternates.clone(),
                    trace_duration_ms: e.trace_duration_ms,
                    per_minute,
                })
            })
            .collect();
        let spec = ExperimentSpec {
            duration_minutes: self.duration_minutes,
            target_max_rps: self.target_max_rps * factor,
            iat: self.iat,
            entries,
        };
        // Rounding can nudge a minute past the scaled budget; widen to fit.
        let needed = spec.peak_per_minute() as f64 / 60.0;
        ExperimentSpec { target_max_rps: spec.target_max_rps.max(needed), ..spec }
    }

    /// Merge two specs of equal duration into one experiment (e.g. to mix
    /// loads fitted from different traces). The other spec's Function
    /// indices are offset to stay distinct; budgets add.
    ///
    /// # Panics
    /// Panics on duration or IAT-model mismatch.
    pub fn merge(&self, other: &ExperimentSpec) -> ExperimentSpec {
        assert_eq!(self.duration_minutes, other.duration_minutes, "duration mismatch");
        assert_eq!(self.iat, other.iat, "IAT model mismatch");
        let offset = self.entries.iter().map(|e| e.function_index).max().map_or(0, |m| m + 1);
        let mut entries = self.entries.clone();
        entries.extend(other.entries.iter().map(|e| SpecEntry {
            function_index: e.function_index + offset,
            workload: e.workload,
            alternates: e.alternates.clone(),
            trace_duration_ms: e.trace_duration_ms,
            per_minute: e.per_minute.clone(),
        }));
        ExperimentSpec {
            duration_minutes: self.duration_minutes,
            target_max_rps: self.target_max_rps + other.target_max_rps,
            iat: self.iat,
            entries,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ExperimentSpec {
        ExperimentSpec {
            duration_minutes: 3,
            target_max_rps: 1.0,
            iat: IatModel::Poisson,
            entries: vec![
                SpecEntry {
                    function_index: 0,
                    workload: WorkloadId(4),
                    alternates: vec![],
                    trace_duration_ms: 120.0,
                    per_minute: vec![10, 0, 5],
                },
                SpecEntry {
                    function_index: 1,
                    workload: WorkloadId(9),
                    alternates: vec![WorkloadId(10), WorkloadId(11)],
                    trace_duration_ms: 900.0,
                    per_minute: vec![0, 45, 0],
                },
            ],
        }
    }

    #[test]
    fn totals_and_peak() {
        let s = demo_spec();
        assert_eq!(s.total_requests(), 60);
        assert_eq!(s.aggregate_minutes(), vec![10, 45, 5]);
        assert_eq!(s.peak_per_minute(), 45);
    }

    #[test]
    fn validates_ok() {
        assert_eq!(demo_spec().validate(), Ok(()));
    }

    #[test]
    fn rejects_ragged_entries() {
        let mut s = demo_spec();
        s.entries[0].per_minute.pop();
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_peak_over_budget() {
        let mut s = demo_spec();
        s.target_max_rps = 0.5; // budget = 30/min < peak 45
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_empty_entry() {
        let mut s = demo_spec();
        s.entries[0].per_minute = vec![0, 0, 0];
        assert!(s.validate().is_err());
    }

    #[test]
    fn json_roundtrip() {
        let s = demo_spec();
        let back = ExperimentSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn slice_window() {
        let s = demo_spec();
        let w = s.slice(1, 2);
        assert_eq!(w.duration_minutes, 2);
        // Function 0 has requests only at minutes 0 and 2 → minute 2 stays.
        assert_eq!(w.entries.len(), 2);
        assert_eq!(w.aggregate_minutes(), vec![45, 5]);
        assert_eq!(w.validate(), Ok(()));
        // A window with no requests drops the entry.
        let tail = s.slice(2, 1);
        assert_eq!(tail.entries.len(), 1);
        assert_eq!(tail.total_requests(), 5);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_range_panics() {
        demo_spec().slice(2, 2);
    }

    #[test]
    fn scale_volume_preserves_shares() {
        let s = demo_spec();
        let doubled = s.scale_volume(2.0);
        assert_eq!(doubled.total_requests(), 120);
        assert_eq!(doubled.aggregate_minutes(), vec![20, 90, 10]);
        assert_eq!(doubled.validate(), Ok(()));
        // 15 × 0.1 and 45 × 0.1 both round half away from zero: 2 + 5.
        let tenth = s.scale_volume(0.1);
        assert_eq!(tenth.total_requests(), 7);
        assert_eq!(tenth.validate(), Ok(()));
    }

    #[test]
    fn merge_offsets_functions_and_adds_budget() {
        let a = demo_spec();
        let b = demo_spec();
        let m = a.merge(&b);
        assert_eq!(m.total_requests(), 120);
        assert_eq!(m.entries.len(), 4);
        assert_eq!(m.target_max_rps, 2.0);
        // Function indices stay unique.
        let mut idx: Vec<u32> = m.entries.iter().map(|e| e.function_index).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 4);
        assert_eq!(m.validate(), Ok(()));
    }
}
