//! Request-trace expansion: turning a spec's per-minute counts into a
//! timestamped stream of invocation requests (paper §3.2.1.3).
//!
//! For each Function and each experiment minute, arrivals are placed by the
//! spec's [`IatModel`]: a Poisson process with the minute's count as its
//! intensity (the default — exponential gaps, bursty even at second scale),
//! uniformly random positions, or equidistant positions.

use crate::evaluate::{counts_by_kind, mapped_wecdf};
use crate::spec::ExperimentSpec;
use faasrail_stats::ecdf::WeightedEcdf;
use faasrail_workloads::{WorkloadId, WorkloadKind, WorkloadPool};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Milliseconds per experiment minute.
pub const MS_PER_MINUTE: u64 = 60_000;

/// One invocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time, milliseconds from experiment start.
    pub at_ms: u64,
    /// The Workload to invoke.
    pub workload: WorkloadId,
    /// The originating (aggregated) Function.
    pub function_index: u32,
}

/// A replayable, time-ordered request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    pub duration_minutes: usize,
    /// Requests sorted by arrival time.
    pub requests: Vec<Request>,
}

impl RequestTrace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when no requests were generated.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Per-minute aggregate counts (for load-over-time plots).
    pub fn per_minute_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.duration_minutes];
        for r in &self.requests {
            let m = (r.at_ms / MS_PER_MINUTE) as usize;
            if m < out.len() {
                out[m] += 1;
            }
        }
        out
    }

    /// Per-second aggregate counts (for sub-minute burstiness analysis).
    pub fn per_second_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.duration_minutes * 60];
        for r in &self.requests {
            let s = (r.at_ms / 1_000) as usize;
            if s < out.len() {
                out[s] += 1;
            }
        }
        out
    }

    /// How many requests target each benchmark kind (paper Fig. 12).
    pub fn counts_by_kind(&self, pool: &WorkloadPool) -> BTreeMap<WorkloadKind, u64> {
        counts_by_kind(pool, self.requests.iter().map(|r| (r.workload, 1)))
    }

    /// Requests per originating Function that has any, in no particular
    /// order: the counts behind the popularity curves (paper Figs. 1c, 10).
    ///
    /// Counts into a table indexed by `function_index` when the largest
    /// index is small next to the request count (a trace's Functions are
    /// numbered densely); a sparse numbering is sorted and counted by runs
    /// instead, so no index can size the table.
    pub fn counts_by_function(&self) -> Vec<u64> {
        let ids = self.requests.iter().map(|r| r.function_index as usize);
        let Some(largest) = ids.clone().max() else { return Vec::new() };
        if largest <= 4 * self.requests.len() + 1_024 {
            let mut counts = vec![0u64; largest + 1];
            for id in ids {
                counts[id] += 1;
            }
            counts.retain(|&n| n > 0);
            counts
        } else {
            let mut ids: Vec<u32> = self.requests.iter().map(|r| r.function_index).collect();
            ids.sort_unstable();
            ids.chunk_by(|a, b| a == b).map(|run| run.len() as u64).collect()
        }
    }

    /// Requests per pool Workload: one `(workload, count)` for every
    /// Workload of the pool, in id order, zero counts included.
    pub fn counts_by_workload(&self, pool: &WorkloadPool) -> Vec<(WorkloadId, u64)> {
        let mut out: Vec<(WorkloadId, u64)> =
            (0..pool.len() as u32).map(|i| (WorkloadId(i), 0)).collect();
        for r in &self.requests {
            out.get_mut(r.workload.0 as usize).expect("workload in pool").1 += 1;
        }
        out
    }

    /// ECDF of the requests' expected durations, for invocation-runtime CDFs
    /// (paper Figs. 9, 11): one unit-weight point per request, built from
    /// the per-Workload counts.
    pub fn duration_wecdf(&self, pool: &WorkloadPool) -> WeightedEcdf {
        mapped_wecdf(pool, self.counts_by_workload(pool), |w| w.mean_ms)
    }
}

/// Expand a spec into a request trace. Deterministic under `seed`.
///
/// Materializes by draining the lazy [`ArrivalStream`](crate::ArrivalStream)
/// over the spec's [`ScheduleModel`](crate::ScheduleModel): each
/// (Function, minute) cell is expanded with its own deterministic RNG, so
/// the lazy and materialized paths agree exactly by construction. The
/// output is sorted by `(at_ms, function_index)`.
pub fn generate_requests(spec: &ExperimentSpec, seed: u64) -> RequestTrace {
    spec.validate().expect("invalid spec");
    let model = crate::ScheduleModel::from_spec(spec);
    crate::schedule::materialize(&crate::ArrivalStream::new(&model, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{IatModel, SpecEntry};

    fn spec(iat: IatModel) -> ExperimentSpec {
        ExperimentSpec {
            duration_minutes: 5,
            target_max_rps: 10.0,
            iat,
            entries: vec![
                SpecEntry {
                    function_index: 0,
                    workload: WorkloadId(0),
                    alternates: vec![],
                    trace_duration_ms: 10.0,
                    per_minute: vec![120, 60, 0, 30, 240],
                },
                SpecEntry {
                    function_index: 1,
                    workload: WorkloadId(1),
                    alternates: vec![],
                    trace_duration_ms: 500.0,
                    per_minute: vec![0, 60, 60, 0, 0],
                },
            ],
        }
    }

    /// Digests of the parent commit's output, captured before the cell
    /// generator moved to `faasrail_stats::rng`: the request stream of a
    /// `(spec, seed)` must not change.
    #[test]
    fn request_streams_are_the_ones_generated_before_the_rng_port() {
        let golden = [
            (IatModel::Poisson, 582, 0x36dc_b634_9227_a03d_u64),
            (IatModel::UniformRandom, 570, 0x2621_5d45_3bf4_326c),
            (IatModel::Equidistant, 570, 0x120a_2403_e4dc_96b5),
            (IatModel::Bursty { cv: 1.5 }, 711, 0x9f18_9fb7_c247_af0d),
        ];
        let fnv = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01B3);
        for (iat, len, digest) in golden {
            let t = generate_requests(&spec(iat), 7);
            let got = t.requests.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
                fnv(fnv(fnv(h, r.at_ms), r.workload.0 as u64), r.function_index as u64)
            });
            assert_eq!((t.requests.len(), got), (len, digest), "{iat:?}: digest {got:#018x}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let s = spec(IatModel::Poisson);
        assert_eq!(generate_requests(&s, 7), generate_requests(&s, 7));
        assert_ne!(generate_requests(&s, 7), generate_requests(&s, 8));
    }

    #[test]
    fn sorted_and_in_range() {
        let s = spec(IatModel::Poisson);
        let t = generate_requests(&s, 1);
        assert!(t.requests.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let end = s.duration_minutes as u64 * MS_PER_MINUTE;
        assert!(t.requests.iter().all(|r| r.at_ms < end));
    }

    #[test]
    fn deterministic_modes_exact_counts() {
        for iat in [IatModel::UniformRandom, IatModel::Equidistant] {
            let s = spec(iat);
            let t = generate_requests(&s, 3);
            assert_eq!(t.len() as u64, s.total_requests(), "{iat:?}");
            // Per-function, per-minute counts match the spec exactly.
            let mut counts = vec![vec![0u64; 5]; 2];
            for r in &t.requests {
                counts[r.function_index as usize][(r.at_ms / MS_PER_MINUTE) as usize] += 1;
            }
            assert_eq!(counts[0], s.entries[0].per_minute);
            assert_eq!(counts[1], s.entries[1].per_minute);
        }
    }

    #[test]
    fn poisson_counts_close_in_expectation() {
        let s = spec(IatModel::Poisson);
        let mut total = 0u64;
        for seed in 0..30 {
            total += generate_requests(&s, seed).len() as u64;
        }
        let mean = total as f64 / 30.0;
        let expect = s.total_requests() as f64;
        assert!((mean / expect - 1.0).abs() < 0.05, "mean {mean}, expected {expect}");
    }

    #[test]
    fn equidistant_gaps_are_constant() {
        let s = ExperimentSpec {
            duration_minutes: 1,
            target_max_rps: 1.0,
            iat: IatModel::Equidistant,
            entries: vec![SpecEntry {
                function_index: 0,
                workload: WorkloadId(0),
                alternates: vec![],
                trace_duration_ms: 1.0,
                per_minute: vec![60],
            }],
        };
        let t = generate_requests(&s, 0);
        let gaps: Vec<i64> =
            t.requests.windows(2).map(|w| w[1].at_ms as i64 - w[0].at_ms as i64).collect();
        assert!(gaps.iter().all(|&g| g == 1_000), "{gaps:?}");
    }

    #[test]
    fn counts_by_function_over_dense_and_sparse_indices() {
        let trace = |ids: &[u32]| RequestTrace {
            duration_minutes: 1,
            requests: ids
                .iter()
                .map(|&function_index| Request {
                    at_ms: 0,
                    workload: WorkloadId(0),
                    function_index,
                })
                .collect(),
        };
        let sorted = |ids: &[u32]| {
            let mut counts = trace(ids).counts_by_function();
            counts.sort_unstable();
            counts
        };
        assert!(trace(&[]).counts_by_function().is_empty());
        assert_eq!(sorted(&[3, 0, 3, 7, 3, 0]), [1, 2, 3], "dense, with unused indices");
        // Huge indices on a short trace are counted by runs: a table indexed
        // by `u32::MAX` would take 32 GiB.
        assert_eq!(sorted(&[u32::MAX, 5, u32::MAX, 1 << 31, 5, u32::MAX]), [1, 2, 3]);
        assert_eq!(sorted(&[u32::MAX]), [1]);
        // Both paths agree where the table stops being used.
        let edge: Vec<u32> = (0..100).map(|i| if i % 3 == 0 { 1_424 } else { i % 7 }).collect();
        let past: Vec<u32> = edge.iter().map(|&i| if i == 1_424 { 1_425 } else { i }).collect();
        assert_eq!(sorted(&edge), sorted(&past));
    }

    #[test]
    fn per_minute_counts_roundtrip() {
        let s = spec(IatModel::Equidistant);
        let t = generate_requests(&s, 0);
        assert_eq!(t.per_minute_counts(), s.aggregate_minutes());
        assert_eq!(t.per_second_counts().iter().sum::<u64>() as usize, t.len());
    }

    #[test]
    fn bursty_model_is_more_bursty_than_poisson() {
        // The Cox-process extension must raise second-scale overdispersion
        // relative to plain Poisson at the same mean rate.
        let mk = |iat: IatModel| ExperimentSpec {
            duration_minutes: 10,
            target_max_rps: 100.0,
            iat,
            entries: vec![SpecEntry {
                function_index: 0,
                workload: WorkloadId(0),
                alternates: vec![],
                trace_duration_ms: 1.0,
                per_minute: vec![3_000; 10],
            }],
        };
        let fano = |iat: IatModel, seed: u64| {
            let t = generate_requests(&mk(iat), seed);
            faasrail_stats::timeseries::fano_factor(&t.per_second_counts())
        };
        let poisson = fano(IatModel::Poisson, 21);
        let bursty = fano(IatModel::Bursty { cv: 1.5 }, 21);
        assert!((poisson - 1.0).abs() < 0.3, "poisson Fano = {poisson}");
        assert!(bursty > poisson * 2.0, "bursty {bursty} vs poisson {poisson}");
    }

    #[test]
    fn bursty_preserves_expected_volume() {
        let spec = ExperimentSpec {
            duration_minutes: 5,
            target_max_rps: 100.0,
            iat: IatModel::Bursty { cv: 1.0 },
            entries: vec![SpecEntry {
                function_index: 0,
                workload: WorkloadId(0),
                alternates: vec![],
                trace_duration_ms: 1.0,
                per_minute: vec![1_200; 5],
            }],
        };
        let mut total = 0u64;
        for seed in 0..40 {
            total += generate_requests(&spec, seed).len() as u64;
        }
        let mean = total as f64 / 40.0;
        assert!((mean / 6_000.0 - 1.0).abs() < 0.06, "mean volume {mean}, expected 6000");
    }

    #[test]
    fn bursty_cv_zero_degenerates_to_poisson_stats() {
        let mk = |iat: IatModel| ExperimentSpec {
            duration_minutes: 5,
            target_max_rps: 100.0,
            iat,
            entries: vec![SpecEntry {
                function_index: 0,
                workload: WorkloadId(0),
                alternates: vec![],
                trace_duration_ms: 1.0,
                per_minute: vec![2_400; 5],
            }],
        };
        let t = generate_requests(&mk(IatModel::Bursty { cv: 0.0 }), 5);
        let fano = faasrail_stats::timeseries::fano_factor(&t.per_second_counts());
        assert!((fano - 1.0).abs() < 0.35, "Fano = {fano}");
    }

    #[test]
    fn poisson_bursty_at_second_scale() {
        // The Poisson model produces second-scale variation: not every
        // second carries the same count.
        let s = ExperimentSpec {
            duration_minutes: 2,
            target_max_rps: 100.0,
            iat: IatModel::Poisson,
            entries: vec![SpecEntry {
                function_index: 0,
                workload: WorkloadId(0),
                alternates: vec![],
                trace_duration_ms: 1.0,
                per_minute: vec![3_000, 3_000],
            }],
        };
        let t = generate_requests(&s, 11);
        let secs = t.per_second_counts();
        let min = secs.iter().min().unwrap();
        let max = secs.iter().max().unwrap();
        assert!(max > min, "per-second counts should vary: {min}..{max}");
    }
}
