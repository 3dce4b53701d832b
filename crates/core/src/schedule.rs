//! Lazy arrival schedules: generate invocation arrivals on demand instead
//! of materializing the full request vector.
//!
//! A paper-scale Azure day is ~908 M invocations — tens of GB as a
//! [`RequestTrace`] — yet the information content is just each Function's
//! per-minute counts plus the sub-minute [`IatModel`]. This module keeps
//! the *model* in memory (O(functions), sparse per-minute series) and
//! expands arrivals one at a time:
//!
//! * [`ScheduleSource`] — anything the simulator can consume: a cursor of
//!   time-ordered [`Arrival`]s plus duration/size hints. Implemented by the
//!   materialized [`RequestTrace`] and by the lazy [`ArrivalStream`].
//! * [`ScheduleModel`] — the compact description (one [`ModelEntry`] per
//!   Function with a sparse minute series), built from an
//!   [`ExperimentSpec`] or directly from a production [`Trace`] day at
//!   full fidelity.
//! * [`ArrivalStream`] — the lazy source: each (function, minute) cell is
//!   expanded with its own deterministic RNG seeded from
//!   `(seed, function_index, minute)`, and the per-function streams are
//!   merged by an indexed next-arrival heap. Peak memory is
//!   O(functions + one minute's arrivals), independent of total volume.
//!
//! [`generate_requests`](crate::generate_requests) materializes by draining
//! an [`ArrivalStream`], so the lazy and materialized paths yield the same
//! `(at_ms, workload, function_index)` sequence by construction.

use crate::aggregate::{aggregate, DurationResolution};
use crate::error::ShrinkError;
use crate::mapping::{map_functions, MappingConfig};
use crate::request::{Request, RequestTrace, MS_PER_MINUTE};
use crate::spec::{ExperimentSpec, IatModel};
use faasrail_stats::rng::{mix64_pair, Rng, SplitMix64};
use faasrail_stats::sampler::{Exponential, Gamma, Sampler};
use faasrail_trace::Trace;
use faasrail_workloads::{WorkloadId, WorkloadPool};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One invocation arrival, as yielded by a schedule cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time, milliseconds of virtual time from experiment start.
    pub at_ms: u64,
    /// The Workload to invoke.
    pub workload: WorkloadId,
    /// The originating Function.
    pub function_index: u32,
}

/// A stream of time-ordered arrivals. Implementations must yield
/// non-decreasing `at_ms`.
pub trait ArrivalCursor {
    /// The next arrival, or `None` when the schedule is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// A source of invocation arrivals the simulation engine can replay.
///
/// Two implementations ship: the materialized [`RequestTrace`] (exact
/// requests, O(invocations) memory) and the lazy [`ArrivalStream`]
/// (generated on demand, O(functions) memory).
pub trait ScheduleSource {
    /// The cursor type produced by [`ScheduleSource::cursor`].
    type Cursor<'a>: ArrivalCursor
    where
        Self: 'a;

    /// Schedule duration in experiment minutes.
    fn duration_minutes(&self) -> usize;

    /// Expected number of arrivals (exact for deterministic schedules,
    /// the mean for stochastic ones). Sizing hint only.
    fn arrivals_hint(&self) -> u64;

    /// Open a fresh cursor over the schedule.
    fn cursor(&self) -> Self::Cursor<'_>;
}

// ---------------------------------------------------------------------------
// Materialized source: RequestTrace.
// ---------------------------------------------------------------------------

/// Cursor over a materialized [`RequestTrace`].
///
/// Yields the requests in non-decreasing `at_ms` order: already-sorted
/// traces (the [`generate_requests`](crate::generate_requests) invariant)
/// are walked in place; hand-built unsorted traces get a stable index sort
/// first, preserving vector order among equal timestamps — the same tie
/// order the engine's historic all-arrivals-in-heap implementation used.
pub struct TraceCursor<'a> {
    trace: &'a RequestTrace,
    /// Stable sort of request indices by `at_ms`; `None` when the vector
    /// is already sorted.
    order: Option<Vec<u32>>,
    pos: usize,
}

impl ArrivalCursor for TraceCursor<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let idx = match &self.order {
            Some(order) => *order.get(self.pos)? as usize,
            None => {
                if self.pos >= self.trace.requests.len() {
                    return None;
                }
                self.pos
            }
        };
        self.pos += 1;
        let r = &self.trace.requests[idx];
        Some(Arrival { at_ms: r.at_ms, workload: r.workload, function_index: r.function_index })
    }
}

impl ScheduleSource for RequestTrace {
    type Cursor<'a> = TraceCursor<'a>;

    fn duration_minutes(&self) -> usize {
        self.duration_minutes
    }

    fn arrivals_hint(&self) -> u64 {
        self.requests.len() as u64
    }

    fn cursor(&self) -> TraceCursor<'_> {
        let sorted = self.requests.windows(2).all(|w| w[0].at_ms <= w[1].at_ms);
        let order = (!sorted).then(|| {
            let mut idx: Vec<u32> = (0..self.requests.len() as u32).collect();
            idx.sort_by_key(|&i| self.requests[i as usize].at_ms);
            idx
        });
        TraceCursor { trace: self, order, pos: 0 }
    }
}

// ---------------------------------------------------------------------------
// The compact schedule model.
// ---------------------------------------------------------------------------

/// One Function's line in a [`ScheduleModel`]: which Workload to invoke and
/// a sparse per-minute count series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelEntry {
    pub function_index: u32,
    pub workload: WorkloadId,
    /// Optional alternate Workloads (variable-inputs extension); rotation
    /// across them is deterministic per minute cell.
    #[serde(default)]
    pub alternates: Vec<WorkloadId>,
    /// Sparse `(minute, count)` pairs, minutes strictly ascending,
    /// counts positive.
    pub minutes: Vec<(u32, u64)>,
}

impl ModelEntry {
    /// Total scheduled arrivals (exact for deterministic IAT models).
    pub fn total(&self) -> u64 {
        self.minutes.iter().map(|&(_, c)| c).sum()
    }
}

/// The compact, lazily-expandable description of an experiment's load:
/// everything [`generate_requests`](crate::generate_requests) needs, at
/// O(functions) memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleModel {
    pub duration_minutes: usize,
    pub iat: IatModel,
    pub entries: Vec<ModelEntry>,
}

impl ScheduleModel {
    /// Build from an [`ExperimentSpec`] (dense per-minute vectors become
    /// sparse series).
    pub fn from_spec(spec: &ExperimentSpec) -> ScheduleModel {
        let entries = spec
            .entries
            .iter()
            .map(|e| ModelEntry {
                function_index: e.function_index,
                workload: e.workload,
                alternates: e.alternates.clone(),
                minutes: e
                    .per_minute
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(m, &c)| (m as u32, c))
                    .collect(),
            })
            .filter(|e| !e.minutes.is_empty())
            .collect();
        ScheduleModel { duration_minutes: spec.duration_minutes, iat: spec.iat, entries }
    }

    /// Build a *full-fidelity* schedule for one production-trace day: every
    /// active trace function keeps its own identity and exact per-minute
    /// counts; Workloads are assigned through the paper's aggregation +
    /// mapping steps (so every member of a duration group shares its
    /// group's mapped Workload), but no time or rate scaling is applied.
    ///
    /// This is how the lab replays "all 908 M invocations": the model stays
    /// O(functions) while the arrivals are expanded lazily.
    pub fn from_trace_day(
        trace: &Trace,
        pool: &WorkloadPool,
        mapping_cfg: &MappingConfig,
        iat: IatModel,
    ) -> Result<ScheduleModel, ShrinkError> {
        faasrail_trace::validate(trace)?;
        if trace.active_functions().next().is_none() {
            return Err(ShrinkError::EmptyTrace);
        }
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
                    minutes: f
                        .minutes
                        .entries()
                        .iter()
                        .map(|&(m, c)| (m as u32, c as u64))
                        .collect(),
                });
            }
        }
        entries.sort_by_key(|e| e.function_index);
        Ok(ScheduleModel { duration_minutes: faasrail_trace::MINUTES_PER_DAY, iat, entries })
    }

    /// Total scheduled arrivals across all entries.
    pub fn total_arrivals(&self) -> u64 {
        self.entries.iter().map(ModelEntry::total).sum()
    }
}

// ---------------------------------------------------------------------------
// Deterministic per-cell RNG.
// ---------------------------------------------------------------------------

/// Mix `(seed, function_index, minute)` into one cell seed. Each
/// (function, minute) cell gets its own [`SplitMix64`], so any cell can be
/// expanded independently of every other — the property that makes lazy
/// streaming, materialization, and re-streaming all agree exactly.
fn cell_seed(seed: u64, function_index: u32, minute: u32) -> u64 {
    mix64_pair(seed, ((function_index as u64) << 32) | minute as u64)
}

/// Expand one (entry, minute) cell into `buf` as `(at_ms, workload)` pairs
/// in non-decreasing `at_ms` order. Deterministic in
/// `(seed, entry.function_index, minute)` alone.
fn expand_cell(
    iat: IatModel,
    entry: &ModelEntry,
    minute: u32,
    count: u64,
    seed: u64,
    buf: &mut Vec<(u64, WorkloadId)>,
) {
    buf.clear();
    if count == 0 {
        return;
    }
    let mut rng = SplitMix64::new(cell_seed(seed, entry.function_index, minute));
    let minute_start = minute as u64 * MS_PER_MINUTE;
    // Variable-inputs rotation, restarted deterministically per cell (offset
    // by the minute so once-a-minute functions still cycle across inputs).
    let n_inputs = entry.alternates.len() + 1;
    let mut rotation = minute as usize % n_inputs;
    let mut next_workload = || -> WorkloadId {
        let pick = rotation % n_inputs;
        rotation += 1;
        if pick == 0 {
            entry.workload
        } else {
            entry.alternates[pick - 1]
        }
    };
    match iat {
        IatModel::Poisson => {
            // Exponential gaps with mean 60s/count: the cell's count is the
            // intensity; realized totals vary.
            let gap = Exponential::from_mean(MS_PER_MINUTE as f64 / count as f64);
            let mut t = gap.sample(&mut rng);
            while t < MS_PER_MINUTE as f64 {
                buf.push((minute_start + t as u64, next_workload()));
                t += gap.sample(&mut rng);
            }
        }
        IatModel::UniformRandom => {
            for _ in 0..count {
                let off = rng.range(0..MS_PER_MINUTE);
                buf.push((minute_start + off, next_workload()));
            }
            // Workloads were assigned in generation order; the stable sort
            // keeps that order among equal timestamps.
            buf.sort_by_key(|&(at_ms, _)| at_ms);
        }
        IatModel::Equidistant => {
            let step = MS_PER_MINUTE as f64 / count as f64;
            for i in 0..count {
                buf.push((minute_start + ((i as f64 + 0.5) * step) as u64, next_workload()));
            }
        }
        IatModel::Bursty { cv } => {
            // Cox process: Gamma-modulated Poisson rate per 10-second
            // interval.
            const INTERVAL_MS: f64 = 10_000.0;
            const INTERVALS: usize = (MS_PER_MINUTE / 10_000) as usize;
            let base_rate = count as f64 / MS_PER_MINUTE as f64; // events per ms
            let modulator = (cv > 0.0).then(|| Gamma::unit_mean_with_cv(cv));
            for j in 0..INTERVALS {
                let mult = modulator.as_ref().map_or(1.0, |m| m.sample(&mut rng));
                if mult <= 0.0 {
                    continue;
                }
                let gap = Exponential::new(base_rate * mult);
                let mut t = gap.sample(&mut rng);
                while t < INTERVAL_MS {
                    buf.push((minute_start + (j as f64 * INTERVAL_MS + t) as u64, next_workload()));
                    t += gap.sample(&mut rng);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The lazy source: ArrivalStream.
// ---------------------------------------------------------------------------

/// The lazy schedule source: expands a [`ScheduleModel`] on demand under a
/// seed. Opening a cursor costs O(functions); iterating costs
/// O(1 amortized) per arrival with O(functions + one minute of arrivals)
/// peak memory.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalStream<'m> {
    model: &'m ScheduleModel,
    seed: u64,
}

impl<'m> ArrivalStream<'m> {
    /// Wrap a model under a generation seed.
    pub fn new(model: &'m ScheduleModel, seed: u64) -> Self {
        ArrivalStream { model, seed }
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

struct EntryState {
    /// Index into `entry.minutes` of the next unexpanded cell.
    next_cell: u32,
    /// Next unconsumed arrival in `buf`.
    pos: u32,
    /// The active cell's arrivals, time-ordered.
    buf: Vec<(u64, WorkloadId)>,
}

/// Cursor over an [`ArrivalStream`]: per-entry cell buffers merged by an
/// indexed next-arrival heap keyed `(at_ms, function_index, entry_idx)` —
/// the same global order [`generate_requests`](crate::generate_requests)'s
/// output vector has.
pub struct LazyCursor<'m> {
    model: &'m ScheduleModel,
    seed: u64,
    states: Vec<EntryState>,
    /// Min-heap of each live entry's next arrival.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
}

impl<'m> LazyCursor<'m> {
    fn new(model: &'m ScheduleModel, seed: u64) -> Self {
        let mut cursor = LazyCursor {
            model,
            seed,
            states: Vec::with_capacity(model.entries.len()),
            heap: BinaryHeap::with_capacity(model.entries.len()),
        };
        for i in 0..model.entries.len() {
            cursor.states.push(EntryState { next_cell: 0, pos: 0, buf: Vec::new() });
            cursor.refill(i as u32);
        }
        cursor
    }

    /// Expand cells for entry `idx` until its buffer holds an arrival (a
    /// Poisson cell can realize zero), then advertise it on the heap.
    fn refill(&mut self, idx: u32) {
        let entry = &self.model.entries[idx as usize];
        let state = &mut self.states[idx as usize];
        while (state.pos as usize) >= state.buf.len() {
            let Some(&(minute, count)) = entry.minutes.get(state.next_cell as usize) else {
                // Exhausted: release the buffer.
                state.buf = Vec::new();
                state.pos = 0;
                return;
            };
            state.next_cell += 1;
            state.pos = 0;
            expand_cell(self.model.iat, entry, minute, count, self.seed, &mut state.buf);
        }
        let at_ms = state.buf[state.pos as usize].0;
        self.heap.push(Reverse((at_ms, entry.function_index, idx)));
    }
}

impl ArrivalCursor for LazyCursor<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let Reverse((at_ms, function_index, idx)) = self.heap.pop()?;
        let state = &mut self.states[idx as usize];
        let (_, workload) = state.buf[state.pos as usize];
        state.pos += 1;
        self.refill(idx);
        Some(Arrival { at_ms, workload, function_index })
    }
}

impl ScheduleSource for ArrivalStream<'_> {
    type Cursor<'a>
        = LazyCursor<'a>
    where
        Self: 'a;

    fn duration_minutes(&self) -> usize {
        self.model.duration_minutes
    }

    fn arrivals_hint(&self) -> u64 {
        self.model.total_arrivals()
    }

    fn cursor(&self) -> LazyCursor<'_> {
        LazyCursor::new(self.model, self.seed)
    }
}

/// Drain a schedule source into a materialized, time-ordered request
/// vector.
pub fn materialize<S: ScheduleSource + ?Sized>(source: &S) -> RequestTrace {
    let mut requests = Vec::with_capacity(source.arrivals_hint() as usize);
    let mut cursor = source.cursor();
    while let Some(a) = cursor.next_arrival() {
        requests.push(Request {
            at_ms: a.at_ms,
            workload: a.workload,
            function_index: a.function_index,
        });
    }
    RequestTrace { duration_minutes: source.duration_minutes(), requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecEntry;

    fn spec(iat: IatModel) -> ExperimentSpec {
        ExperimentSpec {
            duration_minutes: 4,
            target_max_rps: 10.0,
            iat,
            entries: vec![
                SpecEntry {
                    function_index: 0,
                    workload: WorkloadId(0),
                    alternates: vec![WorkloadId(5), WorkloadId(6)],
                    trace_duration_ms: 10.0,
                    per_minute: vec![120, 0, 30, 240],
                },
                SpecEntry {
                    function_index: 3,
                    workload: WorkloadId(1),
                    alternates: vec![],
                    trace_duration_ms: 500.0,
                    per_minute: vec![0, 60, 60, 0],
                },
            ],
        }
    }

    fn drain(model: &ScheduleModel, seed: u64) -> Vec<Arrival> {
        let stream = ArrivalStream::new(model, seed);
        let mut out = Vec::new();
        let mut c = stream.cursor();
        while let Some(a) = c.next_arrival() {
            out.push(a);
        }
        out
    }

    #[test]
    fn lazy_stream_is_globally_ordered_and_deterministic() {
        for iat in [
            IatModel::Poisson,
            IatModel::UniformRandom,
            IatModel::Equidistant,
            IatModel::Bursty { cv: 1.0 },
        ] {
            let model = ScheduleModel::from_spec(&spec(iat));
            let a = drain(&model, 9);
            let b = drain(&model, 9);
            assert_eq!(a, b, "{iat:?}");
            assert!(
                a.windows(2).all(|w| (w[0].at_ms, w[0].function_index)
                    <= (w[1].at_ms, w[1].function_index)),
                "{iat:?} out of order"
            );
            let end = 4 * MS_PER_MINUTE;
            assert!(a.iter().all(|x| x.at_ms < end));
        }
    }

    #[test]
    fn deterministic_models_hit_exact_counts() {
        for iat in [IatModel::UniformRandom, IatModel::Equidistant] {
            let s = spec(iat);
            let model = ScheduleModel::from_spec(&s);
            assert_eq!(model.total_arrivals(), s.total_requests());
            assert_eq!(drain(&model, 1).len() as u64, s.total_requests(), "{iat:?}");
        }
    }

    #[test]
    fn materialize_equals_generate_requests() {
        for iat in [IatModel::Poisson, IatModel::UniformRandom, IatModel::Bursty { cv: 1.5 }] {
            let s = spec(iat);
            let model = ScheduleModel::from_spec(&s);
            let lazy = materialize(&ArrivalStream::new(&model, 7));
            let eager = crate::generate_requests(&s, 7);
            assert_eq!(lazy, eager, "{iat:?}");
        }
    }

    #[test]
    fn trace_cursor_matches_vector_order_when_sorted() {
        let s = spec(IatModel::Equidistant);
        let eager = crate::generate_requests(&s, 3);
        let again = materialize(&eager);
        assert_eq!(eager, again);
    }

    #[test]
    fn trace_cursor_sorts_unsorted_traces_stably() {
        let trace = RequestTrace {
            duration_minutes: 1,
            requests: vec![
                Request { at_ms: 500, workload: WorkloadId(1), function_index: 1 },
                Request { at_ms: 0, workload: WorkloadId(2), function_index: 2 },
                Request { at_ms: 500, workload: WorkloadId(3), function_index: 3 },
            ],
        };
        let mut c = trace.cursor();
        let order: Vec<u32> =
            std::iter::from_fn(|| c.next_arrival()).map(|a| a.function_index).collect();
        // Time order, with vector order preserved among equal timestamps.
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn cells_are_independent_of_surrounding_minutes() {
        // Removing another minute from the spec must not change the
        // arrivals of the minutes that remain — per-cell RNG, not a
        // threaded sequence.
        let full = spec(IatModel::Poisson);
        let model = ScheduleModel::from_spec(&full);
        let all = drain(&model, 11);

        let mut clipped = full.clone();
        clipped.entries[0].per_minute = vec![120, 0, 0, 0];
        let clipped_model = ScheduleModel::from_spec(&clipped);
        let clipped_arrivals = drain(&clipped_model, 11);

        let minute0_fn0: Vec<Arrival> = all
            .iter()
            .filter(|a| a.function_index == 0 && a.at_ms < MS_PER_MINUTE)
            .copied()
            .collect();
        let clipped_fn0: Vec<Arrival> =
            clipped_arrivals.iter().filter(|a| a.function_index == 0).copied().collect();
        assert_eq!(minute0_fn0, clipped_fn0);
    }

    #[test]
    fn rotation_cycles_inputs_within_and_across_cells() {
        let s = spec(IatModel::Equidistant);
        let model = ScheduleModel::from_spec(&s);
        let arrivals = drain(&model, 0);
        let used: std::collections::BTreeSet<WorkloadId> =
            arrivals.iter().filter(|a| a.function_index == 0).map(|a| a.workload).collect();
        assert_eq!(used.len(), 3, "all three inputs rotate: {used:?}");
    }

    #[test]
    fn cell_seed_spreads() {
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..50u32 {
            for m in 0..50u32 {
                seen.insert(cell_seed(1, f, m));
            }
        }
        assert_eq!(seen.len(), 2_500, "cell seeds must not collide trivially");
    }

    #[test]
    fn from_spec_drops_empty_minutes_and_entries() {
        let mut s = spec(IatModel::Poisson);
        s.entries[1].per_minute = vec![0, 0, 0, 0];
        let model = ScheduleModel::from_spec(&s);
        assert_eq!(model.entries.len(), 1);
        assert_eq!(model.entries[0].minutes, vec![(0, 120), (2, 30), (3, 240)]);
    }
}
