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
//!   `(seed, function_index, minute)`. Its [`LazyCursor`] works one
//!   experiment minute at a time: it expands every cell of the minute into
//!   one buffer and sorts that buffer once. Peak memory is
//!   O(functions + one minute's arrivals), independent of total volume.
//!
//! The order of the lazy stream is defined as: expand every cell, entry by
//! entry and minute by minute, then stable-sort all arrivals by
//! `(at_ms, function_index, entry index)`. The cursor yields exactly that
//! sequence without materializing it (the test module holds the definition
//! as its oracle), and [`generate_requests`](crate::generate_requests)
//! materializes by draining an [`ArrivalStream`], so the lazy and
//! materialized paths agree by construction.

use crate::aggregate::{DurationResolution, Group, Grouping};
use crate::error::ShrinkError;
use crate::mapping::{map_each, MappingConfig};
use crate::request::{Request, RequestTrace, MS_PER_MINUTE};
use crate::shrinkray::check_trace;
use crate::spec::{ExperimentSpec, IatModel};
use faasrail_stats::rng::{mix64_pair, Rng, SplitMix64};
use faasrail_stats::sampler::{Exponential, Gamma, Sampler};
use faasrail_trace::Trace;
use faasrail_workloads::{WorkloadId, WorkloadPool};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
///
/// The simulator may open and expand a [`ScheduleSource`]'s cursor on a
/// helper thread and hand its arrivals to the engine in batches, so a
/// cursor must yield the same arrivals on whichever thread it runs.
pub trait ArrivalCursor {
    /// The next arrival, or `None` when the schedule is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// A source of invocation arrivals the simulation engine can replay.
///
/// Two implementations ship: the materialized [`RequestTrace`] (exact
/// requests, O(invocations) memory) and the lazy [`ArrivalStream`]
/// (generated on demand, O(functions) memory).
///
/// A source is `Sync`: the simulator opens its cursor on a helper thread
/// that runs ahead of the engine, so that the cursor's memory is allocated
/// and freed by the thread that uses it. Both shipped sources are read-only
/// once built.
pub trait ScheduleSource: Sync {
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
        check_trace(trace)?;
        let resolution = DurationResolution::for_trace(trace);
        // The grouping walk alone: no group's series is read.
        let mut group_of = Vec::with_capacity(trace.functions.len());
        let groups = Grouping::new(trace, resolution).walk(trace, |g, _| group_of.push(g));
        let mapping = map_each(groups.iter().map(Group::mapping_input), pool, mapping_cfg);

        let entries = trace
            .functions
            .iter()
            .zip(group_of)
            .enumerate()
            .filter(|(_, (f, _))| !f.minutes.is_empty())
            .map(|(i, (f, g))| ModelEntry {
                function_index: i as u32,
                workload: mapping
                    .workload_for(g as u32)
                    .expect("every aggregated function is mapped"),
                alternates: Vec::new(),
                minutes: f.minutes.entries().iter().map(|&(m, c)| (m as u32, c as u64)).collect(),
            })
            .collect();
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
/// seed. Opening a cursor costs O(functions); iterating costs one calendar
/// operation per cell and one sort per minute, with O(functions + one
/// minute of arrivals) peak memory.
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

/// One expanded arrival awaiting emission. The derived order is the
/// stream's order: time, then function, then entry, then draw position
/// (unique within a batch, so the order is total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    at_ms: u64,
    function_index: u32,
    entry: u32,
    draw: u32,
    workload: WorkloadId,
}

/// How many minutes from the last one taken the [`Calendar`] files in its
/// ring; later minutes go to its ordered map.
const RING_MINUTES: u32 = 256;

/// `(entry, cell)` pairs filed under the minute of that cell.
///
/// Minutes within [`RING_MINUTES`] of the last one taken sit in a ring of
/// slots, the rest in an ordered map; a minute may have entries in both.
/// Most entries' next cell is a few minutes away, so filing one is usually
/// a push. Minutes are taken in ascending order and never filed behind the
/// last one taken.
struct Calendar {
    /// The minute last taken (0 before the first): ring slot
    /// `m % RING_MINUTES` holds minute `m` for `m` in
    /// `now..now + RING_MINUTES`.
    now: u32,
    ring: Vec<Vec<(u32, u32)>>,
    in_ring: usize,
    far: BTreeMap<u32, Vec<(u32, u32)>>,
    /// The earliest minute filed.
    head: Option<u32>,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            now: 0,
            ring: vec![Vec::new(); RING_MINUTES as usize],
            in_ring: 0,
            far: BTreeMap::new(),
            head: None,
        }
    }

    fn file(&mut self, minute: u32, item: (u32, u32)) {
        debug_assert!(minute >= self.now, "minute {minute} filed behind {}", self.now);
        if minute - self.now < RING_MINUTES {
            self.ring[(minute % RING_MINUTES) as usize].push(item);
            self.in_ring += 1;
        } else {
            self.far.entry(minute).or_default().push(item);
        }
        self.head = Some(self.head.map_or(minute, |head| head.min(minute)));
    }

    /// Move the earliest minute's pairs into `due` (emptied first) and
    /// return that minute.
    fn take(&mut self, due: &mut Vec<(u32, u32)>) -> Option<u32> {
        let minute = self.head?;
        due.clear();
        let slot = &mut self.ring[(minute % RING_MINUTES) as usize];
        self.in_ring -= slot.len();
        std::mem::swap(due, slot);
        if self.far.first_key_value().is_some_and(|(&m, _)| m == minute) {
            due.append(&mut self.far.pop_first().expect("just looked").1);
        }
        self.now = minute;
        // The next head: the first occupied ring slot before the map's
        // first minute, else that minute.
        let far_first = self.far.first_key_value().map(|(&m, _)| m);
        let ring_end = self.now as u64 + RING_MINUTES as u64;
        let end = far_first.map_or(ring_end, |m| ring_end.min(m as u64));
        self.head = far_first;
        if self.in_ring > 0 {
            let ring = &self.ring;
            let found = (self.now as u64 + 1..end)
                .find(|&m| !ring[(m % RING_MINUTES as u64) as usize].is_empty());
            if let Some(m) = found {
                self.head = Some(m as u32);
            }
        }
        Some(minute)
    }
}

/// Cursor over an [`ArrivalStream`], one experiment minute at a time.
///
/// Entries wait in a [`Calendar`] under the minute of their next cell. To
/// advance, the cursor takes the earliest minute off the calendar, expands
/// each of its cells with [`expand_cell`] into one batch, files each entry
/// under its following minute, and sorts the batch once. Everything before
/// the start of the calendar's next minute is then final: later cells draw
/// at or after their own minute's start. What is left — a Bursty draw that
/// rounds up to the next minute's first millisecond — is carried into the
/// next batch, ahead of that minute's draws. The calendar costs a push per
/// cell (a map operation for a cell more than [`RING_MINUTES`] ahead), the
/// sort O(log n) per arrival.
///
/// # Panics
/// When an entry's minutes do not strictly ascend: its arrivals would go
/// back in time.
pub struct LazyCursor<'m> {
    model: &'m ScheduleModel,
    seed: u64,
    calendar: Calendar,
    /// The `(entry, cell)` pairs of the minute being expanded.
    due: Vec<(u32, u32)>,
    /// The current batch, sorted; `batch[pos..ready]` may be emitted.
    batch: Vec<Pending>,
    pos: usize,
    ready: usize,
    /// One cell's expansion.
    cell: Vec<(u64, WorkloadId)>,
}

impl<'m> LazyCursor<'m> {
    fn new(model: &'m ScheduleModel, seed: u64) -> Self {
        let mut calendar = Calendar::new();
        for (idx, entry) in model.entries.iter().enumerate() {
            if let Some(&(minute, _)) = entry.minutes.first() {
                calendar.file(minute, (idx as u32, 0));
            }
        }
        LazyCursor {
            model,
            seed,
            calendar,
            due: Vec::new(),
            batch: Vec::new(),
            pos: 0,
            ready: 0,
            cell: Vec::new(),
        }
    }

    /// Expand the calendar's earliest minute into the batch. `false` when
    /// nothing is left to emit.
    fn advance(&mut self) -> bool {
        // Carried arrivals keep their order and go ahead of the new draws.
        self.batch.drain(..self.pos);
        for (draw, p) in self.batch.iter_mut().enumerate() {
            p.draw = draw as u32;
        }
        self.pos = 0;
        let Some(minute) = self.calendar.take(&mut self.due) else {
            self.ready = self.batch.len();
            return self.ready > 0;
        };
        let model = self.model;
        for &(idx, cell) in &self.due {
            let entry = &model.entries[idx as usize];
            let count = entry.minutes[cell as usize].1;
            expand_cell(model.iat, entry, minute, count, self.seed, &mut self.cell);
            let (first, function_index) = (self.batch.len() as u32, entry.function_index);
            self.batch.extend(self.cell.iter().zip(first..).map(|(&(at_ms, workload), draw)| {
                Pending { at_ms, function_index, entry: idx, draw, workload }
            }));
            if let Some(&(next, _)) = entry.minutes.get(cell as usize + 1) {
                assert!(
                    next > minute,
                    "schedule entry {idx} (function {}): minute {next} follows minute {minute}; \
                     an entry's minutes must strictly ascend",
                    entry.function_index
                );
                self.calendar.file(next, (idx, cell + 1));
            }
        }
        self.batch.sort_unstable();
        let horizon = self.calendar.head.map_or(u64::MAX, |next| next as u64 * MS_PER_MINUTE);
        self.ready = self.batch.partition_point(|p| p.at_ms < horizon);
        true
    }
}

impl ArrivalCursor for LazyCursor<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        while self.pos == self.ready {
            if !self.advance() {
                return None;
            }
        }
        let p = self.batch[self.pos];
        self.pos += 1;
        Some(Arrival { at_ms: p.at_ms, workload: p.workload, function_index: p.function_index })
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
    use faasrail_stats::rng::cases;

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

    /// The stream's order by definition: every cell expanded, entry by entry
    /// and minute by minute, then one stable sort by
    /// `(at_ms, function_index, entry index)`.
    fn oracle(model: &ScheduleModel, seed: u64) -> Vec<Arrival> {
        let (mut all, mut cell) = (Vec::new(), Vec::new());
        for (idx, entry) in model.entries.iter().enumerate() {
            for &(minute, count) in &entry.minutes {
                expand_cell(model.iat, entry, minute, count, seed, &mut cell);
                let function_index = entry.function_index;
                all.extend(
                    cell.iter().map(|&(at_ms, workload)| {
                        (idx, Arrival { at_ms, workload, function_index })
                    }),
                );
            }
        }
        all.sort_by_key(|&(idx, a)| (a.at_ms, a.function_index, idx));
        all.into_iter().map(|(_, a)| a).collect()
    }

    fn arb_model(rng: &mut impl Rng) -> (ScheduleModel, u64) {
        let iats = [
            IatModel::Poisson,
            IatModel::UniformRandom,
            IatModel::Equidistant,
            IatModel::Bursty { cv: 0.0 },
            IatModel::Bursty { cv: 1.5 },
        ];
        let entries = (0..rng.range(1..40usize))
            .map(|_| {
                // Function indices repeat across entries, so the entry index
                // breaks ties too.
                let function_index = rng.range(0..6);
                let workload = WorkloadId(rng.range(0..4));
                let alternates =
                    (0..rng.range(0..3usize)).map(|_| WorkloadId(rng.range(4..8))).collect();
                // Dense: many entries in the same few minutes, ties included.
                // Sparse: silent gaps, single cells, minutes past the duration.
                let (minute_span, counts, len) =
                    if rng.below(2) == 0 { (4, 1..200, 1..4usize) } else { (300, 1..6, 1..5usize) };
                let mut minutes = BTreeMap::new();
                let n = rng.range(len);
                while minutes.len() < n {
                    minutes.insert(rng.range(0..minute_span), rng.range(counts.clone()));
                }
                ModelEntry {
                    function_index,
                    workload,
                    alternates,
                    minutes: minutes.into_iter().collect(),
                }
            })
            .collect();
        let iat = iats[rng.range(0..iats.len())];
        (ScheduleModel { duration_minutes: rng.range(1..5), iat, entries }, rng.next_u64())
    }

    #[test]
    fn cursor_yields_the_defined_order() {
        cases("cursor_yields_the_defined_order", 64, |rng| {
            let (model, seed) = arb_model(rng);
            let got = drain(&model, seed);
            let want = oracle(&model, seed);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "arrival {} of {:?}", i, model.iat);
            }
        });
    }

    #[test]
    fn calendar_takes_minutes_in_order_from_ring_and_map_alike() {
        let mut cal = Calendar::new();
        cal.file(100, (0, 0));
        cal.file(300, (1, 0)); // past the ring: the map
        cal.file(0, (2, 0));
        let mut due = Vec::new();
        assert_eq!(cal.take(&mut due), Some(0));
        assert_eq!(due, vec![(2, 0)]);
        assert_eq!(cal.take(&mut due), Some(100));
        assert_eq!(cal.in_ring, 0);
        cal.file(300, (0, 1)); // within the ring now: minute 300 is in both
        assert_eq!(cal.in_ring, 1);
        cal.file(5_000_000, (2, 1));
        assert_eq!(cal.take(&mut due), Some(300));
        due.sort_unstable();
        assert_eq!(due, vec![(0, 1), (1, 0)]);
        assert_eq!(cal.take(&mut due), Some(5_000_000));
        assert_eq!(due, vec![(2, 1)]);
        assert_eq!(cal.take(&mut due), None);
    }

    #[test]
    fn a_draw_carried_to_the_next_minute_merges_by_function_and_draw_order() {
        // Entry 0 (function 5) draws once at 30 000 ms in minute 0, then from
        // 60 000 ms on, one per ms. Three draws of minute 0 that rounded up
        // to 60 000 ms sit in the first batch: functions 9 and 2, and entry 0
        // itself. They must wait for minute 1 and merge into it.
        let model = ScheduleModel {
            duration_minutes: 2,
            iat: IatModel::Equidistant,
            entries: vec![ModelEntry {
                function_index: 5,
                workload: WorkloadId(0),
                alternates: vec![],
                minutes: vec![(0, 1), (1, 60_000)],
            }],
        };
        let stream = ArrivalStream::new(&model, 1);
        let mut c = stream.cursor();
        let carried = |function_index, entry, draw, workload| Pending {
            at_ms: MS_PER_MINUTE,
            function_index,
            entry,
            draw,
            workload: WorkloadId(workload),
        };
        c.batch = vec![carried(9, 1, 0, 90), carried(5, 0, 1, 50), carried(2, 2, 2, 20)];
        let head: Vec<(u64, u32, u32)> = (0..6)
            .map(|_| c.next_arrival().unwrap())
            .map(|a| (a.at_ms, a.function_index, a.workload.0))
            .collect();
        assert_eq!(
            head,
            vec![
                (30_000, 5, 0),
                (60_000, 2, 20),
                (60_000, 5, 50),
                (60_000, 5, 0),
                (60_000, 9, 90),
                (60_001, 5, 0)
            ]
        );
        assert_eq!(std::iter::from_fn(|| c.next_arrival()).count(), 3 + 60_001 - 6);
    }

    #[test]
    #[should_panic(expected = "schedule entry 1 (function 3): minute 2 follows minute 4")]
    fn an_entry_whose_minutes_go_back_is_refused() {
        let mut model = ScheduleModel::from_spec(&spec(IatModel::Equidistant));
        model.entries[1].minutes = vec![(1, 60), (4, 60), (2, 60)];
        drain(&model, 0);
    }

    #[test]
    #[should_panic(expected = "minute 1 follows minute 1")]
    fn an_entry_with_a_repeated_minute_is_refused() {
        let mut model = ScheduleModel::from_spec(&spec(IatModel::Poisson));
        model.entries[0].minutes = vec![(0, 60), (1, 60), (1, 60)];
        drain(&model, 0);
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
