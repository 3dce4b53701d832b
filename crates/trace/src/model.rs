//! The production-trace data model.
//!
//! Mirrors the information content of the released Azure Functions and
//! Huawei traces that FaaSRail consumes: per-function average warm execution
//! times, per-minute invocation counts over a day, per-day roll-ups across
//! the whole trace window, and per-application memory.

use serde::json::{Error, Parser};
use serde::{Deserialize, Serialize};
use std::iter::{Copied, Zip};
use std::slice;

/// Minutes in a trace day (both released traces report 1440-minute days).
pub const MINUTES_PER_DAY: usize = 1440;

/// Identifier of a function within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

/// Identifier of an application (group of functions sharing memory accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppId(pub u32);

/// What fires a function — the Azure trace's `Trigger` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TriggerKind {
    /// HTTP request (the most common trigger).
    #[default]
    Http,
    /// Cron/timer schedule.
    Timer,
    /// Queue message.
    Queue,
    /// Pub/sub or platform event.
    Event,
    /// Blob/storage change.
    Storage,
    /// Everything else ("others" in the released trace).
    Others,
}

impl TriggerKind {
    /// Parse the released trace's trigger strings (lenient).
    pub fn parse(s: &str) -> TriggerKind {
        match s.trim().to_ascii_lowercase().as_str() {
            "http" => TriggerKind::Http,
            "timer" => TriggerKind::Timer,
            "queue" => TriggerKind::Queue,
            "event" => TriggerKind::Event,
            "storage" => TriggerKind::Storage,
            _ => TriggerKind::Others,
        }
    }

    /// The trace-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::Http => "http",
            TriggerKind::Timer => "timer",
            TriggerKind::Queue => "queue",
            TriggerKind::Event => "event",
            TriggerKind::Storage => "storage",
            TriggerKind::Others => "others",
        }
    }
}

/// Sparse per-minute invocation counts for one function over one day.
///
/// Entries are `(minute, count)` with `minute < 1440`, strictly ascending,
/// and `count > 0`. Most trace functions are idle most minutes (90 % of
/// Azure functions are invoked at most once per minute), so the day is kept
/// sparse, and its minutes and counts sit side by side without padding.
/// Most series are also small everywhere, so each settles its counts' width
/// once, when it is built: a byte a count while its widest count fits one,
/// a `u32` a count otherwise. An entry takes 3 bytes in a narrow series and
/// 6 in a wide one, where a `(u16, u32)` pair takes 8. The
/// `shrink_spec_azure` benchmark's day (seed 42) has 5 015 081 entries,
/// 4 867 463 of them in narrow series: 14.8 MiB in this layout, 28.7 MiB
/// at 6 bytes an entry, 38.3 MiB as pairs.
///
/// Every constructor settles the day's total, the counts' width and whether
/// the entries keep the invariants above, so [`total`](Self::total) and
/// [`checked_total`](Self::checked_total) cost nothing and two series with
/// the same entries are equal. [`new`](Self::new) and
/// [`from_dense_window`](Self::from_dense_window) refuse what breaks the
/// invariants; deserialization keeps it and records the verdict, which
/// [`crate::validate`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinuteSeries {
    /// The entries' minutes.
    minutes: Box<[u16]>,
    /// The entries' counts, one per minute in `minutes`.
    counts: Counts,
    /// The sum of `counts`.
    total: u64,
    /// Whether the entries keep the type's invariants.
    sound: bool,
}

/// A series' counts at the one width its widest count needs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Counts {
    /// Every count is at most 255.
    Narrow(Box<[u8]>),
    /// Some count is above 255.
    Wide(Box<[u32]>),
}

impl Counts {
    /// The narrowest width that holds `counts`.
    fn fit(counts: Vec<u32>) -> Counts {
        if counts.iter().fold(0, |widest, &c| widest | c) <= u8::MAX as u32 {
            Counts::Narrow(counts.into_iter().map(|c| c as u8).collect())
        } else {
            Counts::Wide(counts.into_boxed_slice())
        }
    }
}

impl MinuteSeries {
    /// Build from `(minute, count)` entries; zero counts are dropped.
    ///
    /// # Panics
    /// Panics if any minute is out of range, or minutes are not strictly
    /// ascending.
    pub fn new(entries: Vec<(u16, u32)>) -> Self {
        let (minutes, counts): (Vec<u16>, Vec<u32>) =
            entries.into_iter().filter(|&(_, c)| c > 0).unzip();
        for w in minutes.windows(2) {
            assert!(w[0] < w[1], "minutes must be strictly ascending");
        }
        if let Some(&m) = minutes.last() {
            assert!((m as usize) < MINUTES_PER_DAY, "minute {m} out of range");
        }
        Self::settle(minutes, Counts::fit(counts))
    }

    /// Build from a dense 1440-length (or shorter) count array.
    pub fn from_dense(counts: &[u64]) -> Self {
        Self::from_dense_window(0, counts)
    }

    /// Build from a dense window of the day: `counts[i]` is the count at
    /// minute `first + i`.
    ///
    /// # Panics
    /// Panics if the window ends past the day or a count exceeds `u32`.
    pub fn from_dense_window(first: usize, counts: &[u64]) -> Self {
        assert!(first + counts.len() <= MINUTES_PER_DAY, "more than {MINUTES_PER_DAY} minutes");
        // One pass counts the active minutes and ORs every count: the OR
        // fits a width exactly when every count does.
        let (active, widest) = counts
            .iter()
            .fold((0, 0u64), |(active, widest), &c| (active + (c > 0) as usize, widest | c));
        u32::try_from(widest).expect("per-minute count fits u32");
        let (minutes, counts) = if widest <= u8::MAX as u64 {
            let (minutes, sparse) = compact(first, counts, active, |c| c as u8);
            (minutes, Counts::Narrow(sparse.into_boxed_slice()))
        } else {
            let (minutes, sparse) = compact(first, counts, active, |c| c as u32);
            (minutes, Counts::Wide(sparse.into_boxed_slice()))
        };
        Self::settle(minutes, counts)
    }

    /// The one place a series is assembled: its total and its verdict are
    /// taken here, from the entries it will hold.
    fn settle(minutes: Vec<u16>, counts: Counts) -> Self {
        /// The counts' sum, and whether every count is positive.
        fn sum_positive<T: Copy + Into<u64>>(counts: &[T]) -> (u64, bool) {
            let total = counts.iter().map(|&c| c.into()).sum();
            (total, counts.iter().fold(true, |ok, &c| ok & (c.into() > 0)))
        }
        let ascending = minutes.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
        let in_day = minutes.last().is_none_or(|&m| (m as usize) < MINUTES_PER_DAY);
        let ((total, positive), len) = match &counts {
            Counts::Narrow(c) => (sum_positive(c), c.len()),
            Counts::Wide(c) => (sum_positive(c), c.len()),
        };
        debug_assert_eq!(minutes.len(), len);
        MinuteSeries {
            total,
            sound: ascending & in_day & positive,
            minutes: minutes.into_boxed_slice(),
            counts,
        }
    }

    /// The day's total, or `None` if the entries break the type's invariants
    /// (strictly ascending minutes below 1440, positive counts), as only a
    /// deserialized series can.
    pub fn checked_total(&self) -> Option<u64> {
        self.sound.then_some(self.total)
    }

    /// The sparse `(minute, count)` entries, in the order they were given.
    ///
    /// The iterator branches on the counts' width at every `next`, and once
    /// per walk in `fold` and `for_each`: a walk over a whole series should
    /// use those.
    pub fn entries(
        &self,
    ) -> impl ExactSizeIterator<Item = (u16, u32)> + DoubleEndedIterator + Clone + '_ {
        let minutes = self.minutes.iter().copied();
        match &self.counts {
            Counts::Narrow(c) => Entries::Narrow(minutes.zip(c.iter().copied())),
            Counts::Wide(c) => Entries::Wide(minutes.zip(c.iter().copied())),
        }
    }

    /// Count at a specific minute.
    pub fn get(&self, minute: u16) -> u32 {
        match (self.minutes.binary_search(&minute), &self.counts) {
            (Ok(i), Counts::Narrow(c)) => c[i] as u32,
            (Ok(i), Counts::Wide(c)) => c[i],
            (Err(_), _) => 0,
        }
    }

    /// Total invocations over the day.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of minutes with at least one invocation.
    pub fn active_minutes(&self) -> usize {
        self.minutes.len()
    }

    /// Expand to a dense 1440-length array.
    pub fn dense(&self) -> Vec<u64> {
        let mut out = vec![0u64; MINUTES_PER_DAY];
        self.entries().for_each(|(m, c)| out[m as usize] = c as u64);
        out
    }

    /// True if the function is never invoked this day.
    pub fn is_empty(&self) -> bool {
        self.minutes.is_empty()
    }
}

impl Default for MinuteSeries {
    fn default() -> Self {
        Self::settle(Vec::new(), Counts::Narrow(Box::default()))
    }
}

/// The window's `active` non-zero counts at width `T`, with their minutes.
fn compact<T: Copy + Default>(
    first: usize,
    counts: &[u64],
    active: usize,
    narrow: impl Fn(u64) -> T,
) -> (Vec<u16>, Vec<T>) {
    // Every cell is written at the cursor and only a non-zero one moves
    // it: on a half-empty day a `c > 0` branch mispredicts every other
    // cell. The spare slot is where the cursor rests after the last one.
    let mut minutes = vec![0u16; active + 1];
    let mut sparse = vec![T::default(); active + 1];
    let mut at = 0;
    for (minute, &c) in (first..).zip(counts) {
        minutes[at] = minute as u16;
        sparse[at] = narrow(c);
        at += (c > 0) as usize;
    }
    minutes.truncate(active);
    sparse.truncate(active);
    (minutes, sparse)
}

/// Minutes zipped with counts of one width.
type Zipped<'a, T> = Zip<Copied<slice::Iter<'a, u16>>, Copied<slice::Iter<'a, T>>>;

/// [`MinuteSeries::entries`]: the zip of the width the series holds.
#[derive(Clone)]
enum Entries<'a> {
    Narrow(Zipped<'a, u8>),
    Wide(Zipped<'a, u32>),
}

impl Iterator for Entries<'_> {
    type Item = (u16, u32);

    #[inline]
    fn next(&mut self) -> Option<(u16, u32)> {
        match self {
            Entries::Narrow(it) => it.next().map(|(m, c)| (m, c as u32)),
            Entries::Wide(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Entries::Narrow(it) => it.size_hint(),
            Entries::Wide(it) => it.size_hint(),
        }
    }

    /// One branch on the width, then the walk over that width alone.
    #[inline]
    fn fold<B, F: FnMut(B, (u16, u32)) -> B>(self, init: B, mut f: F) -> B {
        match self {
            Entries::Narrow(it) => it.fold(init, |acc, (m, c)| f(acc, (m, c as u32))),
            Entries::Wide(it) => it.fold(init, f),
        }
    }
}

impl DoubleEndedIterator for Entries<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<(u16, u32)> {
        match self {
            Entries::Narrow(it) => it.next_back().map(|(m, c)| (m, c as u32)),
            Entries::Wide(it) => it.next_back(),
        }
    }

    #[inline]
    fn rfold<B, F: FnMut(B, (u16, u32)) -> B>(self, init: B, mut f: F) -> B {
        match self {
            Entries::Narrow(it) => it.rfold(init, |acc, (m, c)| f(acc, (m, c as u32))),
            Entries::Wide(it) => it.rfold(init, f),
        }
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// `{"entries":[[minute,count],…]}`, the layout of a struct holding the
/// entries as a `Vec<(u16, u32)>`.
impl Serialize for MinuteSeries {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"entries\":[");
        for (i, entry) in self.entries().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            entry.serialize_json(out);
        }
        out.extend_from_slice(b"]}");
    }
}

/// Reads what [`Serialize`] writes as a derived struct reader would: other
/// keys are skipped, the last of repeated `entries` wins, a missing one is an
/// error. Entries that break the invariants are kept, and the verdict says so.
impl Deserialize for MinuteSeries {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut read = None;
        let mut object = p.begin_object()?;
        while let Some(key) = p.next_key(&mut object)? {
            if key != "entries" {
                p.skip_value()?;
                continue;
            }
            let (mut minutes, mut counts) = (Vec::new(), Vec::new());
            let mut seq = p.begin_array()?;
            while p.next_element(&mut seq)? {
                let (m, c) = <(u16, u32)>::deserialize_json(p)?;
                minutes.push(m);
                counts.push(c);
            }
            read = Some((minutes, counts));
        }
        let (minutes, counts) = read.ok_or_else(|| Error::missing_field("entries"))?;
        Ok(Self::settle(minutes, Counts::fit(counts)))
    }
}

/// Per-day roll-up for one function (used by the CV analysis, paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DayStats {
    /// Average warm execution time that day, in milliseconds.
    pub avg_duration_ms: f64,
    /// Total invocations that day.
    pub invocations: u64,
}

/// One trace function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFunction {
    pub id: FunctionId,
    pub app: AppId,
    /// What fires this function (defaults to HTTP when not reported).
    #[serde(default)]
    pub trigger: TriggerKind,
    /// Average warm execution time on the *selected* day, in milliseconds.
    pub avg_duration_ms: f64,
    /// Per-minute invocations on the selected day.
    pub minutes: MinuteSeries,
    /// Roll-ups for every day of the trace window (index 0 = day 1).
    pub daily: Vec<DayStats>,
}

impl TraceFunction {
    /// Total invocations on the selected day.
    pub fn total_invocations(&self) -> u64 {
        self.minutes.total()
    }
}

/// One application: a group of functions with joint memory accounting,
/// matching how the Azure trace reports allocated memory per app.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct App {
    pub id: AppId,
    /// Average allocated memory, MiB.
    pub memory_mb: f64,
}

/// Which production platform a trace models — determines sensible defaults
/// (e.g. the duration-aggregation resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Azure Functions 2019-style trace.
    Azure,
    /// Huawei private (internal) trace.
    HuaweiPrivate,
    /// Loaded from user-provided files or custom-generated.
    Custom,
}

/// A full trace: functions, apps, and window metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub kind: TraceKind,
    /// Which day (0-based) of the window `TraceFunction::minutes` refers to.
    pub selected_day: usize,
    /// Number of days in the trace window.
    pub num_days: usize,
    pub functions: Vec<TraceFunction>,
    pub apps: Vec<App>,
}

impl Trace {
    /// Total invocations on the selected day across all functions.
    pub fn total_invocations(&self) -> u64 {
        self.functions.iter().map(|f| f.total_invocations()).sum()
    }

    /// Aggregate per-minute invocation counts across all functions
    /// (the "load over time" series of paper Figs. 1d and 8).
    pub fn aggregate_minutes(&self) -> Vec<u64> {
        let mut out = vec![0u64; MINUTES_PER_DAY];
        for f in &self.functions {
            f.minutes.entries().for_each(|(m, c)| out[m as usize] += c as u64);
        }
        out
    }

    /// Look up an app by id (apps are stored sorted by id).
    pub fn app(&self, id: AppId) -> Option<&App> {
        self.apps.binary_search_by_key(&id, |a| a.id).ok().map(|i| &self.apps[i])
    }

    /// Functions with at least one invocation on the selected day.
    pub fn active_functions(&self) -> impl Iterator<Item = &TraceFunction> {
        self.functions.iter().filter(|f| !f.minutes.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_parse_roundtrip() {
        for t in [
            TriggerKind::Http,
            TriggerKind::Timer,
            TriggerKind::Queue,
            TriggerKind::Event,
            TriggerKind::Storage,
            TriggerKind::Others,
        ] {
            assert_eq!(TriggerKind::parse(t.name()), t);
        }
        assert_eq!(TriggerKind::parse("HTTP"), TriggerKind::Http);
        assert_eq!(TriggerKind::parse("orchestration"), TriggerKind::Others);
        assert_eq!(TriggerKind::default(), TriggerKind::Http);
    }

    #[test]
    fn minute_series_sparse_roundtrip() {
        let mut dense = vec![0u64; MINUTES_PER_DAY];
        dense[0] = 5;
        dense[100] = 1;
        dense[1439] = 42;
        let s = MinuteSeries::from_dense(&dense);
        assert_eq!(s.active_minutes(), 3);
        assert_eq!(s.total(), 48);
        assert_eq!(s.get(100), 1);
        assert_eq!(s.get(101), 0);
        assert_eq!(s.dense(), dense);
    }

    #[test]
    fn minute_series_from_a_window_of_the_day() {
        let s = MinuteSeries::from_dense_window(1436, &[0, 3, 0, 7]);
        assert_eq!(s, MinuteSeries::new(vec![(1437, 3), (1439, 7)]));
        assert_eq!(s.checked_total(), Some(10));
        assert!(MinuteSeries::from_dense_window(1440, &[]).is_empty());
        assert!(MinuteSeries::from_dense_window(7, &[0, 0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "more than 1440 minutes")]
    fn minute_series_window_must_end_within_the_day() {
        MinuteSeries::from_dense_window(1438, &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "per-minute count fits u32")]
    fn minute_series_rejects_counts_past_u32() {
        MinuteSeries::from_dense(&[1, u32::MAX as u64 + 1, 0]);
    }

    #[test]
    fn a_narrow_series_holds_a_byte_a_count() {
        let bytes = |s: &MinuteSeries| match &s.counts {
            Counts::Narrow(c) => std::mem::size_of_val(&**c),
            Counts::Wide(c) => std::mem::size_of_val(&**c),
        };
        let narrow = MinuteSeries::from_dense(&[255, 0, 1, 7]);
        assert!(matches!(narrow.counts, Counts::Narrow(_)));
        assert_eq!(bytes(&narrow), 3);
        assert_eq!(narrow, MinuteSeries::new(vec![(0, 255), (2, 1), (3, 7)]));
        let wide = MinuteSeries::from_dense(&[255, 0, 256]);
        assert!(matches!(wide.counts, Counts::Wide(_)));
        assert_eq!(bytes(&wide), 8);
        assert_eq!(wide, MinuteSeries::new(vec![(0, 255), (2, 256)]));
        assert!(matches!(MinuteSeries::default().counts, Counts::Narrow(_)));
    }

    #[test]
    fn minute_series_drops_zeros() {
        let s = MinuteSeries::new(vec![(1, 0), (2, 3)]);
        assert_eq!(s.active_minutes(), 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    #[should_panic]
    fn minute_series_rejects_unsorted() {
        MinuteSeries::new(vec![(5, 1), (2, 1)]);
    }

    #[test]
    #[should_panic]
    fn minute_series_rejects_out_of_range() {
        MinuteSeries::new(vec![(1440, 1)]);
    }

    #[test]
    fn trace_aggregate_minutes() {
        let f = |id: u32, minute: u16, count: u32| TraceFunction {
            id: FunctionId(id),
            app: AppId(0),
            trigger: TriggerKind::default(),
            avg_duration_ms: 100.0,
            minutes: MinuteSeries::new(vec![(minute, count)]),
            daily: vec![],
        };
        let t = Trace {
            kind: TraceKind::Custom,
            selected_day: 0,
            num_days: 1,
            functions: vec![f(0, 10, 5), f(1, 10, 2), f(2, 20, 1)],
            apps: vec![App { id: AppId(0), memory_mb: 128.0 }],
        };
        let agg = t.aggregate_minutes();
        assert_eq!(agg[10], 7);
        assert_eq!(agg[20], 1);
        assert_eq!(t.total_invocations(), 8);
        assert_eq!(t.app(AppId(0)).unwrap().memory_mb, 128.0);
        assert!(t.app(AppId(9)).is_none());
    }
}
