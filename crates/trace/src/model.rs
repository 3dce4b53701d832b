//! The production-trace data model.
//!
//! Mirrors the information content of the released Azure Functions and
//! Huawei traces that FaaSRail consumes: per-function average warm execution
//! times, per-minute invocation counts over a day, per-day roll-ups across
//! the whole trace window, and per-application memory.

use serde::{Deserialize, Serialize};

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
/// Azure functions are invoked at most once per minute), so the sparse form
/// keeps a full-scale trace in hundreds of MB instead of several GB.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinuteSeries {
    entries: Vec<(u16, u32)>,
}

impl MinuteSeries {
    /// Build from `(minute, count)` entries; zero counts are dropped.
    ///
    /// # Panics
    /// Panics if any minute is out of range, or minutes are not strictly
    /// ascending.
    pub fn new(entries: Vec<(u16, u32)>) -> Self {
        let entries: Vec<(u16, u32)> = entries.into_iter().filter(|&(_, c)| c > 0).collect();
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "minutes must be strictly ascending");
        }
        if let Some(&(m, _)) = entries.last() {
            assert!((m as usize) < MINUTES_PER_DAY, "minute {m} out of range");
        }
        MinuteSeries { entries }
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
        let active = counts.iter().filter(|&&c| c > 0).count();
        // Every cell is written at the cursor and only a non-zero one moves
        // it: on a half-empty day a `c > 0` branch mispredicts every other
        // cell. The spare slot is where the cursor rests after the last one.
        let mut entries = vec![(0u16, 0u32); active + 1];
        let mut at = 0;
        let mut widest = 0u64;
        for (minute, &c) in (first..).zip(counts) {
            entries[at] = (minute as u16, c as u32);
            at += (c > 0) as usize;
            widest |= c;
        }
        u32::try_from(widest).expect("per-minute count fits u32");
        entries.truncate(active);
        MinuteSeries { entries }
    }

    /// The day's total, or `None` if the entries break the type's invariants
    /// (strictly ascending minutes below 1440, positive counts). A series
    /// that was deserialized has not been through [`MinuteSeries::new`].
    pub fn checked_total(&self) -> Option<u64> {
        let mut total = 0u64;
        let mut earliest = 0usize;
        let mut sound = true;
        for &(m, c) in &self.entries {
            sound &= (m as usize >= earliest) & (c > 0);
            earliest = m as usize + 1;
            total += c as u64;
        }
        (sound && earliest <= MINUTES_PER_DAY).then_some(total)
    }

    /// The sparse `(minute, count)` entries.
    pub fn entries(&self) -> &[(u16, u32)] {
        &self.entries
    }

    /// Count at a specific minute.
    pub fn get(&self, minute: u16) -> u32 {
        match self.entries.binary_search_by_key(&minute, |&(m, _)| m) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Total invocations over the day.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c as u64).sum()
    }

    /// Number of minutes with at least one invocation.
    pub fn active_minutes(&self) -> usize {
        self.entries.len()
    }

    /// Expand to a dense 1440-length array.
    pub fn dense(&self) -> Vec<u64> {
        let mut out = vec![0u64; MINUTES_PER_DAY];
        for &(m, c) in &self.entries {
            out[m as usize] = c as u64;
        }
        out
    }

    /// True if the function is never invoked this day.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
            for &(m, c) in f.minutes.entries() {
                out[m as usize] += c as u64;
            }
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
