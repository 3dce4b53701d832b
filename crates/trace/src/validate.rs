//! Structural invariant checks over a [`Trace`].
//!
//! Traces arrive from three sources (synthetic generators, real CSV files,
//! user code); the shrink ray assumes these invariants, so every entry point
//! can cheaply verify them first.

use crate::model::{Trace, MINUTES_PER_DAY};
use std::collections::HashSet;
use std::fmt;

/// A violated trace invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Two functions share an id.
    DuplicateFunctionId(u32),
    /// A function references an app not present in `trace.apps`.
    DanglingApp { function: u32, app: u32 },
    /// A function's `daily` roll-up length differs from `num_days`.
    DailyLengthMismatch { function: u32, got: usize, want: usize },
    /// The selected day's roll-up disagrees with the materialized minutes.
    SelectedDayInconsistent { function: u32 },
    /// Non-positive or non-finite average duration.
    BadDuration { function: u32, value_ms: f64 },
    /// Non-positive or non-finite app memory.
    BadMemory { app: u32, value_mb: f64 },
    /// `selected_day` out of range.
    SelectedDayOutOfRange { selected: usize, num_days: usize },
    /// A function's minute series is not strictly ascending, names a minute
    /// past the day's end, or holds a zero count (only a deserialized trace
    /// can: [`crate::MinuteSeries::new`] refuses all three).
    BadMinuteSeries { function: u32 },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DuplicateFunctionId(id) => write!(f, "duplicate function id {id}"),
            ValidationError::DanglingApp { function, app } => {
                write!(f, "function {function} references missing app {app}")
            }
            ValidationError::DailyLengthMismatch { function, got, want } => {
                write!(f, "function {function}: {got} daily roll-ups, trace has {want} days")
            }
            ValidationError::SelectedDayInconsistent { function } => {
                write!(f, "function {function}: selected-day roll-up disagrees with minutes")
            }
            ValidationError::BadDuration { function, value_ms } => {
                write!(f, "function {function}: bad duration {value_ms} ms")
            }
            ValidationError::BadMemory { app, value_mb } => {
                write!(f, "app {app}: bad memory {value_mb} MiB")
            }
            ValidationError::SelectedDayOutOfRange { selected, num_days } => {
                write!(f, "selected day {selected} out of range for {num_days} days")
            }
            ValidationError::BadMinuteSeries { function } => write!(
                f,
                "function {function}: minute series must have strictly ascending minutes \
                 below {MINUTES_PER_DAY} and positive counts"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check all invariants, returning the first violation found.
pub fn validate(trace: &Trace) -> Result<(), ValidationError> {
    if trace.selected_day >= trace.num_days {
        return Err(ValidationError::SelectedDayOutOfRange {
            selected: trace.selected_day,
            num_days: trace.num_days,
        });
    }
    for a in &trace.apps {
        if !(a.memory_mb.is_finite() && a.memory_mb > 0.0) {
            return Err(ValidationError::BadMemory { app: a.id.0, value_mb: a.memory_mb });
        }
    }
    let mut seen = HashSet::with_capacity(trace.functions.len());
    for f in &trace.functions {
        if !seen.insert(f.id) {
            return Err(ValidationError::DuplicateFunctionId(f.id.0));
        }
        if trace.app(f.app).is_none() {
            return Err(ValidationError::DanglingApp { function: f.id.0, app: f.app.0 });
        }
        if !(f.avg_duration_ms.is_finite() && f.avg_duration_ms > 0.0) {
            return Err(ValidationError::BadDuration {
                function: f.id.0,
                value_ms: f.avg_duration_ms,
            });
        }
        let Some(total) = f.minutes.checked_total() else {
            return Err(ValidationError::BadMinuteSeries { function: f.id.0 });
        };
        if !f.daily.is_empty() {
            if f.daily.len() != trace.num_days {
                return Err(ValidationError::DailyLengthMismatch {
                    function: f.id.0,
                    got: f.daily.len(),
                    want: trace.num_days,
                });
            }
            let day = &f.daily[trace.selected_day];
            if day.invocations != total || day.avg_duration_ms != f.avg_duration_ms {
                return Err(ValidationError::SelectedDayInconsistent { function: f.id.0 });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::azure::{generate, AzureTraceConfig};
    use crate::huawei;
    use crate::model::{App, AppId, DayStats, FunctionId, MinuteSeries, TraceFunction, TraceKind};

    #[test]
    fn synthetic_traces_validate() {
        let t = generate(&AzureTraceConfig::small(1));
        assert_eq!(validate(&t), Ok(()));
        let h = huawei::generate(&huawei::HuaweiTraceConfig::small(1));
        assert_eq!(validate(&h), Ok(()));
    }

    fn base_trace() -> Trace {
        Trace {
            kind: TraceKind::Custom,
            selected_day: 0,
            num_days: 1,
            functions: vec![TraceFunction {
                id: FunctionId(0),
                app: AppId(0),
                trigger: crate::model::TriggerKind::default(),
                avg_duration_ms: 100.0,
                minutes: MinuteSeries::new(vec![(0, 2)]),
                daily: vec![DayStats { avg_duration_ms: 100.0, invocations: 2 }],
            }],
            apps: vec![App { id: AppId(0), memory_mb: 128.0 }],
        }
    }

    #[test]
    fn base_is_valid() {
        assert_eq!(validate(&base_trace()), Ok(()));
    }

    #[test]
    fn detects_duplicate_ids() {
        let mut t = base_trace();
        let dup = t.functions[0].clone();
        t.functions.push(dup);
        assert_eq!(validate(&t), Err(ValidationError::DuplicateFunctionId(0)));
    }

    #[test]
    fn detects_dangling_app() {
        let mut t = base_trace();
        t.functions[0].app = AppId(9);
        assert!(matches!(validate(&t), Err(ValidationError::DanglingApp { .. })));
    }

    #[test]
    fn detects_day_mismatch() {
        let mut t = base_trace();
        t.functions[0].daily[0].invocations = 99;
        assert!(matches!(validate(&t), Err(ValidationError::SelectedDayInconsistent { .. })));
    }

    #[test]
    fn detects_bad_duration() {
        let mut t = base_trace();
        t.functions[0].avg_duration_ms = 0.0;
        assert!(matches!(validate(&t), Err(ValidationError::BadDuration { .. })));
    }

    #[test]
    fn detects_selected_day_oob() {
        let mut t = base_trace();
        t.selected_day = 5;
        assert!(matches!(validate(&t), Err(ValidationError::SelectedDayOutOfRange { .. })));
    }

    #[test]
    fn detects_bad_minute_series() {
        // Only deserialization can build these; `MinuteSeries::new` panics.
        for entries in ["[[1440,5]]", "[[7,1],[3,1]]", "[[3,1],[3,1]]", "[[3,0]]"] {
            let mut t = base_trace();
            t.functions[0].daily.clear();
            t.functions[0].minutes =
                serde_json::from_str(&format!("{{\"entries\":{entries}}}")).expect("parses");
            assert_eq!(
                validate(&t),
                Err(ValidationError::BadMinuteSeries { function: 0 }),
                "{entries}"
            );
        }
    }

    #[test]
    fn empty_daily_is_allowed() {
        let mut t = base_trace();
        t.functions[0].daily.clear();
        assert_eq!(validate(&t), Ok(()));
    }
}
