//! Error type for the shrink-ray pipeline.

use faasrail_trace::ValidationError;
use std::fmt;

/// Errors arising while shrinking a trace into an experiment spec.
#[derive(Debug, Clone, PartialEq)]
pub enum ShrinkError {
    /// The input trace violates a structural invariant.
    Trace(ValidationError),
    /// Invalid configuration (time scaling, rates, thresholds).
    Config(String),
    /// The pipeline produced an inconsistent spec (internal bug guard).
    Spec(String),
    /// The trace has no invocations on the selected day.
    EmptyTrace,
    /// The trace has invocations, but none in the Minute Range window
    /// `[start, end)` the configuration selects.
    EmptyWindow { start: usize, end: usize },
}

impl fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShrinkError::Trace(e) => write!(f, "invalid trace: {e}"),
            ShrinkError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            ShrinkError::Spec(msg) => write!(f, "inconsistent spec produced: {msg}"),
            ShrinkError::EmptyTrace => write!(f, "trace has no invocations on the selected day"),
            ShrinkError::EmptyWindow { start, end } => {
                write!(f, "trace has no invocations in minute range [{start}, {end})")
            }
        }
    }
}

impl std::error::Error for ShrinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShrinkError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidationError> for ShrinkError {
    fn from(e: ValidationError) -> Self {
        ShrinkError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ShrinkError::EmptyTrace.to_string().contains("no invocations"));
        assert!(ShrinkError::Config("bad".into()).to_string().contains("bad"));
        let e = ShrinkError::EmptyWindow { start: 600, end: 630 };
        assert!(e.to_string().contains("minute range [600, 630)"));
        let e = ShrinkError::from(ValidationError::DuplicateFunctionId(3));
        assert!(e.to_string().contains("duplicate"));
    }
}
