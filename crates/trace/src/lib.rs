//! Production FaaS trace substrate for FaaSRail.
//!
//! The FaaSRail methodology consumes production workload traces — Azure
//! Functions 2019 and the Huawei private trace. Those datasets cannot ship
//! with this repository, so this crate provides:
//!
//! * a [`model::Trace`] data model mirroring the information the released
//!   traces expose (per-function average warm execution time, per-minute
//!   invocation counts, per-day roll-ups, per-app memory);
//! * seeded synthetic generators ([`azure`], [`huawei`]) that reproduce the
//!   published statistical profiles of both traces — every marginal the
//!   FaaSRail pipeline and evaluation depend on;
//! * a loader ([`loader`]) for the *real* Azure CSV schema (single- and
//!   multi-day), so users holding the actual dataset can run the identical
//!   pipeline on it, and a writer ([`writer`]) exporting any trace back to
//!   that schema for interop with other Azure-schema tools;
//! * summaries ([`summarize`]) and invariant checks ([`validate`]).

pub mod azure;
pub mod huawei;
pub mod loader;
pub mod model;
pub mod scale;
pub mod summarize;
pub mod synth;
pub mod validate;
pub mod writer;

pub use model::{
    App, AppId, DayStats, FunctionId, MinuteSeries, Trace, TraceFunction, TraceKind,
    MINUTES_PER_DAY,
};
pub use scale::Scale;
pub use validate::{validate, ValidationError};
