//! FaaSRail core — the "shrink ray" (HPDC '24).
//!
//! FaaSRail fits real open-source FaaS workloads to production workload
//! traces so that the generated load preserves the traces' critical
//! statistical properties: (i) the distribution of distinct functions'
//! execution durations, (ii) the skewed popularity of functions, (iii) the
//! distribution of all invocations' execution durations, and (iv) the
//! arrival rates of invocations.
//!
//! Pipeline (paper Fig. 2):
//!
//! ```text
//! trace ──► day selection (CV) ──► aggregation ──► mapping ─┐
//!                                                           ▼
//!   Spec mode:    time scaling ► rate scaling ► ExperimentSpec ► requests
//!   Smirnov mode: weighted-ECDF inverse sampling ► mapping ► requests
//! ```
//!
//! Entry points: [`shrinkray::shrink`] (Spec mode) and [`smirnov::generate`]
//! (Smirnov Transform mode); [`request::generate_requests`] expands a spec
//! into a timestamped, replayable request trace.

pub mod aggregate;
pub mod dayselect;
pub mod error;
pub mod evaluate;
pub mod mapping;
pub mod rate_scaling;
pub mod request;
pub mod schedule;
pub mod shrinkray;
pub mod smirnov;
pub mod spec;
pub mod subminute;
pub mod time_scaling;

pub use aggregate::{aggregate, AggregatedFunction, Aggregation, DurationResolution};
pub use error::ShrinkError;
pub use evaluate::{counts_by_kind, evaluate, kind_shares, mapped_wecdf, Representativity};
pub use mapping::{map_functions, BalanceStrategy, FunctionMapping, MappingConfig};
pub use request::{generate_requests, Request, RequestTrace};
pub use schedule::{
    materialize, Arrival, ArrivalCursor, ArrivalStream, ModelEntry, ScheduleModel, ScheduleSource,
};
pub use shrinkray::{check_trace, shrink, ShrinkRayConfig, ShrinkReport};
pub use smirnov::{SmirnovConfig, SmirnovReport};
pub use spec::{ExperimentSpec, IatModel, SpecEntry};
pub use subminute::{fit_iat_model, BurstinessFit};
pub use time_scaling::TimeScaling;
