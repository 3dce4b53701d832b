//! FaaSRail's online load generator.
//!
//! The offline shrink ray emits experiment specifications; this crate
//! replays them (expanded to request traces) against a backend FaaS system
//! in real time. Design points, mirroring the paper's "high-performant,
//! versatile load generator":
//!
//! * **open-loop** dispatch — the schedule never waits for the backend, so
//!   overload manifests as queueing latency rather than a silently reduced
//!   request rate;
//! * hybrid sleep/yield pacing with recorded dispatch lateness, so pacing
//!   accuracy is itself a measured quantity;
//! * pluggable [`backend::Backend`]; the in-process backend executes the
//!   actual workload kernels, and `faasrail-faas-sim` provides a simulated
//!   cluster;
//! * time compression for replaying long traces in shorter wall-clock runs.

pub mod backend;
pub mod metrics;
pub mod replay;
pub mod shard;
pub mod synth;

pub use backend::{
    Backend, InProcessBackend, InvocationRequest, InvocationResult, NoopBackend, OutcomeClass,
};
pub use metrics::RunMetrics;
pub use replay::{
    replay, replay_observed, replay_resumed, PaceGauge, Pacing, ReplayConfig, ReplayInstruments,
    ResumeSpec,
};
pub use shard::{partition_remainder, remainder_after, shard_of, ShardSpec};
pub use synth::{fixed_rate_trace, ArrivalProcess};
