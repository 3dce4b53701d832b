//! FaaSRail fleet mode: sharded multi-process load generation with an
//! elastic control plane.
//!
//! One machine's replayer tops out at its core count; the traces FaaSRail
//! downscales do not. Fleet mode splits a mapped request schedule across N
//! agent processes — on one host or many — behind a single coordinator,
//! without changing what the experiment *means*:
//!
//! * **deterministic sharding** — [`faasrail_loadgen::ShardSpec`] routes
//!   every function (by hashed function index) to exactly one shard, so
//!   each function's per-minute invocation series replays intact on one
//!   agent and the union of shards is exactly the original schedule;
//! * **synchronized start** — the coordinator probes each agent's wall
//!   clock (the span join's estimator,
//!   [`faasrail_telemetry::midpoint_offset`]) and issues one
//!   epoch rebased onto every agent's own clock, so shards fire together
//!   even across skewed machines;
//! * **self-contained assignments** — agents receive their shard trace
//!   and the workload pool over the wire; they need no local spec files;
//! * **elastic control plane** — leases, dynamic resharding of a dead
//!   agent's remainder, rejoin and late join keep `completed + errors +
//!   aborted == offered` exact and the merged offered per-minute series
//!   bit-identical to an unkilled run. [`control`] states every such
//!   decision once, free of IO, and [`coordinator`] is the sockets around
//!   it; [`session`] and [`agent`] are the same pair at the agent's end;
//! * **backpressure visibility** — agents report coordinated-omission-
//!   correct pacing lag per window; the fleet-wide worst case surfaces as
//!   [`FleetReport::max_lag_ms`];
//! * **live fleet view + merged results** — agents stream cumulative
//!   [`faasrail_telemetry::Snapshot`]s and return final
//!   [`faasrail_loadgen::RunMetrics`] (plus optional span logs, rebased
//!   onto the shared epoch) in one [`FleetReport`];
//! * **ops console** — bound with [`Coordinator::with_console`], the
//!   coordinator serves `/state`, `/metrics`, `/healthz` and `/dashboard`
//!   ([`console`], over the bounded [`history::History`] ring);
//!   [`console::render_top`] is `faasrail fleet top`.
//!
//! The protocol ([`wire`], version [`wire::PROTOCOL_VERSION`]) is
//! length-prefixed JSON over TCP — no dependencies beyond the workspace's
//! own serde stack, debuggable with `nc`.

pub mod agent;
pub mod console;
pub mod control;
pub mod coordinator;
pub mod history;
pub mod reshard;
pub mod session;
pub mod wire;

pub use agent::{run_agent_with, AgentConfig, AgentRun, PrefixTracker};
pub use console::{fetch_state, render_top, ConsoleHandle, ConsoleServer, DASHBOARD_HTML};
pub use control::{Control, Event, Outbound};
pub use coordinator::{AgentReport, Coordinator, FleetConfig, FleetReport};
pub use history::{
    AgentState, FleetSample, HealthCounts, History, StateView, DEFAULT_HISTORY_CAPACITY,
};
pub use reshard::{plan_grants, prefix_metrics};
pub use wire::{
    read_frame, wall_clock_us, write_frame, Assignment, FleetMessage, Grant, Loss, WorkPrefix,
    PROTOCOL_VERSION,
};
