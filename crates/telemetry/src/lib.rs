//! FaaSRail's observability substrate.
//!
//! FaaSRail's whole claim is *representativeness* — that the replayed load
//! matches the downscaled trace minute by minute — so the measurement layer
//! is part of the methodology, not an afterthought. This crate provides
//! that layer for every runtime component:
//!
//! * [`InvocationSpan`] — a lightweight, allocation-conscious record of one
//!   request's lifecycle (scheduled → dispatched → queued → executing →
//!   completed/failed), with per-stage timestamps, [`OutcomeClass`], and
//!   the cold-start flag. Spans travel as [`TelemetryEvent`]s through a
//!   pluggable [`EventSink`]: a null sink for zero overhead, a bounded
//!   in-memory [`RingSink`] for tests and live inspection, and a buffered
//!   [`JsonlSink`] writer for post-hoc analysis;
//! * [`Recorder`] — a sharded, lock-light live-metrics recorder that
//!   workers update on the hot path; periodic [`Snapshot`] deltas yield
//!   per-window issued/completed/errors-by-class, response quantiles, and
//!   offered-vs-achieved RPS for a once-per-interval progress line;
//! * [`PromText`] — a Prometheus text-format (0.0.4) encoder for counters,
//!   gauges, and [`LogHistogram`](faasrail_stats::LogHistogram)s, so any
//!   run can be scraped by standard tooling (`GET /metrics` on the
//!   gateway);
//! * [`RunReport`] — consumes a JSONL event log and reconstructs the
//!   latency decomposition (pacer lateness vs queue wait vs service vs
//!   network overhead) and the per-minute offered/achieved series the
//!   paper's fidelity argument rests on, rendered as JSON or Markdown;
//! * [`ServerSpan`] + [`join_spans`] — distributed tracing across the
//!   client/gateway boundary: the replayer stamps every request with a
//!   trace id (propagated in the `X-FaaSRail-Trace` header), the gateway
//!   records its own accept→dequeue→handler→flush span per request, and
//!   the join pass merges the two JSONL logs by trace id — estimating the
//!   inter-tier clock offset from exchange midpoints — into a six-stage
//!   cross-tier decomposition (pacer lateness / client queue / network
//!   out / gateway queue / service / network back) with orphaned spans
//!   classified, not dropped.
//!
//! The crate sits directly above `faasrail-stats`; the load generator, the
//! gateway, and the simulator all emit into it, which is what makes one
//! event log comparable across in-process, over-the-wire, and simulated
//! runs.

pub mod build;
pub mod join;
pub mod prometheus;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod span;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` whether or not a thread panicked while holding it. The data
/// this crate guards (counters, histograms, event buffers) is valid after
/// every single update, and a broken writer must not take the run's
/// metrics and event log down with it.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Re-exported so downstream crates (the gateway's per-stage `/metrics`
/// histograms) don't need a direct `faasrail-stats` dependency.
pub use build::BuildInfo;
pub use faasrail_stats::LogHistogram;
pub use join::{join_spans, midpoint_offset, ClockOffset, CrossTierStages, JoinedSpan, SpanJoin};
pub use prometheus::{escape_label_value, PromText};
pub use recorder::{spawn_progress_printer, DeltaWindow, Recorder, Snapshot, WindowStats};
pub use report::{
    merge_event_logs, parse_jsonl, slowest_client_spans, tally_minute, CrossTierDecomposition,
    CrossTierReport, LatencyDecomposition, LatencyStat, RunReport,
};
pub use sink::{EventSink, JsonlSink, NullSink, RingSink};
pub use span::{
    derive_trace_id, format_trace_id, parse_trace_id, InvocationSpan, OutcomeClass, ReassignSpan,
    RunInfo, RunSummary, ServerFault, ServerSpan, TelemetryEvent,
};
