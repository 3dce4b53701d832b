//! Per-invocation event spans: the unit of FaaSRail observability.
//!
//! A span records the lifecycle of one request — scheduled → dispatched →
//! (queued | breaker-shed) → executing → completed/failed — as a handful of
//! run-relative microsecond timestamps plus the outcome classification. All
//! derived quantities (pacer lateness, queue wait, network overhead,
//! end-to-end response) are methods, not stored fields, so the hot-path
//! record stays small and allocation-free on success.

use faasrail_stats::rng::mix64_pair;
use serde::{Deserialize, Serialize};

/// Derive a per-invocation trace id from a run id and a dispatch sequence
/// number (SplitMix64 finalizer over both), so ids are unique within a run
/// and collision-resistant across concurrent runs without coordination.
/// Never returns 0 — a zero trace id means "absent" (pre-tracing logs and
/// requests arriving without an `X-FaaSRail-Trace` header).
pub fn derive_trace_id(run_id: u64, seq: u64) -> u64 {
    mix64_pair(run_id, seq).max(1)
}

/// Render a trace id in the wire format of the `X-FaaSRail-Trace` header:
/// 16 lowercase hex digits, zero-padded.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse the `X-FaaSRail-Trace` header value (1–16 hex digits). Returns
/// `None` for anything malformed — an unparseable header is treated as
/// absent rather than failing the request.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Classification of a failed (or successful) invocation, for per-class
/// accounting in run metrics and telemetry. Over a network path the
/// failure classes behave very differently — an application error already
/// consumed backend resources, a timeout may still be executing, and a
/// transport error may never have reached application code — so replay
/// summaries report them separately.
///
/// This is the canonical definition; `faasrail-loadgen` re-exports it so
/// backends keep using `faasrail_loadgen::OutcomeClass`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum OutcomeClass {
    /// Served successfully.
    #[default]
    Ok,
    /// The backend executed the request and reported failure. Not
    /// retryable: retrying would re-run (non-idempotent) application code.
    AppError,
    /// The per-request deadline expired before a response arrived.
    Timeout,
    /// Connect/read/write failure, or an error response from a gateway in
    /// front of the backend; the request may never have reached
    /// application code.
    Transport,
    /// Rejected by overload protection before reaching application code: a
    /// gateway shedding load (`429 Too Many Requests`) or the client-side
    /// circuit breaker failing fast while open. Distinct from
    /// [`OutcomeClass::Transport`] because the system under test made a
    /// deliberate, healthy decision to refuse work — a load generator that
    /// lumps shed requests in with broken sockets misreports overload
    /// behaviour as infrastructure failure.
    Shed,
}

impl OutcomeClass {
    /// Every class, in partition order.
    pub const ALL: [OutcomeClass; 5] = [
        OutcomeClass::Ok,
        OutcomeClass::AppError,
        OutcomeClass::Timeout,
        OutcomeClass::Transport,
        OutcomeClass::Shed,
    ];

    /// Stable lower-case name (metric label value).
    pub fn name(self) -> &'static str {
        match self {
            OutcomeClass::Ok => "ok",
            OutcomeClass::AppError => "app_error",
            OutcomeClass::Timeout => "timeout",
            OutcomeClass::Transport => "transport",
            OutcomeClass::Shed => "shed",
        }
    }

    /// Index into a `[u64; 4]` per-error-class counter array
    /// (`[app_error, timeout, transport, shed]`); `None` for [`Self::Ok`].
    pub fn error_index(self) -> Option<usize> {
        match self {
            OutcomeClass::Ok => None,
            OutcomeClass::AppError => Some(0),
            OutcomeClass::Timeout => Some(1),
            OutcomeClass::Transport => Some(2),
            OutcomeClass::Shed => Some(3),
        }
    }
}

/// The lifecycle of one invocation, timestamped in microseconds relative to
/// the run start (wall clock for the replayer, virtual time for the
/// simulator).
///
/// Stage semantics: the request was *scheduled* to fire at `target_us`
/// (trace time over compression), actually *dispatched* at `dispatched_us`,
/// sat in the worker queue until `picked_up_us`, and finished at
/// `completed_us`. The backend-reported pure execution time is
/// `service_ms`; everything between pickup and completion beyond it is
/// client/network overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationSpan {
    /// Per-invocation trace id, propagated to networked backends via the
    /// `X-FaaSRail-Trace` header so client and server spans can be joined
    /// post-hoc. `0` in logs written before tracing existed.
    #[serde(default)]
    pub trace_id: u64,
    /// Dispatch sequence number within the run (0-based).
    pub seq: u64,
    /// Raw pool id of the workload executed.
    pub workload: u64,
    /// Originating (aggregated) Function index.
    pub function_index: u32,
    /// Scheduled fire time, trace milliseconds (per-minute bucketing key).
    pub scheduled_ms: u64,
    /// Scheduled fire instant, µs from run start (trace time ÷ compression
    /// under real-time pacing; equals `dispatched_us` when unpaced).
    pub target_us: u64,
    /// Actual dispatch instant, µs from run start.
    pub dispatched_us: u64,
    /// Worker pickup instant (end of queue wait), µs from run start.
    pub picked_up_us: u64,
    /// Completion instant, µs from run start.
    pub completed_us: u64,
    /// Backend-reported pure service (execution) time, milliseconds.
    pub service_ms: f64,
    /// Outcome classification.
    pub outcome: OutcomeClass,
    /// Whether a sandbox had to be cold-started.
    pub cold_start: bool,
    /// Failure detail, absent on success (kept out of the hot path: only
    /// failed invocations pay the allocation).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

impl InvocationSpan {
    /// Pacer lateness: actual minus scheduled dispatch, seconds.
    pub fn lateness_s(&self) -> f64 {
        self.dispatched_us.saturating_sub(self.target_us) as f64 / 1e6
    }

    /// Queue wait between dispatch and worker pickup, seconds.
    pub fn queue_wait_s(&self) -> f64 {
        self.picked_up_us.saturating_sub(self.dispatched_us) as f64 / 1e6
    }

    /// Backend-reported pure service time, seconds.
    pub fn service_s(&self) -> f64 {
        self.service_ms / 1e3
    }

    /// Client/network overhead: pickup → completion time not accounted for
    /// by the backend's service time, seconds (clamped at zero).
    pub fn overhead_s(&self) -> f64 {
        (self.completed_us.saturating_sub(self.picked_up_us) as f64 / 1e6 - self.service_s())
            .max(0.0)
    }

    /// End-to-end response time (dispatch → completion), seconds.
    pub fn response_s(&self) -> f64 {
        self.completed_us.saturating_sub(self.dispatched_us) as f64 / 1e6
    }

    /// The scheduled experiment minute this span counts against.
    pub fn scheduled_minute(&self) -> usize {
        (self.scheduled_ms / 60_000) as usize
    }
}

/// The fault a gateway injected into a request, recorded on the server
/// span so fault-induced outcomes are distinguishable from organic ones
/// when logs are analysed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ServerFault {
    /// Connection dropped without a response (client sees a transport
    /// error).
    Drop,
    /// Synthetic `500` returned without invoking the backend.
    Error,
    /// Response withheld until past any sane client deadline (client sees
    /// a timeout).
    Stall,
    /// Extra latency injected before the backend ran; the response itself
    /// is genuine.
    Delay,
}

impl ServerFault {
    /// Stable lower-case name (metric label value).
    pub fn name(self) -> &'static str {
        match self {
            ServerFault::Drop => "drop",
            ServerFault::Error => "error",
            ServerFault::Stall => "stall",
            ServerFault::Delay => "delay",
        }
    }
}

/// The server-side lifecycle of one gateway request, timestamped in
/// microseconds relative to the *gateway's* start instant — a different
/// clock from [`InvocationSpan`]'s run-relative timestamps. The span-join
/// pass (`crate::join`) estimates the offset between the two clocks from
/// matched pairs; nothing here assumes synchronised time.
///
/// Stage semantics: the connection was *accepted* at `accepted_us` with
/// `queue_depth` connections already pending, *dequeued* by worker
/// `worker` at `dequeued_us`, the request head finished parsing and the
/// handler ran over `handler_start_us..handler_end_us`, and the response
/// bytes were flushed to the socket at `flushed_us`. For keep-alive
/// connections the accept/dequeue instants of requests after the first
/// are the instant the next request head arrived (there is no queue wait
/// to attribute).
///
/// Shed connections produce *no* server span: the gateway rejects them
/// before reading the request, so there is no trace id to record — they
/// surface as orphaned client spans instead, which the join pass counts
/// explicitly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpan {
    /// Trace id from the `X-FaaSRail-Trace` header (or request body);
    /// `0` if the client sent none.
    #[serde(default)]
    pub trace_id: u64,
    /// Server-side request sequence number (admission order, 0-based).
    pub seq: u64,
    /// Worker thread id (0-based) that served the request.
    pub worker: u64,
    /// Connection accepted (or request head arrived, for keep-alive
    /// requests after the first), µs from gateway start.
    pub accepted_us: u64,
    /// Worker dequeued the connection, µs from gateway start.
    pub dequeued_us: u64,
    /// Request head parsed, handler invoked, µs from gateway start.
    pub handler_start_us: u64,
    /// Handler returned, µs from gateway start.
    pub handler_end_us: u64,
    /// Response bytes flushed to the socket, µs from gateway start.
    pub flushed_us: u64,
    /// Pending-connection queue depth observed at admission.
    pub queue_depth: u64,
    /// Backend-reported pure service time, milliseconds (0 when the
    /// backend never ran).
    pub service_ms: f64,
    /// Outcome as the *server* classified it (what the client observes
    /// can differ — e.g. a stalled response times out client-side).
    pub outcome: OutcomeClass,
    /// Injected fault, if this request drew one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault: Option<ServerFault>,
    /// Whether the backend reported a cold start.
    pub cold_start: bool,
}

impl ServerSpan {
    /// Accept → worker dequeue (gateway queue wait), seconds.
    pub fn queue_wait_s(&self) -> f64 {
        self.dequeued_us.saturating_sub(self.accepted_us) as f64 / 1e6
    }

    /// Dequeue → handler start (request head read + parse), seconds.
    pub fn read_s(&self) -> f64 {
        self.handler_start_us.saturating_sub(self.dequeued_us) as f64 / 1e6
    }

    /// Handler start → handler end (backend execution incl. injected
    /// delay), seconds.
    pub fn handler_s(&self) -> f64 {
        self.handler_end_us.saturating_sub(self.handler_start_us) as f64 / 1e6
    }

    /// Handler end → response flushed, seconds.
    pub fn flush_s(&self) -> f64 {
        self.flushed_us.saturating_sub(self.handler_end_us) as f64 / 1e6
    }

    /// Accept → response flushed (total server residency), seconds.
    pub fn total_s(&self) -> f64 {
        self.flushed_us.saturating_sub(self.accepted_us) as f64 / 1e6
    }
}

/// Run-level configuration echoed at the head of an event stream so the
/// log is self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunInfo {
    /// Requests in the schedule.
    pub requests: u64,
    /// Scheduled experiment duration, minutes.
    pub duration_minutes: u64,
    /// Replay worker threads.
    pub workers: u64,
    /// Pacing mode (`"realtime"`, `"unpaced"`, `"closed-loop"`, or
    /// `"simulated"` for virtual-time runs).
    pub pacing: String,
    /// Time compression under real-time pacing (1.0 otherwise).
    pub compression: f64,
}

/// Run-level totals emitted at the tail of an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    pub issued: u64,
    pub completed: u64,
    pub errors: u64,
    pub aborted: bool,
    /// Wall-clock (or virtual) run duration, microseconds.
    pub wall_us: u64,
}

/// A fleet control-plane reassignment: the coordinator moved part of a
/// lost agent's remaining schedule to a survivor mid-run. Emitted into
/// merged fleet event streams so a report reader can see exactly when and
/// why offered load changed hands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReassignSpan {
    /// When the coordinator issued the grant, µs from run start (merged
    /// epoch).
    pub at_us: u64,
    /// Shard that owned the work before it was lost.
    pub from_shard: u32,
    /// Shard that picked the work up.
    pub to_shard: u32,
    /// Grant id (unique per reassignment within a run; `0` is reserved
    /// for an agent's original assignment).
    pub work: u64,
    /// Invocations transferred by this grant.
    pub requests: u64,
    /// Why the source agent was declared dead (`"crash"`, `"stall"`, or
    /// an abort reason).
    pub reason: String,
}

/// One telemetry event. Serialized as JSONL with an `event` tag, so logs
/// are grep-able and stream-parseable line by line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum TelemetryEvent {
    RunStart(RunInfo),
    Invocation(InvocationSpan),
    /// Server-side gateway span (only present in server trace logs).
    ServerSpan(ServerSpan),
    /// Fleet reassignment (only present in merged fleet logs).
    Reassign(ReassignSpan),
    RunEnd(RunSummary),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> InvocationSpan {
        InvocationSpan {
            trace_id: derive_trace_id(42, 3),
            seq: 3,
            workload: 7,
            function_index: 2,
            scheduled_ms: 61_000,
            target_us: 100_000,
            dispatched_us: 101_500,
            picked_up_us: 111_500,
            completed_us: 161_500,
            service_ms: 30.0,
            outcome: OutcomeClass::Ok,
            cold_start: true,
            error: None,
        }
    }

    #[test]
    fn derived_stages_decompose_the_response() {
        let s = span();
        assert!((s.lateness_s() - 0.0015).abs() < 1e-9);
        assert!((s.queue_wait_s() - 0.010).abs() < 1e-9);
        assert!((s.service_s() - 0.030).abs() < 1e-9);
        assert!((s.overhead_s() - 0.020).abs() < 1e-9);
        assert!((s.response_s() - 0.060).abs() < 1e-9);
        // queue wait + service + overhead == response (for completed spans).
        assert!((s.queue_wait_s() + s.service_s() + s.overhead_s() - s.response_s()).abs() < 1e-9);
        assert_eq!(s.scheduled_minute(), 1);
    }

    #[test]
    fn overhead_clamps_at_zero() {
        let mut s = span();
        s.service_ms = 500.0; // backend claims more than the wall interval
        assert_eq!(s.overhead_s(), 0.0);
    }

    #[test]
    fn events_roundtrip_as_tagged_jsonl() {
        let events = vec![
            TelemetryEvent::RunStart(RunInfo {
                requests: 10,
                duration_minutes: 1,
                workers: 2,
                pacing: "unpaced".to_string(),
                compression: 1.0,
            }),
            TelemetryEvent::Invocation(span()),
            TelemetryEvent::RunEnd(RunSummary {
                issued: 10,
                completed: 9,
                errors: 1,
                aborted: false,
                wall_us: 1_000_000,
            }),
        ];
        for e in &events {
            let line = serde_json::to_string(e).unwrap();
            assert!(line.contains("\"event\""), "{line}");
            let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(*e, back);
        }
        let line = serde_json::to_string(&events[1]).unwrap();
        assert!(line.contains("\"event\":\"invocation\""), "{line}");
    }

    #[test]
    fn error_string_is_skipped_on_success() {
        let line = serde_json::to_string(&TelemetryEvent::Invocation(span())).unwrap();
        assert!(!line.contains("\"error\""), "{line}");
    }

    #[test]
    fn trace_ids_are_nonzero_unique_and_roundtrip_the_wire_format() {
        let mut seen = std::collections::HashSet::new();
        for run in [0u64, 1, 0xDEAD_BEEF] {
            for seq in 0..1000u64 {
                let id = derive_trace_id(run, seq);
                assert_ne!(id, 0);
                assert!(seen.insert(id), "collision at run={run} seq={seq}");
                let wire = format_trace_id(id);
                assert_eq!(wire.len(), 16);
                assert_eq!(parse_trace_id(&wire), Some(id));
            }
        }
    }

    /// Values of the parent commit (private finalizer copy), which ids in
    /// committed logs and on the wire were derived with.
    #[test]
    fn trace_ids_are_the_ones_derived_before_the_rng_port() {
        for (run, seq, id) in [
            (0u64, 0u64, 1u64), // the finalizer maps 0 to 0; 0 means "absent"
            (0, 1, 0xe220_a839_7b1d_cdaf),
            (1, 0, 0x5692_161d_100b_05e5),
            (42, 7, 0x53ad_348a_f3dd_af4b),
            (0xfaa5, 1_000_000, 0xfd8b_d084_912f_efb3),
            (u64::MAX, u64::MAX, 0xe4d9_7177_1b65_2c20),
        ] {
            assert_eq!(derive_trace_id(run, seq), id, "run {run:#x} seq {seq}");
        }
    }

    #[test]
    fn trace_id_parser_rejects_garbage() {
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zzzz"), None);
        assert_eq!(parse_trace_id("0123456789abcdef0"), None); // 17 digits
        assert_eq!(parse_trace_id(" 1f "), Some(0x1f));
        assert_eq!(parse_trace_id("0"), Some(0));
    }

    fn server_span() -> ServerSpan {
        ServerSpan {
            trace_id: 7,
            seq: 0,
            worker: 2,
            accepted_us: 1_000,
            dequeued_us: 3_000,
            handler_start_us: 3_500,
            handler_end_us: 33_500,
            flushed_us: 34_000,
            queue_depth: 5,
            service_ms: 30.0,
            outcome: OutcomeClass::Ok,
            fault: None,
            cold_start: false,
        }
    }

    #[test]
    fn server_span_stages_decompose_total_residency() {
        let s = server_span();
        assert!((s.queue_wait_s() - 0.002).abs() < 1e-9);
        assert!((s.read_s() - 0.0005).abs() < 1e-9);
        assert!((s.handler_s() - 0.030).abs() < 1e-9);
        assert!((s.flush_s() - 0.0005).abs() < 1e-9);
        assert!((s.total_s() - 0.033).abs() < 1e-9);
        assert!(
            (s.queue_wait_s() + s.read_s() + s.handler_s() + s.flush_s() - s.total_s()).abs()
                < 1e-9
        );
    }

    #[test]
    fn server_span_event_roundtrips_and_skips_absent_fault() {
        let e = TelemetryEvent::ServerSpan(server_span());
        let line = serde_json::to_string(&e).unwrap();
        assert!(line.contains("\"event\":\"server_span\""), "{line}");
        assert!(!line.contains("\"fault\""), "{line}");
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(e, back);

        let mut faulted = server_span();
        faulted.fault = Some(ServerFault::Stall);
        faulted.outcome = OutcomeClass::Timeout;
        let line = serde_json::to_string(&TelemetryEvent::ServerSpan(faulted.clone())).unwrap();
        assert!(line.contains("\"fault\":\"stall\""), "{line}");
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, TelemetryEvent::ServerSpan(faulted));
    }

    #[test]
    fn outcome_class_names_and_indices() {
        assert_eq!(OutcomeClass::ALL.len(), 5);
        assert_eq!(OutcomeClass::Ok.error_index(), None);
        assert_eq!(OutcomeClass::AppError.error_index(), Some(0));
        assert_eq!(OutcomeClass::Shed.error_index(), Some(3));
        let names: Vec<&str> = OutcomeClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["ok", "app_error", "timeout", "transport", "shed"]);
    }
}
