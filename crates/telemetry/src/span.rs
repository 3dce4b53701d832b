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
    /// Every class, in partition order: declaration order, so
    /// `ALL[c.index()] == c`.
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

    /// Index into a `[u64; 5]` per-class counter array
    /// (`[ok, app_error, timeout, transport, shed]`). The one definition of
    /// a class's position: [`Self::error_index`] is this, less `Ok`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Index into a `[u64; 4]` per-error-class counter array
    /// (`[app_error, timeout, transport, shed]`); `None` for [`Self::Ok`].
    pub fn error_index(self) -> Option<usize> {
        self.index().checked_sub(1)
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
    /// Scheduled fire instant, µs from run start: trace time ÷ compression
    /// under real-time pacing, 0 in an unpaced drain (the whole trace is
    /// due at the start), and `picked_up_us` in a closed loop.
    pub target_us: u64,
    /// Actual dispatch instant, µs from run start. Under real-time pacing
    /// a request claimed before it was due is dispatched when its worker's
    /// wait ends (`picked_up_us`), and one claimed late was dispatched when
    /// due (`target_us`; it has waited for a worker since). 0 in an unpaced
    /// drain, and `picked_up_us` in a closed loop (a request is dispatched
    /// when a worker claims it).
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

    /// Move the four run-relative stamps (target, dispatch, pickup,
    /// completion) by `delta_us` onto another timeline, saturating at zero.
    pub fn shift(&mut self, delta_us: i64) {
        for t in [
            &mut self.target_us,
            &mut self.dispatched_us,
            &mut self.picked_up_us,
            &mut self.completed_us,
        ] {
            *t = t.saturating_add_signed(delta_us);
        }
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

impl TelemetryEvent {
    /// Append this event's JSONL line, `\n` included, to `out`: the bytes
    /// of `serde_json::to_vec(self)` and a newline. The derive above pins
    /// the format and is the only decoder. A per-request line, an
    /// error-free invocation span (every line of a clean replay) or a server
    /// span, is encoded field by field into a fixed stack buffer, and every
    /// other event goes through the derive. On an error, `out` is left as
    /// it was.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) -> serde_json::Result<()> {
        let mut line = [0; LINE_MAX];
        if let Some(len) = self.encode_line(&mut line) {
            out.extend_from_slice(&line[..len]);
            return Ok(());
        }
        let start = out.len();
        match serde_json::to_writer(&mut *out, self) {
            Ok(()) => {
                out.push(b'\n');
                Ok(())
            }
            Err(e) => {
                out.truncate(start);
                Err(e)
            }
        }
    }

    /// Encode a per-request line, an error-free invocation span (every
    /// line of a clean replay) or a server span, into the front of `buf`
    /// and return its length: the derive's bytes and a newline, written
    /// field by field in the derive's key order. `None` for every other
    /// event, which only the derive writes.
    pub(crate) fn encode_line(&self, buf: &mut [u8; LINE_MAX]) -> Option<usize> {
        let mut line = Line { buf, len: 0 };
        match self {
            TelemetryEvent::Invocation(span) if span.error.is_none() => line.invocation(span),
            TelemetryEvent::ServerSpan(span) => line.server_span(span),
            _ => return None,
        }
        Some(line.len)
    }
}

impl OutcomeClass {
    /// The variant's name as the derive writes it (not [`Self::name`]).
    fn variant(self) -> &'static str {
        match self {
            OutcomeClass::Ok => "Ok",
            OutcomeClass::AppError => "AppError",
            OutcomeClass::Timeout => "Timeout",
            OutcomeClass::Transport => "Transport",
            OutcomeClass::Shed => "Shed",
        }
    }
}

/// Room for the longest line [`TelemetryEvent::encode_line`] writes: a
/// server span's keys, nine 20-digit integers, a 24-byte `{:?}` float and
/// its longest fault and outcome come to 425 bytes.
pub(crate) const LINE_MAX: usize = 512;

/// `"00"` to `"99"`, back to back: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// One per-request line, encoded into a fixed buffer: keys are constant
/// copies and integers are written two digits at a time straight into
/// place, so the line costs no allocation and no formatter.
struct Line<'a> {
    buf: &'a mut [u8; LINE_MAX],
    len: usize,
}

impl Line<'_> {
    fn invocation(&mut self, s: &InvocationSpan) {
        self.fields([
            (&b"{\"event\":\"invocation\",\"trace_id\":"[..], s.trace_id),
            (b",\"seq\":", s.seq),
            (b",\"workload\":", s.workload),
            (b",\"function_index\":", s.function_index as u64),
            (b",\"scheduled_ms\":", s.scheduled_ms),
            (b",\"target_us\":", s.target_us),
            (b",\"dispatched_us\":", s.dispatched_us),
            (b",\"picked_up_us\":", s.picked_up_us),
            (b",\"completed_us\":", s.completed_us),
        ]);
        self.tail(s.service_ms, s.outcome, None, s.cold_start);
    }

    fn server_span(&mut self, s: &ServerSpan) {
        self.fields([
            (&b"{\"event\":\"server_span\",\"trace_id\":"[..], s.trace_id),
            (b",\"seq\":", s.seq),
            (b",\"worker\":", s.worker),
            (b",\"accepted_us\":", s.accepted_us),
            (b",\"dequeued_us\":", s.dequeued_us),
            (b",\"handler_start_us\":", s.handler_start_us),
            (b",\"handler_end_us\":", s.handler_end_us),
            (b",\"flushed_us\":", s.flushed_us),
            (b",\"queue_depth\":", s.queue_depth),
        ]);
        self.tail(s.service_ms, s.outcome, s.fault, s.cold_start);
    }

    /// Each key, then its value. Inlined, so every key is a constant copy.
    #[inline(always)]
    fn fields(&mut self, fields: [(&[u8], u64); 9]) {
        for (key, value) in fields {
            self.put(key);
            self.put_u64(value);
        }
    }

    /// The keys both spans end with, in the derive's order.
    fn tail(
        &mut self,
        service_ms: f64,
        outcome: OutcomeClass,
        fault: Option<ServerFault>,
        cold_start: bool,
    ) {
        self.put(b",\"service_ms\":");
        self.put_f64(service_ms);
        self.put(b",\"outcome\":\"");
        self.put(outcome.variant().as_bytes());
        if let Some(fault) = fault {
            // `rename_all = "snake_case"`: the derive's names are `name()`.
            self.put(b"\",\"fault\":\"");
            self.put(fault.name().as_bytes());
        }
        self.put(if cold_start {
            b"\",\"cold_start\":true}\n"
        } else {
            b"\",\"cold_start\":false}\n"
        });
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// `value` in decimal.
    fn put_u64(&mut self, mut value: u64) {
        let end = self.len + value.checked_ilog10().map_or(1, |l| l as usize + 1);
        let digits = &mut self.buf[self.len..end];
        let mut at = digits.len();
        while value >= 100 {
            let pair = 2 * (value % 100) as usize;
            value /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if value >= 10 {
            let pair = 2 * value as usize;
            digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            digits[0] = b'0' + value as u8;
        }
        self.len = end;
    }

    /// What the derive writes for an `f64`: `{:?}` when finite, else
    /// `null`. `{:?}` of an integral value below 1e16, what the noop and
    /// warm-cache backends report, is its integer digits and `.0` (a `-`
    /// first when negative, `-0.0` included); from 1e16 on it takes the
    /// exponent form, so those and every fraction go to the formatter.
    fn put_f64(&mut self, value: f64) {
        let magnitude = value.abs();
        if magnitude < 1e16 && (magnitude as u64) as f64 == magnitude {
            if value.is_sign_negative() {
                self.put(b"-");
            }
            self.put_u64(magnitude as u64);
            self.put(b".0");
        } else if value.is_finite() {
            use std::io::Write as _;
            let mut rest = &mut self.buf[self.len..];
            write!(rest, "{value:?}").expect("a float's {:?} fits the line");
            self.len = LINE_MAX - rest.len();
        } else {
            self.put(b"null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::rng::{cases, Rng};

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
    }

    #[test]
    fn overhead_clamps_at_zero() {
        let mut s = span();
        s.service_ms = 500.0; // backend claims more than the wall interval
        assert_eq!(s.overhead_s(), 0.0);
    }

    #[test]
    fn shift_moves_the_four_stamps_and_saturates_at_zero() {
        let mut s = span();
        s.shift(2_000);
        let stamps = |s: &InvocationSpan| {
            (s.target_us, s.dispatched_us, s.picked_up_us, s.completed_us, s.scheduled_ms)
        };
        assert_eq!(stamps(&s), (102_000, 103_500, 113_500, 163_500, 61_000));
        assert!((s.response_s() - 0.060).abs() < 1e-9, "durations are unchanged");
        s.shift(-103_000);
        assert_eq!(stamps(&s), (0, 500, 10_500, 60_500, 61_000), "target saturates at zero");
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
        for (i, c) in OutcomeClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let names: Vec<&str> = OutcomeClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["ok", "app_error", "timeout", "transport", "shed"]);
    }

    /// A `u64` that is often an edge: a digit-count boundary or an extreme.
    fn any_u64(rng: &mut impl Rng) -> u64 {
        match rng.below(4) {
            0 => [0, 1, 9, 10, 99, 100, 999_999, u32::MAX as u64, u64::MAX - 1, u64::MAX]
                [rng.below(10) as usize],
            // 10^k - 1, 10^k or 10^k + 1.
            1 => 10u64.pow(rng.range(0u32..20)).wrapping_add(rng.below(3)).wrapping_sub(1),
            2 => rng.below(10_000_000),
            _ => rng.next_u64(),
        }
    }

    /// An `f64` that is often one the derive writes unusually: non-finite,
    /// signed zero, subnormal, extreme, integral at the edge of exactness or
    /// of the exponent form (1e16), or any bits.
    fn any_f64(rng: &mut impl Rng) -> f64 {
        let two53 = (1u64 << 53) as f64;
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        match rng.below(7) {
            0 => [
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
                1e-300,
                f64::MIN_POSITIVE,
                5e-324,
                f64::MAX,
                two53,
                two53 - 1.0,
                -(two53 - 1.0),
                1e15,
                1e16,
                1e-4,
                1e-5,
                0.1,
                2.5,
            ][rng.below(20) as usize],
            1 => f64::from_bits(rng.next_u64()),
            2 => rng.below(1 << 20) as f64 * sign,
            3 => rng.uniform(0.0..5_000.0),
            // Integral around 1e15 and 1e16, and any integral below 2^54.
            4 => sign * ([1e15, 1e16][rng.below(2) as usize] + 2.0 * (rng.below(9) as f64 - 4.0)),
            5 => sign * rng.below(1 << 54) as f64,
            _ => (rng.below(1 << 53) as f64).max(1.0) * 2f64.powi(rng.range(0u32..80) as i32 - 40),
        }
    }

    /// A string with quotes, backslashes, control bytes and non-ASCII.
    fn any_string(rng: &mut impl Rng) -> String {
        const PIECES: [&str; 12] =
            ["ok", "\"", "\\", "\n", "\r\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "ß字", "🦀", " "];
        (0..rng.below(8)).map(|_| PIECES[rng.below(12) as usize]).collect()
    }

    fn any_event(rng: &mut impl Rng) -> TelemetryEvent {
        let outcome = OutcomeClass::ALL[rng.below(5) as usize];
        match rng.below(6) {
            0 => TelemetryEvent::RunStart(RunInfo {
                requests: any_u64(rng),
                duration_minutes: any_u64(rng),
                workers: any_u64(rng),
                pacing: any_string(rng),
                compression: any_f64(rng),
            }),
            1 => TelemetryEvent::RunEnd(RunSummary {
                issued: any_u64(rng),
                completed: any_u64(rng),
                errors: any_u64(rng),
                aborted: rng.below(2) == 0,
                wall_us: any_u64(rng),
            }),
            2 => TelemetryEvent::Reassign(ReassignSpan {
                at_us: any_u64(rng),
                from_shard: any_u64(rng) as u32,
                to_shard: any_u64(rng) as u32,
                work: any_u64(rng),
                requests: any_u64(rng),
                reason: any_string(rng),
            }),
            3 => TelemetryEvent::ServerSpan(ServerSpan {
                trace_id: any_u64(rng),
                seq: any_u64(rng),
                worker: any_u64(rng),
                accepted_us: any_u64(rng),
                dequeued_us: any_u64(rng),
                handler_start_us: any_u64(rng),
                handler_end_us: any_u64(rng),
                flushed_us: any_u64(rng),
                queue_depth: any_u64(rng),
                service_ms: any_f64(rng),
                outcome,
                fault: [
                    None,
                    Some(ServerFault::Drop),
                    Some(ServerFault::Error),
                    Some(ServerFault::Stall),
                    Some(ServerFault::Delay),
                ][rng.below(5) as usize],
                cold_start: rng.below(2) == 0,
            }),
            // Invocations are most of a log: two draws in six.
            _ => TelemetryEvent::Invocation(InvocationSpan {
                trace_id: any_u64(rng),
                seq: any_u64(rng),
                workload: any_u64(rng),
                function_index: any_u64(rng) as u32,
                scheduled_ms: any_u64(rng),
                target_us: any_u64(rng),
                dispatched_us: any_u64(rng),
                picked_up_us: any_u64(rng),
                completed_us: any_u64(rng),
                service_ms: any_f64(rng),
                outcome,
                cold_start: rng.below(2) == 0,
                error: (rng.below(4) == 0).then(|| any_string(rng)),
            }),
        }
    }

    fn floats_finite(e: &TelemetryEvent) -> bool {
        match e {
            TelemetryEvent::RunStart(i) => i.compression.is_finite(),
            TelemetryEvent::Invocation(s) => s.service_ms.is_finite(),
            TelemetryEvent::ServerSpan(s) => s.service_ms.is_finite(),
            TelemetryEvent::Reassign(_) | TelemetryEvent::RunEnd(_) => true,
        }
    }

    #[test]
    fn write_jsonl_is_the_derive_byte_for_byte_and_reads_back() {
        cases("write_jsonl_is_the_derive", 20_000, |rng| {
            let events: Vec<TelemetryEvent> = (0..4).map(|_| any_event(rng)).collect();
            let (mut log, mut want) = (Vec::new(), Vec::new());
            for e in &events {
                e.write_jsonl(&mut log).unwrap();
                want.extend(serde_json::to_vec(e).unwrap());
                want.push(b'\n');
            }
            assert_eq!(String::from_utf8_lossy(&log), String::from_utf8_lossy(&want), "{events:?}");
            if events.iter().all(floats_finite) {
                let back = crate::report::parse_jsonl(&log[..]).unwrap();
                assert_eq!(back, events);
            }
        });
    }

    /// Both encoded lines against the derive at every edge the fixed-buffer
    /// encoder has: each digit-count boundary of an integer, `u64::MAX`,
    /// integral floats on both sides of 1e15 and of the exponent form at
    /// 1e16, signed zeros, subnormals and non-finite floats, every outcome,
    /// every fault and both cold-start values.
    #[test]
    fn per_request_lines_are_the_derive_at_every_edge() {
        let mut ints = vec![0, 1, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for k in 1..20 {
            ints.extend([10u64.pow(k) - 1, 10u64.pow(k), 10u64.pow(k) + 1]);
        }
        let mut floats = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            30.0,
            0.5,
            5e-324,
            -5e-324,
            2.2e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            (1u64 << 53) as f64,
            (1u64 << 54) as f64,
        ];
        for at in [1e15, 1e16] {
            for step in -3..=3 {
                floats.extend([at + 2.0 * step as f64, -(at + 2.0 * step as f64)]);
            }
        }
        floats.extend([1e17, 123e20, 1e300, 9_999_999_999_999_998.0]);
        let check = |event: TelemetryEvent| {
            let mut line = Vec::new();
            event.write_jsonl(&mut line).unwrap();
            let mut want = serde_json::to_vec(&event).unwrap();
            want.push(b'\n');
            assert_eq!(String::from_utf8(line).unwrap(), String::from_utf8(want).unwrap());
        };
        let faults = [
            None,
            Some(ServerFault::Drop),
            Some(ServerFault::Error),
            Some(ServerFault::Stall),
            Some(ServerFault::Delay),
        ];
        for (i, &value) in ints.iter().enumerate() {
            let service_ms = floats[i % floats.len()];
            let outcome = OutcomeClass::ALL[i % 5];
            let cold_start = i % 2 == 0;
            check(TelemetryEvent::Invocation(InvocationSpan {
                trace_id: value,
                seq: value,
                workload: value,
                function_index: value as u32,
                scheduled_ms: value,
                target_us: value,
                dispatched_us: value,
                picked_up_us: value,
                completed_us: value,
                service_ms,
                outcome,
                cold_start,
                error: None,
            }));
            check(TelemetryEvent::ServerSpan(ServerSpan {
                trace_id: value,
                seq: value,
                worker: value,
                accepted_us: value,
                dequeued_us: value,
                handler_start_us: value,
                handler_end_us: value,
                flushed_us: value,
                queue_depth: value,
                service_ms,
                outcome,
                fault: faults[i % 5],
                cold_start,
            }));
        }
        for (i, &service_ms) in floats.iter().enumerate() {
            for outcome in OutcomeClass::ALL {
                for cold_start in [false, true] {
                    let mut s = span();
                    (s.service_ms, s.outcome, s.cold_start) = (service_ms, outcome, cold_start);
                    check(TelemetryEvent::Invocation(s));
                    let mut s = server_span();
                    (s.service_ms, s.outcome, s.cold_start) = (service_ms, outcome, cold_start);
                    s.fault = faults[i % 5];
                    check(TelemetryEvent::ServerSpan(s));
                }
            }
        }
    }

    /// The longest line either encoder can write fits its fixed buffer.
    #[test]
    fn the_longest_per_request_line_fits_the_buffer() {
        let longest_float = -2.2250738585072014e-308;
        assert_eq!(format!("{longest_float:?}").len(), 24);
        let server = TelemetryEvent::ServerSpan(ServerSpan {
            trace_id: u64::MAX,
            seq: u64::MAX,
            worker: u64::MAX,
            accepted_us: u64::MAX,
            dequeued_us: u64::MAX,
            handler_start_us: u64::MAX,
            handler_end_us: u64::MAX,
            flushed_us: u64::MAX,
            queue_depth: u64::MAX,
            service_ms: longest_float,
            outcome: OutcomeClass::Transport,
            fault: Some(ServerFault::Error),
            cold_start: false,
        });
        let invocation = TelemetryEvent::Invocation(InvocationSpan {
            trace_id: u64::MAX,
            seq: u64::MAX,
            workload: u64::MAX,
            function_index: u32::MAX,
            scheduled_ms: u64::MAX,
            target_us: u64::MAX,
            dispatched_us: u64::MAX,
            picked_up_us: u64::MAX,
            completed_us: u64::MAX,
            service_ms: longest_float,
            outcome: OutcomeClass::Transport,
            cold_start: false,
            error: None,
        });
        let mut buf = [0; LINE_MAX];
        assert_eq!(server.encode_line(&mut buf), Some(425));
        assert_eq!(invocation.encode_line(&mut buf), Some(399));
    }

    /// The error-free invocation line, spelt out: the derive's key order,
    /// the variant name of `outcome`, and `{:?}` of `service_ms`.
    #[test]
    fn an_invocation_line_is_its_documented_keys_in_order() {
        let mut s = span();
        s.service_ms = 0.0;
        s.outcome = OutcomeClass::AppError;
        let mut line = Vec::new();
        TelemetryEvent::Invocation(s).write_jsonl(&mut line).unwrap();
        assert_eq!(
            String::from_utf8(line).unwrap(),
            format!(
                "{{\"event\":\"invocation\",\"trace_id\":{},\"seq\":3,\"workload\":7,\
                 \"function_index\":2,\"scheduled_ms\":61000,\"target_us\":100000,\
                 \"dispatched_us\":101500,\"picked_up_us\":111500,\"completed_us\":161500,\
                 \"service_ms\":0.0,\"outcome\":\"AppError\",\"cold_start\":true}}\n",
                derive_trace_id(42, 3)
            )
        );
    }
}
