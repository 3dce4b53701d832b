//! The backend interface: where generated requests are sent.
//!
//! FaaSRail's online component replays a request trace "against a backend
//! FaaS system" (paper §1). Anything that can synchronously serve an
//! invocation implements [`Backend`]: the discrete-event cluster simulator,
//! the real-time kernel-executing backend, or a user's HTTP gateway shim.

use faasrail_workloads::{WorkloadId, WorkloadInput};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One invocation to serve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvocationRequest {
    /// Pool id of the Workload.
    pub workload: WorkloadId,
    /// The concrete input to execute.
    pub input: WorkloadInput,
    /// The originating (aggregated) Function, for per-function accounting.
    pub function_index: u32,
    /// When the request was *scheduled* to fire, ms from experiment start.
    pub scheduled_at_ms: u64,
    /// Per-invocation trace id for cross-tier span joining; `0` means
    /// untraced (requests serialized before tracing existed, or callers
    /// that don't care). Networked backends also propagate it in the
    /// `X-FaaSRail-Trace` header so gateways can read it without parsing
    /// the body.
    #[serde(default)]
    pub trace_id: u64,
}

/// Classification of a failed (or successful) invocation. The canonical
/// definition lives in `faasrail-telemetry` (the observability substrate
/// sits below this crate so spans and run metrics share one vocabulary);
/// re-exported here because backends are the ones producing it.
pub use faasrail_telemetry::OutcomeClass;

/// What the backend reports back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationResult {
    /// Whether the invocation succeeded.
    pub ok: bool,
    /// Pure service (execution) time, milliseconds.
    pub service_ms: f64,
    /// Whether a sandbox had to be cold-started.
    pub cold_start: bool,
    /// Human-readable failure detail; `None` on success. Carried over the
    /// wire by `faasrail-gateway` so remote failures stay diagnosable.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Failure classification. Defaults to [`OutcomeClass::Ok`] when absent
    /// (pre-gateway serialized results); use [`Self::outcome`] rather than
    /// reading this field so unclassified failures count as app errors.
    #[serde(default)]
    pub class: OutcomeClass,
}

impl InvocationResult {
    /// A successful invocation.
    pub fn success(service_ms: f64, cold_start: bool) -> Self {
        InvocationResult { ok: true, service_ms, cold_start, error: None, class: OutcomeClass::Ok }
    }

    /// An application-level failure (the backend ran the request and it
    /// failed). Never retried by networked backends.
    pub fn app_error(service_ms: f64, error: impl Into<String>) -> Self {
        InvocationResult {
            ok: false,
            service_ms,
            cold_start: false,
            error: Some(error.into()),
            class: OutcomeClass::AppError,
        }
    }

    /// A deadline expiry: no response within the per-request budget.
    pub fn timeout(error: impl Into<String>) -> Self {
        InvocationResult {
            ok: false,
            service_ms: 0.0,
            cold_start: false,
            error: Some(error.into()),
            class: OutcomeClass::Timeout,
        }
    }

    /// A transport-level failure (connect/read/write error or gateway 5xx
    /// after the retry budget was exhausted).
    pub fn transport(error: impl Into<String>) -> Self {
        InvocationResult {
            ok: false,
            service_ms: 0.0,
            cold_start: false,
            error: Some(error.into()),
            class: OutcomeClass::Transport,
        }
    }

    /// A request refused by overload protection (gateway `429` or an open
    /// client-side circuit breaker) without consuming backend resources.
    pub fn shed(error: impl Into<String>) -> Self {
        InvocationResult {
            ok: false,
            service_ms: 0.0,
            cold_start: false,
            error: Some(error.into()),
            class: OutcomeClass::Shed,
        }
    }

    /// Effective outcome class: failures without an explicit classification
    /// (results serialized before `class` existed) count as app errors.
    pub fn outcome(&self) -> OutcomeClass {
        match (self.ok, self.class) {
            (true, _) => OutcomeClass::Ok,
            (false, OutcomeClass::Ok) => OutcomeClass::AppError,
            (false, class) => class,
        }
    }
}

/// A synchronous invocation sink.
///
/// `invoke` is called from many worker threads concurrently; implementations
/// must be `Send + Sync` and are expected to block for the invocation's
/// duration (the load generator is open-loop, so blocking a worker never
/// delays the request schedule).
pub trait Backend: Send + Sync {
    /// Serve one invocation.
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult;

    /// Optional human-readable name for reports.
    fn name(&self) -> &str {
        "backend"
    }
}

/// Serve one invocation with panic isolation: a panicking backend (e.g. a
/// workload kernel hitting a bug mid-replay) is recorded as an application
/// error instead of killing the thread that called it. The replayer's
/// workers and the gateway's handlers both call backends through here.
pub fn invoke_isolated<B: Backend + ?Sized>(
    backend: &B,
    req: &InvocationRequest,
) -> InvocationResult {
    match catch_unwind(AssertUnwindSafe(|| backend.invoke(req))) {
        Ok(result) => result,
        Err(payload) => InvocationResult::app_error(
            0.0,
            format!("backend panicked: {}", panic_message(payload)),
        ),
    }
}

/// Render a panic payload for the invocation's error message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sharing a backend between the replayer and a network gateway (or several
/// gateways) only needs an `Arc`: the trait object keeps working behind it.
impl<B: Backend + ?Sized> Backend for std::sync::Arc<B> {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        (**self).invoke(req)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A trivial backend that acknowledges instantly — for testing the
/// generator itself and for pacing-accuracy benchmarks.
#[derive(Debug, Default)]
pub struct NoopBackend;

impl Backend for NoopBackend {
    fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
        InvocationResult::success(0.0, false)
    }

    fn name(&self) -> &str {
        "noop"
    }
}

/// A backend that *executes the actual workload kernel* in the calling
/// worker thread — the "real workloads, really running" half of FaaSRail.
#[derive(Debug, Default)]
pub struct InProcessBackend;

impl Backend for InProcessBackend {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let start = std::time::Instant::now();
        std::hint::black_box(faasrail_workloads::kernels::execute(&req.input));
        InvocationResult::success(start.elapsed().as_secs_f64() * 1_000.0, false)
    }

    fn name(&self) -> &str {
        "in-process"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> InvocationRequest {
        InvocationRequest {
            workload: WorkloadId(0),
            input: WorkloadInput::Pyaes { bytes: 4096 },
            function_index: 0,
            scheduled_at_ms: 0,
            trace_id: 0xABCD,
        }
    }

    #[test]
    fn noop_is_instant_and_ok() {
        let r = NoopBackend.invoke(&req());
        assert!(r.ok);
        assert_eq!(r.service_ms, 0.0);
        assert!(!r.cold_start);
        assert_eq!(r.error, None);
        assert_eq!(r.outcome(), OutcomeClass::Ok);
    }

    #[test]
    fn in_process_reports_real_time() {
        let r = InProcessBackend.invoke(&req());
        assert!(r.ok);
        assert!(r.service_ms > 0.0);
    }

    #[test]
    fn arc_shared_backend_still_invokes() {
        let shared: std::sync::Arc<dyn Backend> = std::sync::Arc::new(NoopBackend);
        let r = shared.invoke(&req());
        assert!(r.ok);
        assert_eq!(shared.name(), "noop");
    }

    #[test]
    fn outcome_classification() {
        assert_eq!(InvocationResult::success(1.0, true).outcome(), OutcomeClass::Ok);
        assert_eq!(InvocationResult::app_error(1.0, "boom").outcome(), OutcomeClass::AppError);
        assert_eq!(InvocationResult::timeout("deadline").outcome(), OutcomeClass::Timeout);
        assert_eq!(InvocationResult::transport("refused").outcome(), OutcomeClass::Transport);
        assert_eq!(InvocationResult::shed("queue full").outcome(), OutcomeClass::Shed);
        // A pre-classification failure (ok=false, class absent → Ok) counts
        // as an application error.
        let legacy = InvocationResult {
            ok: false,
            service_ms: 0.0,
            cold_start: false,
            error: None,
            class: OutcomeClass::Ok,
        };
        assert_eq!(legacy.outcome(), OutcomeClass::AppError);
    }

    #[test]
    fn request_roundtrips_through_json() {
        let r = req();
        let json = serde_json::to_string(&r).unwrap();
        let back: InvocationRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);

        // A pre-tracing payload (no trace_id key) still deserializes, as
        // untraced.
        let legacy = r#"{"workload":0,"input":{"Pyaes":{"bytes":64}},"function_index":1,"scheduled_at_ms":2}"#;
        let back: InvocationRequest = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.trace_id, 0);
    }

    #[test]
    fn result_error_field_is_optional_on_the_wire() {
        // Success serializes without an `error` key at all.
        let ok = InvocationResult::success(2.5, false);
        let json = serde_json::to_string(&ok).unwrap();
        assert!(!json.contains("error"), "{json}");
        let back: InvocationResult = serde_json::from_str(&json).unwrap();
        assert_eq!(ok, back);

        // A pre-`error`/`class` payload still deserializes (defaults).
        let legacy = r#"{"ok":false,"service_ms":3.0,"cold_start":true}"#;
        let back: InvocationResult = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.error, None);
        assert_eq!(back.outcome(), OutcomeClass::AppError);

        // Failures carry their message and class.
        let t = InvocationResult::timeout("deadline exceeded");
        let back: InvocationResult =
            serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back.error.as_deref(), Some("deadline exceeded"));
        assert_eq!(back.outcome(), OutcomeClass::Timeout);
    }
}
