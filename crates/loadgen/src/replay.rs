//! The open-loop replayer.
//!
//! A pacer thread walks the time-ordered request trace and dispatches each
//! request at its scheduled instant (hybrid sleep/spin for sub-millisecond
//! accuracy); a pool of worker threads serves the dispatched requests
//! against the [`Backend`]. The generator is *open-loop*: a slow backend
//! never delays the schedule — requests queue, and the queueing shows up in
//! response times, exactly like load on a saturated FaaS gateway.
//!
//! Two hardening properties matter for replaying against research FaaS
//! stacks that crash and stall mid-experiment:
//!
//! * **panic isolation** — a backend (or workload kernel) that panics is
//!   caught per-invocation and recorded as an application error; the worker
//!   survives, the channel keeps draining, and the run still reports
//!   complete metrics instead of deadlocking or aborting;
//! * **graceful drain** — [`replay_until`] takes a stop flag: once set, the
//!   pacer stops dispatching, the workers drain everything already
//!   dispatched, and the partial [`RunMetrics`] (marked
//!   [`aborted`](RunMetrics::aborted)) are still merged and returned, so an
//!   interrupted experiment reports what actually happened.

use crate::backend::{Backend, InvocationRequest, InvocationResult};
use crate::metrics::RunMetrics;
use faasrail_core::RequestTrace;
use faasrail_telemetry::{
    EventSink, InvocationSpan, NullSink, Recorder, RunInfo, RunSummary, TelemetryEvent,
};
use faasrail_workloads::WorkloadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How dispatch instants are derived from the trace timestamps.
/// Serializable so a fleet coordinator can ship the pacing mode to its
/// agents inside a shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Pacing {
    /// Wall-clock replay; trace time divided by `compression`
    /// (`compression: 2.0` replays a 2-hour trace in 1 hour).
    RealTime { compression: f64 },
    /// Dispatch as fast as workers drain — for tests and simulators with
    /// their own clock.
    Unpaced,
    /// Closed-loop comparator: like [`Pacing::Unpaced`], but latency is
    /// measured from the moment a worker *picks the request up*, not from
    /// its scheduled dispatch — the classic coordinated-omission mistake.
    /// Provided so experiments can quantify how much an overloaded
    /// backend's queueing a closed-loop harness silently hides.
    ClosedLoop,
}

/// Replayer configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplayConfig {
    pub pacing: Pacing,
    /// Worker threads serving invocations.
    pub workers: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 8 }
    }
}

/// Observability hooks threaded through a replay. The default is inert
/// (null sink, no recorder), so un-instrumented replays pay nothing beyond
/// a couple of branch tests per invocation.
pub struct ReplayInstruments<'a> {
    /// Destination for the run's event stream: one `run_start`, one
    /// `invocation` span per dispatched request, one `run_end`.
    pub sink: &'a dyn EventSink,
    /// Optional live-metrics recorder. Worker `i` records into shard `i`
    /// and the pacer into shard `workers`, so a recorder with
    /// `workers + 1` shards is contention-free (any shard count still
    /// works — indices wrap).
    pub recorder: Option<&'a Recorder>,
    /// Optional live pacing-lag gauge, updated by the pacer on every
    /// real-time dispatch. Lets a supervisor (e.g. a fleet agent's
    /// progress pump) report how far behind schedule the replay runs
    /// without touching the lateness histogram mid-run.
    pub pace: Option<&'a PaceGauge>,
}

static NULL_SINK: NullSink = NullSink;

impl Default for ReplayInstruments<'_> {
    fn default() -> Self {
        ReplayInstruments { sink: &NULL_SINK, recorder: None, pace: None }
    }
}

/// Lock-free view of the pacer's current schedule lag. The pacer stores
/// each dispatch's lateness; readers poll the most recent and the maximum
/// seen. Microsecond granularity, saturating at `u64::MAX`.
#[derive(Debug, Default)]
pub struct PaceGauge {
    lag_us: std::sync::atomic::AtomicU64,
    max_lag_us: std::sync::atomic::AtomicU64,
}

impl PaceGauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one dispatch's lateness (seconds behind schedule).
    pub fn record_secs(&self, lateness_s: f64) {
        let us = (lateness_s.max(0.0) * 1e6).min(u64::MAX as f64) as u64;
        self.lag_us.store(us, Ordering::Relaxed);
        self.max_lag_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Most recent dispatch lateness, milliseconds.
    pub fn lag_ms(&self) -> u64 {
        self.lag_us.load(Ordering::Relaxed) / 1_000
    }

    /// Worst dispatch lateness seen this run, milliseconds.
    pub fn max_lag_ms(&self) -> u64 {
        self.max_lag_us.load(Ordering::Relaxed) / 1_000
    }
}

/// Where in trace time a replay resumes. A remainder trace handed to a
/// fleet survivor keeps its original `at_ms` stamps; `elapsed_ms` says how
/// much trace time has already passed fleet-wide, so requests scheduled at
/// or before it fire immediately — *recorded as late by exactly their
/// deficit* (coordinated-omission-correct: catch-up work is never dropped
/// and its lateness is never hidden) — while later requests fire at their
/// original schedule positions.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResumeSpec {
    /// Trace time already elapsed when this replay starts, milliseconds.
    pub elapsed_ms: u64,
}

struct Job {
    req: InvocationRequest,
    /// The instant the request was dispatched (for response-time
    /// accounting under real-time pacing).
    dispatched: Instant,
    /// Dispatch sequence number, for span identity.
    seq: u64,
    /// Scheduled fire instant, µs from run start (= actual dispatch when
    /// not pacing in real time).
    target_us: u64,
}

/// Microseconds from `t0` to `t`, clamped at zero.
fn us_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_micros() as u64
}

/// Hybrid wait: coarse sleep until ~1 ms before the target, then spin.
/// Sleeps are chunked so a raised stop flag is noticed within ~20 ms even
/// mid-gap; returns `false` if the wait was interrupted by the flag.
fn wait_until(target: Instant, stop: &AtomicBool) -> bool {
    loop {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let now = Instant::now();
        if now >= target {
            return true;
        }
        let remaining = target - now;
        if remaining > Duration::from_millis(2) {
            std::thread::sleep(
                (remaining - Duration::from_millis(1)).min(Duration::from_millis(20)),
            );
        } else {
            std::hint::spin_loop();
        }
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

/// Serve one invocation with panic isolation: a panicking backend (e.g. a
/// workload kernel hitting a bug mid-replay) is recorded as an application
/// error instead of killing the worker thread.
fn invoke_isolated<B: Backend>(backend: &B, req: &InvocationRequest) -> InvocationResult {
    match catch_unwind(AssertUnwindSafe(|| backend.invoke(req))) {
        Ok(result) => result,
        Err(payload) => InvocationResult::app_error(
            0.0,
            format!("backend panicked: {}", panic_message(payload)),
        ),
    }
}

/// Replay a request trace against a backend; returns merged metrics.
///
/// ```
/// use faasrail_core::{Request, RequestTrace};
/// use faasrail_loadgen::{replay, NoopBackend, Pacing, ReplayConfig};
/// use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
/// let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
/// let trace = RequestTrace {
///     duration_minutes: 1,
///     requests: (0..100)
///         .map(|i| Request { at_ms: i, workload: WorkloadId(7), function_index: 0 })
///         .collect(),
/// };
/// let cfg = ReplayConfig { pacing: Pacing::Unpaced, workers: 2 };
/// let metrics = replay(&trace, &pool, &NoopBackend, &cfg);
/// assert_eq!(metrics.completed, 100);
/// ```
///
/// # Panics
/// Panics on a zero-worker configuration or a non-positive compression.
pub fn replay<B: Backend>(
    trace: &RequestTrace,
    pool: &WorkloadPool,
    backend: &B,
    cfg: &ReplayConfig,
) -> RunMetrics {
    replay_until(trace, pool, backend, cfg, &AtomicBool::new(false))
}

/// [`replay`], with a graceful-stop flag.
///
/// When `stop` becomes `true` (set from any thread — a signal handler, a
/// watchdog, an experiment controller), the pacer stops dispatching new
/// requests, the workers drain everything already in flight, and the
/// metrics for the dispatched prefix are merged and returned with
/// [`RunMetrics::aborted`] set. Nothing already dispatched is lost:
/// `completed + errors == issued` holds for the partial run too.
pub fn replay_until<B: Backend>(
    trace: &RequestTrace,
    pool: &WorkloadPool,
    backend: &B,
    cfg: &ReplayConfig,
    stop: &AtomicBool,
) -> RunMetrics {
    replay_observed(trace, pool, backend, cfg, stop, &ReplayInstruments::default())
}

/// [`replay_until`], with observability: every dispatched request is
/// emitted as an [`InvocationSpan`] (bracketed by `run_start`/`run_end`
/// events) through `inst.sink`, and, when present, `inst.recorder` is
/// updated on the hot path for live windowed metrics. The returned
/// [`RunMetrics`] are identical to an un-instrumented run's.
pub fn replay_observed<B: Backend>(
    trace: &RequestTrace,
    pool: &WorkloadPool,
    backend: &B,
    cfg: &ReplayConfig,
    stop: &AtomicBool,
    inst: &ReplayInstruments<'_>,
) -> RunMetrics {
    replay_resumed(trace, pool, backend, cfg, stop, inst, &ResumeSpec::default())
}

/// [`replay_observed`], resuming mid-schedule. With `resume.elapsed_ms ==
/// 0` this is exactly `replay_observed`. With a positive elapsed time,
/// requests already due dispatch immediately and record their true
/// lateness (their schedule deficit divided by the compression factor),
/// and requests still in the future fire at original schedule positions —
/// the pacing a fleet survivor needs to take over a dead agent's
/// remaining minutes without compressing or dropping the backlog.
pub fn replay_resumed<B: Backend>(
    trace: &RequestTrace,
    pool: &WorkloadPool,
    backend: &B,
    cfg: &ReplayConfig,
    stop: &AtomicBool,
    inst: &ReplayInstruments<'_>,
    resume: &ResumeSpec,
) -> RunMetrics {
    assert!(cfg.workers > 0, "need at least one worker");
    if let Pacing::RealTime { compression } = cfg.pacing {
        assert!(compression > 0.0, "compression must be positive");
    }

    let (pacing_name, compression) = match cfg.pacing {
        Pacing::RealTime { compression } => ("realtime", compression),
        Pacing::Unpaced => ("unpaced", 1.0),
        Pacing::ClosedLoop => ("closed-loop", 1.0),
    };
    inst.sink.emit(&TelemetryEvent::RunStart(RunInfo {
        requests: trace.requests.len() as u64,
        duration_minutes: trace.duration_minutes as u64,
        workers: cfg.workers as u64,
        pacing: pacing_name.to_string(),
        compression,
    }));

    // A fresh run id per replay keeps trace ids collision-resistant across
    // concurrent replayers hitting one gateway, without any coordination.
    let run_id = {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ ((std::process::id() as u64) << 32)
    };

    let start = Instant::now();
    // An unpaced run queues its whole trace within milliseconds. `std`'s
    // channel holds the backlog in fixed-size blocks, so memory follows
    // the depth; a ring that doubles takes a second queue's worth the
    // moment the backlog crosses a power of two, which a few percent of
    // backend speed decides. The receiver is not `Clone`: one worker waits
    // for its job under the lock, the others wait for the lock. The
    // workers own it between them, so once the last is gone `send` fails.
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    let metrics = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.workers);
        for worker in 0..cfg.workers {
            let rx = Arc::clone(&rx);
            handles.push(scope.spawn(move || {
                let mut local = RunMetrics::new();
                let from_pickup = matches!(cfg.pacing, Pacing::ClosedLoop);
                let next = || rx.lock().unwrap_or_else(PoisonError::into_inner).recv().ok();
                while let Some(job) = next() {
                    let picked_up = Instant::now();
                    let result = invoke_isolated(backend, &job.req);
                    let completed = Instant::now();
                    let response_s = if from_pickup {
                        completed.duration_since(picked_up).as_secs_f64()
                    } else {
                        completed.duration_since(job.dispatched).as_secs_f64()
                    };
                    let response_recorded = response_s.max(result.service_ms / 1_000.0);
                    local.record_outcome(&result);
                    if result.cold_start {
                        local.cold_starts += 1;
                    }
                    local.response.record(response_recorded);
                    local.service.record(result.service_ms / 1_000.0);
                    let kind = job.req.input.kind();
                    *local.per_kind.entry(kind).or_insert(0) += 1;
                    if let Some(recorder) = inst.recorder {
                        recorder.record_outcome(
                            worker,
                            result.outcome(),
                            response_recorded,
                            result.cold_start,
                        );
                    }
                    inst.sink.emit(&TelemetryEvent::Invocation(InvocationSpan {
                        trace_id: job.req.trace_id,
                        seq: job.seq,
                        workload: job.req.workload.0 as u64,
                        function_index: job.req.function_index,
                        scheduled_ms: job.req.scheduled_at_ms,
                        target_us: job.target_us,
                        dispatched_us: us_since(start, job.dispatched),
                        picked_up_us: us_since(start, picked_up),
                        completed_us: us_since(start, completed),
                        service_ms: result.service_ms,
                        outcome: result.outcome(),
                        cold_start: result.cold_start,
                        error: result.error,
                    }));
                }
                local
            }));
        }
        drop(rx);

        // Pacer (this thread). `issued` counts only what was actually
        // dispatched, so a stopped run reports its true prefix.
        let pacer_shard = cfg.workers;
        let mut pacer = RunMetrics::new();
        for (seq, r) in trace.requests.iter().enumerate() {
            let seq = seq as u64;
            if stop.load(Ordering::Relaxed) {
                pacer.aborted = true;
                break;
            }
            let workload = pool.get(r.workload).expect("request workload in pool");
            let mut target_us = None;
            if let Pacing::RealTime { compression } = cfg.pacing {
                // Offset from the replay's own start on the *resumed*
                // timeline; non-positive means the request was already due
                // when this replay began.
                let offset_ms = r.at_ms as i64 - resume.elapsed_ms as i64;
                let lateness_s = if offset_ms > 0 {
                    let target =
                        start + Duration::from_secs_f64(offset_ms as f64 / 1_000.0 / compression);
                    if !wait_until(target, stop) {
                        pacer.aborted = true;
                        break;
                    }
                    target_us = Some(us_since(start, target));
                    (Instant::now().saturating_duration_since(target)).as_secs_f64()
                } else {
                    // Catch-up dispatch: fire now, but account the full
                    // deficit as lateness — never silently re-time the
                    // schedule.
                    target_us = Some(0);
                    (-offset_ms) as f64 / 1_000.0 / compression + start.elapsed().as_secs_f64()
                };
                pacer.lateness.record(lateness_s);
                if let Some(gauge) = inst.pace {
                    gauge.record_secs(lateness_s);
                }
            }
            pacer.record_issued(r.at_ms);
            if let Some(recorder) = inst.recorder {
                recorder.record_issued(pacer_shard);
            }
            let dispatched = Instant::now();
            let job = Job {
                req: InvocationRequest {
                    workload: r.workload,
                    input: workload.input,
                    function_index: r.function_index,
                    scheduled_at_ms: r.at_ms,
                    trace_id: faasrail_telemetry::derive_trace_id(run_id, seq),
                },
                dispatched,
                seq,
                // Unpaced/closed-loop dispatch is its own schedule: zero
                // lateness by construction.
                target_us: target_us.unwrap_or_else(|| us_since(start, dispatched)),
            };
            if tx.send(job).is_err() {
                break; // all workers died; stop issuing
            }
        }
        drop(tx); // workers drain everything dispatched, then exit

        for h in handles {
            pacer.merge(&h.join().expect("worker panicked"));
        }
        pacer
    });

    inst.sink.emit(&TelemetryEvent::RunEnd(RunSummary {
        issued: metrics.issued,
        completed: metrics.completed,
        errors: metrics.errors,
        aborted: metrics.aborted,
        wall_us: us_since(start, Instant::now()),
    }));
    inst.sink.flush();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{InvocationResult, NoopBackend, OutcomeClass};
    use faasrail_core::Request;
    use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_trace(n: u64, spacing_ms: u64) -> RequestTrace {
        RequestTrace {
            duration_minutes: 1,
            requests: (0..n)
                .map(|i| Request {
                    at_ms: i * spacing_ms,
                    workload: WorkloadId(7), // vanilla pyaes
                    function_index: 0,
                })
                .collect(),
        }
    }

    fn vanilla_pool() -> WorkloadPool {
        WorkloadPool::vanilla(&CostModel::default_calibration())
    }

    #[test]
    fn unpaced_replay_serves_everything() {
        let trace = tiny_trace(200, 1);
        let pool = vanilla_pool();
        let m = replay(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 4 },
        );
        assert_eq!(m.issued, 200);
        assert_eq!(m.completed, 200);
        assert_eq!(m.errors, 0);
        assert!(!m.aborted);
        assert_eq!(m.per_kind.values().sum::<u64>(), 200);
    }

    #[test]
    // Re-enabled (was #[ignore]d as timing-sensitive): the tolerance is now
    // CI-grade — tens of milliseconds of median lateness, not sub-2ms — so
    // the test checks that pacing is *scheduled* rather than immediate
    // without asserting quiet-hardware accuracy. Sub-millisecond accuracy
    // on quiet machines is still observable via the recorded lateness
    // histogram in any real run.
    fn realtime_pacing_is_accurate() {
        // 50 requests spaced 4 ms apart: total 200 ms of schedule. The
        // replay must take at least that long (it cannot finish early), and
        // median lateness must stay within a loaded-CI-runner bound.
        let trace = tiny_trace(50, 4);
        let pool = vanilla_pool();
        let start = Instant::now();
        let m = replay(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 2 },
        );
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(190), "finished too early: {elapsed:?}");
        assert_eq!(m.issued, 50);
        let p50_lateness = m.lateness.quantile(0.5);
        assert!(p50_lateness < 0.050, "median lateness {p50_lateness}s");
    }

    #[test]
    fn compression_speeds_up_replay() {
        let trace = tiny_trace(50, 10); // 500 ms of trace time
        let pool = vanilla_pool();
        let start = Instant::now();
        replay(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::RealTime { compression: 10.0 }, workers: 2 },
        );
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(300), "compression ignored: {elapsed:?}");
    }

    #[test]
    fn errors_and_cold_starts_counted() {
        struct Flaky(AtomicU64);
        impl Backend for Flaky {
            fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                let n = self.0.fetch_add(1, Ordering::Relaxed);
                if n.is_multiple_of(2) {
                    InvocationResult::success(0.1, n.is_multiple_of(4))
                } else {
                    InvocationResult::app_error(0.1, "odd request rejected")
                }
            }
        }
        let trace = tiny_trace(100, 0);
        let pool = vanilla_pool();
        let m = replay(
            &trace,
            &pool,
            &Flaky(AtomicU64::new(0)),
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 3 },
        );
        assert_eq!(m.completed + m.errors, 100);
        assert_eq!(m.completed, 50);
        assert_eq!(m.cold_starts, 25);
        // Failures are classified: all app errors here, no transport path.
        assert_eq!(m.app_errors, 50);
        assert_eq!(m.timeouts, 0);
        assert_eq!(m.transport_errors, 0);
    }

    #[test]
    fn panicking_backend_is_an_app_error_not_an_abort() {
        // Every 5th invocation panics mid-kernel. The run must complete,
        // classify each panic as an application error, and lose nothing.
        struct Exploding(AtomicU64);
        impl Backend for Exploding {
            fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                let n = self.0.fetch_add(1, Ordering::Relaxed);
                if n % 5 == 4 {
                    panic!("kernel assertion failed on invocation {n}");
                }
                InvocationResult::success(0.1, false)
            }
        }
        let trace = tiny_trace(100, 0);
        let pool = vanilla_pool();
        let m = replay(
            &trace,
            &pool,
            &Exploding(AtomicU64::new(0)),
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 4 },
        );
        assert_eq!(m.issued, 100);
        assert_eq!(m.completed, 80);
        assert_eq!(m.errors, 20);
        assert_eq!(m.app_errors, 20, "panics classify as app errors");
        assert_eq!(m.completed + m.errors, m.issued, "nothing lost to panics");
        assert!(!m.aborted);
    }

    #[test]
    fn panic_message_is_preserved() {
        struct Bomb;
        impl Backend for Bomb {
            fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                panic!("boom with detail");
            }
        }
        let r = invoke_isolated(
            &Bomb,
            &InvocationRequest {
                workload: WorkloadId(7),
                input: faasrail_workloads::WorkloadInput::Pyaes { bytes: 16 },
                function_index: 0,
                scheduled_at_ms: 0,
                trace_id: 0,
            },
        );
        assert!(!r.ok);
        assert_eq!(r.outcome(), OutcomeClass::AppError);
        let msg = r.error.as_deref().unwrap_or("");
        assert!(msg.contains("backend panicked"), "{msg}");
        assert!(msg.contains("boom with detail"), "{msg}");
    }

    #[test]
    fn stop_flag_drains_and_reports_partial_metrics() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // A 100-second schedule that is stopped after ~60 ms: the replay
        // must return promptly with the dispatched prefix fully accounted.
        let trace = tiny_trace(10_000, 10);
        let pool = vanilla_pool();
        let stop = Arc::new(AtomicBool::new(false));
        let stopper = Arc::clone(&stop);
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            stopper.store(true, Ordering::SeqCst);
        });
        let start = Instant::now();
        let m = replay_until(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 2 },
            &stop,
        );
        let elapsed = start.elapsed();
        killer.join().unwrap();
        assert!(m.aborted, "stop flag must mark the run aborted");
        assert!(m.issued > 0, "something was dispatched before the stop");
        assert!(m.issued < 10_000, "the stop prevented the full schedule");
        assert_eq!(m.completed + m.errors, m.issued, "drained prefix fully accounted");
        assert!(elapsed < Duration::from_secs(10), "stop must not wait out the schedule");
    }

    #[test]
    fn unset_stop_flag_changes_nothing() {
        let trace = tiny_trace(50, 0);
        let pool = vanilla_pool();
        let stop = AtomicBool::new(false);
        let m = replay_until(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
            &stop,
        );
        assert_eq!(m.issued, 50);
        assert_eq!(m.completed, 50);
        assert!(!m.aborted);
    }

    #[test]
    fn open_loop_does_not_stall_on_slow_backend() {
        // A backend slower than the request rate must not delay dispatch:
        // with 1 worker and 20 ms service on a 1 ms schedule, issuance still
        // finishes on schedule (~50 ms), while completions trail behind.
        struct Slow;
        impl Backend for Slow {
            fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                std::thread::sleep(Duration::from_millis(5));
                InvocationResult::success(5.0, false)
            }
        }
        let trace = tiny_trace(40, 1);
        let pool = vanilla_pool();
        let m = replay(
            &trace,
            &pool,
            &Slow,
            &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 1 },
        );
        // All served eventually.
        assert_eq!(m.completed, 40);
        // Queueing must be visible in response times: the last requests
        // waited roughly 40×5 ms behind one worker.
        let p99 = m.response.quantile(0.99);
        assert!(p99 > 0.05, "p99 response {p99}s shows no queueing");
    }

    #[test]
    fn issued_per_minute_matches_schedule() {
        // Requests scheduled across 3 experiment minutes must land in the
        // right buckets of the achieved-rate series.
        let requests = vec![
            Request { at_ms: 0, workload: WorkloadId(7), function_index: 0 },
            Request { at_ms: 59_999, workload: WorkloadId(7), function_index: 0 },
            Request { at_ms: 60_000, workload: WorkloadId(7), function_index: 0 },
            Request { at_ms: 125_000, workload: WorkloadId(7), function_index: 0 },
        ];
        let trace = RequestTrace { duration_minutes: 3, requests };
        let pool = vanilla_pool();
        let m = replay(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
        );
        assert_eq!(m.issued_per_minute, vec![2, 1, 1]);
        assert_eq!(m.issued_per_minute.iter().sum::<u64>(), m.issued);
    }

    #[test]
    fn resumed_replay_catches_up_without_dropping_or_reordering() {
        // 40 requests spaced 10 ms apart; resume at 200 ms into trace
        // time. The first ~21 are overdue and must fire immediately (the
        // whole replay finishes well before the 400 ms the full schedule
        // would need), and nothing is dropped.
        let trace = tiny_trace(40, 10);
        let pool = vanilla_pool();
        let gauge = PaceGauge::new();
        let inst = ReplayInstruments { sink: &NULL_SINK, recorder: None, pace: Some(&gauge) };
        let start = Instant::now();
        let m = replay_resumed(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 2 },
            &AtomicBool::new(false),
            &inst,
            &ResumeSpec { elapsed_ms: 200 },
        );
        let elapsed = start.elapsed();
        assert_eq!(m.issued, 40, "catch-up must not drop overdue requests");
        assert_eq!(m.completed, 40);
        // Only the post-resume tail (at_ms in 210..=390) is paced: ~190 ms.
        assert!(elapsed < Duration::from_millis(390), "resume must skip elapsed time: {elapsed:?}");
        assert!(elapsed >= Duration::from_millis(180), "future requests stay on schedule");
        // Coordinated-omission correctness: the overdue prefix records its
        // full deficit as lateness (at_ms=0 was 200 ms overdue).
        assert!(m.lateness.quantile(0.999) >= 0.15, "deficit must be recorded as lateness");
        assert!(gauge.max_lag_ms() >= 150, "gauge saw the catch-up backlog");
    }

    #[test]
    fn resume_at_zero_is_plain_observed_replay() {
        let trace = tiny_trace(30, 1);
        let pool = vanilla_pool();
        let m = replay_resumed(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::RealTime { compression: 10.0 }, workers: 2 },
            &AtomicBool::new(false),
            &ReplayInstruments::default(),
            &ResumeSpec::default(),
        );
        assert_eq!(m.issued, 30);
        assert_eq!(m.completed, 30);
        assert!(!m.aborted);
    }

    #[test]
    fn pace_gauge_tracks_latest_and_max() {
        let g = PaceGauge::new();
        assert_eq!(g.lag_ms(), 0);
        g.record_secs(0.250);
        g.record_secs(0.010);
        assert_eq!(g.lag_ms(), 10, "latest wins");
        assert_eq!(g.max_lag_ms(), 250, "max is sticky");
        g.record_secs(-1.0);
        assert_eq!(g.lag_ms(), 0, "negative lateness clamps to zero");
    }

    #[test]
    fn closed_loop_hides_queueing_open_loop_exposes() {
        struct Slow;
        impl Backend for Slow {
            fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                std::thread::sleep(Duration::from_millis(4));
                InvocationResult::success(4.0, false)
            }
        }
        let trace = tiny_trace(60, 0); // all due at t=0: 1 worker is 240 ms behind
        let pool = vanilla_pool();
        let open =
            replay(&trace, &pool, &Slow, &ReplayConfig { pacing: Pacing::Unpaced, workers: 1 });
        let closed =
            replay(&trace, &pool, &Slow, &ReplayConfig { pacing: Pacing::ClosedLoop, workers: 1 });
        // Open loop counts the queue wait; closed loop reports ~service time
        // — the coordinated-omission gap.
        let open_p99 = open.response.quantile(0.99);
        let closed_p99 = closed.response.quantile(0.99);
        assert!(
            open_p99 > closed_p99 * 5.0,
            "open p99 {open_p99}s should dwarf closed p99 {closed_p99}s"
        );
        assert!(closed_p99 < 0.02, "closed loop should report near-service time");
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let trace = tiny_trace(1, 1);
        let pool = vanilla_pool();
        replay(&trace, &pool, &NoopBackend, &ReplayConfig { pacing: Pacing::Unpaced, workers: 0 });
    }

    #[test]
    fn observed_replay_emits_one_span_per_request() {
        use faasrail_telemetry::{RingSink, TelemetryEvent};
        struct Flaky(AtomicU64);
        impl Backend for Flaky {
            fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                if self.0.fetch_add(1, Ordering::Relaxed).is_multiple_of(3) {
                    InvocationResult::timeout("deadline")
                } else {
                    InvocationResult::success(0.1, false)
                }
            }
        }
        let trace = tiny_trace(90, 0);
        let pool = vanilla_pool();
        let sink = RingSink::with_capacity(200);
        let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };
        let m = replay_observed(
            &trace,
            &pool,
            &Flaky(AtomicU64::new(0)),
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 3 },
            &AtomicBool::new(false),
            &inst,
        );

        let events = sink.events();
        assert!(matches!(events.first(), Some(TelemetryEvent::RunStart(_))));
        assert!(matches!(events.last(), Some(TelemetryEvent::RunEnd(_))));
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Invocation(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len() as u64, m.issued);
        // Sequence numbers are a permutation of 0..issued.
        let mut seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..m.issued).collect::<Vec<_>>());
        // The span outcome partition matches the final metrics exactly.
        let ok = spans.iter().filter(|s| s.outcome == OutcomeClass::Ok).count() as u64;
        let timeouts = spans.iter().filter(|s| s.outcome == OutcomeClass::Timeout).count() as u64;
        assert_eq!(ok, m.completed);
        assert_eq!(timeouts, m.timeouts);
        // Failed spans carry the error message; successful ones don't.
        assert!(spans.iter().all(|s| (s.outcome == OutcomeClass::Ok) == s.error.is_none()));
        // Stage timestamps are ordered for every span.
        for s in &spans {
            assert!(s.dispatched_us <= s.picked_up_us, "{s:?}");
            assert!(s.picked_up_us <= s.completed_us, "{s:?}");
        }
        if let Some(TelemetryEvent::RunEnd(end)) = events.last() {
            assert_eq!(end.issued, m.issued);
            assert_eq!(end.completed, m.completed);
            assert_eq!(end.errors, m.errors);
        }
    }

    #[test]
    fn observed_replay_stamps_unique_nonzero_trace_ids() {
        use faasrail_telemetry::{RingSink, TelemetryEvent};
        let trace = tiny_trace(80, 0);
        let pool = vanilla_pool();
        let sink = RingSink::with_capacity(200);
        let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };
        replay_observed(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 3 },
            &AtomicBool::new(false),
            &inst,
        );
        let mut ids: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Invocation(s) => Some(s.trace_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 80);
        assert!(ids.iter().all(|&id| id != 0), "every span must be traced");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 80, "trace ids must be unique within a run");
    }

    #[test]
    fn killed_replay_leaves_a_fully_parseable_event_log() {
        use faasrail_telemetry::{parse_jsonl, JsonlSink, TelemetryEvent};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // Regression test for truncated logs on graceful stop: a
        // 100-second schedule is stopped after ~50 ms; the JSONL log must
        // parse to the last emitted span — span count == issued, closed by
        // an aborted run_end — because `replay_observed` flushes the sink
        // on drain (and `JsonlSink` flushes again on drop).
        let path = std::env::temp_dir()
            .join(format!("faasrail-killed-replay-{}.jsonl", std::process::id()));
        let trace = tiny_trace(10_000, 10);
        let pool = vanilla_pool();
        let stop = Arc::new(AtomicBool::new(false));
        let stopper = Arc::clone(&stop);
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            stopper.store(true, Ordering::SeqCst);
        });
        let m = {
            let sink = JsonlSink::create(&path).unwrap();
            let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };
            replay_observed(
                &trace,
                &pool,
                &NoopBackend,
                &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 2 },
                &stop,
                &inst,
            )
            // sink dropped here, before the log is read back
        };
        killer.join().unwrap();
        assert!(m.aborted);
        assert!(m.issued < 10_000, "stop must truncate the run");

        let events =
            parse_jsonl(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(events.first(), Some(TelemetryEvent::RunStart(_))));
        let spans =
            events.iter().filter(|e| matches!(e, TelemetryEvent::Invocation(_))).count() as u64;
        assert_eq!(spans, m.issued, "log must contain every dispatched span");
        match events.last() {
            Some(TelemetryEvent::RunEnd(end)) => {
                assert!(end.aborted);
                assert_eq!(end.issued, m.issued);
            }
            other => panic!("log must close with run_end, got {other:?}"),
        }
    }

    #[test]
    fn observed_replay_metrics_match_plain_replay_counters() {
        use faasrail_telemetry::Recorder;
        let trace = tiny_trace(120, 0);
        let pool = vanilla_pool();
        let recorder = Recorder::new(3); // workers + 1
        let inst = ReplayInstruments {
            sink: &faasrail_telemetry::NullSink,
            recorder: Some(&recorder),
            pace: None,
        };
        let m = replay_observed(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
            &AtomicBool::new(false),
            &inst,
        );
        let snap = recorder.snapshot();
        assert_eq!(snap.issued, m.issued);
        assert_eq!(snap.completed, m.completed);
        assert_eq!(snap.errors_total(), m.errors);
        assert_eq!(snap.response.total(), m.response.total());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // Windowed snapshots are lossless: deltas between any chain of
        // snapshots taken *while the replay runs* telescope to the final
        // cumulative snapshot, which in turn equals the RunMetrics counters.
        #[test]
        fn recorder_window_deltas_sum_to_run_metrics(n in 1u64..150, err_mod in 2u64..6) {
            use faasrail_telemetry::{Recorder, Snapshot};
            use std::sync::Arc;

            struct Flaky(AtomicU64, u64);
            impl Backend for Flaky {
                fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
                    let i = self.0.fetch_add(1, Ordering::Relaxed);
                    if i.is_multiple_of(self.1) {
                        InvocationResult::transport("refused")
                    } else {
                        InvocationResult::success(0.05, i.is_multiple_of(7))
                    }
                }
            }

            let trace = tiny_trace(n, 0);
            let pool = vanilla_pool();
            let recorder = Arc::new(Recorder::new(3));
            let sampling = Arc::new(AtomicBool::new(true));

            let sampler = {
                let recorder = Arc::clone(&recorder);
                let sampling = Arc::clone(&sampling);
                std::thread::spawn(move || {
                    let mut snaps = Vec::new();
                    while sampling.load(Ordering::Relaxed) {
                        snaps.push(recorder.snapshot());
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    snaps
                })
            };

            let inst = ReplayInstruments {
                sink: &faasrail_telemetry::NullSink,
                recorder: Some(&recorder),
                pace: None,
            };
            let m = replay_observed(
                &trace,
                &pool,
                &Flaky(AtomicU64::new(0), err_mod),
                &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
                &AtomicBool::new(false),
                &inst,
            );
            sampling.store(false, Ordering::Relaxed);
            let mut snaps = sampler.join().unwrap();
            snaps.push(recorder.snapshot()); // final cumulative state

            // Sum the per-window deltas across the whole snapshot chain.
            let mut acc = Snapshot::default();
            let mut prev = Snapshot::default();
            for s in &snaps {
                let w = s.delta(&prev);
                acc.issued += w.issued;
                acc.completed += w.completed;
                for (a, b) in acc.errors.iter_mut().zip(&w.errors) { *a += b; }
                acc.cold_starts += w.cold_starts;
                acc.response.merge(&w.response);
                prev = s.clone();
            }

            prop_assert_eq!(acc.issued, m.issued);
            prop_assert_eq!(acc.completed, m.completed);
            prop_assert_eq!(acc.errors_total(), m.errors);
            prop_assert_eq!(acc.errors[2], m.transport_errors);
            prop_assert_eq!(acc.cold_starts, m.cold_starts);
            prop_assert_eq!(acc.response.total(), m.response.total());
        }
    }
}
