//! The open-loop replayer.
//!
//! A pool of worker threads replays a time-ordered request trace against a
//! [`Backend`]. Under every [`Pacing`] the job source is the trace itself:
//! each worker claims the next request through one atomic cursor, waits
//! for the request's due instant if it has not come, and serves it. The
//! generator is *open-loop*: a slow backend never delays the schedule —
//! a request nobody is free to claim waits, and the wait shows up in its
//! response time, exactly like load on a saturated FaaS gateway.
//!
//! The claim rules:
//!
//! * **due instant** — `start + offset / compression` under
//!   [`Pacing::RealTime`], the offset clamped at 0 for a resumed replay;
//!   the replay's start under [`Pacing::Unpaced`]; the claim instant under
//!   [`Pacing::ClosedLoop`];
//! * **claimed before it is due** — the worker sleeps until it is due (no
//!   lock held, no CPU), and the request is dispatched and picked up at the
//!   wake instant; its lateness is wake − due;
//! * **claimed at or after it is due** — it was dispatched at the due
//!   instant and picked up at the claim, so its response time still runs
//!   from when it was due and the time it waited for a busy worker is
//!   queue wait; its lateness is the resumed schedule's deficit, 0 for a
//!   request that was not overdue when the replay began.
//!
//! Two hardening properties matter for replaying against research FaaS
//! stacks that crash and stall mid-experiment:
//!
//! * **panic isolation** — a backend (or workload kernel) that panics is
//!   caught per-invocation and recorded as an application error; the worker
//!   survives, the replay keeps draining, and the run still reports
//!   complete metrics instead of deadlocking or aborting;
//! * **graceful stop** — [`replay_observed`]'s `stop` flag: once set, no
//!   request is claimed any more and a claimant's wait is cut short, the
//!   workers finish the requests in their hands, and the partial
//!   [`RunMetrics`] (marked [`aborted`](RunMetrics::aborted)) are still
//!   merged and returned, so an interrupted experiment reports what
//!   actually happened.

use crate::backend::{invoke_isolated, Backend, InvocationRequest};
use crate::metrics::RunMetrics;
use faasrail_core::{Request, RequestTrace};
use faasrail_telemetry::{
    EventSink, InvocationSpan, NullSink, Recorder, RunInfo, RunSummary, TelemetryEvent,
};
use faasrail_workloads::WorkloadPool;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How due instants are derived from the trace timestamps.
/// Serializable so a fleet coordinator can ship the pacing mode to its
/// agents inside a shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Pacing {
    /// Wall-clock replay; trace time divided by `compression`
    /// (`compression: 2.0` replays a 2-hour trace in 1 hour).
    RealTime { compression: f64 },
    /// Drain: the whole trace is due, and dispatched, at the replay's
    /// start, and the workers claim it in trace order as fast as they
    /// finish — for tests, throughput runs and simulators with their own
    /// clock. A span's `target_us` and `dispatched_us` are 0, so its queue
    /// wait is its pickup instant and its response time runs from the
    /// start.
    Unpaced,
    /// Closed-loop comparator: a drain like [`Pacing::Unpaced`], but a
    /// request counts as dispatched when a worker *picks it up*, so latency
    /// is measured from there, not from when it was due — the classic
    /// coordinated-omission mistake. A span's `target_us` and
    /// `dispatched_us` equal its `picked_up_us`. Provided so experiments can
    /// quantify how much an overloaded backend's queueing a closed-loop
    /// harness silently hides.
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
    /// `invocation` span per issued request, one `run_end`.
    pub sink: &'a dyn EventSink,
    /// Optional live-metrics recorder. Worker `i` counts what it issues
    /// and serves into shard `i`, so a recorder with `workers` shards is
    /// contention-free (any shard count still works — indices wrap).
    pub recorder: Option<&'a Recorder>,
    /// Optional live pacing-lag gauge, updated by the claiming worker on
    /// every real-time dispatch. Lets a supervisor (e.g. a fleet agent's
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

/// Lock-free view of a real-time replay's current schedule lag. Each
/// dispatch stores its lateness; readers poll the most recent and the
/// maximum seen. Microsecond granularity, saturating at `u64::MAX`.
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

/// One claimed request in a worker's hands.
struct Job {
    req: InvocationRequest,
    /// Sequence number (the request's index in the trace), for span
    /// identity.
    seq: u64,
    /// Due instant, µs from run start.
    target_us: u64,
    /// The instant the request counts as dispatched; its response time
    /// runs from here.
    dispatched: Instant,
    /// The instant its worker took it up.
    picked_up: Instant,
}

/// Microseconds from `t0` to `t`, clamped at zero.
fn us_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_micros() as u64
}

/// Sleep until `target`, at most 20 ms at a time so a raised stop flag is
/// noticed within 20 ms even mid-gap; returns `false` if the flag cut the
/// wait short. The waiting worker never holds its CPU, and its timer slack
/// ([`tighten_timer_slack`]) wakes it at the instant asked for.
fn wait_until(target: Instant, stop: &AtomicBool) -> bool {
    loop {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let now = Instant::now();
        if now >= target {
            return true;
        }
        std::thread::sleep((target - now).min(Duration::from_millis(20)));
    }
}

/// Lower the calling thread's timer slack to 1 ns, so its timed sleeps end
/// when due instead of up to the default 50 µs later (0 would restore the
/// default). It acts on the calling thread alone; off Linux it does nothing.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        // SAFETY: PR_SET_TIMERSLACK (29) reads one integer and sets no memory.
        unsafe { prctl(29, 1 as c_ulong) };
    }
}

/// The worker body: serve each job `next` yields, record it into the
/// worker's own metrics and recorder shard, and emit its span. `next` gets
/// the worker's metrics to count what it claims.
fn serve<B: Backend>(
    backend: &B,
    inst: &ReplayInstruments<'_>,
    start: Instant,
    worker: usize,
    mut next: impl FnMut(&mut RunMetrics) -> Option<Job>,
) -> RunMetrics {
    let mut local = RunMetrics::new();
    while let Some(job) = next(&mut local) {
        let result = invoke_isolated(backend, &job.req);
        let completed = Instant::now();
        let response_s = completed.duration_since(job.dispatched).as_secs_f64();
        let response_recorded = response_s.max(result.service_ms / 1_000.0);
        local.record_outcome(&result);
        if result.cold_start {
            local.cold_starts += 1;
        }
        local.response.record(response_recorded);
        local.service.record(result.service_ms / 1_000.0);
        *local.per_kind.entry(job.req.input.kind()).or_insert(0) += 1;
        if let Some(recorder) = inst.recorder {
            recorder.record_outcome(worker, result.outcome(), response_recorded, result.cold_start);
        }
        inst.sink.emit(&TelemetryEvent::Invocation(InvocationSpan {
            trace_id: job.req.trace_id,
            seq: job.seq,
            workload: job.req.workload.0 as u64,
            function_index: job.req.function_index,
            scheduled_ms: job.req.scheduled_at_ms,
            target_us: job.target_us,
            dispatched_us: us_since(start, job.dispatched),
            picked_up_us: us_since(start, job.picked_up),
            completed_us: us_since(start, completed),
            service_ms: result.service_ms,
            outcome: result.outcome(),
            cold_start: result.cold_start,
            error: result.error,
        }));
    }
    local
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
    let stop = AtomicBool::new(false);
    replay_observed(trace, pool, backend, cfg, &stop, &ReplayInstruments::default())
}

/// [`replay`], with a graceful-stop flag and observability.
///
/// When `stop` becomes `true` (set from any thread — a signal handler, a
/// watchdog, an experiment controller), no new request is issued: every
/// worker checks the flag before it claims its next request, and a worker
/// waiting for its claimed request to come due gives it up unissued. The
/// workers finish the requests in their hands, and the metrics for that
/// prefix are merged and returned with [`RunMetrics::aborted`] set exactly
/// when requests were left unissued. Nothing issued is lost:
/// `completed + errors == issued` holds for the partial run too.
///
/// Every issued request is emitted as an [`InvocationSpan`] (bracketed
/// by `run_start`/`run_end` events) through `inst.sink`, and, when present,
/// `inst.recorder` is updated on the hot path for live windowed metrics.
/// The returned [`RunMetrics`] are identical to an un-instrumented run's.
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
/// requests already due are dispatched at the start and record their true
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

    let request = |seq: u64, r: &Request| InvocationRequest {
        workload: r.workload,
        input: pool.get(r.workload).expect("request workload in pool").input,
        function_index: r.function_index,
        scheduled_at_ms: r.at_ms,
        trace_id: faasrail_telemetry::derive_trace_id(run_id, seq),
    };

    // The cursor: the next request no worker has claimed. Raising `stop`
    // closes the trace (the cursor jumps to its end), so the run is cut
    // short exactly when something was left to claim.
    let (next, n) = (AtomicUsize::new(0), trace.requests.len());
    let start = Instant::now();
    let claim = |worker: usize, local: &mut RunMetrics| {
        if stop.load(Ordering::Relaxed) {
            local.aborted |= next.swap(n, Ordering::Relaxed) < n;
            return None;
        }
        let seq = next.fetch_add(1, Ordering::Relaxed);
        let r = trace.requests.get(seq)?;
        let mut picked_up = Instant::now();
        let (target_us, dispatched) = match cfg.pacing {
            Pacing::Unpaced => (0, start),
            Pacing::ClosedLoop => (us_since(start, picked_up), picked_up),
            Pacing::RealTime { compression } => {
                // Offset from the replay's own start on the *resumed*
                // timeline; non-positive means the request was already due
                // when this replay began.
                let offset_s = (r.at_ms as f64 - resume.elapsed_ms as f64) / 1_000.0 / compression;
                let due = start + Duration::from_secs_f64(offset_s.max(0.0));
                let (dispatched, lateness_s) = if picked_up < due {
                    if !wait_until(due, stop) {
                        local.aborted = true; // claimed, but never issued
                        return None;
                    }
                    picked_up = Instant::now();
                    (picked_up, picked_up.duration_since(due).as_secs_f64())
                } else {
                    // Claimed late: it was dispatched when due and has
                    // waited for a worker since. Its lateness is the
                    // resumed schedule's deficit — never silently re-time
                    // the schedule.
                    (due, (-offset_s).max(0.0))
                };
                local.lateness.record(lateness_s);
                if let Some(gauge) = inst.pace {
                    gauge.record_secs(lateness_s);
                }
                (us_since(start, due), dispatched)
            }
        };
        local.record_issued(r.at_ms);
        if let Some(recorder) = inst.recorder {
            recorder.record_issued(worker);
        }
        let seq = seq as u64;
        let req = request(seq, r);
        Some(Job { req, seq, target_us, dispatched, picked_up })
    };
    // The calling thread only spawns the workers and joins them.
    let metrics = std::thread::scope(|scope| {
        let claim = &claim;
        let handles: Vec<_> = (0..cfg.workers)
            .map(|worker| {
                scope.spawn(move || {
                    if matches!(cfg.pacing, Pacing::RealTime { .. }) {
                        tighten_timer_slack();
                    }
                    serve(backend, inst, start, worker, |local| claim(worker, local))
                })
            })
            .collect();
        let mut run = RunMetrics::new();
        for h in handles {
            run.merge(&h.join().expect("worker panicked"));
        }
        run
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
    use faasrail_stats::rng::{cases, Rng};
    use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
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
        let m = replay_observed(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 2 },
            &stop,
            &ReplayInstruments::default(),
        );
        let elapsed = start.elapsed();
        killer.join().unwrap();
        assert!(m.aborted, "stop flag must mark the run aborted");
        assert!(m.issued > 0, "something was dispatched before the stop");
        assert!(m.issued < 10_000, "the stop prevented the full schedule");
        assert_eq!(m.completed + m.errors, m.issued, "drained prefix fully accounted");
        assert!(elapsed < Duration::from_secs(10), "stop must not wait out the schedule");
    }

    /// Sleeps `self.0` per invocation, reporting it as service time.
    struct Sleeps(Duration);
    impl Backend for Sleeps {
        fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
            std::thread::sleep(self.0);
            InvocationResult::success(self.0.as_secs_f64() * 1e3, false)
        }
    }

    #[test]
    fn an_unpaced_replay_stops_when_asked() {
        // 5 000 requests of 1 ms on 2 workers drain in 2.5 s; the stop at
        // 50 ms must cut that short, with every claimed request served.
        let trace = tiny_trace(5_000, 0);
        let pool = vanilla_pool();
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let m = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                stop.store(true, Ordering::SeqCst);
            });
            replay_observed(
                &trace,
                &pool,
                &Sleeps(Duration::from_millis(1)),
                &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
                &stop,
                &ReplayInstruments::default(),
            )
        });
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(1), "the stop was not seen: {elapsed:?}");
        assert!(m.aborted, "requests were left unclaimed");
        assert!(m.issued < 5_000, "issued {}", m.issued);
        assert_eq!(m.completed + m.errors, m.issued, "every claimed request is served");
    }

    #[test]
    fn a_stopped_realtime_replay_does_not_serve_its_overdue_backlog() {
        // One 5 ms worker against a request every 0.5 ms: by the stop at
        // 50 ms about 90 requests are overdue, 450 ms of work. A replay
        // that served them would return after ~500 ms; one that stops
        // claiming returns after the request in hand.
        let trace = tiny_trace(2_000, 1);
        let pool = vanilla_pool();
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let m = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                stop.store(true, Ordering::SeqCst);
            });
            replay_observed(
                &trace,
                &pool,
                &Sleeps(Duration::from_millis(5)),
                &ReplayConfig { pacing: Pacing::RealTime { compression: 2.0 }, workers: 1 },
                &stop,
                &ReplayInstruments::default(),
            )
        });
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(250), "served the backlog: {elapsed:?}");
        assert!(m.aborted, "requests were left unclaimed");
        assert!(m.issued < 50, "issued {}", m.issued);
        assert_eq!(m.completed + m.errors, m.issued, "every issued request is served");
    }

    #[test]
    fn a_claim_whose_wait_the_stop_cuts_short_is_not_issued() {
        // The last request is due 10 s in; the one worker claims it (the
        // cursor is then at the end of the trace) and waits until the stop.
        let requests = [0, 10_000]
            .map(|at_ms| Request { at_ms, workload: WorkloadId(7), function_index: 0 })
            .to_vec();
        let trace = RequestTrace { duration_minutes: 1, requests };
        let pool = vanilla_pool();
        let stop = AtomicBool::new(false);
        let m = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                stop.store(true, Ordering::SeqCst);
            });
            replay_observed(
                &trace,
                &pool,
                &NoopBackend,
                &ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: 1 },
                &stop,
                &ReplayInstruments::default(),
            )
        });
        assert_eq!(m.issued, 1, "the request whose wait was cut is not issued");
        assert_eq!(m.completed, 1);
        assert!(m.aborted, "a claimed request was left unissued");
    }

    #[test]
    fn a_closed_loop_log_reports_what_the_closed_loop_measured() {
        use faasrail_telemetry::{RingSink, RunReport};
        // All 60 requests are due at once, 240 ms of work for one worker:
        // a closed loop times each from its pickup, and so must its spans.
        let trace = tiny_trace(60, 0);
        let pool = vanilla_pool();
        let sink = RingSink::with_capacity(64);
        let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };
        let m = replay_observed(
            &trace,
            &pool,
            &Sleeps(Duration::from_millis(4)),
            &ReplayConfig { pacing: Pacing::ClosedLoop, workers: 1 },
            &AtomicBool::new(false),
            &inst,
        );
        let measured_s = m.response.quantile(0.99);
        let logged_s = RunReport::from_events(&sink.events()).decomposition.response.p99_ms / 1e3;
        assert!(measured_s < 0.02, "closed-loop p99 {measured_s}s");
        // Both are the midpoint of a 5 % bucket. The spans' stamps are whole
        // microseconds, which can move a value lying within 1 us of a bucket
        // edge into the neighbouring bucket, never further.
        let buckets_apart = (logged_s / measured_s).ln().abs() / 1.05f64.ln();
        assert!(buckets_apart < 1.01, "log p99 {logged_s}s, metrics p99 {measured_s}s");
    }

    #[test]
    fn unset_stop_flag_changes_nothing() {
        let trace = tiny_trace(50, 0);
        let pool = vanilla_pool();
        let stop = AtomicBool::new(false);
        let m = replay_observed(
            &trace,
            &pool,
            &NoopBackend,
            &ReplayConfig { pacing: Pacing::Unpaced, workers: 2 },
            &stop,
            &ReplayInstruments::default(),
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
        let recorder = Recorder::new(2); // one shard per worker
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

    // Windowed snapshots are lossless: deltas between any chain of
    // snapshots taken *while the replay runs* telescope to the final
    // cumulative snapshot, which in turn equals `RunMetrics::snapshot`.
    #[test]
    fn recorder_window_deltas_sum_to_run_metrics() {
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

        cases("recorder_window_deltas_sum_to_run_metrics", 8, |rng| {
            let (n, err_mod) = (rng.range(1..150), rng.range(2..6));
            let trace = tiny_trace(n, 0);
            let pool = vanilla_pool();
            let recorder = Arc::new(Recorder::new(2));
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
                for (a, b) in acc.errors.iter_mut().zip(&w.errors) {
                    *a += b;
                }
                acc.cold_starts += w.cold_starts;
                acc.response.merge(&w.response);
                prev = s.clone();
            }

            assert_eq!(acc.issued, m.issued);
            assert_eq!(acc.completed, m.completed);
            assert_eq!(acc.errors_total(), m.errors);
            assert_eq!(acc.errors[2], m.transport_errors);
            assert_eq!(acc.cold_starts, m.cold_starts);
            assert_eq!(acc.response.total(), m.response.total());
            // What `replay --prom-out` writes without a recorder is what
            // the recorder held at the end, histogram buckets included.
            assert_eq!(snaps.last(), Some(&m.snapshot()));
        });
    }
}
