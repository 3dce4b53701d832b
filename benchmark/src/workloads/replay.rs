//! The online tier: three replay workloads.
//!
//! One pass is a closed-loop drain (`Pacing::Unpaced`: a fixed number of
//! workers, each sending its next request when the previous one returns),
//! which is what `items_per_s` times. In a traced run an open-loop phase
//! comes first in every pass (requests fire on schedule whatever the
//! backend does; latency is timed from when each request was due): all it
//! yields are per-layer metrics, so an untraced run spends none of its
//! seconds on it. Load comes from this one process; the socket rows talk to
//! a gateway on loopback in the same process, so client and server CPU are
//! counted together. Every thread that serves a request runs on one CPU
//! and the open-loop pacer spins on another (`Workload::ONE_CPU`;
//! `CpuSplit` says why).

use super::offline::{build_pool, digest_requests};
use super::{Checks, Ctx, Pass, Workload};
use crate::measure::{
    median, pin_thread_to, process_cpu_s, quantile, tail_percentile, thread_cpu_s, timed,
};
use crate::report::{digest, Metrics, DIGEST_SEED};
use crate::tracer::{Span, Tracer};
use faasrail_core::{generate_requests, shrink, RequestTrace, ShrinkRayConfig};
use faasrail_gateway::{
    Gateway, GatewayConfig, GatewayHandle, GatewayStats, HttpBackend, HttpBackendConfig, MuxConfig,
    MuxHttpBackend, ReactorGateway, ReactorHandle, RetryPolicy,
};
use faasrail_loadgen::{
    fixed_rate_trace, replay_observed, ArrivalProcess, Backend, InvocationRequest,
    InvocationResult, NoopBackend, Pacing, ReplayConfig, ReplayInstruments, RunMetrics,
};
use faasrail_telemetry::{EventSink, JsonlSink, NullSink, RingSink, ServerSpan, TelemetryEvent};
use faasrail_trace::azure::{self, AzureTraceConfig};
use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The vanilla pool's `pyaes`: the smallest request body, as
/// `faasrail bench` sends.
const NOOP_WORKLOAD: WorkloadId = WorkloadId(7);

/// Frozen load of the two socket rows (identical on both, so the rows
/// compare transports and nothing else).
struct SocketLoad {
    /// Open-loop rate: a quarter of the 60k requests/s the slower transport
    /// (the reactor row) drains closed-loop on the calibration box's work
    /// CPU (`items_per_s` in baseline.json). The work CPU is then about half
    /// busy (35 us of CPU per request), so a request finds its predecessor
    /// still in flight about as often as not, but no backlog grows.
    open_rps: f64,
    open_seconds: f64,
    /// Replay workers and client connections in the open-loop phase.
    open_workers: usize,
    /// Requests in the closed-loop drain, and the workers draining them.
    /// Eight in flight keep the work CPU busy; with two, throughput is set
    /// by wake-up latency and reads 48k to 58k rps from one pass to the
    /// next. A drain takes about 0.17 s, so a run makes some eighty of
    /// them: the host's slow spells last seconds, and the run reads its
    /// throughput off the passes that fell between them (`STEADY_SHARE`).
    drain_requests: u64,
    drain_workers: usize,
    warmup_requests: u64,
}

impl SocketLoad {
    fn of(ctx: &Ctx) -> SocketLoad {
        if ctx.smoke {
            SocketLoad {
                open_rps: 2_000.0,
                open_seconds: 0.04,
                open_workers: 2,
                drain_requests: 200,
                drain_workers: 4,
                warmup_requests: 20,
            }
        } else {
            SocketLoad {
                open_rps: 15_000.0,
                open_seconds: 0.5,
                open_workers: 2,
                drain_requests: 10_000,
                drain_workers: 8,
                warmup_requests: 2_000,
            }
        }
    }

    /// The open-loop schedule and the compression that replays it at
    /// `open_rps`. A request trace stamps whole milliseconds, so a faster
    /// rate written directly would fire in bursts of `open_rps / 1000` once
    /// a millisecond; one request per trace millisecond, time-compressed,
    /// is evenly spaced.
    fn open_trace(&self, seed: u64) -> (RequestTrace, f64) {
        let compression = (self.open_rps / 1_000.0).max(1.0);
        let trace = fixed_rate_trace(
            self.open_rps / compression,
            self.open_seconds * compression,
            NOOP_WORKLOAD,
            ArrivalProcess::Uniform,
            seed,
        );
        (trace, compression)
    }
}

// ---------------------------------------------------------------------------
// Benchmark-owned wrappers at the layer boundaries.
// ---------------------------------------------------------------------------

/// One invocation as the client-side wrapper saw it.
#[derive(Clone, Copy)]
struct Sample {
    /// Wall time from the replay's start at which the request was due.
    due: Duration,
    completed: Instant,
    /// Wall around `Backend::invoke` minus the service time it reported.
    overhead_ns: u64,
}

thread_local! {
    /// Whether this replay worker has moved itself to the work CPU.
    static ON_WORK_CPU: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the client-side `Backend`: times every invocation from outside
/// and, in a traced pass, puts it in a span.
struct Probe<'a> {
    inner: &'a dyn Backend,
    tracer: &'a Tracer,
    /// Experiment time over wall time: a request scheduled at trace time
    /// `t` is due `t / compression` after the replay's start.
    compression: f64,
    /// Replay spawns its workers from the pacer's thread, whose CPU they
    /// inherit; each moves itself here before its first request.
    work_cpu: Option<usize>,
    samples: Mutex<Vec<Sample>>,
}

impl<'a> Probe<'a> {
    fn new(ctx: &'a Ctx, inner: &'a dyn Backend, compression: f64, capacity: usize) -> Self {
        Probe {
            inner,
            tracer: &ctx.tracer,
            compression,
            work_cpu: ctx.cpus.map(|cpus| cpus.work),
            samples: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    fn into_samples(self) -> Vec<Sample> {
        self.samples.into_inner().expect("no worker panicked holding the samples")
    }
}

impl Backend for Probe<'_> {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        if let Some(cpu) = self.work_cpu {
            if !ON_WORK_CPU.replace(true) {
                pin_thread_to(cpu);
            }
        }
        let _span = self.tracer.request_span("loadgen", "backend.invoke", req.trace_id);
        let entry = Instant::now();
        let result = self.inner.invoke(req);
        let completed = Instant::now();
        let invoke_ns = completed.duration_since(entry).as_nanos() as u64;
        let sample = Sample {
            due: Duration::from_secs_f64(req.scheduled_at_ms as f64 / 1e3 / self.compression),
            completed,
            overhead_ns: invoke_ns.saturating_sub((result.service_ms * 1e6) as u64),
        };
        self.samples.lock().expect("samples lock").push(sample);
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Passes every event on and notes when `run_start` went by: replay takes
/// its own start, which every request's due time counts from, right after
/// emitting it.
struct StartStamp<'a> {
    inner: &'a dyn EventSink,
    started: OnceLock<Instant>,
}

impl EventSink for StartStamp<'_> {
    fn emit(&self, event: &TelemetryEvent) {
        self.inner.emit(event);
        if matches!(event, TelemetryEvent::RunStart(_)) {
            let _ = self.started.set(Instant::now());
        }
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Wraps the server-side `Backend` of a traced run: one span per handler
/// call while the tracer is on, nothing otherwise.
struct SpannedHandler {
    inner: NoopBackend,
    tracer: Arc<Tracer>,
}

impl Backend for SpannedHandler {
    fn invoke(&self, req: &InvocationRequest) -> InvocationResult {
        let _span = self.tracer.request_span("gateway", "handler.invoke", req.trace_id);
        self.inner.invoke(req)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The server's trace sink in a traced run: keeps `ServerSpan`s while the
/// tracer is on.
struct ServerSpans {
    tracer: Arc<Tracer>,
    spans: Mutex<Vec<ServerSpan>>,
}

impl EventSink for ServerSpans {
    fn emit(&self, event: &TelemetryEvent) {
        if let (true, TelemetryEvent::ServerSpan(span)) = (self.tracer.is_on(), event) {
            // Never panic in a sink: a poisoned lock just loses the span.
            if let Ok(mut spans) = self.spans.lock() {
                spans.push(span.clone());
            }
        }
    }
}

/// Both sinks see every event: the JSONL log the workload is about, and
/// the ring a traced pass reads queue waits from.
struct Tee<'a>(&'a dyn EventSink, &'a dyn EventSink);

impl EventSink for Tee<'_> {
    fn emit(&self, event: &TelemetryEvent) {
        self.0.emit(event);
        self.1.emit(event);
    }

    fn flush(&self) {
        self.0.flush();
        self.1.flush();
    }
}

// ---------------------------------------------------------------------------
// What the three rows share.
// ---------------------------------------------------------------------------

/// What the passes leave behind for the per-layer metrics.
#[derive(Default)]
struct Readings {
    /// One value per untraced pass, all from its open-loop phase; the
    /// metric is their median.
    since_due_p50_us: Vec<f64>,
    since_due_tail_us: Vec<f64>,
    /// The percentile `since_due_tail_us` is, and the samples per pass it
    /// is read from: the highest with ten samples beyond it.
    since_due_tail: (f64, usize),
    cpu_us_per_req: Vec<f64>,
    overhead_p50_us: Vec<f64>,
    response_p99_ms: Vec<f64>,
    lateness_p99_ms: Vec<f64>,
    /// One value per request of the traced passes, seconds.
    lateness_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
}

struct OpenPhase {
    metrics: RunMetrics,
    /// Per request: seconds from the instant it was due to its completion
    /// (pacer lateness + queue wait + `Backend::invoke`), and the
    /// microseconds `Backend::invoke` took beyond the reported service time.
    since_due_s: Vec<f64>,
    overhead_us: Vec<f64>,
    /// Process CPU less the pacer thread's, which spins by design whenever
    /// the next request is under 2 ms away: at these rates a whole core,
    /// whatever the work per request.
    cpu_s: f64,
}

/// Replays `trace` open-loop through a [`Probe`] around `backend`, the
/// pacer on its own CPU where there is one.
fn open_phase(
    ctx: &Ctx,
    trace: &RequestTrace,
    pool: &WorkloadPool,
    backend: &dyn Backend,
    compression: f64,
    workers: usize,
    sink: &dyn EventSink,
) -> OpenPhase {
    let cfg = ReplayConfig { pacing: Pacing::RealTime { compression }, workers };
    let sink = StartStamp { inner: sink, started: OnceLock::new() };
    let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };
    let probe = Probe::new(ctx, backend, compression, trace.len());
    let pacer_cpu = ctx.cpus.and_then(|cpus| cpus.pacer.map(|pacer| (pacer, cpus.work)));
    if let Some((pacer, _)) = pacer_cpu {
        pin_thread_to(pacer);
    }
    let (cpu_before, pacer_before) = (process_cpu_s(), thread_cpu_s());
    let metrics = replay_observed(trace, pool, &probe, &cfg, &AtomicBool::new(false), &inst);
    let cpu_s = (process_cpu_s() - cpu_before) - (thread_cpu_s() - pacer_before);
    if let Some((_, work)) = pacer_cpu {
        pin_thread_to(work);
    }
    let started = *sink.started.get().expect("replay emits run_start");
    let samples = probe.into_samples();
    OpenPhase {
        metrics,
        since_due_s: samples
            .iter()
            .map(|s| s.completed.saturating_duration_since(started + s.due).as_secs_f64())
            .collect(),
        overhead_us: samples.iter().map(|s| s.overhead_ns as f64 / 1e3).collect(),
        cpu_s,
    }
}

/// Drains `trace` closed-loop; returns the wall seconds and the metrics.
/// Only a traced pass goes through a [`Probe`]: its 60 ns would be 6 % of
/// an in-process request.
fn drain_phase<B: Backend>(
    ctx: &Ctx,
    trace: &RequestTrace,
    pool: &WorkloadPool,
    backend: &B,
    workers: usize,
    traced: bool,
    sink: &dyn EventSink,
) -> (f64, RunMetrics) {
    let cfg = ReplayConfig { pacing: Pacing::Unpaced, workers };
    let inst = ReplayInstruments { sink, recorder: None, pace: None };
    let stop = AtomicBool::new(false);
    if traced {
        let probe = Probe::new(ctx, backend, 1.0, trace.len());
        timed(|| replay_observed(trace, pool, &probe, &cfg, &stop, &inst))
    } else {
        timed(|| replay_observed(trace, pool, backend, &cfg, &stop, &inst))
    }
}

/// Counts a phase's requests and checks its accounting.
fn account(phase: &str, m: &RunMetrics, offered: usize, checks: &mut Checks) -> (u64, u64) {
    checks.check(m.issued == offered as u64 && !m.aborted, || {
        format!("{phase}: issued {} of {offered} (aborted: {})", m.issued, m.aborted)
    });
    checks.check(m.completed + m.errors == m.issued, || {
        format!("{phase}: completed {} + errors {} != issued {}", m.completed, m.errors, m.issued)
    });
    checks.check(m.shed == 0, || format!("{phase}: {} requests shed", m.shed));
    (m.issued, m.errors)
}

/// What a replay pass deterministically outputs: how many requests it
/// offered to which minute, and that each completed.
fn digest_outcome(state: u64, m: &RunMetrics) -> u64 {
    let state = digest(state, &m.completed.to_le_bytes());
    m.issued_per_minute.iter().fold(state, |h, n| digest(h, &n.to_le_bytes()))
}

fn p50_us(values_s: &mut [f64]) -> f64 {
    if values_s.is_empty() {
        0.0
    } else {
        median(values_s) * 1e6
    }
}

impl Readings {
    /// Checks a pass's open-loop phase (a traced run has one) and its
    /// drains (each of `offered.1` requests), folds them into the readings
    /// and sums them up as a [`Pass`]. An untraced pass contributes its
    /// open-loop latencies, CPU and histogram tails; a traced one the
    /// `InvocationSpan`s its `ring` caught.
    fn finish_pass(
        &mut self,
        mut open: Option<OpenPhase>,
        drains: &[(f64, RunMetrics)],
        ring: Option<&RingSink>,
        offered: (usize, usize),
        digest: u64,
        checks: &mut Checks,
    ) -> Pass {
        if let Some(ring) = ring {
            for event in ring.events() {
                if let TelemetryEvent::Invocation(span) = event {
                    self.lateness_s.push(span.lateness_s());
                    self.queue_wait_s.push(span.queue_wait_s());
                }
            }
        } else if let Some(open) = &mut open {
            self.since_due_p50_us.push(median(&mut open.since_due_s) * 1e6);
            let samples = open.since_due_s.len();
            // Under 100 samples (smoke runs only) no tail is worth reading.
            let percentile = tail_percentile(samples).unwrap_or(0.5);
            self.since_due_tail = (percentile, samples);
            self.since_due_tail_us.push(quantile(&mut open.since_due_s, percentile) * 1e6);
            self.cpu_us_per_req.push(open.cpu_s * 1e6 / open.metrics.completed.max(1) as f64);
            self.overhead_p50_us.push(median(&mut open.overhead_us));
            self.response_p99_ms.push(open.metrics.response.quantile(0.99) * 1e3);
            self.lateness_p99_ms.push(open.metrics.lateness.quantile(0.99) * 1e3);
        }
        // The digest covers the drains alone, which every run makes, so that
        // a seed's traced and untraced runs print the same one.
        let (mut attempted, mut failed) = match &open {
            Some(open) => account("open loop", &open.metrics, offered.0, checks),
            None => (0, 0),
        };
        let (mut items, mut wall_s, mut digest) = (0, 0.0, digest);
        for (drain_s, drained) in drains {
            let (issued, errors) = account("drain", drained, offered.1, checks);
            attempted += issued;
            failed += errors;
            items += drained.completed;
            wall_s += drain_s;
            digest = digest_outcome(digest, drained);
        }
        Pass { items, wall_s, attempted, failed, digest }
    }

    fn report(&mut self, m: &mut Metrics) {
        m.set("loadgen.since_due_p50_us", median(&mut self.since_due_p50_us));
        m.set("loadgen.since_due_tail_us", median(&mut self.since_due_tail_us));
        m.set("loadgen.since_due_tail_pct", self.since_due_tail.0 * 100.0);
        m.set("loadgen.since_due_samples", self.since_due_tail.1 as f64);
        m.set("loadgen.open_cpu_us_per_req", median(&mut self.cpu_us_per_req));
        m.set("gateway.overhead_p50_us", median(&mut self.overhead_p50_us));
        m.set("loadgen.response_p99_ms", median(&mut self.response_p99_ms));
        m.set("loadgen.lateness_p99_ms", median(&mut self.lateness_p99_ms));
        m.set("loadgen.pacer_lateness_p50_us", p50_us(&mut self.lateness_s));
        m.set("loadgen.queue_wait_p50_us", p50_us(&mut self.queue_wait_s));
        if !self.queue_wait_s.is_empty() {
            m.set("loadgen.queue_wait_p99_us", quantile(&mut self.queue_wait_s, 0.99) * 1e6);
        }
    }
}

// ---------------------------------------------------------------------------
// replay_noop_reactor and replay_noop_threaded
// ---------------------------------------------------------------------------

enum Server {
    Reactor(ReactorHandle),
    Threaded(GatewayHandle),
}

impl Server {
    fn stats(&self) -> &GatewayStats {
        match self {
            Server::Reactor(handle) => handle.stats(),
            Server::Threaded(handle) => handle.stats(),
        }
    }

    fn stop(self) {
        match self {
            Server::Reactor(handle) => handle.stop(),
            Server::Threaded(handle) => handle.stop(),
        }
    }
}

/// `replay_noop_reactor` (`REACTOR`: `MuxHttpBackend` → `ReactorGateway`,
/// one shard, two handler threads) or `replay_noop_threaded` (pooled
/// `HttpBackend` → threaded `Gateway`).
pub struct SocketRow<const REACTOR: bool> {
    load: SocketLoad,
    pool: WorkloadPool,
    open_trace: RequestTrace,
    /// Experiment time over wall time in the open-loop phase.
    compression: f64,
    drain_trace: RequestTrace,
    // Dropped in `Drop`, client first: a server stops promptly only once
    // its keep-alive peers are gone.
    client: Option<Arc<dyn Backend>>,
    server: Option<Server>,
    server_spans: Option<Arc<ServerSpans>>,
    readings: Readings,
}

pub type NoopReactor = SocketRow<true>;
pub type NoopThreaded = SocketRow<false>;

impl<const REACTOR: bool> SocketRow<REACTOR> {
    fn client(&self) -> &Arc<dyn Backend> {
        self.client.as_ref().expect("client lives until drop")
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server lives until drop")
    }
}

impl<const REACTOR: bool> Workload for SocketRow<REACTOR> {
    const ONE_CPU: bool = true;

    fn setup(ctx: &Ctx) -> Self {
        let load = SocketLoad::of(ctx);
        let server_spans = ctx.traced_run.then(|| {
            Arc::new(ServerSpans { tracer: ctx.tracer.clone(), spans: Mutex::new(Vec::new()) })
        });
        let handler: Arc<dyn Backend> = if ctx.traced_run {
            Arc::new(SpannedHandler { inner: NoopBackend, tracer: ctx.tracer.clone() })
        } else {
            Arc::new(NoopBackend)
        };
        let sink: Arc<dyn EventSink> = match &server_spans {
            Some(spans) => spans.clone(),
            None => Arc::new(NullSink),
        };
        let (server, client): (Server, Arc<dyn Backend>) = if REACTOR {
            let cfg = GatewayConfig { workers: 2, ..GatewayConfig::default() };
            let server = ReactorGateway::bind_sharded("127.0.0.1:0", handler, cfg, 1)
                .expect("bind reactor gateway on loopback")
                .with_trace_sink(sink)
                .spawn();
            let mux = MuxConfig {
                connections: load.open_workers,
                pipeline_depth: 32,
                ..MuxConfig::default()
            };
            let client = MuxHttpBackend::new(server.addr(), mux).expect("connect mux client");
            (Server::Reactor(server), Arc::new(client))
        } else {
            // A keep-alive connection holds a worker for its lifetime,
            // and the pooled client opens one per replay worker.
            let workers = load.drain_workers.max(load.open_workers) + 2;
            let cfg = GatewayConfig { workers, ..GatewayConfig::default() };
            let server = Gateway::bind("127.0.0.1:0", handler, cfg)
                .expect("bind threaded gateway on loopback")
                .with_trace_sink(sink)
                .spawn();
            let http = HttpBackendConfig {
                retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
                ..HttpBackendConfig::default()
            };
            let client = HttpBackend::connect(&server.addr().to_string(), http)
                .expect("resolve the gateway address");
            (Server::Threaded(server), Arc::new(client))
        };
        let uniform = |requests: f64, seconds: f64| {
            fixed_rate_trace(
                requests / seconds,
                seconds,
                NOOP_WORKLOAD,
                ArrivalProcess::Uniform,
                ctx.seed,
            )
        };
        let (open_trace, compression) = load.open_trace(ctx.seed);
        let row = SocketRow {
            pool: WorkloadPool::vanilla(&CostModel::default_calibration()),
            open_trace,
            compression,
            drain_trace: uniform(load.drain_requests as f64, 1.0),
            client: Some(client),
            server: Some(server),
            server_spans,
            readings: Readings::default(),
            load,
        };
        // Warm-up opens the connections, grows the buffers and faults the
        // pages in; its spans would only blur the traced passes'.
        let was_on = ctx.tracer.is_on();
        ctx.tracer.set_on(false);
        let warmup = uniform(row.load.warmup_requests as f64, 1.0);
        let workers = row.load.drain_workers;
        let (_, warm) =
            drain_phase(ctx, &warmup, &row.pool, row.client(), workers, false, &NullSink);
        assert_eq!(warm.completed, warmup.len() as u64, "warm-up requests failed: {warm:?}");
        ctx.tracer.set_on(was_on);
        row
    }

    fn pass(&mut self, ctx: &Ctx, traced: bool, checks: &mut Checks) -> Pass {
        let ring = traced.then(|| RingSink::with_capacity(self.open_trace.len() + 8));
        let open_sink: &dyn EventSink = match &ring {
            Some(ring) => ring,
            None => &NullSink,
        };
        // Only a traced run reports what the open loop measures.
        let open = ctx.traced_run.then(|| {
            open_phase(
                ctx,
                &self.open_trace,
                &self.pool,
                self.client(),
                self.compression,
                self.load.open_workers,
                open_sink,
            )
        });
        let drained = drain_phase(
            ctx,
            &self.drain_trace,
            &self.pool,
            self.client(),
            self.load.drain_workers,
            traced,
            &NullSink,
        );
        let offered = (self.open_trace.len(), self.drain_trace.len());
        self.readings.finish_pass(open, &[drained], ring.as_ref(), offered, DIGEST_SEED, checks)
    }

    fn final_checks(&mut self, checks: &mut Checks) {
        let stats = self.server().stats();
        let shed = stats.shed.load(Ordering::Relaxed);
        checks.check(shed == 0, || format!("gateway shed {shed} connections"));
        let (ok, failed) = (
            stats.invocations_ok.load(Ordering::Relaxed),
            stats.invocations_failed.load(Ordering::Relaxed),
        );
        checks.check(failed == 0 && ok > 0, || {
            format!("gateway served {ok} invocations and failed {failed}")
        });
    }

    fn layer_metrics(&mut self, _: &[Span], _: u64, _: u64, m: &mut Metrics) {
        self.readings.report(m);
        let stats = self.server().stats();
        m.set("gateway.requests_served", stats.invocations.load(Ordering::Relaxed) as f64);
        m.set("gateway.shed", stats.shed.load(Ordering::Relaxed) as f64);
        let spans = self.server_spans.as_ref().expect("a traced run installs the sink");
        let spans = spans.spans.lock().expect("server span lock");
        let stage =
            |f: fn(&ServerSpan) -> f64| p50_us(&mut spans.iter().map(f).collect::<Vec<_>>());
        m.set("gateway.server_queue_p50_us", stage(ServerSpan::queue_wait_s));
        m.set("gateway.server_read_p50_us", stage(ServerSpan::read_s));
        m.set("gateway.server_handler_p50_us", stage(ServerSpan::handler_s));
        m.set("gateway.server_flush_p50_us", stage(ServerSpan::flush_s));
    }

    /// `1 - (what the isolated layers cost) / overhead_p50`: the share of a
    /// request's overhead that no codec, serde, waker or sink measurement
    /// explains, i.e. syscalls, the scheduler and the wire.
    fn derived_metrics(&self, m: &mut Metrics) {
        let ns = |name: &str| m.get(name).expect("the ledger ran");
        // Each of the two covers a request and a result: what one round
        // trip encodes and decodes, client and server together.
        let serde =
            ns("loadgen.invocation_json_encode_ns") + ns("loadgen.invocation_json_decode_ns");
        let (name, codec_and_handoff) = if REACTOR {
            (
                "gateway.overhead_unattributed_frac.reactor",
                ns("reactor.parse_request_ns")
                    + ns("reactor.parse_response_ns")
                    + ns("reactor.write_request_head_ns")
                    + ns("reactor.write_response_head_ns")
                    + 2.0 * ns("reactor.writebuf_stage_flush_ns")
                    // Worker → client driver, and handler → server shard.
                    + 2.0 * ns("reactor.waker_roundtrip_us") * 1e3,
            )
        } else {
            (
                "gateway.overhead_unattributed_frac.threaded",
                ns("gateway.http_read_request_ns") + ns("gateway.http_write_response_ns"),
            )
        };
        let overhead_ns = ns("gateway.overhead_p50_us") * 1e3;
        m.set(name, 1.0 - (serde + codec_and_handoff) / overhead_ns);
    }
}

impl<const REACTOR: bool> Drop for SocketRow<REACTOR> {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

// ---------------------------------------------------------------------------
// replay_spec_inproc
// ---------------------------------------------------------------------------

pub struct SpecInproc {
    pool: WorkloadPool,
    trace: RequestTrace,
    /// Experiment time over wall time in the open-loop phase.
    compression: f64,
    workers: usize,
    /// How often a pass drains the trace: one drain takes 50 ms, too
    /// short a section to time on its own.
    drains: usize,
    log_path: PathBuf,
    readings: Readings,
}

impl SpecInproc {
    /// A fresh (truncated) event log, as `faasrail replay --events` opens.
    fn event_log(&self) -> JsonlSink<std::fs::File> {
        JsonlSink::create(&self.log_path).expect("create the JSONL event log in the scratch dir")
    }
}

impl Workload for SpecInproc {
    const ONE_CPU: bool = true;

    fn setup(ctx: &Ctx) -> Self {
        // 10 experiment minutes, peak 100 rps, replayed in 1.5 s of wall.
        let (functions, invocations, minutes, max_rps, open_seconds) = if ctx.smoke {
            (300, 300_000, 2, 20.0, 0.04)
        } else {
            (5_000, 20_000_000, 10, 100.0, 1.5)
        };
        let azure = azure::generate(&AzureTraceConfig::scaled(ctx.seed, functions, invocations));
        let pool = build_pool();
        let (spec, _) = shrink(&azure, &pool, &ShrinkRayConfig::new(minutes, max_rps))
            .expect("shrink accepts the generated trace");
        std::fs::create_dir_all(&ctx.scratch).expect("create the scratch dir");
        SpecInproc {
            trace: generate_requests(&spec, ctx.seed),
            pool,
            compression: minutes as f64 * 60.0 / open_seconds,
            workers: 2,
            drains: if ctx.smoke { 1 } else { 5 },
            log_path: ctx.scratch.join(format!("events.{}.jsonl", std::process::id())),
            readings: Readings::default(),
        }
    }

    fn pass(&mut self, ctx: &Ctx, traced: bool, checks: &mut Checks) -> Pass {
        let ring = traced.then(|| RingSink::with_capacity(self.trace.len() + 8));
        // Only a traced run reports what the open loop measures.
        let open = ctx.traced_run.then(|| {
            let log = self.event_log();
            let tee;
            let sink: &dyn EventSink = match &ring {
                Some(ring) => {
                    tee = Tee(&log, ring);
                    &tee
                }
                None => &log,
            };
            let (backend, workers) = (&NoopBackend, self.workers);
            let open =
                open_phase(ctx, &self.trace, &self.pool, backend, self.compression, workers, sink);
            checks.check(log.write_errors() == 0, || "event log write errors".to_owned());
            open
        });
        let drained: Vec<(f64, RunMetrics)> = (0..self.drains)
            .map(|_| {
                let log = self.event_log();
                let drained = drain_phase(
                    ctx,
                    &self.trace,
                    &self.pool,
                    &NoopBackend,
                    self.workers,
                    traced,
                    &log,
                );
                checks.check(log.write_errors() == 0, || "event log write errors".to_owned());
                drained
            })
            .collect();
        let offered = (self.trace.len(), self.trace.len());
        let digest = digest_requests(DIGEST_SEED, &self.trace);
        self.readings.finish_pass(open, &drained, ring.as_ref(), offered, digest, checks)
    }

    fn layer_metrics(&mut self, _: &[Span], _: u64, _: u64, m: &mut Metrics) {
        self.readings.report(m);
    }

    fn final_checks(&mut self, checks: &mut Checks) {
        // The drain's log is the last one written: one line per request
        // plus run_start and run_end.
        let lines = std::fs::read(&self.log_path)
            .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count())
            .unwrap_or(0);
        checks.check(lines == self.trace.len() + 2, || {
            format!("event log has {lines} lines for {} requests", self.trace.len())
        });
    }
}

impl Drop for SpecInproc {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.log_path);
    }
}
