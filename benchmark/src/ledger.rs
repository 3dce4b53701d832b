//! The per-layer cost ledger: each layer driven alone, through the public
//! entry point production code calls, with nothing else running. The same
//! in every traced run, whatever the workload, so that any row's numbers
//! can be set against the layer costs they are made of.
//!
//! `_ns` values are the median over rounds of the mean per call in a round
//! (≥ 10⁵ calls in all); `_us` / `_ms` values are the median over calls.

use crate::measure::{median, ns_per_call, timed, CpuSplit};
use crate::report::Metrics;
use faasrail_core::{
    ArrivalCursor, ArrivalStream, IatModel, MappingConfig, Request, RequestTrace, ScheduleModel,
    ScheduleSource,
};
use faasrail_faas_sim::{LoadBalancer, NodeView, WarmFirst};
use faasrail_fleet::reshard::plan_grants;
use faasrail_fleet::wire::{read_frame, write_frame, Assignment, FleetMessage, WorkPrefix};
use faasrail_gateway::{
    http, Gateway, GatewayConfig, GatewayStats, HttpBackend, HttpBackendConfig, MuxConfig,
    MuxHttpBackend, ReactorGateway,
};
use faasrail_loadgen::{
    fixed_rate_trace, replay, ArrivalProcess, Backend, InvocationRequest, InvocationResult,
    NoopBackend, Pacing, ReplayConfig, ShardSpec,
};
use faasrail_reactor::{http1, Interest, Poller, TimerWheel, Waker, WriteBuf};
use faasrail_stats::sampler::{Exponential, LogNormal, Sampler};
use faasrail_stats::{ks_distance_weighted, seeded_rng, LogHistogram, WeightedEcdf};
use faasrail_telemetry::{
    EventSink, InvocationSpan, JsonlSink, OutcomeClass, Recorder, RingSink, TelemetryEvent,
};
use faasrail_trace::azure::{self, AzureTraceConfig};
use faasrail_workloads::{CostModel, WorkloadId, WorkloadInput, WorkloadPool};
use std::hint::black_box;
use std::io::{self, Cursor, Write};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Call counts: `rounds × calls` per `_ns` metric.
struct Scale {
    rounds: usize,
    calls: usize,
    /// Repeats of a `_us` / `_ms` measurement.
    repeats: usize,
    /// Points of the large weighted ECDF (the offline rows' request count).
    big_ecdf: usize,
    /// Requests in the dispatch, shard and fleet-frame traces.
    trace_requests: usize,
}

impl Scale {
    fn of(smoke: bool) -> Scale {
        if smoke {
            Scale { rounds: 3, calls: 200, repeats: 3, big_ecdf: 2_000, trace_requests: 500 }
        } else {
            Scale {
                rounds: 11,
                calls: 10_000,
                repeats: 5,
                big_ecdf: 500_000,
                trace_requests: 10_000,
            }
        }
    }

    fn ns(&self, op: impl FnMut(usize)) -> f64 {
        ns_per_call(self.rounds, self.calls, op)
    }

    /// Median seconds of `op` over the repeats.
    fn seconds<T>(&self, mut op: impl FnMut() -> T) -> f64 {
        median(&mut (0..self.repeats).map(|_| timed(|| black_box(op())).0).collect::<Vec<_>>())
    }
}

/// A cheap, fixed stream of uniforms in `[0, 1)` for inputs: the samplers
/// under test must not share a generator with what feeds them.
fn unit(i: usize) -> f64 {
    let z = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn invocation_request() -> InvocationRequest {
    InvocationRequest {
        workload: WorkloadId(7),
        input: WorkloadInput::Pyaes { bytes: 4_096 },
        function_index: 17,
        scheduled_at_ms: 61_250,
        trace_id: 0x1234_5678_9ABC_DEF0,
    }
}

fn invocation_span(seq: u64) -> TelemetryEvent {
    TelemetryEvent::Invocation(InvocationSpan {
        trace_id: 0x1234_5678_9ABC_DEF0,
        seq,
        workload: 7,
        function_index: 17,
        scheduled_ms: 61_250,
        target_us: 1_000_000,
        dispatched_us: 1_000_012,
        picked_up_us: 1_000_020,
        completed_us: 1_000_180,
        service_ms: 0.0,
        outcome: OutcomeClass::Ok,
        cold_start: false,
        error: None,
    })
}

pub fn run(smoke: bool, m: &mut Metrics) {
    // Several entries hand work between threads; see `CpuSplit`.
    CpuSplit::pin();
    let scale = Scale::of(smoke);
    stats(&scale, m);
    workloads_and_core(&scale, smoke, m);
    loadgen_and_telemetry(&scale, m);
    reactor(&scale, m);
    gateway(&scale, smoke, m);
    simulator(&scale, m);
    fleet(&scale, m);
}

fn stats(scale: &Scale, m: &mut Metrics) {
    let small =
        WeightedEcdf::new((0..5_000).map(|i| (1.0 + i as f64 * 1.7, 1.0 + (i % 13) as f64)));
    m.set(
        "stats.wecdf_inverse_ns",
        scale.ns(|i| {
            black_box(small.inverse(unit(i)));
        }),
    );

    let mut rng = seeded_rng(7);
    let (gap, duration) =
        (Exponential::from_mean(50.0), LogNormal::from_median_p90(300.0, 1_200.0));
    m.set(
        "stats.sampler_ns",
        scale.ns(|i| {
            black_box(if i % 2 == 0 { gap.sample(&mut rng) } else { duration.sample(&mut rng) });
        }),
    );

    // What `evaluate` builds and compares: one point per generated request
    // against the trace's few thousand distinct durations.
    let pairs: Vec<(f64, f64)> =
        (0..scale.big_ecdf).map(|i| (1.0 + 9_000.0 * unit(i), 1.0)).collect();
    m.set("stats.wecdf_build_ms", scale.seconds(|| WeightedEcdf::new(pairs.iter().copied())) * 1e3);
    let big = WeightedEcdf::new(pairs.iter().copied());
    m.set("stats.ks_weighted_ms", scale.seconds(|| ks_distance_weighted(&small, &big)) * 1e3);

    let mut histogram = LogHistogram::latency_seconds();
    m.set("stats.loghist_record_ns", scale.ns(|i| histogram.record(1e-5 + unit(i) * 1e-2)));
    black_box(histogram.total());
}

fn workloads_and_core(scale: &Scale, smoke: bool, m: &mut Metrics) {
    let model = CostModel::default_calibration();
    m.set("workloads.pool_build_ms", scale.seconds(|| WorkloadPool::build_modelled(&model)) * 1e3);
    let pool = WorkloadPool::build_modelled(&model);
    m.set(
        "workloads.pool_json_roundtrip_ms",
        scale.seconds(|| WorkloadPool::from_json(&pool.to_json()).expect("pool JSON reads back"))
            * 1e3,
    );

    let (functions, invocations) = if smoke { (100, 5_000) } else { (500, 200_000) };
    let day = azure::generate(&AzureTraceConfig::scaled(11, functions, invocations));
    let schedule =
        ScheduleModel::from_trace_day(&day, &pool, &MappingConfig::default(), IatModel::Poisson)
            .expect("the generated day is a valid trace");
    let stream = ArrivalStream::new(&schedule, 11);
    let mut per_arrival_ns: Vec<f64> = (0..scale.repeats)
        .map(|_| {
            let mut cursor = stream.cursor();
            let (seconds, arrivals) = timed(|| {
                let mut n = 0u64;
                while let Some(arrival) = cursor.next_arrival() {
                    black_box(arrival);
                    n += 1;
                }
                n
            });
            seconds * 1e9 / arrivals as f64
        })
        .collect();
    m.set("core.arrival_next_ns", median(&mut per_arrival_ns));
}

fn loadgen_and_telemetry(scale: &Scale, m: &mut Metrics) {
    let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
    let n = scale.trace_requests * 20;
    let trace = fixed_rate_trace(n as f64, 1.0, WorkloadId(7), ArrivalProcess::Uniform, 1);
    let cfg = ReplayConfig { pacing: Pacing::Unpaced, workers: 2 };
    m.set(
        "loadgen.unpaced_dispatch_ns",
        scale.seconds(|| {
            let done = replay(&trace, &pool, &NoopBackend, &cfg);
            assert_eq!(done.completed, n as u64);
        }) * 1e9
            / n as f64,
    );
    let shard = ShardSpec::new(1, 4);
    m.set(
        "loadgen.shard_filter_ns_per_req",
        scale.seconds(|| shard.filter(&trace)) * 1e9 / n as f64,
    );

    // One round trip encodes a request and a result, and decodes both.
    let (request, result) = (invocation_request(), InvocationResult::success(0.0, false));
    m.set(
        "loadgen.invocation_json_encode_ns",
        scale.ns(|_| {
            black_box(serde_json::to_vec(black_box(&request)).expect("request serializes"));
            black_box(serde_json::to_vec(black_box(&result)).expect("result serializes"));
        }),
    );
    let request_json = serde_json::to_vec(&request).expect("request serializes");
    let result_json = serde_json::to_vec(&result).expect("result serializes");
    m.set(
        "loadgen.invocation_json_decode_ns",
        scale.ns(|_| {
            black_box(
                serde_json::from_slice::<InvocationRequest>(black_box(&request_json))
                    .expect("request reads back"),
            );
            black_box(
                serde_json::from_slice::<InvocationResult>(black_box(&result_json))
                    .expect("result reads back"),
            );
        }),
    );

    let event = invocation_span(3);
    let ring = RingSink::with_capacity(4_096);
    m.set("telemetry.ring_emit_ns", scale.ns(|_| ring.emit(&event)));
    let jsonl = JsonlSink::new(io::sink());
    m.set("telemetry.jsonl_emit_ns", scale.ns(|_| jsonl.emit(&event)));
    assert_eq!(jsonl.write_errors(), 0);
    let recorder = Recorder::new(3);
    m.set(
        "telemetry.recorder_record_ns",
        scale.ns(|i| recorder.record_outcome(0, OutcomeClass::Ok, 1e-4 + unit(i) * 1e-3, false)),
    );
    black_box(recorder.snapshot());
}

/// The bytes of one `POST /invoke` and of its `200` answer, as the mux
/// client and the reactor server put them on the wire.
fn canonical_exchange() -> (Vec<u8>, Vec<u8>) {
    let body = serde_json::to_vec(&invocation_request()).expect("request serializes");
    let mut request = Vec::new();
    write_canonical_request_head(&mut request, body.len());
    request.extend_from_slice(&body);
    let answer = serde_json::to_vec(&InvocationResult::success(0.0, false)).expect("serializes");
    let mut response = Vec::new();
    write_canonical_response_head(&mut response, answer.len());
    response.extend_from_slice(&answer);
    (request, response)
}

fn write_canonical_request_head<W: Write>(w: &mut W, body_len: usize) {
    let trace = [(http::TRACE_HEADER, "123456789abcdef0")];
    http1::write_request_head(
        w,
        "POST",
        "/invoke",
        "127.0.0.1:7471",
        "application/json",
        body_len,
        true,
        &trace,
    )
    .expect("writing to memory cannot fail");
}

fn write_canonical_response_head<W: Write>(w: &mut W, body_len: usize) {
    http1::write_response_head(w, 200, "OK", "application/json", body_len, true, &[])
        .expect("writing to memory cannot fail");
}

fn reactor(scale: &Scale, m: &mut Metrics) {
    let (request, response) = canonical_exchange();
    m.set(
        "reactor.parse_request_ns",
        scale.ns(|_| {
            let head = http1::parse_request(black_box(&request), 16 * 1024);
            assert!(matches!(black_box(head), Ok(Some(_))));
        }),
    );
    m.set(
        "reactor.parse_response_ns",
        scale.ns(|_| {
            let head = http1::parse_response(black_box(&response), 16 * 1024);
            assert!(matches!(black_box(head), Ok(Some(_))));
        }),
    );
    // Into memory, as the servers do: writes into `io::sink()` are compiled
    // away whole.
    let mut head = Vec::with_capacity(512);
    m.set(
        "reactor.write_request_head_ns",
        scale.ns(|i| {
            head.clear();
            write_canonical_request_head(&mut head, 100 + i % 50);
            black_box(&head);
        }),
    );
    m.set(
        "reactor.write_response_head_ns",
        scale.ns(|i| {
            head.clear();
            write_canonical_response_head(&mut head, 40 + i % 50);
            black_box(&head);
        }),
    );
    let mut sink = io::sink();
    let mut staged = WriteBuf::with_capacity(4_096);
    m.set(
        "reactor.writebuf_stage_flush_ns",
        scale.ns(|_| {
            staged.write_all(&response).expect("staging cannot fail");
            black_box(staged.flush_to(&mut sink).expect("the sink takes everything"));
        }),
    );

    // Arm timers over the next 30 s, as idle deadlines are, then fire all.
    let entries = scale.rounds * scale.calls;
    let epoch = Instant::now();
    let mut wheel = TimerWheel::new(epoch);
    m.set(
        "reactor.wheel_insert_ns",
        scale.ns(|i| {
            wheel.insert(i as u64, epoch + Duration::from_micros((unit(i) * 30e6) as u64));
        }),
    );
    let mut fired = Vec::with_capacity(entries);
    let (seconds, ()) = timed(|| wheel.advance(epoch + Duration::from_secs(60), &mut fired));
    assert_eq!(fired.len(), entries);
    m.set("reactor.wheel_advance_ns_per_entry", seconds * 1e9 / entries as f64);

    m.set("reactor.waker_roundtrip_us", waker_latency_us(scale.calls.min(2_000)));
}

/// Median microseconds from `Waker::wake` on this thread to `Poller::wait`
/// returning on another: the handoff a reactor shard or the mux driver
/// waits on. The answering thread reports the instant it woke; the channel
/// it reports over is not timed.
fn waker_latency_us(rounds: usize) -> f64 {
    let waker = Arc::new(Waker::new().expect("eventfd"));
    let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
    let sleeper = {
        let waker = waker.clone();
        std::thread::spawn(move || {
            let mut poller = Poller::new().expect("epoll instance");
            poller.add(waker.fd(), Interest::READ, 1).expect("register the waker");
            let mut events = Vec::new();
            for _ in 0..rounds {
                events.clear();
                poller.wait(None, &mut events).expect("epoll_wait");
                let woke = Instant::now();
                waker.drain();
                if woke_tx.send(woke).is_err() {
                    break;
                }
            }
        })
    };
    let mut latencies: Vec<f64> = (0..rounds)
        .map(|_| {
            // Let the other thread get back into `wait` first.
            std::thread::sleep(Duration::from_micros(200));
            let sent = Instant::now();
            waker.wake();
            let woke = woke_rx.recv().expect("the sleeper answers every wake");
            woke.saturating_duration_since(sent).as_secs_f64() * 1e6
        })
        .collect();
    sleeper.join().expect("the sleeper thread does not panic");
    median(&mut latencies)
}

fn gateway(scale: &Scale, smoke: bool, m: &mut Metrics) {
    let body = serde_json::to_vec(&invocation_request()).expect("request serializes");
    let mut request = Vec::new();
    http::write_request_with(
        &mut request,
        "POST",
        "/invoke",
        "127.0.0.1:7471",
        "application/json",
        &[(http::TRACE_HEADER, "123456789abcdef0")],
        &body,
        true,
    )
    .expect("writing to memory cannot fail");
    m.set(
        "gateway.http_read_request_ns",
        scale.ns(|_| {
            let parsed = http::read_request(&mut Cursor::new(black_box(&request[..])));
            assert!(matches!(black_box(parsed), Ok(Some(_))));
        }),
    );
    let answer = serde_json::to_vec(&InvocationResult::success(0.0, false)).expect("serializes");
    let mut sink = io::sink();
    m.set(
        "gateway.http_write_response_ns",
        scale.ns(|_| {
            http::write_response(&mut sink, 200, "application/json", black_box(&answer), true)
                .expect("the sink takes everything");
        }),
    );

    let stats = GatewayStats::default();
    let mut render_us: Vec<f64> =
        (0..200).map(|_| timed(|| black_box(stats.to_prometheus())).0 * 1e6).collect();
    m.set("gateway.stats_render_us", median(&mut render_us));

    // One connection, one request at a time, nothing else running: the
    // floor under the socket rows' per-request overhead.
    let invocations = if smoke { 50 } else { 1_500 };
    let rtt_p50_us = |client: &dyn Backend| {
        let request = invocation_request();
        let mut rtts: Vec<f64> = (0..invocations)
            .map(|_| {
                let (seconds, result) = timed(|| client.invoke(&request));
                assert!(result.ok, "ledger invocation failed: {result:?}");
                seconds * 1e6
            })
            .collect();
        median(&mut rtts)
    };
    let cfg = GatewayConfig { workers: 2, ..GatewayConfig::default() };
    {
        let server = ReactorGateway::bind("127.0.0.1:0", Arc::new(NoopBackend), cfg)
            .expect("bind reactor gateway on loopback")
            .spawn();
        let mux = MuxConfig { connections: 1, ..MuxConfig::default() };
        let client = MuxHttpBackend::new(server.addr(), mux).expect("connect mux client");
        m.set("gateway.invoke_rtt_p50_us.reactor", rtt_p50_us(&client));
        drop(client);
        server.stop();
    }
    {
        let server = Gateway::bind("127.0.0.1:0", Arc::new(NoopBackend), cfg)
            .expect("bind threaded gateway on loopback")
            .spawn();
        let client = HttpBackend::connect(&server.addr().to_string(), HttpBackendConfig::default())
            .expect("resolve the gateway address");
        m.set("gateway.invoke_rtt_p50_us.threaded", rtt_p50_us(&client));
        drop(client);
        server.stop();
    }
}

fn simulator(scale: &Scale, m: &mut Metrics) {
    // A tenth of the nodes hold a warm sandbox, so the scan filters and
    // then takes a minimum, as it does mid-run.
    let views = |nodes: usize| -> Vec<NodeView> {
        (0..nodes)
            .map(|i| NodeView {
                warm_for_workload: usize::from(i % 10 == 3),
                free_memory_mb: 4_096.0,
                running: i % 3,
                queued: i % 2,
                cores: 2,
            })
            .collect()
    };
    let mut balancer = WarmFirst;
    for (name, nodes) in [("faas-sim.pick_node_ns.n8", 8), ("faas-sim.pick_node_ns.n256", 256)] {
        let views = views(nodes);
        m.set(
            name,
            scale.ns(|i| {
                black_box(balancer.pick_node(WorkloadId(i as u32 % 64), black_box(&views)));
            }),
        );
    }
}

fn fleet(scale: &Scale, m: &mut Metrics) {
    let n = scale.trace_requests;
    let trace = RequestTrace {
        duration_minutes: 2,
        requests: (0..n as u64)
            .map(|i| Request {
                at_ms: i * 120_000 / n as u64,
                workload: WorkloadId((i % 9) as u32),
                function_index: (i % 97) as u32,
            })
            .collect(),
    };
    let assign = FleetMessage::Assign {
        assignment: Assignment {
            shard: 0,
            shards: 2,
            pacing: Pacing::RealTime { compression: 1.0 },
            workers: 2,
            capture_events: false,
            progress_every_ms: 500,
            target: None,
            trace: trace.clone(),
            pool: WorkloadPool::vanilla(&CostModel::default_calibration()),
            event_capacity: 0,
        },
    };
    let recorder = Recorder::new(2);
    recorder.record_issued(0);
    recorder.record_outcome(1, OutcomeClass::Ok, 2e-4, false);
    let progress = FleetMessage::Progress {
        shard: 0,
        snapshot: recorder.snapshot(),
        prefixes: vec![WorkPrefix { work: 0, watermark: 1, completed: 1, ..WorkPrefix::default() }],
        lag_ms: 0,
        max_lag_ms: 1,
        idle: false,
    };
    let roundtrip_s = |msg: &FleetMessage, frame: &mut Vec<u8>| {
        frame.clear();
        write_frame(frame, msg).expect("writing to memory cannot fail");
        let back = read_frame(&mut &frame[..]).expect("the frame reads back");
        assert!(back.is_some());
    };
    let mut frame = Vec::new();
    m.set(
        "fleet.frame_roundtrip_us.assign",
        scale.seconds(|| roundtrip_s(&assign, &mut frame)) * 1e6,
    );
    m.set(
        "fleet.frame_roundtrip_ns.progress",
        ns_per_call(scale.rounds, scale.calls / 10, |_| roundtrip_s(&progress, &mut frame)),
    );
    m.set(
        "fleet.plan_grants_us",
        scale.seconds(|| plan_grants(&trace, n as u64 / 2, &[0, 1, 2], 10, 3, 60_000)) * 1e6,
    );
}
