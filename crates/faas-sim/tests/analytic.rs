//! The simulator against closed forms: keep-alive under Poisson arrivals,
//! and a single-server queue with deterministic service.
//!
//! Every run goes through the arrival hand-off's helper path, so these
//! oracles also hold the hand-off to arrivals the engine can use. Each
//! tolerance is written down before the run, from the sample size: a
//! fraction estimated from `n` arrivals has the binomial standard error
//! `sqrt(p (1 - p) / n)`, and the bound is [`SIGMAS`] of those.
//!
//! Arrivals are whole milliseconds (the lazy stream floors each draw), and
//! the closed forms below are taken on that clock: where the floor moves
//! the answer by more than the noise, the oracle says how.

use faasrail_core::{ArrivalStream, IatModel, ModelEntry, ScheduleModel};
use faasrail_faas_sim::handoff::{forcing, Path};
use faasrail_faas_sim::{
    simulate_observed, ClusterConfig, ColdStartModel, FixedTtl, KeepAlivePolicy, LruPolicy,
    RoundRobin, SimMetrics, SimOptions,
};
use faasrail_stats::rng::{cases, Rng};
use faasrail_telemetry::{EventSink, NullSink, TelemetryEvent};
use faasrail_workloads::{Workload, WorkloadId, WorkloadInput, WorkloadKind, WorkloadPool};
use std::sync::Mutex;

/// Standard errors a measured fraction may stray from its closed form.
const SIGMAS: f64 = 5.0;

/// One workload that runs for `service_ms` on a node whose sandboxes start
/// for free, so that service is the only time a sandbox is busy.
fn one_workload(service_ms: f64) -> (WorkloadPool, ClusterConfig) {
    let input = WorkloadInput::vanilla(WorkloadKind::ALL[0]);
    let workload = Workload { id: WorkloadId(0), input, mean_ms: service_ms, memory_mb: 64.0 };
    let cluster = ClusterConfig {
        cold_start: ColdStartModel { base_ms: 0.0, per_100mb_ms: 0.0 },
        ..ClusterConfig::single_node(1, 1_048_576.0)
    };
    (WorkloadPool::from_workloads(vec![workload]), cluster)
}

/// Poisson arrivals of workload 0 at `per_minute` a minute, for `minutes`.
fn poisson(per_minute: u64, minutes: u32) -> ScheduleModel {
    ScheduleModel {
        duration_minutes: minutes as usize,
        iat: IatModel::Poisson,
        entries: vec![ModelEntry {
            function_index: 0,
            workload: WorkloadId(0),
            alternates: vec![],
            minutes: (0..minutes).map(|m| (m, per_minute)).collect(),
        }],
    }
}

fn run(
    model: &ScheduleModel,
    seed: u64,
    (pool, cluster): &(WorkloadPool, ClusterConfig),
    policy: &mut dyn KeepAlivePolicy,
    sink: &dyn EventSink,
) -> SimMetrics {
    let stream = ArrivalStream::new(model, seed);
    forcing(Path::Helper, || {
        let opts = SimOptions::default();
        simulate_observed(&stream, pool, cluster, &mut RoundRobin::default(), policy, &opts, sink)
    })
}

fn tolerance(p: f64, n: u64) -> f64 {
    SIGMAS * (p * (1.0 - p) / n as f64).sqrt()
}

/// (i) Keep-alive. On one core, a sandbox that serves for 1 µs and is kept
/// `T` ms after it finishes serves the next arrival warm unless the gap
/// between the two is longer than `T` (an arrival that finds it busy
/// queues for a microsecond and is served warm). Under Poisson arrivals at
/// `λ` per ms on a continuous clock the cold fraction is `e^{-λT}`. On
/// whole milliseconds, with the first arrival's offset in its millisecond
/// `u` uniform and the gap `G ~ Exp(λ)`, the next arrival is cold when
/// `u + G >= T + 1`:
///
/// `p = e^{-λ(T+1)} (e^λ - 1) / λ = e^{-λT} (1 - e^{-λ}) / λ`,
///
/// which tends to `e^{-λT}` as `λ · 1 ms` goes to 0. At `λ = 0.1` per ms
/// the floor takes 4.8 % off `e^{-λT}`; an expiry armed 1 ms early moves
/// `p` up by `≈ λ e^{-λT}`, 0.035 at `λT = 1` and 0.013 at `λT = 2`, both
/// well past the tolerance.
#[test]
fn the_cold_fraction_under_a_fixed_ttl_is_e_to_the_minus_lambda_t() {
    const PER_MINUTE: u64 = 6_000; // λ = 0.1 per ms
    const MINUTES: u32 = 30; // ≈ 180 000 arrivals
    let lambda = PER_MINUTE as f64 / 60_000.0;
    let node = one_workload(0.001);
    for ttl_ms in [10u64, 20] {
        let t = ttl_ms as f64;
        let want = (-lambda * t).exp() * (1.0 - (-lambda).exp()) / lambda;
        cases(&format!("cold_fraction_at_ttl_{ttl_ms}_ms"), 2, |rng| {
            let mut policy = FixedTtl { ttl_ms };
            let m =
                run(&poisson(PER_MINUTE, MINUTES), rng.next_u64(), &node, &mut policy, &NullSink);
            assert_eq!(m.completions, m.arrivals);
            let got = m.cold_starts as f64 / m.arrivals as f64;
            let tol = tolerance(want, m.arrivals);
            assert!(
                (got - want).abs() <= tol,
                "λT = {}: cold fraction {got:.4}, closed form {want:.4} ± {tol:.4} \
                 ({} arrivals; e^(-λT) = {:.4})",
                lambda * t,
                m.arrivals,
                (-lambda * t).exp(),
            );
        });
    }
}

/// Each invocation's wait, from its span: pickup minus arrival, in µs.
#[derive(Default)]
struct Waits(Mutex<Vec<u64>>);

impl EventSink for Waits {
    fn emit(&self, event: &TelemetryEvent) {
        if let TelemetryEvent::Invocation(span) = event {
            self.0.lock().unwrap().push(span.picked_up_us - span.dispatched_us);
        }
    }
}

/// (ii) One core, nothing ever expires, every invocation takes `D` = 1 s:
/// an M/D/1 queue at load `ρ = λD`. An arrival waits when it finds the
/// core busy, which by PASTA it does with probability `ρ`, whatever the
/// queue's order. FIFO order shows in how long it waits: Crommelin's
/// distribution of the M/D/1 wait gives `P(W <= x) = (1 - ρ) e^{λx}` for
/// `0 <= x < D`, so `P(W < D) = (1 - ρ) e^ρ` — 0.824 at `ρ = 0.5`, 0.445 at
/// `ρ = 0.8`. A last-come-first-served queue serves the latest arrival at
/// the next completion, so it waits less than `D` whenever it waits at all
/// and only what it found queued waits longer: `P(W < D)` rises, and the
/// second oracle goes red. With `D` a thousand milliseconds, whole
/// millisecond arrivals move either fraction by less than the noise.
#[test]
fn a_single_core_queue_waits_as_m_d_1_does() {
    const SERVICE_MS: u64 = 1_000;
    const ARRIVALS: u64 = 100_000;
    let node = one_workload(SERVICE_MS as f64);
    for (rho, per_minute) in [(0.5, 30u64), (0.8, 48)] {
        let minutes = (ARRIVALS / per_minute) as u32;
        let lambda = per_minute as f64 / 60_000.0;
        assert!((lambda * SERVICE_MS as f64 - rho).abs() < 1e-12);
        cases(&format!("m_d_1_waits_at_rho_{rho}"), 1, |rng| {
            let waits = Waits::default();
            let model = poisson(per_minute, minutes);
            let m = run(&model, rng.next_u64(), &node, &mut LruPolicy, &waits);
            let waits = waits.0.into_inner().unwrap();
            assert_eq!((waits.len() as u64, m.starved), (m.arrivals, 0));
            let n = m.arrivals;
            let fraction = |pred: &dyn Fn(u64) -> bool| {
                waits.iter().filter(|&&w| pred(w)).count() as f64 / n as f64
            };
            let (waited, want) = (fraction(&|w| w > 0), rho);
            let tol = tolerance(want, n);
            assert!(
                (waited - want).abs() <= tol,
                "ρ = {rho}: P(wait > 0) = {waited:.4}, closed form {want:.4} ± {tol:.4}"
            );
            let (short, want) = (fraction(&|w| w < SERVICE_MS * 1_000), (1.0 - rho) * rho.exp());
            let tol = tolerance(want, n);
            assert!(
                (short - want).abs() <= tol,
                "ρ = {rho}: P(wait < D) = {short:.4}, closed form {want:.4} ± {tol:.4}"
            );
        });
    }
}
