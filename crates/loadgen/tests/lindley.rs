//! The replayer against a closed form. One worker serving a real-time
//! trace is a single-server FCFS queue, so each request's wait follows the
//! Lindley recursion over the requests' due instants and the service each
//! measured: `W(n+1) = max(0, W(n) + S(n) - (T(n+1) - T(n)))`. Whatever
//! the replay waited beyond that is the generator's own overhead.

use faasrail_loadgen::{
    fixed_rate_trace, replay_observed, ArrivalProcess, Backend, InvocationRequest,
    InvocationResult, Pacing, ReplayConfig, ReplayInstruments,
};
use faasrail_telemetry::{RingSink, TelemetryEvent};
use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Sleeps `self.0` per invocation, reporting it as service time.
struct Sleeps(Duration);

impl Backend for Sleeps {
    fn invoke(&self, _req: &InvocationRequest) -> InvocationResult {
        std::thread::sleep(self.0);
        InvocationResult::success(self.0.as_secs_f64() * 1e3, false)
    }
}

/// One 2 s replay at ρ = 0.5: a 4 ms backend and 125 Poisson arrivals a
/// second (12.5 a second for 20 s of trace time, replayed 10× faster).
/// Returns the mean wait beyond the recursion's, milliseconds.
fn mean_excess_ms() -> f64 {
    let trace = fixed_rate_trace(12.5, 20.0, WorkloadId(7), ArrivalProcess::Poisson, 44);
    let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
    let sink = RingSink::with_capacity(trace.len() + 2);
    let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };
    let cfg = ReplayConfig { pacing: Pacing::RealTime { compression: 10.0 }, workers: 1 };
    let backend = Sleeps(Duration::from_millis(4));
    let m = replay_observed(&trace, &pool, &backend, &cfg, &AtomicBool::new(false), &inst);
    assert_eq!(m.completed, trace.len() as u64);

    let mut spans: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TelemetryEvent::Invocation(span) => Some(span),
            _ => None,
        })
        .collect();
    spans.sort_by_key(|s| s.seq);
    assert_eq!(spans.len(), trace.len());

    // Microseconds throughout.
    let (mut lindley, mut excess) = (0.0f64, 0.0f64);
    for (i, s) in spans.iter().enumerate() {
        if let Some(prev) = i.checked_sub(1).map(|p| &spans[p]) {
            let service = (prev.completed_us - prev.picked_up_us) as f64;
            lindley = (lindley + service - (s.target_us - prev.target_us) as f64).max(0.0);
        }
        excess += (s.picked_up_us - s.target_us) as f64 - lindley;
    }
    excess / spans.len() as f64 / 1e3
}

/// Up to three runs; the last must pass. The generator's own overhead
/// shows in every run, while a stall of the shared machine (another
/// tenant's burst) rarely lands on two runs in a row.
fn runs() -> Vec<f64> {
    let mut runs = Vec::new();
    while runs.len() < 3 && runs.last().is_none_or(|&excess| excess >= 0.5) {
        runs.push(mean_excess_ms());
    }
    runs
}

/// [`runs`] beside in-process threads that spin until they are done, one
/// per available CPU (at most 4), so a runnable CPU-bound neighbour shares
/// whichever CPU the replay's worker runs on.
fn runs_beside_spinners() -> Vec<f64> {
    let spinners = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..spinners {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        // A panicking run still stops the spinners, or the scope never ends.
        let runs = std::panic::catch_unwind(runs);
        done.store(true, Ordering::Relaxed);
        runs.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

#[test]
fn a_realtime_replay_waits_what_the_lindley_recursion_waits() {
    // The quiet case and the busy case run one after the other, so neither
    // perturbs the other.
    let quiet = runs();
    let busy = runs_beside_spinners();
    eprintln!("mean wait beyond Lindley's per run, ms: quiet {quiet:?}, busy {busy:?}");
    assert!(quiet.last() < Some(&0.5), "mean wait beyond Lindley's per run, ms: {quiet:?}");
    assert!(
        busy.last() < Some(&0.5),
        "beside spinning threads, mean wait beyond Lindley's per run, ms: {busy:?}"
    );
}
