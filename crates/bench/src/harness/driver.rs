//! Fixed-rate measurement runs and the saturation binary search.
//!
//! ## Why open-loop
//!
//! A closed-loop harness (issue the next request when the previous one
//! returns) silently slows its own offered rate when the server queues —
//! the coordinated-omission mistake — so its "p99 at N RPS" is really
//! "p99 at whatever rate the server allowed". The driver here reuses the
//! replayer's open-loop schedule: requests fall due on schedule regardless
//! of outstanding responses, and when the generator itself falls behind
//! the deficit is *booked* as dispatch lateness (its own measured stage
//! with a p99 acceptance bound), never hidden. A rung whose generator
//! lagged past the bound is rejected as unsustained even if the server
//! looked fine, because the offered rate wasn't actually offered.
//!
//! ## Saturation search
//!
//! [`saturation_search`] is *pure over an injected measure function*: it
//! decides which rates to probe, the measure closure does the actual
//! load. That split is what makes the search unit-testable — drive it
//! with a deterministic synthetic server model and the probe sequence is
//! reproducible bit for bit ([`SearchConfig`] has no hidden randomness).
//! The strategy is bracket-then-bisect: double from `start_rps` until a
//! rung fails the criteria (or `max_rps` passes), then binary-search the
//! bracket down to `resolution_rps`.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use faasrail_loadgen::{
    fixed_rate_trace, replay_observed, ArrivalProcess, Backend, Pacing, ReplayConfig,
    ReplayInstruments,
};
use faasrail_telemetry::{RingSink, RunReport};
use faasrail_workloads::{WorkloadId, WorkloadPool};

use super::report::{AcceptCriteria, RateRun, SaturationSummary};

/// One fixed-rate rung's specification.
#[derive(Debug, Clone, Copy)]
pub struct FixedRateSpec {
    /// Offered rate, requests per second.
    pub rps: f64,
    /// How long to hold the rate, seconds.
    pub duration_s: f64,
    /// Replay worker threads.
    pub workers: usize,
    /// Arrival process for the synthetic trace.
    pub process: ArrivalProcess,
    /// Trace seed (arrival times for Poisson).
    pub seed: u64,
    /// Which pool workload every request invokes.
    pub workload: WorkloadId,
}

impl Default for FixedRateSpec {
    fn default() -> Self {
        FixedRateSpec {
            rps: 100.0,
            duration_s: 2.0,
            workers: 8,
            process: ArrivalProcess::Uniform,
            seed: 42,
            workload: WorkloadId(7),
        }
    }
}

/// Run one fixed-rate rung against a backend and fold the telemetry
/// stream into a [`RateRun`] with per-stage p50/p95/p99/p999.
///
/// `accepted` is stamped `true`; a saturation search re-stamps it from
/// its criteria.
pub fn run_fixed_rate<B: Backend>(
    backend: &B,
    pool: &WorkloadPool,
    spec: &FixedRateSpec,
) -> RateRun {
    let trace = fixed_rate_trace(spec.rps, spec.duration_s, spec.workload, spec.process, spec.seed);
    let n = trace.requests.len();
    // run_start + n invocation spans + run_end must all be retained.
    let sink = RingSink::with_capacity(n + 8);
    let cfg = ReplayConfig { pacing: Pacing::RealTime { compression: 1.0 }, workers: spec.workers };
    let stop = AtomicBool::new(false);
    let inst = ReplayInstruments { sink: &sink, recorder: None, pace: None };

    let started = Instant::now();
    let metrics = replay_observed(&trace, pool, backend, &cfg, &stop, &inst);
    let wall_s = started.elapsed().as_secs_f64();
    debug_assert_eq!(sink.dropped(), 0, "bench sink must retain every span");

    let offered = metrics.issued;
    let errors = metrics.errors;
    RateRun {
        target_rps: spec.rps,
        duration_s: spec.duration_s,
        offered,
        completed: metrics.completed,
        errors,
        achieved_rps: if wall_s > 0.0 { metrics.completed as f64 / wall_s } else { 0.0 },
        error_rate: if offered > 0 { errors as f64 / offered as f64 } else { 0.0 },
        accepted: true,
        stages: RunReport::from_events(&sink.events()).decomposition,
    }
}

/// Saturation search strategy parameters. Fully deterministic: the probe
/// sequence is a function of these values and the measure results alone.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// First rate probed; the bracket phase doubles from here.
    pub start_rps: f64,
    /// Hard ceiling — if this rate passes, the search reports it as the
    /// sustained maximum without probing further.
    pub max_rps: f64,
    /// Stop bisecting when the bracket is narrower than this.
    pub resolution_rps: f64,
    /// Safety cap on total probes (bracket + bisection).
    pub max_probes: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { start_rps: 64.0, max_rps: 65_536.0, resolution_rps: 16.0, max_probes: 24 }
    }
}

/// Binary-search the maximum sustained rate, probing via `measure`.
///
/// Returns the summary plus every probe rung in execution order (each
/// stamped with whether it met `criteria`). The search itself performs
/// no I/O and holds no randomness: given a deterministic `measure`, the
/// probe sequence and result are reproducible exactly.
pub fn saturation_search<F>(
    mut measure: F,
    criteria: &AcceptCriteria,
    cfg: &SearchConfig,
) -> (SaturationSummary, Vec<RateRun>)
where
    F: FnMut(f64) -> RateRun,
{
    assert!(cfg.start_rps > 0.0 && cfg.max_rps >= cfg.start_rps, "bad search bracket");
    let mut runs: Vec<RateRun> = Vec::new();
    let mut probe = |rps: f64, runs: &mut Vec<RateRun>| -> bool {
        let mut run = measure(rps);
        run.target_rps = rps;
        run.accepted = criteria.accepts(&run);
        let ok = run.accepted;
        runs.push(run);
        ok
    };

    // Bracket: double until a failure (or the ceiling passes).
    let mut lo = 0.0f64; // highest passing rate seen
    let mut hi: Option<f64> = None; // lowest failing rate seen
    let mut rps = cfg.start_rps;
    loop {
        if runs.len() >= cfg.max_probes {
            break;
        }
        if probe(rps, &mut runs) {
            lo = rps;
            if rps >= cfg.max_rps {
                break;
            }
            rps = (rps * 2.0).min(cfg.max_rps);
        } else {
            hi = Some(rps);
            break;
        }
    }

    // Bisect the bracket (lo passing, hi failing) down to resolution.
    if let Some(mut hi) = hi {
        while hi - lo > cfg.resolution_rps && runs.len() < cfg.max_probes {
            let mid = lo + (hi - lo) / 2.0;
            if probe(mid, &mut runs) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    let summary =
        SaturationSummary { max_sustained_rps: lo, criteria: *criteria, probes: runs.len() as u64 };
    (summary, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::rng::mix64;
    use faasrail_telemetry::{LatencyDecomposition, LatencyStat};

    /// A deterministic synthetic server: p99 grows past the knee, error
    /// rate climbs when well past it. Seeded "jitter" is a pure hash of
    /// the probed rate, so the model is noisy-looking but reproducible.
    fn model(knee_rps: f64, seed: u64) -> impl FnMut(f64) -> RateRun {
        move |rps: f64| {
            // [0, 1)
            let jitter = (mix64(seed ^ rps.to_bits()) >> 40) as f64 / (1u64 << 24) as f64;
            let load = rps / knee_rps;
            // The p99 steps past the 50 ms criterion exactly at the knee,
            // so the knee is the acceptance boundary the search must find.
            let p99 = if load < 1.0 { 5.0 + jitter } else { 60.0 + (load - 1.0) * 400.0 + jitter };
            let error_rate = if load > 1.5 { (load - 1.5) * 0.1 } else { 0.0 };
            RateRun {
                target_rps: rps,
                duration_s: 1.0,
                offered: rps as u64,
                completed: ((rps * (1.0 - error_rate)) as u64).min(rps as u64),
                errors: (rps * error_rate) as u64,
                achieved_rps: rps * (1.0 - error_rate),
                error_rate,
                accepted: false,
                stages: LatencyDecomposition {
                    response: LatencyStat { count: rps as u64, p99_ms: p99, ..Default::default() },
                    ..Default::default()
                },
            }
        }
    }

    #[test]
    fn search_is_deterministic_under_a_seeded_workload() {
        let criteria =
            AcceptCriteria { p99_ms: 50.0, max_error_rate: 0.001, max_lateness_p99_ms: 1e9 };
        let cfg = SearchConfig {
            start_rps: 64.0,
            max_rps: 65_536.0,
            resolution_rps: 8.0,
            max_probes: 32,
        };
        let (a, runs_a) = saturation_search(model(3000.0, 0xfaa5), &criteria, &cfg);
        let (b, runs_b) = saturation_search(model(3000.0, 0xfaa5), &criteria, &cfg);
        assert_eq!(a, b, "same seed ⇒ identical summary");
        assert_eq!(runs_a, runs_b, "same seed ⇒ identical probe ladder");
        let probed: Vec<f64> = runs_a.iter().map(|r| r.target_rps).collect();
        assert_eq!(probed.len(), a.probes as usize);
        // Different seed shifts the jitter but must not move the result
        // past the knee: the found maximum brackets 3000 within resolution.
        let (c, _) = saturation_search(model(3000.0, 0x1234), &criteria, &cfg);
        assert!((a.max_sustained_rps - 3000.0).abs() < 3000.0 * 0.05, "{}", a.max_sustained_rps);
        assert!((c.max_sustained_rps - 3000.0).abs() < 3000.0 * 0.05, "{}", c.max_sustained_rps);
    }

    #[test]
    fn search_converges_within_resolution() {
        let criteria = AcceptCriteria { p99_ms: 50.0, ..Default::default() };
        let cfg = SearchConfig {
            start_rps: 100.0,
            max_rps: 100_000.0,
            resolution_rps: 4.0,
            max_probes: 64,
        };
        let (sum, runs) = saturation_search(model(7777.0, 1), &criteria, &cfg);
        assert!(
            (sum.max_sustained_rps - 7777.0).abs() <= 7777.0 * 0.02,
            "{}",
            sum.max_sustained_rps
        );
        // The final bracket is tighter than the resolution.
        let lowest_fail =
            runs.iter().filter(|r| !r.accepted).map(|r| r.target_rps).fold(f64::INFINITY, f64::min);
        assert!(lowest_fail - sum.max_sustained_rps <= cfg.resolution_rps + 1e-9);
    }

    #[test]
    fn all_passing_reports_ceiling_and_all_failing_reports_zero() {
        let criteria = AcceptCriteria { p99_ms: 50.0, ..Default::default() };
        let cfg =
            SearchConfig { start_rps: 10.0, max_rps: 100.0, resolution_rps: 1.0, max_probes: 32 };
        let (sum, _) = saturation_search(model(1e12, 1), &criteria, &cfg);
        assert_eq!(sum.max_sustained_rps, 100.0, "ceiling passes ⇒ report ceiling");
        let (sum, runs) = saturation_search(model(0.001, 1), &criteria, &cfg);
        assert_eq!(sum.max_sustained_rps, 0.0, "nothing passes ⇒ zero");
        assert!(runs.iter().all(|r| !r.accepted));
    }

    #[test]
    fn probe_count_respects_cap() {
        let criteria = AcceptCriteria::default();
        let cfg =
            SearchConfig { start_rps: 1.0, max_rps: 1e15, resolution_rps: 1e-9, max_probes: 9 };
        let (sum, runs) = saturation_search(model(1e18, 7), &criteria, &cfg);
        assert!(runs.len() <= 9);
        assert_eq!(sum.probes as usize, runs.len());
    }
}
