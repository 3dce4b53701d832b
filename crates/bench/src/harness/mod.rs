//! The online-tier benchmark harness and perf-trajectory format.
//!
//! Three pieces (DESIGN.md §8):
//!
//! * [`report`] — the versioned [`BenchReport`](report::BenchReport)
//!   JSON schema both tiers emit (`BENCH_gateway.json`,
//!   `BENCH_sim_day1.json`): workload spec, RPS ladder with per-stage
//!   p50/p95/p99/p999 (the run's `RunReport` decomposition), saturation
//!   summary, environment metadata;
//! * [`driver`] — open-loop fixed-rate measurement rungs over the
//!   replayer, plus a deterministic bracket-and-bisect saturation
//!   search that is pure over an injected measure function;
//! * [`diff`] — direction-aware, noise-floored regression diffing
//!   between two reports, the `bench diff` CI gate.

pub mod diff;
pub mod driver;
pub mod report;

pub use diff::{diff_reports, BenchDiff, DiffRow};
pub use driver::{run_fixed_rate, saturation_search, FixedRateSpec, SearchConfig};
pub use report::{
    AcceptCriteria, BenchEnv, BenchReport, BenchWorkload, RateRun, SaturationSummary, SimStats,
    SCHEMA,
};

/// A lab run's wall-clock stats, plus this process's peak RSS, in the
/// shared trajectory schema, so `BENCH_sim_day1.json` and
/// `BENCH_gateway.json` diff with the same tool. `seed` is the seed the
/// day's trace was generated from; the workload's duration is the run's
/// wall time.
pub fn sim_report(
    name: &str,
    scale: &str,
    seed: u64,
    stats: &faasrail_lab::LabRunStats,
) -> BenchReport {
    let workload = BenchWorkload {
        arrivals: "grid".to_string(),
        duration_s: stats.wall_ms as f64 / 1_000.0,
        workers: stats.workers as u64,
        seed,
        target: format!("sim {scale}"),
    };
    let mut r = BenchReport::new(name, "sim", workload);
    r.sim = Some(SimStats {
        scale: scale.to_string(),
        cells: stats.cells as u64,
        parallel: stats.workers as u64,
        arrivals: stats.arrivals,
        events: stats.events,
        wall_ms: stats.wall_ms,
        events_per_sec: stats.events_per_sec(),
        peak_rss_mb: faasrail_lab::peak_rss_mb().unwrap_or(0.0),
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_record_maps_into_the_shared_schema() {
        let stats = faasrail_lab::LabRunStats {
            cells: 4,
            workers: 2,
            wall_ms: 2_000,
            events: 1_000_000,
            arrivals: 400_000,
        };
        let r = sim_report("sim-day1", "small", 1234, &stats);
        assert_eq!(r.schema, SCHEMA);
        assert_eq!(r.tier, "sim");
        assert_eq!((r.name.as_str(), r.workload.workers), ("sim-day1", 2));
        // The record says what ran: the trace's seed, for the run's wall time.
        assert_eq!((r.workload.seed, r.workload.duration_s), (1234, 2.0));
        let sim = r.sim.as_ref().unwrap();
        assert_eq!((sim.scale.as_str(), sim.cells, sim.parallel), ("small", 4, 2));
        assert_eq!((sim.arrivals, sim.events, sim.wall_ms), (400_000, 1_000_000, 2_000));
        assert_eq!(sim.events_per_sec, 500_000.0);
        if cfg!(target_os = "linux") {
            assert!(sim.peak_rss_mb > 0.0, "VmHWM should be readable on Linux");
        }
        assert!(r.runs.is_empty() && r.saturation.is_none());
        // And it survives the schema round trip like any other report.
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }
}
