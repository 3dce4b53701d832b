//! The `BenchReport` schema — FaaSRail's perf-trajectory file format.
//!
//! Every benchmark artifact the repo commits (`BENCH_gateway.json`,
//! `BENCH_sim_day1.json`) is one of these, so the online tier and the
//! simulator share a single trajectory format and one `bench diff`
//! implementation covers both. Following the SeBS methodology, a report
//! is only credible if it carries (a) the exact load it offered, (b) tail
//! percentiles down to p999, and (c) enough environment metadata to know
//! which commit, compiler, and machine produced the numbers.
//!
//! The schema is versioned via the `schema` field (`faasrail-bench/v1`);
//! readers reject files whose tag they don't recognise rather than
//! mis-diffing them.

use faasrail_telemetry::{BuildInfo, LatencyDecomposition};
use serde::{Deserialize, Serialize};

/// Schema tag written into every report.
pub const SCHEMA: &str = "faasrail-bench/v1";

/// A benchmark result: one workload spec, a ladder of measured rates,
/// optionally a saturation search summary and/or a simulator section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version tag; always [`SCHEMA`] for files this code writes.
    pub schema: String,
    /// Human name of the benchmark (e.g. `gateway-loopback`, `sim-day1`).
    pub name: String,
    /// Which tier was measured: `"gateway"` (online, over TCP) or
    /// `"sim"` (virtual-time simulator).
    pub tier: String,
    /// Environment the numbers were produced on.
    pub env: BenchEnv,
    /// The offered-load specification.
    pub workload: BenchWorkload,
    /// Fixed-rate measurement runs, in execution order (for a saturation
    /// search this is every probe the search made).
    pub runs: Vec<RateRun>,
    /// Saturation search result, when `bench saturate` produced the file.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub saturation: Option<SaturationSummary>,
    /// Simulator throughput numbers, when `lab run` produced the file.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sim: Option<SimStats>,
}

impl BenchReport {
    /// Start an empty report for the given tier with the current
    /// environment captured.
    pub fn new(name: &str, tier: &str, workload: BenchWorkload) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            name: name.to_string(),
            tier: tier.to_string(),
            env: BenchEnv::capture(),
            workload,
            runs: Vec::new(),
            saturation: None,
            sim: None,
        }
    }

    /// Parse a report, rejecting unknown schema tags.
    pub fn from_json(json: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(json).map_err(|e| format!("invalid BENCH json: {e}"))?;
        if report.schema != SCHEMA {
            return Err(format!(
                "unsupported BENCH schema {:?} (this binary reads {SCHEMA:?})",
                report.schema
            ));
        }
        Ok(report)
    }

    /// Serialize with a stable field order and trailing newline (the
    /// committed-baseline format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("BenchReport serializes");
        s.push('\n');
        s
    }

    /// Render the report as a compact human-readable markdown summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("# bench: {} ({})\n\n", self.name, self.tier));
        out.push_str(&format!(
            "- build: {} @ {} ({}{})\n- host: {} × {}\n",
            self.env.build.version,
            self.env.build.short_sha(),
            self.env.build.rustc,
            if self.env.build.debug { ", DEBUG" } else { "" },
            self.env.cores,
            self.env.cpu_model,
        ));
        if let Some(sat) = &self.saturation {
            out.push_str(&format!(
                "- max sustained: **{:.0} RPS** (p99 ≤ {:.1} ms, error rate ≤ {:.4}; {} probes)\n",
                sat.max_sustained_rps, sat.criteria.p99_ms, sat.criteria.max_error_rate, sat.probes,
            ));
        }
        if let Some(sim) = &self.sim {
            out.push_str(&format!(
                "- sim: {:.2} M events/s ({} events, {} arrivals, {} ms wall)\n",
                sim.events_per_sec / 1e6,
                sim.events,
                sim.arrivals,
                sim.wall_ms,
            ));
        }
        if !self.runs.is_empty() {
            out.push_str(
                "\n| target RPS | achieved | err rate | p50 ms | p95 ms | p99 ms | p999 ms | ok |\n",
            );
            out.push_str("|---:|---:|---:|---:|---:|---:|---:|:--|\n");
            for r in &self.runs {
                let s = &r.stages.response;
                out.push_str(&format!(
                    "| {:.0} | {:.0} | {:.4} | {:.2} | {:.2} | {:.2} | {:.2} | {} |\n",
                    r.target_rps,
                    r.achieved_rps,
                    r.error_rate,
                    s.p50_ms,
                    s.p95_ms,
                    s.p99_ms,
                    s.p999_ms,
                    if r.accepted { "✓" } else { "✗" },
                ));
            }
        }
        out
    }
}

/// Environment metadata: what produced the numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEnv {
    /// Build provenance (git sha, crate version, rustc, debug flag).
    pub build: BuildInfo,
    /// CPU model string from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
    /// Logical cores available to the process.
    pub cores: u64,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl BenchEnv {
    /// Capture the current environment.
    pub fn capture() -> BenchEnv {
        BenchEnv {
            build: BuildInfo::current(),
            cpu_model: cpu_model(),
            cores: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

fn cpu_model() -> String {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return "unknown".to_string();
    };
    for line in info.lines() {
        // x86 calls it "model name"; some arm kernels only expose
        // "Hardware" or per-cpu "CPU part" — take the first match.
        if let Some(rest) = line.split_once(':').filter(|(k, _)| {
            let k = k.trim();
            k == "model name" || k == "Hardware" || k == "cpu model"
        }) {
            let model = rest.1.trim();
            if !model.is_empty() {
                return model.to_string();
            }
        }
    }
    "unknown".to_string()
}

/// The offered-load specification a report measured under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchWorkload {
    /// Arrival process: `"uniform"` or `"poisson"` for synthetic rates;
    /// `"trace"` for replayed traces; `"grid"` for lab experiment grids.
    pub arrivals: String,
    /// Per-rung run duration, seconds (0 for sim sections).
    pub duration_s: f64,
    /// Replay worker threads (client side).
    pub workers: u64,
    /// Deterministic seed the load was generated from.
    pub seed: u64,
    /// Free-form description of the target (e.g. `127.0.0.1:7001/noop`,
    /// `in-process`, `sim azure-day1`).
    pub target: String,
}

/// One fixed-rate measurement rung.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateRun {
    /// The rate the pacer offered, requests per second.
    pub target_rps: f64,
    /// Wall-clock duration of the rung, seconds.
    pub duration_s: f64,
    /// Requests dispatched.
    pub offered: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (all classes, including shed).
    pub errors: u64,
    /// Completion throughput: `completed / duration`.
    pub achieved_rps: f64,
    /// `errors / offered` (0 when nothing was offered).
    pub error_rate: f64,
    /// Whether this rung met the acceptance criteria it was run under
    /// (always true for plain fixed-rate runs with no criteria).
    pub accepted: bool,
    /// Per-stage latency distributions, p999 included: the five stages of
    /// the run's [`RunReport`](faasrail_telemetry::RunReport).
    pub stages: LatencyDecomposition,
}

/// What "sustained" means: the criteria a rung must meet for the
/// saturation search to call it passing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceptCriteria {
    /// p99 end-to-end response time must stay at or below this.
    pub p99_ms: f64,
    /// Error rate (`errors / offered`) must stay at or below this.
    pub max_error_rate: f64,
    /// p99 pacer lateness must stay at or below this — past it the
    /// load generator itself can't hold the rate, so the measurement
    /// says nothing about the server.
    pub max_lateness_p99_ms: f64,
}

impl Default for AcceptCriteria {
    fn default() -> Self {
        AcceptCriteria { p99_ms: 50.0, max_error_rate: 0.001, max_lateness_p99_ms: 100.0 }
    }
}

impl AcceptCriteria {
    /// Does a measured rung meet the criteria?
    pub fn accepts(&self, run: &RateRun) -> bool {
        run.stages.response.p99_ms <= self.p99_ms
            && run.error_rate <= self.max_error_rate
            && run.stages.lateness.p99_ms <= self.max_lateness_p99_ms
    }
}

/// Result of a saturation binary search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaturationSummary {
    /// Highest rate that met the criteria (0 if even the lowest probe
    /// failed).
    pub max_sustained_rps: f64,
    /// The criteria searched under.
    pub criteria: AcceptCriteria,
    /// Number of measurement probes the search made.
    pub probes: u64,
}

/// Simulator throughput numbers (the lab tier's half of the trajectory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Experiment scale (`small` / `paper`).
    pub scale: String,
    /// Grid cells executed.
    pub cells: u64,
    /// Worker threads the grid ran on.
    pub parallel: u64,
    /// Total simulated arrivals.
    pub arrivals: u64,
    /// Total simulator events processed.
    pub events: u64,
    /// Wall-clock time, milliseconds.
    pub wall_ms: u64,
    /// Aggregate event throughput.
    pub events_per_sec: f64,
    /// Peak RSS (`VmHWM`), MiB; 0 when unavailable.
    pub peak_rss_mb: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_telemetry::LatencyStat;

    fn sample_report() -> BenchReport {
        let workload = BenchWorkload {
            arrivals: "uniform".to_string(),
            duration_s: 2.0,
            workers: 4,
            seed: 42,
            target: "loopback/noop".to_string(),
        };
        let mut r = BenchReport::new("gateway-loopback", "gateway", workload);
        let response = LatencyStat {
            count: 1000,
            mean_ms: 50.05,
            p50_ms: 49.1,
            p95_ms: 96.3,
            p99_ms: 101.1,
            p999_ms: 101.1,
            max_ms: 101.4,
        };
        r.runs.push(RateRun {
            target_rps: 500.0,
            duration_s: 2.0,
            offered: 1000,
            completed: 1000,
            errors: 0,
            achieved_rps: 500.0,
            error_rate: 0.0,
            accepted: true,
            stages: LatencyDecomposition { response, ..Default::default() },
        });
        r
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample_report();
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut r = sample_report();
        r.schema = "faasrail-bench/v999".to_string();
        let err = BenchReport::from_json(&r.to_json()).unwrap_err();
        assert!(err.contains("v999"), "{err}");
    }

    /// The committed trajectories parse with the stage type shared with
    /// `RunReport`, keep every stage's p999 through a write and a read, and
    /// a `RunReport` from before `p999_ms` existed still reads.
    #[test]
    fn committed_trajectories_parse_with_the_merged_types() {
        let read = |name: &str| {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            BenchReport::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let p999s = |r: &BenchReport| -> Vec<f64> {
            let stages = r.runs.iter().map(|run| run.stages);
            stages
                .flat_map(|s| [s.lateness, s.queue_wait, s.service, s.overhead, s.response])
                .map(|stat| stat.p999_ms)
                .collect()
        };
        let gateway = read("BENCH_gateway.json");
        assert!(!gateway.runs.is_empty() && gateway.saturation.is_some());
        assert!(p999s(&gateway).iter().any(|&p| p > 0.0), "the ladder carries p999s");
        let sim = read("BENCH_sim_day1.json");
        assert!(sim.runs.is_empty() && sim.sim.is_some());
        for report in [gateway, sim] {
            let back = BenchReport::from_json(&report.to_json()).unwrap();
            assert_eq!(p999s(&back), p999s(&report));
            assert_eq!(back, report);
        }

        let mut old = serde_json::to_string(&faasrail_telemetry::RunReport::default()).unwrap();
        old = old.replace("\"p999_ms\":0.0,", "");
        assert!(!old.contains("p999_ms") && old.contains("\"p99_ms\""), "{old}");
        let parsed: faasrail_telemetry::RunReport = serde_json::from_str(&old).unwrap();
        assert_eq!(parsed.decomposition, LatencyDecomposition::default());
    }

    #[test]
    fn env_capture_is_populated() {
        let env = BenchEnv::capture();
        assert!(!env.build.git_sha.is_empty());
        assert!(!env.os.is_empty());
        assert!(!env.arch.is_empty());
    }

    #[test]
    fn markdown_mentions_saturation_and_rungs() {
        let mut r = sample_report();
        r.saturation = Some(SaturationSummary {
            max_sustained_rps: 1234.0,
            criteria: AcceptCriteria::default(),
            probes: 7,
        });
        let md = r.to_markdown();
        assert!(md.contains("1234"), "{md}");
        assert!(md.contains("| 500 |"), "{md}");
    }

    #[test]
    fn criteria_accept_logic() {
        let c = AcceptCriteria { p99_ms: 10.0, max_error_rate: 0.01, max_lateness_p99_ms: 50.0 };
        let mut run = sample_report().runs[0].clone();
        run.stages.response.p99_ms = 9.0;
        run.stages.lateness.p99_ms = 0.0;
        run.error_rate = 0.0;
        assert!(c.accepts(&run));
        run.stages.response.p99_ms = 11.0;
        assert!(!c.accepts(&run));
        run.stages.response.p99_ms = 9.0;
        run.error_rate = 0.02;
        assert!(!c.accepts(&run));
        run.error_rate = 0.0;
        run.stages.lateness.p99_ms = 60.0;
        assert!(!c.accepts(&run), "an over-lagged pacer must not count as sustained");
    }
}
