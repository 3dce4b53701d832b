//! Regression diffing between two `BenchReport`s.
//!
//! `faasrail bench diff OLD NEW` is the CI gate every perf PR runs
//! against the committed baseline: it compares the metrics the two
//! reports share, prints a markdown delta table, and (unless advisory)
//! fails past a configurable regression threshold.
//!
//! Two guards keep the gate honest rather than noisy:
//!
//! * **direction-aware** — every metric knows whether higher is better
//!   (sustained RPS, sim events/s) or lower is better (tail latencies,
//!   error rate); only changes in the *bad* direction can regress.
//! * **absolute floors** — a relative threshold alone flags 0.10 ms →
//!   0.12 ms as a "20% regression"; each metric carries an absolute
//!   floor below which changes are measurement noise by construction.
//!   A regression must clear both the relative threshold and the floor.
//!
//! `diff(A, A)` is therefore all-zero and can never fire, at any
//! threshold — property-tested in `tests/bench_e2e.rs`.

use faasrail_telemetry::LatencyStat;

use super::report::BenchReport;

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Dotted metric path, e.g. `runs[500rps].response.p99_ms`.
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// Direction: `true` if larger values are an improvement.
    pub higher_is_better: bool,
    /// Absolute change below which a difference is noise, in the
    /// metric's own unit.
    pub abs_floor: f64,
}

impl DiffRow {
    /// Signed absolute change (`new - old`).
    pub fn delta(&self) -> f64 {
        self.new - self.old
    }

    /// Signed relative change (`new/old - 1`); `0` when both are zero,
    /// `±inf` when only `old` is zero.
    pub fn delta_frac(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else if self.new > 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        } else {
            (self.new - self.old) / self.old.abs()
        }
    }

    /// Has this metric moved in the bad direction past both the
    /// relative `threshold` and the metric's absolute floor?
    pub fn regressed(&self, threshold: f64) -> bool {
        let bad_delta = if self.higher_is_better { -self.delta() } else { self.delta() };
        if bad_delta <= self.abs_floor {
            return false;
        }
        let bad_frac = if self.higher_is_better { -self.delta_frac() } else { self.delta_frac() };
        bad_frac > threshold
    }
}

/// The comparison of two reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchDiff {
    pub rows: Vec<DiffRow>,
    /// Metrics present in only one of the two reports (not comparable,
    /// listed so a vanished saturation section is visible, not silent).
    pub unmatched: Vec<String>,
}

impl BenchDiff {
    /// Rows that regressed past `threshold`.
    pub fn regressions(&self, threshold: f64) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.regressed(threshold)).collect()
    }

    /// Render the delta table, flagging regressions at `threshold`.
    pub fn to_markdown(&self, threshold: f64) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("| metric | old | new | Δ | Δ% | |\n");
        out.push_str("|:--|---:|---:|---:|---:|:--|\n");
        for row in &self.rows {
            let frac = row.delta_frac();
            let frac_s =
                if frac.is_finite() { format!("{:+.1}%", frac * 100.0) } else { "n/a".to_string() };
            let flag = if row.regressed(threshold) {
                "**regressed**"
            } else if row.delta() == 0.0 {
                "="
            } else {
                let improved = (row.delta() > 0.0) == row.higher_is_better;
                if improved {
                    "improved"
                } else {
                    "ok"
                }
            };
            out.push_str(&format!(
                "| {} | {:.3} | {:.3} | {:+.3} | {} | {} |\n",
                row.metric,
                row.old,
                row.new,
                row.delta(),
                frac_s,
                flag,
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!("| {name} | — | — | — | — | unmatched |\n"));
        }
        let n = self.regressions(threshold).len();
        out.push_str(&format!(
            "\n{} metric(s) compared, {} regression(s) at threshold {:.0}%\n",
            self.rows.len(),
            n,
            threshold * 100.0,
        ));
        out
    }
}

/// Latency floors: sub-quarter-millisecond movements in a tail statistic
/// are scheduler noise on any shared machine.
const LATENCY_FLOOR_MS: f64 = 0.25;
/// Error-rate floor: absolute 0.2 percentage points.
const ERROR_RATE_FLOOR: f64 = 0.002;

/// Compare two reports. Errors when the files measure different tiers —
/// a gateway-vs-sim diff is a usage mistake, not a regression signal.
pub fn diff_reports(old: &BenchReport, new: &BenchReport) -> Result<BenchDiff, String> {
    if old.tier != new.tier {
        return Err(format!(
            "cannot diff across tiers: OLD is {:?}, NEW is {:?}",
            old.tier, new.tier
        ));
    }
    let mut diff = BenchDiff::default();

    match (&old.saturation, &new.saturation) {
        (Some(o), Some(n)) => diff.rows.push(DiffRow {
            metric: "saturation.max_sustained_rps".to_string(),
            old: o.max_sustained_rps,
            new: n.max_sustained_rps,
            higher_is_better: true,
            abs_floor: 1.0,
        }),
        (Some(_), None) => diff.unmatched.push("saturation (only in OLD)".to_string()),
        (None, Some(_)) => diff.unmatched.push("saturation (only in NEW)".to_string()),
        (None, None) => {}
    }

    match (&old.sim, &new.sim) {
        (Some(o), Some(n)) => {
            diff.rows.push(DiffRow {
                metric: "sim.events_per_sec".to_string(),
                old: o.events_per_sec,
                new: n.events_per_sec,
                higher_is_better: true,
                abs_floor: 1.0,
            });
            diff.rows.push(DiffRow {
                metric: "sim.peak_rss_mb".to_string(),
                old: o.peak_rss_mb,
                new: n.peak_rss_mb,
                higher_is_better: false,
                abs_floor: 32.0,
            });
        }
        (Some(_), None) => diff.unmatched.push("sim (only in OLD)".to_string()),
        (None, Some(_)) => diff.unmatched.push("sim (only in NEW)".to_string()),
        (None, None) => {}
    }

    // Match fixed-rate rungs by target rate (first occurrence wins; a
    // saturation ladder probes each rate at most once).
    for o in &old.runs {
        let Some(n) = new.runs.iter().find(|n| n.target_rps == o.target_rps) else {
            diff.unmatched.push(format!("runs[{:.0}rps] (only in OLD)", o.target_rps));
            continue;
        };
        let tag = format!("runs[{:.0}rps]", o.target_rps);
        push_latency_rows(&mut diff, &tag, "response", &o.stages.response, &n.stages.response);
        diff.rows.push(DiffRow {
            metric: format!("{tag}.queue_wait.p99_ms"),
            old: o.stages.queue_wait.p99_ms,
            new: n.stages.queue_wait.p99_ms,
            higher_is_better: false,
            abs_floor: LATENCY_FLOOR_MS,
        });
        diff.rows.push(DiffRow {
            metric: format!("{tag}.error_rate"),
            old: o.error_rate,
            new: n.error_rate,
            higher_is_better: false,
            abs_floor: ERROR_RATE_FLOOR,
        });
        diff.rows.push(DiffRow {
            metric: format!("{tag}.achieved_rps"),
            old: o.achieved_rps,
            new: n.achieved_rps,
            higher_is_better: true,
            abs_floor: (o.achieved_rps * 0.02).max(1.0),
        });
    }
    for n in &new.runs {
        if !old.runs.iter().any(|o| o.target_rps == n.target_rps) {
            diff.unmatched.push(format!("runs[{:.0}rps] (only in NEW)", n.target_rps));
        }
    }

    Ok(diff)
}

fn push_latency_rows(
    diff: &mut BenchDiff,
    tag: &str,
    stage: &str,
    old: &LatencyStat,
    new: &LatencyStat,
) {
    for (q, o, n) in [
        ("p50_ms", old.p50_ms, new.p50_ms),
        ("p95_ms", old.p95_ms, new.p95_ms),
        ("p99_ms", old.p99_ms, new.p99_ms),
        ("p999_ms", old.p999_ms, new.p999_ms),
    ] {
        diff.rows.push(DiffRow {
            metric: format!("{tag}.{stage}.{q}"),
            old: o,
            new: n,
            higher_is_better: false,
            abs_floor: LATENCY_FLOOR_MS,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::report::{AcceptCriteria, BenchWorkload, RateRun, SaturationSummary};
    use faasrail_telemetry::LatencyDecomposition;

    fn report_with(p99_ms: f64, sustained: f64) -> BenchReport {
        let workload = BenchWorkload {
            arrivals: "uniform".to_string(),
            duration_s: 1.0,
            workers: 4,
            seed: 42,
            target: "loopback".to_string(),
        };
        let mut r = BenchReport::new("t", "gateway", workload);
        let mut stages = LatencyDecomposition::default();
        stages.response.count = 1;
        stages.response.p99_ms = p99_ms;
        r.runs.push(RateRun {
            target_rps: 1000.0,
            duration_s: 1.0,
            offered: 1000,
            completed: 1000,
            errors: 0,
            achieved_rps: 1000.0,
            error_rate: 0.0,
            accepted: true,
            stages,
        });
        r.saturation = Some(SaturationSummary {
            max_sustained_rps: sustained,
            criteria: AcceptCriteria::default(),
            probes: 1,
        });
        r
    }

    #[test]
    fn self_diff_is_all_zero_and_never_fires() {
        let r = report_with(12.0, 4000.0);
        let d = diff_reports(&r, &r).unwrap();
        assert!(!d.rows.is_empty());
        assert!(d.rows.iter().all(|row| row.delta() == 0.0 && row.delta_frac() == 0.0));
        for t in [0.0, 0.001, 0.1, 1.0] {
            assert!(d.regressions(t).is_empty(), "threshold {t} fired on a self-diff");
        }
    }

    #[test]
    fn p99_regression_fires_past_threshold_only() {
        let old = report_with(10.0, 4000.0);
        let new = report_with(13.0, 4000.0); // +30%, +3ms
        let d = diff_reports(&old, &new).unwrap();
        let fired: Vec<&str> = d.regressions(0.10).iter().map(|r| r.metric.as_str()).collect();
        assert!(fired.iter().any(|m| m.contains("response.p99_ms")), "{fired:?}");
        assert!(d.regressions(0.50).is_empty(), "a 50% threshold must tolerate +30%");
    }

    #[test]
    fn improvement_never_fires_and_direction_matters() {
        let old = report_with(10.0, 4000.0);
        let faster = report_with(5.0, 8000.0);
        let d = diff_reports(&old, &faster).unwrap();
        assert!(d.regressions(0.01).is_empty(), "improvements are not regressions");
        // Reverse: sustained RPS halving is a regression (higher_is_better).
        let d = diff_reports(&faster, &old).unwrap();
        let fired: Vec<&str> = d.regressions(0.10).iter().map(|r| r.metric.as_str()).collect();
        assert!(fired.iter().any(|m| m.contains("max_sustained_rps")), "{fired:?}");
    }

    #[test]
    fn tiny_absolute_changes_are_noise() {
        let old = report_with(0.10, 4000.0);
        let new = report_with(0.15, 4000.0); // +50% but only +0.05ms
        let d = diff_reports(&old, &new).unwrap();
        assert!(d.regressions(0.10).is_empty(), "sub-floor absolute changes must not fire");
    }

    #[test]
    fn cross_tier_diff_is_refused() {
        let gw = report_with(1.0, 100.0);
        let mut sim = report_with(1.0, 100.0);
        sim.tier = "sim".to_string();
        assert!(diff_reports(&gw, &sim).is_err());
    }

    #[test]
    fn unmatched_sections_are_reported_not_dropped() {
        let with = report_with(1.0, 100.0);
        let mut without = report_with(1.0, 100.0);
        without.saturation = None;
        without.runs[0].target_rps = 2000.0;
        let d = diff_reports(&with, &without).unwrap();
        assert!(d.unmatched.iter().any(|u| u.contains("saturation")), "{:?}", d.unmatched);
        assert!(d.unmatched.iter().any(|u| u.contains("only in OLD")), "{:?}", d.unmatched);
        assert!(d.unmatched.iter().any(|u| u.contains("only in NEW")), "{:?}", d.unmatched);
        let md = d.to_markdown(0.1);
        assert!(md.contains("unmatched"), "{md}");
    }

    #[test]
    fn markdown_flags_regressions() {
        let old = report_with(10.0, 4000.0);
        let new = report_with(20.0, 4000.0);
        let d = diff_reports(&old, &new).unwrap();
        let md = d.to_markdown(0.10);
        assert!(md.contains("**regressed**"), "{md}");
        assert!(md.contains("regression(s) at threshold 10%"), "{md}");
    }
}
