//! Acceptance suite for the online-tier benchmark harness (ISSUE 9).
//!
//! 1. **Fixed-rate on loopback** — a real `HttpBackend → 127.0.0.1 →
//!    Gateway(noop)` rung produces a schema-valid `BenchReport` with all
//!    five stages quantified (p50/p95/p99/p999), environment metadata,
//!    and a clean outcome partition.
//! 2. **Saturation on loopback** — the bracket-and-bisect search runs
//!    end-to-end over TCP and reports a positive sustained rate under
//!    generous criteria.
//! 3. **Regression gate** — `diff` fires on an injected p99 regression
//!    past the threshold and stays silent under it.
//! 4. **Properties** — `BenchReport` serde round-trips *exactly* (bit
//!    equality, over seeded random reports), and `diff(A, A)` is all-zero
//!    at every threshold (symmetric consistency).

use faasrail::gateway::{Gateway, GatewayConfig, HttpBackend, HttpBackendConfig, RetryPolicy};
use faasrail::loadgen::{ArrivalProcess, NoopBackend};
use faasrail::prelude::*;
use faasrail::telemetry::{LatencyDecomposition, LatencyStat};
use faasrail::workloads::WorkloadId;
use faasrail_bench::harness::{
    diff_reports, run_fixed_rate, saturation_search, AcceptCriteria, BenchReport, BenchWorkload,
    FixedRateSpec, RateRun, SaturationSummary, SearchConfig, SCHEMA,
};
use faasrail_stats::rng::{cases, Rng};
use std::sync::Arc;
use std::time::Duration;

fn loopback_gateway() -> faasrail::gateway::GatewayHandle {
    Gateway::bind("127.0.0.1:0", Arc::new(NoopBackend), GatewayConfig::default())
        .expect("bind loopback")
        .spawn()
}

fn connect(addr: &str) -> HttpBackend {
    let cfg = HttpBackendConfig {
        request_timeout: Duration::from_secs(2),
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        ..HttpBackendConfig::default()
    };
    HttpBackend::connect(addr, cfg).expect("connect")
}

fn vanilla_pool() -> WorkloadPool {
    WorkloadPool::vanilla(&CostModel::default_calibration())
}

fn gateway_workload(duration_s: f64, workers: u64) -> BenchWorkload {
    BenchWorkload {
        arrivals: "uniform".to_string(),
        duration_s,
        workers,
        seed: 42,
        target: "loopback/noop".to_string(),
    }
}

#[test]
fn fixed_rate_bench_produces_schema_valid_report_on_loopback() {
    let handle = loopback_gateway();
    let backend = connect(&handle.addr().to_string());
    let pool = vanilla_pool();
    let spec = FixedRateSpec {
        rps: 200.0,
        duration_s: 1.0,
        workers: 4,
        process: ArrivalProcess::Uniform,
        seed: 42,
        workload: WorkloadId(7),
    };
    let run = run_fixed_rate(&backend, &pool, &spec);
    handle.stop();

    // Open loop: everything scheduled was offered, and a loopback noop
    // gateway at 200 rps completes cleanly.
    assert_eq!(run.offered, 200);
    assert_eq!(run.completed + run.errors, run.offered);
    assert_eq!(run.errors, 0, "loopback noop rung must be error-free");
    assert_eq!(run.error_rate, 0.0);
    assert!(run.achieved_rps > 100.0, "achieved {}", run.achieved_rps);

    // Every stage is quantified with ordered tails.
    for (name, q) in [
        ("lateness", &run.stages.lateness),
        ("queue_wait", &run.stages.queue_wait),
        ("service", &run.stages.service),
        ("overhead", &run.stages.overhead),
        ("response", &run.stages.response),
    ] {
        assert!(q.count > 0, "{name} unmeasured");
        assert!(
            q.p50_ms <= q.p95_ms && q.p95_ms <= q.p99_ms && q.p99_ms <= q.p999_ms,
            "{name} tails out of order: {q:?}"
        );
    }
    assert!(run.stages.response.p50_ms > 0.0, "a TCP round trip takes nonzero time");

    // The report the CLI writes: schema-valid, env-stamped, round-trips.
    let mut report = BenchReport::new("gateway-loopback", "gateway", gateway_workload(1.0, 4));
    report.runs.push(run);
    let json = report.to_json();
    let back = BenchReport::from_json(&json).expect("schema-valid");
    assert_eq!(report, back);
    assert_eq!(back.schema, SCHEMA);
    assert!(!back.env.build.git_sha.is_empty());
    assert!(!back.env.build.rustc.is_empty());
    assert!(back.env.cores > 0);
    assert!(json.contains("p999_ms"), "documented schema carries p999 per stage");
}

#[test]
fn saturation_search_runs_end_to_end_on_loopback() {
    let handle = loopback_gateway();
    let backend = connect(&handle.addr().to_string());
    let pool = vanilla_pool();
    // Generous criteria: this asserts the plumbing (search over real TCP
    // rungs), not the machine's absolute capacity.
    let criteria =
        AcceptCriteria { p99_ms: 2_000.0, max_error_rate: 0.05, max_lateness_p99_ms: 2_000.0 };
    let search =
        SearchConfig { start_rps: 50.0, max_rps: 200.0, resolution_rps: 50.0, max_probes: 6 };
    let (summary, runs) = saturation_search(
        |rps| {
            let spec = FixedRateSpec {
                rps,
                duration_s: 0.5,
                workers: 4,
                process: ArrivalProcess::Uniform,
                seed: 7,
                workload: WorkloadId(7),
            };
            run_fixed_rate(&backend, &pool, &spec)
        },
        &criteria,
        &search,
    );
    handle.stop();

    assert!(summary.max_sustained_rps >= 50.0, "loopback noop sustains ≥ start: {summary:?}");
    assert_eq!(summary.probes as usize, runs.len());
    assert!(!runs.is_empty());
    assert!(runs.iter().all(|r| r.offered > 0));

    let mut report = BenchReport::new("gateway-saturate", "gateway", gateway_workload(0.5, 4));
    report.runs = runs;
    report.saturation = Some(summary);
    let back = BenchReport::from_json(&report.to_json()).expect("schema-valid");
    assert_eq!(report, back);
}

#[test]
fn diff_gate_fires_on_p99_regression_beyond_threshold_only() {
    let baseline = synthetic_report(10.0, 4_000.0);
    // +60% p99 (and well past the absolute noise floor).
    let regressed = synthetic_report(16.0, 4_000.0);

    let diff = diff_reports(&baseline, &regressed).expect("same tier");
    let fired = diff.regressions(0.10);
    assert!(
        fired.iter().any(|r| r.metric.contains("response.p99_ms")),
        "p99 regression must fire: {fired:?}"
    );
    // The CLI exits nonzero exactly when this list is non-empty.
    assert!(!fired.is_empty());
    // Under a tolerant threshold the same delta passes.
    assert!(diff.regressions(0.80).is_empty());
    // And the improvement direction never fires.
    let diff = diff_reports(&regressed, &baseline).expect("same tier");
    assert!(diff.regressions(0.10).is_empty());
}

fn synthetic_report(p99_ms: f64, sustained_rps: f64) -> BenchReport {
    let mut report = BenchReport::new("synthetic", "gateway", gateway_workload(1.0, 4));
    let quantiles = |scale: f64| LatencyStat {
        count: 1_000,
        mean_ms: 0.4 * scale,
        p50_ms: 0.3 * scale,
        p95_ms: 0.7 * scale,
        p99_ms: scale,
        p999_ms: 1.4 * scale,
        max_ms: 2.0 * scale,
    };
    report.runs.push(RateRun {
        target_rps: 1_000.0,
        duration_s: 1.0,
        offered: 1_000,
        completed: 1_000,
        errors: 0,
        achieved_rps: 1_000.0,
        error_rate: 0.0,
        accepted: true,
        stages: LatencyDecomposition {
            response: quantiles(p99_ms),
            queue_wait: quantiles(p99_ms / 10.0),
            ..Default::default()
        },
    });
    report.saturation = Some(SaturationSummary {
        max_sustained_rps: sustained_rps,
        criteria: AcceptCriteria::default(),
        probes: 5,
    });
    report
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

fn arb_quantiles(rng: &mut impl Rng) -> LatencyStat {
    LatencyStat {
        count: rng.next_u64() as u32 as u64,
        mean_ms: rng.uniform(0.0..1e6),
        p50_ms: rng.uniform(0.0..1e6),
        p95_ms: rng.uniform(0.0..1e6),
        p99_ms: rng.uniform(0.0..1e6),
        p999_ms: rng.uniform(0.0..1e6),
        max_ms: rng.uniform(0.0..1e6),
    }
}

fn arb_run(rng: &mut impl Rng) -> RateRun {
    let (rps, duration) = (rng.uniform(1.0..1e5), rng.uniform(0.1..60.0));
    let completed = rng.next_u64() as u16 as u64;
    let errors = rng.next_u64() as u16 as u64;
    let offered = completed + errors;
    let (response, lateness) = (arb_quantiles(rng), arb_quantiles(rng));
    RateRun {
        target_rps: rps,
        duration_s: duration,
        offered,
        completed,
        errors,
        achieved_rps: completed as f64 / duration,
        error_rate: if offered > 0 { errors as f64 / offered as f64 } else { 0.0 },
        accepted: errors == 0,
        stages: LatencyDecomposition { response, lateness, ..Default::default() },
    }
}

fn arb_report(rng: &mut impl Rng) -> BenchReport {
    let mut report = BenchReport::new("prop", "gateway", gateway_workload(1.0, 4));
    report.runs = (0..rng.range(0..5usize)).map(|_| arb_run(rng)).collect();
    report.saturation = (rng.below(2) == 1).then(|| SaturationSummary {
        max_sustained_rps: rng.uniform(1.0..1e5),
        criteria: AcceptCriteria::default(),
        probes: rng.range(1..50),
    });
    report.workload.seed = rng.next_u64();
    report
}

/// The trajectory format must survive write → read with *bit-exact*
/// equality — a lossy schema would manufacture phantom perf deltas.
#[test]
fn bench_report_serde_round_trips_exactly() {
    cases("bench_report_serde_round_trips_exactly", 256, |rng| {
        let report = arb_report(rng);
        let back = BenchReport::from_json(&report.to_json()).expect("own output parses");
        assert_eq!(report, back);
    });
}

/// diff(A, A) is all-zero and can never fire, at any threshold —
/// otherwise the CI gate would flag unchanged performance.
#[test]
fn self_diff_is_zero_and_never_fires() {
    cases("self_diff_is_zero_and_never_fires", 256, |rng| {
        let (report, threshold) = (arb_report(rng), rng.uniform(0.0..10.0));
        let diff = diff_reports(&report, &report).expect("same tier");
        for row in &diff.rows {
            assert_eq!(row.delta(), 0.0);
            assert_eq!(row.delta_frac(), 0.0);
        }
        assert!(diff.unmatched.is_empty());
        assert!(diff.regressions(threshold).is_empty());
    });
}
