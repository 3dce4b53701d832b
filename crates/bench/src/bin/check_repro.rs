//! Self-verifying reproduction: every quantitative shape claim from
//! EXPERIMENTS.md, checked programmatically. Exits non-zero on any failure,
//! so `cargo run -p faasrail-bench --bin check_repro` is a one-command
//! reproduction audit (use `FAASRAIL_SCALE=paper` for the full-scale run).
//!
//! Every claim is a statistic of seeded synthetic traces, so a single seed
//! can land a tail draw outside a bound the generator meets on the whole
//! (one popular Function mapped to `lr_training` moves its share tenfold).
//! Each claim is therefore computed for the five seeds `seed..seed + 5` and
//! asserted on their median; the per-seed values are printed beside it.

use faasrail_baselines::poisson_emulation::{self, PoissonEmulationConfig};
use faasrail_bench::*;
use faasrail_core::aggregate::{aggregate, popularity_changes, DurationResolution};
use faasrail_core::dayselect::{cv_analysis, fraction_below};
use faasrail_core::smirnov::{self, SmirnovConfig};
use faasrail_core::{generate_requests, shrink, ShrinkRayConfig};
use faasrail_stats::ecdf::WeightedEcdf;
use faasrail_stats::timeseries::{normalize_peak, rebin_sum};
use faasrail_stats::{ks_distance, ks_distance_weighted};
use faasrail_trace::summarize::{functions_duration_ecdf, invocations_duration_wecdf, top_share};
use faasrail_workloads::{WorkloadKind, WorkloadPool};

/// Seeds per claim: `seed..seed + SEEDS`.
const SEEDS: u64 = 5;

/// One claim's value under one seed, with the bounds it must meet.
struct Claim {
    name: &'static str,
    value: f64,
    lo: f64,
    hi: f64,
}

struct Auditor(Vec<Claim>);

impl Auditor {
    fn check(&mut self, name: &'static str, value: f64, lo: f64, hi: f64) {
        self.0.push(Claim { name, value, lo, hi });
    }
}

fn main() -> std::process::ExitCode {
    let scale = Scale::from_env();
    let seed = seed_from_env();
    println!("# reproduction audit at {scale:?} scale, median over seeds {seed}..{}", seed + SEEDS);
    let (pool, vanilla) = pools();
    let runs: Vec<Vec<Claim>> =
        (seed..seed + SEEDS).map(|s| audit(scale, s, &pool, &vanilla)).collect();

    let mut failures = 0;
    for (i, claim) in runs[0].iter().enumerate() {
        let mut values: Vec<f64> = runs.iter().map(|run| run[i].value).collect();
        let per_seed = values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" ");
        values.sort_by(f64::total_cmp);
        let median = values[values.len() / 2];
        let ok = (claim.lo..=claim.hi).contains(&median);
        failures += !ok as usize;
        println!(
            "{} {}: {median:.4} (expected [{}, {}]; per seed: {per_seed})",
            if ok { "PASS" } else { "FAIL" },
            claim.name,
            claim.lo,
            claim.hi
        );
    }
    let checks = runs[0].len();
    println!("# audit complete: {}/{checks} checks passed", checks - failures);
    if failures == 0 {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

/// Every claim's value under one seed.
fn audit(scale: Scale, seed: u64, pool: &WorkloadPool, vanilla: &WorkloadPool) -> Vec<Claim> {
    let paper = scale == Scale::Paper;
    let mut a = Auditor(Vec::new());

    let azure = azure_trace(scale, seed);
    let huawei = huawei_trace(scale, seed);

    // --- Input fidelity (§"Inputs" of EXPERIMENTS.md) ---
    let fe = functions_duration_ecdf(&azure);
    a.check("azure sub-second function fraction (paper ~0.50)", fe.eval(1_000.0), 0.40, 0.68);
    let we = invocations_duration_wecdf(&azure);
    a.check("azure sub-second invocation fraction (paper ~0.80)", we.eval(1_000.0), 0.70, 0.92);
    a.check(
        "azure top-8% invocation share (paper ~0.99)",
        top_share(&azure, 0.08),
        if paper { 0.93 } else { 0.80 },
        1.0,
    );

    // --- Fig 3: day sampling safety ---
    let cvs = cv_analysis(&azure);
    a.check("fraction CV(duration)<1 (paper ~0.9)", fraction_below(&cvs, 1.0, true), 0.85, 1.0);
    a.check("fraction CV(invocations)<1 (paper ~0.9)", fraction_below(&cvs, 1.0, false), 0.85, 1.0);

    // --- Fig 4: aggregation ---
    let agg = aggregate(&azure, DurationResolution::Millisecond);
    a.check(
        "aggregation ratio functions->Functions (paper 50K->12.8K ~ 0.26)",
        agg.len() as f64 / azure.functions.len() as f64,
        0.15,
        0.80,
    );
    let changes = popularity_changes(&azure, &agg);
    let big = changes.iter().filter(|&&c| c > 0.01).count();
    a.check("popularity outliers >1% (paper: 3)", big as f64, 0.0, 10.0);

    // --- Fig 6: pool vs vanilla ---
    let ks_pool = ks_distance(&fe, &pool.duration_ecdf());
    let ks_vanilla = ks_distance(&fe, &vanilla.duration_ecdf());
    a.check("KS(azure, pool) (paper: close)", ks_pool, 0.0, 0.25);
    a.check("KS improvement pool vs vanilla (paper: large)", ks_vanilla / ks_pool, 2.0, 100.0);

    // --- Figs 8-10: Spec mode ---
    let (spec, _) = shrink(&azure, pool, &ShrinkRayConfig::new(120, 20.0)).expect("shrink");
    a.check("spec peak/budget", spec.peak_per_minute() as f64 / 1_200.0, 0.90, 1.0);
    let reqs = generate_requests(&spec, seed);
    let day_shape = normalize_peak(&rebin_sum(&azure.aggregate_minutes(), 120));
    let spec_shape = normalize_peak(&reqs.per_minute_counts());
    let mae: f64 =
        day_shape.iter().zip(&spec_shape).map(|(x, y)| (x - y).abs()).sum::<f64>() / 120.0;
    a.check("Fig8 load-shape MAE (paper: 'closely follows')", mae, 0.0, 0.05);
    let spec_mapped = WeightedEcdf::new(
        spec.entries
            .iter()
            .map(|e| (pool.get(e.workload).expect("mapped").mean_ms, e.total_requests() as f64)),
    );
    a.check("Fig9 KS(azure, spec mapped)", ks_distance_weighted(&we, &spec_mapped), 0.0, 0.15);

    // --- Fig 1 (baselines must be visibly worse) ---
    let poisson = poisson_emulation::generate(vanilla, &PoissonEmulationConfig::paper_fig1(seed));
    let poisson_w =
        WeightedEcdf::new(poisson.expected_durations(vanilla).into_iter().map(|d| (d, 1.0)));
    let ks_base = ks_distance_weighted(&we, &poisson_w);
    a.check("Fig1 plain-Poisson KS (paper: far)", ks_base, 0.25, 1.0);

    // --- Fig 11: Smirnov ---
    let n = if paper { 120_408 } else { 40_000 };
    let cfg = SmirnovConfig { num_invocations: n, ..SmirnovConfig::paper_default(seed) };
    let (sreq, _) = smirnov::generate(&azure, pool, &cfg);
    let sm = WeightedEcdf::new(sreq.expected_durations(pool).into_iter().map(|d| (d, 1.0)));
    a.check("Fig11a KS(azure, smirnov)", ks_distance_weighted(&we, &sm), 0.0, 0.10);
    let hwe = invocations_duration_wecdf(&huawei);
    let (hreq, hrep) = smirnov::generate(&huawei, pool, &cfg);
    let hm = WeightedEcdf::new(hreq.expected_durations(pool).into_iter().map(|d| (d, 1.0)));
    a.check("Fig11b KS(huawei, smirnov)", ks_distance_weighted(&hwe, &hm), 0.0, 0.15);

    // --- Fig 12: benchmark balance ---
    let counts = reqs.counts_by_kind(pool);
    let total: u64 = counts.values().sum();
    let share = |k: WorkloadKind, c: &std::collections::BTreeMap<WorkloadKind, u64>| {
        c.get(&k).copied().unwrap_or(0) as f64 / total.max(1) as f64
    };
    a.check(
        "Fig12a lr_training share (paper: very low)",
        share(WorkloadKind::LrTraining, &counts),
        0.0,
        0.05,
    );
    a.check(
        "Fig12a cnn_serving share (paper: rare)",
        share(WorkloadKind::CnnServing, &counts),
        0.0,
        0.05,
    );
    let h_total: u64 = hrep.counts_by_kind.values().sum();
    let aes = hrep.counts_by_kind.get(&WorkloadKind::Pyaes).copied().unwrap_or(0) as f64
        / h_total.max(1) as f64;
    a.check("Fig12b pyaes share (paper ~0.48)", aes, 0.30, 0.75);
    a.0
}
