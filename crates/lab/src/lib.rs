//! faasrail-lab — a parallel experiment runner over the discrete-event
//! simulator.
//!
//! The simulator answers one question per run: *given this arrival
//! schedule, how does one (keep-alive policy, load balancer, seed) cell
//! behave?* Research questions need the whole grid. This crate runs the
//! grid: it takes a compact [`ScheduleModel`] (O(functions) memory, lazily
//! expanded into arrivals per cell — never materialized), fans the cells
//! out over a fixed-size worker pool, and merges the per-cell
//! [`SimMetrics`](faasrail_faas_sim::SimMetrics) into one deterministic
//! [`LabReport`].
//!
//! Determinism is a hard contract: the report depends only on the model,
//! the grid, and the cluster shape — **not** on thread interleaving or
//! wall-clock time. `run_lab` with `parallel = 1` and `parallel = N`
//! produce byte-identical JSON. Wall-clock measurements (throughput, peak
//! RSS) live in the separate [`LabRunStats`] so the report itself stays
//! reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use faasrail_core::{ArrivalStream, ScheduleModel};
use faasrail_faas_sim::{BalancerKind, ClusterConfig, PolicyKind, SimOptions, SimWorkers};
use faasrail_workloads::WorkloadPool;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Grid definition
// ---------------------------------------------------------------------------

/// What to run: the experiment grid and the cluster every cell runs on.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Human label for the schedule ("small", "paper", "custom", ...).
    pub scale: String,
    pub policies: Vec<PolicyKind>,
    pub balancers: Vec<BalancerKind>,
    pub seeds: Vec<u64>,
    pub cluster: ClusterConfig,
    /// Worker threads. `0` means one per available core.
    pub parallel: usize,
    /// Log-normal sigma for service-time jitter (0 = deterministic).
    pub service_jitter_sigma: f64,
}

impl LabConfig {
    /// A small default grid: every policy × warm-first × one seed.
    pub fn new(scale: &str) -> LabConfig {
        LabConfig {
            scale: scale.to_string(),
            policies: PolicyKind::ALL.to_vec(),
            balancers: vec![BalancerKind::WarmFirst],
            seeds: vec![42],
            cluster: ClusterConfig::default(),
            parallel: 0,
            service_jitter_sigma: 0.0,
        }
    }

    /// The grid in canonical order: policy-major, then balancer, then seed.
    /// Cell index is the position in this order — stable across runs and
    /// parallelism levels, and the order cells appear in the report.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out =
            Vec::with_capacity(self.policies.len() * self.balancers.len() * self.seeds.len());
        for &policy in &self.policies {
            for &balancer in &self.balancers {
                for &seed in &self.seeds {
                    out.push(CellSpec { index: out.len(), policy, balancer, seed });
                }
            }
        }
        out
    }

    fn workers(&self, cells: usize) -> usize {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let requested = if self.parallel == 0 { hw } else { self.parallel };
        requested.clamp(1, cells.max(1))
    }
}

/// One cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    pub index: usize,
    pub policy: PolicyKind,
    pub balancer: BalancerKind,
    pub seed: u64,
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// The per-cell slice of the report: the cell's coordinates plus the
/// simulator metrics research cares about (§2.2 of the paper: cold starts,
/// wasted warm memory, response latency, utilization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    pub policy: String,
    pub balancer: String,
    pub seed: u64,
    pub arrivals: u64,
    pub completions: u64,
    pub starved: u64,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub evictions: u64,
    pub expirations: u64,
    pub max_queue: u64,
    /// Discrete events the engine processed for this cell.
    pub sim_events: u64,
    /// cold / (cold + warm); 0 when nothing started.
    pub cold_start_rate: f64,
    /// Average memory held by idle warm sandboxes, MiB.
    pub mean_idle_memory_mb: f64,
    /// Mean core utilization over the run.
    pub utilization: f64,
    pub p50_response_ms: f64,
    pub p99_response_ms: f64,
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl CellResult {
    fn from_metrics(spec: &CellSpec, m: &faasrail_faas_sim::SimMetrics) -> CellResult {
        CellResult {
            policy: spec.policy.name().to_string(),
            balancer: spec.balancer.name().to_string(),
            seed: spec.seed,
            arrivals: m.arrivals,
            completions: m.completions,
            starved: m.starved,
            cold_starts: m.cold_starts,
            warm_starts: m.warm_starts,
            evictions: m.evictions,
            expirations: m.expirations,
            max_queue: m.max_queue,
            sim_events: m.sim_events,
            cold_start_rate: finite(m.cold_start_fraction()),
            mean_idle_memory_mb: finite(m.mean_idle_memory_mb()),
            utilization: finite(m.utilization()),
            p50_response_ms: finite(m.response.quantile(0.5) * 1_000.0),
            p99_response_ms: finite(m.response.quantile(0.99) * 1_000.0),
        }
    }
}

/// Per-(policy, balancer) averages over seeds — the row a paper table or
/// plot point is made of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateRow {
    pub policy: String,
    pub balancer: String,
    pub seeds: u64,
    pub mean_cold_start_rate: f64,
    pub mean_idle_memory_mb: f64,
    pub mean_utilization: f64,
    pub mean_p99_response_ms: f64,
    pub total_starved: u64,
}

/// The cluster shape every cell ran on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSummary {
    pub nodes: usize,
    pub cores_per_node: usize,
    pub memory_mb_per_node: f64,
}

/// The merged, deterministic outcome of a lab run. Contains **no**
/// wall-clock quantities: serializing this must yield identical bytes for
/// identical inputs regardless of `parallel`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabReport {
    pub scale: String,
    pub duration_minutes: usize,
    /// Functions in the schedule model.
    pub functions: usize,
    /// Arrivals the model schedules per cell (exact for deterministic IAT
    /// models, the Poisson-rounding target otherwise).
    pub scheduled_arrivals: u64,
    pub cluster: ClusterSummary,
    pub cells: Vec<CellResult>,
    pub aggregates: Vec<AggregateRow>,
    /// Total engine events across all cells.
    pub total_sim_events: u64,
}

/// Wall-clock measurements of a lab run — deliberately kept *outside*
/// [`LabReport`] so the report stays parallelism-independent.
#[derive(Debug, Clone, Copy)]
pub struct LabRunStats {
    pub cells: usize,
    pub workers: usize,
    pub wall_ms: u64,
    /// Engine events across all cells.
    pub events: u64,
    /// Arrivals across all cells.
    pub arrivals: u64,
}

impl LabRunStats {
    /// Engine events per wall-clock second, across all workers.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            return self.events as f64 * 1_000.0;
        }
        self.events as f64 * 1_000.0 / self.wall_ms as f64
    }
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// Run every cell of the grid against `model`, one cell per worker at a
/// time, and merge the results in canonical cell order.
///
/// Each cell opens its own lazy [`ArrivalStream`] over the shared model —
/// peak memory is O(functions + cells·cluster), independent of the number
/// of arrivals — and builds fresh policy/balancer instances, so cells
/// never share mutable state.
pub fn run_lab(
    model: &ScheduleModel,
    pool: &WorkloadPool,
    cfg: &LabConfig,
) -> (LabReport, LabRunStats) {
    let cells = cfg.cells();
    let workers = cfg.workers(cells.len());
    let started = Instant::now();

    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, CellResult)>> = Mutex::new(Vec::with_capacity(cells.len()));
    // Counted before any starts, so that no cell hands its arrival stream
    // to a helper on a core another worker is about to take.
    let counted = SimWorkers::count(workers);
    let work = || {
        let mut local = Vec::new();
        counted.run(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = cells.get(i) else { break };
            local.push((i, run_cell(model, pool, cfg, spec)));
        });
        done.lock().unwrap().extend(local);
    };
    // The calling thread is one of the workers, so a lone worker spawns no
    // thread: its engines allocate from the main arena, where a spawned
    // thread's would leave a glibc thread arena's freed pages resident.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    drop(counted);

    let mut results = done.into_inner().unwrap();
    results.sort_unstable_by_key(|&(i, _)| i);
    let results: Vec<CellResult> = results.into_iter().map(|(_, r)| r).collect();
    assert_eq!(results.len(), cells.len(), "every cell must report exactly once");

    let stats = LabRunStats {
        cells: results.len(),
        workers,
        wall_ms: started.elapsed().as_millis() as u64,
        events: results.iter().map(|r| r.sim_events).sum(),
        arrivals: results.iter().map(|r| r.arrivals).sum(),
    };
    let report = LabReport {
        scale: cfg.scale.clone(),
        duration_minutes: model.duration_minutes,
        functions: model.entries.len(),
        scheduled_arrivals: model.entries.iter().map(|e| e.total()).sum(),
        cluster: ClusterSummary {
            nodes: cfg.cluster.nodes,
            cores_per_node: cfg.cluster.cores_per_node,
            memory_mb_per_node: cfg.cluster.memory_mb_per_node,
        },
        aggregates: aggregate(&results),
        total_sim_events: stats.events,
        cells: results,
    };
    (report, stats)
}

fn run_cell(
    model: &ScheduleModel,
    pool: &WorkloadPool,
    cfg: &LabConfig,
    spec: &CellSpec,
) -> CellResult {
    let stream = ArrivalStream::new(model, spec.seed);
    let mut policy = spec.policy.build();
    let mut balancer = spec.balancer.build();
    let opts = SimOptions {
        service_jitter_sigma: cfg.service_jitter_sigma,
        seed: spec.seed,
        ..Default::default()
    };
    let m = faasrail_faas_sim::simulate(
        &stream,
        pool,
        &cfg.cluster,
        balancer.as_mut(),
        policy.as_mut(),
        &opts,
    );
    CellResult::from_metrics(spec, &m)
}

/// Collapse cells into per-(policy, balancer) rows, preserving first-seen
/// (i.e. canonical grid) order.
fn aggregate(cells: &[CellResult]) -> Vec<AggregateRow> {
    let mut rows: Vec<AggregateRow> = Vec::new();
    for c in cells {
        let row = match rows.iter_mut().find(|r| r.policy == c.policy && r.balancer == c.balancer) {
            Some(row) => row,
            None => {
                rows.push(AggregateRow {
                    policy: c.policy.clone(),
                    balancer: c.balancer.clone(),
                    seeds: 0,
                    mean_cold_start_rate: 0.0,
                    mean_idle_memory_mb: 0.0,
                    mean_utilization: 0.0,
                    mean_p99_response_ms: 0.0,
                    total_starved: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.seeds += 1;
        row.mean_cold_start_rate += c.cold_start_rate;
        row.mean_idle_memory_mb += c.mean_idle_memory_mb;
        row.mean_utilization += c.utilization;
        row.mean_p99_response_ms += c.p99_response_ms;
        row.total_starved += c.starved;
    }
    for r in &mut rows {
        let n = r.seeds as f64;
        r.mean_cold_start_rate /= n;
        r.mean_idle_memory_mb /= n;
        r.mean_utilization /= n;
        r.mean_p99_response_ms /= n;
    }
    rows
}

// ---------------------------------------------------------------------------
// Rendering & benchmarking
// ---------------------------------------------------------------------------

impl LabReport {
    /// Render the report as a Markdown document (cell table + aggregate
    /// table). Pure function of the report — no timestamps.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut md = String::new();
        let _ = writeln!(md, "# Lab report — scale `{}`", self.scale);
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "{} functions, {} scheduled arrivals over {} minutes; cluster \
             {}×{} cores, {:.0} MiB/node; {} cells, {} engine events total.",
            self.functions,
            self.scheduled_arrivals,
            self.duration_minutes,
            self.cluster.nodes,
            self.cluster.cores_per_node,
            self.cluster.memory_mb_per_node,
            self.cells.len(),
            self.total_sim_events,
        );
        let _ = writeln!(md);
        let _ = writeln!(md, "## Aggregates (mean over seeds)");
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "| policy | balancer | seeds | cold-start rate | idle mem (MiB) | util | p99 (ms) | starved |"
        );
        let _ = writeln!(md, "|---|---|---:|---:|---:|---:|---:|---:|");
        for r in &self.aggregates {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {:.4} | {:.1} | {:.3} | {:.1} | {} |",
                r.policy,
                r.balancer,
                r.seeds,
                r.mean_cold_start_rate,
                r.mean_idle_memory_mb,
                r.mean_utilization,
                r.mean_p99_response_ms,
                r.total_starved,
            );
        }
        let _ = writeln!(md);
        let _ = writeln!(md, "## Cells");
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "| policy | balancer | seed | arrivals | completions | cold | warm | starved | \
             cold rate | idle mem (MiB) | p50 (ms) | p99 (ms) |"
        );
        let _ = writeln!(md, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        for c in &self.cells {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {:.4} | {:.1} | {:.1} | {:.1} |",
                c.policy,
                c.balancer,
                c.seed,
                c.arrivals,
                c.completions,
                c.cold_starts,
                c.warm_starts,
                c.starved,
                c.cold_start_rate,
                c.mean_idle_memory_mb,
                c.p50_response_ms,
                c.p99_response_ms,
            );
        }
        md
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`. `None` off Linux or if the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_core::{ExperimentSpec, IatModel, SpecEntry};
    use faasrail_workloads::{CostModel, WorkloadId};

    // Equidistant IAT: scheduled counts are exact, so conservation can be
    // asserted per cell (Poisson realizes approximately the scheduled count).
    fn model() -> ScheduleModel {
        let spec = ExperimentSpec {
            duration_minutes: 3,
            target_max_rps: 10.0,
            iat: IatModel::Equidistant,
            entries: (0..6)
                .map(|i| SpecEntry {
                    function_index: i,
                    workload: WorkloadId(i % 10),
                    alternates: vec![],
                    trace_duration_ms: 25.0,
                    per_minute: vec![30, 80, 10],
                })
                .collect(),
        };
        ScheduleModel::from_spec(&spec)
    }

    fn config() -> LabConfig {
        LabConfig {
            scale: "test".to_string(),
            policies: vec![PolicyKind::FixedTtl, PolicyKind::HybridHistogram],
            balancers: vec![BalancerKind::WarmFirst, BalancerKind::RoundRobin],
            seeds: vec![1, 2],
            cluster: ClusterConfig::default(),
            parallel: 1,
            service_jitter_sigma: 0.0,
        }
    }

    #[test]
    fn grid_order_is_policy_major_and_indexed() {
        let cells = config().cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        assert_eq!(
            (cells[0].policy, cells[0].balancer, cells[0].seed),
            (PolicyKind::FixedTtl, BalancerKind::WarmFirst, 1)
        );
        assert_eq!(
            (cells[1].policy, cells[1].balancer, cells[1].seed),
            (PolicyKind::FixedTtl, BalancerKind::WarmFirst, 2)
        );
        assert_eq!(cells[2].balancer, BalancerKind::RoundRobin);
        assert_eq!(cells[4].policy, PolicyKind::HybridHistogram);
    }

    #[test]
    fn report_is_byte_identical_across_parallelism() {
        let model = model();
        let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
        let mut serial_cfg = config();
        serial_cfg.parallel = 1;
        let mut parallel_cfg = config();
        parallel_cfg.parallel = 4;

        let (serial, _) = run_lab(&model, &pool, &serial_cfg);
        let (parallel, _) = run_lab(&model, &pool, &parallel_cfg);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&parallel).unwrap(),
            "LabReport JSON must not depend on worker count"
        );
    }

    #[test]
    fn report_measures_the_whole_grid() {
        let model = model();
        let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
        let cfg = config();
        let (report, stats) = run_lab(&model, &pool, &cfg);

        assert_eq!(report.cells.len(), 8);
        assert_eq!(report.functions, 6);
        assert_eq!(report.scheduled_arrivals, 6 * (30 + 80 + 10));
        // Every cell saw every scheduled arrival.
        for c in &report.cells {
            assert_eq!(c.arrivals, report.scheduled_arrivals);
            assert_eq!(c.completions + c.starved, c.arrivals);
            assert!(c.sim_events >= c.arrivals);
        }
        // Four (policy, balancer) combinations, two seeds each.
        assert_eq!(report.aggregates.len(), 4);
        assert!(report.aggregates.iter().all(|r| r.seeds == 2));
        assert_eq!(stats.cells, 8);
        assert_eq!(stats.arrivals, 8 * report.scheduled_arrivals);
        assert_eq!(stats.events, report.total_sim_events);
    }

    #[test]
    fn markdown_includes_every_cell_and_aggregate() {
        let model = model();
        let pool = WorkloadPool::vanilla(&CostModel::default_calibration());
        let (report, _) = run_lab(&model, &pool, &config());
        let md = report.to_markdown();
        assert!(md.contains("# Lab report"));
        assert!(md.contains("## Aggregates"));
        assert!(md.contains("## Cells"));
        assert!(md.contains("hybrid-histogram"));
        assert!(md.contains("round-robin"));
        // Cell rows: 8 data rows in the cells table.
        let cell_rows = md.lines().filter(|l| l.starts_with("| fixed-ttl |")).count()
            + md.lines().filter(|l| l.starts_with("| hybrid-histogram |")).count();
        assert_eq!(cell_rows, 8 + 4, "8 cell rows + 4 aggregate rows");
    }
}
