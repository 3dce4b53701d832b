//! The simulated tier: `sim_fat8` and `sim_wide256`. Batch loops: one pass
//! is one `run_lab` over a two-cell grid on one worker thread. Both rows
//! simulate the same day on the same total cores and memory; only the
//! number of nodes those are split over differs.

use super::offline::{build_pool, span_ms_per_pass};
use super::{Checks, Ctx, Pass, Workload};
use crate::measure::{median, timed};
use crate::report::{digest, Metrics, DIGEST_SEED};
use crate::tracer::Span;
use faasrail_core::{
    ArrivalCursor, ArrivalStream, IatModel, MappingConfig, ScheduleModel, ScheduleSource,
};
use faasrail_faas_sim::{
    simulate, simulate_observed, BalancerKind, ClusterConfig, ColdStartModel, PolicyKind,
    SimMetrics, SimOptions,
};
use faasrail_lab::{run_lab, CellResult, LabConfig, LabReport};
use faasrail_telemetry::RingSink;
use faasrail_trace::azure::{self, AzureTraceConfig};
use faasrail_workloads::WorkloadPool;

/// 512 cores and 1 TiB, split two ways.
const TOTAL_CORES: usize = 512;
const TOTAL_MEMORY_MB: f64 = 1_048_576.0;
const FAT_NODES: usize = 8;
const WIDE_NODES: usize = 256;

fn cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        cores_per_node: TOTAL_CORES / nodes,
        memory_mb_per_node: TOTAL_MEMORY_MB / nodes as f64,
        cold_start: ColdStartModel::default(),
    }
}

/// Arrivals `faas-sim.observed_overhead_frac` simulates twice.
const OBSERVED_SLICE_ARRIVALS: u64 = 100_000;

/// `sim_fat8` (`NODES = 8`) or `sim_wide256`.
pub struct SimRow<const NODES: usize> {
    pool: WorkloadPool,
    model: ScheduleModel,
    lab: LabConfig,
    /// The report of the latest untraced pass, which the traced pass's
    /// cell-by-cell run must reproduce.
    reference: Option<LabReport>,
    /// Per traced pass: wall ns per event over the cells, and the wall
    /// share of draining the arrival cursor alone.
    ns_per_event: Vec<f64>,
    cursor_share: Vec<f64>,
    cells: Vec<SimMetrics>,
}

pub type Fat8 = SimRow<FAT_NODES>;
pub type Wide256 = SimRow<WIDE_NODES>;

impl<const NODES: usize> Workload for SimRow<NODES> {
    fn setup(ctx: &Ctx) -> Self {
        let (functions, invocations) = if ctx.smoke { (100, 1_500) } else { (2_000, 100_000) };
        let day = ctx.tracer.in_span("trace", "trace.azure_generate", || {
            azure::generate(&AzureTraceConfig::scaled(ctx.seed, functions, invocations))
        });
        let pool = build_pool();
        let model = ctx.tracer.in_span("core", "core.schedule_model_build", || {
            ScheduleModel::from_trace_day(&day, &pool, &MappingConfig::default(), IatModel::Poisson)
                .expect("the generated day is a valid trace")
        });
        let lab = LabConfig {
            scale: "benchmark".to_owned(),
            policies: vec![PolicyKind::FixedTtl, PolicyKind::HybridHistogram],
            balancers: vec![BalancerKind::WarmFirst],
            seeds: vec![ctx.seed],
            cluster: cluster(NODES),
            parallel: 1,
            service_jitter_sigma: 0.0,
        };
        SimRow {
            pool,
            model,
            lab,
            reference: None,
            ns_per_event: Vec::new(),
            cursor_share: Vec::new(),
            cells: Vec::new(),
        }
    }

    fn pass(&mut self, ctx: &Ctx, traced: bool, checks: &mut Checks) -> Pass {
        let (wall_s, events) = if traced {
            let (simulate_s, cells, events) = self.cell_by_cell(ctx);
            let reference = self.reference.as_ref().expect("an untraced pass ran first");
            checks.check(reference.cells == cells, || {
                "cells run one by one differ from run_lab's".to_owned()
            });
            (simulate_s, events)
        } else {
            let (wall_s, (report, stats)) = timed(|| run_lab(&self.model, &self.pool, &self.lab));
            self.reference = Some(report);
            (wall_s, stats.events)
        };
        let report = self.reference.as_ref().expect("set by the untraced pass");
        for cell in &report.cells {
            checks.check(cell.completions + cell.starved == cell.arrivals, || {
                format!(
                    "{}: completions {} + starved {} != arrivals {}",
                    cell.policy, cell.completions, cell.starved, cell.arrivals
                )
            });
            checks.check(cell.arrivals > 0 && cell.sim_events >= 2 * cell.arrivals, || {
                format!(
                    "{}: {} events for {} arrivals",
                    cell.policy, cell.sim_events, cell.arrivals
                )
            });
        }
        let json = serde_json::to_vec(report).expect("lab report serializes");
        Pass { items: events, wall_s, attempted: 0, failed: 0, digest: digest(DIGEST_SEED, &json) }
    }

    fn layer_metrics(&mut self, spans: &[Span], setups: u64, _: u64, m: &mut Metrics) {
        let fat = NODES == FAT_NODES;
        m.set(
            if fat { "faas-sim.ns_per_event.fat8" } else { "faas-sim.ns_per_event.wide256" },
            median(&mut self.ns_per_event),
        );
        m.set("faas-sim.cursor_share", median(&mut self.cursor_share));
        let sum = |f: fn(&SimMetrics) -> u64| self.cells.iter().map(f).sum::<u64>() as f64;
        m.set("faas-sim.events", sum(|c| c.sim_events));
        m.set("faas-sim.arrivals", sum(|c| c.arrivals));
        m.set(
            "faas-sim.max_queue",
            self.cells.iter().map(|c| c.max_queue).max().unwrap_or(0) as f64,
        );
        let starts = sum(|c| c.cold_starts) + sum(|c| c.warm_starts);
        m.set("faas-sim.cold_start_rate", sum(|c| c.cold_starts) / starts.max(1.0));
        m.set(
            "trace.azure_generate_s",
            span_ms_per_pass(spans, setups, "trace.azure_generate") / 1e3,
        );
        m.set(
            "core.schedule_model_build_ms",
            span_ms_per_pass(spans, setups, "core.schedule_model_build"),
        );
        if fat {
            self.parallel_and_observed(m);
        }
    }

    /// On `sim_wide256`: how much of the gap to `sim_fat8` a `pick_node`
    /// scan of 256 node views per arrival accounts for. The same day on the
    /// fat cluster gives the gap, the ledger gives the scan.
    fn derived_metrics(&self, m: &mut Metrics) {
        if NODES != WIDE_NODES {
            return;
        }
        let events = m.get("faas-sim.events").expect("set by layer_metrics");
        let arrivals = m.get("faas-sim.arrivals").expect("set by layer_metrics");
        let wide_ns = m.get("faas-sim.ns_per_event.wide256").expect("set by layer_metrics");
        let (fat_s, _) = self.grid_wall_s(cluster(FAT_NODES), 1);
        let gap_ns = wide_ns * events - fat_s * 1e9;
        let scan_ns = m.get("faas-sim.pick_node_ns.n256").expect("the ledger ran") * arrivals;
        m.set("faas-sim.pick_node_gap_share", scan_ns / gap_ns);
    }
}

impl<const NODES: usize> SimRow<NODES> {
    /// What `run_lab` does with one worker, taken apart: each cell's
    /// `simulate` in its own span, after a span that drains the cell's
    /// arrival cursor alone (the engine pays for that inside `simulate`).
    /// Returns the seconds inside `simulate`, the cells and their events.
    fn cell_by_cell(&mut self, ctx: &Ctx) -> (f64, Vec<CellResult>, u64) {
        let t = &ctx.tracer;
        // Start from `run_lab`'s cells and overwrite what the engine counts,
        // so that equality with the reference compares exactly those fields.
        let mut cells = self.reference.as_ref().expect("an untraced pass ran first").cells.clone();
        self.cells.clear();
        let (mut cursor_s, mut simulate_s, mut events) = (0.0, 0.0, 0);
        for (spec, cell) in self.lab.cells().iter().zip(&mut cells) {
            let stream = ArrivalStream::new(&self.model, spec.seed);
            let (seconds, arrivals) = timed(|| {
                t.in_span("core", "core.arrival_cursor_drain", || {
                    let mut cursor = stream.cursor();
                    let mut n = 0u64;
                    while let Some(arrival) = cursor.next_arrival() {
                        std::hint::black_box(arrival);
                        n += 1;
                    }
                    n
                })
            });
            cursor_s += seconds;
            let opts = SimOptions { seed: spec.seed, ..SimOptions::default() };
            let (seconds, m) = timed(|| {
                t.in_span("faas-sim", "faas-sim.simulate", || {
                    simulate(
                        &stream,
                        &self.pool,
                        &self.lab.cluster,
                        spec.balancer.build().as_mut(),
                        spec.policy.build().as_mut(),
                        &opts,
                    )
                })
            });
            simulate_s += seconds;
            events += m.sim_events;
            assert_eq!(arrivals, m.arrivals, "cursor and engine disagree on arrivals");
            cell.arrivals = m.arrivals;
            cell.completions = m.completions;
            cell.starved = m.starved;
            cell.cold_starts = m.cold_starts;
            cell.warm_starts = m.warm_starts;
            cell.evictions = m.evictions;
            cell.expirations = m.expirations;
            cell.max_queue = m.max_queue;
            cell.sim_events = m.sim_events;
            self.cells.push(m);
        }
        self.ns_per_event.push(simulate_s * 1e9 / events as f64);
        self.cursor_share.push(cursor_s / simulate_s);
        (simulate_s, cells, events)
    }

    /// Wall seconds of one untraced grid pass on `cluster`, and its report.
    fn grid_wall_s(&self, cluster: ClusterConfig, parallel: usize) -> (f64, LabReport) {
        let lab = LabConfig { cluster, parallel, ..self.lab.clone() };
        let (seconds, (report, _)) = timed(|| run_lab(&self.model, &self.pool, &lab));
        (seconds, report)
    }

    /// The two heavier ledger entries, taken on `sim_fat8` only.
    fn parallel_and_observed(&self, m: &mut Metrics) {
        // Two worker threads against one, on this row's grid. The reports
        // must not differ by a byte.
        let (serial_s, serial) = self.grid_wall_s(self.lab.cluster, 1);
        let (parallel_s, parallel) = self.grid_wall_s(self.lab.cluster, 2);
        assert_eq!(
            serde_json::to_string(&serial).expect("serializes"),
            serde_json::to_string(&parallel).expect("serializes"),
            "lab report depends on the worker count"
        );
        m.set("lab.parallel2_speedup", serial_s / parallel_s);

        // The same short day with and without a span per invocation.
        let slice = slice_model(&self.model, OBSERVED_SLICE_ARRIVALS);
        let stream = ArrivalStream::new(&slice, self.lab.seeds[0]);
        let run = |observed: bool| {
            let sink = RingSink::with_capacity(OBSERVED_SLICE_ARRIVALS as usize + 8);
            let mut balancer = BalancerKind::WarmFirst.build();
            let mut policy = PolicyKind::FixedTtl.build();
            let opts = SimOptions::default();
            timed(|| {
                let (b, p) = (balancer.as_mut(), policy.as_mut());
                if observed {
                    simulate_observed(&stream, &self.pool, &self.lab.cluster, b, p, &opts, &sink)
                } else {
                    simulate(&stream, &self.pool, &self.lab.cluster, b, p, &opts)
                }
            })
            .0
        };
        let mut plain: Vec<f64> = (0..3).map(|_| run(false)).collect();
        let mut observed: Vec<f64> = (0..3).map(|_| run(true)).collect();
        m.set("faas-sim.observed_overhead_frac", median(&mut observed) / median(&mut plain) - 1.0);
    }
}

/// The first minutes of `model` that schedule about `arrivals` arrivals.
fn slice_model(model: &ScheduleModel, arrivals: u64) -> ScheduleModel {
    let mut per_minute = vec![0u64; model.duration_minutes];
    for entry in &model.entries {
        for &(minute, count) in &entry.minutes {
            per_minute[minute as usize] += count;
        }
    }
    let mut total = 0;
    let minutes = per_minute
        .iter()
        .position(|&count| {
            total += count;
            total >= arrivals
        })
        .map_or(model.duration_minutes, |m| m + 1);
    let entries = model
        .entries
        .iter()
        .map(|entry| {
            let mut entry = entry.clone();
            entry.minutes.retain(|&(minute, _)| (minute as usize) < minutes);
            entry
        })
        .filter(|entry| !entry.minutes.is_empty())
        .collect();
    ScheduleModel { duration_minutes: minutes, iat: model.iat, entries }
}
