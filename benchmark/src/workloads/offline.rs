//! The offline tier: `shrink_spec_azure` (Spec mode) and `smirnov_huawei`
//! (Smirnov Transform mode). Batch loops: one pass runs the whole pipeline
//! once, single-threaded.

use super::{Checks, Ctx, Pass, Workload};
use crate::report::{digest, Metrics, DIGEST_SEED};
use crate::tracer::{self_time_by_name, Span};
use faasrail_core::dayselect::select_day;
use faasrail_core::rate_scaling::scale_request_rate;
use faasrail_core::smirnov::{self, SmirnovConfig};
use faasrail_core::{
    aggregate, evaluate, generate_requests, map_functions, shrink, DurationResolution,
    ExperimentSpec, RequestTrace, ShrinkRayConfig, SpecEntry,
};
use faasrail_trace::azure::{self, AzureTraceConfig};
use faasrail_trace::huawei::{self, HuaweiTraceConfig};
use faasrail_trace::Trace;
use faasrail_workloads::{CostModel, WorkloadPool};
use std::collections::BTreeMap;
use std::time::Instant;

/// EXPERIMENTS.md measures 0.10 (Spec) and 0.08 (Smirnov); beyond this the
/// generated load no longer follows the trace's invocation durations.
const MAX_KS_INVOCATION_DURATIONS: f64 = 0.15;

/// Milliseconds of self time recorded under span `name`, per traced pass
/// (or per set-up).
pub(super) fn span_ms_per_pass(spans: &[Span], passes: u64, name: &str) -> f64 {
    ms_per_pass(&self_time_by_name(spans), passes, name)
}

fn ms_per_pass(self_ns: &BTreeMap<&'static str, u64>, passes: u64, name: &str) -> f64 {
    self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / passes.max(1) as f64
}

/// The modelled 2.3k-workload pool every offline and simulated workload
/// maps onto.
pub(super) fn build_pool() -> WorkloadPool {
    WorkloadPool::build_modelled(&CostModel::default_calibration())
}

pub(super) fn digest_requests(state: u64, requests: &RequestTrace) -> u64 {
    requests.requests.iter().fold(state, |h, r| {
        let h = digest(h, &r.at_ms.to_le_bytes());
        let h = digest(h, &r.workload.0.to_le_bytes());
        digest(h, &r.function_index.to_le_bytes())
    })
}

// ---------------------------------------------------------------------------

struct ShrinkParams {
    functions: usize,
    daily_invocations: u64,
    experiment_minutes: usize,
    max_rps: f64,
}

impl ShrinkParams {
    fn of(ctx: &Ctx) -> ShrinkParams {
        if ctx.smoke {
            ShrinkParams {
                functions: 400,
                daily_invocations: 400_000,
                experiment_minutes: 20,
                max_rps: 5.0,
            }
        } else {
            ShrinkParams {
                functions: 20_000,
                daily_invocations: 200_000_000,
                experiment_minutes: 120,
                max_rps: 20.0,
            }
        }
    }
}

pub struct ShrinkSpecAzure {
    trace: Trace,
    pool: WorkloadPool,
    cfg: ShrinkRayConfig,
    /// The spec `shrink` produced in the latest untraced pass: what the
    /// traced pass's phase-by-phase spec must equal.
    reference: Option<ExperimentSpec>,
    /// Wall seconds of the traced passes, for `core.phase_sum_frac`.
    traced_wall_s: f64,
}

impl Workload for ShrinkSpecAzure {
    fn setup(ctx: &Ctx) -> Self {
        let p = ShrinkParams::of(ctx);
        let trace = ctx.tracer.in_span("trace", "trace.azure_generate", || {
            azure::generate(&AzureTraceConfig::scaled(ctx.seed, p.functions, p.daily_invocations))
        });
        ShrinkSpecAzure {
            trace,
            pool: build_pool(),
            cfg: ShrinkRayConfig::new(p.experiment_minutes, p.max_rps),
            reference: None,
            traced_wall_s: 0.0,
        }
    }

    fn pass(&mut self, ctx: &Ctx, traced: bool, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let spec = if traced {
            self.shrink_by_phases(ctx)
        } else {
            shrink(&self.trace, &self.pool, &self.cfg)
                .expect("shrink accepts the generated trace")
                .0
        };
        let tracer = &ctx.tracer;
        let requests =
            tracer.in_span("core", "core.generate_requests", || generate_requests(&spec, ctx.seed));
        let (json, back) = tracer.in_span("core", "core.spec_json", || {
            let json = spec.to_json();
            let back = ExperimentSpec::from_json(&json);
            (json, back)
        });
        let scores = tracer
            .in_span("core", "core.evaluate", || evaluate(&self.trace, &requests, &self.pool));
        let wall_s = start.elapsed().as_secs_f64();

        checks.check(spec.validate().is_ok(), || format!("spec invalid: {:?}", spec.validate()));
        let budget = (self.cfg.max_rps * 60.0).round() as u64;
        checks.check(spec.peak_per_minute() <= budget, || {
            format!("peak minute {} exceeds the {budget} target", spec.peak_per_minute())
        });
        checks.check(back.as_ref() == Ok(&spec), || "spec changed across JSON".to_owned());
        checks.check(requests.len() as u64 >= spec.total_requests() / 2, || {
            format!("{} requests from a spec of {}", requests.len(), spec.total_requests())
        });
        checks.check(scores.ks_invocation_durations <= MAX_KS_INVOCATION_DURATIONS, || {
            format!("KS(invocation durations) = {}", scores.ks_invocation_durations)
        });
        if traced {
            self.traced_wall_s += wall_s;
            checks.check(self.reference.as_ref() == Some(&spec), || {
                "spec built phase by phase differs from shrink()'s".to_owned()
            });
        } else {
            self.reference = Some(spec);
        }
        Pass {
            items: self.trace.functions.len() as u64,
            wall_s,
            attempted: 0,
            failed: 0,
            digest: digest_requests(digest(DIGEST_SEED, json.as_bytes()), &requests),
        }
    }

    fn layer_metrics(&mut self, spans: &[Span], setups: u64, passes: u64, m: &mut Metrics) {
        let self_ns = self_time_by_name(spans);
        let ms = |name: &str| ms_per_pass(&self_ns, passes, name);
        let phases = [
            ("core.select_day_ms", "core.select_day"),
            ("core.aggregate_ms", "core.aggregate"),
            ("core.map_functions_ms", "core.map_functions"),
            ("core.time_scaling_ms", "core.time_scaling"),
            ("core.rate_scaling_ms", "core.rate_scaling"),
            ("core.assemble_spec_ms", "core.assemble_spec"),
            ("core.generate_requests_ms", "core.generate_requests"),
            ("core.spec_json_ms", "core.spec_json"),
            ("core.evaluate_ms", "core.evaluate"),
        ];
        let mut sum_ms = ms("trace.validate");
        for (metric, span) in phases {
            let phase_ms = ms(span);
            m.set(metric, phase_ms);
            sum_ms += phase_ms;
        }
        m.set("core.phase_sum_frac", sum_ms * passes as f64 / (self.traced_wall_s * 1e3));
        m.set(
            "trace.azure_generate_s",
            ms_per_pass(&self_ns, setups, "trace.azure_generate") / 1e3,
        );
    }
}

impl ShrinkSpecAzure {
    /// `shrink()` taken apart: the same public phases in the same order,
    /// each in its own span. The caller checks the result equals
    /// `shrink()`'s, so a drift between the two shows as a failed run.
    fn shrink_by_phases(&self, ctx: &Ctx) -> ExperimentSpec {
        let t = &ctx.tracer;
        let (trace, pool, cfg) = (&self.trace, &self.pool, &self.cfg);
        t.in_span("trace", "trace.validate", || faasrail_trace::validate(trace))
            .expect("generated trace validates");
        t.in_span("core", "core.select_day", || select_day(trace, cfg.day_safety_fraction));
        let agg = t.in_span("core", "core.aggregate", || {
            aggregate(trace, DurationResolution::for_trace(trace))
        });
        let mapping =
            t.in_span("core", "core.map_functions", || map_functions(&agg, pool, &cfg.mapping));
        let mut series: Vec<Vec<u64>> = t.in_span("core", "core.time_scaling", || {
            agg.functions.iter().map(|f| cfg.time_scaling.apply(&f.minutes.dense())).collect()
        });
        let target_peak = (cfg.max_rps * 60.0).round().max(1.0) as u64;
        t.in_span("core", "core.rate_scaling", || scale_request_rate(&mut series, target_peak));
        t.in_span("core", "core.assemble_spec", || ExperimentSpec {
            duration_minutes: cfg.time_scaling.experiment_minutes(),
            target_max_rps: cfg.max_rps,
            iat: cfg.iat,
            entries: series
                .into_iter()
                .enumerate()
                .filter(|(_, per_minute)| per_minute.iter().any(|&v| v > 0))
                .map(|(i, per_minute)| SpecEntry {
                    function_index: i as u32,
                    workload: mapping.workload_for(i as u32).expect("every function is mapped"),
                    alternates: Vec::new(),
                    trace_duration_ms: agg.functions[i].avg_duration_ms,
                    per_minute,
                })
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------

pub struct SmirnovHuawei {
    trace: Trace,
    pool: WorkloadPool,
    cfg: SmirnovConfig,
    within_threshold: f64,
}

/// The trace is generated from this seed whatever `--seed` says; `--seed`
/// drives the sampling. With only 200 functions, the generator's seed moves
/// the trace's shape, and with it the candidates scanned per request, by
/// +-20 %: ten seeds read 0.67M to 0.94M requests/s on unchanged code. (The
/// real trace is one fixed dataset, too.) 103 sits at the median of those.
const HUAWEI_TRACE_SEED: u64 = 103;

impl Workload for SmirnovHuawei {
    fn setup(ctx: &Ctx) -> Self {
        let trace_cfg = if ctx.smoke {
            HuaweiTraceConfig::small(HUAWEI_TRACE_SEED)
        } else {
            HuaweiTraceConfig::paper_scale(HUAWEI_TRACE_SEED)
        };
        let trace =
            ctx.tracer.in_span("trace", "trace.huawei_generate", || huawei::generate(&trace_cfg));
        let cfg = SmirnovConfig {
            num_invocations: if ctx.smoke { 8_000 } else { 500_000 },
            // 500k requests span about four experiment minutes.
            rate_rps: 2_000.0,
            ..SmirnovConfig::paper_default(ctx.seed)
        };
        SmirnovHuawei { trace, pool: build_pool(), cfg, within_threshold: 0.0 }
    }

    fn pass(&mut self, ctx: &Ctx, _traced: bool, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let (requests, report) = ctx.tracer.in_span("core", "core.smirnov_generate", || {
            smirnov::generate(&self.trace, &self.pool, &self.cfg)
        });
        let scores = ctx
            .tracer
            .in_span("core", "core.evaluate", || evaluate(&self.trace, &requests, &self.pool));
        let wall_s = start.elapsed().as_secs_f64();

        let wanted = self.cfg.num_invocations;
        checks.check(requests.len() == wanted, || {
            format!("{} requests generated, {wanted} asked for", requests.len())
        });
        checks.check(requests.requests.windows(2).all(|w| w[0].at_ms <= w[1].at_ms), || {
            "request trace is not time-ordered".to_owned()
        });
        checks.check(scores.ks_invocation_durations <= MAX_KS_INVOCATION_DURATIONS, || {
            format!("KS(invocation durations) = {}", scores.ks_invocation_durations)
        });
        self.within_threshold = report.within_threshold_fraction;
        Pass {
            items: wanted as u64,
            wall_s,
            attempted: 0,
            failed: 0,
            digest: digest_requests(DIGEST_SEED, &requests),
        }
    }

    fn layer_metrics(&mut self, spans: &[Span], setups: u64, passes: u64, m: &mut Metrics) {
        let generate_ms = span_ms_per_pass(spans, passes, "core.smirnov_generate");
        m.set("core.smirnov_ns_per_request", generate_ms * 1e6 / self.cfg.num_invocations as f64);
        m.set("core.mapping_within_threshold_frac", self.within_threshold);
        m.set("core.evaluate_ms", span_ms_per_pass(spans, passes, "core.evaluate"));
        m.set(
            "trace.huawei_generate_s",
            span_ms_per_pass(spans, setups, "trace.huawei_generate") / 1e3,
        );
    }
}
