//! Synthetic Azure-Functions-like trace generator.
//!
//! Reproduces the statistical profile of the Azure Functions 2019 trace
//! ("Serverless in the Wild", ATC '20) that the FaaSRail paper builds on:
//!
//! * ~50 % of *functions* run for less than 1 s; durations span 2–4 orders
//!   of magnitude (1 ms … minutes);
//! * popularity is extremely skewed: the top ~8 % of functions receive
//!   ~99 % of all invocations;
//! * popular functions skew short, so ~80 % of *invocations* run < 1 s;
//! * per-function request rates are bursty, with steady / periodic (cron) /
//!   bursty / rare patterns, and the aggregate load follows a gentle
//!   diurnal wave;
//! * per-app allocated memory is log-normal-ish over 10 MiB – 4 GiB;
//! * across the 14-day window, ~90 % of functions have day-to-day CVs of
//!   execution time and invocation count below 1 (paper Fig. 3).

use crate::model::{App, AppId, FunctionId, Trace, TraceFunction, TraceKind, TriggerKind};
use crate::synth;
use faasrail_stats::sampler::{LogNormal, Sampler, Zipf};
use faasrail_stats::timeseries::apportion_weights;
use faasrail_stats::{seeded_rng, Rng};
use serde::{Deserialize, Serialize};

/// Configuration for the synthetic Azure-like trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AzureTraceConfig {
    /// Seed for all randomness in the generator.
    pub seed: u64,
    /// Number of distinct functions.
    pub num_functions: usize,
    /// Days in the trace window.
    pub num_days: usize,
    /// Which day the per-minute series are materialized for (0-based).
    pub selected_day: usize,
    /// Total invocations on the selected day (approximate to within Poisson
    /// noise of the per-pattern synthesis).
    pub daily_invocations: u64,
    /// Zipf–Mandelbrot popularity exponent.
    pub popularity_exponent: f64,
    /// Zipf–Mandelbrot head-flattening shift.
    pub popularity_shift: f64,
    /// Apps per function (Azure: ~17 K apps over ~45 K functions).
    pub apps_per_function: f64,
    /// Fraction of functions with volatile cross-day behaviour (CV > 1 tail).
    pub volatile_fraction: f64,
}

impl AzureTraceConfig {
    /// Full paper-scale trace: ~49.7 K functions, ~908 M invocations on the
    /// selected day, 14 days. Generation takes a few seconds in release mode.
    pub fn paper_scale(seed: u64) -> Self {
        AzureTraceConfig {
            seed,
            num_functions: 49_728,
            num_days: 14,
            selected_day: 0,
            daily_invocations: 908_000_000,
            popularity_exponent: 1.5,
            popularity_shift: 5.0,
            apps_per_function: 17.0 / 45.0,
            volatile_fraction: 0.10,
        }
    }

    /// A reduced-scale trace suitable for unit tests and laptop experiments;
    /// preserves all distributional shapes at ~2 K functions.
    pub fn small(seed: u64) -> Self {
        AzureTraceConfig {
            num_functions: 2_000,
            daily_invocations: 2_000_000,
            ..Self::paper_scale(seed)
        }
    }

    /// Custom scale with the paper-calibrated shape parameters.
    pub fn scaled(seed: u64, num_functions: usize, daily_invocations: u64) -> Self {
        AzureTraceConfig { num_functions, daily_invocations, ..Self::paper_scale(seed) }
    }
}

/// Duration mixture component parameters, rank-coupled: popular functions
/// draw predominantly from the short component, unpopular ones spread out.
struct DurationModel {
    short: LogNormal,
    medium: LogNormal,
    long: LogNormal,
}

impl DurationModel {
    fn azure() -> Self {
        DurationModel {
            short: LogNormal::from_median_p90(300.0, 1_200.0),
            medium: LogNormal::from_median_p90(1_500.0, 5_000.0),
            long: LogNormal::from_median_p90(15_000.0, 60_000.0),
        }
    }

    /// Draw a duration for normalized popularity rank `u` in `[0, 1]`
    /// (0 = most popular).
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R, u: f64) -> f64 {
        let p_short = 0.85 - 0.60 * u;
        let p_long = 0.02 + 0.28 * u;
        let x = rng.next_f64();
        let d = if x < p_short {
            self.short.sample(rng)
        } else if x < 1.0 - p_long {
            self.medium.sample(rng)
        } else {
            self.long.sample(rng)
        };
        d.clamp(1.0, 300_000.0)
    }
}

/// Generate a synthetic Azure-like trace.
///
/// ```
/// use faasrail_trace::azure::{generate, AzureTraceConfig};
/// let trace = generate(&AzureTraceConfig::scaled(42, 200, 50_000));
/// assert_eq!(trace.functions.len(), 200);
/// assert!(faasrail_trace::validate(&trace).is_ok());
/// // Same seed, same trace — the determinism the pipeline relies on.
/// assert_eq!(trace, generate(&AzureTraceConfig::scaled(42, 200, 50_000)));
/// ```
pub fn generate(cfg: &AzureTraceConfig) -> Trace {
    assert!(cfg.num_functions > 0, "need at least one function");
    assert!(cfg.num_days > 0 && cfg.selected_day < cfg.num_days);
    let mut rng = seeded_rng(cfg.seed);
    let n = cfg.num_functions;

    // --- Popularity: Zipf–Mandelbrot weights by rank, apportioned exactly.
    let weights = synth::zipf_mandelbrot_weights(n, cfg.popularity_exponent, cfg.popularity_shift);
    let planned_totals = apportion_weights(&weights, cfg.daily_invocations);

    // --- Durations: rank-coupled mixture, rounded to integer ms like the
    // real trace (this is also what the aggregation step keys on).
    let duration_model = DurationModel::azure();
    let durations: Vec<f64> = (0..n)
        .map(|r| {
            let u = if n == 1 { 0.0 } else { r as f64 / (n - 1) as f64 };
            duration_model.sample(&mut rng, u).round().max(1.0)
        })
        .collect();

    // --- Apps and memory.
    let num_apps = ((n as f64 * cfg.apps_per_function).ceil() as usize).max(1);
    let memory_model = LogNormal::from_median_p90(170.0, 1_000.0);
    let apps: Vec<App> = (0..num_apps)
        .map(|i| App {
            id: AppId(i as u32),
            memory_mb: memory_model.sample(&mut rng).clamp(10.0, 4_096.0),
        })
        .collect();
    // Function→app assignment: skewed app sizes (big apps hold many functions).
    let app_picker = Zipf::new(num_apps as u64, 1.0);

    // --- Per-minute series.
    let template = synth::diurnal_template(&mut rng, 1.0, 0.22);
    let cdf = synth::template_cdf(&template);

    let mut functions = Vec::with_capacity(n);
    for (rank, (&total, &dur)) in planned_totals.iter().zip(&durations).enumerate() {
        // Trigger correlates with the invocation pattern: periodic series
        // are timers, steady ones HTTP/queue traffic, bursts events.
        let (minutes, trigger) = if total < 50 {
            let t = if rng.next_f64() < 0.5 { TriggerKind::Storage } else { TriggerKind::Others };
            (synth::rare_series(&mut rng, &cdf, total), t)
        } else if total >= 7_200 {
            // Hot functions: steady Poisson arrivals along the diurnal wave.
            (synth::steady_series(&mut rng, &template, total), TriggerKind::Http)
        } else {
            match rng.range(0..10u32) {
                0..=3 => {
                    let t =
                        if rng.next_f64() < 0.7 { TriggerKind::Http } else { TriggerKind::Queue };
                    (synth::steady_series(&mut rng, &template, total), t)
                }
                4..=6 => {
                    const PERIODS: [u16; 7] = [2, 5, 10, 15, 30, 60, 120];
                    let period = PERIODS[rng.range(0..PERIODS.len())];
                    (synth::periodic_series(&mut rng, period, total), TriggerKind::Timer)
                }
                _ => (synth::bursty_series(&mut rng, total), TriggerKind::Event),
            }
        };
        let realized_total = minutes.total();
        let volatile = rng.next_f64() < cfg.volatile_fraction;
        let daily = synth::daily_rollups(
            &mut rng,
            dur,
            realized_total,
            cfg.num_days,
            cfg.selected_day,
            volatile,
        );
        functions.push(TraceFunction {
            id: FunctionId(rank as u32),
            app: AppId((app_picker.sample(&mut rng) - 1) as u32),
            trigger,
            avg_duration_ms: dur,
            minutes,
            daily,
        });
    }

    Trace {
        kind: TraceKind::Azure,
        selected_day: cfg.selected_day,
        num_days: cfg.num_days,
        functions,
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MINUTES_PER_DAY;
    use faasrail_stats::ecdf::WeightedEcdf;
    use faasrail_stats::Summary;

    fn small_trace() -> Trace {
        generate(&AzureTraceConfig::small(42))
    }

    #[test]
    fn determinism() {
        let a = generate(&AzureTraceConfig::small(7));
        let b = generate(&AzureTraceConfig::small(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&AzureTraceConfig::small(7));
        let b = generate(&AzureTraceConfig::small(8));
        assert_ne!(a, b);
    }

    #[test]
    fn function_count_and_days() {
        let t = small_trace();
        assert_eq!(t.functions.len(), 2_000);
        assert_eq!(t.num_days, 14);
        assert!(t.functions.iter().all(|f| f.daily.len() == 14));
    }

    #[test]
    fn total_invocations_close_to_target() {
        let t = small_trace();
        let total = t.total_invocations() as f64;
        assert!((total / 2_000_000.0 - 1.0).abs() < 0.02, "total = {total}");
    }

    #[test]
    fn selected_day_rollup_consistent() {
        let t = small_trace();
        assert_eq!(crate::validate(&t), Ok(()));
    }

    #[test]
    fn durations_span_orders_of_magnitude() {
        let t = small_trace();
        let durs: Vec<f64> = t.functions.iter().map(|f| f.avg_duration_ms).collect();
        let s = Summary::from_slice(&durs);
        assert!(s.min() <= 20.0, "min duration = {}", s.min());
        assert!(s.max() >= 50_000.0, "max duration = {}", s.max());
    }

    #[test]
    fn half_of_functions_subsecond() {
        // Paper: ~50 % of functions run < 1 s. Allow a generous band.
        let t = small_trace();
        let sub = t.functions.iter().filter(|f| f.avg_duration_ms < 1_000.0).count();
        let frac = sub as f64 / t.functions.len() as f64;
        assert!((0.40..=0.68).contains(&frac), "sub-second function fraction = {frac}");
    }

    #[test]
    fn invocations_skew_shorter_than_functions() {
        // Paper: ~80 % of *invocations* run < 1 s, vs ~50 % of functions.
        let t = small_trace();
        let weighted = WeightedEcdf::new(
            t.functions.iter().map(|f| (f.avg_duration_ms, f.total_invocations() as f64)),
        );
        let frac_inv = weighted.eval(1_000.0);
        assert!(frac_inv > 0.70, "sub-second invocation fraction = {frac_inv}");
        let frac_fun = t.functions.iter().filter(|f| f.avg_duration_ms < 1_000.0).count() as f64
            / t.functions.len() as f64;
        assert!(
            frac_inv > frac_fun + 0.1,
            "invocation CDF should sit left of function CDF ({frac_inv} vs {frac_fun})"
        );
    }

    #[test]
    fn popularity_skewed() {
        // Top 8 % of functions should hold the overwhelming share of
        // invocations (paper: 99 % at full scale; the small trace flattens
        // the skew somewhat).
        let share = crate::summarize::top_share(&small_trace(), 0.08);
        assert!(share > 0.80, "top-8% share = {share}");
    }

    #[test]
    fn ninety_percent_rarely_invoked() {
        // Paper: ~90 % of functions are invoked once per minute or less.
        let t = small_trace();
        let rare =
            t.functions.iter().filter(|f| f.total_invocations() <= MINUTES_PER_DAY as u64).count();
        let frac = rare as f64 / t.functions.len() as f64;
        assert!(frac > 0.75, "rare-function fraction = {frac}");
    }

    #[test]
    fn aggregate_load_diurnal_not_flat() {
        let t = small_trace();
        let agg = t.aggregate_minutes();
        let peak = agg.iter().copied().max().unwrap() as f64;
        let trough = agg.iter().copied().min().unwrap() as f64;
        assert!(peak / trough.max(1.0) > 1.2, "aggregate load should vary over the day");
    }

    #[test]
    fn cross_day_cv_mostly_below_one() {
        // Paper Fig. 3: ~90 % of functions have CVs < 1 for both daily
        // execution time and daily invocation counts.
        let t = small_trace();
        let mut dur_low = 0usize;
        let mut cnt_low = 0usize;
        let mut counted = 0usize;
        for f in &t.functions {
            if f.total_invocations() == 0 {
                continue;
            }
            counted += 1;
            let durs: Vec<f64> = f.daily.iter().map(|d| d.avg_duration_ms).collect();
            let cnts: Vec<f64> = f.daily.iter().map(|d| d.invocations as f64).collect();
            if Summary::from_slice(&durs).cv() < 1.0 {
                dur_low += 1;
            }
            if Summary::from_slice(&cnts).cv() < 1.0 {
                cnt_low += 1;
            }
        }
        let frac_dur = dur_low as f64 / counted as f64;
        let frac_cnt = cnt_low as f64 / counted as f64;
        assert!(frac_dur > 0.80, "CV(duration)<1 fraction = {frac_dur}");
        assert!(frac_cnt > 0.80, "CV(count)<1 fraction = {frac_cnt}");
    }

    #[test]
    fn memory_in_published_range() {
        let t = small_trace();
        assert!(!t.apps.is_empty());
        assert!(t.apps.iter().all(|a| (10.0..=4_096.0).contains(&a.memory_mb)));
        let med = {
            let mut m: Vec<f64> = t.apps.iter().map(|a| a.memory_mb).collect();
            m.sort_by(|a, b| a.partial_cmp(b).unwrap());
            m[m.len() / 2]
        };
        assert!((100.0..400.0).contains(&med), "median app memory = {med}");
    }

    #[test]
    fn every_function_app_exists() {
        let t = small_trace();
        for f in &t.functions {
            assert!(t.app(f.app).is_some(), "dangling app id {:?}", f.app);
        }
    }

    #[test]
    fn duration_aggregation_collapses_functions() {
        // Rounding to integer ms must produce substantially fewer distinct
        // durations than functions — the premise of the aggregation step.
        let t = small_trace();
        let mut keys: Vec<u64> = t.functions.iter().map(|f| f.avg_duration_ms as u64).collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(
            keys.len() < t.functions.len() * 9 / 10,
            "distinct durations {} vs functions {}",
            keys.len(),
            t.functions.len()
        );
    }
}
