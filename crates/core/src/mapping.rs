//! The Function-to-Workload mapping algorithm (paper §3.1.3).
//!
//! Each (aggregated) Function is associated with the set of pool Workloads
//! whose mean runtime lies within a configurable relative-error threshold of
//! the Function's reported average duration; when that set is empty the
//! nearest Workload is used instead (the paper's relaxation for
//! long-running outliers). A final selection pass picks one Workload per
//! Function, balancing how much invocation weight each *benchmark type*
//! accumulates so the suite's execution-characteristic mix is preserved
//! (evaluated in paper §4.4 / Fig. 12).

use crate::aggregate::Aggregation;
use faasrail_workloads::{WorkloadId, WorkloadPool};
use serde::{Deserialize, Serialize};
use std::hint::select_unpredictable;
use std::ops::Range;

/// How the selection pass balances candidates.
///
/// Balancing is tracked per *Workload variant*, not per benchmark type:
/// a benchmark with richer augmentation (more variants in a duration band)
/// legitimately attracts more Functions. This reproduces the paper's
/// emergent imbalances — barely-augmented `cnn_serving` stays rare, and
/// `pyaes` (dense on the short end) dominates Huawei mappings (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BalanceStrategy {
    /// Prefer the candidate Workload that has accumulated the least
    /// invocation weight so far (the default).
    ByInvocations,
    /// Prefer the candidate Workload with the fewest Functions assigned.
    ByFunctionCount,
    /// Always pick the duration-closest candidate (the Ilúvatar-style
    /// baseline the paper criticizes; kept for the ablation benches).
    NearestOnly,
}

/// Mapping configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingConfig {
    /// Maximum relative duration error for a candidate (default 10 %).
    pub error_threshold: f64,
    pub balance: BalanceStrategy,
    /// Weight of the *memory* term when choosing among equally-loaded
    /// candidates (paper §3.3 lists approaching the traces' memory
    /// distributions as FaaSRail's next step; this implements it).
    ///
    /// 0 (default) reproduces the paper: duration-only selection. Positive
    /// values add `memory_weight × |ln(workload_mem / Function_mem)|` to the
    /// tie-break score, steering each Function toward Workloads that also
    /// match its app's reported memory — without ever violating the duration
    /// threshold, so runtime representativity is preserved.
    #[serde(default)]
    pub memory_weight: f64,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            error_threshold: 0.10,
            balance: BalanceStrategy::ByInvocations,
            memory_weight: 0.0,
        }
    }
}

/// One Function's assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Index into `Aggregation::functions`.
    pub function_index: u32,
    pub workload: WorkloadId,
    /// Relative duration error of the chosen Workload.
    pub rel_error: f64,
    /// Whether the threshold had to be relaxed (nearest-neighbour fallback).
    pub fallback: bool,
}

/// Aggregate quality statistics of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingStats {
    pub functions: usize,
    pub within_threshold: usize,
    pub fallbacks: usize,
    /// Unweighted mean relative error.
    pub mean_rel_error: f64,
    /// Invocation-weighted mean relative error.
    pub weighted_rel_error: f64,
    pub max_rel_error: f64,
}

/// The result of the mapping stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionMapping {
    pub assignments: Vec<Assignment>,
    pub stats: MappingStats,
}

impl FunctionMapping {
    /// Assignment for a given aggregated-function index.
    pub fn workload_for(&self, function_index: u32) -> Option<WorkloadId> {
        self.assignments
            .binary_search_by_key(&function_index, |a| a.function_index)
            .ok()
            .map(|i| self.assignments[i].workload)
    }

    /// The mapping as `(workload, invocations)` pairs, one per Function of
    /// the aggregation it was computed from (see [`crate::mapped_wecdf`]).
    pub fn mapped_invocations<'a>(
        &'a self,
        agg: &'a Aggregation,
    ) -> impl Iterator<Item = (WorkloadId, u64)> + 'a {
        self.assignments
            .iter()
            .map(|a| (a.workload, agg.functions[a.function_index as usize].total_invocations()))
    }
}

/// Position of the first minimum of `(load(pos), score(pos))` over `band`,
/// which must not be empty. The selection rule both execution modes share:
/// least-loaded candidate first, `score` among equally loaded ones, and the
/// earliest (shortest-runtime) position among full ties.
///
/// Non-negative `f64`s (infinity included) order the same way as their bits
/// read as `u64`s, so each candidate is one integer key, `(load bits, score
/// bits)`, and the scan is a strict `<` over keys whose outcome picks the
/// minimum with conditional moves rather than a branch per candidate (the
/// key is a pair, not a `u128`, because LLVM turns a `u128` select back
/// into a branch). `-0.0` is folded into `+0.0` first (the two compare equal
/// as floats). A NaN or negative load or score would sort above every valid
/// key; the scan keeps the largest bits of each half it saw and panics after
/// the loop if one was invalid.
pub(crate) fn first_min<L: LoadBits>(
    band: Range<usize>,
    load: impl Fn(usize) -> L,
    score: impl Fn(usize) -> f64,
) -> usize {
    assert!(!band.is_empty(), "empty candidate band");
    let (mut best, mut best_key) = (band.start, (u64::MAX, u64::MAX));
    let (mut max_load, mut max_score) = (0u64, 0u64);
    for pos in band {
        let key = (load(pos).bits(), score(pos).bits());
        max_load = max_load.max(key.0);
        max_score = max_score.max(key.1);
        let less = key < best_key;
        best = select_unpredictable(less, pos, best);
        best_key = select_unpredictable(less, key, best_key);
    }
    assert!(
        max_load <= L::MAX_BITS && max_score <= f64::MAX_BITS,
        "candidate load or score is negative or NaN"
    );
    best
}

/// A candidate load [`first_min`] can order by its bits.
pub(crate) trait LoadBits: Copy {
    /// The largest bit pattern of a valid load.
    const MAX_BITS: u64;
    /// Bits that order as the load does, for every valid load.
    fn bits(self) -> u64;
}

impl LoadBits for u64 {
    const MAX_BITS: u64 = u64::MAX;
    fn bits(self) -> u64 {
        self
    }
}

impl LoadBits for f64 {
    const MAX_BITS: u64 = f64::INFINITY.to_bits();
    fn bits(self) -> u64 {
        // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
        (self + 0.0).to_bits()
    }
}

/// What the mapping reads of one Function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MappingInput {
    pub avg_duration_ms: f64,
    pub memory_mb: f64,
    /// Selected-day invocations.
    pub total: u64,
}

/// Refuses an error threshold both modes cannot map with: a negative one,
/// or NaN, which `RuntimeIndex::band` would silently read as "no band".
pub(crate) fn check_threshold(error_threshold: f64) {
    assert!(error_threshold >= 0.0, "error threshold {error_threshold} is negative or NaN");
}

/// Map every aggregated Function to one pool Workload.
pub fn map_functions(
    agg: &Aggregation,
    pool: &WorkloadPool,
    cfg: &MappingConfig,
) -> FunctionMapping {
    let functions = agg.functions.iter().map(|f| MappingInput {
        avg_duration_ms: f.avg_duration_ms,
        memory_mb: f.memory_mb,
        total: f.total_invocations(),
    });
    map_each(functions, pool, cfg)
}

/// Map each Function to one pool Workload; `Assignment::function_index` is
/// a Function's position in `functions`.
pub(crate) fn map_each(
    functions: impl IntoIterator<Item = MappingInput>,
    pool: &WorkloadPool,
    cfg: &MappingConfig,
) -> FunctionMapping {
    check_threshold(cfg.error_threshold);
    assert!(!pool.is_empty(), "empty workload pool");
    let functions: Vec<MappingInput> = functions.into_iter().collect();

    let index = pool.runtime_index();
    let by_ms = index.entries();

    // Process Functions in descending invocation order so the busiest
    // Functions get first pick of under-used benchmark types.
    let mut order: Vec<usize> = (0..functions.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(functions[i].total));

    // Selection state per Workload variant, by position in `by_ms`.
    let mut variant_weight = vec![0.0f64; by_ms.len()];
    let mut variant_count = vec![0u64; by_ms.len()];
    let mut assignments = Vec::with_capacity(functions.len());

    for idx in order {
        let f = &functions[idx];
        let d = f.avg_duration_ms;
        let f_mem = f.memory_mb;
        let band = index.band(d, cfg.error_threshold);
        let fallback = band.is_empty();

        let pos = if fallback {
            index.nearest(d)
        } else {
            // Tie-break score among equally-loaded candidates: relative
            // duration error plus (optionally) a log-memory mismatch term.
            let score = |pos: usize| -> f64 {
                let c = &by_ms[pos];
                let dur_err = if d > 0.0 { (c.mean_ms - d).abs() / d } else { 0.0 };
                if cfg.memory_weight > 0.0 && f_mem > 0.0 && c.memory_mb > 0.0 {
                    dur_err + cfg.memory_weight * (c.memory_mb / f_mem).ln().abs()
                } else {
                    dur_err
                }
            };
            let load = |pos: usize| match cfg.balance {
                BalanceStrategy::ByInvocations => variant_weight[pos],
                BalanceStrategy::ByFunctionCount => variant_count[pos] as f64,
                BalanceStrategy::NearestOnly => 0.0,
            };
            first_min(band, load, score)
        };

        let chosen = &by_ms[pos];
        variant_weight[pos] += f.total as f64;
        variant_count[pos] += 1;
        assignments.push(Assignment {
            function_index: idx as u32,
            workload: chosen.id,
            rel_error: if d > 0.0 { (chosen.mean_ms - d).abs() / d } else { 0.0 },
            fallback,
        });
    }

    assignments.sort_by_key(|a| a.function_index);

    let total_weight: f64 = functions.iter().map(|f| f.total as f64).sum::<f64>().max(1.0);
    let weighted_rel_error = assignments
        .iter()
        .map(|a| a.rel_error * functions[a.function_index as usize].total as f64)
        .sum::<f64>()
        / total_weight;
    let functions = assignments.len();
    let fallbacks = assignments.iter().filter(|a| a.fallback).count();
    let mean_rel_error =
        assignments.iter().map(|a| a.rel_error).sum::<f64>() / functions.max(1) as f64;
    let max_rel_error = assignments.iter().map(|a| a.rel_error).fold(0.0, f64::max);

    FunctionMapping {
        stats: MappingStats {
            functions,
            within_threshold: functions - fallbacks,
            fallbacks,
            mean_rel_error,
            weighted_rel_error,
            max_rel_error,
        },
        assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate, DurationResolution};
    use faasrail_trace::azure::{generate, AzureTraceConfig};
    use faasrail_workloads::{CostModel, WorkloadKind};

    fn azure_parts() -> (Aggregation, WorkloadPool) {
        let trace = generate(&AzureTraceConfig::small(21));
        let agg = aggregate(&trace, DurationResolution::Millisecond);
        let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
        (agg, pool)
    }

    #[test]
    fn first_min_orders_by_load_then_score_then_position() {
        let load = [3u64, 1, 1, 1, 2];
        let score = [0.0, 0.5, 0.2, 0.2, 0.0];
        assert_eq!(first_min(0..5, |p| load[p], |p| score[p]), 2);
        assert_eq!(first_min(3..5, |p| load[p], |p| score[p]), 3);
        assert_eq!(first_min(0..5, |_| 0u64, |p| score[p]), 0, "equal loads: score alone");
        assert_eq!(first_min(4..5, |p| load[p], |p| score[p]), 4);

        // Tied loads and tied scores at several positions, under a `u64` load
        // (Smirnov's request counts) and an `f64` one (Spec mode's weights).
        fn ties<L: LoadBits>(load: &[L; 8]) {
            let score = [0.0, 0.4, 0.1, 0.3, 0.1, 0.1, 0.2, 0.1];
            let pick = |band: Range<usize>| first_min(band, |p| load[p], |p| score[p]);
            assert_eq!(pick(0..8), 2, "the earliest of the full ties at 2, 4, 5 and 7");
            assert_eq!(pick(3..8), 4);
            assert_eq!(pick(5..8), 5);
            assert_eq!(pick(6..8), 7);
            assert_eq!(pick(0..1), 0);
        }
        ties(&[2u64, 1, 1, 1, 1, 1, 1, 1]);
        ties(&[2.5f64, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]);
        // A lower load past a full tie starts over; ties after it still
        // resolve to the earliest position.
        let load = [1.0, 1.0, 0.5, 0.5, 0.5, 1.0];
        let score = [0.1, 0.1, 0.3, 0.2, 0.2, 0.0];
        assert_eq!(first_min(0..6, |p| load[p], |p| score[p]), 3);
        let load = [1u64, 1, 0, 0, 0, 1];
        assert_eq!(first_min(0..6, |p| load[p], |p| score[p]), 3);
    }

    /// The scan `first_min` replaced: a `reduce` over `partial_cmp`.
    fn first_min_by_reduce<L: PartialOrd>(
        band: Range<usize>,
        load: impl Fn(usize) -> L,
        score: impl Fn(usize) -> f64,
    ) -> usize {
        band.reduce(|best, pos| {
            let ord = load(pos)
                .partial_cmp(&load(best))
                .expect("finite")
                .then_with(|| score(pos).partial_cmp(&score(best)).expect("finite"));
            if ord.is_lt() {
                pos
            } else {
                best
            }
        })
        .expect("non-empty candidate band")
    }

    #[test]
    fn first_min_matches_the_reduce_it_replaced() {
        use faasrail_stats::rng::{cases, Rng};
        cases("first_min_matches_the_reduce_it_replaced", 512, |rng| {
            // Loads from a handful of levels, so most candidates tie on load;
            // scores are distances of a duration to runtimes from a handful
            // of levels, so many tie on score as well, signed zeros included.
            let n = rng.range(1..64usize);
            let levels = rng.range(1..5u64);
            let loads: Vec<u64> = (0..n).map(|_| rng.range(0..levels)).collect();
            let weights: Vec<f64> = loads.iter().map(|&l| l as f64 * 0.5).collect();
            let d = rng.range(0..4u32) as f64;
            let scores: Vec<f64> = (0..n)
                .map(|_| match rng.range(0..6u32) {
                    0 => -0.0,
                    1 => f64::INFINITY,
                    _ => (rng.range(0..4u32) as f64 - d).abs() * 0.3,
                })
                .collect();
            let start = rng.range(0..n);
            let end = rng.range(start + 1..n + 1);
            let score = |p: usize| scores[p];
            assert_eq!(
                first_min(start..end, |p| loads[p], score),
                first_min_by_reduce(start..end, |p| loads[p], score),
                "u64 loads {loads:?}, scores {scores:?}, band {start}..{end}"
            );
            let weight =
                |p: usize| if weights[p] == 0.0 && p.is_multiple_of(2) { -0.0 } else { weights[p] };
            assert_eq!(
                first_min(start..end, weight, score),
                first_min_by_reduce(start..end, weight, score),
                "f64 loads {weights:?}, scores {scores:?}, band {start}..{end}"
            );
        });
    }

    #[test]
    fn first_min_refuses_a_nan_or_negative_input() {
        let refused = |f: fn() -> usize| std::panic::catch_unwind(f).is_err();
        assert!(refused(|| first_min(0..3, |_| 0u64, |p| [0.0, f64::NAN, 1.0][p])));
        assert!(refused(|| first_min(0..3, |_| 0u64, |p| [0.0, 2.0, -1.0][p])));
        assert!(refused(|| first_min(0..2, |p| [f64::NAN, 0.0][p], |_| 0.0)));
        assert!(refused(|| first_min(0..2, |p| [1.0, -0.5][p], |_| 0.0)));
        assert!(refused(|| first_min(3..3, |_| 0u64, |_| 0.0)));
        assert_eq!(first_min(0..2, |p| [0.0, -0.0][p], |p| [1.0, 0.5][p]), 1);
    }

    #[test]
    fn every_function_assigned_once() {
        let (agg, pool) = azure_parts();
        let m = map_functions(&agg, &pool, &MappingConfig::default());
        assert_eq!(m.assignments.len(), agg.len());
        for (i, a) in m.assignments.iter().enumerate() {
            assert_eq!(a.function_index as usize, i);
            assert!(pool.get(a.workload).is_some());
        }
    }

    #[test]
    fn threshold_respected_for_non_fallbacks() {
        let (agg, pool) = azure_parts();
        let cfg = MappingConfig { error_threshold: 0.1, ..Default::default() };
        let m = map_functions(&agg, &pool, &cfg);
        for a in &m.assignments {
            if !a.fallback {
                assert!(a.rel_error <= 0.1 + 1e-9, "rel_error {} without fallback", a.rel_error);
            }
        }
        // With a dense 2 K pool over the trace range, fallbacks are rare and
        // confined to outliers.
        assert!(
            (m.stats.fallbacks as f64) / (m.stats.functions as f64) < 0.2,
            "fallback fraction = {}/{}",
            m.stats.fallbacks,
            m.stats.functions
        );
    }

    #[test]
    fn weighted_error_small() {
        // The invocation mass should be mapped accurately: popular Functions
        // sit in the well-covered part of the pool.
        let (agg, pool) = azure_parts();
        let m = map_functions(&agg, &pool, &MappingConfig::default());
        assert!(
            m.stats.weighted_rel_error < 0.10,
            "weighted relative error = {}",
            m.stats.weighted_rel_error
        );
    }

    #[test]
    fn balancing_spreads_kinds() {
        let (agg, pool) = azure_parts();
        let balanced = map_functions(&agg, &pool, &MappingConfig::default());
        let nearest = map_functions(
            &agg,
            &pool,
            &MappingConfig { balance: BalanceStrategy::NearestOnly, ..Default::default() },
        );
        let distinct_kinds = |m: &FunctionMapping| {
            let mut kinds: Vec<WorkloadKind> =
                m.assignments.iter().map(|a| pool.get(a.workload).unwrap().kind()).collect();
            kinds.sort_unstable();
            kinds.dedup();
            kinds.len()
        };
        assert!(distinct_kinds(&balanced) >= distinct_kinds(&nearest));
        assert!(distinct_kinds(&balanced) >= 7, "balanced mapping uses most benchmark types");
    }

    #[test]
    fn zero_threshold_still_assigns_everything() {
        let (agg, pool) = azure_parts();
        let cfg = MappingConfig { error_threshold: 0.0, ..Default::default() };
        let m = map_functions(&agg, &pool, &cfg);
        assert_eq!(m.assignments.len(), agg.len());
        // Nearly everything becomes a nearest-neighbour fallback.
        assert!(m.stats.fallbacks > 0);
    }

    #[test]
    fn workload_for_lookup() {
        let (agg, pool) = azure_parts();
        let m = map_functions(&agg, &pool, &MappingConfig::default());
        let a = &m.assignments[3];
        assert_eq!(m.workload_for(a.function_index), Some(a.workload));
        assert_eq!(m.workload_for(u32::MAX), None);
    }

    #[test]
    fn memory_weight_improves_memory_match_without_breaking_durations() {
        let (agg, pool) = azure_parts();
        let plain = map_functions(&agg, &pool, &MappingConfig::default());
        let memaware =
            map_functions(&agg, &pool, &MappingConfig { memory_weight: 0.5, ..Default::default() });

        // Invocation-weighted mean |ln(workload_mem / Function_mem)|.
        let mem_err = |m: &FunctionMapping| -> f64 {
            let mut err = 0.0;
            let mut weight = 0.0;
            for a in &m.assignments {
                let f = &agg.functions[a.function_index as usize];
                let w = pool.get(a.workload).unwrap();
                let inv = f.total_invocations() as f64;
                err += (w.memory_mb / f.memory_mb).ln().abs() * inv;
                weight += inv;
            }
            err / weight
        };
        assert!(
            mem_err(&memaware) < mem_err(&plain),
            "memory-aware {:.3} should beat plain {:.3}",
            mem_err(&memaware),
            mem_err(&plain)
        );
        // Duration fidelity must not collapse: the threshold still binds.
        for a in &memaware.assignments {
            if !a.fallback {
                assert!(a.rel_error <= 0.10 + 1e-9);
            }
        }
        assert!(memaware.stats.weighted_rel_error < 0.10);
    }

    #[test]
    fn by_function_count_strategy_runs() {
        let (agg, pool) = azure_parts();
        let cfg = MappingConfig { balance: BalanceStrategy::ByFunctionCount, ..Default::default() };
        let m = map_functions(&agg, &pool, &cfg);
        assert_eq!(m.assignments.len(), agg.len());
    }
}
