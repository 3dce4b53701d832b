//! The Workload pool: augmentation of ten benchmarks into ~2300 Workloads.
//!
//! Paper §3.1.1: "We consider each `(function, input)` combination as a
//! distinct Workload, and in this way we generate a pool of Workloads with
//! execution runtimes that span over the whole distribution found in a
//! trace." The grid below reproduces both the pool cardinality (2291) and
//! its deliberate asymmetries: `pyaes` dominates the short-runtime end,
//! `cnn_serving` is barely augmented (4 variants), `lr_training` only
//! exists above three seconds.

use crate::cost_model::CostModel;
use crate::input::WorkloadInput;
use crate::registry::WorkloadKind;
use faasrail_stats::ecdf::Ecdf;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Identifier of a Workload within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkloadId(pub u32);

/// One Workload: a benchmark plus a concrete input, with its registered
/// (modelled or measured) mean warm execution time and memory footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    pub id: WorkloadId,
    pub input: WorkloadInput,
    /// Mean warm execution time, milliseconds.
    pub mean_ms: f64,
    /// Estimated resident memory, MiB.
    pub memory_mb: f64,
}

impl Workload {
    /// The benchmark this Workload was derived from.
    pub fn kind(&self) -> WorkloadKind {
        self.input.kind()
    }
}

/// Augmentation grid entry: how many variants of a kind, over which runtime
/// range (modelled milliseconds).
#[derive(Clone, Copy)]
struct GridSpec {
    kind: WorkloadKind,
    count: usize,
    lo_ms: f64,
    hi_ms: f64,
}

/// The paper-scale grid: 2287 inverted variants + 4 fixed cnn_serving
/// configurations = 2291 Workloads (Fig. 6's pool cardinality).
const GRID: [GridSpec; 9] = [
    GridSpec { kind: WorkloadKind::Pyaes, count: 400, lo_ms: 0.05, hi_ms: 500.0 },
    GridSpec { kind: WorkloadKind::LrServing, count: 200, lo_ms: 2.0, hi_ms: 800.0 },
    GridSpec { kind: WorkloadKind::JsonSerdes, count: 250, lo_ms: 10.0, hi_ms: 3_000.0 },
    GridSpec { kind: WorkloadKind::ImageProcessing, count: 300, lo_ms: 20.0, hi_ms: 8_000.0 },
    GridSpec { kind: WorkloadKind::Chameleon, count: 300, lo_ms: 50.0, hi_ms: 20_000.0 },
    GridSpec { kind: WorkloadKind::RnnServing, count: 250, lo_ms: 100.0, hi_ms: 10_000.0 },
    GridSpec { kind: WorkloadKind::Matmul, count: 200, lo_ms: 2.0, hi_ms: 60_000.0 },
    GridSpec { kind: WorkloadKind::VideoProcessing, count: 300, lo_ms: 500.0, hi_ms: 120_000.0 },
    GridSpec { kind: WorkloadKind::LrTraining, count: 87, lo_ms: 3_000.0, hi_ms: 120_000.0 },
];

/// Auxiliary-suite grid (paper §3.3's "integrate more benchmarking suites"):
/// six further kernels, 840 variants, extending the pool to ~3100 Workloads.
/// Ranges are bounded so even the largest variant stays within a FaaS-like
/// footprint (the text/sort kernels materialize their input).
const AUX_GRID: [GridSpec; 6] = [
    GridSpec { kind: WorkloadKind::Compression, count: 150, lo_ms: 2.0, hi_ms: 1_000.0 },
    GridSpec { kind: WorkloadKind::GraphBfs, count: 150, lo_ms: 5.0, hi_ms: 5_000.0 },
    GridSpec { kind: WorkloadKind::PageRank, count: 120, lo_ms: 50.0, hi_ms: 10_000.0 },
    GridSpec { kind: WorkloadKind::SortData, count: 150, lo_ms: 2.0, hi_ms: 5_000.0 },
    GridSpec { kind: WorkloadKind::TextSearch, count: 150, lo_ms: 1.0, hi_ms: 400.0 },
    GridSpec { kind: WorkloadKind::WordCount, count: 120, lo_ms: 5.0, hi_ms: 1_000.0 },
];

/// Fixed cnn_serving variants (image sizes at 64 filters) — deliberately
/// few, reproducing the paper's observation that cnn_serving lacks
/// augmentation and is therefore rarely mapped.
const CNN_VARIANTS: [WorkloadInput; 4] = [
    WorkloadInput::CnnServing { image_size: 128, filters: 64 },
    WorkloadInput::CnnServing { image_size: 192, filters: 64 },
    WorkloadInput::CnnServing { image_size: 256, filters: 64 },
    WorkloadInput::CnnServing { image_size: 320, filters: 64 },
];

/// Reference duration mixture used to place grid points: the mid-popularity
/// Azure mixture (log-normal components for short / medium / long
/// functions). CDF evaluated exactly; quantiles by bisection.
pub mod reference {
    use faasrail_stats::special::normal_cdf;

    const COMPONENTS: [(f64, f64, f64); 3] = [
        // (weight, median_ms, sigma)
        (0.55, 300.0, 1.0817),
        (0.29, 1_500.0, 0.9395),
        (0.16, 15_000.0, 1.0817),
    ];

    /// CDF of the reference Azure-like duration mixture at `ms`.
    pub fn mixture_cdf(ms: f64) -> f64 {
        assert!(ms > 0.0);
        COMPONENTS
            .iter()
            .map(|&(w, median, sigma)| w * normal_cdf((ms.ln() - median.ln()) / sigma))
            .sum()
    }

    /// Quantile of the mixture restricted to `[lo, hi]`, by bisection.
    pub fn restricted_quantile(u: f64, lo: f64, hi: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u) && lo > 0.0 && lo < hi);
        let (c_lo, c_hi) = (mixture_cdf(lo), mixture_cdf(hi));
        let target = c_lo + u * (c_hi - c_lo);
        let (mut a, mut b) = (lo, hi);
        for _ in 0..80 {
            let mid = (a * b).sqrt(); // geometric bisection over log-space
            if mixture_cdf(mid) < target {
                a = mid;
            } else {
                b = mid;
            }
        }
        (a * b).sqrt()
    }
}

/// The augmented Workload pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPool {
    workloads: Vec<Workload>,
}

impl WorkloadPool {
    /// Build a pool from explicit workloads (ids are reassigned densely).
    pub fn from_workloads(mut workloads: Vec<Workload>) -> Self {
        assert!(!workloads.is_empty(), "pool must not be empty");
        for (i, w) in workloads.iter_mut().enumerate() {
            w.id = WorkloadId(i as u32);
            assert!(w.mean_ms > 0.0 && w.mean_ms.is_finite(), "bad mean_ms {}", w.mean_ms);
        }
        WorkloadPool { workloads }
    }

    /// Build the paper-scale modelled pool (2291 Workloads).
    ///
    /// Half of each kind's variants are placed log-uniformly over the kind's
    /// feasible runtime range (coverage), half at quantiles of the reference
    /// Azure mixture restricted to that range (shape), so the pool both
    /// spans the full trace distribution and concentrates where trace mass
    /// concentrates.
    ///
    /// ```
    /// use faasrail_workloads::{CostModel, WorkloadPool};
    /// let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    /// assert!(pool.len() > 2_000);                       // ~2291 Workloads
    /// let (lo, hi) = pool.duration_ecdf().support();
    /// assert!(lo < 1.0 && hi > 60_000.0);                // 1 ms .. minutes
    /// ```
    pub fn build_modelled(model: &CostModel) -> Self {
        Self::build_from_grids(model, &GRID)
    }

    /// Build the *extended* pool: the paper-scale FunctionBench grid plus
    /// the auxiliary suite (~3100 Workloads) — the §3.3 enrichment plan.
    pub fn build_modelled_extended(model: &CostModel) -> Self {
        let mut grids: Vec<GridSpec> = Vec::with_capacity(GRID.len() + AUX_GRID.len());
        grids.extend(GRID);
        grids.extend(AUX_GRID);
        Self::build_from_grids(model, &grids)
    }

    fn build_from_grids(model: &CostModel, grids: &[GridSpec]) -> Self {
        let mut seen: BTreeSet<WorkloadInput> = BTreeSet::new();
        let mut workloads: Vec<Workload> = Vec::with_capacity(2_291);

        let mut push = |input: WorkloadInput, seen: &mut BTreeSet<WorkloadInput>| {
            if seen.insert(input) {
                workloads.push(Workload {
                    id: WorkloadId(0), // reassigned below
                    input,
                    mean_ms: model.predict_ms(&input),
                    memory_mb: input.memory_mb(),
                });
            }
        };

        for input in CNN_VARIANTS {
            push(input, &mut seen);
        }
        for spec in grids {
            let half = spec.count / 2;
            // Log-uniform coverage points.
            for i in 0..half {
                let u = (i as f64 + 0.5) / half as f64;
                let target = spec.lo_ms * (spec.hi_ms / spec.lo_ms).powf(u);
                let units = model.units_for_ms(spec.kind, target);
                if let Some(input) = WorkloadInput::for_work_units(spec.kind, units) {
                    push(input, &mut seen);
                }
            }
            // Azure-mixture quantile points.
            for i in 0..(spec.count - half) {
                let u = (i as f64 + 0.5) / (spec.count - half) as f64;
                let target = reference::restricted_quantile(u, spec.lo_ms, spec.hi_ms);
                let units = model.units_for_ms(spec.kind, target);
                if let Some(input) = WorkloadInput::for_work_units(spec.kind, units) {
                    push(input, &mut seen);
                }
            }
        }
        Self::from_workloads(workloads)
    }

    /// The ten vanilla FunctionBench configurations (Fig. 6's baseline).
    pub fn vanilla(model: &CostModel) -> Self {
        Self::from_workloads(
            WorkloadKind::ALL
                .iter()
                .map(|&k| {
                    let input = WorkloadInput::vanilla(k);
                    Workload {
                        id: WorkloadId(0),
                        input,
                        mean_ms: model.predict_ms(&input),
                        memory_mb: input.memory_mb(),
                    }
                })
                .collect(),
        )
    }

    /// All workloads, ordered by id.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Look up by id.
    pub fn get(&self, id: WorkloadId) -> Option<&Workload> {
        self.workloads.get(id.0 as usize)
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Always false (construction rejects empty pools).
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// ECDF of workload mean runtimes (paper Fig. 6's pool curve).
    pub fn duration_ecdf(&self) -> Ecdf {
        Ecdf::new(&self.workloads.iter().map(|w| w.mean_ms).collect::<Vec<_>>())
    }

    /// ECDF of workload memory footprints (paper Fig. 7's pool curve).
    pub fn memory_ecdf(&self) -> Ecdf {
        Ecdf::new(&self.workloads.iter().map(|w| w.memory_mb).collect::<Vec<_>>())
    }

    /// How many Workloads each benchmark contributed.
    pub fn counts_by_kind(&self) -> BTreeMap<WorkloadKind, usize> {
        let mut out = BTreeMap::new();
        for w in &self.workloads {
            *out.entry(w.kind()).or_insert(0) += 1;
        }
        out
    }

    /// The pool's runtime-sorted view, for candidate-band and nearest
    /// queries (paper §3.1.3).
    pub fn runtime_index(&self) -> RuntimeIndex {
        let mut entries: Vec<RuntimeEntry> = self
            .workloads
            .iter()
            .map(|w| RuntimeEntry {
                mean_ms: w.mean_ms,
                id: w.id,
                kind: w.kind(),
                memory_mb: w.memory_mb,
            })
            .collect();
        entries.sort_by(|a, b| a.mean_ms.partial_cmp(&b.mean_ms).expect("finite"));
        RuntimeIndex { entries }
    }

    /// Serialize to JSON (the pool registration artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("pool serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// What a [`RuntimeIndex`] keeps of one Workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeEntry {
    pub mean_ms: f64,
    pub id: WorkloadId,
    pub kind: WorkloadKind,
    pub memory_mb: f64,
}

/// A pool's Workloads stably sorted by mean runtime (equal runtimes keep
/// pool order). Every mapping step queries it by *position*, so per-Workload
/// selection state can live in plain vectors aligned with [`Self::entries`].
#[derive(Debug, Clone)]
pub struct RuntimeIndex {
    entries: Vec<RuntimeEntry>,
}

impl RuntimeIndex {
    /// The entries in ascending-runtime order; never empty.
    pub fn entries(&self) -> &[RuntimeEntry] {
        &self.entries
    }

    /// Positions whose runtime lies within `d × (1 ± threshold)`, both edges
    /// inclusive. Empty when no Workload does; callers then fall back to
    /// [`Self::nearest`].
    pub fn band(&self, d: f64, threshold: f64) -> Range<usize> {
        let (lo, hi) = (d * (1.0 - threshold), d * (1.0 + threshold));
        self.entries.partition_point(|e| e.mean_ms < lo)
            ..self.entries.partition_point(|e| e.mean_ms <= hi)
    }

    /// Position of the Workload whose runtime is closest to `d`: the nearer
    /// of the two entries flanking `d`, the lower one when equidistant.
    pub fn nearest(&self, d: f64) -> usize {
        let above = self.entries.partition_point(|e| e.mean_ms < d);
        if above == 0 {
            return 0;
        }
        let below = above - 1;
        match self.entries.get(above) {
            Some(e) if (self.entries[below].mean_ms - d).abs() > (e.mean_ms - d).abs() => above,
            _ => below,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modelled() -> WorkloadPool {
        WorkloadPool::build_modelled(&CostModel::default_calibration())
    }

    #[test]
    fn pool_cardinality_near_paper() {
        // Target is 2291; integer-input dedup may collapse a few variants.
        let p = modelled();
        assert!((2_100..=2_291).contains(&p.len()), "pool cardinality = {}", p.len());
    }

    #[test]
    fn all_kinds_present() {
        let counts = modelled().counts_by_kind();
        for k in WorkloadKind::ALL {
            assert!(counts.contains_key(&k), "{k} missing from pool");
        }
        assert_eq!(counts[&WorkloadKind::CnnServing], 4);
    }

    #[test]
    fn pyaes_dominates_short_runtimes() {
        // Paper §4.4: under the current augmentation pyaes dominates the
        // pool, especially among short-running workloads.
        let p = modelled();
        let short: Vec<&Workload> = p.workloads().iter().filter(|w| w.mean_ms < 10.0).collect();
        assert!(!short.is_empty());
        let aes = short.iter().filter(|w| w.kind() == WorkloadKind::Pyaes).count();
        assert!(
            aes as f64 / short.len() as f64 > 0.5,
            "pyaes share of sub-10ms workloads = {}/{}",
            aes,
            short.len()
        );
    }

    #[test]
    fn lr_training_only_above_three_seconds() {
        let p = modelled();
        for w in p.workloads() {
            if w.kind() == WorkloadKind::LrTraining {
                assert!(w.mean_ms >= 2_900.0, "lr_training at {} ms", w.mean_ms);
            }
        }
    }

    #[test]
    fn pool_spans_trace_range() {
        let p = modelled();
        let e = p.duration_ecdf();
        let (lo, hi) = e.support();
        assert!(lo < 1.0, "pool min = {lo} ms");
        assert!(hi > 60_000.0, "pool max = {hi} ms");
    }

    #[test]
    fn pool_smoother_than_vanilla() {
        // The augmented pool must have far more distinct runtimes than the
        // 10-point vanilla suite (Fig. 6's smoothness argument).
        let model = CostModel::default_calibration();
        let pool = WorkloadPool::build_modelled(&model);
        let vanilla = WorkloadPool::vanilla(&model);
        assert_eq!(vanilla.len(), 10);
        assert!(pool.len() > 100 * vanilla.len());
    }

    #[test]
    fn ids_dense_and_ordered() {
        let p = modelled();
        for (i, w) in p.workloads().iter().enumerate() {
            assert_eq!(w.id, WorkloadId(i as u32));
            assert_eq!(p.get(w.id).unwrap().id, w.id);
        }
    }

    #[test]
    fn json_roundtrip() {
        let model = CostModel::default_calibration();
        let p = WorkloadPool::vanilla(&model);
        let back = WorkloadPool::from_json(&p.to_json()).unwrap();
        // Compare structurally with a float tolerance: JSON decimal printing
        // may perturb the last ulp of mean_ms.
        assert_eq!(p.len(), back.len());
        for (a, b) in p.workloads().iter().zip(back.workloads()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.input, b.input);
            assert!((a.mean_ms - b.mean_ms).abs() < 1e-9 * (1.0 + a.mean_ms));
            assert!((a.memory_mb - b.memory_mb).abs() < 1e-9 * (1.0 + a.memory_mb));
        }
        // A second round-trip is exactly stable.
        let again = WorkloadPool::from_json(&back.to_json()).unwrap();
        assert_eq!(back, again);
    }

    #[test]
    fn memory_within_bounds() {
        let p = modelled();
        for w in p.workloads() {
            assert!((16.0..=2_048.0).contains(&w.memory_mb), "{:?}: {}", w.input, w.memory_mb);
        }
    }

    #[test]
    fn extended_pool_adds_auxiliary_suite() {
        let model = CostModel::default_calibration();
        let base = WorkloadPool::build_modelled(&model);
        let ext = WorkloadPool::build_modelled_extended(&model);
        assert!(ext.len() > base.len() + 600, "{} vs {}", ext.len(), base.len());
        let counts = ext.counts_by_kind();
        for k in WorkloadKind::AUXILIARY {
            assert!(counts.get(&k).copied().unwrap_or(0) > 50, "{k} under-represented");
        }
        // The base FunctionBench composition is unchanged.
        let base_counts = base.counts_by_kind();
        for k in WorkloadKind::ALL {
            assert_eq!(base_counts.get(&k), counts.get(&k), "{k} count changed");
        }
        // Extended pool still spans the trace range and stays bounded.
        for w in ext.workloads() {
            assert!((16.0..=2_048.0).contains(&w.memory_mb));
            assert!(w.mean_ms > 0.0);
        }
    }

    /// A pool with the given runtimes, in that order.
    fn pool_of(runtimes: &[f64]) -> WorkloadPool {
        WorkloadPool::from_workloads(
            runtimes
                .iter()
                .map(|&mean_ms| Workload {
                    id: WorkloadId(0),
                    input: WorkloadInput::vanilla(WorkloadKind::Pyaes),
                    mean_ms,
                    memory_mb: 64.0,
                })
                .collect(),
        )
    }

    #[test]
    fn runtime_index_sorts_stably_and_carries_the_pool_fields() {
        let index = pool_of(&[5.0, 3.0, 5.0, 3.0]).runtime_index();
        let ids: Vec<u32> = index.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, [1, 3, 0, 2], "equal runtimes keep pool order");

        let pool = modelled();
        let index = pool.runtime_index();
        assert_eq!(index.entries().len(), pool.len());
        assert!(index.entries().windows(2).all(|w| w[0].mean_ms <= w[1].mean_ms));
        for e in index.entries() {
            let w = pool.get(e.id).unwrap();
            assert_eq!((e.mean_ms, e.kind, e.memory_mb), (w.mean_ms, w.kind(), w.memory_mb));
        }
    }

    #[test]
    fn band_includes_both_edges() {
        // 100 × (1 ± 0.5) is exactly [50, 150].
        let index = pool_of(&[49.999, 50.0, 100.0, 150.0, 150.001]).runtime_index();
        assert_eq!(index.band(100.0, 0.5), 1..4);
        assert_eq!(index.band(100.0, 0.0), 2..3);
        // Duplicates of an edge value are all inside.
        let index = pool_of(&[50.0, 50.0, 150.0, 150.0]).runtime_index();
        assert_eq!(index.band(100.0, 0.5), 0..4);
    }

    #[test]
    fn empty_band_falls_back_to_nearest() {
        let index = pool_of(&[10.0, 1_000.0]).runtime_index();
        assert!(index.band(100.0, 0.1).is_empty());
        assert_eq!(index.nearest(100.0), 0);
        assert_eq!(index.nearest(900.0), 1);
        // `d == 0` has an empty band at any threshold and maps to the
        // shortest Workload.
        assert!(index.band(0.0, 0.5).is_empty());
        assert_eq!(index.nearest(0.0), 0);
    }

    #[test]
    fn nearest_prefers_the_lower_flank_and_clamps_at_the_ends() {
        let index = pool_of(&[10.0, 30.0, 30.0, 70.0]).runtime_index();
        assert_eq!(index.nearest(20.0), 0, "equidistant flanks: the lower one");
        assert_eq!(index.nearest(20.001), 1);
        assert_eq!(index.nearest(30.0), 1, "an exact hit on duplicates: the first");
        assert_eq!(
            index.nearest(50.0),
            2,
            "equidistant, and the lower flank is the later duplicate"
        );
        assert_eq!(index.nearest(1.0), 0, "below the first entry");
        assert_eq!(index.nearest(1e9), 3, "above the last entry");
        assert_eq!(pool_of(&[42.0]).runtime_index().nearest(7.0), 0);
    }

    #[test]
    fn reference_mixture_sane() {
        use super::reference::*;
        assert!(mixture_cdf(1.0) < 0.01);
        assert!(mixture_cdf(1_000.0) > 0.4 && mixture_cdf(1_000.0) < 0.75);
        assert!(mixture_cdf(300_000.0) > 0.99);
        // Quantiles stay inside the restriction and are monotone.
        let q1 = restricted_quantile(0.2, 10.0, 1_000.0);
        let q2 = restricted_quantile(0.8, 10.0, 1_000.0);
        assert!(q1 >= 10.0 && q2 <= 1_000.0 && q1 < q2);
    }
}
