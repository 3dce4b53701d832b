//! What the figures are drawn from, built lazily and once per seed: the
//! traces, the pools, the aggregation, the 2 h / 20 rps Spec-mode experiment
//! of Figs. 7–10 and 12, the Smirnov runs of Fig. 11 and the two baselines.
//! Each is a pure function of `(scale, seed)`, so a figure reads the same
//! input whether it runs alone or after every other figure.

use crate::Scale;
use faasrail_baselines::poisson_emulation::{self, PoissonEmulationConfig};
use faasrail_baselines::random_sampling::{self, RandomSamplingConfig};
use faasrail_core::aggregate::{aggregate, Aggregation, DurationResolution};
use faasrail_core::smirnov::{self, SmirnovConfig, SmirnovReport};
use faasrail_core::{
    generate_requests, shrink, ExperimentSpec, RequestTrace, ShrinkRayConfig, ShrinkReport,
};
use faasrail_stats::ecdf::WeightedEcdf;
use faasrail_trace::azure::AzureTraceConfig;
use faasrail_trace::huawei::HuaweiTraceConfig;
use faasrail_trace::summarize::invocations_duration_wecdf;
use faasrail_trace::Trace;
use faasrail_workloads::{CostModel, WorkloadPool};
use std::cell::OnceCell;
use std::sync::OnceLock;

/// The standard modelled pool (2291 Workloads) and the vanilla pool. Neither
/// depends on the seed, so the audit's five seeds share one pair.
fn pools() -> &'static (WorkloadPool, WorkloadPool) {
    static POOLS: OnceLock<(WorkloadPool, WorkloadPool)> = OnceLock::new();
    POOLS.get_or_init(|| {
        let model = CostModel::default_calibration();
        (WorkloadPool::build_modelled(&model), WorkloadPool::vanilla(&model))
    })
}

/// One seed's inputs at one scale.
pub struct Inputs {
    pub scale: Scale,
    pub seed: u64,
    built: Built,
}

#[derive(Default)]
struct Built {
    azure: OnceCell<Trace>,
    huawei: OnceCell<Trace>,
    azure_invocations: OnceCell<WeightedEcdf>,
    aggregation: OnceCell<Aggregation>,
    spec: OnceCell<(ExperimentSpec, ShrinkReport)>,
    requests: OnceCell<RequestTrace>,
    smirnov: OnceCell<[(RequestTrace, SmirnovReport); 2]>,
    poisson: OnceCell<RequestTrace>,
    sampling: OnceCell<RequestTrace>,
}

/// An environment variable's value, `None` when unset.
fn env_var(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(value) => Ok(Some(value)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(format!("{name}={raw:?} is not UTF-8")),
    }
}

impl Inputs {
    pub fn new(scale: Scale, seed: u64) -> Inputs {
        Inputs { scale, seed, built: Built::default() }
    }

    /// From the values of `FAASRAIL_SCALE` (`small` or `paper`) and
    /// `FAASRAIL_SEED` (an unsigned integer); unset means small and 42.
    /// Anything else is refused: a misspelt `paper` must not pass for a
    /// full-scale run, nor a mistyped seed for seed 42.
    pub fn parse(scale: Option<&str>, seed: Option<&str>) -> Result<Inputs, String> {
        let scale = match scale {
            None | Some("small") => Scale::Small,
            Some("paper") => Scale::Paper,
            Some(other) => {
                return Err(format!("FAASRAIL_SCALE={other}: expected `small` or `paper`"))
            }
        };
        let seed = seed.map_or(Ok(42), |s| {
            s.parse().map_err(|_| format!("FAASRAIL_SEED={s}: expected an unsigned integer"))
        })?;
        Ok(Inputs::new(scale, seed))
    }

    /// [`Inputs::parse`] of the environment.
    pub fn from_env() -> Result<Inputs, String> {
        Inputs::parse(env_var("FAASRAIL_SCALE")?.as_deref(), env_var("FAASRAIL_SEED")?.as_deref())
    }

    /// The standard modelled pool (2291 Workloads).
    pub fn pool(&self) -> &'static WorkloadPool {
        &pools().0
    }

    /// The ten vanilla FunctionBench workloads.
    pub fn vanilla(&self) -> &'static WorkloadPool {
        &pools().1
    }

    /// The Azure trace at the chosen scale.
    pub fn azure(&self) -> &Trace {
        self.built.azure.get_or_init(|| {
            faasrail_trace::azure::generate(&match self.scale {
                Scale::Small => AzureTraceConfig::small(self.seed),
                Scale::Paper => AzureTraceConfig::paper_scale(self.seed),
            })
        })
    }

    /// The Huawei trace at the chosen scale.
    pub fn huawei(&self) -> &Trace {
        self.built.huawei.get_or_init(|| {
            faasrail_trace::huawei::generate(&match self.scale {
                Scale::Small => HuaweiTraceConfig::small(self.seed),
                Scale::Paper => HuaweiTraceConfig::paper_scale(self.seed),
            })
        })
    }

    /// The Azure day's invocation-duration CDF: the target of Figs. 1b, 9,
    /// 11a and of every mapping ablation.
    pub fn azure_invocations(&self) -> &WeightedEcdf {
        self.built.azure_invocations.get_or_init(|| invocations_duration_wecdf(self.azure()))
    }

    /// The Azure trace aggregated on millisecond durations (paper §3.1.2).
    pub fn aggregation(&self) -> &Aggregation {
        self.built
            .aggregation
            .get_or_init(|| aggregate(self.azure(), DurationResolution::Millisecond))
    }

    /// The paper's Spec-mode experiment: the Azure day shrunk to 2 h at a
    /// 20 rps peak (Thumbnails + per-minute Poisson), with its report.
    pub fn spec(&self) -> &(ExperimentSpec, ShrinkReport) {
        self.built.spec.get_or_init(|| {
            shrink(self.azure(), self.pool(), &ShrinkRayConfig::new(120, 20.0)).expect("shrink")
        })
    }

    /// The request trace [`Inputs::spec`] expands to under the seed.
    pub fn requests(&self) -> &RequestTrace {
        self.built.requests.get_or_init(|| generate_requests(&self.spec().0, self.seed))
    }

    /// Fig. 11's Smirnov-mode runs, against the Azure trace and the Huawei
    /// trace, at the paper's request count.
    pub fn smirnov(&self) -> &[(RequestTrace, SmirnovReport); 2] {
        self.built.smirnov.get_or_init(|| {
            let num_invocations = match self.scale {
                Scale::Small => 40_000,
                Scale::Paper => 120_408, // the paper's request count
            };
            let cfg = SmirnovConfig { num_invocations, ..SmirnovConfig::paper_default(self.seed) };
            [self.azure(), self.huawei()].map(|t| smirnov::generate(t, self.pool(), &cfg))
        })
    }

    /// Baseline: plain Poisson at 20 rps over vanilla FunctionBench.
    pub fn poisson(&self) -> &RequestTrace {
        self.built.poisson.get_or_init(|| {
            poisson_emulation::generate(
                self.vanilla(),
                &PoissonEmulationConfig::paper_fig1(self.seed),
            )
        })
    }

    /// Baseline: random trace sampling mapped onto vanilla FunctionBench.
    pub fn sampling(&self) -> &RequestTrace {
        self.built.sampling.get_or_init(|| {
            random_sampling::generate(
                self.azure(),
                self.vanilla(),
                &RandomSamplingConfig::paper_fig1(self.seed),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_have_expected_sizes() {
        let inputs = Inputs::new(Scale::Small, 42);
        assert!(inputs.pool().len() > 2_000);
        assert_eq!(inputs.vanilla().len(), 10);
    }

    #[test]
    fn unset_means_small_and_42() {
        let of = |scale, seed| Inputs::parse(scale, seed).map(|i| (i.scale, i.seed));
        assert_eq!(of(None, None), Ok((Scale::Small, 42)));
        assert_eq!(of(Some("small"), Some("7")), Ok((Scale::Small, 7)));
        assert_eq!(of(Some("paper"), None), Ok((Scale::Paper, 42)));
    }

    /// Both used to fall back to the default without a word.
    #[test]
    fn a_misspelt_scale_or_seed_is_refused_with_the_valid_values() {
        for bad in ["papr", "Paper", "", " paper"] {
            let err = Inputs::parse(Some(bad), None).err().expect("refused");
            assert!(err.contains("`small` or `paper`") && err.contains(bad), "{err}");
        }
        for bad in ["4x2", "-1", "", "4.2"] {
            let err = Inputs::parse(Some("paper"), Some(bad)).err().expect("refused");
            assert!(err.contains("unsigned integer") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn an_input_is_built_once_and_depends_on_the_seed_alone() {
        let a = Inputs::new(Scale::Small, 7);
        assert!(std::ptr::eq(a.huawei(), a.huawei()));
        assert_eq!(a.huawei(), Inputs::new(Scale::Small, 7).huawei());
        assert_ne!(a.huawei(), Inputs::new(Scale::Small, 8).huawei());
    }
}
