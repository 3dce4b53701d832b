//! What one run reports: the one-line result the driver reads, and the
//! fuller record `all` and `aa` collect from their child processes.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use faasrail_telemetry::BuildInfo;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The last line of a run's standard output, exactly these keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    /// 1-minute load average when the run started.
    pub load_average: f64,
    pub build: BuildInfo,
    /// Always `standins`: this package builds the product crates against
    /// the std-only stand-ins under `standins/`, never registry crates, so
    /// its numbers are comparable with each other and with nothing else.
    pub deps: String,
}

impl Environment {
    pub fn capture() -> Environment {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let load_average = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|text| text.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            load_average,
            build: BuildInfo::current(),
            deps: "standins".to_owned(),
        }
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub env: Environment,
    /// Untraced passes of the timed section that `items_per_s` is read off.
    pub passes: u64,
    pub setups: u64,
    /// Hash of the workload's deterministic outputs (spec / request trace /
    /// lab report JSON); equal across passes and runs of one seed. Printed
    /// for cross-commit comparison, not pinned.
    pub output_digest: String,
    /// Correctness checks that failed, in words.
    pub failures: Vec<String>,
    /// The per-pass (and, for `setup_s`, per-set-up) values behind each
    /// end-to-end timing, in the order measured; empty in a traced run.
    pub samples: BTreeMap<String, Vec<f64>>,
    pub result: ResultLine,
}

/// Collects metric values by name and checks, when finished, that they are
/// exactly the set the run's mode must report.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values of `defs`, in that order; a per-layer metric the run
    /// never set reads 0 (its layer was not entered).
    ///
    /// # Panics
    /// Panics on a name outside `defs`, and on an end-to-end metric left
    /// unset: both are bugs in a workload.
    fn finish(mut self, defs: &[MetricDef]) -> BTreeMap<String, MetricValue> {
        let out = defs
            .iter()
            .map(|def| {
                let value = match (self.0.remove(def.name), def.bound) {
                    (Some(value), _) => value,
                    (None, None) => 0.0,
                    (None, Some(_)) => panic!("end-to-end metric {} was not measured", def.name),
                };
                (def.name.to_owned(), MetricValue { value, unit: def.unit.to_owned() })
            })
            .collect();
        assert!(self.0.is_empty(), "metrics outside the catalog: {:?}", self.0.keys());
        out
    }

    pub fn finish_end_to_end(self) -> BTreeMap<String, MetricValue> {
        self.finish(&END_TO_END)
    }

    pub fn finish_per_layer(self) -> BTreeMap<String, MetricValue> {
        self.finish(PER_LAYER)
    }
}

/// FNV-1a over `bytes`, continuing from `state` (start from
/// [`DIGEST_SEED`]).
pub fn digest(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut metrics = Metrics::default();
        for def in &END_TO_END {
            metrics.set(def.name, 1.25);
        }
        let record = RunRecord {
            workload: "sim_fat8".into(),
            seed: 42,
            seconds: 0.5,
            traced: false,
            smoke: true,
            env: Environment::capture(),
            passes: 3,
            setups: 3,
            output_digest: format!("{:016x}", digest(DIGEST_SEED, b"abc")),
            failures: vec!["a \"quoted\" failure".into()],
            samples: BTreeMap::from([("setup_s".to_owned(), vec![0.5, 0.25])]),
            result: ResultLine {
                correct: false,
                attempted: 10,
                failed: 1,
                metrics: metrics.finish_end_to_end(),
            },
        };
        let text = serde_json::to_string(&record).unwrap();
        assert_eq!(serde_json::from_str::<RunRecord>(&text).unwrap(), record);
        let line = serde_json::to_string(&record.result).unwrap();
        assert!(line.starts_with(r#"{"correct":false,"attempted":10,"failed":1,"metrics":{"#));
        assert!(!line.contains('\n'));
        assert_eq!(record.env.deps, "standins");
        assert!(record.env.nproc >= 1);
    }

    #[test]
    fn unset_per_layer_metrics_read_zero() {
        let mut metrics = Metrics::default();
        metrics.set("stats.sampler_ns", 12.5);
        let out = metrics.finish_per_layer();
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out["stats.sampler_ns"].value, 12.5);
        assert_eq!(out["core.aggregate_ms"].value, 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the catalog")]
    fn unknown_metric_names_are_refused() {
        let mut metrics = Metrics::default();
        metrics.set("no.such.metric", 1.0);
        metrics.finish_per_layer();
    }

    #[test]
    fn digest_depends_on_every_byte_and_chains() {
        let whole = digest(DIGEST_SEED, b"hello world");
        assert_eq!(digest(digest(DIGEST_SEED, b"hello "), b"world"), whole);
        assert_ne!(digest(DIGEST_SEED, b"hello worle"), whole);
    }
}
