//! Cluster and cold-start models.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Cold-start cost model: sandbox creation time as a function of the
/// workload's memory footprint (bigger runtimes take longer to initialize,
/// as reported across the snapshotting literature the paper cites).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColdStartModel {
    /// Fixed sandbox creation cost, ms.
    pub base_ms: f64,
    /// Additional cost per 100 MiB of workload memory, ms.
    pub per_100mb_ms: f64,
}

impl Default for ColdStartModel {
    fn default() -> Self {
        // Container-class cold starts: ~250 ms base + memory loading.
        ColdStartModel { base_ms: 250.0, per_100mb_ms: 50.0 }
    }
}

impl ColdStartModel {
    /// Cold-start delay for a workload of `memory_mb`.
    pub fn delay_ms(&self, memory_mb: f64) -> f64 {
        self.base_ms + self.per_100mb_ms * memory_mb / 100.0
    }

    /// A microVM-snapshot-class model (the fast end of the literature).
    pub fn snapshot() -> Self {
        ColdStartModel { base_ms: 10.0, per_100mb_ms: 5.0 }
    }
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    pub nodes: usize,
    /// Concurrent invocations a node can run (one per core).
    pub cores_per_node: usize,
    /// Memory available for sandboxes per node, MiB.
    pub memory_mb_per_node: f64,
    pub cold_start: ColdStartModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // A small research cluster: 4 nodes × 16 cores × 32 GiB.
        ClusterConfig {
            nodes: 4,
            cores_per_node: 16,
            memory_mb_per_node: 32_768.0,
            cold_start: ColdStartModel::default(),
        }
    }
}

impl ClusterConfig {
    /// Single-node configuration.
    pub fn single_node(cores: usize, memory_mb: f64) -> Self {
        ClusterConfig {
            nodes: 1,
            cores_per_node: cores,
            memory_mb_per_node: memory_mb,
            cold_start: ColdStartModel::default(),
        }
    }

    /// Validate the configuration: at least one node of at least one core,
    /// and a finite, positive memory per node.
    pub fn validate(&self) -> Result<(), Refused> {
        if self.nodes == 0 {
            return Err(Refused { field: "nodes", why: "must be at least 1" });
        }
        if self.cores_per_node == 0 {
            return Err(Refused { field: "cores_per_node", why: "must be at least 1" });
        }
        if !(self.memory_mb_per_node.is_finite() && self.memory_mb_per_node > 0.0) {
            return Err(Refused { field: "memory_mb_per_node", why: "must be finite and above 0" });
        }
        Ok(())
    }
}

/// A configuration value the simulator refuses: the field that holds it,
/// and the rule it breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused {
    pub field: &'static str,
    pub why: &'static str,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.field, self.why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_scales_with_memory() {
        let m = ColdStartModel::default();
        assert!((m.delay_ms(100.0) - 300.0).abs() < 1e-9);
        assert!(m.delay_ms(1_000.0) > m.delay_ms(100.0));
        assert!(ColdStartModel::snapshot().delay_ms(100.0) < m.delay_ms(100.0));
    }

    #[test]
    fn validation() {
        assert!(ClusterConfig::default().validate().is_ok());
        assert!(ClusterConfig { nodes: 0, ..Default::default() }.validate().is_err());
        assert!(ClusterConfig { cores_per_node: 0, ..Default::default() }.validate().is_err());
        assert!(ClusterConfig { memory_mb_per_node: 0.0, ..Default::default() }
            .validate()
            .is_err());
        for memory_mb_per_node in [f64::NAN, f64::INFINITY, -1.0] {
            let refused = ClusterConfig { memory_mb_per_node, ..Default::default() }.validate();
            assert_eq!(refused.unwrap_err().field, "memory_mb_per_node", "{memory_mb_per_node}");
        }
    }
}
