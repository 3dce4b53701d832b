//! Cluster-level load balancers (paper §2.2, "Cluster-level policies").

use crate::index::ClusterIndex;
use faasrail_workloads::WorkloadId;

/// A node's state, as presented to a slice-based load balancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Idle warm sandboxes for the request's workload on this node.
    pub warm_for_workload: usize,
    /// Free sandbox memory, MiB.
    pub free_memory_mb: f64,
    /// Invocations currently executing.
    pub running: usize,
    /// Requests queued on the node.
    pub queued: usize,
    /// Cores on the node.
    pub cores: usize,
}

/// A cluster load balancer.
///
/// To write one, implement [`pick_node`](Self::pick_node): it sees every
/// node and costs O(nodes) per arrival. When the decision can be read off
/// the [`ClusterIndex`] instead, also override [`pick`](Self::pick) — it
/// must choose exactly what `pick_node` would, only faster.
pub trait LoadBalancer: Send {
    /// Pick a node index for the request, given one view per node.
    fn pick_node(&mut self, workload: WorkloadId, nodes: &[NodeView]) -> usize;

    /// Pick a node index for the request. This is what the engine calls,
    /// once per arrival; the default materialises the node views and asks
    /// [`pick_node`](Self::pick_node).
    fn pick(&mut self, workload: WorkloadId, cluster: &ClusterIndex) -> usize {
        self.pick_node(workload, &cluster.node_views(workload))
    }

    /// Balancer name for reports.
    fn name(&self) -> &'static str;
}

/// Round-robin across nodes.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    fn advance(&mut self, nodes: usize) -> usize {
        let n = self.next % nodes;
        self.next = self.next.wrapping_add(1);
        n
    }
}

impl LoadBalancer for RoundRobin {
    fn pick_node(&mut self, _workload: WorkloadId, nodes: &[NodeView]) -> usize {
        self.advance(nodes.len())
    }

    fn pick(&mut self, _workload: WorkloadId, cluster: &ClusterIndex) -> usize {
        self.advance(cluster.node_count())
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Least outstanding work (running + queued).
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LoadBalancer for LeastLoaded {
    fn pick_node(&mut self, _workload: WorkloadId, nodes: &[NodeView]) -> usize {
        nodes
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| n.running + n.queued)
            .map(|(i, _)| i)
            .expect("non-empty cluster")
    }

    fn pick(&mut self, _workload: WorkloadId, cluster: &ClusterIndex) -> usize {
        cluster.least_loaded()
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Prefer a node holding a warm sandbox for the workload (locality /
/// fewer cold starts); fall back to least loaded.
#[derive(Debug, Default)]
pub struct WarmFirst;

impl LoadBalancer for WarmFirst {
    fn pick_node(&mut self, _workload: WorkloadId, nodes: &[NodeView]) -> usize {
        let warm = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.warm_for_workload > 0)
            .min_by_key(|(_, n)| n.running + n.queued)
            .map(|(i, _)| i);
        warm.unwrap_or_else(|| LeastLoaded.pick_node(_workload, nodes))
    }

    fn pick(&mut self, workload: WorkloadId, cluster: &ClusterIndex) -> usize {
        cluster.least_loaded_warm(workload).unwrap_or_else(|| cluster.least_loaded())
    }

    fn name(&self) -> &'static str {
        "warm-first"
    }
}

/// Static workload→node affinity by hashing the workload id — consistent
/// placement concentrates each function's sandboxes (Palette-style locality
/// hints) at the cost of imbalance.
#[derive(Debug, Default)]
pub struct HashAffinity;

impl HashAffinity {
    fn home(workload: WorkloadId, nodes: usize) -> usize {
        // Fibonacci hashing of the id.
        let h = (workload.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % nodes
    }
}

impl LoadBalancer for HashAffinity {
    fn pick_node(&mut self, workload: WorkloadId, nodes: &[NodeView]) -> usize {
        Self::home(workload, nodes.len())
    }

    fn pick(&mut self, workload: WorkloadId, cluster: &ClusterIndex) -> usize {
        Self::home(workload, cluster.node_count())
    }

    fn name(&self) -> &'static str {
        "hash-affinity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(specs: &[(usize, usize, usize)]) -> Vec<NodeView> {
        specs
            .iter()
            .map(|&(warm, running, queued)| NodeView {
                warm_for_workload: warm,
                free_memory_mb: 1_000.0,
                running,
                queued,
                cores: 8,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::default();
        let ns = nodes(&[(0, 0, 0), (0, 0, 0), (0, 0, 0)]);
        let picks: Vec<usize> = (0..6).map(|_| rr.pick_node(WorkloadId(0), &ns)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_picks_min() {
        let mut lb = LeastLoaded;
        let ns = nodes(&[(0, 5, 2), (0, 1, 0), (0, 3, 3)]);
        assert_eq!(lb.pick_node(WorkloadId(0), &ns), 1);
    }

    #[test]
    fn warm_first_prefers_warm_even_if_busier() {
        let mut lb = WarmFirst;
        let ns = nodes(&[(0, 0, 0), (1, 4, 0)]);
        assert_eq!(lb.pick_node(WorkloadId(0), &ns), 1);
        // No warm anywhere → least loaded.
        let ns = nodes(&[(0, 2, 0), (0, 1, 0)]);
        assert_eq!(lb.pick_node(WorkloadId(0), &ns), 1);
    }

    #[test]
    fn hash_affinity_is_stable_and_spread() {
        let mut lb = HashAffinity;
        let ns = nodes(&[(0, 0, 0); 4]);
        let a = lb.pick_node(WorkloadId(42), &ns);
        assert_eq!(a, lb.pick_node(WorkloadId(42), &ns));
        // Different workloads spread across nodes.
        let mut seen: Vec<usize> = (0..64).map(|w| lb.pick_node(WorkloadId(w), &ns)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 3, "hash affinity should use most nodes: {seen:?}");
    }
}
