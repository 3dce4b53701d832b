//! The cluster's mutable state, kept indexed for the balancer.
//!
//! A balancer runs once per arrival, so nothing it needs may cost a pass
//! over the nodes. [`ClusterIndex`] *is* the cluster state — per-node
//! memory, cores and queue, and the idle sandboxes — laid out so the two
//! questions a balancer asks are already answered: "which nodes are warm
//! for this workload" (a short per-workload list that also stores the
//! sandboxes) and "which node is least loaded" (the root of a
//! min-tournament). Every mutation goes through a method here, so the
//! answers cannot go stale; [`ClusterIndex::audit`] recomputes them from
//! scratch in debug builds. DESIGN.md §9 has the layout and the reasons.

use crate::cluster::ClusterConfig;
use crate::keepalive::IdleSandbox;
use crate::scheduler::NodeView;
use faasrail_workloads::WorkloadId;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Sandbox {
    pub workload: WorkloadId,
    pub memory_mb: f64,
    pub last_used_us: u64,
    pub init_cost_ms: f64,
    pub uses: u64,
    pub stamp: u64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedReq {
    /// Arrival sequence number (0-based, schedule order) — the span `seq`.
    pub arrival_seq: u64,
    /// Originating Function, carried through for the span.
    pub function_index: u32,
    pub arrived_us: u64,
    pub workload: WorkloadId,
}

pub(crate) struct Node {
    pub free_memory_mb: f64,
    pub busy_cores: usize,
    pub queue: VecDeque<QueuedReq>,
}

/// Min-tournament over `load << 32 | node`: the root names the least
/// loaded node, lowest index on ties — what `min_by_key` over a node slice
/// returns. Leaves are padded to a power of two with `u64::MAX`.
struct Tournament {
    /// `tree[1]` is the root, `tree[leaves + node]` a node's key.
    tree: Vec<u64>,
    leaves: usize,
}

impl Tournament {
    fn key_of(load: usize, node: usize) -> u64 {
        (load as u64) << 32 | node as u64
    }

    fn node_of(key: u64) -> usize {
        (key & 0xFFFF_FFFF) as usize
    }

    fn new(nodes: usize) -> Self {
        let leaves = nodes.next_power_of_two();
        let mut tree = vec![u64::MAX; 2 * leaves];
        for node in 0..nodes {
            tree[leaves + node] = Self::key_of(0, node);
        }
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
        Tournament { tree, leaves }
    }

    fn key(&self, node: usize) -> u64 {
        self.tree[self.leaves + node]
    }

    fn min_node(&self) -> usize {
        Self::node_of(self.tree[1])
    }

    /// Set `node`'s load and recompute its log₂(leaves) ancestors. All of
    /// them, without stopping at the first the change does not reach: that
    /// exit is a coin flip per level, and its mispredictions cost more than
    /// the levels it saves (measured from 8 to 1 024 nodes).
    fn set(&mut self, node: usize, load: usize) {
        let mut i = self.leaves + node;
        let key = Self::key_of(load, node);
        if self.tree[i] == key {
            return;
        }
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }
}

/// One workload's warm list: `(node, its idle sandboxes)`.
type WarmList = Vec<(u32, Vec<Sandbox>)>;

/// Where `node`'s entry sits in a warm list: a linear search, the lists
/// being as short as the workload's warm set.
fn entry_of(warm: &WarmList, node: usize) -> Option<usize> {
    warm.iter().position(|e| e.0 as usize == node)
}

/// Cluster state as a load balancer sees it: see
/// [`LoadBalancer::pick`](crate::LoadBalancer::pick).
pub struct ClusterIndex {
    cluster: ClusterConfig,
    nodes: Vec<Node>,
    /// Requests queued across all nodes.
    queued_total: u64,
    /// Per workload, the nodes holding idle sandboxes for it, each with
    /// those sandboxes (never empty: an entry is pruned with its last
    /// sandbox). This is the warm set *and* the sandbox storage.
    warm: Vec<WarmList>,
    /// The same relation read the other way, for the paths that walk one
    /// node (eviction, crash): `row_words` words per node, bit `w` set when
    /// `warm[w]` has an entry for the node.
    warm_on: Vec<u64>,
    row_words: usize,
    /// Emptied sandbox vectors awaiting reuse, so that a sandbox going
    /// idle again allocates nothing.
    spare: Vec<Vec<Sandbox>>,
    /// Keyed by `busy_cores + queue.len()`.
    loads: Tournament,
}

impl ClusterIndex {
    pub(crate) fn new(cluster: &ClusterConfig, workloads: usize) -> Self {
        ClusterIndex {
            cluster: *cluster,
            nodes: (0..cluster.nodes)
                .map(|_| Node {
                    free_memory_mb: cluster.memory_mb_per_node,
                    busy_cores: 0,
                    queue: VecDeque::new(),
                })
                .collect(),
            queued_total: 0,
            warm: vec![Vec::new(); workloads],
            warm_on: vec![0; cluster.nodes * workloads.div_ceil(64)],
            row_words: workloads.div_ceil(64),
            spare: Vec::new(),
            loads: Tournament::new(cluster.nodes),
        }
    }

    /// Nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node with the least outstanding work (running + queued), lowest
    /// index on ties.
    pub fn least_loaded(&self) -> usize {
        self.loads.min_node()
    }

    /// Among the nodes holding an idle sandbox for `workload`, the one with
    /// the least outstanding work, lowest index on ties.
    pub fn least_loaded_warm(&self, workload: WorkloadId) -> Option<usize> {
        let warm = &self.warm[workload.0 as usize];
        warm.iter().map(|&(n, _)| self.loads.key(n as usize)).min().map(Tournament::node_of)
    }

    /// The cluster as a slice-based balancer sees it: one view per node.
    /// O(nodes) and an allocation per call — the portable path, not the
    /// fast one.
    pub fn node_views(&self, workload: WorkloadId) -> Vec<NodeView> {
        let mut views: Vec<NodeView> = self
            .nodes
            .iter()
            .map(|n| NodeView {
                warm_for_workload: 0,
                free_memory_mb: n.free_memory_mb,
                running: n.busy_cores,
                queued: n.queue.len(),
                cores: self.cluster.cores_per_node,
            })
            .collect();
        for (node, idle) in &self.warm[workload.0 as usize] {
            views[*node as usize].warm_for_workload = idle.len();
        }
        views
    }

    pub(crate) fn node(&self, node: usize) -> &Node {
        &self.nodes[node]
    }

    pub(crate) fn queued_total(&self) -> u64 {
        self.queued_total
    }

    /// The one way to change a node: whatever `f` does to its cores and
    /// queue, the queued total and the tournament follow.
    pub(crate) fn update<R>(&mut self, node: usize, f: impl FnOnce(&mut Node) -> R) -> R {
        let n = &mut self.nodes[node];
        let queued = n.queue.len();
        let result = f(n);
        self.queued_total = self.queued_total + n.queue.len() as u64 - queued as u64;
        self.loads.set(node, n.busy_cores + n.queue.len());
        result
    }

    /// Idle sandboxes for `workload` on `node`, oldest push first.
    pub(crate) fn idle(&self, workload: WorkloadId, node: usize) -> &[Sandbox] {
        let warm = &self.warm[workload.0 as usize];
        entry_of(warm, node).map_or(&[], |at| warm[at].1.as_slice())
    }

    /// Park `s` as idle on `node`.
    pub(crate) fn push_idle(&mut self, node: usize, s: Sandbox) {
        let (word, mask) = self.bit(node, s.workload);
        let warm = &mut self.warm[s.workload.0 as usize];
        match entry_of(warm, node) {
            Some(at) => warm[at].1.push(s),
            None => {
                let mut idle = self.spare.pop().unwrap_or_default();
                idle.push(s);
                warm.push((node as u32, idle));
                self.warm_on[word] |= mask;
            }
        }
    }

    /// Take an idle sandbox for `workload` off `node`: the one at `pos`
    /// (by `swap_remove`), or the most recently parked when `None`.
    pub(crate) fn take_idle(
        &mut self,
        workload: WorkloadId,
        node: usize,
        pos: Option<usize>,
    ) -> Option<Sandbox> {
        let (word, mask) = self.bit(node, workload);
        let warm = &mut self.warm[workload.0 as usize];
        let at = entry_of(warm, node)?;
        let idle = &mut warm[at].1;
        let s = match pos {
            Some(pos) => idle.swap_remove(pos),
            None => idle.pop().expect("warm entries are never empty"),
        };
        if idle.is_empty() {
            self.spare.push(warm.swap_remove(at).1);
            self.warm_on[word] &= !mask;
        }
        Some(s)
    }

    /// The word of `warm_on`, and the bit in it, for `workload` on `node`.
    fn bit(&self, node: usize, workload: WorkloadId) -> (usize, u64) {
        let w = workload.0 as usize;
        (node * self.row_words + w / 64, 1 << (w % 64))
    }

    /// Workloads with an idle sandbox on `node`, ascending.
    fn workloads_on(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.warm_on[node * self.row_words..][..self.row_words];
        row.iter().enumerate().flat_map(|(i, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    64 * i + bit
                })
            })
        })
    }

    /// `node`'s idle sandboxes in workload order, oldest push first within
    /// a workload — the order a keep-alive policy's victim index refers to.
    pub(crate) fn idle_on(&self, node: usize) -> impl Iterator<Item = &Sandbox> {
        self.workloads_on(node).flat_map(move |w| self.idle(WorkloadId(w as u32), node))
    }

    /// Fill `view` (cleared first) with what [`idle_on`](Self::idle_on)
    /// yields, and `at` with each sandbox's position among its workload's.
    pub(crate) fn idle_view(&self, node: usize, view: &mut Vec<IdleSandbox>, at: &mut Vec<usize>) {
        view.clear();
        at.clear();
        for s in self.idle_on(node) {
            let first_of_workload = view.last().is_none_or(|prev| prev.workload != s.workload);
            at.push(if first_of_workload { 0 } else { at[at.len() - 1] + 1 });
            view.push(IdleSandbox {
                workload: s.workload,
                memory_mb: s.memory_mb,
                last_used_ms: s.last_used_us / 1_000,
                init_cost_ms: s.init_cost_ms,
                uses: s.uses,
            });
        }
    }

    /// `node` died: cores, queue and memory reset, every idle sandbox
    /// handed to `lost` in [`idle_on`](Self::idle_on) order. Returns how
    /// many requests were queued.
    pub(crate) fn crash(&mut self, node: usize, mut lost: impl FnMut(Sandbox)) -> u64 {
        let workloads: Vec<usize> = self.workloads_on(node).collect();
        for w in workloads {
            let at = entry_of(&self.warm[w], node).expect("a set bit has its warm entry");
            let mut idle = self.warm[w].swap_remove(at).1;
            idle.drain(..).for_each(&mut lost);
            self.spare.push(idle);
        }
        self.warm_on[node * self.row_words..][..self.row_words].fill(0);
        let memory = self.cluster.memory_mb_per_node;
        self.update(node, |n| {
            n.free_memory_mb = memory;
            n.busy_cores = 0;
            n.queue.drain(..).count() as u64
        })
    }

    /// Recompute from scratch everything the index maintains incrementally.
    /// `running_mb[node]` is the memory of the sandboxes executing there.
    pub(crate) fn audit(&self, running_mb: &[f64]) {
        for (w, warm) in self.warm.iter().enumerate() {
            for (i, (node, idle)) in warm.iter().enumerate() {
                assert!(!idle.is_empty(), "empty warm entry for workload {w} on node {node}");
                assert!(idle.iter().all(|s| s.workload.0 as usize == w));
                assert!(
                    warm[..i].iter().all(|e| e.0 != *node),
                    "duplicate warm entry ({w}, {node})"
                );
                let (word, mask) = self.bit(*node as usize, WorkloadId(w as u32));
                assert!(self.warm_on[word] & mask != 0, "no bit for warm entry ({w}, {node})");
            }
        }
        assert_eq!(
            self.warm_on.iter().map(|word| word.count_ones() as usize).sum::<usize>(),
            self.warm.iter().map(Vec::len).sum::<usize>(),
            "a bit without a warm entry"
        );
        let load = |n: &Node| n.busy_cores + n.queue.len();
        let least = (0..self.nodes.len()).min_by_key(|&i| load(&self.nodes[i])).expect("non-empty");
        assert_eq!(self.least_loaded(), least, "tournament root");
        assert_eq!(self.queued_total, self.nodes.iter().map(|n| n.queue.len() as u64).sum::<u64>());
        let mut held = running_mb.to_vec();
        for (node, idle) in self.warm.iter().flatten() {
            held[*node as usize] += idle.iter().map(|s| s.memory_mb).sum::<f64>();
        }
        for (i, n) in self.nodes.iter().enumerate() {
            assert_eq!(self.loads.key(i), Tournament::key_of(load(n), i), "leaf of node {i}");
            let total = self.cluster.memory_mb_per_node;
            assert!(
                (n.free_memory_mb + held[i] - total).abs() <= 1e-6 * total,
                "node {i}: free {} + held {} != {total}",
                n.free_memory_mb,
                held[i]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scan the tournament replaces.
    fn first_minimum(loads: &[usize]) -> usize {
        (0..loads.len()).min_by_key(|&i| loads[i]).expect("non-empty")
    }

    #[test]
    fn tournament_root_is_the_first_minimum() {
        for nodes in [1usize, 3, 5, 256] {
            let mut t = Tournament::new(nodes);
            assert_eq!(t.tree.len(), 2 * nodes.next_power_of_two());
            assert!(t.tree[t.leaves + nodes..].iter().all(|&k| k == u64::MAX), "padding");
            let mut loads = vec![0usize; nodes];
            assert_eq!(t.min_node(), 0, "all idle: lowest index wins the tie");
            // A deterministic walk over nodes and loads, ties included.
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..4_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (node, load) = ((x >> 32) as usize % nodes, (x & 3) as usize);
                loads[node] = load;
                t.set(node, load);
                assert_eq!(t.min_node(), first_minimum(&loads), "{nodes} nodes: {loads:?}");
            }
            // Load every node, then crash the last one: load 0 wins at once.
            for node in 0..nodes {
                t.set(node, 7);
            }
            assert_eq!(t.min_node(), 0);
            t.set(nodes - 1, 0);
            assert_eq!(t.min_node(), nodes - 1);
        }
    }

    #[test]
    #[should_panic(expected = "tournament root")]
    fn audit_catches_a_node_changed_behind_the_index() {
        let mut idx = ClusterIndex::new(&ClusterConfig::default(), 1);
        idx.nodes[0].busy_cores = 3;
        idx.audit(&[0.0; 4]);
    }

    fn sandbox(workload: u32, stamp: u64) -> Sandbox {
        Sandbox {
            workload: WorkloadId(workload),
            memory_mb: 100.0,
            last_used_us: 0,
            init_cost_ms: 300.0,
            uses: 1,
            stamp,
        }
    }

    fn req(workload: u32) -> QueuedReq {
        QueuedReq {
            arrival_seq: 0,
            function_index: 0,
            arrived_us: 0,
            workload: WorkloadId(workload),
        }
    }

    /// Drive every mutation directly and audit after each.
    #[test]
    fn index_survives_its_own_audit() {
        let cluster = ClusterConfig { nodes: 5, cores_per_node: 2, ..Default::default() };
        let mut idx = ClusterIndex::new(&cluster, 4);
        let mut running_mb = vec![0.0; 5];
        idx.audit(&running_mb);
        assert_eq!((idx.least_loaded(), idx.least_loaded_warm(WorkloadId(2))), (0, None));

        // Cold start on node 0, then the sandbox idles there.
        idx.update(0, |n| {
            n.free_memory_mb -= 100.0;
            n.busy_cores += 1;
        });
        running_mb[0] = 100.0;
        idx.audit(&running_mb);
        assert_eq!(idx.least_loaded(), 1);
        idx.update(0, |n| n.busy_cores -= 1);
        running_mb[0] = 0.0;
        idx.push_idle(0, sandbox(2, 1));
        idx.push_idle(0, sandbox(2, 2));
        idx.push_idle(3, sandbox(2, 3));
        idx.push_idle(3, sandbox(1, 4));
        idx.update(0, |n| n.free_memory_mb -= 100.0);
        idx.update(3, |n| n.free_memory_mb -= 200.0);
        idx.audit(&running_mb);

        // Warm set: ties go to the lowest node, load moves the choice.
        assert_eq!(idx.least_loaded_warm(WorkloadId(2)), Some(0));
        idx.update(0, |n| n.queue.push_back(req(0)));
        assert_eq!(idx.queued_total(), 1);
        assert_eq!(idx.least_loaded_warm(WorkloadId(2)), Some(3));
        assert_eq!(idx.least_loaded(), 1);
        let views = idx.node_views(WorkloadId(2));
        assert_eq!(views.iter().map(|v| v.warm_for_workload).collect::<Vec<_>>(), [2, 0, 0, 1, 0]);
        assert_eq!((views[0].queued, views[0].running, views[0].cores), (1, 0, 2));
        idx.audit(&running_mb);

        // The eviction view is workload-major; positions index the bucket.
        let (mut view, mut at) = (Vec::new(), Vec::new());
        idx.idle_view(3, &mut view, &mut at);
        assert_eq!(view.iter().map(|s| s.workload.0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(at, [0, 0]);
        idx.idle_view(0, &mut view, &mut at);
        assert_eq!(at, [0, 1]);

        // LIFO reuse, positional eviction, pruning.
        assert_eq!(idx.take_idle(WorkloadId(2), 0, None).map(|s| s.stamp), Some(2));
        assert_eq!(idx.take_idle(WorkloadId(2), 0, Some(0)).map(|s| s.stamp), Some(1));
        assert!(idx.take_idle(WorkloadId(2), 0, None).is_none());
        assert!(idx.idle(WorkloadId(2), 0).is_empty());
        idx.update(0, |n| n.free_memory_mb += 200.0);
        idx.audit(&running_mb);
        assert_eq!(idx.idle_on(3).map(|s| s.stamp).collect::<Vec<_>>(), [4, 3]);

        // Crash: queue, cores and warm state gone, load back to zero.
        idx.update(3, |n| n.queue.push_back(req(1)));
        let mut lost = Vec::new();
        assert_eq!(idx.crash(3, |s| lost.push(s.stamp)), 1);
        assert_eq!(lost, [4, 3]);
        assert_eq!(idx.queued_total(), 1);
        idx.audit(&running_mb);
        assert_eq!((0..5).flat_map(|node| idx.idle_on(node)).count(), 0);
    }
}
