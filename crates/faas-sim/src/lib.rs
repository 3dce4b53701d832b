//! A FaaS cluster substrate for FaaSRail experiments.
//!
//! FaaSRail replays load "against a backend FaaS system"; this crate is that
//! backend, in two flavours over one sandbox lifecycle (`lifecycle.rs`:
//! warm or cold, who is evicted, when an idle sandbox dies — so every
//! keep-alive policy runs on both):
//!
//! * [`engine::simulate`] — a deterministic discrete-event cluster simulator
//!   (nodes, cores, sandbox memory, cold starts, keep-alive policies, load
//!   balancers) measuring cold-start fractions, response times, wasted warm
//!   memory, and utilization — the metrics of the research areas the paper
//!   motivates (§2.2);
//! * [`rt_backend::WarmCacheBackend`] — a wall-clock, kernel-executing
//!   node that plugs into `faasrail-loadgen` for end-to-end runs with real
//!   computation.

pub mod cluster;
pub mod engine;
mod index;
pub mod keepalive;
mod lifecycle;
pub mod metrics;
pub mod registry;
pub mod rt_backend;
pub mod scheduler;

pub use cluster::{ClusterConfig, ColdStartModel};
pub use engine::{simulate, simulate_observed, NodeFault, SimOptions};
pub use index::ClusterIndex;
pub use keepalive::{
    FixedTtl, GreedyDual, HybridHistogram, IdleSandbox, KeepAlivePolicy, LruPolicy,
};
pub use lifecycle::LifecycleStats;
pub use metrics::SimMetrics;
pub use registry::{BalancerKind, PolicyKind};
pub use rt_backend::{WarmCacheBackend, WarmCacheConfig};
pub use scheduler::{HashAffinity, LeastLoaded, LoadBalancer, NodeView, RoundRobin, WarmFirst};
