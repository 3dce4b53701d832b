//! Statistical substrate for FaaSRail.
//!
//! This crate implements, from scratch, every statistical primitive that the
//! FaaSRail methodology (HPDC '24) relies on:
//!
//! * [`Ecdf`] / [`WeightedEcdf`] — empirical cumulative distribution functions
//!   with inverse-CDF evaluation via linear interpolation, the core of the
//!   Smirnov-transform execution mode (paper §3.2.2);
//! * [`sampler`] — parametric samplers (exponential, Poisson, log-normal,
//!   Zipf, Pareto, Weibull) used both to synthesize trace-like data and to
//!   model sub-minute inter-arrival times (paper §3.2.1.3);
//! * [`distance`] — Kolmogorov–Smirnov and Wasserstein-1 distances used by the
//!   evaluation harness to quantify how close generated load tracks a trace;
//! * [`Summary`] — numerically stable streaming moments (Welford), including
//!   the coefficient of variation used for day selection (paper Fig. 3);
//! * [`timeseries`] — per-minute series manipulation: the Thumbnails rebinning
//!   (paper §3.2.1.2) and the largest-remainder apportionment used by request
//!   rate scaling (paper §3.2.1.1);
//! * [`histogram`] — linear and log-bucketed histograms (the latter doubles as
//!   the load generator's latency recorder);
//! * [`rng`] — the workspace's one seeded generator (splitmix64-seeded
//!   xoshiro256++) and the draws defined on it.
//!
//! All randomness flows through caller-provided [`Rng`] instances so that
//! every consumer of this crate is deterministic under a fixed seed.

pub mod distance;
pub mod ecdf;
pub mod histogram;
pub mod rng;
pub mod sampler;
pub mod special;
pub mod summary;
pub mod timeseries;

pub use distance::{ks_distance, ks_distance_weighted, wasserstein1};
pub use ecdf::{Ecdf, WeightedEcdf};
pub use histogram::{LinearHistogram, LogHistogram};
pub use rng::{seeded_rng, Rng};
pub use summary::{percentile_sorted, Summary};
