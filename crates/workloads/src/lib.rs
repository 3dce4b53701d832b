//! FunctionBench-equivalent workload substrate for FaaSRail.
//!
//! The paper builds its Workload pool from ten open-source FunctionBench
//! benchmarks (Table 1), augmented over many inputs into ~2300 distinct
//! Workloads whose warm execution times span the whole trace distribution
//! (§3.1.1). This crate reimplements that substrate natively:
//!
//! * [`registry`] — the ten benchmark kinds and their metadata;
//! * [`kernels`] — executable native kernels doing the same kind of work
//!   (HTML rendering, CNN inference, AES, matmul, …), deterministic and
//!   bounded-memory;
//! * [`input`] — `(function, input)` specifications and their work units;
//! * [`cost_model`] — analytic warm-execution-time model (calibratable);
//! * [`calibrate`] — measuring real warm times and refitting the model;
//! * [`pool`] — the augmented Workload pool (2291 entries at paper scale).

pub mod calibrate;
pub mod cost_model;
pub mod input;
pub mod kernels;
pub mod pool;
pub mod registry;

pub use cost_model::{CostModel, KindCost};
pub use input::WorkloadInput;
pub use pool::{RuntimeEntry, RuntimeIndex, Workload, WorkloadId, WorkloadPool};
pub use registry::{ResourceProfile, Suite, WorkloadKind};
