//! # sparseopt-sim
//!
//! The hardware-substitution substrate: Table III platform descriptors, a
//! set-associative LRU cache simulator, an analytic execution-time model of
//! SpMV and SpMM (`k` right-hand sides), and host STREAM micro-benchmarks.
//!
//! The paper evaluates on Intel KNC, KNL, and Broadwell testbeds that are
//! not available here; `simulate` reproduces the *mechanisms* those results
//! come from (bandwidth saturation, latency-bound irregular gathers, thread
//! imbalance, loop/compute limits) so every figure's shape can be
//! regenerated. See `DESIGN.md` §2 for the substitution argument.

pub mod cache;
pub mod membench;
pub mod model;
pub mod platform;
pub mod trsv;

pub use cache::CacheSim;
pub use membench::{host_platform, stream_triad_gbs};
pub use model::{
    analytic_mb_bound, analytic_peak_bound, simulate, simulate_cmp_bound, simulate_imb_bound,
    simulate_ml_bound, SimFormat, SimKernelConfig, SimMatrixProfile, SimResult,
};
pub use platform::Platform;
pub use trsv::{select_trsv_algo, simulate_trsv, TrsvProfile, LEVEL_SYNC_CYCLES};
