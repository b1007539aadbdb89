//! # sparseopt
//!
//! An adaptive, bottleneck-classifying SpMV optimizer — a from-scratch Rust
//! reproduction of Elafrou, Goumas & Koziris, *"Performance Analysis and
//! Optimization of Sparse Matrix-Vector Multiplication on Modern Multi- and
//! Many-Core Processors"* (ICPP 2017).
//!
//! This facade crate re-exports the whole stack:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `sparseopt-core` | formats (CSR, delta-CSR, SELL-C-σ, decomposed CSR, symmetric SSS), the format-erased `SparseLinOp` operator layer, partitioners, schedulers, thread pool |
//! | [`matrix`] | `sparseopt-matrix` | synthetic generators, the paper's evaluation/training suites, Matrix Market I/O, Table I features |
//! | [`sim`] | `sparseopt-sim` | Table III platform models, cache simulator, the SpMV/SpMM execution-time model (`simulate` with `k` right-hand sides), STREAM micro-benchmark |
//! | [`ml`] | `sparseopt-ml` | multilabel CART decision tree, metrics, cross-validation, grid search |
//! | [`classifier`] | `sparseopt-classifier` | bottleneck classes, per-class bounds, profile-/feature-guided classifiers |
//! | [`optimizer`] | `sparseopt-optimizer` | Table II optimization pool, adaptive/trivial/oracle optimizers, amortization |
//! | [`solver`] | `sparseopt-solver` | CG, BiCGSTAB, BiCG, GMRES(m), LSQR/CGNR least squares, block CG / batched BiCGSTAB over the multi-vector path, Jacobi / symmetric Gauss-Seidel / IC(0) / ILU(0) preconditioning |
//! | [`serve`] | `sparseopt-serve` | multi-tenant serving layer: tuned matrix registration, request coalescing into SpMM batches, per-tenant load shedding, latency/throughput stats |
//!
//! The crate-by-crate architecture, including how a serving request flows
//! through the stack, is documented in `docs/ARCHITECTURE.md`.
//!
//! ## Quick start
//!
//! ```
//! use sparseopt::prelude::*;
//! use std::sync::Arc;
//!
//! // Build a sparse matrix (7-point Poisson stencil).
//! let csr = Arc::new(CsrMatrix::from_coo(&sparseopt::matrix::generators::poisson3d(8, 8, 8)));
//!
//! // Let the adaptive optimizer pick and build the right kernel.
//! let ctx = ExecCtx::new(2);
//! let optimizer = AdaptiveOptimizer::new(ctx);
//! let profiler = SimBoundsProfiler::new(Platform::knl());
//! let optimized = optimizer.optimize_profiled(&csr, &profiler);
//!
//! // Use it like any SpMV kernel.
//! let x = vec![1.0; csr.ncols()];
//! let mut y = vec![0.0; csr.nrows()];
//! optimized.kernel.spmv(&x, &mut y);
//! assert!(y.iter().all(|v| v.is_finite()));
//! ```

pub use sparseopt_classifier as classifier;
pub use sparseopt_core as core;
pub use sparseopt_matrix as matrix;
pub use sparseopt_ml as ml;
pub use sparseopt_optimizer as optimizer;
pub use sparseopt_serve as serve;
pub use sparseopt_sim as sim;
pub use sparseopt_solver as solver;

/// The types most applications need.
pub mod prelude {
    pub use sparseopt_classifier::{
        Bottleneck, BoundsProfiler, ClassSet, FeatureGuidedClassifier, HostBoundsProfiler,
        PerClassBounds, ProfileGuidedClassifier, SimBoundsProfiler,
    };
    pub use sparseopt_core::prelude::*;
    pub use sparseopt_matrix::{FeatureSet, MatrixFeatures, MatrixFingerprint, SuiteMatrix};
    pub use sparseopt_optimizer::{
        AdaptiveOptimizer, OpRequirements, Optimization, OptimizationPlan, PlanCache, PlanTuner,
        SimOptimizerStudy, TuneBudget, TuneOutcome, TunedKernel,
    };
    pub use sparseopt_serve::{Reply, ServeConfig, ServeError, SpmvServer, StatsSnapshot, Ticket};
    pub use sparseopt_sim::Platform;
    pub use sparseopt_solver::{
        bicg, bicgstab, bicgstab_multi, block_cg, cg, cgnr, gmres, ic0, ilu0, lsqr,
        BlockSolveOutcome, Ic0Precond, IdentityPrecond, Ilu0Precond, JacobiPrecond, NormalOp,
        PrecondError, Preconditioner, SolveOutcome, SolverOptions, SymGsPrecond,
    };
}
