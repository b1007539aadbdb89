//! # sparseopt-core
//!
//! Sparse matrix storage formats, SpMV kernels, and the parallel execution
//! substrate (thread pool, partitioners, loop schedules) underlying the
//! `sparseopt` adaptive SpMV optimizer — a reproduction of Elafrou, Goumas &
//! Koziris, *"Performance Analysis and Optimization of Sparse Matrix-Vector
//! Multiplication on Modern Multi- and Many-Core Processors"* (ICPP 2017).
//!
//! ## Layout
//!
//! - [`coo`] / [`csr`] — interchange and baseline compute formats.
//! - [`delta`] — delta-compressed column indices (MB optimization; the
//!   simulator prices its index stream, the host runs no delta kernel).
//! - [`decomposed`] — long-row decomposition (IMB optimization, Fig. 5/6).
//! - [`sell`] — SELL-C-σ sliced ELLPACK (CMP optimization): stride-1
//!   vector lanes over σ-sorted, chunk-padded rows.
//! - [`kernels`] — the format-erased operator layer: one
//!   [`kernels::SparseLinOp`] implementation per storage format, each
//!   covering the `{NoTrans, Trans} × {vector, multi-vector}` application
//!   space (Fig. 2 baseline, Table II optimizations, Section III-B
//!   micro-benchmarks), plus the merge-path nonzero-split
//!   [`kernels::MergeCsr`] operator for residually imbalanced matrices.
//! - [`sss`] — symmetric sparse skyline storage (lower triangle + dense
//!   diagonal): the layout [`kernels::SymGsKernel`] sweeps, and the
//!   halved SpMV stream the simulator prices for symmetric matrices.
//! - [`multivec`] — dense row-major multi-vector (`X ∈ R^{n×k}`) backing the
//!   multiple-right-hand-side workload; each fetched nonzero is reused `k`
//!   times, amortizing the matrix stream.
//! - [`partition`] / [`schedule`] / [`pool`] — whole-row and merge-path
//!   (nonzero-split) partitioning, loop scheduling policies, and the timed
//!   thread pool.
//!
//! ## Quick start
//!
//! ```
//! use sparseopt_core::prelude::*;
//! use std::sync::Arc;
//!
//! let mut coo = CooMatrix::new(4, 4);
//! for i in 0..4 { coo.push(i, i, 2.0); }
//! let csr = Arc::new(CsrMatrix::from_coo(&coo));
//! let kernel = ParallelCsr::baseline(csr, ExecCtx::new(2));
//!
//! let x = vec![1.0; 4];
//! let mut y = vec![0.0; 4];
//! kernel.spmv(&x, &mut y);
//! assert_eq!(y, vec![2.0; 4]);
//! ```

pub mod coo;
pub mod csr;
pub mod decomposed;
pub mod delta;
pub mod kernels;
pub mod multivec;
pub mod partition;
pub mod pool;
pub mod schedule;
pub mod sell;
pub mod sss;
pub mod util;

/// Convenient re-exports of the types used by nearly every consumer.
pub mod prelude {
    pub use crate::coo::CooMatrix;
    pub use crate::csr::CsrMatrix;
    pub use crate::decomposed::DecomposedCsrMatrix;
    pub use crate::delta::{DeltaCsrMatrix, DeltaWidth};
    pub use crate::kernels::{
        gflops, Apply, BuildReason, CsrKernelConfig, DecomposedKernel, InnerLoop, LevelSets,
        MergeCsr, OpCapabilities, ParallelCsr, SellKernel, SerialCsr, ShardSpec, ShardedOp,
        SparseLinOp, SymGsError, SymGsKernel, TrsvAlgo, TrsvDirection, TrsvError, TrsvKernel,
        UnitStrideCsr,
    };
    pub use crate::multivec::MultiVec;
    pub use crate::partition::{MergeSegment, Partition, Partition2d};
    pub use crate::pool::ExecCtx;
    pub use crate::schedule::Schedule;
    pub use crate::sell::{sell_padded_slots, SellMatrix, SELL_C, SELL_SIGMA};
    pub use crate::sss::SssCsr;
}

pub use prelude::*;
