//! Sparse operator kernels: the baseline CSR kernel (paper Fig. 2), its
//! optimized variants (Table II), the operators the optimizer's plans build
//! over the other storage formats, and the micro-benchmark kernels used by
//! the per-class performance bounds (Section III-B).
//!
//! There is **one operator type per format a plan builds** (CSR,
//! merge-path CSR, decomposed CSR, SELL-C-σ), each implementing the
//! format-erased [`SparseLinOp`] trait over the full
//! `{NoTrans, Trans} × {vector, multi-vector}` application space.
//! Operators are built once per matrix (paying any preprocessing cost up
//! front, which the amortization analysis of Table V charges) and then
//! applied repeatedly via [`SparseLinOp::apply`] / [`SparseLinOp::apply_multi`]
//! or the [`SparseLinOp::spmv`] / [`SparseLinOp::spmm`] conveniences.

mod csr;
mod decomposed;
mod linop;
mod merge;
mod microbench;
mod rowprim;
mod sell;
mod sharded;
mod symgs;
pub(crate) mod transpose;
mod trsv;

pub use csr::{CsrKernelConfig, ParallelCsr, SerialCsr};
pub use decomposed::DecomposedKernel;
pub(crate) use linop::{check_apply_multi_operands, check_apply_operands};
pub use linop::{Apply, OpCapabilities, SparseLinOp};
pub use merge::MergeCsr;
pub use microbench::{regularize_colind, UnitStrideCsr};
pub use rowprim::{row_dot, InnerLoop, SPMM_COL_TILE};
pub use sell::SellKernel;
pub use sharded::{
    peak_resident_shard_bytes, reset_peak_resident_shard_bytes, resident_shard_bytes, BuildReason,
    ShardBuildFn, ShardLoadFn, ShardSpec, ShardedOp,
};
pub use symgs::{SymGsError, SymGsKernel};
pub use trsv::{LevelSets, TrsvAlgo, TrsvDirection, TrsvError, TrsvKernel};

/// Computes Gflop/s from a flop count and a duration in seconds.
pub fn gflops(flops: f64, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        flops / secs / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_math() {
        assert_eq!(gflops(2e9, 1.0), 2.0);
        assert_eq!(gflops(1.0, 0.0), 0.0);
    }
}
