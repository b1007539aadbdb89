//! The format-erased sparse operator layer.
//!
//! Every storage format in the library exposes exactly one operator type,
//! and every consumer — Krylov solvers, the bounds profilers, the adaptive
//! optimizer, benches — programs against [`SparseLinOp`] instead of a
//! per-format (or per-workload) trait. The trait spans the full application
//! space `{NoTrans, Trans} × {vector, multi-vector}`:
//!
//! | call | computes |
//! |---|---|
//! | `apply(Apply::NoTrans, x, y)` | `y = A·x` |
//! | `apply(Apply::Trans, x, y)` | `y = Aᵀ·x` |
//! | `apply_multi(Apply::NoTrans, X, Y)` | `Y = A·X` |
//! | `apply_multi(Apply::Trans, X, Y)` | `Y = Aᵀ·X` |
//!
//! Transposed application keeps the row-major storage: each thread scatters
//! its row range into a private output-sized scratch buffer and a parallel
//! merge reduces the per-thread partials (see [`crate::kernels::transpose`]'s
//! machinery, shared by every row-major format).

use crate::multivec::MultiVec;
use crate::pool::ExecCtx;
use std::time::Duration;

/// Which operator an application uses: `A` itself or its transpose.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Apply {
    /// Apply the operator as stored: `y = A·x`.
    #[default]
    NoTrans,
    /// Apply the transpose: `y = Aᵀ·x`.
    Trans,
}

impl Apply {
    /// Both application modes, for exhaustive sweeps.
    pub const ALL: [Apply; 2] = [Apply::NoTrans, Apply::Trans];

    /// Short stable label (`"A"` / `"A^T"`).
    pub fn label(self) -> &'static str {
        match self {
            Apply::NoTrans => "A",
            Apply::Trans => "A^T",
        }
    }

    /// `(output_len, input_len)` of this application for an operator of the
    /// given `(nrows, ncols)` shape.
    pub fn out_in(self, shape: (usize, usize)) -> (usize, usize) {
        match self {
            Apply::NoTrans => (shape.0, shape.1),
            Apply::Trans => (shape.1, shape.0),
        }
    }
}

/// What a concrete operator implementation supports. Consumers that need a
/// capability (e.g. a transpose-requiring solver) check this before
/// committing to an operator; the adaptive optimizer threads the same
/// record through its plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCapabilities {
    /// `apply(Apply::Trans, ..)` / `apply_multi(Apply::Trans, ..)` work.
    pub transpose: bool,
    /// `apply_multi` works (all library formats; micro-benchmark kernels
    /// may opt out).
    pub multi_vec: bool,
}

impl OpCapabilities {
    /// The full application space — the default for every storage format.
    pub const fn full() -> Self {
        Self {
            transpose: true,
            multi_vec: true,
        }
    }

    /// Forward-only, single-vector (micro-benchmark kernels).
    pub const fn spmv_only() -> Self {
        Self {
            transpose: false,
            multi_vec: false,
        }
    }

    /// True when `self` offers everything `required` asks for.
    pub fn satisfies(&self, required: &OpCapabilities) -> bool {
        (self.transpose || !required.transpose) && (self.multi_vec || !required.multi_vec)
    }
}

/// A reusable sparse linear operator: the format-erased `y = op(A)·x` /
/// `Y = op(A)·X` kernel every consumer layer programs against.
///
/// Implementations are built once per matrix (paying preprocessing up
/// front, which the amortization analysis of Table V charges) and applied
/// repeatedly. The single-vector entry points are the `k = 1` slice of the
/// multi-vector ones, so an operator's whole behavior is pinned down by
/// `apply_multi`.
///
/// ```
/// use sparseopt_core::prelude::*;
/// use std::sync::Arc;
///
/// let mut coo = CooMatrix::new(2, 3);
/// coo.push(0, 1, 2.0); // A = [0 2 0; 0 0 3]
/// coo.push(1, 2, 3.0);
/// let op = ParallelCsr::baseline(Arc::new(CsrMatrix::from_coo(&coo)), ExecCtx::new(2));
///
/// // y = A·x (lengths follow the operator shape: in = ncols, out = nrows).
/// let mut y = vec![0.0; 2];
/// op.apply(Apply::NoTrans, &[1.0, 1.0, 1.0], &mut y);
/// assert_eq!(y, vec![2.0, 3.0]);
///
/// // z = Aᵀ·y over the same storage — no transposed copy is materialized.
/// let mut z = vec![0.0; 3];
/// op.apply(Apply::Trans, &y, &mut z);
/// assert_eq!(z, vec![0.0, 4.0, 9.0]);
/// assert!(op.capabilities().transpose);
/// ```
pub trait SparseLinOp: Send + Sync {
    /// Human-readable operator identifier, e.g. `csr-parallel[simd+auto]`.
    fn name(&self) -> String;

    /// `(nrows, ncols)` of the stored matrix (`Apply::Trans` swaps them for
    /// operand sizing — see [`Apply::out_in`]).
    fn shape(&self) -> (usize, usize);

    /// Number of stored nonzeros.
    fn nnz(&self) -> usize;

    /// Which applications this operator supports. Formats support the full
    /// space; micro-benchmark kernels may restrict it.
    fn capabilities(&self) -> OpCapabilities {
        OpCapabilities::full()
    }

    /// Computes `y = op(A)·x`.
    ///
    /// # Panics
    /// Panics if the operand lengths disagree with [`Apply::out_in`] of the
    /// operator shape, or if `op` is unsupported per [`Self::capabilities`].
    fn apply(&self, op: Apply, x: &[f64], y: &mut [f64]);

    /// Computes `Y = op(A)·X` for row-major multi-vectors.
    ///
    /// # Panics
    /// Panics on operand shape/width mismatch or an unsupported `op`.
    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec);

    /// Per-thread wall times of the most recent application, if the
    /// operator tracks them (parallel kernels do).
    fn last_thread_times(&self) -> Vec<Duration> {
        Vec::new()
    }

    /// The execution context the operator runs on, if it is a parallel
    /// kernel. Consumers that interleave their own vector work with the
    /// operator's applications (the Krylov solvers) run it on the same
    /// team, so the two never compete for cores.
    fn exec_ctx(&self) -> Option<&ExecCtx> {
        None
    }

    /// Bytes of matrix data streamed per application (streamed once
    /// regardless of the multi-vector width).
    fn footprint_bytes(&self) -> usize;

    /// Floating-point operations per application with `k` right-hand sides
    /// (`2 · NNZ · k`, the paper's convention; transpose is identical).
    fn flops(&self, k: usize) -> f64 {
        2.0 * self.nnz() as f64 * k as f64
    }

    /// Convenience: `y = A·x`.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.apply(Apply::NoTrans, x, y);
    }

    /// Convenience: `Y = A·X`.
    fn spmm(&self, x: &MultiVec, y: &mut MultiVec) {
        self.apply_multi(Apply::NoTrans, x, y);
    }
}

/// Validates operand lengths for one application; shared by every operator
/// implementation.
#[inline]
pub(crate) fn check_apply_operands(shape: (usize, usize), op: Apply, x: &[f64], y: &[f64]) {
    let (out, inp) = op.out_in(shape);
    assert_eq!(x.len(), inp, "x length {} != input dim {}", x.len(), inp);
    assert_eq!(y.len(), out, "y length {} != output dim {}", y.len(), out);
}

/// Validates multi-vector operand shapes for one application.
#[inline]
pub(crate) fn check_apply_multi_operands(
    shape: (usize, usize),
    op: Apply,
    x: &MultiVec,
    y: &MultiVec,
) {
    let (out, inp) = op.out_in(shape);
    assert_eq!(x.nrows(), inp, "x rows {} != input dim {}", x.nrows(), inp);
    assert_eq!(y.nrows(), out, "y rows {} != output dim {}", y.nrows(), out);
    assert_eq!(
        x.width(),
        y.width(),
        "x width {} != y width {}",
        x.width(),
        y.width()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_out_in_swaps_for_transpose() {
        assert_eq!(Apply::NoTrans.out_in((3, 5)), (3, 5));
        assert_eq!(Apply::Trans.out_in((3, 5)), (5, 3));
    }

    #[test]
    fn capability_satisfaction() {
        let full = OpCapabilities::full();
        let micro = OpCapabilities::spmv_only();
        assert!(full.satisfies(&micro));
        assert!(full.satisfies(&full));
        assert!(!micro.satisfies(&full));
        assert!(micro.satisfies(&micro));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Apply::NoTrans.label(), "A");
        assert_eq!(Apply::Trans.label(), "A^T");
    }
}
