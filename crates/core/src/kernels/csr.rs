//! Serial and parallel CSR operators.
//!
//! [`SerialCsr`] is the textbook kernel of the paper's Fig. 2. [`ParallelCsr`]
//! is the configurable workhorse: a scheduling policy (Section III-E, IMB)
//! combined with an inner-loop flavor (vectorization/unrolling, CMP) and
//! optional software prefetching (ML). Both implement the full
//! [`SparseLinOp`] application space: the multi-vector path reuses the
//! register-blocked row pass and the transposed path the shared
//! scratch-and-merge machinery.

use super::rowprim::{row_dot, row_spmm_write, InnerLoop};
use super::transpose::{scatter_row, serial_transpose, TransposePlan};
use super::{check_apply_multi_operands, check_apply_operands, Apply, SparseLinOp};
use crate::csr::CsrMatrix;
use crate::multivec::MultiVec;
use crate::pool::ExecCtx;
use crate::schedule::{ResolvedSchedule, Schedule};
use crate::util::SendMutPtr;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`ParallelCsr`] kernel: the cross product of the
/// paper's CSR-based optimizations that do not change the storage format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrKernelConfig {
    /// Inner-loop flavor (scalar / unrolled / SIMD).
    pub inner: InnerLoop,
    /// Software prefetching of `x` (ML optimization).
    pub prefetch: bool,
    /// Row-loop scheduling policy (IMB optimization space).
    pub schedule: Schedule,
}

impl Default for CsrKernelConfig {
    /// The paper's baseline: scalar loop, no prefetch, static nnz-balanced
    /// one-dimensional row partitioning.
    fn default() -> Self {
        Self {
            inner: InnerLoop::Scalar,
            prefetch: false,
            schedule: Schedule::StaticNnz,
        }
    }
}

impl CsrKernelConfig {
    /// Baseline configuration (alias of `Default`).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Stable descriptive suffix, e.g. `[simd+prefetch+auto]`.
    pub fn suffix(&self) -> String {
        let mut parts = vec![self.inner.label().to_string()];
        if self.prefetch {
            parts.push("prefetch".into());
        }
        parts.push(self.schedule.label().into());
        format!("[{}]", parts.join("+"))
    }
}

/// The sequential CSR operator (the paper's Fig. 2 kernel plus its
/// transposed and multi-vector applications) — the reference every parallel
/// path is tested against.
pub struct SerialCsr {
    matrix: Arc<CsrMatrix>,
}

impl SerialCsr {
    /// Wraps a CSR matrix.
    pub fn new(matrix: Arc<CsrMatrix>) -> Self {
        Self { matrix }
    }
}

impl SparseLinOp for SerialCsr {
    fn name(&self) -> String {
        "csr-serial".into()
    }

    fn shape(&self) -> (usize, usize) {
        (self.matrix.nrows(), self.matrix.ncols())
    }

    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    fn apply(&self, op: Apply, x: &[f64], y: &mut [f64]) {
        let m = &self.matrix;
        check_apply_operands(self.shape(), op, x, y);
        match op {
            Apply::NoTrans => {
                for (i, yi) in y.iter_mut().enumerate() {
                    // The paper's inner loop: y[i] += val[j] * x[colind[j]].
                    *yi = row_dot(InnerLoop::Scalar, false, m.row_cols(i), m.row_vals(i), x);
                }
            }
            Apply::Trans => serial_transpose(
                (0..m.nrows()).map(|i| (m.row_cols(i), m.row_vals(i), &x[i..i + 1])),
                1,
                y,
            ),
        }
    }

    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec) {
        let m = &self.matrix;
        check_apply_multi_operands(self.shape(), op, x, y);
        let k = x.width();
        let xs = x.as_slice();
        match op {
            Apply::NoTrans => {
                let yp = SendMutPtr::new(y.as_mut_slice());
                for i in 0..m.nrows() {
                    // SAFETY: single-threaded, rows visited once.
                    unsafe { row_spmm_write(i, m.row_cols(i), m.row_vals(i), xs, k, &yp) };
                }
            }
            Apply::Trans => serial_transpose(
                (0..m.nrows()).map(|i| (m.row_cols(i), m.row_vals(i), &xs[i * k..(i + 1) * k])),
                k,
                y.as_mut_slice(),
            ),
        }
    }

    fn footprint_bytes(&self) -> usize {
        self.matrix.footprint_bytes()
    }
}

/// Parallel CSR operator with configurable schedule, inner loop, and
/// prefetching; transposed application runs the shared scratch-and-merge
/// plan over the same nnz-balanced row distribution.
pub struct ParallelCsr {
    matrix: Arc<CsrMatrix>,
    ctx: Arc<ExecCtx>,
    config: CsrKernelConfig,
    resolved: ResolvedSchedule,
    inner: InnerLoop,
    tplan: TransposePlan,
}

impl ParallelCsr {
    /// Builds the operator, resolving the schedule against the matrix and
    /// the SIMD flavor against the host.
    pub fn new(matrix: Arc<CsrMatrix>, config: CsrKernelConfig, ctx: Arc<ExecCtx>) -> Self {
        let resolved = config.schedule.resolve(&matrix, ctx.nthreads());
        let inner = config.inner.resolve_for_host();
        let tplan = TransposePlan::by_rowptr(matrix.rowptr(), matrix.ncols(), ctx.nthreads());
        Self {
            matrix,
            ctx,
            config,
            resolved,
            inner,
            tplan,
        }
    }

    /// Baseline parallel operator (paper Section IV-A).
    pub fn baseline(matrix: Arc<CsrMatrix>, ctx: Arc<ExecCtx>) -> Self {
        Self::new(matrix, CsrKernelConfig::baseline(), ctx)
    }

    /// Baseline inner loop with an explicit schedule.
    pub fn with_schedule(matrix: Arc<CsrMatrix>, schedule: Schedule, ctx: Arc<ExecCtx>) -> Self {
        Self::new(
            matrix,
            CsrKernelConfig {
                schedule,
                ..CsrKernelConfig::baseline()
            },
            ctx,
        )
    }

    /// The operator's configuration.
    pub fn config(&self) -> &CsrKernelConfig {
        &self.config
    }

    /// The execution context this operator runs on.
    pub fn ctx(&self) -> &Arc<ExecCtx> {
        &self.ctx
    }

    /// Shared flat-storage application: `k = 1` is the vector path.
    fn apply_flat(&self, op: Apply, xs: &[f64], k: usize, y: &mut [f64]) {
        let m = &self.matrix;
        match op {
            Apply::NoTrans if k == 1 => {
                let yp = SendMutPtr::new(y);
                let inner = self.inner;
                let prefetch = self.config.prefetch;
                self.resolved.execute(&self.ctx, m.nrows(), |rows| {
                    for i in rows {
                        let v = row_dot(inner, prefetch, m.row_cols(i), m.row_vals(i), xs);
                        // SAFETY: the schedule dispenses each row exactly
                        // once, so writes to y[i] are disjoint across threads.
                        unsafe { yp.write(i, v) };
                    }
                });
            }
            Apply::NoTrans => {
                let yp = SendMutPtr::new(y);
                self.resolved.execute(&self.ctx, m.nrows(), |rows| {
                    for i in rows {
                        // SAFETY: row-disjoint writes per the schedule.
                        unsafe { row_spmm_write(i, m.row_cols(i), m.row_vals(i), xs, k, &yp) };
                    }
                });
            }
            Apply::Trans => {
                self.tplan.execute(&self.ctx, k, y, |rows, scratch| {
                    for i in rows {
                        scatter_row(
                            m.row_cols(i),
                            m.row_vals(i),
                            &xs[i * k..(i + 1) * k],
                            k,
                            scratch,
                        );
                    }
                });
            }
        }
    }
}

impl SparseLinOp for ParallelCsr {
    fn name(&self) -> String {
        format!("csr-parallel{}", self.config.suffix())
    }

    fn shape(&self) -> (usize, usize) {
        (self.matrix.nrows(), self.matrix.ncols())
    }

    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    fn apply(&self, op: Apply, x: &[f64], y: &mut [f64]) {
        check_apply_operands(self.shape(), op, x, y);
        self.apply_flat(op, x, 1, y);
    }

    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec) {
        check_apply_multi_operands(self.shape(), op, x, y);
        self.apply_flat(op, x.as_slice(), x.width(), y.as_mut_slice());
    }

    fn last_thread_times(&self) -> Vec<Duration> {
        self.ctx.last_thread_times()
    }

    fn exec_ctx(&self) -> Option<&ExecCtx> {
        Some(&self.ctx)
    }

    fn footprint_bytes(&self) -> usize {
        self.matrix.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn random_matrix(n: usize, per_row: usize) -> (Arc<CsrMatrix>, Vec<f64>) {
        let mut coo = CooMatrix::new(n, n);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            for _ in 0..per_row {
                let c = (next() % n as u64) as usize;
                coo.push(i, c, (next() % 1000) as f64 / 100.0 - 5.0);
            }
        }
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        (Arc::new(CsrMatrix::from_coo(&coo)), x)
    }

    #[test]
    fn serial_matches_dense_reference() {
        let (m, x) = random_matrix(50, 4);
        let mut y = vec![0.0; 50];
        SerialCsr::new(m.clone()).spmv(&x, &mut y);
        let mut expect = vec![0.0; 50];
        m.to_coo().spmv_dense_reference(&x, &mut expect);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn parallel_matches_serial_across_configs() {
        let (m, x) = random_matrix(200, 6);
        let mut reference = vec![0.0; 200];
        SerialCsr::new(m.clone()).spmv(&x, &mut reference);

        let ctx = ExecCtx::new(4);
        for inner in [InnerLoop::Scalar, InnerLoop::Unrolled4, InnerLoop::Simd] {
            for prefetch in [false, true] {
                for schedule in [
                    Schedule::StaticRows,
                    Schedule::StaticNnz,
                    Schedule::Dynamic { chunk: 7 },
                    Schedule::Guided { min_chunk: 2 },
                    Schedule::Auto,
                ] {
                    let cfg = CsrKernelConfig {
                        inner,
                        prefetch,
                        schedule: schedule.clone(),
                    };
                    let k = ParallelCsr::new(m.clone(), cfg, ctx.clone());
                    let mut y = vec![f64::NAN; 200];
                    k.spmv(&x, &mut y);
                    for (i, (a, b)) in y.iter().zip(&reference).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-10,
                            "row {i} mismatch for {}: {a} vs {b}",
                            k.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_transpose_matches_serial_transpose() {
        let (m, _) = random_matrix(150, 5);
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut want = vec![0.0; 150];
        SerialCsr::new(m.clone()).apply(Apply::Trans, &x, &mut want);

        for nthreads in [1, 2, 4] {
            let k = ParallelCsr::baseline(m.clone(), ExecCtx::new(nthreads));
            let mut y = vec![f64::NAN; 150];
            k.apply(Apply::Trans, &x, &mut y);
            for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-10 * (1.0 + b.abs()),
                    "row {i} with {nthreads} threads: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn thread_times_reported() {
        let (m, x) = random_matrix(100, 4);
        let ctx = ExecCtx::new(3);
        let k = ParallelCsr::baseline(m, ctx);
        let mut y = vec![0.0; 100];
        k.spmv(&x, &mut y);
        assert_eq!(k.last_thread_times().len(), 3);
    }

    #[test]
    fn name_encodes_config() {
        let (m, _) = random_matrix(10, 2);
        let ctx = ExecCtx::new(1);
        let cfg = CsrKernelConfig {
            inner: InnerLoop::Unrolled4,
            prefetch: true,
            schedule: Schedule::Dynamic { chunk: 8 },
        };
        let k = ParallelCsr::new(m, cfg, ctx);
        assert_eq!(k.name(), "csr-parallel[unrolled+prefetch+dynamic]");
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn shape_mismatch_panics() {
        let (m, _) = random_matrix(10, 2);
        let k = SerialCsr::new(m);
        let x = vec![0.0; 3];
        let mut y = vec![0.0; 10];
        k.spmv(&x, &mut y);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn transpose_shape_mismatch_panics() {
        // Trans swaps operand roles: x must have nrows entries.
        let mut coo = CooMatrix::new(4, 7);
        coo.push(0, 6, 1.0);
        let m = Arc::new(CsrMatrix::from_coo(&coo));
        let k = SerialCsr::new(m);
        let x = vec![0.0; 7];
        let mut y = vec![0.0; 4];
        k.apply(Apply::Trans, &x, &mut y);
    }
}
