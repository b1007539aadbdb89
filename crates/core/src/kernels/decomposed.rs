//! Two-phase operator over a decomposed matrix (paper Fig. 6).
//!
//! Forward application: phase 1 runs the regular row loop skipping long
//! rows; phase 2 computes each long row with *all* threads — every thread
//! takes a contiguous slice of the row's nonzeros and a reduction of
//! partial sums follows. The multi-vector path generalizes both phases to
//! `k`-wide partials.
//!
//! Transposed application needs no phases at all: the scratch-and-merge
//! scatter is race-free by construction, and the shared [`TransposePlan`]
//! balances the full (short + long) nonzero mass across threads. Rows are
//! still indivisible scatter units, so a single row holding most of the
//! nonzeros keeps one thread busy while the others drain — the transposed
//! analogue of the forward imbalance, accepted here because splitting a
//! row's scatter would need either atomics or an extra merge stage.

use super::rowprim::{row_dot, row_spmm_write, InnerLoop};
use super::transpose::{scatter_row, TransposePlan};
use super::{check_apply_multi_operands, check_apply_operands, Apply, SparseLinOp};
use crate::decomposed::DecomposedCsrMatrix;
use crate::multivec::MultiVec;
use crate::pool::ExecCtx;
use crate::schedule::{ResolvedSchedule, Schedule};
use crate::util::SendMutPtr;
use std::sync::Arc;
use std::time::Duration;

/// Parallel operator over [`DecomposedCsrMatrix`].
pub struct DecomposedKernel {
    matrix: Arc<DecomposedCsrMatrix>,
    ctx: Arc<ExecCtx>,
    phase1: ResolvedSchedule,
    inner: InnerLoop,
    prefetch: bool,
    tplan: TransposePlan,
}

impl DecomposedKernel {
    /// Builds the operator. The phase-1 schedule balances the *short-row*
    /// nonzeros; phase 2 always splits every long row across all threads.
    pub fn new(
        matrix: Arc<DecomposedCsrMatrix>,
        inner: InnerLoop,
        prefetch: bool,
        schedule: Schedule,
        ctx: Arc<ExecCtx>,
    ) -> Self {
        // StaticNnz / Auto balance on the short-row pointer (long rows
        // contribute zero weight, which is exactly right here).
        let phase1 =
            schedule.resolve_with_rowptr(matrix.nrows(), matrix.short_rowptr(), ctx.nthreads());
        // The transpose scatter visits *every* row, so its partition
        // balances the full cumulative row pointer (short + long mass).
        let full_rowptr: Vec<usize> = (0..matrix.nrows())
            .map(|i| matrix.row_range(i).start)
            .chain(std::iter::once(matrix.nnz()))
            .collect();
        let tplan = TransposePlan::by_rowptr(&full_rowptr, matrix.ncols(), ctx.nthreads());
        Self {
            matrix,
            ctx,
            phase1,
            inner: inner.resolve_for_host(),
            prefetch,
            tplan,
        }
    }

    /// Default decomposition operator: baseline inner loop + nnz-balanced
    /// phase 1 (the paper's IMB optimization in isolation).
    pub fn baseline(matrix: Arc<DecomposedCsrMatrix>, ctx: Arc<ExecCtx>) -> Self {
        Self::new(matrix, InnerLoop::Scalar, false, Schedule::StaticNnz, ctx)
    }

    /// Shared transposed path over the full row set.
    fn transpose_flat(&self, xs: &[f64], k: usize, y: &mut [f64]) {
        let m = &self.matrix;
        let cols = m.colind();
        let vals = m.values();
        self.tplan.execute(&self.ctx, k, y, |rows, scratch| {
            for i in rows {
                let r = m.row_range(i);
                scatter_row(
                    &cols[r.clone()],
                    &vals[r],
                    &xs[i * k..(i + 1) * k],
                    k,
                    scratch,
                );
            }
        });
    }
}

impl SparseLinOp for DecomposedKernel {
    fn name(&self) -> String {
        let pf = if self.prefetch { "+prefetch" } else { "" };
        format!("csr-decomposed[{}{}]", self.inner.label(), pf)
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
        if op == Apply::Trans {
            return self.transpose_flat(x, 1, y);
        }
        let nthreads = self.ctx.nthreads();
        let long_rows = m.long_rows();
        let inner = self.inner;
        let prefetch = self.prefetch;
        let cols = m.colind();
        let vals = m.values();

        // Phase 1: regular row loop, long rows have empty short ranges and
        // are skipped implicitly (their rowptr span is empty).
        let yp = SendMutPtr::new(y);
        self.phase1.execute(&self.ctx, m.nrows(), |rows| {
            for i in rows {
                if m.is_long(i) {
                    continue;
                }
                let r = m.row_range(i);
                let v = row_dot(inner, prefetch, &cols[r.clone()], &vals[r], x);
                // SAFETY: schedule guarantees row-disjoint writes.
                unsafe { yp.write(i, v) };
            }
        });

        // Phase 2: every thread computes a slice of each long row.
        if long_rows.is_empty() {
            return;
        }
        let mut partials = vec![0.0f64; long_rows.len() * nthreads];
        let pp = SendMutPtr::new(&mut partials);
        self.ctx.run(|tid| {
            for (li, &row) in long_rows.iter().enumerate() {
                let r = m.row_range(row as usize);
                let len = r.len();
                let chunk = len.div_ceil(nthreads);
                let s = r.start + (tid * chunk).min(len);
                let e = r.start + ((tid + 1) * chunk).min(len);
                if s < e {
                    let v = row_dot(inner, prefetch, &cols[s..e], &vals[s..e], x);
                    // SAFETY: slot (li, tid) is written only by thread `tid`.
                    unsafe { pp.write(li * nthreads + tid, v) };
                }
            }
        });
        // Reduction of partial results (paper Fig. 6, "a reduction of partial
        // results follows"). Long rows are few, so this serial step is cheap.
        for (li, &row) in long_rows.iter().enumerate() {
            y[row as usize] = partials[li * nthreads..(li + 1) * nthreads].iter().sum();
        }
    }

    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec) {
        let m = &self.matrix;
        check_apply_multi_operands(self.shape(), op, x, y);
        let k = x.width();
        let xs = x.as_slice();
        if op == Apply::Trans {
            return self.transpose_flat(xs, k, y.as_mut_slice());
        }
        let nthreads = self.ctx.nthreads();
        let long_rows = m.long_rows();
        let cols = m.colind();
        let vals = m.values();

        // Phase 1: tiled row loop, long rows skipped (empty short ranges).
        let yp = SendMutPtr::new(y.as_mut_slice());
        self.phase1.execute(&self.ctx, m.nrows(), |rows| {
            for i in rows {
                if m.is_long(i) {
                    continue;
                }
                let r = m.row_range(i);
                // SAFETY: row-disjoint writes per the schedule.
                unsafe { row_spmm_write(i, &cols[r.clone()], &vals[r], xs, k, &yp) };
            }
        });

        // Phase 2: every thread computes a k-wide slice of each long row.
        if long_rows.is_empty() {
            return;
        }
        let mut partials = vec![0.0f64; long_rows.len() * nthreads * k];
        let pp = SendMutPtr::new(&mut partials);
        self.ctx.run(|tid| {
            for (li, &row) in long_rows.iter().enumerate() {
                let r = m.row_range(row as usize);
                let len = r.len();
                let chunk = len.div_ceil(nthreads);
                let s = r.start + (tid * chunk).min(len);
                let e = r.start + ((tid + 1) * chunk).min(len);
                if s < e {
                    // SAFETY: slot (li, tid) is written only by thread tid.
                    unsafe {
                        row_spmm_write(li * nthreads + tid, &cols[s..e], &vals[s..e], xs, k, &pp)
                    };
                }
            }
        });
        for (li, &row) in long_rows.iter().enumerate() {
            let out = y.row_mut(row as usize);
            out.fill(0.0);
            for tid in 0..nthreads {
                let p = &partials[(li * nthreads + tid) * k..(li * nthreads + tid + 1) * k];
                for (o, &v) in out.iter_mut().zip(p) {
                    *o += v;
                }
            }
        }
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
    use crate::csr::CsrMatrix;
    use crate::kernels::SerialCsr;

    /// Matrix with a few mega-rows over a sparse background — the ASIC_680k /
    /// rajat30 shape the decomposition targets.
    fn few_dense_rows(n: usize, dense_rows: &[usize]) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            coo.push(i, (i + 7) % n, -1.0);
        }
        for &r in dense_rows {
            for j in 0..n {
                coo.push(r, j, 0.01 * (j % 11) as f64 + 0.1);
            }
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }

    #[test]
    fn matches_serial_on_skewed_matrix() {
        let csr = few_dense_rows(500, &[3, 250, 499]);
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.05).sin() + 1.0).collect();
        let mut reference = vec![0.0; 500];
        SerialCsr::new(csr.clone()).spmv(&x, &mut reference);

        let threshold = DecomposedCsrMatrix::auto_threshold(&csr, 4.0);
        let dec = Arc::new(DecomposedCsrMatrix::from_csr(&csr, threshold));
        assert_eq!(
            dec.long_rows().len(),
            3,
            "the three dense rows must split out"
        );

        for nthreads in [1, 2, 4, 7] {
            let ctx = ExecCtx::new(nthreads);
            for inner in [InnerLoop::Scalar, InnerLoop::Unrolled4, InnerLoop::Simd] {
                let k = DecomposedKernel::new(
                    dec.clone(),
                    inner,
                    false,
                    Schedule::StaticNnz,
                    ctx.clone(),
                );
                let mut y = vec![f64::NAN; 500];
                k.spmv(&x, &mut y);
                for (i, (a, b)) in y.iter().zip(&reference).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                        "row {i}, {nthreads} threads, {}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_covers_long_rows() {
        let csr = few_dense_rows(300, &[0, 150]);
        let x: Vec<f64> = (0..300).map(|i| 1.0 + (i as f64 * 0.07).cos()).collect();
        let mut want = vec![0.0; 300];
        SerialCsr::new(csr.clone()).apply(Apply::Trans, &x, &mut want);

        let dec = Arc::new(DecomposedCsrMatrix::from_csr(&csr, 8));
        assert_eq!(dec.long_rows().len(), 2);
        for nthreads in [1, 3, 5] {
            let k = DecomposedKernel::baseline(dec.clone(), ExecCtx::new(nthreads));
            let mut y = vec![f64::NAN; 300];
            k.apply(Apply::Trans, &x, &mut y);
            for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                    "row {i}, {nthreads} threads: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn no_long_rows_degenerates_to_plain() {
        let csr = few_dense_rows(100, &[]);
        let x = vec![1.0; 100];
        let mut reference = vec![0.0; 100];
        SerialCsr::new(csr.clone()).spmv(&x, &mut reference);

        let dec = Arc::new(DecomposedCsrMatrix::from_csr(&csr, 1000));
        let k = DecomposedKernel::baseline(dec, ExecCtx::new(3));
        let mut y = vec![0.0; 100];
        k.spmv(&x, &mut y);
        assert_eq!(y, reference);
    }

    #[test]
    fn single_thread_still_correct() {
        let csr = few_dense_rows(64, &[0]);
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut reference = vec![0.0; 64];
        SerialCsr::new(csr.clone()).spmv(&x, &mut reference);

        let dec = Arc::new(DecomposedCsrMatrix::from_csr(&csr, 8));
        let k = DecomposedKernel::baseline(dec, ExecCtx::new(1));
        let mut y = vec![0.0; 64];
        k.spmv(&x, &mut y);
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
