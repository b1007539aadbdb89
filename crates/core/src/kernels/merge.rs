//! Merge-path nonzero-split CSR operator (Merrill & Garland's merge-based
//! CSR, SC'16) — the IMB remediation that whole-row partitioning cannot
//! reach.
//!
//! [`ParallelCsr`]'s schedules and [`DecomposedKernel`]'s long-row phases
//! both distribute *whole rows*; a power-law matrix whose single row
//! outweighs a thread's nonzero quota therefore keeps one thread hot no
//! matter the schedule. [`MergeCsr`] removes the restriction: the flat
//! (row-pointer, nonzero) merge diagonal is cut into equal-work
//! [`Partition2d`] segments that split *inside* rows. Each thread computes
//! complete dot products for the rows whose end it owns and a partial sum
//! for the row its segment is cut in; the partials are reconciled by a
//! serial **carry fix-up** pass of one `(row, value)` entry per thread — no
//! atomics anywhere.
//!
//! The transposed application inherits the same nonzero balance for free:
//! the scratch-and-merge scatter is thread-private, so segments may split
//! rows without even needing a carry (the shared [`TransposePlan`] merge
//! pass already reduces per-thread partials).
//!
//! [`ParallelCsr`]: super::ParallelCsr
//! [`DecomposedKernel`]: super::DecomposedKernel

use super::rowprim::{row_dot, row_spmm_acc, InnerLoop};
use super::transpose::{scatter_row, TransposePlan};
use super::{check_apply_multi_operands, check_apply_operands, Apply, SparseLinOp};
use crate::csr::CsrMatrix;
use crate::multivec::MultiVec;
use crate::partition::Partition2d;
use crate::pool::ExecCtx;
use crate::util::SendMutPtr;
use std::sync::Arc;
use std::time::Duration;

/// Merge-path CSR operator: 2-D nonzero-split decomposition with per-thread
/// carry-out and a serial fix-up merge.
pub struct MergeCsr {
    matrix: Arc<CsrMatrix>,
    ctx: Arc<ExecCtx>,
    inner: InnerLoop,
    prefetch: bool,
    partition: Partition2d,
    tplan: TransposePlan,
}

std::thread_local! {
    /// Reusable carry buffers keyed to the applying thread — Krylov solvers
    /// apply the operator once per iteration, and the hot loop must not pay
    /// a per-application allocation (the same pattern as the transpose
    /// plan's scatter scratch).
    static CARRY: std::cell::RefCell<(Vec<usize>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl MergeCsr {
    /// Builds the operator: one merge-path search per thread boundary
    /// (`O(nthreads · log nrows)` — orders of magnitude cheaper than any
    /// format conversion, which the amortization model charges accordingly).
    pub fn new(
        matrix: Arc<CsrMatrix>,
        inner: InnerLoop,
        prefetch: bool,
        ctx: Arc<ExecCtx>,
    ) -> Self {
        let partition = Partition2d::merge_path(matrix.rowptr(), ctx.nthreads());
        // Transposed scatter walks the same segments (one work unit per
        // thread); the merge side partitions the output rows as usual.
        let tplan = TransposePlan::by_rows(partition.len(), matrix.ncols(), ctx.nthreads());
        Self {
            matrix,
            ctx,
            inner: inner.resolve_for_host(),
            prefetch,
            partition,
            tplan,
        }
    }

    /// Scalar-loop merge operator — the pure IMB optimization.
    pub fn baseline(matrix: Arc<CsrMatrix>, ctx: Arc<ExecCtx>) -> Self {
        Self::new(matrix, InnerLoop::Scalar, false, ctx)
    }

    /// The nonzero-split decomposition in use (inspection, tests).
    pub fn partition(&self) -> &Partition2d {
        &self.partition
    }

    /// Shared flat-storage forward path: each segment writes the rows it
    /// owns and records one carry; the fix-up adds carries serially.
    fn forward_flat(&self, xs: &[f64], k: usize, y: &mut [f64]) {
        let m = &self.matrix;
        let (rowptr, cols, vals) = (m.rowptr(), m.colind(), m.values());
        let nrows = m.nrows();
        let parts = &self.partition;
        let nsegs = parts.len();
        let inner = self.inner;
        let prefetch = self.prefetch;

        // One carry slot per segment: the partial sum of the row the segment
        // is cut in (`usize::MAX` marks "no carry" for untouched slots).
        // The buffers live in applying-thread-local storage so the hot loop
        // pays no allocation; clear + resize refills the defaults.
        CARRY.with(|cell| {
            let (carry_rows, carry_vals) = &mut *cell.borrow_mut();
            carry_rows.clear();
            carry_rows.resize(nsegs, usize::MAX);
            carry_vals.clear();
            carry_vals.resize(nsegs * k, 0.0);
            let yp = SendMutPtr::new(y);
            let crp = SendMutPtr::new(carry_rows);
            let cvp = SendMutPtr::new(carry_vals);

            self.ctx.run(|tid| {
                if tid >= nsegs {
                    return;
                }
                let seg = parts.segment(tid);
                let mut nz = seg.nnz.start;
                if k == 1 {
                    for row in seg.rows.clone() {
                        // Clipped span: the first row may have shed its leading
                        // nonzeros to the previous segment (its carry lands here
                        // in the fix-up).
                        let hi = rowptr[row + 1];
                        let v = row_dot(inner, prefetch, &cols[nz..hi], &vals[nz..hi], xs);
                        // SAFETY: each row end belongs to exactly one segment.
                        unsafe { yp.write(row, v) };
                        nz = hi;
                    }
                    let v = row_dot(
                        inner,
                        prefetch,
                        &cols[nz..seg.nnz.end],
                        &vals[nz..seg.nnz.end],
                        xs,
                    );
                    // SAFETY: slot `tid` is this thread's own carry.
                    unsafe {
                        crp.write(tid, seg.rows.end);
                        cvp.write(tid, v);
                    }
                } else {
                    for row in seg.rows.clone() {
                        let hi = rowptr[row + 1];
                        // SAFETY: row ends are segment-disjoint.
                        let out = unsafe { yp.window(row * k, k) };
                        out.fill(0.0);
                        row_spmm_acc(&cols[nz..hi], &vals[nz..hi], xs, k, out);
                        nz = hi;
                    }
                    // SAFETY: carry window `tid` is thread-private (pre-zeroed).
                    let out = unsafe { cvp.window(tid * k, k) };
                    row_spmm_acc(&cols[nz..seg.nnz.end], &vals[nz..seg.nnz.end], xs, k, out);
                    // SAFETY: as above.
                    unsafe { crp.write(tid, seg.rows.end) };
                }
            });

            // Carry fix-up: one serial pass over at most `nthreads` entries
            // (the final segment's carry row is `nrows` and is skipped).
            for (t, &row) in carry_rows.iter().enumerate() {
                if row < nrows {
                    for (o, &v) in y[row * k..(row + 1) * k]
                        .iter_mut()
                        .zip(&carry_vals[t * k..t * k + k])
                    {
                        *o += v;
                    }
                }
            }
        });
    }

    /// Transposed path: nonzero-balanced scatter over the merge segments
    /// into thread-private scratch, then the shared merge reduction.
    fn transpose_flat(&self, xs: &[f64], k: usize, y: &mut [f64]) {
        let m = &self.matrix;
        let (rowptr, cols, vals) = (m.rowptr(), m.colind(), m.values());
        let parts = &self.partition;
        self.tplan.execute(&self.ctx, k, y, |segs, scratch| {
            for s in segs {
                let seg = parts.segment(s);
                let mut nz = seg.nnz.start;
                for row in seg.rows.clone() {
                    let hi = rowptr[row + 1];
                    scatter_row(
                        &cols[nz..hi],
                        &vals[nz..hi],
                        &xs[row * k..(row + 1) * k],
                        k,
                        scratch,
                    );
                    nz = hi;
                }
                if nz < seg.nnz.end {
                    // Trailing partial row: scratch is private, so splitting
                    // the row across segments needs no carry at all.
                    let row = seg.rows.end;
                    scatter_row(
                        &cols[nz..seg.nnz.end],
                        &vals[nz..seg.nnz.end],
                        &xs[row * k..(row + 1) * k],
                        k,
                        scratch,
                    );
                }
            }
        });
    }
}

impl SparseLinOp for MergeCsr {
    fn name(&self) -> String {
        let pf = if self.prefetch { "+prefetch" } else { "" };
        format!("csr-merge[{}{}]", self.inner.label(), pf)
    }

    fn shape(&self) -> (usize, usize) {
        (self.matrix.nrows(), self.matrix.ncols())
    }

    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    fn apply(&self, op: Apply, x: &[f64], y: &mut [f64]) {
        check_apply_operands(self.shape(), op, x, y);
        match op {
            Apply::NoTrans => self.forward_flat(x, 1, y),
            Apply::Trans => self.transpose_flat(x, 1, y),
        }
    }

    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec) {
        check_apply_multi_operands(self.shape(), op, x, y);
        let k = x.width();
        match op {
            Apply::NoTrans => self.forward_flat(x.as_slice(), k, y.as_mut_slice()),
            Apply::Trans => self.transpose_flat(x.as_slice(), k, y.as_mut_slice()),
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
    use crate::kernels::SerialCsr;

    fn build(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(nrows, ncols);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }

    /// Sparse background + one row holding most nonzeros: the shape the
    /// merge path exists for.
    fn dominant_row(n: usize) -> Arc<CsrMatrix> {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 2.0 + (i % 3) as f64));
            entries.push((i, (i * 7 + 1) % n, -0.5));
        }
        for j in 0..n {
            entries.push((n / 3, j, 0.25 + (j % 5) as f64 * 0.125));
        }
        build(n, n, &entries)
    }

    fn assert_matches_serial(csr: &Arc<CsrMatrix>, nthreads: usize, inner: InnerLoop) {
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        let x: Vec<f64> = (0..ncols).map(|i| 0.3 + (i as f64 * 0.41).sin()).collect();
        let mut want = vec![0.0; nrows];
        SerialCsr::new(csr.clone()).spmv(&x, &mut want);

        let k = MergeCsr::new(csr.clone(), inner, false, ExecCtx::new(nthreads));
        let mut y = vec![f64::NAN; nrows];
        k.spmv(&x, &mut y);
        for (i, (a, b)) in y.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "row {i}, {nthreads} threads, {}: {a} vs {b}",
                k.name()
            );
        }
    }

    #[test]
    fn matches_serial_on_dominant_row_across_threads_and_inners() {
        let csr = dominant_row(257);
        for nthreads in [1, 2, 4, 7] {
            for inner in [InnerLoop::Scalar, InnerLoop::Unrolled4, InnerLoop::Simd] {
                assert_matches_serial(&csr, nthreads, inner);
            }
        }
    }

    #[test]
    fn all_nonzeros_in_one_row() {
        // Every segment lands inside the single row: the whole output is
        // assembled from carries.
        let entries: Vec<_> = (0..97)
            .map(|j| (2usize, j, 1.0 + j as f64 * 0.01))
            .collect();
        let csr = build(5, 97, &entries);
        for nthreads in [1, 3, 6] {
            assert_matches_serial(&csr, nthreads, InnerLoop::Scalar);
        }
    }

    #[test]
    fn fewer_rows_than_threads() {
        let csr = build(2, 4, &[(0, 1, 2.0), (1, 3, -1.5), (1, 0, 0.5)]);
        for nthreads in [3, 8] {
            assert_matches_serial(&csr, nthreads, InnerLoop::Scalar);
        }
    }

    #[test]
    fn empty_matrix_zeroes_output() {
        let csr = build(4, 6, &[]);
        let k = MergeCsr::baseline(csr, ExecCtx::new(3));
        let mut y = vec![f64::NAN; 4];
        k.spmv(&[0.0; 6], &mut y);
        assert_eq!(y, vec![0.0; 4]);
        let mut z = vec![f64::NAN; 6];
        k.apply(Apply::Trans, &[1.0; 4], &mut z);
        assert_eq!(z, vec![0.0; 6]);
    }

    #[test]
    fn transpose_matches_serial_on_dominant_row() {
        let csr = dominant_row(151);
        let x: Vec<f64> = (0..151).map(|i| 1.0 + (i as f64 * 0.13).cos()).collect();
        let mut want = vec![0.0; 151];
        SerialCsr::new(csr.clone()).apply(Apply::Trans, &x, &mut want);
        for nthreads in [1, 2, 5] {
            let k = MergeCsr::baseline(csr.clone(), ExecCtx::new(nthreads));
            let mut y = vec![f64::NAN; 151];
            k.apply(Apply::Trans, &x, &mut y);
            for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                    "col {i}, {nthreads} threads: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn multi_vector_matches_column_spmvs() {
        let csr = dominant_row(83);
        let k = 5usize;
        let x = MultiVec::from_fn(83, k, |i, j| (i as f64 * 0.07 + j as f64 * 0.31).sin());
        let op = MergeCsr::baseline(csr.clone(), ExecCtx::new(4));
        let mut y = MultiVec::zeros(83, k);
        op.spmm(&x, &mut y);
        let serial = SerialCsr::new(csr);
        for j in 0..k {
            let mut col = vec![0.0; 83];
            serial.spmv(&x.column(j), &mut col);
            for (i, want) in col.iter().enumerate() {
                let got = y.row(i)[j];
                assert!(
                    (got - want).abs() < 1e-9 * (1.0 + want.abs()),
                    "({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn name_and_capabilities() {
        let csr = dominant_row(16);
        let op = MergeCsr::new(csr, InnerLoop::Scalar, true, ExecCtx::new(2));
        assert_eq!(op.name(), "csr-merge[scalar+prefetch]");
        let caps = op.capabilities();
        assert!(caps.transpose && caps.multi_vec);
        assert_eq!(op.last_thread_times().len(), 2);
    }

    #[test]
    fn per_thread_work_is_balanced_on_dominant_row() {
        let csr = dominant_row(4096);
        let op = MergeCsr::baseline(csr, ExecCtx::new(8));
        assert!(
            op.partition().imbalance_factor() < 1.01,
            "merge partition must be balanced, got {}",
            op.partition().imbalance_factor()
        );
    }
}
