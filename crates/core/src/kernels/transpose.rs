//! Pool-parallel transposed application shared by every row-major format.
//!
//! `y = Aᵀ·x` over row-partitioned storage inverts the access pattern of
//! SpMV: the matrix and `x` stream sequentially, but the output is
//! *scattered* through the column indices. Writing `y` directly from
//! multiple threads would race, so the shared machinery here uses the
//! scratch-accumulate-and-merge scheme:
//!
//! 1. **Scatter** — rows (or SELL chunks) are statically partitioned across
//!    the pool, weight-balanced by nonzeros where a row pointer exists.
//!    Each thread accumulates `Σ vals[j] · x[row, ·]` into a *private*
//!    `ncols × k` scratch buffer, so no synchronization is needed.
//! 2. **Merge** — the output rows are partitioned across the pool and each
//!    thread reduces the per-thread partials for its output range into `y`.
//!
//! Scratch memory is `nthreads · ncols · k` doubles per application; the
//! alternative (a precomputed CSC view) doubles the *matrix* footprint
//! instead, which loses for the `nnz ≫ ncols` matrices this library
//! targets.

use crate::partition::Partition;
use crate::pool::ExecCtx;
use crate::util::SendMutPtr;
use std::ops::Range;

/// A reusable transposed-application plan: the scatter-side work partition
/// (built once per operator, weight-balanced like the forward schedule) plus
/// the merge-side partition of the output rows.
#[derive(Clone, Debug)]
pub(crate) struct TransposePlan {
    /// Scatter partition over the format's work units (rows / chunks).
    work: Partition,
    /// Merge partition over the output rows.
    merge: Partition,
    /// Output dimension (`ncols` of the stored matrix).
    out_dim: usize,
}

std::thread_local! {
    /// Reusable scatter scratch, keyed to the applying thread — Krylov
    /// solvers call the transposed apply once per iteration, and the hot
    /// loop must not pay an `nthreads · ncols · k` allocation each time.
    static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl TransposePlan {
    /// Plan with nnz-balanced work units from a cumulative row pointer.
    pub fn by_rowptr(rowptr: &[usize], out_dim: usize, nthreads: usize) -> Self {
        Self {
            work: Partition::by_rowptr(rowptr, nthreads),
            merge: Partition::by_rows(out_dim, nthreads),
            out_dim,
        }
    }

    /// Plan with equal-count work units (the merge-path operator's
    /// per-thread segments, each already balanced by construction).
    pub fn by_rows(nunits: usize, out_dim: usize, nthreads: usize) -> Self {
        Self {
            work: Partition::by_rows(nunits, nthreads),
            merge: Partition::by_rows(out_dim, nthreads),
            out_dim,
        }
    }

    /// Executes one transposed application: `scatter(units, scratch)` must
    /// accumulate every work unit's contribution into the thread-private
    /// `out_dim × k` row-major `scratch`; the merge into `y` is handled
    /// here. `y` must hold `out_dim · k` values and is fully overwritten.
    pub fn execute<F>(&self, ctx: &ExecCtx, k: usize, y: &mut [f64], scatter: F)
    where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        let nthreads = ctx.nthreads();
        let stride = self.out_dim * k;
        assert_eq!(y.len(), stride, "output length mismatch");

        SCRATCH.with(|cell| {
            // Phase 1: thread-private scatter. One flat reusable buffer,
            // handed out as disjoint per-thread windows through the raw
            // pointer (the borrow lives on the applying thread only). Each
            // worker zeroes its own window, so the clearing is parallel and
            // stale contents from the previous application never leak into
            // the merge.
            let mut scratch = cell.borrow_mut();
            if scratch.len() != nthreads * stride {
                scratch.resize(nthreads * stride, 0.0);
            }
            let sp = SendMutPtr::new(&mut scratch);
            let work = &self.work;
            ctx.run(|tid| {
                // SAFETY: window `tid` is touched by thread `tid` only, and
                // the pool joins before `scratch` is read below.
                let buf = unsafe { sp.window(tid * stride, stride) };
                buf.fill(0.0);
                if tid >= work.len() {
                    return;
                }
                let units = work.range(tid);
                if units.is_empty() {
                    return;
                }
                scatter(units, buf);
            });
            let scatter_times = ctx.last_thread_times();

            // Phase 2: merge the per-thread partials, output-parallel.
            let merge = &self.merge;
            let yp = SendMutPtr::new(y);
            let scratch = &*scratch;
            ctx.run(|tid| {
                if tid >= merge.len() {
                    return;
                }
                for c in merge.range(tid) {
                    for t in 0..k {
                        let mut sum = 0.0;
                        for w in 0..nthreads {
                            sum += scratch[w * stride + c * k + t];
                        }
                        // SAFETY: output rows are partitioned disjointly.
                        unsafe { yp.write(c * k + t, sum) };
                    }
                }
            });
            // Report scatter + merge together: `last_thread_times` must
            // cover the whole application, not just the final phase.
            ctx.accumulate_last_times(&scatter_times);
        });
    }
}

/// Accumulates one row's transposed contribution:
/// `scratch[cols[j], ·] += vals[j] · xrow` for every stored element.
#[inline]
pub(crate) fn scatter_row(cols: &[u32], vals: &[f64], xrow: &[f64], k: usize, scratch: &mut [f64]) {
    for (&c, &v) in cols.iter().zip(vals) {
        let dst = &mut scratch[c as usize * k..c as usize * k + k];
        for (d, &xv) in dst.iter_mut().zip(xrow) {
            *d += v * xv;
        }
    }
}

/// Serial transposed application into `y` (reference path for
/// [`crate::kernels::SerialCsr`]): `y` is zeroed, then every row scatters.
#[inline]
pub(crate) fn serial_transpose<'a>(
    rows: impl Iterator<Item = (&'a [u32], &'a [f64], &'a [f64])>,
    k: usize,
    y: &mut [f64],
) {
    y.fill(0.0);
    for (cols, vals, xrow) in rows {
        scatter_row(cols, vals, xrow, k, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    fn sample(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..nrows {
            for _ in 0..3 {
                let c = (next() % ncols as u64) as usize;
                coo.push(i, c, (next() % 19) as f64 - 9.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn dense_transpose(m: &CsrMatrix, xs: &[f64], k: usize) -> Vec<f64> {
        let mut y = vec![0.0; m.ncols() * k];
        for (r, c, v) in m.iter() {
            for t in 0..k {
                y[c * k + t] += v * xs[r * k + t];
            }
        }
        y
    }

    #[test]
    fn plan_matches_dense_reference_across_threads_and_widths() {
        let m = sample(37, 23, 0x5eed);
        for nthreads in [1usize, 2, 5] {
            let ctx = ExecCtx::new(nthreads);
            for k in [1usize, 3, 8] {
                let xs: Vec<f64> = (0..37 * k).map(|i| (i as f64 * 0.17).sin()).collect();
                let want = dense_transpose(&m, &xs, k);
                let plan = TransposePlan::by_rowptr(m.rowptr(), m.ncols(), nthreads);
                let mut y = vec![f64::NAN; 23 * k];
                plan.execute(&ctx, k, &mut y, |rows, scratch| {
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
                for (a, b) in y.iter().zip(&want) {
                    assert!(
                        (a - b).abs() < 1e-10 * (1.0 + b.abs()),
                        "t={nthreads} k={k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_matrix_zeroes_output() {
        let m = CsrMatrix::from_coo(&CooMatrix::new(4, 6));
        let ctx = ExecCtx::new(3);
        let plan = TransposePlan::by_rows(4, 6, 3);
        let mut y = vec![1.0; 6];
        plan.execute(&ctx, 1, &mut y, |rows, scratch| {
            for i in rows {
                scatter_row(m.row_cols(i), m.row_vals(i), &[0.0], 1, scratch);
            }
        });
        assert_eq!(y, vec![0.0; 6]);
    }
}
