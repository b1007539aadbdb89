//! Dense vector kernels (level-1 BLAS) used by the Krylov solvers, and
//! [`VecOps`], which splits them over an operator's thread team.

use sparseopt_core::kernels::SparseLinOp;
use sparseopt_core::pool::ExecCtx;
use std::ops::Range;
use std::sync::Mutex;

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    // Four accumulators: same dependency-breaking the SpMV kernels use.
    let n = x.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let k = i * 4;
        s0 += x[k] * y[k];
        s1 += x[k + 1] * y[k + 1];
        s2 += x[k + 2] * y[k + 2];
        s3 += x[k + 3] * y[k + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for k in chunks * 4..n {
        s += x[k] * y[k];
    }
    s
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← a·x + y`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (the CG direction update).
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Elementwise `z ← x ⊘ d` (Jacobi application).
#[inline]
pub fn elementwise_div(x: &[f64], d: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), d.len(), "div length mismatch");
    assert_eq!(x.len(), z.len(), "div length mismatch");
    for ((zi, &xi), &di) in z.iter_mut().zip(x).zip(d) {
        *zi = xi / di;
    }
}

/// Thread `tid`'s chunk of `0..n` when it is cut into `nthreads` fixed
/// contiguous chunks.
fn chunk(n: usize, tid: usize, nthreads: usize) -> Range<usize> {
    n * tid / nthreads..n * (tid + 1) / nthreads
}

/// Runs `f(rows, &mut y[rows])` on the team for each thread's contiguous
/// chunk of the rows of `y`, a row-major block of rows of `k >= 1` values.
pub(crate) fn for_row_chunks_mut(
    ctx: &ExecCtx,
    y: &mut [f64],
    k: usize,
    f: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    let (nrows, t) = (y.len() / k, ctx.nthreads());
    let mut parts = Vec::with_capacity(t);
    let mut rest = y;
    for tid in 0..t {
        let rows = chunk(nrows, tid, t);
        let (head, tail) = rest.split_at_mut(rows.len() * k);
        parts.push((rows, Mutex::new(head)));
        rest = tail;
    }
    ctx.run(|tid| {
        let (rows, part) = &parts[tid];
        f(
            rows.clone(),
            &mut part.lock().expect("each chunk has one thread"),
        );
    });
}

/// Vector length from which [`VecOps`] splits a kernel over the team.
/// Measured at 2 threads on a 2-vCPU Xeon host: from 16k elements the team
/// wins (dot 8.5 against 15.9 µs, axpy 5.3 against 6.8 µs); at 8k axpy
/// breaks even, and below that one fork-join costs more than it splits.
const TEAM_MIN_LEN: usize = 1 << 14;

/// The level-1 kernels a Krylov iteration runs between operator
/// applications, on the operator's own team when it has one and the
/// vectors are long enough (serial otherwise). Each vector is cut into one
/// fixed contiguous chunk per thread, each chunk runs the serial kernel,
/// and reductions add the per-thread partial sums in thread order, so a
/// given thread count always gives the same bits.
#[derive(Clone, Copy)]
pub struct VecOps<'a> {
    team: Option<&'a ExecCtx>,
}

impl<'a> VecOps<'a> {
    /// Kernels for vectors of length `n` iterated against operator `a`.
    pub fn for_operator(a: &'a dyn SparseLinOp, n: usize) -> Self {
        let team = a
            .exec_ctx()
            .filter(|ctx| ctx.nthreads() > 1 && n >= TEAM_MIN_LEN);
        Self { team }
    }

    /// Dot product `xᵀy`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        let Some(ctx) = self.team else {
            return dot(x, y);
        };
        let t = ctx.nthreads();
        // One slot per thread: thread `tid` writes slot `tid`, the dot of
        // its chunk of the vectors.
        let mut partial = vec![0.0; t];
        for_row_chunks_mut(ctx, &mut partial, 1, |slot, p| {
            let r = chunk(x.len(), slot.start, t);
            p[0] = dot(&x[r.clone()], &y[r]);
        });
        partial.iter().sum()
    }

    /// Euclidean norm `‖x‖₂`.
    pub fn norm2(&self, x: &[f64]) -> f64 {
        self.dot(x, x).sqrt()
    }

    /// `y ← a·x + y`.
    pub fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        match self.team {
            Some(ctx) => for_row_chunks_mut(ctx, y, 1, |r, yc| axpy(a, &x[r], yc)),
            None => axpy(a, x, y),
        }
    }

    /// `y ← x + b·y`.
    pub fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "xpby length mismatch");
        match self.team {
            Some(ctx) => for_row_chunks_mut(ctx, y, 1, |r, yc| xpby(&x[r], b, yc)),
            None => xpby(x, b, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..17).map(|i| (i as f64) * 0.5).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn axpy_and_xpby() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0]);
    }

    #[test]
    fn team_kernels_match_serial_and_repeat_bitwise() {
        use sparseopt_core::prelude::*;
        use std::sync::Arc;
        let n = TEAM_MIN_LEN + 13;
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, 1.0);
        let op = ParallelCsr::baseline(Arc::new(CsrMatrix::from_coo(&coo)), ExecCtx::new(3));
        let team = VecOps::for_operator(&op, n);
        assert!(team.team.is_some(), "long vectors run on the team");
        assert!(VecOps::for_operator(&op, n - 14).team.is_none());
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let d = team.dot(&x, &y);
        assert!((d - dot(&x, &y)).abs() < 1e-10 * (1.0 + d.abs()));
        assert_eq!(d.to_bits(), team.dot(&x, &y).to_bits());
        // Elementwise updates are exact either way.
        let (mut y1, mut y2) = (y.clone(), y.clone());
        team.axpy(0.5, &x, &mut y1);
        axpy(0.5, &x, &mut y2);
        assert_eq!(y1, y2);
        team.xpby(&x, -2.0, &mut y1);
        xpby(&x, -2.0, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn scale_and_div() {
        let mut x = [2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, [1.0, 2.0]);
        let d = [2.0, 4.0];
        let mut z = [0.0, 0.0];
        elementwise_div(&[4.0, 8.0], &d, &mut z);
        assert_eq!(z, [2.0, 2.0]);
    }
}
