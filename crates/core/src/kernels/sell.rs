//! Parallel operator over [`SellMatrix`] — the CMP-class vectorization that
//! replaces the per-row gather kernel (Table II "inner loop unrolling +
//! vectorization", done so it actually wins).
//!
//! Why per-row SIMD loses: a CSR row dot product is one serial reduction,
//! so a short row spends its time in kernel dispatch, the horizontal sum,
//! and the scalar remainder — the vector unit never fills. The SELL chunk
//! kernel inverts the layout: `C` rows advance together through a stride-1
//! `vals`/`cols` stream holding `C` independent accumulators, so there is no
//! per-row reduction and no per-row remainder, and the only gather left is
//! the unavoidable `x` access.
//!
//! Per-chunk dispatch is by row-length bucket, resolved **once at operator
//! construction** (no per-row — let alone per-element — feature detection):
//! degenerate chunks write zeros, short chunks run the unrolled scalar
//! microkernel (`C` independent chains already saturate the FMA ports when
//! the stream is short), and long chunks run the AVX2 microkernel when the
//! host has it. Tail columns past a lane's length shrink the active lane
//! count instead of multiplying stored padding (lane lengths are sorted
//! descending inside each chunk), so a hub row costs its own nonzeros, not
//! `C ×` its length.

use super::rowprim::SPMM_COL_TILE;
use super::transpose::TransposePlan;
use super::{check_apply_multi_operands, check_apply_operands, Apply, SparseLinOp};
use crate::multivec::MultiVec;
use crate::partition::Partition;
use crate::pool::ExecCtx;
use crate::sell::{SellMatrix, SELL_C};
use crate::util::SendMutPtr;
use std::sync::Arc;
use std::time::Duration;

/// Minimum fully-populated width at which the AVX2 chunk microkernel is
/// dispatched. Below it the unrolled lanes win: `_mm256_i32gather_pd`
/// costs several cycles per element regardless of index locality, so the
/// gather only amortizes once every lane streams a long row — measured on
/// the ci_bench suite, the unrolled kernel beats the gather kernel by
/// 1.6–1.8× on everything with short rows.
const SIMD_MIN_WIDTH: usize = 64;

/// The inner microkernel a chunk dispatches to, resolved once when the
/// operator is built — the per-row `simd_available()` checks of the CSR
/// SIMD path are exactly the overhead this operator exists to remove.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChunkKernel {
    /// Unrolled scalar lanes (`C` independent accumulator chains).
    Unrolled,
    /// AVX2 lanes for wide chunks, unrolled lanes for narrow ones.
    Avx2,
}

impl ChunkKernel {
    fn label(self) -> &'static str {
        match self {
            ChunkKernel::Unrolled => "unrolled",
            ChunkKernel::Avx2 => "simd",
        }
    }
}

/// Parallel SELL-C-σ operator: chunk-parallel forward sweep, shared
/// scratch-merge transpose, full `{NoTrans, Trans} × {vec, multivec}`
/// surface.
pub struct SellKernel {
    matrix: Arc<SellMatrix>,
    ctx: Arc<ExecCtx>,
    kernel: ChunkKernel,
    /// Chunk ranges balanced by padded slots (the actual stream cost).
    part: Partition,
    tplan: TransposePlan,
}

impl SellKernel {
    /// Builds the operator. `vectorize` requests the AVX2 microkernel; it
    /// resolves to the unrolled one when the host lacks AVX2, so the
    /// reported label always matches what runs.
    pub fn new(matrix: Arc<SellMatrix>, vectorize: bool, ctx: Arc<ExecCtx>) -> Self {
        let kernel = if vectorize && crate::util::simd_available() {
            ChunkKernel::Avx2
        } else {
            ChunkKernel::Unrolled
        };
        let nthreads = ctx.nthreads();
        let part = Partition::by_rowptr(matrix.chunk_ptr(), nthreads);
        let tplan = TransposePlan::by_rowptr(matrix.chunk_ptr(), matrix.ncols(), nthreads);
        Self {
            matrix,
            ctx,
            kernel,
            part,
            tplan,
        }
    }

    /// The CMP-pool configuration: vectorized where the host allows.
    pub fn vectorized(matrix: Arc<SellMatrix>, ctx: Arc<ExecCtx>) -> Self {
        Self::new(matrix, true, ctx)
    }

    /// The stored matrix.
    pub fn matrix(&self) -> &Arc<SellMatrix> {
        &self.matrix
    }

    /// Single-vector sweep of one chunk: `C` accumulators over the slot
    /// stream, active lanes shrinking through the tail columns, results
    /// scattered to `y[perm[..]]`.
    ///
    /// # Safety
    /// The caller must own the chunk's output rows exclusively (guaranteed
    /// by the disjoint chunk partition and `perm` being a permutation).
    unsafe fn chunk_spmv(&self, c: usize, x: &[f64], yp: &SendMutPtr<f64>) {
        let m = &self.matrix;
        let (cols, vals) = (m.chunk_cols(c), m.chunk_vals(c));
        let lens = m.chunk_lens(c);
        let full = lens[SELL_C - 1] as usize; // min lane length: all-lanes-active prefix
        let width = m.chunk_width(c);

        let mut acc = [0.0f64; SELL_C];
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            ChunkKernel::Avx2 if full >= SIMD_MIN_WIDTH => {
                // SAFETY: AVX2 verified at construction; slot stream bounds
                // hold by SellMatrix construction.
                unsafe { chunk_lanes_avx2(cols, vals, x, full, &mut acc) };
            }
            _ => {
                for j in 0..full {
                    let o = j * SELL_C;
                    for (r, a) in acc.iter_mut().enumerate() {
                        *a += vals[o + r] * x[cols[o + r] as usize];
                    }
                }
            }
        }
        // Tail columns: lane lengths are descending, so the active lane
        // count only shrinks — padded slots are skipped, not multiplied.
        let mut active = SELL_C;
        for j in full..width {
            while active > 0 && lens[active - 1] as usize <= j {
                active -= 1;
            }
            let o = j * SELL_C;
            for (r, a) in acc.iter_mut().enumerate().take(active) {
                *a += vals[o + r] * x[cols[o + r] as usize];
            }
        }

        let rows_here = SELL_C.min(m.nrows() - (c * SELL_C).min(m.nrows()));
        for (r, &a) in acc.iter().enumerate().take(rows_here) {
            // SAFETY: forwarded from the caller's contract.
            unsafe { yp.write(m.perm()[c * SELL_C + r], a) };
        }
    }

    /// Multi-vector sweep of one chunk: per lane, a register-tiled pass over
    /// the lane's (strided) slots, written to `y[perm[lane] · k ..]`.
    ///
    /// # Safety
    /// Same exclusive-output contract as [`Self::chunk_spmv`].
    unsafe fn chunk_spmm(&self, c: usize, xs: &[f64], k: usize, yp: &SendMutPtr<f64>) {
        let m = &self.matrix;
        let (cols, vals) = (m.chunk_cols(c), m.chunk_vals(c));
        let lens = m.chunk_lens(c);
        let rows_here = SELL_C.min(m.nrows() - (c * SELL_C).min(m.nrows()));
        for (r, &lane) in lens.iter().enumerate().take(rows_here) {
            let len = lane as usize;
            let out = m.perm()[c * SELL_C + r] * k;
            let mut t0 = 0;
            while t0 < k {
                let tl = (k - t0).min(SPMM_COL_TILE);
                let acc = match self.kernel {
                    #[cfg(target_arch = "x86_64")]
                    ChunkKernel::Avx2 if tl == SPMM_COL_TILE => {
                        // No width gate here: unlike the single-vector
                        // microkernel this path loads `x` rows contiguously
                        // (no gather to amortize), so it wins at any lane
                        // length. SAFETY: AVX2 verified at construction; a
                        // full tile keeps every load inside the `n·k` block.
                        unsafe { lane_tile8_avx2(cols, vals, xs, r, len, t0, k) }
                    }
                    _ => {
                        let mut a = [0.0f64; SPMM_COL_TILE];
                        for j in 0..len {
                            let e = j * SELL_C + r;
                            let v = vals[e];
                            let base = cols[e] as usize * k + t0;
                            for (s, &xv) in a[..tl].iter_mut().zip(&xs[base..base + tl]) {
                                *s += v * xv;
                            }
                        }
                        a
                    }
                };
                for (t, &a) in acc[..tl].iter().enumerate() {
                    // SAFETY: forwarded from the caller's contract.
                    unsafe { yp.write(out + t0 + t, a) };
                }
                t0 += tl;
            }
        }
    }

    /// Shared transposed path: chunks scatter their stored (unpadded)
    /// elements into the thread-private scratch; the plan merges.
    fn transpose_flat(&self, xs: &[f64], k: usize, y: &mut [f64]) {
        let m = &self.matrix;
        self.tplan.execute(&self.ctx, k, y, |chunks, scratch| {
            for c in chunks {
                let (cols, vals) = (m.chunk_cols(c), m.chunk_vals(c));
                let lens = m.chunk_lens(c);
                let rows_here = SELL_C.min(m.nrows() - (c * SELL_C).min(m.nrows()));
                for r in 0..rows_here {
                    let xrow = &xs[m.perm()[c * SELL_C + r] * k..][..k];
                    for j in 0..lens[r] as usize {
                        let e = j * SELL_C + r;
                        let dst = &mut scratch[cols[e] as usize * k..][..k];
                        for (d, &xv) in dst.iter_mut().zip(xrow) {
                            *d += vals[e] * xv;
                        }
                    }
                }
            }
        });
    }

    fn forward_flat(&self, xs: &[f64], k: usize, y: &mut [f64]) {
        let yp = SendMutPtr::new(y);
        let part = &self.part;
        self.ctx.run(|tid| {
            if tid >= part.len() {
                return;
            }
            for c in part.range(tid) {
                // SAFETY: chunk ranges are disjoint and `perm` is a
                // permutation, so output rows are written exactly once.
                unsafe {
                    if k == 1 {
                        self.chunk_spmv(c, xs, &yp);
                    } else {
                        self.chunk_spmm(c, xs, k, &yp);
                    }
                }
            }
        });
    }
}

impl SparseLinOp for SellKernel {
    fn name(&self) -> String {
        format!("sell-c{}[{}]", SELL_C, self.kernel.label())
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

/// AVX2 microkernel for the fully-populated prefix of a chunk: two 4-lane
/// accumulator vectors advance through the slot-major stream; `vals`/`cols`
/// loads are stride-1 and only `x` is gathered.
///
/// # Safety
/// Requires AVX2. `cols`/`vals` must hold at least `full · SELL_C` slots and
/// every column index must be in bounds of `x`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn chunk_lanes_avx2(
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
    full: usize,
    acc: &mut [f64; SELL_C],
) {
    use core::arch::x86_64::*;
    unsafe {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        for j in 0..full {
            let o = j * SELL_C;
            let i0 = _mm_loadu_si128(cols.as_ptr().add(o) as *const __m128i);
            let i1 = _mm_loadu_si128(cols.as_ptr().add(o + 4) as *const __m128i);
            let x0 = _mm256_i32gather_pd::<8>(x.as_ptr(), i0);
            let x1 = _mm256_i32gather_pd::<8>(x.as_ptr(), i1);
            let v0 = _mm256_loadu_pd(vals.as_ptr().add(o));
            let v1 = _mm256_loadu_pd(vals.as_ptr().add(o + 4));
            a0 = _mm256_fmadd_pd(v0, x0, a0);
            a1 = _mm256_fmadd_pd(v1, x1, a1);
        }
        _mm256_storeu_pd(acc.as_mut_ptr(), a0);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
    }
}

/// AVX2 full column tile of one SELL lane's multi-vector pass: the lane's
/// slot stream is strided (`j·C + r`), but each nonzero's `x` row slice is
/// contiguous — two 256-bit loads and two FMAs per element, no gather.
/// Per lane the accumulation order matches the scalar tile; the FMA
/// contraction means agreement to rounding, not bit for bit.
///
/// # Safety
/// Requires AVX2; `t0 + SPMM_COL_TILE <= k`, lane `r < SELL_C` with `len`
/// stored slots, and all column indices in bounds of the `n·k` block
/// (SellMatrix construction invariants).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn lane_tile8_avx2(
    cols: &[u32],
    vals: &[f64],
    xs: &[f64],
    r: usize,
    len: usize,
    t0: usize,
    k: usize,
) -> [f64; SPMM_COL_TILE] {
    use core::arch::x86_64::*;
    unsafe {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        for j in 0..len {
            let e = j * SELL_C + r;
            let base = cols[e] as usize * k + t0;
            let vv = _mm256_set1_pd(vals[e]);
            let x0 = _mm256_loadu_pd(xs.as_ptr().add(base));
            let x1 = _mm256_loadu_pd(xs.as_ptr().add(base + 4));
            a0 = _mm256_fmadd_pd(vv, x0, a0);
            a1 = _mm256_fmadd_pd(vv, x1, a1);
        }
        let mut out = [0.0f64; SPMM_COL_TILE];
        _mm256_storeu_pd(out.as_mut_ptr(), a0);
        _mm256_storeu_pd(out.as_mut_ptr().add(4), a1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::kernels::SerialCsr;

    fn random(nrows: usize, ncols: usize, avg: usize, seed: u64) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..nrows {
            for _ in 0..(next() % (2 * avg as u64 + 1)) {
                let c = (next() % ncols as u64) as usize;
                coo.push(i, c, (next() % 19) as f64 - 9.0);
            }
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }

    fn assert_matches(csr: &Arc<CsrMatrix>, nthreads: usize, vectorize: bool) {
        let (n, m) = (csr.nrows(), csr.ncols());
        let x: Vec<f64> = (0..m).map(|i| 0.2 + (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.0; n];
        SerialCsr::new(csr.clone()).spmv(&x, &mut want);
        let sell = Arc::new(SellMatrix::from_csr(csr));
        let op = SellKernel::new(sell, vectorize, ExecCtx::new(nthreads));
        let mut y = vec![f64::NAN; n];
        op.spmv(&x, &mut y);
        for (i, (a, b)) in y.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "row {i}, t={nthreads}, {}: {a} vs {b}",
                op.name()
            );
        }
    }

    #[test]
    fn matches_serial_across_threads_and_kernels() {
        for seed in [1u64, 7, 42] {
            let csr = random(301, 277, 6, seed);
            for nthreads in [1, 2, 5] {
                assert_matches(&csr, nthreads, false);
                assert_matches(&csr, nthreads, true);
            }
        }
    }

    #[test]
    fn hub_row_and_empty_rows() {
        let mut coo = CooMatrix::new(65, 200);
        for j in 0..200 {
            coo.push(30, j, (j % 7) as f64 - 3.0);
        }
        for i in (0..65).step_by(3) {
            coo.push(i, (i * 5) % 200, i as f64 * 0.5 + 1.0);
        }
        let csr = Arc::new(CsrMatrix::from_coo(&coo));
        assert_matches(&csr, 3, true);
    }

    #[test]
    fn transpose_matches_serial_reference() {
        let csr = random(160, 90, 4, 9);
        let x: Vec<f64> = (0..160).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut want = vec![0.0; 90];
        SerialCsr::new(csr.clone()).apply(Apply::Trans, &x, &mut want);
        let sell = Arc::new(SellMatrix::from_csr(&csr));
        let op = SellKernel::vectorized(sell, ExecCtx::new(3));
        let mut y = vec![f64::NAN; 90];
        op.apply(Apply::Trans, &x, &mut y);
        for (i, (a, b)) in y.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "col {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn multi_vector_matches_column_spmvs() {
        let csr = random(120, 120, 5, 3);
        let k = 5usize;
        let x = MultiVec::from_fn(120, k, |i, j| (i as f64 * 0.07 + j as f64 * 0.31).sin());
        let sell = Arc::new(SellMatrix::from_csr(&csr));
        let op = SellKernel::vectorized(sell, ExecCtx::new(4));
        let mut y = MultiVec::zeros(120, k);
        op.spmm(&x, &mut y);
        let serial = SerialCsr::new(csr);
        for j in 0..k {
            let mut col = vec![0.0; 120];
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
    fn name_capabilities_and_counters() {
        let csr = random(40, 40, 3, 5);
        let sell = Arc::new(SellMatrix::from_csr(&csr));
        let nnz = sell.nnz();
        let op = SellKernel::new(sell, false, ExecCtx::new(2));
        assert_eq!(op.name(), "sell-c8[unrolled]");
        let caps = op.capabilities();
        assert!(caps.transpose && caps.multi_vec);
        assert_eq!(op.nnz(), nnz);
        assert_eq!(op.shape(), (40, 40));
        let mut y = vec![0.0; 40];
        op.spmv(&[1.0; 40], &mut y);
        assert_eq!(op.last_thread_times().len(), 2);
    }

    #[test]
    fn empty_matrix_zeroes_output() {
        let csr = Arc::new(CsrMatrix::from_coo(&CooMatrix::new(5, 5)));
        let sell = Arc::new(SellMatrix::from_csr(&csr));
        let op = SellKernel::vectorized(sell, ExecCtx::new(2));
        let mut y = vec![f64::NAN; 5];
        op.spmv(&[1.0; 5], &mut y);
        assert_eq!(y, vec![0.0; 5]);
    }
}
