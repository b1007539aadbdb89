//! SELL-C-σ format (sliced ELLPACK with sorting window σ) — the storage
//! layer of the vectorization fix.
//!
//! The gather-based CSR SIMD kernel loses to scalar on short-row matrices:
//! every row pays a dispatch call, a horizontal reduction, and a scalar
//! remainder that covers most of the row. SELL-C-σ removes the per-row
//! bottleneck structurally. Rows are sorted by descending length inside
//! windows of `σ` rows (so the permutation stays local), grouped into chunks
//! of `C = SELL_C` consecutive rows, and each chunk is stored **slot-major**:
//! slot `j` of all `C` lanes is contiguous, so the inner loop streams
//! `vals`/`cols` with stride 1 and keeps `C` independent accumulators — no
//! per-row reduction, no remainder until the chunk's tail columns.
//!
//! Padding is bounded by the sorting: a chunk is padded to its longest row,
//! and after the σ-window sort rows of similar length share chunks, so the
//! padded slot count `Σ_chunks C · max_len(chunk)` stays near `nnz` for
//! everything but heavy-tailed matrices. The tail case (one hub row drags a
//! chunk wide) is (a) skipped at run time — lane lengths are stored sorted,
//! so kernels shrink the active lane count in the tail columns instead of
//! multiplying stored zeros — and (b) surfaced to the optimizer through
//! [`sell_padded_slots`] so the sim can veto SELL where padding would blow
//! the memory stream (the failure mode of plain ELLPACK, whose single slab
//! pads every row to the longest one).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// Chunk height `C`: the number of rows stored interleaved per chunk, i.e.
/// the number of independent accumulators the kernels keep live. Eight
/// doubles are two AVX2 vectors — enough independent FMA chains to hide the
/// latency the per-row CSR reduction serializes on.
pub const SELL_C: usize = 8;

/// Default sorting window σ: rows are length-sorted only inside windows of
/// this many rows, so the row permutation stays cache-local while chunks
/// still group rows of similar length. Rounded up to a multiple of
/// [`SELL_C`] at construction.
pub const SELL_SIGMA: usize = 4096;

/// SELL-C-σ storage: slot-major padded chunks of `C` length-sorted rows.
#[derive(Clone, Debug, PartialEq)]
pub struct SellMatrix {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    sigma: usize,
    /// Cumulative slot offsets per chunk (`nchunks + 1` entries): chunk `c`
    /// owns `cols[chunk_ptr[c]..chunk_ptr[c+1]]`, which is
    /// `C · chunk_width(c)` slots.
    chunk_ptr: Vec<usize>,
    /// Column indices, slot-major per chunk: slot `j` of lane `r` in chunk
    /// `c` lives at `chunk_ptr[c] + j·C + r`. Padded slots hold column 0.
    cols: Vec<u32>,
    /// Values in the same layout; padded slots hold 0.0, so padded slots are
    /// arithmetic no-ops.
    vals: Vec<f64>,
    /// Length of each lane (`nchunks · C` entries, descending within each
    /// chunk thanks to the sort); lanes past `nrows` in the final chunk have
    /// length 0.
    lane_len: Vec<u32>,
    /// Row permutation: lane position `p` holds original row `perm[p]`
    /// (`nrows` entries).
    perm: Vec<usize>,
}

impl SellMatrix {
    /// Converts from CSR with the default sorting window [`SELL_SIGMA`].
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_csr_with(csr, SELL_SIGMA)
    }

    /// Converts from CSR, sorting rows by descending length inside windows
    /// of `sigma` rows (rounded up to a multiple of [`SELL_C`]).
    pub fn from_csr_with(csr: &CsrMatrix, sigma: usize) -> Self {
        let nrows = csr.nrows();
        let sigma = sigma.max(SELL_C).next_multiple_of(SELL_C);
        let perm = sorted_perm(csr, sigma);

        let nchunks = nrows.div_ceil(SELL_C);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        chunk_ptr.push(0usize);
        let mut lane_len = vec![0u32; nchunks * SELL_C];
        for c in 0..nchunks {
            let mut width = 0usize;
            for r in 0..SELL_C {
                let p = c * SELL_C + r;
                let len = if p < nrows { csr.row_nnz(perm[p]) } else { 0 };
                lane_len[p] = len as u32;
                width = width.max(len);
            }
            chunk_ptr.push(chunk_ptr[c] + width * SELL_C);
        }

        let slots = *chunk_ptr.last().unwrap();
        let mut cols = vec![0u32; slots];
        let mut vals = vec![0.0f64; slots];
        for (c, &base) in chunk_ptr[..nchunks].iter().enumerate() {
            for r in 0..SELL_C {
                let p = c * SELL_C + r;
                if p >= nrows {
                    continue;
                }
                let (rc, rv) = (csr.row_cols(perm[p]), csr.row_vals(perm[p]));
                for (j, (&col, &val)) in rc.iter().zip(rv).enumerate() {
                    cols[base + j * SELL_C + r] = col;
                    vals[base + j * SELL_C + r] = val;
                }
            }
        }

        Self {
            nrows,
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            sigma,
            chunk_ptr,
            cols,
            vals,
            lane_len,
            perm,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored (unpadded) nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The sorting window actually used (multiple of [`SELL_C`]).
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of `C`-row chunks.
    #[inline]
    pub fn nchunks(&self) -> usize {
        self.chunk_ptr.len() - 1
    }

    /// Cumulative slot offsets per chunk (`nchunks + 1` entries) — also the
    /// padded-work weight vector the kernels partition by.
    #[inline]
    pub fn chunk_ptr(&self) -> &[usize] {
        &self.chunk_ptr
    }

    /// Slot count of chunk `c` divided by `C`: the padded width.
    #[inline]
    pub fn chunk_width(&self, c: usize) -> usize {
        (self.chunk_ptr[c + 1] - self.chunk_ptr[c]) / SELL_C
    }

    /// Column indices of chunk `c`, slot-major (`width · C` entries).
    #[inline]
    pub fn chunk_cols(&self, c: usize) -> &[u32] {
        &self.cols[self.chunk_ptr[c]..self.chunk_ptr[c + 1]]
    }

    /// Values of chunk `c`, slot-major (`width · C` entries).
    #[inline]
    pub fn chunk_vals(&self, c: usize) -> &[f64] {
        &self.vals[self.chunk_ptr[c]..self.chunk_ptr[c + 1]]
    }

    /// Lane lengths of chunk `c` (`C` entries, descending).
    #[inline]
    pub fn chunk_lens(&self, c: usize) -> &[u32] {
        &self.lane_len[c * SELL_C..(c + 1) * SELL_C]
    }

    /// The lane → original-row permutation (`nrows` entries).
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Total padded slots (`Σ_chunks C · width`).
    #[inline]
    pub fn padded_slots(&self) -> usize {
        *self.chunk_ptr.last().unwrap_or(&0)
    }

    /// Fraction of stored slots that are padding (0 = perfectly regular).
    pub fn padding_ratio(&self) -> f64 {
        let slots = self.padded_slots();
        if slots == 0 {
            0.0
        } else {
            1.0 - self.nnz as f64 / slots as f64
        }
    }

    /// Footprint in bytes, padding and permutation included — the traffic
    /// quantity the sim charges against the SELL stream.
    pub fn footprint_bytes(&self) -> usize {
        self.vals.len() * 8
            + self.cols.len() * 4
            + self.lane_len.len() * 4
            + self.perm.len() * 8
            + self.chunk_ptr.len() * 8
    }

    /// `y = A·x`: serial reference sweep (tests and conversion checks; the
    /// parallel operator is [`crate::kernels::SellKernel`]).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert_eq!(y.len(), self.nrows, "y length mismatch");
        for c in 0..self.nchunks() {
            let (cols, vals) = (self.chunk_cols(c), self.chunk_vals(c));
            let lens = self.chunk_lens(c);
            let mut acc = [0.0f64; SELL_C];
            for (r, a) in acc.iter_mut().enumerate() {
                for j in 0..lens[r] as usize {
                    let e = j * SELL_C + r;
                    *a += vals[e] * x[cols[e] as usize];
                }
            }
            for (r, &a) in acc.iter().enumerate() {
                let p = c * SELL_C + r;
                if p < self.nrows {
                    y[self.perm[p]] = a;
                }
            }
        }
    }

    /// Converts back to COO, skipping padding (round-trip checks).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz);
        for c in 0..self.nchunks() {
            let (cols, vals) = (self.chunk_cols(c), self.chunk_vals(c));
            let lens = self.chunk_lens(c);
            for (r, &len) in lens.iter().enumerate() {
                let p = c * SELL_C + r;
                if p >= self.nrows {
                    continue;
                }
                for j in 0..len as usize {
                    let e = j * SELL_C + r;
                    coo.push(self.perm[p], cols[e] as usize, vals[e]);
                }
            }
        }
        coo
    }
}

/// Row permutation of the σ-window descending-length sort (stable, so equal
/// lengths keep their original order and the layout is deterministic).
fn sorted_perm(csr: &CsrMatrix, sigma: usize) -> Vec<usize> {
    let nrows = csr.nrows();
    let mut perm: Vec<usize> = (0..nrows).collect();
    for window in perm.chunks_mut(sigma) {
        window.sort_by_key(|&i| std::cmp::Reverse(csr.row_nnz(i)));
    }
    perm
}

/// Padded slot count a SELL-C-σ conversion of `csr` would store, without
/// building it — the cheap `O(nnz + nrows log σ)` probe the feature
/// extractor and the sim's traffic model share to price SELL padding.
pub fn sell_padded_slots(csr: &CsrMatrix, sigma: usize) -> usize {
    let sigma = sigma.max(SELL_C).next_multiple_of(SELL_C);
    let mut lens: Vec<usize> = (0..csr.nrows()).map(|i| csr.row_nnz(i)).collect();
    let mut slots = 0usize;
    for window in lens.chunks_mut(sigma) {
        window.sort_unstable_by(|a, b| b.cmp(a));
        for chunk in window.chunks(SELL_C) {
            slots += chunk[0] * SELL_C;
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SparseLinOp;

    fn sample(lens: &[usize]) -> CsrMatrix {
        let n = lens.len();
        let w = lens.iter().copied().max().unwrap_or(1).max(n);
        let mut coo = CooMatrix::new(n, w);
        for (i, &l) in lens.iter().enumerate() {
            for j in 0..l {
                coo.push(i, (i + j * 3) % w, (i * 10 + j) as f64 + 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn regular_matrix_has_no_padding() {
        let csr = sample(&[4; 16]);
        let sell = SellMatrix::from_csr(&csr);
        assert_eq!(sell.nchunks(), 2);
        assert_eq!(sell.padding_ratio(), 0.0);
        assert_eq!(sell.padded_slots(), csr.nnz());
        assert_eq!(sell_padded_slots(&csr, SELL_SIGMA), csr.nnz());
    }

    #[test]
    fn sorting_confines_the_hub_to_one_chunk() {
        // One 64-long hub among 2-long rows: after the descending sort the
        // hub shares its chunk with seven 2-rows, every other chunk is
        // padding-free, so the padded slots stay ≪ ELL's nrows · 64.
        let mut lens = vec![2usize; 64];
        lens[11] = 64;
        let csr = sample(&lens);
        let sell = SellMatrix::from_csr(&csr);
        assert_eq!(sell.padded_slots(), 64 * SELL_C + 2 * SELL_C * 7);
        assert_eq!(sell.padded_slots(), sell_padded_slots(&csr, SELL_SIGMA));
        // Lane lengths descend within each chunk (the tail-skip invariant).
        for c in 0..sell.nchunks() {
            let l = sell.chunk_lens(c);
            assert!(l.windows(2).all(|w| w[0] >= w[1]), "chunk {c}: {l:?}");
        }
    }

    #[test]
    fn sigma_windows_keep_the_permutation_local() {
        let mut lens = vec![1usize; 64];
        lens[0] = 5; // window 0's longest
        lens[40] = 9; // window 1's longest
        let csr = sample(&lens);
        let sell = SellMatrix::from_csr_with(&csr, 32);
        assert_eq!(sell.sigma(), 32);
        // Each window's longest row leads its own window — the sort never
        // moves a row across a σ boundary.
        assert_eq!(sell.perm()[0], 0);
        assert_eq!(sell.perm()[32], 40);
    }

    #[test]
    fn spmv_matches_csr_reference() {
        let csr = sample(&[3, 7, 0, 5, 1, 4, 0, 0, 2, 9, 9, 1]);
        let sell = SellMatrix::from_csr(&csr);
        let x: Vec<f64> = (0..csr.ncols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut want = vec![0.0; csr.nrows()];
        crate::kernels::SerialCsr::new(std::sync::Arc::new(csr.clone())).spmv(&x, &mut want);
        let mut got = vec![f64::NAN; csr.nrows()];
        sell.spmv(&x, &mut got);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn round_trip_preserves_matrix() {
        for lens in [&[2usize, 5, 3, 0, 1][..], &[0; 9], &[7; 23]] {
            let csr = sample(lens);
            let sell = SellMatrix::from_csr(&csr);
            assert_eq!(CsrMatrix::from_coo(&sell.to_coo()), csr, "lens {lens:?}");
        }
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(3, 3));
        let sell = SellMatrix::from_csr(&csr);
        assert_eq!(sell.nchunks(), 1);
        assert_eq!(sell.padded_slots(), 0);
        let mut y = vec![1.0; 3];
        sell.spmv(&[0.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }
}
