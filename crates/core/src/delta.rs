//! Delta-compressed CSR — the paper's MB-class optimization (Table II).
//!
//! Column indices are stored as deltas from the previous nonzero in the same
//! row, "8- or 16-bit deltas wherever possible, but never both, in order to
//! limit the branching overhead" (Section III-E). Deltas that do not fit the
//! chosen width (including each row's first, absolute index when large) are
//! escaped into a `u32` exception stream; a per-row exception pointer keeps
//! rows independently decodable so the row loop still parallelizes.
//!
//! No host operator runs over this format: a delta kernel never came within
//! 5% of the per-matrix winner on the evaluation suite. The format stays so
//! the simulator and the `ablation` binary can price each width's index
//! stream ([`DeltaCsrMatrix::index_compression_ratio`]).

use crate::csr::CsrMatrix;

/// The single delta width used for a whole matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaWidth {
    /// 1-byte deltas, sentinel `0xFF`.
    U8,
    /// 2-byte deltas, sentinel `0xFFFF`.
    U16,
}

impl DeltaWidth {
    /// Bytes per stored delta.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            DeltaWidth::U8 => 1,
            DeltaWidth::U16 => 2,
        }
    }

    /// Largest representable delta (the sentinel itself is reserved).
    #[inline]
    pub fn max_delta(self) -> u32 {
        match self {
            DeltaWidth::U8 => u8::MAX as u32 - 1,
            DeltaWidth::U16 => u16::MAX as u32 - 1,
        }
    }
}

/// Width-specific delta storage.
#[derive(Clone, Debug, PartialEq)]
enum DeltaData {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

/// CSR with delta-encoded column indices.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaCsrMatrix {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    deltas: DeltaData,
    /// Escaped absolute column indices, in stream order.
    exceptions: Vec<u32>,
    /// `exc_rowptr[i]` = exceptions consumed before row `i` starts.
    exc_rowptr: Vec<usize>,
    values: Vec<f64>,
}

impl DeltaCsrMatrix {
    /// Encodes a CSR matrix choosing the width (u8 vs u16) that minimizes the
    /// index footprint, per the paper's "one width only" rule.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        let (exc8, exc16) = count_exceptions(csr);
        let nnz = csr.nnz();
        let bytes8 = nnz + exc8 * 4;
        let bytes16 = nnz * 2 + exc16 * 4;
        let width = if bytes8 <= bytes16 {
            DeltaWidth::U8
        } else {
            DeltaWidth::U16
        };
        Self::from_csr_with_width(csr, width)
    }

    /// Encodes with an explicit width (exposed for tests and ablations).
    pub fn from_csr_with_width(csr: &CsrMatrix, width: DeltaWidth) -> Self {
        let nnz = csr.nnz();
        let mut exceptions = Vec::new();
        let mut exc_rowptr = Vec::with_capacity(csr.nrows() + 1);
        exc_rowptr.push(0);

        let max_delta = width.max_delta();
        let mut enc8 = Vec::new();
        let mut enc16 = Vec::new();
        match width {
            DeltaWidth::U8 => enc8.reserve(nnz),
            DeltaWidth::U16 => enc16.reserve(nnz),
        }

        for i in 0..csr.nrows() {
            let mut prev: u32 = 0;
            for (idx, &col) in csr.row_cols(i).iter().enumerate() {
                // First element encodes the absolute column (delta from 0).
                let delta_ok = col >= prev || idx == 0;
                let delta = col.wrapping_sub(if idx == 0 { 0 } else { prev });
                let fits = delta_ok && delta <= max_delta;
                match width {
                    DeltaWidth::U8 => {
                        if fits {
                            enc8.push(delta as u8);
                        } else {
                            enc8.push(u8::MAX);
                            exceptions.push(col);
                        }
                    }
                    DeltaWidth::U16 => {
                        if fits {
                            enc16.push(delta as u16);
                        } else {
                            enc16.push(u16::MAX);
                            exceptions.push(col);
                        }
                    }
                }
                prev = col;
            }
            exc_rowptr.push(exceptions.len());
        }

        let deltas = match width {
            DeltaWidth::U8 => DeltaData::U8(enc8),
            DeltaWidth::U16 => DeltaData::U16(enc16),
        };
        Self {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            rowptr: csr.rowptr().to_vec(),
            deltas,
            exceptions,
            exc_rowptr,
            values: csr.values().to_vec(),
        }
    }

    /// The width in use.
    pub fn width(&self) -> DeltaWidth {
        match self.deltas {
            DeltaData::U8(_) => DeltaWidth::U8,
            DeltaData::U16(_) => DeltaWidth::U16,
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

    /// Number of nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array.
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Values array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of escaped (non-fitting) indices.
    #[inline]
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// Footprint in bytes of the compressed layout (the `M_A` term after
    /// compression in the paper's MB analysis).
    pub fn footprint_bytes(&self) -> usize {
        let delta_bytes = self.nnz() * self.width().bytes();
        self.values.len() * 8
            + delta_bytes
            + self.exceptions.len() * 4
            + self.rowptr.len() * 8
            + self.exc_rowptr.len() * 8
    }

    /// Compression ratio of the index data versus plain 4-byte `colind`
    /// (< 1.0 means the encoding is smaller).
    pub fn index_compression_ratio(&self) -> f64 {
        let plain = self.nnz() * 4;
        let packed = self.nnz() * self.width().bytes() + self.exceptions.len() * 4;
        if plain == 0 {
            1.0
        } else {
            packed as f64 / plain as f64
        }
    }

    /// Decodes the column indices of row `i`, appending into `out`.
    fn decode_row_into(&self, i: usize, out: &mut Vec<u32>) {
        let mut prev = 0u32;
        let mut e = self.exc_rowptr[i];
        let range = self.rowptr[i]..self.rowptr[i + 1];
        match &self.deltas {
            DeltaData::U8(d) => {
                for k in range {
                    let col = if d[k] == u8::MAX {
                        let c = self.exceptions[e];
                        e += 1;
                        c
                    } else {
                        prev.wrapping_add(d[k] as u32)
                    };
                    prev = col;
                    out.push(col);
                }
            }
            DeltaData::U16(d) => {
                for k in range {
                    let col = if d[k] == u16::MAX {
                        let c = self.exceptions[e];
                        e += 1;
                        c
                    } else {
                        prev.wrapping_add(d[k] as u32)
                    };
                    prev = col;
                    out.push(col);
                }
            }
        }
    }

    /// Fully decodes back to a plain CSR matrix (round-trip check, tests).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut colind = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            self.decode_row_into(i, &mut colind);
        }
        CsrMatrix::from_raw(
            self.nrows,
            self.ncols,
            self.rowptr.clone(),
            colind,
            self.values.clone(),
        )
    }
}

/// Counts how many indices would escape under each width.
fn count_exceptions(csr: &CsrMatrix) -> (usize, usize) {
    let (mut e8, mut e16) = (0usize, 0usize);
    for i in 0..csr.nrows() {
        let mut prev = 0u32;
        for (idx, &col) in csr.row_cols(i).iter().enumerate() {
            let base = if idx == 0 { 0 } else { prev };
            if col < base {
                e8 += 1;
                e16 += 1;
            } else {
                let d = col - base;
                if d > DeltaWidth::U8.max_delta() {
                    e8 += 1;
                }
                if d > DeltaWidth::U16.max_delta() {
                    e16 += 1;
                }
            }
            prev = col;
        }
    }
    (e8, e16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn banded(n: usize, band: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                coo.push(i, j, (i + j) as f64 + 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn banded_picks_u8_and_round_trips() {
        let csr = banded(64, 2);
        let d = DeltaCsrMatrix::from_csr(&csr);
        assert_eq!(d.width(), DeltaWidth::U8);
        assert_eq!(d.to_csr(), csr);
        assert!(
            d.index_compression_ratio() < 0.6,
            "banded matrix must compress well"
        );
    }

    #[test]
    fn wide_rows_pick_u16() {
        // Columns spaced 1000 apart: deltas overflow u8 but fit u16.
        let mut coo = CooMatrix::new(8, 64_000);
        for i in 0..8 {
            for j in 0..32 {
                coo.push(i, j * 1000, 1.0);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let d = DeltaCsrMatrix::from_csr(&csr);
        assert_eq!(d.width(), DeltaWidth::U16);
        assert_eq!(d.to_csr(), csr);
    }

    #[test]
    fn huge_first_column_escapes() {
        let mut coo = CooMatrix::new(2, 1_000_000);
        coo.push(0, 999_999, 3.0);
        coo.push(1, 0, 4.0);
        let csr = CsrMatrix::from_coo(&coo);
        for w in [DeltaWidth::U8, DeltaWidth::U16] {
            let d = DeltaCsrMatrix::from_csr_with_width(&csr, w);
            assert_eq!(d.exception_count(), 1, "width {w:?}");
            assert_eq!(d.to_csr(), csr);
        }
    }

    #[test]
    fn sentinel_valued_delta_escapes() {
        // Delta of exactly 255 must be escaped under u8 (sentinel reserved).
        let mut coo = CooMatrix::new(1, 512);
        coo.push(0, 0, 1.0);
        coo.push(0, 255, 2.0);
        let csr = CsrMatrix::from_coo(&coo);
        let d = DeltaCsrMatrix::from_csr_with_width(&csr, DeltaWidth::U8);
        assert_eq!(d.exception_count(), 1);
        assert_eq!(d.to_csr(), csr);
    }

    #[test]
    fn footprint_smaller_than_csr_for_regular() {
        let csr = banded(256, 4);
        let d = DeltaCsrMatrix::from_csr(&csr);
        assert!(d.footprint_bytes() < csr.footprint_bytes() + 256 * 8);
        // Index stream shrinks 4x minus exceptions.
        assert!(d.index_compression_ratio() < 0.5);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(3, 3);
        let csr = CsrMatrix::from_coo(&coo);
        let d = DeltaCsrMatrix::from_csr(&csr);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.to_csr(), csr);
    }
}
