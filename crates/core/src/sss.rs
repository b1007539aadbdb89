//! Symmetric sparse skyline storage (SSS) — the MB-class traffic halver the
//! delta compression of [`crate::delta`] leaves on the table.
//!
//! A symmetric matrix `A = Aᵀ` is fully determined by its strictly lower
//! triangle `L` and diagonal `D`: `A = L + D + Lᵀ`. [`SssCsr`] stores only
//! those — `L` in CSR layout plus a dense diagonal array — so the streamed
//! matrix bytes of one application drop to roughly half of the full CSR
//! footprint (each stored off-diagonal element is *used twice* per sweep:
//! once on the gather side `L·x` and once on the scatter side `Lᵀ·x`).
//! The Gauss-Seidel smoother [`crate::kernels::SymGsKernel`] sweeps this
//! layout; the simulator prices the halved SpMV stream.
//!
//! Symmetry is verified **exactly** at construction: a single mismatched
//! pair (structure or value) makes [`SssCsr::try_from_csr`] return `None`
//! rather than silently computing with the wrong matrix. The same loop is
//! exposed as [`symmetry_share`] for feature extraction, so the classifier
//! can see how close to symmetric a matrix is without committing to the
//! conversion.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// The one symmetry loop behind [`symmetry_share`] and [`is_symmetric`]:
/// returns `(offdiag, matched)`, the off-diagonal entry count and how many
/// of those entries have their mirrored partner (same coordinate
/// transposed, bitwise-equal value). Each mirrored pair is looked up once,
/// from its upper entry, and a match counts for both of its entries; so
/// `matched` is even, and `matched == offdiag` exactly when every lower
/// entry has a partner too. With `stop_at_miss`, the first upper entry
/// without a partner returns `None`. Relies on [`CsrMatrix`]'s sorted,
/// duplicate-free rows.
fn mirrored_counts(csr: &CsrMatrix, stop_at_miss: bool) -> Option<(usize, usize)> {
    let mut offdiag = 0usize;
    let mut matched = 0usize;
    for i in 0..csr.nrows() {
        let cols = csr.row_cols(i);
        let upper = cols.partition_point(|&c| c as usize <= i);
        let has_diag = upper > 0 && cols[upper - 1] as usize == i;
        offdiag += cols.len() - usize::from(has_diag);
        for (&c, &v) in cols[upper..].iter().zip(&csr.row_vals(i)[upper..]) {
            let c = c as usize;
            match csr.row_cols(c).binary_search(&(i as u32)) {
                Ok(k) if csr.row_vals(c)[k] == v => matched += 2,
                _ if stop_at_miss => return None,
                _ => {}
            }
        }
    }
    Some((offdiag, matched))
}

/// Fraction of off-diagonal nonzeros whose exact symmetric partner exists
/// (same coordinate transposed, bitwise-equal value). `1.0` for a symmetric
/// matrix, `0.0` for a non-square one; a matrix with no off-diagonal
/// entries (diagonal or empty) counts as fully symmetric.
///
/// Cost: one binary search into the partner row's sorted column indices
/// per *upper* off-diagonal entry — about half the `O(NNZ · log
/// max_row_nnz)` of searching from every entry.
pub fn symmetry_share(csr: &CsrMatrix) -> f64 {
    if csr.nrows() != csr.ncols() {
        return 0.0;
    }
    let (offdiag, matched) =
        mirrored_counts(csr, false).expect("a scan that does not stop at a miss completes");
    if offdiag == 0 {
        1.0
    } else {
        matched as f64 / offdiag as f64
    }
}

/// True when the matrix is square and exactly equal to its transpose.
/// Unlike [`symmetry_share`] this returns on the **first** upper entry
/// without a partner, so rejecting an asymmetric matrix (the common case
/// for blind plan fallbacks and per-matrix probes) does not pay the full
/// scan; a final count check catches lower entries with no partner.
pub fn is_symmetric(csr: &CsrMatrix) -> bool {
    csr.nrows() == csr.ncols()
        && mirrored_counts(csr, true).is_some_and(|(offdiag, matched)| matched == offdiag)
}

/// Canonical exactly-symmetric projection of arbitrary triplets: duplicates
/// are accumulated per **unordered** pair first (so both orientations sum in
/// the same order), then one bitwise-identical value is emitted for each
/// orientation. The result always passes [`SssCsr::try_from_csr`]'s exact
/// check — the shared construction behind the symmetric generators and the
/// equivalence suites' symmetrized inputs.
pub fn symmetrize_triplets(entries: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    let mut acc: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for &(r, c, v) in entries {
        *acc.entry((r.min(c), r.max(c))).or_insert(0.0) += v;
    }
    let mut out = Vec::with_capacity(2 * acc.len());
    for (&(a, b), &v) in &acc {
        out.push((a, b, v));
        if a != b {
            out.push((b, a, v));
        }
    }
    out
}

/// Symmetric sparse skyline storage: the strictly lower triangle in CSR
/// layout plus a dense diagonal.
///
/// ```
/// use sparseopt_core::coo::CooMatrix;
/// use sparseopt_core::csr::CsrMatrix;
/// use sparseopt_core::sss::SssCsr;
///
/// // A = [2 1; 1 3]: 4 stored entries in CSR, 1 + dense diagonal in SSS.
/// let mut coo = CooMatrix::new(2, 2);
/// for (r, c, v) in [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)] {
///     coo.push(r, c, v);
/// }
/// let csr = CsrMatrix::from_coo(&coo);
/// let sss = SssCsr::try_from_csr(&csr).expect("A is symmetric");
/// assert_eq!(sss.stored_nnz(), 1);          // strictly lower triangle
/// assert_eq!(sss.logical_nnz(), 4);         // the matrix it represents
/// assert_eq!(sss.to_csr(), csr);            // lossless round trip
/// assert!(sss.footprint_bytes() < csr.footprint_bytes());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SssCsr {
    n: usize,
    /// Row pointer of the strictly lower triangle (`n + 1` entries).
    rowptr: Vec<usize>,
    /// Column indices of the strictly lower triangle (`stored_nnz` entries,
    /// each `< row`).
    colind: Vec<u32>,
    /// Values of the strictly lower triangle.
    values: Vec<f64>,
    /// Dense diagonal (zeros where the matrix has no diagonal entry).
    diag: Vec<f64>,
    /// Nonzero count of the represented (expanded) matrix.
    logical_nnz: usize,
}

impl SssCsr {
    /// Converts a CSR matrix into symmetric storage, returning `None` when
    /// the matrix is not square or not *exactly* symmetric (a mismatched
    /// pair or unequal mirrored value). Cost: one [`is_symmetric`]
    /// verification plus an `O(NNZ)` triangle-split pass.
    pub fn try_from_csr(csr: &CsrMatrix) -> Option<Self> {
        if !is_symmetric(csr) {
            return None;
        }
        let n = csr.nrows();
        let mut rowptr = vec![0usize; n + 1];
        for i in 0..n {
            rowptr[i + 1] = rowptr[i]
                + csr
                    .row_cols(i)
                    .iter()
                    .filter(|&&c| (c as usize) < i)
                    .count();
        }
        let lower_nnz = rowptr[n];
        let mut colind = Vec::with_capacity(lower_nnz);
        let mut values = Vec::with_capacity(lower_nnz);
        let mut diag = vec![0.0f64; n];
        for (i, d) in diag.iter_mut().enumerate() {
            for (&c, &v) in csr.row_cols(i).iter().zip(csr.row_vals(i)) {
                let c = c as usize;
                if c < i {
                    colind.push(c as u32);
                    values.push(v);
                } else if c == i {
                    *d = v;
                }
            }
        }
        Some(Self {
            n,
            rowptr,
            colind,
            values,
            diag,
            logical_nnz: csr.nnz(),
        })
    }

    /// Expands back to full CSR. This is the exact inverse of
    /// [`Self::try_from_csr`] for matrices without explicitly stored `0.0`
    /// diagonal entries: the dense-diagonal split cannot distinguish a
    /// stored zero from an absent entry, so such entries (which no real
    /// symmetric source stores) do not reappear and the expansion then has
    /// fewer stored nonzeros than [`Self::logical_nnz`]. Off-diagonal
    /// structure and all values round-trip losslessly.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.logical_nnz);
        for i in 0..self.n {
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                coo.push(i, c as usize, v);
                coo.push(c as usize, i, v);
            }
        }
        for (i, &d) in self.diag.iter().enumerate() {
            if d != 0.0 {
                coo.push(i, i, d);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Matrix dimension (square by construction).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rows (alias of [`Self::n`], mirroring [`CsrMatrix`]).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.n
    }

    /// Number of columns (alias of [`Self::n`]).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Stored strictly-lower-triangle nonzeros.
    #[inline]
    pub fn stored_nnz(&self) -> usize {
        self.colind.len()
    }

    /// Nonzeros of the represented full matrix (the `NNZ` every Gflop/s
    /// figure is normalized by — each stored off-diagonal element performs
    /// two fused multiply-adds per sweep).
    #[inline]
    pub fn logical_nnz(&self) -> usize {
        self.logical_nnz
    }

    /// Row pointer of the strictly lower triangle.
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Lower-triangle column indices of row `i` (all `< i`).
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.colind[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Lower-triangle values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.values[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// The dense diagonal.
    #[inline]
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// In-memory footprint: lower-triangle values + indices + row pointer +
    /// dense diagonal. For a symmetric matrix with mostly nonzero diagonal
    /// this is roughly half the full-CSR footprint — the `M_A_format,min`
    /// the symmetric MB bound streams.
    pub fn footprint_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
            + self.colind.len() * std::mem::size_of::<u32>()
            + self.rowptr.len() * std::mem::size_of::<usize>()
            + self.diag.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The share as it was computed before [`mirrored_counts`]: one binary
    /// search from *every* off-diagonal entry. The reference the single
    /// upper-entry loop must match bit for bit.
    fn reference_symmetry_share(csr: &CsrMatrix) -> f64 {
        if csr.nrows() != csr.ncols() {
            return 0.0;
        }
        let mut offdiag = 0usize;
        let mut matched = 0usize;
        for i in 0..csr.nrows() {
            for (&c, &v) in csr.row_cols(i).iter().zip(csr.row_vals(i)) {
                let c = c as usize;
                if c == i {
                    continue;
                }
                offdiag += 1;
                let (pcols, pvals) = (csr.row_cols(c), csr.row_vals(c));
                if let Ok(k) = pcols.binary_search(&(i as u32)) {
                    if pvals[k] == v {
                        matched += 1;
                    }
                }
            }
        }
        if offdiag == 0 {
            1.0
        } else {
            matched as f64 / offdiag as f64
        }
    }

    /// Square matrices of every symmetry regime: `(n, entries, mode,
    /// perturb_pct)` where mode 0 mirrors every entry, 1 mirrors and then
    /// perturbs about `perturb_pct`% of the mirrored values, 2 keeps only
    /// lower entries, 3 keeps only the diagonal, and 4 is arbitrary.
    fn arb_regime() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, u8, u32)> {
        (0usize..40).prop_flat_map(|n| {
            let span = n.max(1);
            let entry = (0..span, 0..span, -8i32..8);
            (
                Just(n),
                proptest::collection::vec(entry, 0..200),
                0u8..5,
                0u32..101,
            )
                .prop_map(|(n, raw, mode, pct)| {
                    let entries = if n == 0 {
                        Vec::new()
                    } else {
                        raw.into_iter()
                            .map(|(r, c, v)| (r, c, f64::from(v) * 0.25))
                            .collect()
                    };
                    (n, entries, mode, pct)
                })
        })
    }

    fn regime_matrix(n: usize, entries: &[(usize, usize, f64)], mode: u8, pct: u32) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> = match mode {
            0 | 1 => symmetrize_triplets(entries),
            2 => entries
                .iter()
                .map(|&(r, c, v)| (r.max(c), r.min(c), v))
                .collect(),
            3 => entries.iter().map(|&(r, _, v)| (r, r, v)).collect(),
            _ => entries.to_vec(),
        };
        let mut coo = CooMatrix::new(n, n);
        for (k, &(r, c, v)) in triplets.iter().enumerate() {
            // Perturb a deterministic share of the upper mirrored values.
            let bump = mode == 1 && r < c && (k as u32 * 37) % 100 < pct;
            coo.push(r, c, if bump { v + 0.5 } else { v });
        }
        CsrMatrix::from_coo(&coo)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn share_matches_the_every_entry_reference(
            (n, entries, mode, pct) in arb_regime(),
            extra_cols in 0usize..3,
        ) {
            let csr = regime_matrix(n, &entries, mode, pct);
            let share = symmetry_share(&csr);
            prop_assert_eq!(share.to_bits(), reference_symmetry_share(&csr).to_bits());
            prop_assert_eq!(is_symmetric(&csr), share == 1.0);
            if mode == 0 || mode == 3 {
                prop_assert!(is_symmetric(&csr));
            }

            // The same entries in a rectangular frame are never symmetric.
            if extra_cols > 0 {
                let mut coo = CooMatrix::new(n, n + extra_cols);
                for (r, c, v) in csr.iter() {
                    coo.push(r, c, v);
                }
                let rect = CsrMatrix::from_coo(&coo);
                prop_assert_eq!(symmetry_share(&rect), 0.0);
                prop_assert_eq!(reference_symmetry_share(&rect), 0.0);
                prop_assert!(!is_symmetric(&rect));
            }
        }
    }

    fn sym_sample() -> CsrMatrix {
        // [ 4 1 0 2 ]
        // [ 1 5 3 0 ]
        // [ 0 3 6 0 ]
        // [ 2 0 0 7 ]
        let mut coo = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (0, 3, 2.0),
            (3, 0, 2.0),
            (1, 1, 5.0),
            (1, 2, 3.0),
            (2, 1, 3.0),
            (2, 2, 6.0),
            (3, 3, 7.0),
        ] {
            coo.push(r, c, v);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn symmetric_matrix_round_trips() {
        let csr = sym_sample();
        assert!(is_symmetric(&csr));
        assert_eq!(symmetry_share(&csr), 1.0);
        let sss = SssCsr::try_from_csr(&csr).expect("symmetric");
        assert_eq!(sss.stored_nnz(), 3);
        assert_eq!(sss.logical_nnz(), 10);
        assert_eq!(sss.diag(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(sss.to_csr(), csr);
        // Storage halving: 10·12 + 5·8 = 160 for CSR vs 3·12 + 5·8 + 4·8 = 108.
        assert!(sss.footprint_bytes() < csr.footprint_bytes());
    }

    #[test]
    fn asymmetric_value_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0 + 1e-15); // structurally symmetric, value not
        let csr = CsrMatrix::from_coo(&coo);
        assert!(symmetry_share(&csr) < 1.0);
        assert!(SssCsr::try_from_csr(&csr).is_none());
    }

    #[test]
    fn structural_asymmetry_is_rejected() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 2, 1.0); // no (2, 0) partner
        coo.push(1, 1, 2.0);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(symmetry_share(&csr), 0.0);
        assert!(SssCsr::try_from_csr(&csr).is_none());
    }

    #[test]
    fn rectangular_is_rejected() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(symmetry_share(&csr), 0.0);
        assert!(SssCsr::try_from_csr(&csr).is_none());
    }

    #[test]
    fn diagonal_and_empty_matrices_are_symmetric() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, (i + 1) as f64);
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(symmetry_share(&csr), 1.0);
        let sss = SssCsr::try_from_csr(&csr).expect("diagonal is symmetric");
        assert_eq!(sss.stored_nnz(), 0);
        assert_eq!(sss.to_csr(), csr);

        let empty = CsrMatrix::from_coo(&CooMatrix::new(4, 4));
        let sss = SssCsr::try_from_csr(&empty).expect("empty is symmetric");
        assert_eq!(sss.logical_nnz(), 0);
        assert_eq!(sss.to_csr().nnz(), 0);
    }

    #[test]
    fn symmetrize_triplets_is_exactly_symmetric_under_duplicates() {
        // Duplicates at mirrored coordinates sum in one canonical order, so
        // the exact-equality check accepts the result.
        let entries = [(1usize, 2usize, 0.1), (2, 1, 0.2), (1, 2, 0.3), (0, 0, 5.0)];
        let sym = symmetrize_triplets(&entries);
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in sym {
            coo.push(r, c, v);
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert!(is_symmetric(&csr));
        assert!(SssCsr::try_from_csr(&csr).is_some());
        let total: f64 = csr.values().iter().sum();
        assert!((total - (5.0 + 2.0 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn partial_share_counts_matched_fraction() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0); // matched pair
        coo.push(0, 2, 5.0); // unmatched
        let csr = CsrMatrix::from_coo(&coo);
        let share = symmetry_share(&csr);
        assert!((share - 2.0 / 3.0).abs() < 1e-12, "share {share}");
    }
}
