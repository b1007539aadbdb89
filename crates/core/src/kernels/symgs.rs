//! Symmetric Gauss-Seidel (SymGS) over symmetric sparse skyline storage —
//! the third member of the sparse kernel family (SpMV, SpTRSV, SymGS) and
//! the smoother/preconditioner `M = (L + D) D⁻¹ (D + Lᵀ)` used by the
//! solver stack.
//!
//! The kernel runs over the [`SssCsr`] layout: only the strict lower
//! triangle `L` plus the dense diagonal `D` are stored, and the upper
//! triangle is *implied* as `Lᵀ`. That halves the matrix traffic of each
//! sweep, but it changes the sweep structure:
//!
//! - the **forward** solve `(L + D) z = r` is a plain *gather* over stored
//!   lower rows in ascending order;
//! - the **backward** solve `(D + Lᵀ) z = r` never materializes `Lᵀ` —
//!   walking rows in *descending* order, once `z_i` is final the stored row
//!   `L_i` tells us every `(Lᵀ)_{c,i} = l_{ic}` contribution, so the solve
//!   *scatters* `-l_{ic}·z_i` into the still-pending entries `c < i`.
//!
//! Both sweeps are dependency chains over the full row order (a SymGS sweep
//! is inherently more serial than SpTRSV: forward and backward halves each
//! traverse every row), so the kernel is serial by design — the win over
//! Jacobi comes from convergence rate, not kernel parallelism, which is
//! exactly the trade the preconditioned-solver scenario class weighs.

use crate::sss::SssCsr;
use std::sync::Arc;

/// Construction-time failure of a SymGS operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymGsError {
    /// A Gauss-Seidel sweep divides by every diagonal entry; row `row` has
    /// a zero one.
    ZeroDiagonal {
        /// Offending row.
        row: usize,
    },
}

impl std::fmt::Display for SymGsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymGsError::ZeroDiagonal { row } => {
                write!(
                    f,
                    "row {row} has a zero diagonal (Gauss-Seidel divides by it)"
                )
            }
        }
    }
}

impl std::error::Error for SymGsError {}

/// Symmetric Gauss-Seidel sweeps over a symmetric matrix in SSS storage.
///
/// One [`sweep`](SymGsKernel::sweep) performs the textbook symmetric
/// Gauss-Seidel update (forward sweep then backward sweep); the triangular
/// half-solves are exposed separately because the preconditioner
/// `M⁻¹ = (D + Lᵀ)⁻¹ D (L + D)⁻¹` applies them with a diagonal scaling in
/// between.
pub struct SymGsKernel {
    matrix: Arc<SssCsr>,
}

impl SymGsKernel {
    /// Builds the kernel, rejecting matrices with a zero diagonal entry.
    pub fn try_new(matrix: Arc<SssCsr>) -> Result<Self, SymGsError> {
        if let Some(row) = matrix.diag().iter().position(|&d| d == 0.0) {
            return Err(SymGsError::ZeroDiagonal { row });
        }
        Ok(Self { matrix })
    }

    /// The underlying symmetric matrix.
    pub fn matrix(&self) -> &Arc<SssCsr> {
        &self.matrix
    }

    /// Display name for bench/report rows.
    pub fn name(&self) -> &'static str {
        "symgs-sss"
    }

    /// Flop count of one full symmetric sweep: each half-sweep touches every
    /// logical nonzero once (multiply-add) plus a division per row.
    pub fn flops(&self) -> f64 {
        2.0 * (2.0 * self.matrix.logical_nnz() as f64)
    }

    /// Forward solve `(L + D) z = r` — ascending gather over stored rows.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn forward_solve(&self, r: &[f64], z: &mut [f64]) {
        let n = self.matrix.n();
        assert_eq!(r.len(), n, "r length mismatch");
        assert_eq!(z.len(), n, "z length mismatch");
        let d = self.matrix.diag();
        for i in 0..n {
            let mut s = r[i];
            for (&c, &v) in self.matrix.row_cols(i).iter().zip(self.matrix.row_vals(i)) {
                s -= v * z[c as usize];
            }
            z[i] = s / d[i];
        }
    }

    /// Backward solve `(D + Lᵀ) z = r`, in place: on entry `z` holds `r`, on
    /// exit the solution. Descending scatter — row `i`'s stored lower entries
    /// are exactly column `i` of the implied upper triangle.
    pub fn backward_solve_in_place(&self, z: &mut [f64]) {
        let n = self.matrix.n();
        assert_eq!(z.len(), n, "z length mismatch");
        let d = self.matrix.diag();
        for i in (0..n).rev() {
            let zi = z[i] / d[i];
            z[i] = zi;
            for (&c, &v) in self.matrix.row_cols(i).iter().zip(self.matrix.row_vals(i)) {
                z[c as usize] -= v * zi;
            }
        }
    }

    /// One full symmetric Gauss-Seidel sweep on `A x = b`, updating `x` in
    /// place: a forward sweep `(L + D) x_new = b − Lᵀ x_old` followed by a
    /// backward sweep `(D + Lᵀ) x_newer = b − L x_new`, each evaluated
    /// against the freshest values exactly like the textbook row-by-row
    /// update. Starting from `x = 0`, one sweep computes
    /// `M⁻¹ b` for `M = (L + D) D⁻¹ (D + Lᵀ)`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn sweep(&self, b: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        let n = self.matrix.n();
        assert_eq!(b.len(), n, "b length mismatch");
        assert_eq!(x.len(), n, "x length mismatch");
        let d = self.matrix.diag();

        // Forward half: rows ascending, x_i ← (b_i − Σ_{j<i} l_ij x_j(new)
        // − Σ_{j>i} l_ji x_j(old)) / d_i. The upper-triangle (old-x)
        // contributions are pre-scattered into `s` so the ascending pass only
        // gathers stored lower rows.
        scratch.clear();
        scratch.extend_from_slice(b);
        // The whole scatter runs before any x update, so every implied-upper
        // contribution l_ic · x_i lands at the *old* x, as the textbook
        // update requires.
        for (i, &xi) in x.iter().enumerate() {
            for (&c, &v) in self.matrix.row_cols(i).iter().zip(self.matrix.row_vals(i)) {
                scratch[c as usize] -= v * xi;
            }
        }
        for i in 0..n {
            let mut s = scratch[i];
            for (&c, &v) in self.matrix.row_cols(i).iter().zip(self.matrix.row_vals(i)) {
                s -= v * x[c as usize];
            }
            x[i] = s / d[i];
        }

        // Backward half: rows descending, using the post-forward x. The
        // lower-triangle (now-old… actually still-current) gather t = b − L x
        // is taken first, then the descending scatter finalizes each row.
        scratch.clear();
        scratch.extend_from_slice(b);
        for (i, si) in scratch.iter_mut().enumerate() {
            let mut s = *si;
            for (&c, &v) in self.matrix.row_cols(i).iter().zip(self.matrix.row_vals(i)) {
                s -= v * x[c as usize];
            }
            *si = s;
        }
        for i in (0..n).rev() {
            let xi = scratch[i] / d[i];
            x[i] = xi;
            for (&c, &v) in self.matrix.row_cols(i).iter().zip(self.matrix.row_vals(i)) {
                scratch[c as usize] -= v * xi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    /// Dense symmetric test matrix (SPD band) and its CSR/SSS forms.
    #[allow(clippy::needless_range_loop)] // symmetric 2D writes read clearer indexed
    fn spd_band(n: usize, band: usize) -> (Vec<Vec<f64>>, Arc<SssCsr>) {
        let mut dense = vec![vec![0.0f64; n]; n];
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in i.saturating_sub(band)..i {
                let v = -(1.0 + ((i * 3 + j) % 4) as f64 * 0.25);
                dense[i][j] = v;
                dense[j][i] = v;
                coo.push(i, j, v);
                coo.push(j, i, v);
                row_sum += v.abs();
            }
            let d = 2.0 * (row_sum + 1.0);
            dense[i][i] = d;
            coo.push(i, i, d);
        }
        let csr = CsrMatrix::from_coo(&coo);
        // Diagonal dominance is per-row here, not global, so re-derive dense
        // diag to stay exactly consistent with what SSS stores.
        let sss = Arc::new(SssCsr::try_from_csr(&csr).expect("symmetric"));
        (dense, sss)
    }

    /// Reference dense symmetric Gauss-Seidel sweep (forward then backward).
    fn dense_symgs_sweep(a: &[Vec<f64>], b: &[f64], x: &mut [f64]) {
        let n = b.len();
        for i in 0..n {
            let mut s = b[i];
            for j in 0..n {
                if j != i {
                    s -= a[i][j] * x[j];
                }
            }
            x[i] = s / a[i][i];
        }
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in 0..n {
                if j != i {
                    s -= a[i][j] * x[j];
                }
            }
            x[i] = s / a[i][i];
        }
    }

    #[test]
    fn sweep_matches_dense_reference() {
        let (dense, sss) = spd_band(60, 3);
        let kernel = SymGsKernel::try_new(sss).unwrap();
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.31).sin() + 0.2).collect();
        let mut x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut want = x.clone();
        let mut scratch = Vec::new();
        for _ in 0..3 {
            kernel.sweep(&b, &mut x, &mut scratch);
            dense_symgs_sweep(&dense, &b, &mut want);
        }
        for (i, (a, w)) in x.iter().zip(&want).enumerate() {
            assert!(
                (a - w).abs() < 1e-10 * (1.0 + w.abs()),
                "row {i}: {a} vs {w}"
            );
        }
    }

    #[test]
    fn forward_backward_solves_match_dense_triangles() {
        let (dense, sss) = spd_band(40, 2);
        let kernel = SymGsKernel::try_new(sss).unwrap();
        let r: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();

        // (L + D) z = r, forward substitution on the dense lower triangle.
        let mut z = vec![0.0; 40];
        kernel.forward_solve(&r, &mut z);
        let mut want = vec![0.0; 40];
        for i in 0..40 {
            let mut s = r[i];
            for j in 0..i {
                s -= dense[i][j] * want[j];
            }
            want[i] = s / dense[i][i];
        }
        for (a, w) in z.iter().zip(&want) {
            assert!((a - w).abs() < 1e-11 * (1.0 + w.abs()));
        }

        // (D + Lᵀ) z = r, backward substitution on the dense upper triangle.
        let mut z = r.clone();
        kernel.backward_solve_in_place(&mut z);
        let mut want = vec![0.0; 40];
        for i in (0..40).rev() {
            let mut s = r[i];
            for j in (i + 1)..40 {
                s -= dense[i][j] * want[j];
            }
            want[i] = s / dense[i][i];
        }
        for (a, w) in z.iter().zip(&want) {
            assert!((a - w).abs() < 1e-11 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn one_sweep_from_zero_applies_the_preconditioner() {
        // M = (L+D) D⁻¹ (D+Lᵀ): one sweep from x = 0 must equal
        // backward⁻¹(D · forward⁻¹(b)).
        let (_, sss) = spd_band(30, 2);
        let kernel = SymGsKernel::try_new(sss.clone()).unwrap();
        let b: Vec<f64> = (0..30).map(|i| (i as f64 - 14.5) * 0.1).collect();

        let mut x = vec![0.0; 30];
        let mut scratch = Vec::new();
        kernel.sweep(&b, &mut x, &mut scratch);

        let mut z = vec![0.0; 30];
        kernel.forward_solve(&b, &mut z);
        for (zi, di) in z.iter_mut().zip(sss.diag()) {
            *zi *= di;
        }
        kernel.backward_solve_in_place(&mut z);

        for (i, (a, w)) in x.iter().zip(&z).enumerate() {
            assert!(
                (a - w).abs() < 1e-12 * (1.0 + w.abs()),
                "row {i}: {a} vs {w}"
            );
        }
    }

    #[test]
    fn sweeps_converge_on_spd_system() {
        let (dense, sss) = spd_band(50, 2);
        let kernel = SymGsKernel::try_new(sss.clone()).unwrap();
        let want: Vec<f64> = (0..50).map(|i| ((i * 7 % 13) as f64) * 0.3 - 1.0).collect();
        let mut b = vec![0.0; 50];
        for i in 0..50 {
            for j in 0..50 {
                b[i] += dense[i][j] * want[j];
            }
        }
        let mut x = vec![0.0; 50];
        let mut scratch = Vec::new();
        for _ in 0..200 {
            kernel.sweep(&b, &mut x, &mut scratch);
        }
        for (i, (a, w)) in x.iter().zip(&want).enumerate() {
            assert!(
                (a - w).abs() < 1e-8 * (1.0 + w.abs()),
                "row {i}: {a} vs {w}"
            );
        }
    }

    #[test]
    fn zero_diagonal_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        // Row 1 has no diagonal entry ⇒ SSS stores d[1] = 0.
        let csr = CsrMatrix::from_coo(&coo);
        let sss = Arc::new(SssCsr::try_from_csr(&csr).expect("symmetric"));
        assert_eq!(
            SymGsKernel::try_new(sss).err(),
            Some(SymGsError::ZeroDiagonal { row: 1 })
        );
    }
}
