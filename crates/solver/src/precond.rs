//! Preconditioners. The paper motivates the lightweight optimizer with
//! "preconditioned solvers \[where\] the number of iterations may be
//! significantly smaller" (Section IV-D). The layer now spans the full
//! cost/strength spectrum: identity (free), Jacobi (one diagonal scale),
//! symmetric Gauss-Seidel ([`SymGsPrecond`], one SymGS sweep over SSS
//! storage), and the incomplete factorizations IC(0)/ILU(0) in
//! [`crate::factor`] (two triangular solves per application).

use sparseopt_core::csr::CsrMatrix;
use sparseopt_core::kernels::{SymGsError, SymGsKernel};
use sparseopt_core::multivec::MultiVec;
use sparseopt_core::sss::SssCsr;
use std::sync::Arc;

/// Why a preconditioner could not be built from the given matrix.
///
/// Returning this instead of panicking lets a serving path degrade — e.g. to
/// [`IdentityPrecond`] — when a matrix violates a preconditioner's
/// assumptions, instead of crashing the solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecondError {
    /// The preconditioner divides by a diagonal entry and row `row`'s is
    /// exactly zero (or absent).
    ZeroDiagonal {
        /// Offending row.
        row: usize,
    },
    /// An incomplete Cholesky pivot came out non-positive: the matrix is not
    /// positive definite (or IC(0)'s dropped fill made it effectively so).
    NotPositiveDefinite {
        /// Row of the failing pivot.
        row: usize,
    },
    /// A symmetry-requiring preconditioner was handed a structurally or
    /// numerically unsymmetric matrix.
    NotSymmetric,
}

impl std::fmt::Display for PrecondError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecondError::ZeroDiagonal { row } => {
                write!(f, "row {row} has a zero diagonal entry")
            }
            PrecondError::NotPositiveDefinite { row } => {
                write!(
                    f,
                    "non-positive pivot at row {row}: matrix is not positive definite"
                )
            }
            PrecondError::NotSymmetric => write!(f, "matrix is not symmetric"),
        }
    }
}

impl std::error::Error for PrecondError {}

impl From<SymGsError> for PrecondError {
    fn from(e: SymGsError) -> Self {
        match e {
            SymGsError::ZeroDiagonal { row } => PrecondError::ZeroDiagonal { row },
        }
    }
}

/// A left preconditioner `M⁻¹` applied as `z = M⁻¹ r`.
pub trait Preconditioner: Send + Sync {
    /// Applies `z ← M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Applies `Z ← M⁻¹ R` column by column — the block-Krylov drivers'
    /// entry point. The default gathers each column into one scratch pair
    /// reused across columns (no per-column allocation), applies
    /// [`Self::apply`], and scatters the result; implementations with
    /// row-local structure (e.g. Jacobi) or a native multi-vector path
    /// (the triangular-solve preconditioners) override it.
    fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        assert_eq!(r.nrows(), z.nrows(), "row count mismatch");
        assert_eq!(r.width(), z.width(), "width mismatch");
        let n = r.nrows();
        let k = r.width();
        let data = r.as_slice();
        let mut rc = vec![0.0; n];
        let mut zc = vec![0.0; n];
        for j in 0..k {
            for (i, ri) in rc.iter_mut().enumerate() {
                *ri = data[i * k + j];
            }
            self.apply(&rc, &mut zc);
            z.set_column(j, &zc);
        }
    }

    /// Display name.
    fn name(&self) -> &'static str;
}

/// The identity preconditioner (unpreconditioned solve).
#[derive(Default, Clone, Copy, Debug)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

/// Jacobi (diagonal) preconditioner: `z_i = r_i / a_ii`.
#[derive(Clone, Debug)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds from the matrix diagonal (duplicate diagonal entries summed).
    ///
    /// # Errors
    /// [`PrecondError::ZeroDiagonal`] if any diagonal entry is exactly zero
    /// — callers on a serving path can degrade to [`IdentityPrecond`]
    /// instead of crashing.
    pub fn new(csr: &CsrMatrix) -> Result<Self, PrecondError> {
        let diag = csr.diagonal();
        if let Some(row) = diag.iter().position(|&d| d == 0.0) {
            return Err(PrecondError::ZeroDiagonal { row });
        }
        Ok(Self {
            inv_diag: diag.iter().map(|&d| 1.0 / d).collect(),
        })
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len(), "dimension mismatch");
        for ((zi, &ri), &mi) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * mi;
        }
    }

    fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        assert_eq!(r.nrows(), self.inv_diag.len(), "dimension mismatch");
        assert_eq!(r.nrows(), z.nrows(), "row count mismatch");
        assert_eq!(r.width(), z.width(), "width mismatch");
        // Diagonal scaling is row-local: one unit-stride pass, no column
        // gather/scatter.
        for (i, &mi) in self.inv_diag.iter().enumerate() {
            for (zv, &rv) in z.row_mut(i).iter_mut().zip(r.row(i)) {
                *zv = rv * mi;
            }
        }
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

/// Symmetric Gauss-Seidel preconditioner `M = (L + D) D⁻¹ (D + Lᵀ)` over
/// symmetric sparse skyline storage — one allocation-free application is a
/// forward solve, a diagonal scale, and an in-place backward solve, reading
/// the stored lower triangle twice.
///
/// Stronger than Jacobi whenever off-diagonal coupling matters (Jacobi *is*
/// the `D`-only degenerate case), at ~2 triangle sweeps per application; one
/// application equals one symmetric Gauss-Seidel sweep from a zero initial
/// guess.
pub struct SymGsPrecond {
    kernel: SymGsKernel,
}

impl SymGsPrecond {
    /// Builds over an already-constructed SSS matrix.
    ///
    /// # Errors
    /// [`PrecondError::ZeroDiagonal`] when a Gauss-Seidel sweep would divide
    /// by zero.
    pub fn new(sss: Arc<SssCsr>) -> Result<Self, PrecondError> {
        Ok(Self {
            kernel: SymGsKernel::try_new(sss)?,
        })
    }

    /// Builds from a general CSR matrix, verifying symmetry on the way.
    ///
    /// # Errors
    /// [`PrecondError::NotSymmetric`] for unsymmetric input,
    /// [`PrecondError::ZeroDiagonal`] for a zero diagonal entry.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self, PrecondError> {
        let sss = SssCsr::try_from_csr(csr).ok_or(PrecondError::NotSymmetric)?;
        Self::new(Arc::new(sss))
    }
}

impl Preconditioner for SymGsPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        // z ← (D + Lᵀ)⁻¹ D (L + D)⁻¹ r, all in the caller's buffer.
        self.kernel.forward_solve(r, z);
        for (zi, di) in z.iter_mut().zip(self.kernel.matrix().diag()) {
            *zi *= di;
        }
        self.kernel.backward_solve_in_place(z);
    }

    fn name(&self) -> &'static str {
        "symgs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_core::coo::CooMatrix;

    #[test]
    fn identity_copies() {
        let r = [1.0, -2.0];
        let mut z = [0.0; 2];
        IdentityPrecond.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        coo.push(0, 1, 9.0);
        let m = CsrMatrix::from_coo(&coo);
        let p = JacobiPrecond::new(&m).expect("zero-free diagonal");
        let mut z = [0.0; 2];
        p.apply(&[2.0, 2.0], &mut z);
        assert_eq!(z, [1.0, 0.5]);
    }

    #[test]
    fn jacobi_rejects_zero_diagonal_gracefully() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        let m = CsrMatrix::from_coo(&coo);
        // Row 1 has no diagonal entry: an error, not a panic, so a serving
        // path can fall back to the identity.
        assert_eq!(
            JacobiPrecond::new(&m).err(),
            Some(PrecondError::ZeroDiagonal { row: 1 })
        );
    }

    /// A preconditioner that deliberately does NOT override `apply_multi`,
    /// to exercise the default gather/scatter path.
    struct ScaleByIndex;

    impl Preconditioner for ScaleByIndex {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            for (i, (zi, &ri)) in z.iter_mut().zip(r).enumerate() {
                *zi = ri * (i + 1) as f64;
            }
        }
        fn name(&self) -> &'static str {
            "scale-by-index"
        }
    }

    #[test]
    fn default_apply_multi_matches_per_column_apply() {
        let n = 7;
        let k = 3;
        let r = MultiVec::from_fn(n, k, |i, j| (i * 10 + j) as f64 - 8.0);
        let mut z = MultiVec::zeros(n, k);
        ScaleByIndex.apply_multi(&r, &mut z);
        for j in 0..k {
            let mut want = vec![0.0; n];
            ScaleByIndex.apply(&r.column(j), &mut want);
            assert_eq!(z.column(j), want, "column {j}");
        }
    }

    #[test]
    fn symgs_apply_equals_one_sweep_from_zero() {
        // SPD band, symmetric by construction.
        let n = 24;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let p = SymGsPrecond::from_csr(&csr).expect("symmetric SPD band");
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut z = vec![0.0; n];
        p.apply(&b, &mut z);

        let sss = Arc::new(SssCsr::try_from_csr(&csr).unwrap());
        let kernel = SymGsKernel::try_new(sss).unwrap();
        let mut want = vec![0.0; n];
        let mut scratch = Vec::new();
        kernel.sweep(&b, &mut want, &mut scratch);
        for (i, (a, w)) in z.iter().zip(&want).enumerate() {
            assert!(
                (a - w).abs() < 1e-13 * (1.0 + w.abs()),
                "row {i}: {a} vs {w}"
            );
        }
    }

    #[test]
    fn symgs_rejects_unsymmetric_input() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(0, 1, 3.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(
            SymGsPrecond::from_csr(&m).err(),
            Some(PrecondError::NotSymmetric)
        );
    }
}
