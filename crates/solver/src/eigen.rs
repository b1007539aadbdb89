//! Eigenvalue estimation via the power method and Rayleigh quotients — the
//! paper's other motivating SpMV consumer ("the approximation of eigenvalues
//! of large sparse matrices", Section I). Like the linear solvers, every
//! iteration is one SpMV, so the amortization analysis applies unchanged.

use crate::blas::{dot, norm2, scale};
use sparseopt_core::kernels::SparseLinOp;

/// Result of an eigenvalue iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EigenOutcome {
    /// Estimated dominant eigenvalue (Rayleigh quotient at the last iterate).
    pub eigenvalue: f64,
    /// Iterations performed (= SpMV calls).
    pub iterations: usize,
    /// Final residual `‖A v − λ v‖ / |λ|`.
    pub residual: f64,
    /// True when the residual dropped below the tolerance.
    pub converged: bool,
}

/// Power iteration for the dominant eigenpair of a square operator.
/// `v` holds the start vector on entry (must be nonzero) and the estimated
/// eigenvector on exit.
///
/// # Panics
/// Panics if the operator is not square, `v` has the wrong length, or the
/// start vector is numerically zero.
pub fn power_method(
    a: &dyn SparseLinOp,
    v: &mut [f64],
    tol: f64,
    max_iters: usize,
) -> EigenOutcome {
    let (nrows, ncols) = a.shape();
    assert_eq!(nrows, ncols, "power method needs a square operator");
    assert_eq!(v.len(), nrows, "start vector length mismatch");
    let n = nrows;

    let nv = norm2(v);
    assert!(nv > 0.0, "start vector must be nonzero");
    scale(1.0 / nv, v);

    let mut av = vec![0.0f64; n];
    let mut lambda;
    for iter in 1..=max_iters {
        a.spmv(v, &mut av);
        lambda = dot(v, &av); // Rayleigh quotient (v is unit length)

        // Residual ‖A v − λ v‖.
        let mut res = 0.0f64;
        for i in 0..n {
            let r = av[i] - lambda * v[i];
            res += r * r;
        }
        let res = res.sqrt();

        // Normalize A v into the next iterate.
        let nav = norm2(&av);
        if nav == 0.0 {
            // v is in the null space: eigenvalue 0, exactly converged.
            return EigenOutcome {
                eigenvalue: 0.0,
                iterations: iter,
                residual: 0.0,
                converged: true,
            };
        }
        for i in 0..n {
            v[i] = av[i] / nav;
        }

        if res <= tol * lambda.abs().max(f64::MIN_POSITIVE) {
            return EigenOutcome {
                eigenvalue: lambda,
                iterations: iter,
                residual: res,
                converged: true,
            };
        }
    }
    // Final residual at the returned iterate.
    a.spmv(v, &mut av);
    lambda = dot(v, &av);
    let mut res = 0.0f64;
    for i in 0..n {
        let r = av[i] - lambda * v[i];
        res += r * r;
    }
    EigenOutcome {
        eigenvalue: lambda,
        iterations: max_iters,
        residual: res.sqrt(),
        converged: false,
    }
}

/// Crude 2-norm condition estimate for SPD operators: dominant eigenvalue of
/// `A` over the dominant eigenvalue of the Jacobi-preconditioned inverse
/// iteration surrogate `λ_max / λ_min`, with `λ_min` estimated by the power
/// method on `σI − A` (spectral shift). Useful for predicting CG iteration
/// counts in the amortization analysis.
pub fn spd_condition_estimate(
    a: &dyn SparseLinOp,
    tol: f64,
    max_iters: usize,
) -> Option<(f64, f64)> {
    let (n, m) = a.shape();
    if n != m || n == 0 {
        return None;
    }
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let top = power_method(a, &mut v, tol, max_iters);
    if !top.converged || top.eigenvalue <= 0.0 {
        return None;
    }
    let sigma = top.eigenvalue * 1.0001;

    // Shifted operator σI − A without materializing it. Implementing the
    // full operator trait keeps it composable: (σI − A)ᵀ = σI − Aᵀ for the
    // square operators this estimate applies to.
    struct Shifted<'k> {
        inner: &'k dyn SparseLinOp,
        sigma: f64,
    }
    impl SparseLinOp for Shifted<'_> {
        fn name(&self) -> String {
            format!("shifted({})", self.inner.name())
        }
        fn shape(&self) -> (usize, usize) {
            self.inner.shape()
        }
        fn nnz(&self) -> usize {
            self.inner.nnz()
        }
        fn capabilities(&self) -> sparseopt_core::kernels::OpCapabilities {
            self.inner.capabilities()
        }
        fn apply(&self, op: sparseopt_core::kernels::Apply, x: &[f64], y: &mut [f64]) {
            self.inner.apply(op, x, y);
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = self.sigma * xi - *yi;
            }
        }
        fn apply_multi(
            &self,
            op: sparseopt_core::kernels::Apply,
            x: &sparseopt_core::MultiVec,
            y: &mut sparseopt_core::MultiVec,
        ) {
            self.inner.apply_multi(op, x, y);
            for (yi, xi) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
                *yi = self.sigma * xi - *yi;
            }
        }
        fn footprint_bytes(&self) -> usize {
            self.inner.footprint_bytes()
        }
    }

    let shifted = Shifted { inner: a, sigma };
    let mut w: Vec<f64> = (0..n).map(|i| 1.0 - (i % 5) as f64 * 0.2).collect();
    let bottom = power_method(&shifted, &mut w, tol, max_iters);
    if !bottom.converged {
        return None;
    }
    let lambda_min = sigma - bottom.eigenvalue;
    if lambda_min <= 0.0 {
        return None;
    }
    Some((top.eigenvalue, lambda_min))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_core::coo::CooMatrix;
    use sparseopt_core::csr::CsrMatrix;
    use sparseopt_core::kernels::SerialCsr;
    use std::sync::Arc;

    fn diag(values: &[f64]) -> SerialCsr {
        let n = values.len();
        let mut coo = CooMatrix::new(n, n);
        for (i, &v) in values.iter().enumerate() {
            coo.push(i, i, v);
        }
        SerialCsr::new(Arc::new(CsrMatrix::from_coo(&coo)))
    }

    #[test]
    fn finds_dominant_eigenvalue_of_diagonal() {
        let a = diag(&[1.0, 5.0, 3.0, -2.0]);
        let mut v = vec![1.0; 4];
        let out = power_method(&a, &mut v, 1e-10, 2000);
        assert!(out.converged, "{out:?}");
        assert!(
            (out.eigenvalue - 5.0).abs() < 1e-6,
            "λ = {}",
            out.eigenvalue
        );
        // Eigenvector concentrates on index 1.
        assert!(v[1].abs() > 0.999);
    }

    #[test]
    fn tridiagonal_toeplitz_matches_analytic() {
        // A = tridiag(-1, 2, -1): λ_max = 2 + 2 cos(π/(n+1)).
        let n = 50;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        let a = SerialCsr::new(Arc::new(CsrMatrix::from_coo(&coo)));
        let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let out = power_method(&a, &mut v, 1e-9, 20_000);
        let analytic = 2.0 + 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        assert!(out.converged);
        assert!(
            (out.eigenvalue - analytic).abs() < 1e-4,
            "λ = {} vs analytic {analytic}",
            out.eigenvalue
        );
    }

    #[test]
    fn condition_estimate_of_diagonal() {
        let a = diag(&[10.0, 2.0, 7.0, 4.0]);
        let (hi, lo) = spd_condition_estimate(&a, 1e-10, 5000).expect("SPD estimate");
        assert!((hi - 10.0).abs() < 1e-4, "λ_max {hi}");
        assert!((lo - 2.0).abs() < 1e-3, "λ_min {lo}");
    }

    #[test]
    fn sell_operator_finds_the_same_eigenpair() {
        // The power method over the operator a symmetric matrix's MB plan
        // builds (SELL-C-σ): same dominant eigenvalue as the full-CSR
        // operator.
        use sparseopt_core::pool::ExecCtx;
        use sparseopt_core::sell::SellMatrix;
        use sparseopt_core::SellKernel;
        use sparseopt_matrix::generators as g;

        let csr = Arc::new(CsrMatrix::from_coo(&g::symmetric_power_law(600, 3, 5)));
        let sym = SellKernel::vectorized(Arc::new(SellMatrix::from_csr(&csr)), ExecCtx::new(2));

        let mut v: Vec<f64> = (0..600).map(|i| 1.0 + (i as f64 * 0.17).sin()).collect();
        let out_sym = power_method(&sym, &mut v, 1e-9, 20_000);
        assert!(out_sym.converged, "{out_sym:?}");

        let full = SerialCsr::new(csr);
        let mut w: Vec<f64> = (0..600).map(|i| 1.0 + (i as f64 * 0.17).sin()).collect();
        let out_full = power_method(&full, &mut w, 1e-9, 20_000);
        assert!(out_full.converged);
        assert!(
            (out_sym.eigenvalue - out_full.eigenvalue).abs()
                < 1e-6 * out_full.eigenvalue.abs().max(1.0),
            "λ_sym {} vs λ_csr {}",
            out_sym.eigenvalue,
            out_full.eigenvalue
        );
    }

    #[test]
    fn nonconvergence_is_reported() {
        // Two equal dominant eigenvalues of opposite sign never converge.
        let a = diag(&[3.0, -3.0, 1.0]);
        let mut v = vec![1.0, 1.0, 1.0];
        let out = power_method(&a, &mut v, 1e-12, 50);
        assert!(!out.converged);
        assert_eq!(out.iterations, 50);
    }
}
