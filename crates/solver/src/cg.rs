//! Preconditioned Conjugate Gradient — the canonical SpMV consumer the paper
//! frames its amortization analysis around.

use crate::blas::{axpy, dot, norm2, xpby};
use crate::precond::Preconditioner;
use crate::{SolveOutcome, SolverOptions};
use sparseopt_core::kernels::SparseLinOp;

/// Solves `A x = b` for symmetric positive definite `A` via preconditioned
/// CG. `x` holds the initial guess on entry and the solution on exit.
///
/// # Panics
/// Panics if the operator is not square or vector lengths disagree.
pub fn cg(
    a: &dyn SparseLinOp,
    b: &[f64],
    x: &mut [f64],
    precond: &dyn Preconditioner,
    opts: &SolverOptions,
) -> SolveOutcome {
    let (nrows, ncols) = a.shape();
    assert_eq!(nrows, ncols, "CG needs a square operator");
    assert_eq!(b.len(), nrows, "b length mismatch");
    assert_eq!(x.len(), nrows, "x length mismatch");
    let n = nrows;

    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let mut r = vec![0.0; n];
    let mut ax = vec![0.0; n];
    a.spmv(x, &mut ax);
    for i in 0..n {
        r[i] = b[i] - ax[i];
    }

    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut spmv_calls = 1usize;

    for iter in 0..opts.max_iters {
        let rel = norm2(&r) / bnorm;
        if rel <= opts.tol {
            return SolveOutcome::converged(iter, rel, spmv_calls);
        }
        a.spmv(&p, &mut ax);
        spmv_calls += 1;
        let pap = dot(&p, &ax);
        if pap <= 0.0 {
            // Not SPD (or numerical breakdown).
            return SolveOutcome::broke_down(iter, rel, spmv_calls);
        }
        let alpha = rz / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ax, &mut r);

        precond.apply(&r, &mut z);
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        xpby(&z, beta, &mut p);
    }
    SolveOutcome::not_converged(opts.max_iters, norm2(&r) / bnorm, spmv_calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use sparseopt_core::prelude::*;
    use sparseopt_matrix::generators as g;
    use std::sync::Arc;

    fn poisson(nx: usize, ny: usize) -> Arc<CsrMatrix> {
        Arc::new(CsrMatrix::from_coo(&g::poisson2d(nx, ny)))
    }

    #[test]
    fn solves_poisson_to_tolerance() {
        let a = poisson(20, 20);
        let kernel = SerialCsr::new(a.clone());
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let out = cg(
            &kernel,
            &b,
            &mut x,
            &IdentityPrecond,
            &SolverOptions {
                tol: 1e-8,
                max_iters: 1000,
            },
        );
        assert!(out.converged, "CG must converge on SPD Poisson: {out:?}");

        // Residual check: ‖b − A x‖ / ‖b‖ ≤ tol (loosened slightly for
        // floating-point recomputation).
        let mut ax = vec![0.0; n];
        kernel.spmv(&x, &mut ax);
        let res: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            .sqrt();
        assert!(res / (n as f64).sqrt() < 1e-7, "true residual {res}");
    }

    #[test]
    fn jacobi_reduces_iterations() {
        let a = poisson(24, 24);
        let kernel = SerialCsr::new(a.clone());
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let opts = SolverOptions {
            tol: 1e-8,
            max_iters: 2000,
        };

        let mut x0 = vec![0.0; n];
        let plain = cg(&kernel, &b, &mut x0, &IdentityPrecond, &opts);
        let mut x1 = vec![0.0; n];
        let pre = cg(
            &kernel,
            &b,
            &mut x1,
            &JacobiPrecond::new(&a).expect("zero-free diagonal"),
            &opts,
        );
        assert!(plain.converged && pre.converged);
        // Poisson has constant diagonal so Jacobi ≈ identity in iterations;
        // it must at least not diverge or get dramatically worse.
        assert!(pre.iterations <= plain.iterations + 2);
    }

    #[test]
    fn works_with_parallel_kernels() {
        let a = poisson(16, 16);
        let kernel = ParallelCsr::baseline(a.clone(), ExecCtx::new(2));
        let n = a.nrows();
        let b = vec![0.5; n];
        let mut x = vec![0.0; n];
        let out = cg(
            &kernel,
            &b,
            &mut x,
            &IdentityPrecond,
            &SolverOptions {
                tol: 1e-9,
                max_iters: 1000,
            },
        );
        assert!(out.converged);
        assert!(out.spmv_calls >= out.iterations);
    }

    #[test]
    fn sell_operator_solves_identically() {
        // The operator a symmetric matrix's MB plan builds (SELL-C-σ) must
        // follow the full-CSR operator's Krylov trajectory up to
        // floating-point noise.
        let a = poisson(24, 24);
        let sym = SellKernel::vectorized(Arc::new(SellMatrix::from_csr(&a)), ExecCtx::new(3));
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let opts = SolverOptions {
            tol: 1e-9,
            max_iters: 2000,
        };

        let mut x_sym = vec![0.0; n];
        let out_sym = cg(&sym, &b, &mut x_sym, &IdentityPrecond, &opts);
        assert!(out_sym.converged, "CG over SELL must converge: {out_sym:?}");

        let mut x_csr = vec![0.0; n];
        let out_csr = cg(
            &SerialCsr::new(a.clone()),
            &b,
            &mut x_csr,
            &IdentityPrecond,
            &opts,
        );
        assert!(out_csr.converged);
        assert!(
            out_sym.iterations <= out_csr.iterations + 2,
            "same operator, same trajectory: {} vs {}",
            out_sym.iterations,
            out_csr.iterations
        );
        for (i, (p, q)) in x_sym.iter().zip(&x_csr).enumerate() {
            assert!((p - q).abs() < 1e-6 * (1.0 + q.abs()), "x[{i}]: {p} vs {q}");
        }
    }

    #[test]
    fn reports_nonconvergence() {
        let a = poisson(16, 16);
        let kernel = SerialCsr::new(a.clone());
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let out = cg(
            &kernel,
            &b,
            &mut x,
            &IdentityPrecond,
            &SolverOptions {
                tol: 1e-14,
                max_iters: 3,
            },
        );
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }
}
