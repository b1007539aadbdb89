//! Solver × kernel matrix: every Krylov solver must converge to the same
//! answer regardless of which SpMV kernel implementation backs the operator.

use sparseopt::prelude::*;
use std::sync::Arc;

fn spd_system(n: usize) -> (Arc<CsrMatrix>, Vec<f64>) {
    let a = Arc::new(CsrMatrix::from_coo(
        &sparseopt::matrix::generators::poisson2d(n, n),
    ));
    let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 11) as f64) - 5.0).collect();
    (a, b)
}

fn nonsym_system(n: usize) -> (Arc<CsrMatrix>, Vec<f64>) {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 6.0);
        if i > 0 {
            coo.push(i, i - 1, -2.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
        if i + 13 < n {
            coo.push(i, i + 13, 0.5);
        }
    }
    (Arc::new(CsrMatrix::from_coo(&coo)), vec![1.0; n])
}

/// Builds one kernel of every implementation family over `a`.
fn kernel_zoo(a: &Arc<CsrMatrix>, ctx: &Arc<ExecCtx>) -> Vec<Box<dyn SparseLinOp>> {
    use sparseopt::core::CsrKernelConfig;
    let threshold = DecomposedCsrMatrix::auto_threshold(a, 4.0);
    vec![
        Box::new(SerialCsr::new(a.clone())),
        Box::new(ParallelCsr::baseline(a.clone(), ctx.clone())),
        Box::new(ParallelCsr::new(
            a.clone(),
            CsrKernelConfig {
                inner: InnerLoop::Simd,
                prefetch: true,
                schedule: Schedule::Dynamic { chunk: 16 },
            },
            ctx.clone(),
        )),
        Box::new(DecomposedKernel::baseline(
            Arc::new(DecomposedCsrMatrix::from_csr(a, threshold)),
            ctx.clone(),
        )),
        Box::new(SellKernel::vectorized(
            Arc::new(SellMatrix::from_csr(a)),
            ctx.clone(),
        )),
        Box::new(MergeCsr::baseline(a.clone(), ctx.clone())),
    ]
}

#[test]
fn cg_converges_identically_on_every_kernel() {
    let (a, b) = spd_system(24);
    let ctx = ExecCtx::new(2);
    let opts = SolverOptions {
        tol: 1e-10,
        max_iters: 3000,
    };

    let mut reference: Option<Vec<f64>> = None;
    for kernel in kernel_zoo(&a, &ctx) {
        let mut x = vec![0.0f64; a.nrows()];
        let out = cg(kernel.as_ref(), &b, &mut x, &IdentityPrecond, &opts);
        assert!(out.converged, "{} did not converge: {out:?}", kernel.name());
        match &reference {
            None => reference = Some(x),
            Some(r) => {
                for (p, q) in x.iter().zip(r) {
                    assert!((p - q).abs() < 1e-6, "{}: {p} vs {q}", kernel.name());
                }
            }
        }
    }
}

#[test]
fn bicgstab_and_gmres_agree_on_every_kernel() {
    let (a, b) = nonsym_system(600);
    let ctx = ExecCtx::new(3);
    let opts = SolverOptions {
        tol: 1e-10,
        max_iters: 2000,
    };

    let mut reference: Option<Vec<f64>> = None;
    for kernel in kernel_zoo(&a, &ctx) {
        let mut xb = vec![0.0f64; a.nrows()];
        let ob = bicgstab(
            kernel.as_ref(),
            &b,
            &mut xb,
            &JacobiPrecond::new(&a).expect("zero-free diagonal"),
            &opts,
        );
        assert!(ob.converged, "bicgstab/{}: {ob:?}", kernel.name());

        let mut xg = vec![0.0f64; a.nrows()];
        let og = gmres(kernel.as_ref(), &b, &mut xg, &IdentityPrecond, 40, &opts);
        assert!(og.converged, "gmres/{}: {og:?}", kernel.name());

        for (p, q) in xb.iter().zip(&xg) {
            assert!(
                (p - q).abs() < 1e-5,
                "{}: bicgstab {p} vs gmres {q}",
                kernel.name()
            );
        }
        match &reference {
            None => reference = Some(xb),
            Some(r) => {
                for (p, q) in xb.iter().zip(r) {
                    assert!((p - q).abs() < 1e-5, "{}: {p} vs {q}", kernel.name());
                }
            }
        }
    }
}

/// Every multi-vector implementation family over `a`, for the block
/// solvers.
fn spmm_zoo(a: &Arc<CsrMatrix>, ctx: &Arc<ExecCtx>) -> Vec<Box<dyn SparseLinOp>> {
    let threshold = DecomposedCsrMatrix::auto_threshold(a, 4.0);
    vec![
        Box::new(ParallelCsr::baseline(a.clone(), ctx.clone())),
        Box::new(SellKernel::vectorized(
            Arc::new(SellMatrix::from_csr(a)),
            ctx.clone(),
        )),
        Box::new(MergeCsr::baseline(a.clone(), ctx.clone())),
        Box::new(DecomposedKernel::baseline(
            Arc::new(DecomposedCsrMatrix::from_csr(a, threshold)),
            ctx.clone(),
        )),
    ]
}

#[test]
fn block_cg_matches_k_sequential_cg_runs() {
    // The block-Krylov regression the SpMM layer exists for: block CG on a
    // generated SPD system must reach the same per-column solutions as k
    // sequential CG runs, within tolerance, on every multi-vector format.
    let (a, _) = spd_system(20);
    let n = a.nrows();
    let k = 4usize;
    let ctx = ExecCtx::new(2);
    let opts = SolverOptions {
        tol: 1e-9,
        max_iters: 2000,
    };
    let b = MultiVec::from_fn(n, k, |i, j| ((i * 7 + j * 3) % 13) as f64 / 6.0 - 1.0);

    // Reference: k sequential single-vector CG solves.
    let spmv = SerialCsr::new(a.clone());
    let mut reference: Vec<Vec<f64>> = Vec::new();
    let mut max_single_iters = 0usize;
    let mut total_single_streams = 0usize;
    for j in 0..k {
        let bj = b.column(j);
        let mut xj = vec![0.0f64; n];
        let out = cg(&spmv, &bj, &mut xj, &IdentityPrecond, &opts);
        assert!(out.converged, "column {j}: {out:?}");
        max_single_iters = max_single_iters.max(out.iterations);
        total_single_streams += out.spmv_calls;
        reference.push(xj);
    }

    for kernel in spmm_zoo(&a, &ctx) {
        let mut x = MultiVec::zeros(n, k);
        let out = block_cg(kernel.as_ref(), &b, &mut x, &IdentityPrecond, &opts);
        assert!(out.converged, "{}: {out:?}", kernel.name());

        // Iteration budget: the block Krylov space contains every column's
        // individual space, so block CG cannot need more iterations than the
        // slowest sequential solve (small slack for floating-point drift).
        assert!(
            out.iterations <= max_single_iters + 5,
            "{}: block CG took {} iters vs worst single {}",
            kernel.name(),
            out.iterations,
            max_single_iters
        );
        // And it must actually amortize: far fewer matrix streams than the
        // k sequential solves combined.
        assert!(
            out.spmm_calls * 2 < total_single_streams,
            "{}: {} spmm calls vs {} sequential spmv calls",
            kernel.name(),
            out.spmm_calls,
            total_single_streams
        );

        for (j, xj) in reference.iter().enumerate() {
            for (p, q) in x.column(j).iter().zip(xj) {
                assert!(
                    (p - q).abs() < 1e-6,
                    "{} column {j}: {p} vs {q}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn bicgstab_multi_matches_sequential_bicgstab() {
    let (a, _) = nonsym_system(400);
    let n = a.nrows();
    let k = 3usize;
    let ctx = ExecCtx::new(2);
    let opts = SolverOptions {
        tol: 1e-10,
        max_iters: 2000,
    };
    let b = MultiVec::from_fn(n, k, |i, j| ((i + j * 5) % 9) as f64 / 4.0 - 1.0);

    let spmv = SerialCsr::new(a.clone());
    let kernel = ParallelCsr::baseline(a.clone(), ctx);
    let mut x = MultiVec::zeros(n, k);
    let out = bicgstab_multi(
        &kernel,
        &b,
        &mut x,
        &JacobiPrecond::new(&a).expect("zero-free diagonal"),
        &opts,
    );
    assert!(out.converged, "{out:?}");

    for j in 0..k {
        let bj = b.column(j);
        let mut xj = vec![0.0f64; n];
        let single = bicgstab(
            &spmv,
            &bj,
            &mut xj,
            &JacobiPrecond::new(&a).expect("zero-free diagonal"),
            &opts,
        );
        assert!(single.converged, "column {j}: {single:?}");
        for (p, q) in x.column(j).iter().zip(&xj) {
            assert!((p - q).abs() < 1e-5, "column {j}: {p} vs {q}");
        }
    }
}

/// Rectangular (overdetermined) data-fitting operator with full column
/// rank, as raw CSR.
fn rectangular_system(m: usize, n: usize) -> (Arc<CsrMatrix>, Vec<f64>) {
    let mut coo = CooMatrix::new(m, n);
    for i in 0..m {
        let c = i % n;
        coo.push(i, c, 2.0 + (i % 5) as f64 * 0.25);
        coo.push(i, (c + 3) % n, -1.0 + (i % 3) as f64 * 0.125);
        coo.push(i, (c + 7) % n, 0.5);
    }
    let b: Vec<f64> = (0..m).map(|i| ((i * 5 % 17) as f64) / 4.0 - 2.0).collect();
    (Arc::new(CsrMatrix::from_coo(&coo)), b)
}

#[test]
fn bicg_converges_identically_on_every_kernel() {
    // The classic transpose-consuming Krylov method must agree with
    // BiCGSTAB over every operator implementation — forward and transposed
    // paths of each format both feed the same recurrence.
    let (a, b) = nonsym_system(400);
    let ctx = ExecCtx::new(3);
    let opts = SolverOptions {
        tol: 1e-10,
        max_iters: 2000,
    };

    let mut reference: Option<Vec<f64>> = None;
    for kernel in kernel_zoo(&a, &ctx) {
        let mut x = vec![0.0f64; a.nrows()];
        let out = bicg(
            kernel.as_ref(),
            &b,
            &mut x,
            &JacobiPrecond::new(&a).expect("zero-free diagonal"),
            &opts,
        );
        assert!(out.converged, "bicg/{}: {out:?}", kernel.name());
        // One forward + one transposed stream per iteration + the residual.
        assert_eq!(out.spmv_calls, 2 * out.iterations + 1, "{}", kernel.name());
        match &reference {
            None => reference = Some(x),
            Some(r) => {
                for (p, q) in x.iter().zip(r) {
                    assert!((p - q).abs() < 1e-5, "{}: {p} vs {q}", kernel.name());
                }
            }
        }
    }
}

#[test]
fn lsqr_and_cgnr_solve_rectangular_least_squares_on_every_kernel() {
    let (a, b) = rectangular_system(150, 40);
    let ctx = ExecCtx::new(2);
    let opts = SolverOptions {
        tol: 1e-12,
        max_iters: 1000,
    };

    // Reference optimality residual: ‖Aᵀ(b − A x)‖ must vanish.
    let normal_residual = |op: &dyn SparseLinOp, x: &[f64]| -> f64 {
        let mut r = vec![0.0; 150];
        op.apply(Apply::NoTrans, x, &mut r);
        for (ri, bi) in r.iter_mut().zip(&b) {
            *ri = bi - *ri;
        }
        let mut atr = vec![0.0; 40];
        op.apply(Apply::Trans, &r, &mut atr);
        atr.iter().map(|v| v * v).sum::<f64>().sqrt()
    };

    let mut reference: Option<Vec<f64>> = None;
    for kernel in kernel_zoo(&a, &ctx) {
        let mut x = vec![0.0f64; 40];
        let out = lsqr(kernel.as_ref(), &b, &mut x, &opts);
        assert!(out.converged, "lsqr/{}: {out:?}", kernel.name());
        let nres = normal_residual(kernel.as_ref(), &x);
        assert!(nres < 1e-6, "{}: ‖Aᵀr‖ = {nres}", kernel.name());

        let mut xc = vec![0.0f64; 40];
        let outc = cgnr(kernel.as_ref(), &b, &mut xc, &opts);
        assert!(outc.converged, "cgnr/{}: {outc:?}", kernel.name());
        for (p, q) in x.iter().zip(&xc) {
            assert!(
                (p - q).abs() < 1e-6,
                "{}: lsqr {p} vs cgnr {q}",
                kernel.name()
            );
        }

        match &reference {
            None => reference = Some(x),
            Some(r) => {
                for (p, q) in x.iter().zip(r) {
                    assert!((p - q).abs() < 1e-6, "{}: {p} vs {q}", kernel.name());
                }
            }
        }
    }
}

#[test]
fn solver_spmv_counts_feed_amortization() {
    // The Table V bridge: solver SpMV counts × per-call savings are exactly
    // what the amortization analysis consumes.
    let (a, b) = spd_system(16);
    let kernel = SerialCsr::new(a.clone());
    let mut x = vec![0.0f64; a.nrows()];
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
    assert!(out.converged);
    // One SpMV per iteration plus the initial residual.
    assert_eq!(out.spmv_calls, out.iterations + 1);

    let iters = sparseopt::optimizer::amortization_iters(1.0, 2e-3, 1e-3).unwrap();
    assert!((iters - 1000.0).abs() < 1e-9);
    assert!(
        out.iterations as f64 * 4.0 > 0.0,
        "sanity: solver produced a usable iteration count"
    );
}
