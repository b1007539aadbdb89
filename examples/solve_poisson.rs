//! Solve a 3-D Poisson problem with Conjugate Gradient — the iterative
//! solver context the paper frames its amortization analysis around
//! (Section IV-D): SpMV is called once per iteration, so a faster SpMV
//! kernel repays its setup cost after `N_iters,min` iterations.
//!
//! Run with: `cargo run --release --example solve_poisson [grid-size]`

use sparseopt::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    let coo = sparseopt::matrix::generators::poisson3d(n, n, n);
    let a = Arc::new(CsrMatrix::from_coo(&coo));
    let dim = a.nrows();
    println!("Poisson {n}^3: {} unknowns, {} nonzeros", dim, a.nnz());

    // Right-hand side: a point source in the middle of the domain.
    let mut b = vec![0.0f64; dim];
    b[dim / 2] = 1.0;

    let ctx = ExecCtx::host();
    let opts = SolverOptions {
        tol: 1e-8,
        max_iters: 4000,
    };

    // 1. CG with the baseline kernel.
    let baseline = ParallelCsr::baseline(a.clone(), ctx.clone());
    let mut x0 = vec![0.0f64; dim];
    let t0 = Instant::now();
    let out0 = cg(&baseline, &b, &mut x0, &IdentityPrecond, &opts);
    let base_time = t0.elapsed();
    println!(
        "baseline CSR : {} iters, residual {:.2e}, {} SpMV calls, {:.1} ms",
        out0.iterations,
        out0.relative_residual,
        out0.spmv_calls,
        base_time.as_secs_f64() * 1e3
    );
    assert!(out0.converged, "CG must converge on SPD Poisson");

    // 2. CG with the adaptively optimized kernel (setup cost timed too).
    let t0 = Instant::now();
    let optimizer = AdaptiveOptimizer::new(ctx);
    let profiler = SimBoundsProfiler::new(Platform::knl());
    let optimized = optimizer.optimize_profiled(&a, &profiler);
    let setup = t0.elapsed();
    println!(
        "optimizer    : classes {}, plan {}, setup {:.2} ms",
        optimized.classes,
        optimized.plan.label(),
        setup.as_secs_f64() * 1e3
    );

    let mut x1 = vec![0.0f64; dim];
    let t0 = Instant::now();
    let out1 = cg(
        optimized.kernel.as_ref(),
        &b,
        &mut x1,
        &IdentityPrecond,
        &opts,
    );
    let opt_time = t0.elapsed();
    println!(
        "optimized CSR: {} iters, residual {:.2e}, {} SpMV calls, {:.1} ms",
        out1.iterations,
        out1.relative_residual,
        out1.spmv_calls,
        opt_time.as_secs_f64() * 1e3
    );
    assert!(out1.converged);

    // 3. SymGS-preconditioned CG: Poisson is exactly symmetric, so the
    //    Gauss-Seidel sweeps read only the SSS lower triangle + diagonal —
    //    roughly half the matrix bytes of full CSR.
    let sss = Arc::new(SssCsr::try_from_csr(&a).expect("Poisson is symmetric"));
    println!(
        "symmetric SSS: {} stored nonzeros vs {} (footprint {:.1} KiB vs {:.1} KiB)",
        sss.stored_nnz(),
        a.nnz(),
        sss.footprint_bytes() as f64 / 1024.0,
        a.footprint_bytes() as f64 / 1024.0
    );
    let symgs = SymGsPrecond::new(sss).expect("Poisson has a zero-free diagonal");
    let mut x_sym = vec![0.0f64; dim];
    let t0 = Instant::now();
    let out_sym = cg(optimized.kernel.as_ref(), &b, &mut x_sym, &symgs, &opts);
    println!(
        "symgs-CG     : {} iters, residual {:.2e}, {:.1} ms",
        out_sym.iterations,
        out_sym.relative_residual,
        t0.elapsed().as_secs_f64() * 1e3
    );
    assert!(out_sym.converged, "SymGS-preconditioned CG must converge");

    // 4. Jacobi-preconditioned variant (fewer iterations, same answer).
    let mut x2 = vec![0.0f64; dim];
    let out2 = cg(
        optimized.kernel.as_ref(),
        &b,
        &mut x2,
        &JacobiPrecond::new(&a).expect("Poisson has a zero-free diagonal"),
        &opts,
    );
    println!(
        "jacobi-CG    : {} iters, residual {:.2e}",
        out2.iterations, out2.relative_residual
    );

    // 5. IC(0)-preconditioned variant: two triangular solves per iteration
    // buy a much smaller iteration count — the preconditioned-solver
    // trade-off the paper's amortization analysis weighs.
    let t0 = Instant::now();
    let ic = Ic0Precond::new(&a).expect("Poisson is SPD");
    let ic_setup = t0.elapsed();
    let mut x3 = vec![0.0f64; dim];
    let out3 = cg(optimized.kernel.as_ref(), &b, &mut x3, &ic, &opts);
    println!(
        "ic0-CG       : {} iters, residual {:.2e} (factorization {:.2} ms)",
        out3.iterations,
        out3.relative_residual,
        ic_setup.as_secs_f64() * 1e3
    );
    assert!(
        out3.iterations <= out2.iterations,
        "IC(0) must not need more iterations than Jacobi"
    );

    // All solutions agree.
    let err01 = x0
        .iter()
        .zip(&x1)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max);
    let err02 = x0
        .iter()
        .zip(&x2)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max);
    let err03 = x0
        .iter()
        .zip(&x_sym)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max);
    println!(
        "max solution deviation: baseline-vs-optimized {err01:.2e}, vs jacobi {err02:.2e}, \
         vs symgs {err03:.2e}"
    );
    assert!(
        err01 < 1e-5 && err02 < 1e-5 && err03 < 1e-5,
        "solutions must agree"
    );

    // Amortization: how many iterations repay the optimizer setup?
    let per_iter_gain =
        (base_time.as_secs_f64() - opt_time.as_secs_f64()) / out0.iterations.max(1) as f64;
    if per_iter_gain > 0.0 {
        println!(
            "setup amortizes after ~{:.0} solver iterations (paper Table V analysis)",
            setup.as_secs_f64() / per_iter_gain
        );
    } else {
        println!("optimized kernel not faster on this host/problem; setup never amortizes");
    }
}
