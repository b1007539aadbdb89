//! Block-Krylov traffic over the SpMM layer: solve one SPD system for `k`
//! right-hand sides with (a) `k` independent CG runs over SpMV and (b) one
//! block-CG run over SpMM, then compare matrix streams — every SpMM call
//! reads the matrix once, so the block solve amortizes the dominant cost of
//! MB-bound matrices by the reuse factor. The modeled bounds show the same
//! story: growing `k` lifts the `P_MB` roof until bandwidth stops binding.
//!
//! Run with: `cargo run --release --example block_krylov`

use sparseopt::prelude::*;
use sparseopt::solver::{bicgstab_multi, block_cg, cg, IdentityPrecond, SolverOptions};
use std::sync::Arc;

fn main() {
    let k = 6;
    let a = Arc::new(CsrMatrix::from_coo(
        &sparseopt::matrix::generators::poisson2d(48, 48),
    ));
    let n = a.nrows();
    let ctx = ExecCtx::host();
    println!(
        "poisson2d 48x48: n = {n}, nnz = {}, k = {k} right-hand sides\n",
        a.nnz()
    );

    let b = MultiVec::from_fn(n, k, |i, j| ((i * 13 + j * 29) % 31) as f64 / 15.0 - 1.0);
    let opts = SolverOptions {
        tol: 1e-9,
        max_iters: 2000,
    };

    // (a) k sequential CG solves over the SpMV kernel.
    let spmv = ParallelCsr::baseline(a.clone(), ctx.clone());
    let mut seq_spmv_calls = 0usize;
    let mut worst_iters = 0usize;
    for j in 0..k {
        let bj = b.column(j);
        let mut xj = vec![0.0f64; n];
        let out = cg(&spmv, &bj, &mut xj, &IdentityPrecond, &opts);
        assert!(out.converged, "column {j}: {out:?}");
        seq_spmv_calls += out.spmv_calls;
        worst_iters = worst_iters.max(out.iterations);
    }
    println!(
        "sequential CG : {seq_spmv_calls:4} matrix streams (worst column: {worst_iters} iters)"
    );

    // (b) One block-CG solve over the SpMM kernel.
    let spmm = ParallelCsr::baseline(a.clone(), ctx.clone());
    let mut x = MultiVec::zeros(n, k);
    let out = block_cg(&spmm, &b, &mut x, &IdentityPrecond, &opts);
    assert!(out.converged, "{out:?}");
    println!(
        "block CG      : {:4} matrix streams ({} iters, max rel residual {:.2e})",
        out.spmm_calls, out.iterations, out.max_relative_residual
    );
    println!(
        "amortization  : {:.1}x fewer matrix streams\n",
        seq_spmv_calls as f64 / out.spmm_calls as f64
    );

    // Batched BiCGSTAB works on the same operator (it does not need SPD).
    let mut xb = MultiVec::zeros(n, k);
    let ob = bicgstab_multi(&spmm, &b, &mut xb, &IdentityPrecond, &opts);
    println!(
        "batched BiCGSTAB: converged = {}, {} iters, {} matrix streams\n",
        ob.converged, ob.iterations, ob.spmm_calls
    );

    // The classifier's view: the reuse factor k lifts the bandwidth roof.
    let profiler = SimBoundsProfiler::new(Platform::knc());
    let clf = ProfileGuidedClassifier::new();
    let band = Arc::new(CsrMatrix::from_coo(&sparseopt::matrix::generators::banded(
        400_000, 12,
    )));
    // One O(NNZ) matrix analysis shared by every k.
    let profile = profiler.profile(&band);
    println!("modeled KNC bounds for banded(400k, 12) under SpMM traffic:");
    println!(
        "{:>4} {:>10} {:>10} {:>10}  classes",
        "k", "P_CSR", "P_MB", "P_CMP"
    );
    for k in [1usize, 2, 4, 8, 16, 32] {
        let bounds = profiler.measure_profile(&profile, k);
        println!(
            "{k:>4} {:>10.2} {:>10.2} {:>10.2}  {}",
            bounds.p_csr,
            bounds.p_mb,
            bounds.p_cmp,
            clf.classify(&bounds)
        );
    }
}
