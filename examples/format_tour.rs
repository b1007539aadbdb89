//! Tour of the storage formats and what each optimization buys: the
//! delta-compressed index stream the model prices for the MB class and the
//! SELL-C-σ operator an MB plan builds on the host, decomposed CSR (IMB),
//! and the kernel configuration space (prefetch, unrolling, SIMD,
//! scheduling), with footprint and wall-clock comparisons on this machine.
//!
//! Run with: `cargo run --release --example format_tour`

use sparseopt::core::CsrKernelConfig;
use sparseopt::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn time_kernel(k: &dyn SparseLinOp, x: &[f64], y: &mut [f64], reps: usize) -> f64 {
    k.spmv(x, y);
    let t0 = Instant::now();
    for _ in 0..reps {
        k.spmv(x, y);
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let ctx = ExecCtx::host();
    let reps = 30;

    // A banded matrix (compresses well) and a skewed circuit-like matrix
    // (decomposes well).
    let banded = Arc::new(CsrMatrix::from_coo(&sparseopt::matrix::generators::banded(
        60_000, 4,
    )));
    let skewed = Arc::new(CsrMatrix::from_coo(
        &sparseopt::matrix::generators::few_dense_rows(30_000, 3, 4, 7),
    ));

    println!("== The MB optimization on a banded matrix ==");
    println!(
        "plain CSR footprint : {:>10} bytes ({} nnz)",
        banded.footprint_bytes(),
        banded.nnz()
    );
    let delta = Arc::new(DeltaCsrMatrix::from_csr(&banded));
    println!(
        "delta-CSR footprint : {:>10} bytes (width {:?}, {} exceptions, index ratio {:.2})",
        delta.footprint_bytes(),
        delta.width(),
        delta.exception_count(),
        delta.index_compression_ratio()
    );

    // The simulator prices the compressed index stream; on the host the
    // plan builds SELL-C-σ, the vectorization half of the remedy.
    let features = MatrixFeatures::extract(&banded, 32 << 20);
    let plan = OptimizationPlan::from_optimizations(&[Optimization::CompressVectorize], &features);
    let x = vec![1.0f64; banded.ncols()];
    let mut y = vec![0.0f64; banded.nrows()];
    let plain = ParallelCsr::baseline(banded.clone(), ctx.clone());
    let compressed = plan.build_host_kernel(&banded, ctx.clone());
    let t_plain = time_kernel(&plain, &x, &mut y, reps);
    let t_comp = time_kernel(compressed.as_ref(), &x, &mut y, reps);
    println!(
        "{:<40} {:>8.3} Gflop/s\n{:<40} {:>8.3} Gflop/s",
        plain.name(),
        gflops(plain.flops(1), t_plain),
        compressed.name(),
        gflops(compressed.flops(1), t_comp)
    );

    println!("\n== Decomposition (the IMB optimization) on a skewed matrix ==");
    let threshold = DecomposedCsrMatrix::auto_threshold(&skewed, 4.0);
    let dec = Arc::new(DecomposedCsrMatrix::from_csr(&skewed, threshold));
    println!(
        "{} long rows (> {} nnz) split out, {} of {} nnz",
        dec.long_rows().len(),
        threshold,
        dec.long_nnz(),
        dec.nnz()
    );
    let x = vec![1.0f64; skewed.ncols()];
    let mut y = vec![0.0f64; skewed.nrows()];
    let base = ParallelCsr::baseline(skewed.clone(), ctx.clone());
    let deck = DecomposedKernel::baseline(dec, ctx.clone());
    let t_base = time_kernel(&base, &x, &mut y, reps);
    let t_dec = time_kernel(&deck, &x, &mut y, reps);
    println!(
        "{:<40} {:>8.3} Gflop/s\n{:<40} {:>8.3} Gflop/s",
        base.name(),
        gflops(base.flops(1), t_base),
        deck.name(),
        gflops(deck.flops(1), t_dec)
    );

    println!("\n== Kernel configuration space on the banded matrix ==");
    let x = vec![1.0f64; banded.ncols()];
    let mut y = vec![0.0f64; banded.nrows()];
    for (label, cfg) in [
        ("scalar", CsrKernelConfig::baseline()),
        (
            "prefetch",
            CsrKernelConfig {
                prefetch: true,
                ..CsrKernelConfig::baseline()
            },
        ),
        (
            "unrolled",
            CsrKernelConfig {
                inner: InnerLoop::Unrolled4,
                ..CsrKernelConfig::baseline()
            },
        ),
        (
            "simd",
            CsrKernelConfig {
                inner: InnerLoop::Simd,
                ..CsrKernelConfig::baseline()
            },
        ),
        (
            "auto-sched",
            CsrKernelConfig {
                schedule: Schedule::Auto,
                ..CsrKernelConfig::baseline()
            },
        ),
    ] {
        let k = ParallelCsr::new(banded.clone(), cfg, ctx.clone());
        let t = time_kernel(&k, &x, &mut y, reps);
        println!(
            "{label:<12} {:>8.3} Gflop/s   ({})",
            gflops(k.flops(1), t),
            k.name()
        );
    }
}
