//! SpMM micro-benchmarks: the multi-RHS kernels against the honest
//! alternative — `k` back-to-back SpMV calls on the same matrix. The gap
//! between the two is the reuse-factor amortization the analytic SpMM model
//! predicts: the matrix stream is paid once per SpMM call instead of `k`
//! times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sparseopt_core::prelude::*;
use sparseopt_matrix::generators as g;
use std::sync::Arc;

fn bench_spmm(c: &mut Criterion) {
    let ctx = ExecCtx::host();
    let cases: Vec<(&str, Arc<CsrMatrix>)> = vec![
        (
            "poisson3d-12",
            Arc::new(CsrMatrix::from_coo(&g::poisson3d(12, 12, 12))),
        ),
        (
            "random-4k-d8",
            Arc::new(CsrMatrix::from_coo(&g::random_uniform(4096, 8, 1))),
        ),
        (
            "fewdense-4k",
            Arc::new(CsrMatrix::from_coo(&g::few_dense_rows(4096, 2, 3, 2))),
        ),
    ];

    for (name, csr) in &cases {
        for k in [1usize, 4, 8] {
            let mut group = c.benchmark_group(format!("spmm/{name}/k{k}"));
            group.throughput(Throughput::Elements((csr.nnz() * k) as u64));
            group.sample_size(10);

            let x = MultiVec::from_fn(csr.ncols(), k, |i, j| {
                0.5 + ((i * 7 + j * 3) as f64 * 0.13).sin()
            });
            let mut y = MultiVec::zeros(csr.nrows(), k);

            // Reference: k sequential SpMV sweeps over the same matrix.
            let spmv = ParallelCsr::baseline(csr.clone(), ctx.clone());
            let xcols: Vec<Vec<f64>> = (0..k).map(|j| x.column(j)).collect();
            let mut ycol = vec![0.0f64; csr.nrows()];
            group.bench_function("spmv-seq", |b| {
                b.iter(|| {
                    for col in &xcols {
                        spmv.spmv(col, &mut ycol);
                    }
                })
            });

            let kernels: Vec<Box<dyn SparseLinOp>> = vec![
                Box::new(ParallelCsr::baseline(csr.clone(), ctx.clone())),
                Box::new(SellKernel::vectorized(
                    Arc::new(SellMatrix::from_csr(csr)),
                    ctx.clone(),
                )),
                Box::new(DecomposedKernel::baseline(
                    Arc::new(DecomposedCsrMatrix::from_csr(
                        csr,
                        DecomposedCsrMatrix::auto_threshold(csr, 4.0),
                    )),
                    ctx.clone(),
                )),
            ];
            for kernel in kernels {
                group.bench_function(BenchmarkId::new("spmm", kernel.name()), |b| {
                    b.iter(|| kernel.spmm(&x, &mut y))
                });
            }
            group.finish();
        }
    }
}

criterion_group!(benches, bench_spmm);
criterion_main!(benches);
