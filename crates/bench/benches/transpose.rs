//! Transposed-application micro-benchmarks: `y = Aᵀ·x` across every format
//! operator, against the forward application of the same operator. The gap
//! quantifies the scatter machinery's cost (thread-private scratch + merge)
//! relative to the gather-side forward kernel.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sparseopt_core::prelude::*;
use sparseopt_matrix::generators as g;
use std::sync::Arc;

fn bench_transpose(c: &mut Criterion) {
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
        let mut group = c.benchmark_group(format!("transpose/{name}"));
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        group.sample_size(10);

        let x: Vec<f64> = (0..csr.ncols())
            .map(|i| 0.5 + (i as f64 * 0.13).sin())
            .collect();
        let xt: Vec<f64> = (0..csr.nrows())
            .map(|i| 0.5 + (i as f64 * 0.17).cos())
            .collect();
        let mut y = vec![0.0f64; csr.nrows()];
        let mut yt = vec![0.0f64; csr.ncols()];

        let threshold = DecomposedCsrMatrix::auto_threshold(csr, 4.0);
        let ops: Vec<Box<dyn SparseLinOp>> = vec![
            Box::new(ParallelCsr::baseline(csr.clone(), ctx.clone())),
            Box::new(SellKernel::vectorized(
                Arc::new(SellMatrix::from_csr(csr)),
                ctx.clone(),
            )),
            Box::new(DecomposedKernel::baseline(
                Arc::new(DecomposedCsrMatrix::from_csr(csr, threshold)),
                ctx.clone(),
            )),
        ];

        for op in &ops {
            group.bench_function(format!("{}/forward", op.name()), |b| {
                b.iter(|| op.apply(Apply::NoTrans, &x, &mut y))
            });
            group.bench_function(format!("{}/transpose", op.name()), |b| {
                b.iter(|| op.apply(Apply::Trans, &xt, &mut yt))
            });
        }
        group.finish();
    }

    // Multi-vector transpose: the k-wide scatter amortizes the matrix
    // stream exactly like forward SpMM does.
    let csr = &cases[0].1;
    for k in [4usize, 8] {
        let mut group = c.benchmark_group(format!("transpose-multi/poisson3d-12/k{k}"));
        group.throughput(Throughput::Elements((csr.nnz() * k) as u64));
        group.sample_size(10);
        let op = ParallelCsr::baseline(csr.clone(), ctx.clone());
        let x = MultiVec::from_fn(csr.nrows(), k, |i, j| ((i * 7 + j) as f64 * 0.11).sin());
        let mut y = MultiVec::zeros(csr.ncols(), k);
        group.bench_function("csr-parallel", |b| {
            b.iter(|| op.apply_multi(Apply::Trans, &x, &mut y))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_transpose);
criterion_main!(benches);
