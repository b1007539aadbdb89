//! Criterion micro-benchmarks of the real SpMV kernel family on the host
//! machine: baseline vs. each Table II optimization, on one regular and one
//! irregular matrix. These complement the modeled figures with actual
//! wall-clock evidence that the kernel implementations behave as designed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sparseopt_core::prelude::*;
use sparseopt_core::CsrKernelConfig;
use sparseopt_matrix::generators as g;
use std::sync::Arc;

fn bench_kernels(c: &mut Criterion) {
    let ctx = ExecCtx::host();
    let cases: Vec<(&str, Arc<CsrMatrix>)> = vec![
        (
            "poisson3d-16",
            Arc::new(CsrMatrix::from_coo(&g::poisson3d(16, 16, 16))),
        ),
        (
            "random-8k-d8",
            Arc::new(CsrMatrix::from_coo(&g::random_uniform(8192, 8, 1))),
        ),
        (
            "fewdense-8k",
            Arc::new(CsrMatrix::from_coo(&g::few_dense_rows(8192, 2, 3, 2))),
        ),
    ];

    for (name, csr) in &cases {
        let mut group = c.benchmark_group(format!("spmv/{name}"));
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        group.sample_size(20);

        let x = vec![1.0f64; csr.ncols()];
        let mut y = vec![0.0f64; csr.nrows()];

        let serial = SerialCsr::new(csr.clone());
        group.bench_function("serial", |b| b.iter(|| serial.spmv(&x, &mut y)));

        let configs: Vec<(&str, CsrKernelConfig)> = vec![
            ("baseline", CsrKernelConfig::baseline()),
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
        ];
        for (label, cfg) in configs {
            let k = ParallelCsr::new(csr.clone(), cfg, ctx.clone());
            group.bench_function(BenchmarkId::new("parallel", label), |b| {
                b.iter(|| k.spmv(&x, &mut y))
            });
        }

        let threshold = DecomposedCsrMatrix::auto_threshold(csr, 4.0);
        let dec = Arc::new(DecomposedCsrMatrix::from_csr(csr, threshold));
        let deck = DecomposedKernel::baseline(dec, ctx.clone());
        group.bench_function("decomposed", |b| b.iter(|| deck.spmv(&x, &mut y)));

        group.finish();
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
