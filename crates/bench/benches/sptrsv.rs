//! Criterion group for the sparse triangular solve: forward (`L`) and
//! backward (`Lᵀ`) IC(0) solves, serial substitution against the
//! level-scheduled kernel at host threads, on a 3-D stencil factor larger
//! than L2 (`poisson3d` 48³: 110k rows, about 5 MB per triangle). That is
//! the shape an IC(0)-preconditioned CG on a 3-D stencil applies twice per
//! iteration, with levels hundreds of rows wide — the path the packed
//! execution-order store exists for. `ci_bench`'s SpTRSV members are
//! cache-resident and cannot show it.
//!
//! A third group times one whole IC(0) application on the same factor:
//! `Ic0Precond::new` (serial solves, natural order) against
//! `Ic0Precond::with_ctx` at host threads, which stores both factors in the
//! forward DAG's level order and gathers `r` into it and scatters `z` out.
//!
//! With one host thread the level-scheduled kernel resolves to serial, so
//! every row exists everywhere. `tests/trsv_equivalence.rs` and the
//! `factor.rs` unit tests pin correctness.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sparseopt_core::prelude::*;
use sparseopt_matrix::generators as g;
use sparseopt_solver::{ic0, Ic0Precond, Preconditioner};

fn bench_sptrsv(c: &mut Criterion) {
    let ctx = ExecCtx::host();
    let a = CsrMatrix::from_coo(&g::poisson3d(48, 48, 48));
    let l = ic0(&a).expect("Poisson is SPD");
    let lt = CsrMatrix::from_coo(&l.to_coo().transpose());
    let b: Vec<f64> = (0..a.nrows())
        .map(|i| 0.5 + (i as f64 * 0.13).sin())
        .collect();
    let mut x = vec![0.0f64; a.nrows()];

    for (name, m, dir) in [
        ("forward", &l, TrsvDirection::Lower),
        ("backward", &lt, TrsvDirection::Upper),
    ] {
        let mut group = c.benchmark_group(format!("sptrsv/poisson3d-48/{name}"));
        group.throughput(Throughput::Elements(m.nnz() as u64));
        group.sample_size(20);

        let serial = TrsvKernel::serial(m, dir, false).expect("IC(0) factor");
        group.bench_function("serial", |bch| bch.iter(|| serial.solve(&b, &mut x)));

        let level = TrsvKernel::try_new(m, dir, false, TrsvAlgo::LevelScheduled, ctx.clone())
            .expect("IC(0) factor");
        group.bench_function("level", |bch| bch.iter(|| level.solve(&b, &mut x)));

        group.finish();
    }

    let mut group = c.benchmark_group("sptrsv/poisson3d-48/ic0-apply");
    group.throughput(Throughput::Elements((l.nnz() + lt.nnz()) as u64));
    group.sample_size(20);
    let serial = Ic0Precond::new(&a).expect("Poisson is SPD");
    group.bench_function("serial", |bch| bch.iter(|| serial.apply(&b, &mut x)));
    let leveled = Ic0Precond::with_ctx(&a, ctx).expect("Poisson is SPD");
    group.bench_function("level-ordered", |bch| {
        bch.iter(|| leveled.apply(&b, &mut x))
    });
    group.finish();
}

criterion_group!(benches, bench_sptrsv);
criterion_main!(benches);
