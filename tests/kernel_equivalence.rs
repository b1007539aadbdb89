//! Property-based cross-crate invariant: every kernel in the library —
//! all CSR configurations, SELL-C-σ, decomposed, merge-path, and every
//! optimizer-built plan — computes the same `y = A·x` as the serial
//! reference on arbitrary sparse matrices.

use proptest::prelude::*;
use sparseopt::core::CsrKernelConfig;
use sparseopt::prelude::*;
use std::sync::Arc;

mod common;

/// Dense reference `y = A·x` accumulated straight from the raw triplets,
/// independent of every sparse format under test (duplicates sum).
fn dense_spmv(nrows: usize, entries: &[(usize, usize, f64)], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; nrows];
    for &(r, c, v) in entries {
        y[r] += v * x[c];
    }
    y
}

/// Runs every format kernel in the library against the dense reference on
/// one matrix given as raw triplets.
fn check_all_formats_against_dense(n: usize, entries: &[(usize, usize, f64)]) {
    let x: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.73).sin()).collect();
    let want = dense_spmv(n, entries, &x);
    let csr = build(n, entries);
    let ctx = ExecCtx::new(2);

    let run = |name: &str, y: &[f64]| assert_close(name, y, &want);

    let mut y = vec![f64::NAN; n];
    SerialCsr::new(csr.clone()).spmv(&x, &mut y);
    run("csr-serial", &y);

    let mut y = vec![f64::NAN; n];
    ParallelCsr::baseline(csr.clone(), ctx.clone()).spmv(&x, &mut y);
    run("csr-parallel", &y);

    let sell = Arc::new(SellMatrix::from_csr(&csr));
    let mut y = vec![f64::NAN; n];
    sell.spmv(&x, &mut y);
    run("sell-serial", &y);
    for vectorize in [false, true] {
        let k = SellKernel::new(sell.clone(), vectorize, ctx.clone());
        let mut y = vec![f64::NAN; n];
        k.spmv(&x, &mut y);
        run(&k.name(), &y);
    }

    for threshold in [1usize, 4, 1000] {
        let dec = Arc::new(DecomposedCsrMatrix::from_csr(&csr, threshold));
        let mut y = vec![f64::NAN; n];
        DecomposedKernel::baseline(dec, ctx.clone()).spmv(&x, &mut y);
        run(&format!("decomposed-t{threshold}"), &y);
    }

    for nthreads in [1usize, 2, 5] {
        let mut y = vec![f64::NAN; n];
        MergeCsr::baseline(csr.clone(), ExecCtx::new(nthreads)).spmv(&x, &mut y);
        run(&format!("merge-csr-t{nthreads}"), &y);
    }
}

/// Strategy: matrices whose bottom half of rows is structurally empty, so
/// every format must cope with runs of empty rows (and possibly zero nnz —
/// the entry count may draw 0).
fn arb_matrix_with_empty_tail() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..48).prop_flat_map(|n| {
        let entry = (0..n / 2, 0..n, -100.0f64..100.0);
        (Just(n), proptest::collection::vec(entry, 0..150))
    })
}

/// Strategy: a random sparse matrix as triplets (duplicates allowed — they
/// must be summed identically by every path).
fn arb_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..60).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -100.0f64..100.0);
        (Just(n), proptest::collection::vec(entry, 1..300))
    })
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> Arc<CsrMatrix> {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    Arc::new(CsrMatrix::from_coo(&coo))
}

fn reference(csr: &Arc<CsrMatrix>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; csr.nrows()];
    SerialCsr::new(csr.clone()).spmv(x, &mut y);
    y
}

fn assert_close(name: &str, got: &[f64], want: &[f64]) {
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    common::assert_close_fma(name, got, want, scale);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_csr_configs_match_serial((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let want = reference(&csr, &x);
        let ctx = ExecCtx::new(3);

        for inner in [InnerLoop::Scalar, InnerLoop::Unrolled4, InnerLoop::Simd] {
            for prefetch in [false, true] {
                for schedule in [
                    Schedule::StaticRows,
                    Schedule::StaticNnz,
                    Schedule::Dynamic { chunk: 5 },
                    Schedule::Guided { min_chunk: 2 },
                    Schedule::Auto,
                ] {
                    let cfg = CsrKernelConfig { inner, prefetch, schedule: schedule.clone() };
                    let k = ParallelCsr::new(csr.clone(), cfg, ctx.clone());
                    let mut y = vec![f64::NAN; n];
                    k.spmv(&x, &mut y);
                    assert_close(&k.name(), &y, &want);
                }
            }
        }
    }

    #[test]
    fn decomposed_matches_serial((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let want = reference(&csr, &x);
        let ctx = ExecCtx::new(2);

        for threshold in [1usize, 3, 8, 1000] {
            let dec = Arc::new(DecomposedCsrMatrix::from_csr(&csr, threshold));
            let k = DecomposedKernel::baseline(dec, ctx.clone());
            let mut y = vec![f64::NAN; n];
            k.spmv(&x, &mut y);
            assert_close(&format!("{} t={threshold}", k.name()), &y, &want);
        }
    }

    #[test]
    fn every_format_matches_dense_reference((n, entries) in arb_matrix()) {
        check_all_formats_against_dense(n, &entries);
    }

    #[test]
    fn every_format_handles_empty_rows((n, entries) in arb_matrix_with_empty_tail()) {
        check_all_formats_against_dense(n, &entries);
    }

    #[test]
    fn every_optimizer_plan_matches_serial((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let want = reference(&csr, &x);
        let ctx = ExecCtx::new(2);
        let features = MatrixFeatures::extract(&csr, 1 << 25);

        for plan in sparseopt::optimizer::single_and_pair_plans(&features) {
            let k = plan.build_host_kernel(&csr, ctx.clone());
            let mut y = vec![f64::NAN; n];
            k.spmv(&x, &mut y);
            assert_close(&format!("plan {}", plan.label()), &y, &want);
        }
    }
}

/// Edge cases every format must survive, pinned as plain deterministic tests
/// so they run even when the property sampler happens not to draw them.
#[test]
fn all_formats_on_fully_empty_matrix() {
    check_all_formats_against_dense(7, &[]);
}

#[test]
fn all_formats_on_single_row_matrix() {
    // 1 × 1 with one entry, and 5 × 5 where only the first row is populated.
    check_all_formats_against_dense(1, &[(0, 0, 3.5)]);
    check_all_formats_against_dense(5, &[(0, 0, 1.0), (0, 2, -2.0), (0, 4, 0.25)]);
}

#[test]
fn all_formats_on_single_entry_in_last_row() {
    // Leading empty rows exercise the opposite corner from the empty tail.
    check_all_formats_against_dense(9, &[(8, 3, -7.0)]);
}

#[test]
fn all_formats_on_duplicate_entries() {
    // Duplicates must be summed identically by every conversion path.
    check_all_formats_against_dense(3, &[(1, 1, 2.0), (1, 1, 3.0), (1, 1, -1.0), (0, 2, 4.0)]);
}
