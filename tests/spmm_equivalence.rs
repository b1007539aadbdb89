//! Property-based cross-crate invariant for the SpMM layer: every
//! [`SparseLinOp`] in the library — CSR (all schedules), SELL-C-σ,
//! decomposed and merge-path — computes the same
//! `Y = A·X` as `k` independent dense-reference SpMVs,
//! for k ∈ {1, 3, 8} and on the edge-case matrices every format must
//! survive (empty rows, single rows, duplicate entries).

use proptest::prelude::*;
use sparseopt::prelude::*;
use std::sync::Arc;

/// Right-hand sides every case is checked against: the degenerate k = 1,
/// a width below the register tile, a full tile, and a full tile plus a
/// partial remainder (the `t0 > 0` offset arithmetic of the row pass).
const WIDTHS: [usize; 4] = [1, 3, 8, 11];

/// Dense reference for one column: `y = A·x` accumulated straight from the
/// raw triplets, independent of every sparse format under test.
fn dense_spmv(nrows: usize, entries: &[(usize, usize, f64)], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; nrows];
    for &(r, c, v) in entries {
        y[r] += v * x[c];
    }
    y
}

/// Reference `Y = A·X` as k *independent* dense-reference SpMVs.
fn dense_spmm(nrows: usize, entries: &[(usize, usize, f64)], x: &MultiVec) -> MultiVec {
    let mut y = MultiVec::zeros(nrows, x.width());
    for j in 0..x.width() {
        y.set_column(j, &dense_spmv(nrows, entries, &x.column(j)));
    }
    y
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> Arc<CsrMatrix> {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    Arc::new(CsrMatrix::from_coo(&coo))
}

fn assert_close(name: &str, got: &MultiVec, want: &MultiVec) {
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
            "{name}: flat index {i} differs: {a} vs {b}"
        );
    }
}

/// Every operator implementation over one matrix.
fn spmm_zoo(csr: &Arc<CsrMatrix>, ctx: &Arc<ExecCtx>) -> Vec<Box<dyn SparseLinOp>> {
    let mut zoo: Vec<Box<dyn SparseLinOp>> = Vec::new();
    for schedule in [
        Schedule::StaticRows,
        Schedule::StaticNnz,
        Schedule::Dynamic { chunk: 5 },
        Schedule::Guided { min_chunk: 2 },
        Schedule::Auto,
    ] {
        zoo.push(Box::new(ParallelCsr::with_schedule(
            csr.clone(),
            schedule,
            ctx.clone(),
        )));
    }
    zoo.push(Box::new(SellKernel::vectorized(
        Arc::new(SellMatrix::from_csr(csr)),
        ctx.clone(),
    )));
    for threshold in [1usize, 4, 1000] {
        zoo.push(Box::new(DecomposedKernel::baseline(
            Arc::new(DecomposedCsrMatrix::from_csr(csr, threshold)),
            ctx.clone(),
        )));
    }
    zoo.push(Box::new(MergeCsr::baseline(csr.clone(), ctx.clone())));
    zoo
}

/// Runs every kernel × every width against the k-independent-SpMV
/// reference on one matrix given as raw triplets.
fn check_all_kernels_against_dense(n: usize, entries: &[(usize, usize, f64)]) {
    let csr = build(n, entries);
    let ctx = ExecCtx::new(3);

    for &k in &WIDTHS {
        let x = MultiVec::from_fn(n, k, |i, j| 0.5 + ((i * 11 + j * 7) as f64 * 0.37).sin());
        let want = dense_spmm(n, entries, &x);
        for kernel in spmm_zoo(&csr, &ctx) {
            let mut y = MultiVec::zeros(n, k);
            y.fill(f64::NAN);
            kernel.spmm(&x, &mut y);
            assert_close(&format!("{} k={k}", kernel.name()), &y, &want);
        }
    }
}

/// Strategy: a random sparse matrix as triplets (duplicates allowed — they
/// must be summed identically by every path).
fn arb_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..48).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -100.0f64..100.0);
        (Just(n), proptest::collection::vec(entry, 1..250))
    })
}

/// Strategy: matrices whose bottom half of rows is structurally empty.
fn arb_matrix_with_empty_tail() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..40).prop_flat_map(|n| {
        let entry = (0..n / 2, 0..n, -100.0f64..100.0);
        (Just(n), proptest::collection::vec(entry, 0..120))
    })
}

/// Strategy: matrices where every row's entries hit one repeated column —
/// duplicate-column accumulation in its purest form.
fn arb_matrix_with_duplicate_columns() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..24).prop_flat_map(|n| {
        let dup = (0..n, 0..n, -10.0f64..10.0, 2usize..5)
            .prop_map(|(r, c, v, times)| std::iter::repeat_n((r, c, v), times).collect::<Vec<_>>());
        (
            Just(n),
            proptest::collection::vec(dup, 1..40)
                .prop_map(|groups| groups.into_iter().flatten().collect::<Vec<_>>()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_spmm_kernel_matches_k_dense_spmvs((n, entries) in arb_matrix()) {
        check_all_kernels_against_dense(n, &entries);
    }

    #[test]
    fn every_spmm_kernel_handles_empty_rows((n, entries) in arb_matrix_with_empty_tail()) {
        check_all_kernels_against_dense(n, &entries);
    }

    #[test]
    fn every_spmm_kernel_sums_duplicate_columns((n, entries) in arb_matrix_with_duplicate_columns()) {
        check_all_kernels_against_dense(n, &entries);
    }

    #[test]
    fn spmm_at_k1_equals_spmv((n, entries) in arb_matrix()) {
        // The k = 1 SpMM degenerates to SpMV exactly (same kernel family,
        // same schedules), so both layers must agree bit-for-tolerance.
        let csr = build(n, &entries);
        let ctx = ExecCtx::new(2);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).cos()).collect();
        let mut y_spmv = vec![0.0; n];
        ParallelCsr::baseline(csr.clone(), ctx.clone()).spmv(&x, &mut y_spmv);

        let xm = MultiVec::from_columns(&[x]);
        let mut ym = MultiVec::zeros(n, 1);
        ParallelCsr::baseline(csr, ctx).spmm(&xm, &mut ym);
        for (i, (a, b)) in ym.column(0).iter().zip(&y_spmv).enumerate() {
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "row {i}: {a} vs {b}");
        }
    }
}

/// Edge cases pinned as plain deterministic tests so they run even when the
/// property sampler happens not to draw them.
#[test]
fn all_spmm_kernels_on_fully_empty_matrix() {
    check_all_kernels_against_dense(7, &[]);
}

#[test]
fn all_spmm_kernels_on_single_row_matrix() {
    // 1 × 1 with one entry, and 5 × 5 where only the first row is populated.
    check_all_kernels_against_dense(1, &[(0, 0, 3.5)]);
    check_all_kernels_against_dense(5, &[(0, 0, 1.0), (0, 2, -2.0), (0, 4, 0.25)]);
}

#[test]
fn all_spmm_kernels_on_single_entry_in_last_row() {
    check_all_kernels_against_dense(9, &[(8, 3, -7.0)]);
}

#[test]
fn all_spmm_kernels_on_duplicate_entries() {
    check_all_kernels_against_dense(3, &[(1, 1, 2.0), (1, 1, 3.0), (1, 1, -1.0), (0, 2, 4.0)]);
}

#[test]
fn all_spmm_kernels_on_long_row_crossing_tiles() {
    // One row with every column populated, k = 8 exercising full tiles plus
    // the decomposed kernel's phase 2 at every thread count.
    let n = 40;
    let entries: Vec<(usize, usize, f64)> = (0..n)
        .map(|c| (3, c, (c % 7) as f64 - 3.0))
        .chain((0..n).map(|r| (r, r, 1.5)))
        .collect();
    check_all_kernels_against_dense(n, &entries);
}
