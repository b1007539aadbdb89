//! Property-based cross-crate invariant for the operator layer's transposed
//! application: every format's [`SparseLinOp`] — CSR (all schedules),
//! SELL-C-σ, decomposed and merge-path — computes the same
//! `Y = Aᵀ·X` as the dense `Aᵀx` reference,
//! for k ∈ {1, 3, 8}, on rectangular matrices and the edge cases every
//! format must survive (empty rows, single rows, duplicate entries).

use proptest::prelude::*;
use sparseopt::prelude::*;
use std::sync::Arc;

/// Right-hand sides every case is checked against: the degenerate k = 1,
/// a width below the register tile, a full tile, and a full tile plus a
/// partial remainder.
const WIDTHS: [usize; 4] = [1, 3, 8, 11];

/// Dense reference for one column: `y = Aᵀ·x` accumulated straight from the
/// raw triplets, independent of every sparse format under test.
fn dense_spmv_t(ncols: usize, entries: &[(usize, usize, f64)], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; ncols];
    for &(r, c, v) in entries {
        y[c] += v * x[r];
    }
    y
}

/// Reference `Y = Aᵀ·X` as k *independent* dense-reference transposed SpMVs.
fn dense_spmm_t(ncols: usize, entries: &[(usize, usize, f64)], x: &MultiVec) -> MultiVec {
    let mut y = MultiVec::zeros(ncols, x.width());
    for j in 0..x.width() {
        y.set_column(j, &dense_spmv_t(ncols, entries, &x.column(j)));
    }
    y
}

fn build(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) -> Arc<CsrMatrix> {
    let mut coo = CooMatrix::new(nrows, ncols);
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

/// Every transpose-capable operator implementation over one matrix.
fn op_zoo(csr: &Arc<CsrMatrix>, ctx: &Arc<ExecCtx>) -> Vec<Box<dyn SparseLinOp>> {
    let mut zoo: Vec<Box<dyn SparseLinOp>> = vec![Box::new(SerialCsr::new(csr.clone()))];
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

/// Runs every operator × every width against the dense `Aᵀx` reference on
/// one matrix given as raw triplets.
fn check_all_ops_against_dense(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) {
    let csr = build(nrows, ncols, entries);
    let ctx = ExecCtx::new(3);

    for &k in &WIDTHS {
        // Transposed application: the input lives on the row side.
        let x = MultiVec::from_fn(nrows, k, |i, j| {
            0.5 + ((i * 11 + j * 7) as f64 * 0.37).sin()
        });
        let want = dense_spmm_t(ncols, entries, &x);
        for op in op_zoo(&csr, &ctx) {
            assert!(op.capabilities().transpose, "{} must be capable", op.name());
            let mut y = MultiVec::zeros(ncols, k);
            y.fill(f64::NAN);
            op.apply_multi(Apply::Trans, &x, &mut y);
            assert_close(&format!("{} k={k}", op.name()), &y, &want);

            // The single-vector entry point must be the k-column slice.
            if k == 1 {
                let mut y1 = vec![f64::NAN; ncols];
                op.apply(Apply::Trans, &x.column(0), &mut y1);
                for (a, b) in y1.iter().zip(&y.column(0)) {
                    assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{}", op.name());
                }
            }
        }
    }
}

/// Strategy: a random rectangular sparse matrix as triplets (duplicates
/// allowed — they must be summed identically by every path).
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (2usize..40, 2usize..40).prop_flat_map(|(nr, nc)| {
        let entry = (0..nr, 0..nc, -100.0f64..100.0);
        (Just(nr), Just(nc), proptest::collection::vec(entry, 1..220))
    })
}

/// Strategy: matrices whose bottom half of rows is structurally empty —
/// their transposed contribution must vanish, not corrupt.
fn arb_matrix_with_empty_tail() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (4usize..32, 2usize..32).prop_flat_map(|(nr, nc)| {
        let entry = (0..nr / 2, 0..nc, -100.0f64..100.0);
        (Just(nr), Just(nc), proptest::collection::vec(entry, 0..100))
    })
}

/// Strategy: duplicate-entry stress — repeated coordinates must accumulate
/// identically through the scatter path.
fn arb_matrix_with_duplicates() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (2usize..20, 2usize..20).prop_flat_map(|(nr, nc)| {
        let dup = (0..nr, 0..nc, -10.0f64..10.0, 2usize..5)
            .prop_map(|(r, c, v, times)| std::iter::repeat_n((r, c, v), times).collect::<Vec<_>>());
        (
            Just(nr),
            Just(nc),
            proptest::collection::vec(dup, 1..32)
                .prop_map(|groups| groups.into_iter().flatten().collect::<Vec<_>>()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_transpose_apply_matches_dense_reference((nr, nc, entries) in arb_matrix()) {
        check_all_ops_against_dense(nr, nc, &entries);
    }

    #[test]
    fn every_transpose_apply_handles_empty_rows((nr, nc, entries) in arb_matrix_with_empty_tail()) {
        check_all_ops_against_dense(nr, nc, &entries);
    }

    #[test]
    fn every_transpose_apply_sums_duplicate_entries((nr, nc, entries) in arb_matrix_with_duplicates()) {
        check_all_ops_against_dense(nr, nc, &entries);
    }

    #[test]
    fn double_transpose_is_identity((nr, nc, entries) in arb_matrix()) {
        // (Aᵀ)ᵀ x = A x: chaining Trans through a tall scratch must agree
        // with the forward application on every operator.
        let csr = build(nr, nc, &entries);
        let ctx = ExecCtx::new(2);
        let x: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.19).cos()).collect();
        let op = ParallelCsr::baseline(csr.clone(), ctx.clone());

        let mut forward = vec![0.0; nr];
        op.apply(Apply::NoTrans, &x, &mut forward);

        // Recover A x by applying the transpose of the transposed operator:
        // build Aᵀ explicitly from triplets and apply ITS transpose.
        let mut coo_t = CooMatrix::new(nc, nr);
        for &(r, c, v) in &entries {
            coo_t.push(c, r, v);
        }
        let op_t = ParallelCsr::baseline(Arc::new(CsrMatrix::from_coo(&coo_t)), ctx);
        let mut via_t = vec![0.0; nr];
        op_t.apply(Apply::Trans, &x, &mut via_t);
        for (i, (a, b)) in via_t.iter().zip(&forward).enumerate() {
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "row {i}: {a} vs {b}");
        }
    }
}

/// Edge cases pinned as plain deterministic tests so they run even when the
/// property sampler happens not to draw them.
#[test]
fn all_transpose_ops_on_fully_empty_matrix() {
    check_all_ops_against_dense(7, 5, &[]);
}

#[test]
fn all_transpose_ops_on_single_row_matrix() {
    // 1 × 1 with one entry, and a single populated row of a wide matrix —
    // the transposed result scatters one x value across the whole output.
    check_all_ops_against_dense(1, 1, &[(0, 0, 3.5)]);
    check_all_ops_against_dense(5, 9, &[(0, 0, 1.0), (0, 2, -2.0), (0, 8, 0.25)]);
}

#[test]
fn all_transpose_ops_on_single_entry_in_last_row() {
    check_all_ops_against_dense(9, 4, &[(8, 3, -7.0)]);
}

#[test]
fn all_transpose_ops_on_tall_and_wide_rectangles() {
    // Tall: 31 × 4 — the merge partition has more threads than output rows
    // at 3 workers only if ncols < nthreads; cover both shapes.
    let tall: Vec<(usize, usize, f64)> =
        (0..31).map(|r| (r, r % 4, (r % 7) as f64 - 3.0)).collect();
    check_all_ops_against_dense(31, 4, &tall);
    // Wide: 4 × 31.
    let wide: Vec<(usize, usize, f64)> =
        (0..31).map(|c| (c % 4, c, (c % 5) as f64 - 2.0)).collect();
    check_all_ops_against_dense(4, 31, &wide);
}

#[test]
fn all_transpose_ops_on_long_row_crossing_threads() {
    // One row holding every column exercises the decomposed format's
    // long-row handling under the scatter plan and SELL's widest chunk.
    let n = 40;
    let entries: Vec<(usize, usize, f64)> = (0..n)
        .map(|c| (3, c, (c % 7) as f64 - 3.0))
        .chain((0..n).map(|r| (r, r, 1.5)))
        .collect();
    check_all_ops_against_dense(n, n, &entries);
}
