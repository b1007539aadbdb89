//! Integration tests for the merge-path nonzero-split operator: the edge
//! cases whole-row partitioning never hits (segments cut *inside* rows), a
//! property suite pinning `MergeCsr` to the dense reference over the full
//! `{NoTrans, Trans} × k` application space, and the modeled-platform
//! evidence that the nonzero split beats every whole-row CSR schedule on a
//! power-law matrix with a dominant hub row.

use proptest::prelude::*;
use sparseopt::prelude::*;
use std::sync::Arc;

/// Right-hand-side widths the acceptance criteria call out.
const WIDTHS: [usize; 3] = [1, 3, 8];

fn build(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) -> Arc<CsrMatrix> {
    let mut coo = CooMatrix::new(nrows, ncols);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    Arc::new(CsrMatrix::from_coo(&coo))
}

/// Dense references accumulated straight from the raw triplets.
fn dense_apply(
    shape: (usize, usize),
    entries: &[(usize, usize, f64)],
    op: Apply,
    x: &MultiVec,
) -> MultiVec {
    let (out, _) = op.out_in(shape);
    let k = x.width();
    let mut y = MultiVec::zeros(out, k);
    for &(r, c, v) in entries {
        let (dst, src) = match op {
            Apply::NoTrans => (r, c),
            Apply::Trans => (c, r),
        };
        for t in 0..k {
            y.row_mut(dst)[t] += v * x.row(src)[t];
        }
    }
    y
}

/// Checks `MergeCsr` against the dense reference for every application mode,
/// width, and a spread of thread counts (including more threads than rows).
fn check_merge_full_surface(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) {
    let csr = build(nrows, ncols, entries);
    for nthreads in [1usize, 3, 6] {
        let ctx = ExecCtx::new(nthreads);
        let op = MergeCsr::baseline(csr.clone(), ctx);
        for apply in Apply::ALL {
            let (out, inp) = apply.out_in((nrows, ncols));
            for &k in &WIDTHS {
                let x =
                    MultiVec::from_fn(inp, k, |i, j| 0.5 + ((i * 13 + j * 5) as f64 * 0.29).sin());
                let want = dense_apply((nrows, ncols), entries, apply, &x);
                let mut y = MultiVec::zeros(out, k);
                y.fill(f64::NAN);
                op.apply_multi(apply, &x, &mut y);
                for (i, (a, b)) in y.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "{} {} k={k} t={nthreads}: flat {i}: {a} vs {b}",
                        op.name(),
                        apply.label()
                    );
                }
                // The single-vector entry point must be the k = 1 slice.
                if k == 1 {
                    let mut y1 = vec![f64::NAN; out];
                    op.apply(apply, &x.column(0), &mut y1);
                    for (a, b) in y1.iter().zip(&y.column(0)) {
                        assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()));
                    }
                }
            }
        }
    }
}

/// Strategy: rectangular sparse matrices as raw triplets, duplicates
/// allowed, with a bias toward row concentration so segment cuts regularly
/// land inside rows.
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (2usize..40, 2usize..40).prop_flat_map(|(nrows, ncols)| {
        // A separate pile of entries lands in row 0 to force intra-row
        // splits alongside the uniformly scattered background.
        let hot = (Just(0usize), 0..ncols, -10.0f64..10.0);
        let any = (0..nrows, 0..ncols, -10.0f64..10.0);
        (
            Just(nrows),
            Just(ncols),
            (
                proptest::collection::vec(hot, 0..100),
                proptest::collection::vec(any, 0..100),
            )
                .prop_map(|(mut h, mut a)| {
                    h.append(&mut a);
                    h
                }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The acceptance property: `MergeCsr` ≡ dense reference for every
    /// `{NoTrans, Trans} × k ∈ {1, 3, 8}` combination.
    #[test]
    fn merge_csr_matches_dense_reference((nrows, ncols, entries) in arb_matrix()) {
        check_merge_full_surface(nrows, ncols, &entries);
    }
}

#[test]
fn empty_matrix() {
    check_merge_full_surface(5, 7, &[]);
    // Degenerate 1×1 without entries.
    check_merge_full_surface(1, 1, &[]);
}

#[test]
fn all_nonzeros_in_one_row() {
    // Every thread's segment lands inside the single row; the entire output
    // row is assembled from carry fix-ups.
    let entries: Vec<_> = (0..50).map(|j| (3usize, j, 0.5 + j as f64 * 0.1)).collect();
    check_merge_full_surface(8, 50, &entries);
}

#[test]
fn fewer_rows_than_threads() {
    check_merge_full_surface(2, 9, &[(0, 4, 1.5), (1, 0, -2.0), (1, 8, 0.25)]);
    check_merge_full_surface(1, 4, &[(0, 0, 1.0), (0, 3, 2.0)]);
}

#[test]
fn leading_and_trailing_empty_rows() {
    check_merge_full_surface(9, 9, &[(4, 2, 1.0), (4, 7, -3.0)]);
}

#[test]
fn merge_beats_every_whole_row_schedule_on_power_law_hub() {
    // The acceptance matrix: power-law background with one hub row holding
    // ≥ 30% of all nonzeros. On the modeled KNC platform (deterministic,
    // unlike wall clock on a shared CI host — `ci_bench` repeats this
    // comparison with real kernels, arming its gate once the hub overflows
    // a whole-row quota on the host, i.e. hub share ≥ 1.5 / nthreads), the
    // merge-path operator must beat the *best* whole-row CSR schedule.
    use sparseopt::sim::{simulate, Platform, SimFormat, SimKernelConfig, SimMatrixProfile};

    let csr = CsrMatrix::from_coo(&sparseopt::matrix::generators::power_law_hub(4000, 2, 11));
    let hub_nnz = (0..csr.nrows()).map(|i| csr.row_nnz(i)).max().unwrap();
    assert!(
        hub_nnz as f64 >= 0.3 * csr.nnz() as f64,
        "hub must hold ≥ 30% of nonzeros: {hub_nnz} of {}",
        csr.nnz()
    );

    let knc = Platform::knc();
    let profile = SimMatrixProfile::analyze(&csr, &knc);
    let merge = simulate(
        &profile,
        &knc,
        &SimKernelConfig {
            format: SimFormat::MergeCsr,
            ..SimKernelConfig::baseline()
        },
        1,
    );
    let mut best_whole_row: f64 = 0.0;
    for schedule in [
        Schedule::StaticRows,
        Schedule::StaticNnz,
        Schedule::Dynamic { chunk: 32 },
        Schedule::Guided { min_chunk: 4 },
        Schedule::Auto,
    ] {
        let r = simulate(
            &profile,
            &knc,
            &SimKernelConfig {
                schedule,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        best_whole_row = best_whole_row.max(r.gflops);
    }
    assert!(
        merge.gflops > 1.5 * best_whole_row,
        "merge {} must beat the best whole-row schedule {}",
        merge.gflops,
        best_whole_row
    );
}

#[test]
fn merge_partition_balances_what_whole_rows_cannot() {
    // Direct structural comparison on the same matrix: the 1-D nnz-balanced
    // partition is stuck above 10× imbalance, the merge path at ~1×.
    let csr = CsrMatrix::from_coo(&sparseopt::matrix::generators::power_law_hub(4000, 2, 11));
    let whole = Partition::by_nnz(&csr, 16);
    let merge = Partition2d::merge_path(csr.rowptr(), 16);
    assert!(
        whole.imbalance_factor(&csr) > 4.0,
        "whole-row partitioning must be stuck, got {}",
        whole.imbalance_factor(&csr)
    );
    assert!(
        merge.imbalance_factor() < 1.01,
        "merge path must balance, got {}",
        merge.imbalance_factor()
    );
}
