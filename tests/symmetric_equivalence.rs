//! Cross-crate invariants for the symmetric layer: [`SssCsr`] round-trips
//! arbitrary symmetric matrices losslessly, and the operator a
//! `sym-compress` plan builds on the host computes the dense product for
//! `k ∈ {1, 3, 8}` with `Trans ≡ NoTrans` (for symmetric `A`, `Aᵀ = A`),
//! across thread counts — on the edge cases (empty, all-diagonal,
//! single-row) and through the Matrix Market `symmetric` round trip into
//! SSS and back to full CSR.

use proptest::prelude::*;
use sparseopt::prelude::*;
use std::sync::Arc;

/// Right-hand-side widths the acceptance criteria call out.
const WIDTHS: [usize; 3] = [1, 3, 8];

/// Builds an exactly symmetric matrix via the shared canonical projection
/// ([`sparseopt::core::sss::symmetrize_triplets`]): one accumulated value
/// per unordered pair, emitted for both orientations, so the mirrored
/// values are bitwise equal (what [`SssCsr::try_from_csr`]'s exact check
/// requires — and what every real symmetric source provides).
fn build_symmetric(
    n: usize,
    pairs: &[(usize, usize, f64)],
) -> (Arc<CsrMatrix>, Vec<(usize, usize, f64)>) {
    let entries = sparseopt::core::sss::symmetrize_triplets(pairs);
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in &entries {
        coo.push(r, c, v);
    }
    (Arc::new(CsrMatrix::from_coo(&coo)), entries)
}

/// Dense reference accumulated straight from the raw triplets.
fn dense_apply(n: usize, entries: &[(usize, usize, f64)], x: &MultiVec) -> MultiVec {
    let k = x.width();
    let mut y = MultiVec::zeros(n, k);
    for &(r, c, v) in entries {
        for t in 0..k {
            y.row_mut(r)[t] += v * x.row(c)[t];
        }
    }
    y
}

/// The operator a `sym-compress` plan builds for `csr` on `nthreads`.
fn sym_compress_op(csr: &Arc<CsrMatrix>, nthreads: usize) -> Box<dyn SparseLinOp> {
    let features = MatrixFeatures::extract(csr, 1 << 25);
    OptimizationPlan::from_optimizations(&[Optimization::SymCompress], &features)
        .build_host_kernel(csr, ExecCtx::new(nthreads))
}

/// Checks the SSS conversion and the `sym-compress` operator against the
/// dense reference for both application modes, every width, and a spread
/// of thread counts (including more threads than rows).
fn check_sym_full_surface(n: usize, pairs: &[(usize, usize, f64)]) {
    let (csr, entries) = build_symmetric(n, pairs);
    let sss = SssCsr::try_from_csr(&csr).expect("built symmetric by construction");
    assert_eq!(sss.logical_nnz(), csr.nnz());
    for nthreads in [1usize, 3, 6] {
        let op = sym_compress_op(&csr, nthreads);
        for &k in &WIDTHS {
            let x = MultiVec::from_fn(n, k, |i, j| 0.5 + ((i * 13 + j * 5) as f64 * 0.29).sin());
            let want = dense_apply(n, &entries, &x);
            for apply in Apply::ALL {
                let mut y = MultiVec::zeros(n, k);
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
                    let mut y1 = vec![f64::NAN; n];
                    op.apply(apply, &x.column(0), &mut y1);
                    for (a, b) in y1.iter().zip(&y.column(0)) {
                        assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()));
                    }
                }
            }
        }
    }
}

/// Strategy: unordered-pair triplets over an `n × n` matrix, biased toward
/// the lower triangle but free to name either orientation (the builder
/// canonicalizes), duplicates allowed.
fn arb_symmetric() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..40).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -100.0f64..100.0);
        (Just(n), proptest::collection::vec(entry, 0..200))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round trip: symmetric CSR → SSS → expanded CSR is lossless.
    #[test]
    fn sss_expansion_is_lossless((n, pairs) in arb_symmetric()) {
        let (csr, _) = build_symmetric(n, &pairs);
        // Drop rare exact-zero accumulations: an explicitly stored zero is
        // indistinguishable from an absent entry after the dense-diagonal
        // split, and no real symmetric source stores them.
        prop_assume!(csr.values().iter().all(|&v| v != 0.0));
        let sss = SssCsr::try_from_csr(&csr).expect("symmetric");
        prop_assert_eq!(sss.to_csr(), (*csr).clone());
    }
}

#[test]
fn empty_matrix() {
    check_sym_full_surface(5, &[]);
    check_sym_full_surface(1, &[]);
}

#[test]
fn all_diagonal_matrix() {
    let pairs: Vec<_> = (0..9).map(|i| (i, i, 1.5 + i as f64)).collect();
    check_sym_full_surface(9, &pairs);
}

#[test]
fn single_row_matrix() {
    check_sym_full_surface(1, &[(0, 0, 3.5)]);
}

#[test]
fn empty_rows_between_populated_ones() {
    check_sym_full_surface(9, &[(4, 2, 1.0), (7, 0, -3.0), (8, 8, 2.0)]);
}

#[test]
fn dense_symmetric_matrix() {
    // Every unordered pair populated: the scatter windows span everything.
    let mut pairs = Vec::new();
    for a in 0..12 {
        for b in a..12 {
            pairs.push((a, b, 1.0 + ((a * 12 + b) % 7) as f64 * 0.25));
        }
    }
    check_sym_full_surface(12, &pairs);
}

#[test]
fn matrix_market_symmetric_file_round_trips_into_sss() {
    // A `symmetric` Matrix Market file stores exactly the lower triangle —
    // the same data SSS keeps. Reading expands to full COO; SSS must accept
    // the expansion and reproduce the full CSR.
    let src = "%%MatrixMarket matrix coordinate real symmetric\n\
               % lower triangle only\n\
               4 4 6\n\
               1 1 4.0\n\
               2 1 1.5\n\
               2 2 5.0\n\
               3 2 -2.25\n\
               4 1 0.5\n\
               4 4 7.0\n";
    let coo = sparseopt::matrix::io::read_matrix_market(src.as_bytes()).expect("parse");
    let csr = CsrMatrix::from_coo(&coo);
    assert_eq!(csr.nnz(), 9, "3 off-diagonal pairs + 3 diagonals");
    let sss = SssCsr::try_from_csr(&csr).expect("symmetric file expands symmetric");
    assert_eq!(sss.stored_nnz(), 3);
    assert_eq!(sss.to_csr(), csr);

    // And back out through the verifying symmetric writer: the stored
    // triangle count must match what SSS keeps (plus the diagonal).
    let mut buf = Vec::new();
    sparseopt::matrix::io::write_matrix_market_with(
        &csr.to_coo(),
        sparseopt::matrix::io::MmSymmetry::Symmetric,
        &mut buf,
    )
    .expect("round-trip write");
    let reread = sparseopt::matrix::io::read_matrix_market(buf.as_slice()).expect("reread");
    assert_eq!(CsrMatrix::from_coo(&reread), csr);
}

#[test]
fn skew_symmetric_file_is_rejected_by_sss() {
    // A skew-symmetric matrix mirrors with *negated* values: SSS represents
    // symmetric matrices only and must refuse it rather than silently
    // compute with the wrong signs (the reader itself round-trips skew
    // files since PR 3 — see `format_roundtrip`).
    let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
               3 3 2\n\
               2 1 4.0\n\
               3 2 -1.5\n";
    let coo = sparseopt::matrix::io::read_matrix_market(src.as_bytes()).expect("parse");
    let csr = CsrMatrix::from_coo(&coo);
    assert!(sparseopt::core::sss::symmetry_share(&csr) < 1.0);
    assert!(SssCsr::try_from_csr(&csr).is_none());
}

#[test]
fn sym_operator_equals_merge_and_parallel_on_symmetric_input() {
    // Cross-format agreement on one symmetric matrix: the `sym-compress`
    // operator, merge-path, and whole-row CSR are different
    // storage/partitioning strategies for the same product.
    let (csr, _) = build_symmetric(
        64,
        &(0..160)
            .map(|i| ((i * 7) % 64, (i * 13) % 64, 0.5 + (i % 9) as f64 * 0.125))
            .collect::<Vec<_>>(),
    );
    let ctx = ExecCtx::new(3);
    let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.21).cos()).collect();

    let mut y_sym = vec![f64::NAN; 64];
    sym_compress_op(&csr, 3).spmv(&x, &mut y_sym);
    let mut y_merge = vec![f64::NAN; 64];
    MergeCsr::baseline(csr.clone(), ctx.clone()).spmv(&x, &mut y_merge);
    let mut y_par = vec![f64::NAN; 64];
    ParallelCsr::baseline(csr, ctx).spmv(&x, &mut y_par);
    for i in 0..64 {
        assert!((y_sym[i] - y_merge[i]).abs() < 1e-9 * (1.0 + y_merge[i].abs()));
        assert!((y_sym[i] - y_par[i]).abs() < 1e-9 * (1.0 + y_par[i].abs()));
    }
}
