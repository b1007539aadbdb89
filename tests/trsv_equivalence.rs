//! Property-based acceptance suite for the triangular-solve layer:
//!
//! 1. **Bit-identity against an independent reference** — serial and
//!    level-scheduled SpTRSV produce *bitwise* the solution of a plain
//!    natural-order substitution over the unpacked CSR (entries in storage
//!    order, diagonal entries skipped, one division by the summed diagonal)
//!    on arbitrary lower/upper triangles (including empty-row,
//!    unit-diagonal, and duplicate-entry corners), across thread counts and
//!    for multi-RHS solves. The kernel solves over its own execution-order
//!    copy of the triangle; the reference shares no code with it. Level
//!    scheduling only reorders whole rows whose inputs are final, so exact
//!    equality is the specification, not a tolerance.
//! 2. **IC(0) exactness on no-fill patterns** — on an SPD band whose exact
//!    Cholesky factor has no fill outside the stored pattern, IC(0) *is*
//!    Cholesky: same pattern, same values to rounding.
//! 3. **SymGS ≡ reference Gauss-Seidel** — the scatter/gather SSS sweep
//!    equals the textbook dense symmetric Gauss-Seidel update.
//! 4. **The preconditioning acceptance pin** — IC(0)-CG on the poisson2d
//!    suite matrix converges in at most half the iterations of Jacobi-CG at
//!    the same tolerance.

use proptest::prelude::*;
use sparseopt::prelude::*;
use std::sync::Arc;

/// Generates `(n, entries)` for a random strict triangle plus a dominant
/// diagonal; entries may repeat (duplicate positions), rows may be empty.
/// `upper = false` gives a lower triangle, `true` its mirror.
fn arb_triangle(upper: bool) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..40).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -2.0f64..2.0), 0..(n * 3)).prop_map(move |raw| {
            let mut entries: Vec<(usize, usize, f64)> = raw
                .into_iter()
                .map(|(a, b, v)| {
                    let (r, c) = if upper {
                        (a.min(b), a.max(b))
                    } else {
                        (a.max(b), a.min(b))
                    };
                    (r, c, v)
                })
                .collect();
            for i in 0..n {
                entries.push((i, i, 3.0 + (i % 5) as f64));
            }
            (n, entries)
        })
    })
}

/// Assembles a CSR matrix **preserving duplicate entries** (row-major sort,
/// no merging) — the duplicate-entry corner `CsrMatrix::from_coo` would
/// otherwise normalize away.
fn csr_with_duplicates(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut sorted = entries.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut rowptr = vec![0usize; n + 1];
    for &(r, _, _) in &sorted {
        rowptr[r + 1] += 1;
    }
    for i in 0..n {
        rowptr[i + 1] += rowptr[i];
    }
    let colind: Vec<u32> = sorted.iter().map(|&(_, c, _)| c as u32).collect();
    let values: Vec<f64> = sorted.iter().map(|&(_, _, v)| v).collect();
    CsrMatrix::from_raw(n, n, rowptr, colind, values)
}

fn summed_diag_nonzero(n: usize, entries: &[(usize, usize, f64)]) -> bool {
    let mut d = vec![0.0f64; n];
    for &(r, c, v) in entries {
        if r == c {
            d[r] += v;
        }
    }
    d.iter().all(|&v| v != 0.0)
}

/// The independent reference: substitution in natural order (ascending for
/// a lower solve, descending for an upper one) straight over the CSR,
/// solving the `k` row-major columns of `b` — entries in storage order,
/// diagonal entries skipped, then one division by the summed diagonal (none
/// for a unit solve).
fn reference_solve(m: &CsrMatrix, dir: TrsvDirection, unit: bool, b: &[f64], k: usize) -> Vec<f64> {
    let n = m.nrows();
    let mut x = vec![f64::NAN; n * k];
    let order: Vec<usize> = match dir {
        TrsvDirection::Lower => (0..n).collect(),
        TrsvDirection::Upper => (0..n).rev().collect(),
    };
    for i in order {
        let entries = || m.row_cols(i).iter().map(|&c| c as usize).zip(m.row_vals(i));
        let mut d = 0.0;
        for (c, &v) in entries() {
            if c == i {
                d += v;
            }
        }
        for j in 0..k {
            let mut s = b[i * k + j];
            for (c, &v) in entries() {
                if c != i {
                    s -= v * x[c * k + j];
                }
            }
            x[i * k + j] = if unit { s } else { s / d };
        }
    }
    x
}

/// Serial and level-scheduled (2 and 5 threads) solves of `m` must equal
/// the reference bitwise, for one and three right-hand sides.
fn check_against_reference(m: &CsrMatrix, dir: TrsvDirection, unit: bool) {
    let n = m.nrows();
    let mut kernels = vec![TrsvKernel::serial(m, dir, unit).expect("valid triangle")];
    for nthreads in [2usize, 5] {
        let par = TrsvKernel::try_new(
            m,
            dir,
            unit,
            TrsvAlgo::LevelScheduled,
            ExecCtx::new(nthreads),
        )
        .expect("valid triangle");
        assert_eq!(par.algo(), TrsvAlgo::LevelScheduled);
        kernels.push(par);
    }
    for k in [1usize, 3] {
        let b = MultiVec::from_fn(n, k, |i, j| {
            ((i * 7 % 23) as f64) * 0.31 - 1.5 + j as f64 * 0.25
        });
        let want = reference_solve(m, dir, unit, b.as_slice(), k);
        assert!(want.iter().all(|v| v.is_finite()));
        for kernel in &kernels {
            let mut got = MultiVec::zeros(n, k);
            if k == 1 {
                kernel.solve(b.as_slice(), got.as_mut_slice());
            } else {
                kernel.solve_multi(&b, &mut got);
            }
            assert_eq!(
                got.as_slice(),
                &want[..],
                "{} != reference, dir {dir:?}, unit {unit}, k {k}",
                kernel.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance: serial ≡ level-scheduled ≡ reference, bitwise, on every
    /// generated lower triangle (duplicates preserved, empty rows allowed).
    #[test]
    fn lower_level_scheduled_is_bit_identical((n, entries) in arb_triangle(false)) {
        prop_assume!(summed_diag_nonzero(n, &entries));
        check_against_reference(&csr_with_duplicates(n, &entries), TrsvDirection::Lower, false);
    }

    /// Same property on upper triangles (backward substitution order).
    #[test]
    fn upper_level_scheduled_is_bit_identical((n, entries) in arb_triangle(true)) {
        prop_assume!(summed_diag_nonzero(n, &entries));
        check_against_reference(&csr_with_duplicates(n, &entries), TrsvDirection::Upper, false);
    }

    /// Unit-diagonal solves (the ILU(0) `L`), in both directions: stored
    /// diagonals are ignored, no division happens, and the bit-identity
    /// still holds.
    #[test]
    fn unit_diagonal_is_bit_identical((n, entries) in arb_triangle(false)) {
        // Strip stored diagonals: unit solves treat the diagonal as implied.
        let strict: Vec<_> = entries.iter().copied().filter(|&(r, c, _)| r != c).collect();
        let mirrored: Vec<_> = strict.iter().map(|&(r, c, v)| (c, r, v)).collect();
        check_against_reference(&csr_with_duplicates(n, &strict), TrsvDirection::Lower, true);
        check_against_reference(&csr_with_duplicates(n, &mirrored), TrsvDirection::Upper, true);
    }
}

/// A structured case: the IC(0) factor of a 3-D stencil and its transpose,
/// whose level order differs from natural order on every level holding
/// more than one row, so the level-scheduled kernel's packed rows are a
/// real permutation of the triangle's.
#[test]
fn ic0_factor_of_poisson3d_matches_reference() {
    let a = CsrMatrix::from_coo(&sparseopt::matrix::generators::poisson3d(12, 12, 12));
    let l = sparseopt::solver::ic0(&a).expect("Poisson is SPD");
    let lt = CsrMatrix::from_coo(&l.to_coo().transpose());
    for (m, dir) in [(&l, TrsvDirection::Lower), (&lt, TrsvDirection::Upper)] {
        let levels = LevelSets::build(m, dir);
        let mut natural = 0u32;
        for lv in 0..levels.nlevels() {
            let rows = levels.level_rows(lv);
            let start = natural;
            natural += rows.len() as u32;
            if rows.len() > 1 {
                assert!(
                    rows.iter().zip(start..natural).any(|(&r, p)| r != p),
                    "level {lv} of the {dir:?} factor is already in natural order"
                );
            }
        }
        check_against_reference(m, dir, false);
    }
}

/// IC(0) on an SPD band with a fully dense band pattern: the exact Cholesky
/// factor has no fill outside `lower(A)`, so IC(0) must reproduce it —
/// pattern exactly, values to rounding.
#[test]
fn ic0_on_spd_band_is_exact_cholesky() {
    let n = 64;
    let band = 3;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in i.saturating_sub(band)..i {
            let v = -(0.5 + ((i + 2 * j) % 5) as f64 * 0.2);
            coo.push(i, j, v);
            coo.push(j, i, v);
            row_sum += v.abs();
        }
        coo.push(i, i, 2.0 * row_sum + 1.0 + (i % 3) as f64);
    }
    let a = CsrMatrix::from_coo(&coo);
    let l = sparseopt::solver::ic0(&a).expect("SPD by diagonal dominance");

    // Dense Cholesky reference.
    let mut ad = vec![vec![0.0f64; n]; n];
    for (i, j, v) in a.iter() {
        ad[i][j] = v;
    }
    let mut ld = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = ad[i][j];
            for (lik, ljk) in ld[i].iter().zip(&ld[j]).take(j) {
                s -= lik * ljk;
            }
            if i == j {
                assert!(s > 0.0, "dense Cholesky pivot {i}");
                ld[i][i] = s.sqrt();
            } else {
                ld[i][j] = s / ld[j][j];
            }
        }
    }
    // Pattern: exactly lower(A); values: the exact factor; and the exact
    // factor has no entries outside the pattern (no fill on a full band).
    assert_eq!(l.nnz(), a.lower_triangle(true).nnz());
    let mut covered = vec![vec![false; n]; n];
    for (i, j, v) in l.iter() {
        assert!(
            (v - ld[i][j]).abs() < 1e-11 * (1.0 + ld[i][j].abs()),
            "L[{i}][{j}] = {v} vs exact {}",
            ld[i][j]
        );
        covered[i][j] = true;
    }
    for i in 0..n {
        for j in 0..=i {
            if ld[i][j] != 0.0 {
                assert!(
                    covered[i][j],
                    "exact factor has fill at ({i},{j}) — not a no-fill pattern"
                );
            }
        }
    }
}

/// The SSS scatter/gather SymGS sweep equals the textbook dense symmetric
/// Gauss-Seidel update, over several sweeps (errors would compound).
#[test]
fn symgs_sweep_matches_reference_gauss_seidel() {
    let n = 48;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 6.0 + (i % 4) as f64);
        for d in [1usize, 5] {
            if i >= d {
                let v = -0.7 - (i % 3) as f64 * 0.2;
                coo.push(i, i - d, v);
                coo.push(i - d, i, v);
            }
        }
    }
    let csr = CsrMatrix::from_coo(&coo);
    let sss = Arc::new(SssCsr::try_from_csr(&csr).expect("symmetric"));
    let kernel = SymGsKernel::try_new(sss).expect("nonzero diagonal");

    let mut ad = vec![vec![0.0f64; n]; n];
    for (i, j, v) in csr.iter() {
        ad[i][j] = v;
    }
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos() * 2.0).collect();
    let mut x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut want = x.clone();
    let mut scratch = Vec::new();
    for _ in 0..4 {
        kernel.sweep(&b, &mut x, &mut scratch);
        // Reference: forward row update then backward row update, each
        // against the freshest values.
        for i in 0..n {
            let mut s = b[i];
            for j in 0..n {
                if j != i {
                    s -= ad[i][j] * want[j];
                }
            }
            want[i] = s / ad[i][i];
        }
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in 0..n {
                if j != i {
                    s -= ad[i][j] * want[j];
                }
            }
            want[i] = s / ad[i][i];
        }
    }
    for (i, (a, w)) in x.iter().zip(&want).enumerate() {
        assert!(
            (a - w).abs() < 1e-10 * (1.0 + w.abs()),
            "row {i}: {a} vs {w}"
        );
    }
}

/// Acceptance criterion: IC(0)-preconditioned CG on the poisson2d suite
/// matrix converges in at most **half** the iterations of Jacobi-CG at the
/// same tolerance. (On Poisson the diagonal is constant, so Jacobi is a
/// scaled identity — incomplete Cholesky has to beat it decisively for the
/// preconditioning layer to be worth its two triangular solves.)
#[test]
fn ic0_cg_halves_jacobi_cg_iterations_on_poisson2d() {
    use sparseopt::solver::{cg, Ic0Precond, SolverOptions, SymGsPrecond};

    let a = Arc::new(CsrMatrix::from_coo(
        &sparseopt::matrix::generators::poisson2d(96, 96),
    ));
    let op = SerialCsr::new(a.clone());
    let b: Vec<f64> = (0..a.nrows())
        .map(|i| 1.0 + (i as f64 * 0.07).sin())
        .collect();
    let opts = SolverOptions {
        tol: 1e-8,
        max_iters: 2_000,
    };

    let jacobi = JacobiPrecond::new(&a).expect("Poisson diagonal is constant 4");
    let mut x = vec![0.0; a.nrows()];
    let out_jacobi = cg(&op, &b, &mut x, &jacobi, &opts);
    assert!(out_jacobi.converged, "Jacobi-CG must converge");

    let ic = Ic0Precond::new(&a).expect("Poisson is SPD");
    x.fill(0.0);
    let out_ic = cg(&op, &b, &mut x, &ic, &opts);
    assert!(out_ic.converged, "IC(0)-CG must converge");

    assert!(
        2 * out_ic.iterations <= out_jacobi.iterations,
        "IC(0)-CG took {} iterations, more than half of Jacobi-CG's {}",
        out_ic.iterations,
        out_jacobi.iterations
    );

    // SymGS sits between the two: also SPD-safe, and must not be weaker
    // than Jacobi either.
    let symgs = SymGsPrecond::from_csr(&a).expect("Poisson is symmetric");
    x.fill(0.0);
    let out_sgs = cg(&op, &b, &mut x, &symgs, &opts);
    assert!(out_sgs.converged, "SymGS-CG must converge");
    assert!(
        out_sgs.iterations <= out_jacobi.iterations,
        "SymGS-CG took {} iterations vs Jacobi-CG's {}",
        out_sgs.iterations,
        out_jacobi.iterations
    );
}

/// Zoo edge cases the proptest generator can under-sample: a fully empty
/// strict triangle (pure diagonal), a single row, and a chain band.
#[test]
fn trsv_zoo_edges_are_bit_identical() {
    // Pure diagonal — one level holding every row.
    let mut coo = CooMatrix::new(16, 16);
    for i in 0..16 {
        coo.push(i, i, 1.0 + i as f64);
    }
    let diag = CsrMatrix::from_coo(&coo);
    // Chain band — as many levels as rows.
    let mut coo = CooMatrix::new(16, 16);
    for i in 0..16 {
        coo.push(i, i, 2.0);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
    }
    let chain = CsrMatrix::from_coo(&coo);
    // Single row.
    let mut coo = CooMatrix::new(1, 1);
    coo.push(0, 0, 4.0);
    let one = CsrMatrix::from_coo(&coo);

    for m in [diag, chain, one] {
        check_against_reference(&m, TrsvDirection::Lower, false);
    }
}
