//! Properties of the structural matrix fingerprint backing the plan cache:
//! a key that changes when it shouldn't silently turns every cache lookup
//! into a miss (tuning re-runs forever), and a key that collides when it
//! shouldn't serves one matrix another matrix's plan.

use proptest::prelude::*;
use sparseopt::matrix::generators as g;
use sparseopt::prelude::*;
use std::sync::Arc;

const LLC: usize = 1 << 25;

/// Arbitrary triplets (kind 0), or a square matrix whose entries are all
/// mirrored (kind 1) or mirrored with every third mirror value perturbed
/// (kind 2), so the symmetry share covers its exact (`s16`) and partial
/// buckets. Mirrored values are small integers: duplicate coordinates sum
/// exactly in any assembly order, so shuffling cannot move the share.
fn arb_triplets() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..60, 1usize..60, 0u8..3)
        .prop_flat_map(|(r, c, kind)| {
            let entry = (0..r, 0..c, -1e6f64..1e6);
            let mirrored = (0..r, 0..r, -4i32..5);
            (
                Just((r, c, kind)),
                proptest::collection::vec(entry, 0..300),
                proptest::collection::vec(mirrored, 0..300),
            )
        })
        .prop_map(|((r, c, kind), entries, mirrored)| {
            if kind == 0 {
                return (r, c, entries);
            }
            let mut out = Vec::with_capacity(2 * mirrored.len());
            for (k, (i, j, v)) in mirrored.into_iter().enumerate() {
                let v = f64::from(v);
                out.push((i, j, v));
                if i != j {
                    let bump = if kind == 2 && k % 3 == 0 { 1.0 } else { 0.0 };
                    out.push((j, i, v + bump));
                }
            }
            (r, r, out)
        })
}

fn coo_of(r: usize, c: usize, entries: &[(usize, usize, f64)]) -> CooMatrix {
    let mut coo = CooMatrix::new(r, c);
    for &(i, j, v) in entries {
        coo.push(i, j, v);
    }
    coo
}

/// Deterministic Fisher–Yates on a cheap xorshift stream (the vendored
/// proptest has no shuffle strategy).
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fingerprint_is_stable_under_nonzero_permutation(
        (r, c, entries) in arb_triplets(),
        seed in 1u64..u64::MAX,
    ) {
        // Push the same triplets in two different orders: CSR construction
        // canonicalizes (sorts + dedups), so the structural fingerprint —
        // and therefore the cache key — must not depend on assembly order.
        let a = CsrMatrix::from_coo(&coo_of(r, c, &entries));
        let b = CsrMatrix::from_coo(&coo_of(r, c, &shuffled(&entries, seed)));
        let fa = MatrixFingerprint::extract(&a, LLC);
        let fb = MatrixFingerprint::extract(&b, LLC);
        prop_assert_eq!(fa, fb);
        prop_assert_eq!(fa.key(), fb.key());
    }

    #[test]
    fn fingerprint_is_deterministic((r, c, entries) in arb_triplets()) {
        let csr = CsrMatrix::from_coo(&coo_of(r, c, &entries));
        let first = MatrixFingerprint::extract(&csr, LLC);
        // Repeated extraction, and extraction routed through features,
        // always agree — no hidden per-run state leaks into the key.
        for _ in 0..3 {
            prop_assert_eq!(MatrixFingerprint::extract(&csr, LLC), first);
        }
        let features = MatrixFeatures::extract(&csr, LLC);
        prop_assert_eq!(MatrixFingerprint::from_features(&features), first);
        prop_assert!(first.key().starts_with("v1:"), "key {}", first.key());
    }
}

#[test]
fn structurally_different_suite_matrices_get_distinct_keys() {
    // The ci_bench suite shapes (smaller instances): each has a genuinely
    // different structure, so each must tune — and cache — independently.
    let suite: Vec<(&str, Arc<CsrMatrix>)> = vec![
        (
            "banded",
            Arc::new(CsrMatrix::from_coo(&g::banded(20_000, 4))),
        ),
        (
            "poisson2d",
            Arc::new(CsrMatrix::from_coo(&g::poisson2d(96, 96))),
        ),
        (
            "random",
            Arc::new(CsrMatrix::from_coo(&g::random_uniform(8_000, 8, 1))),
        ),
        (
            "powerlaw-hub",
            Arc::new(CsrMatrix::from_coo(&g::power_law_hub(8_000, 2, 5))),
        ),
        (
            "few-dense-rows",
            Arc::new(CsrMatrix::from_coo(&g::few_dense_rows(12_000, 2, 4, 3))),
        ),
    ];
    let keys: Vec<(&str, String)> = suite
        .iter()
        .map(|(name, m)| (*name, MatrixFingerprint::extract(m, LLC).key()))
        .collect();
    for (i, (na, ka)) in keys.iter().enumerate() {
        for (nb, kb) in keys.iter().skip(i + 1) {
            assert_ne!(
                ka, kb,
                "{na} and {nb} must not share a plan-cache key ({ka})"
            );
        }
    }
}
