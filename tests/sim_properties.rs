//! Property-based invariants of the simulation substrate: the cache
//! simulator's LRU/stream behavior and the execution model's monotonicity
//! and internal consistency on arbitrary matrices.

use proptest::prelude::*;
use sparseopt::prelude::*;
use sparseopt::sim::{
    analytic_mb_bound, analytic_peak_bound, simulate, CacheSim, SimKernelConfig, SimMatrixProfile,
};

fn arb_trace() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 22), 1..2000)
}

fn arb_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..80).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -10.0f64..10.0);
        (Just(n), proptest::collection::vec(entry, 1..400))
    })
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    CsrMatrix::from_coo(&coo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_accounting_is_consistent(trace in arb_trace()) {
        let mut c = CacheSim::new(4096, 4, 64);
        for &a in &trace {
            c.access(a);
        }
        prop_assert_eq!(c.accesses(), trace.len() as u64);
        prop_assert_eq!(c.hits() + c.misses(), c.accesses());
        prop_assert!(c.irregular_misses() <= c.misses());
        // Misses cannot undercut the number of distinct lines touched, nor
        // exceed the number of accesses.
        let distinct: std::collections::HashSet<u64> =
            trace.iter().map(|a| a >> 6).collect();
        prop_assert!(c.misses() >= distinct.len().min(trace.len()) as u64 / distinct.len().max(1) as u64);
        prop_assert!(c.misses() <= trace.len() as u64);
    }

    #[test]
    fn lru_inclusion_property(trace in arb_trace()) {
        // A larger LRU cache never misses more than a smaller one on the
        // same trace (fully-associative stack inclusion; we use the same
        // set count by scaling associativity).
        let mut small = CacheSim::new(64 * 16, 16, 64);  // 16 lines, 1 set
        let mut large = CacheSim::new(64 * 64, 64, 64);  // 64 lines, 1 set
        prop_assert_eq!(small.nsets(), 1);
        prop_assert_eq!(large.nsets(), 1);
        for &a in &trace {
            small.access(a);
            large.access(a);
        }
        prop_assert!(large.misses() <= small.misses());
    }

    #[test]
    fn model_bounds_and_baseline_are_finite_positive((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        for platform in Platform::paper_platforms() {
            let prof = SimMatrixProfile::analyze(&csr, &platform);
            let r = simulate(&prof, &platform, &SimKernelConfig::baseline(), 1);
            prop_assert!(r.secs > 0.0 && r.secs.is_finite());
            prop_assert!(r.gflops > 0.0 && r.gflops.is_finite());
            prop_assert_eq!(r.thread_secs.len(), platform.cores);
            prop_assert!(r.median_thread_secs() <= r.secs + 1e-15);
            prop_assert!(analytic_peak_bound(&prof, &platform, 1)
                >= analytic_mb_bound(&prof, &platform, 1) - 1e-9);
        }
    }

    #[test]
    fn profile_partitions_account_for_all_work((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        let platform = Platform::knc();
        let prof = SimMatrixProfile::analyze(&csr, &platform);
        prop_assert_eq!(prof.nnz_per_thread.iter().sum::<usize>(), csr.nnz());
        prop_assert_eq!(prof.rows_per_thread.iter().sum::<usize>(), csr.nrows());
        prop_assert_eq!(prof.rows_partition_nnz.iter().sum::<usize>(), csr.nnz());
        // Misses never exceed accesses (one access per nonzero).
        prop_assert!(prof.total_x_misses() <= csr.nnz() as u64);
        for (m, i) in prof.x_misses.iter().zip(&prof.x_irregular_misses) {
            prop_assert!(i <= m);
        }
    }

    #[test]
    fn spmm_time_per_rhs_is_monotone_in_k((n, entries) in arb_matrix()) {
        // Per-RHS execution time never increases with the reuse factor: the
        // matrix stream amortizes, everything else scales at most linearly.
        let csr = build(n, &entries);
        for platform in Platform::paper_platforms() {
            let prof = SimMatrixProfile::analyze(&csr, &platform);
            let mut last_per_rhs = f64::INFINITY;
            for k in [1usize, 2, 3, 4, 6, 8, 12, 16] {
                let r = simulate(&prof, &platform, &SimKernelConfig::baseline(), k);
                prop_assert!(r.secs > 0.0 && r.secs.is_finite());
                let per_rhs = r.secs / k as f64;
                prop_assert!(
                    per_rhs <= last_per_rhs * (1.0 + 1e-12),
                    "{}: per-RHS time rose at k={}: {} vs {}",
                    platform.name, k, per_rhs, last_per_rhs
                );
                last_per_rhs = per_rhs;
            }
        }
    }

    #[test]
    fn scaling_never_reduces_misses((n, entries) in arb_matrix()) {
        // Shrinking the modeled cache (larger locality scale) can only keep
        // or increase miss counts.
        let csr = build(n, &entries);
        let platform = Platform::broadwell();
        let base = SimMatrixProfile::analyze_scaled(&csr, &platform, 1.0, 1.0);
        let scaled = SimMatrixProfile::analyze_scaled(&csr, &platform, 64.0, 64.0);
        prop_assert!(scaled.total_x_misses() >= base.total_x_misses());
        prop_assert!(scaled.effective_working_set() >= base.effective_working_set());
    }
}
