//! Shared candidate-plan ranking.
//!
//! Three consumers used to enumerate and score plans independently — the
//! oracle sweep in `SimOptimizerStudy`, the no-loss guard in
//! [`crate::guard_plan`], and (new) the empirical tuner's top-k candidate
//! selection. They now rank from the *same* list through this module, so a
//! plan the study's oracle considers is exactly a plan the tuner can
//! measure and the guard can fall back to.
//!
//! Ordering contract: candidates are scored by modeled Gflop/s and sorted
//! descending with a **stable** sort, and [`candidate_plans`] always places
//! the baseline plan first — so on a modeled tie the baseline (or the
//! earlier-enumerated plan) wins, preserving the historical "strictly
//! better or keep what you had" semantics of both the oracle and the guard.

use crate::pool::{single_and_pair_plans, OptimizationPlan};
use sparseopt_matrix::MatrixFeatures;
use sparseopt_sim::{simulate, Platform, SimMatrixProfile};

/// One scored candidate.
#[derive(Clone, Debug)]
pub struct RankedPlan {
    /// The candidate plan.
    pub plan: OptimizationPlan,
    /// Its modeled Gflop/s on the ranking platform.
    pub modeled_gflops: f64,
}

/// The full candidate list one matrix admits: the baseline first, then
/// every single and pair plan from the applicable pool, deduplicated by
/// modeled kernel configuration (pairs whose build precedence collapses
/// them onto an already-listed config — e.g. `merge-split+decompose` onto
/// `merge-split` — would only waste a tuner measurement slot).
pub fn candidate_plans(features: &MatrixFeatures) -> Vec<OptimizationPlan> {
    let mut plans = vec![OptimizationPlan::baseline()];
    plans.extend(single_and_pair_plans(features));
    let mut seen = Vec::new();
    plans.retain(|p| {
        let cfg = p.to_sim_config();
        if seen.contains(&cfg) {
            false
        } else {
            seen.push(cfg);
            true
        }
    });
    plans
}

/// Scores `candidates` on the modeled `platform` and returns them sorted by
/// modeled Gflop/s, descending (stable: ties keep enumeration order).
pub fn rank_plans(
    profile: &SimMatrixProfile,
    platform: &Platform,
    candidates: Vec<OptimizationPlan>,
) -> Vec<RankedPlan> {
    let mut ranked: Vec<RankedPlan> = candidates
        .into_iter()
        .map(|plan| {
            let modeled_gflops = simulate(profile, platform, &plan.to_sim_config(), 1).gflops;
            RankedPlan {
                plan,
                modeled_gflops,
            }
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.modeled_gflops
            .partial_cmp(&a.modeled_gflops)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked
}

/// [`candidate_plans`] ranked on `platform` — the one list the oracle
/// sweep, the adaptive guard's fallback space, and the tuner's top-k
/// selection all draw from.
pub fn ranked_candidates(
    profile: &SimMatrixProfile,
    platform: &Platform,
    features: &MatrixFeatures,
) -> Vec<RankedPlan> {
    rank_plans(profile, platform, candidate_plans(features))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_core::csr::CsrMatrix;
    use sparseopt_matrix::generators as g;

    #[test]
    fn candidates_start_with_baseline_and_are_config_unique() {
        let m = CsrMatrix::from_coo(&g::power_law_hub(3000, 2, 5));
        let f = MatrixFeatures::extract(&m, 1 << 25);
        let plans = candidate_plans(&f);
        assert!(plans[0].is_noop(), "baseline must lead the list");
        let mut cfgs = Vec::new();
        for p in &plans {
            let c = p.to_sim_config();
            assert!(!cfgs.contains(&c), "duplicate config from {}", p.label());
            cfgs.push(c);
        }
        // Dedup only removes plans, never invents them.
        assert!(plans.len() <= 1 + crate::pool::single_and_pair_plans(&f).len());
    }

    #[test]
    fn ranking_is_descending_and_complete() {
        let m = CsrMatrix::from_coo(&g::banded(8000, 4));
        let f = MatrixFeatures::extract(&m, 1 << 25);
        let platform = Platform::knc();
        let profile = SimMatrixProfile::analyze(&m, &platform);
        let ranked = ranked_candidates(&profile, &platform, &f);
        assert_eq!(ranked.len(), candidate_plans(&f).len());
        for w in ranked.windows(2) {
            assert!(w[0].modeled_gflops >= w[1].modeled_gflops);
        }
        // The top of the ranking can never be a modeled loss vs baseline —
        // baseline is in the list.
        let base = ranked
            .iter()
            .find(|r| r.plan.is_noop())
            .expect("baseline ranked");
        assert!(ranked[0].modeled_gflops >= base.modeled_gflops);
    }
}
