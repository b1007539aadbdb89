//! Per-shard plan selection over an on-disk shard container.
//!
//! The out-of-core half of the adaptive optimizer: each row-block shard of
//! a [`ShardStore`](sparseopt_matrix::ShardStore) is streamed through the
//! [`PlanTuner`] *independently* —
//! its own [`MatrixFingerprint`](sparseopt_matrix::MatrixFingerprint), its
//! own classifier/tuner run, its own plan-cache entry — and the chosen
//! [`OptimizationPlan`]s are baked into a `ShardedOp`'s per-shard builder
//! closures. This is the paper's decomposed-class insight hoisted to
//! container granularity: a degree-sorted web crawl's hub-heavy head shard
//! and short-row tail shards legitimately tune to *different* formats.
//!
//! Because the plan cache is keyed by each shard's structural fingerprint,
//! a later process that re-opens the same container (or any container with
//! structurally equivalent shards) warms every shard plan without a single
//! classifier call or timed trial.
//!
//! Compaction re-tuning: when a shard's delta overlay is folded in, the
//! shard's structure has changed, so the builder re-runs the one-shot
//! profile-guided classifier (on the sim profiler for the configured
//! platform) against the merged fragment and adopts the new plan. That path
//! is deliberately measurement-free — it runs on a background thread and
//! must not contend for the timed thread pool.

use crate::optimizers::AdaptiveOptimizer;
use crate::pool::{OpRequirements, OptimizationPlan};
use crate::tuner::{PlanTuner, TuneOutcome};
use sparseopt_classifier::{BoundsProfiler, SimBoundsProfiler};
use sparseopt_core::kernels::{BuildReason, ShardSpec, ShardedOp};
use sparseopt_core::prelude::CsrMatrix;
use sparseopt_sim::Platform;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// What the per-shard planner decided for one row-block shard.
#[derive(Clone, Debug)]
pub struct ShardPlanReport {
    /// Global row range of the shard.
    pub rows: Range<usize>,
    /// Nonzeros in the shard's base fragment.
    pub nnz: usize,
    /// Label of the plan selected at registration time, reduced to what
    /// its operator honours ([`OptimizationPlan::reduced`]).
    pub plan_label: String,
    /// Tuning provenance (cache hit / promoted / classifier guess).
    pub outcome: TuneOutcome,
}

/// A tuned out-of-core operator plus its per-shard planning record.
pub struct TunedShardedOp {
    /// The streaming operator, ready to register with a server or solver.
    pub op: Arc<ShardedOp>,
    /// One report per shard, in row order.
    pub shard_plans: Vec<ShardPlanReport>,
}

impl TunedShardedOp {
    /// Distinct plan labels across shards — `> 1` means the per-shard
    /// planner actually diversified formats within one matrix.
    pub fn distinct_plan_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self
            .shard_plans
            .iter()
            .map(|p| p.plan_label.clone())
            .collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// True when every shard plan came out of the persistent cache.
    pub fn warm(&self) -> bool {
        self.shard_plans
            .iter()
            .all(|p| p.outcome == TuneOutcome::CacheHit)
    }
}

impl PlanTuner {
    /// Tunes every shard of `store` independently and assembles the
    /// streaming [`ShardedOp`] with per-shard builder closures.
    ///
    /// Shards are loaded **one at a time** — tuning never holds more than a
    /// single fragment resident, so registration respects the same
    /// out-of-core discipline as application. Empty shards (zero nonzeros)
    /// skip classification and get the baseline plan. `retune_platform`
    /// drives the measurement-free re-classification that compaction
    /// triggers after a delta merge.
    ///
    /// The tuned kernels themselves are *not* kept: the `ShardedOp` builds
    /// each shard's kernel lazily from its recorded plan when the shard
    /// enters the streaming window, so cold start costs one build per
    /// window entry, not one per shard.
    pub fn optimize_sharded(
        &self,
        store: Arc<sparseopt_matrix::ShardStore>,
        profiler: &dyn BoundsProfiler,
        retune_platform: Platform,
        window: usize,
    ) -> Result<TunedShardedOp, sparseopt_matrix::ShardError> {
        let reqs = OpRequirements::full();
        let mut specs = Vec::with_capacity(store.nshards());
        let mut shard_plans = Vec::with_capacity(store.nshards());

        for i in 0..store.nshards() {
            let meta = store.meta(i).clone();
            let fragment = Arc::new(store.load(i)?);
            let (plan, outcome) = if fragment.nnz() == 0 {
                (OptimizationPlan::baseline(), TuneOutcome::ClassifierGuess)
            } else {
                let tuned = self.optimize_profiled_for(&fragment, profiler, &reqs);
                (tuned.plan, tuned.outcome)
            };
            shard_plans.push(ShardPlanReport {
                rows: meta.rows.clone(),
                nnz: meta.nnz,
                plan_label: plan.label(),
                outcome,
            });

            let loader_store = store.clone();
            let plan_slot = Arc::new(Mutex::new(plan));
            let ctx = self.ctx().clone();
            let platform = retune_platform.clone();
            specs.push(ShardSpec {
                rows: meta.rows.clone(),
                nnz: meta.nnz,
                loader: Arc::new(move || loader_store.load(i).map_err(|e| e.to_string())),
                builder: Arc::new(move |csr: &Arc<CsrMatrix>, reason| {
                    if reason == BuildReason::Compaction && csr.nnz() > 0 {
                        // Structure changed: re-classify on the sim profiler
                        // (no timed trials — this runs on a background
                        // thread) and adopt the new, reduced plan for later
                        // rebuilds.
                        let opt = AdaptiveOptimizer::new(ctx.clone());
                        let sim = SimBoundsProfiler::new(platform.clone());
                        let k = opt.optimize_profiled_for(csr, &sim, &OpRequirements::full());
                        *plan_slot.lock().expect("plan slot") = k.plan;
                        return k.kernel;
                    }
                    plan_slot
                        .lock()
                        .expect("plan slot")
                        .build_host_kernel(csr, ctx.clone())
                }),
            });
        }

        let op = Arc::new(ShardedOp::new(
            (store.nrows(), store.ncols()),
            specs,
            window,
        ));
        Ok(TunedShardedOp { op, shard_plans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_core::prelude::*;
    use sparseopt_matrix::shard::write_shard_file;
    use sparseopt_matrix::{generators, ShardStore};
    use std::sync::Arc;

    fn store_for(csr: &CsrMatrix, rows_per_shard: usize, name: &str) -> Arc<ShardStore> {
        let path = std::env::temp_dir().join(format!(
            "sparseopt-opt-shard-{}-{name}.shards",
            std::process::id()
        ));
        write_shard_file(&path, csr, rows_per_shard).expect("write");
        let store = Arc::new(ShardStore::open(&path).expect("open"));
        std::fs::remove_file(&path).ok(); // fd/mapping stays valid on unix
        store
    }

    #[test]
    fn sharded_matches_whole_matrix_and_bounds_residency() {
        let csr = CsrMatrix::from_coo(&generators::power_law_sorted(600, 6, 0.9, 11));
        let store = store_for(&csr, 150, "match");
        let ctx = ExecCtx::new(2);
        let tuner = PlanTuner::new(ctx.clone()).with_budget(crate::TuneBudget::minimal());
        let profiler = SimBoundsProfiler::new(Platform::broadwell());
        let tuned = tuner
            .optimize_sharded(store, &profiler, Platform::broadwell(), 2)
            .expect("tune");
        assert_eq!(tuned.shard_plans.len(), 4);

        let reference = SerialCsr::new(Arc::new(csr));
        for apply in Apply::ALL {
            let (out, inp) = apply.out_in(tuned.op.shape());
            let x: Vec<f64> = (0..inp).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
            let (mut got, mut want) = (vec![0.0; out], vec![0.0; out]);
            tuned.op.apply(apply, &x, &mut got);
            reference.apply(apply, &x, &mut want);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0), "{apply:?}");
            }
        }
        assert!(tuned.op.cached_shards() <= 2);
    }

    #[test]
    fn shard_plans_warm_from_the_cache_on_reopen() {
        let csr = CsrMatrix::from_coo(&generators::power_law_sorted(400, 6, 0.9, 23));
        let store = store_for(&csr, 100, "warm");
        let cache_path = std::env::temp_dir().join(format!(
            "sparseopt-opt-shard-cache-{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&cache_path).ok();
        let profiler = SimBoundsProfiler::new(Platform::broadwell());

        let cold = PlanTuner::with_cache(
            ExecCtx::new(1),
            crate::PlanCache::at_path(cache_path.clone()).0,
        )
        .with_budget(crate::TuneBudget::minimal())
        .optimize_sharded(store.clone(), &profiler, Platform::broadwell(), 2)
        .expect("cold tune");
        assert!(!cold.warm(), "first run cannot be fully warm");

        let (warm_cache, warning) = crate::PlanCache::at_path(cache_path.clone());
        assert!(warning.is_none(), "cache must reload cleanly: {warning:?}");
        let warm = PlanTuner::with_cache(ExecCtx::new(1), warm_cache)
            .with_budget(crate::TuneBudget::minimal())
            .optimize_sharded(store, &profiler, Platform::broadwell(), 2)
            .expect("warm tune");
        assert!(warm.warm(), "second run must hit the per-shard plan cache");
        assert_eq!(cold.distinct_plan_labels(), warm.distinct_plan_labels());
        std::fs::remove_file(&cache_path).ok();
    }
}
