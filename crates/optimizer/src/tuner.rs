//! The tuning service: three-stage escalation from classifier guess to
//! measured, cached winner.
//!
//! The classifier answers *instantly* but from a model; the oracle answers
//! *exactly* but only in simulation. This layer closes the loop on the real
//! machine with a bounded amount of work:
//!
//! 1. **Guess** — start from the classifier's plan (profile- or
//!    feature-guided, both already guarded by [`crate::guard_plan`]). A
//!    caller that never tunes pays nothing it didn't pay before. The matrix
//!    is inspected once: the fingerprint fields first, then (on a miss) the
//!    rest of the features and one model profile, which the bounds, the
//!    guard and the stage 2 ranking share; the guess is built once, and
//!    that build is its recorded setup.
//! 2. **Search** — spend a budget of real timed trials on the sim-ranked
//!    top-k candidate plans from the *shared* ranking
//!    ([`crate::rank::ranked_candidates`]): each candidate's setup is
//!    wall-clocked, its apply is timed best-of-batches (the `ci_bench`
//!    protocol), and the budget is accounted in baseline-SpMV equivalents
//!    so "about 400 SpMVs of tuning" means the same thing on every matrix.
//!    Candidates are deduplicated on their
//!    [reduced](crate::OptimizationPlan::reduced) plan, so no operator is
//!    built and timed twice in one tune.
//! 3. **Promote** — ship whichever measured plan is fastest and persist it
//!    to the [`PlanCache`] keyed by the
//!    matrix's structural fingerprint. A second process — or a structurally
//!    identical matrix — skips stages 1–2 entirely: zero classifier calls,
//!    zero timed trials, and no inspection beyond the fingerprint.
//!
//! Because stage 2 records real setup and apply times, the Table V
//! amortization analysis can use measured numbers
//! ([`TunedKernel::amortization_iters`]) instead of the fixed per-plan
//! charges; the fixed charges remain the cold-start fallback
//! ([`crate::amortization::plan_setup_cost_spmv`]).
//!
//! ```
//! use sparseopt_classifier::SimBoundsProfiler;
//! use sparseopt_core::prelude::*;
//! use sparseopt_matrix::generators;
//! use sparseopt_optimizer::{PlanTuner, TuneBudget, TuneOutcome};
//! use sparseopt_sim::Platform;
//! use std::sync::Arc;
//!
//! let csr = Arc::new(CsrMatrix::from_coo(&generators::banded(600, 2)));
//! let tuner = PlanTuner::new(ExecCtx::new(1)).with_budget(TuneBudget::minimal());
//! let profiler = SimBoundsProfiler::new(Platform::broadwell());
//!
//! // Cold: classifier guess, measured against the baseline, then cached.
//! let cold = tuner.optimize_profiled(&csr, &profiler);
//! assert_ne!(cold.outcome, TuneOutcome::CacheHit);
//!
//! // Warm: the same structural fingerprint replays the cached winner —
//! // zero classifier calls, zero timed trials.
//! let warm = tuner.optimize_profiled(&csr, &profiler);
//! assert_eq!(warm.outcome, TuneOutcome::CacheHit);
//! assert_eq!(tuner.stats().hits, 1);
//! ```

use crate::amortization::amortization_iters;
use crate::optimizers::PlanDecision;
use crate::plan_cache::{MeasuredCosts, PlanCache, PlanCacheEntry};
use crate::pool::{OpRequirements, OptimizationPlan};
use crate::rank::{ranked_candidates, RankedPlan};
use crate::AdaptiveOptimizer;
use sparseopt_classifier::{BoundsProfiler, ClassSet, FeatureGuidedClassifier, PerClassBounds};
use sparseopt_core::prelude::*;
use sparseopt_matrix::{KeyFeatures, MatrixFeatures, MatrixFingerprint};
use sparseopt_sim::SimMatrixProfile;
use std::cell::{OnceCell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much empirical search the tuner may buy, all in units that survive a
/// change of matrix: trial counts and baseline-SpMV equivalents.
#[derive(Clone, Copy, Debug)]
pub struct TuneBudget {
    /// Total tuning spend ceiling in baseline-SpMV equivalents (setup time
    /// plus timed applies, both normalized by the measured baseline apply).
    /// The classifier's guess and the baseline reference are always
    /// measured even when this is 0 — the no-loss comparison needs both.
    pub total_spmv: f64,
    /// How many sim-ranked candidates (beyond guess + baseline) stage 2 may
    /// try, budget permitting.
    pub top_k: usize,
    /// Apply-timing batches per candidate (best-of-batches, like ci_bench).
    pub batches: usize,
    /// Applies per batch.
    pub batch_iters: usize,
}

impl Default for TuneBudget {
    fn default() -> Self {
        Self {
            total_spmv: 400.0,
            top_k: 4,
            batches: 3,
            batch_iters: 8,
        }
    }
}

impl TuneBudget {
    /// A budget that measures only the guess and the baseline — the
    /// cheapest configuration that can still promote away from a losing
    /// guess.
    pub fn minimal() -> Self {
        Self {
            total_spmv: 0.0,
            top_k: 0,
            ..Self::default()
        }
    }
}

/// Monotonic service counters (shared across threads holding the tuner).
#[derive(Default)]
pub struct TunerStats {
    hits: AtomicU64,
    misses: AtomicU64,
    promotions: AtomicU64,
    timed_trials: AtomicU64,
    inspect_ns: AtomicU64,
    build_ns: AtomicU64,
    apply_ns: AtomicU64,
}

/// Point-in-time copy of [`TunerStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunerStatsSnapshot {
    /// Optimizations served straight from the plan cache.
    pub hits: u64,
    /// Optimizations that had to run the classifier (and, budget
    /// permitting, the empirical search).
    pub misses: u64,
    /// Misses where measurement overturned the classifier's guess.
    pub promotions: u64,
    /// Timed apply batches executed (0 on a pure warm-cache run).
    pub timed_trials: u64,
    /// Time spent inspecting matrices: the fingerprint fields on every
    /// request; on a miss also the rest of the features, the model
    /// profile, the bounds, the classification and the candidate ranking.
    /// [`TuneBudget`] does not charge it.
    pub inspect_time: Duration,
    /// Time spent building operators: the guess, the baseline, the timed
    /// candidates, and the cached plan on a hit.
    pub build_time: Duration,
    /// Time spent in timed apply batches.
    pub apply_time: Duration,
}

impl TunerStats {
    fn snapshot(&self) -> TunerStatsSnapshot {
        let time = |ns: &AtomicU64| Duration::from_nanos(ns.load(Ordering::Relaxed));
        TunerStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            timed_trials: self.timed_trials.load(Ordering::Relaxed),
            inspect_time: time(&self.inspect_ns),
            build_time: time(&self.build_ns),
            apply_time: time(&self.apply_ns),
        }
    }
}

/// Runs `f`, adds its wall time to `total_ns`, and returns its result with
/// the seconds it took.
fn timed<T>(total_ns: &AtomicU64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let elapsed = t0.elapsed();
    total_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    (out, elapsed.as_secs_f64())
}

/// Where the served plan came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneOutcome {
    /// Warm cache: the plan was tuned earlier (possibly by another
    /// process); no classifier, no measurement.
    CacheHit,
    /// Cold: measurement overturned the classifier and a different plan won.
    Promoted,
    /// Cold: the classifier's guess survived measurement (or tied it).
    ClassifierGuess,
}

/// An optimized kernel with its tuning provenance and measured costs.
pub struct TunedKernel {
    /// The runnable operator (validated against the caller's
    /// [`OpRequirements`] exactly like [`crate::OptimizedKernel::kernel`]).
    pub kernel: Box<dyn SparseLinOp>,
    /// The plan the operator implements, reduced to what that operator
    /// honours ([`OptimizationPlan::reduced`]) — on a cache hit too.
    pub plan: OptimizationPlan,
    /// Classes behind the plan (from the classifier on a miss; reconstructed
    /// from the plan's own targets on a cache hit).
    pub classes: ClassSet,
    /// Bounds, when the miss path ran the profile-guided classifier.
    pub bounds: Option<PerClassBounds>,
    /// Structural fingerprint the plan is cached under.
    pub fingerprint: MatrixFingerprint,
    /// How this plan was chosen.
    pub outcome: TuneOutcome,
    /// Measured costs — always present after a cold tune, and replayed from
    /// the cache on a hit. `None` only if the winner's entry could not be
    /// measured (never happens through the public paths, but kept optional
    /// so the type states the fallback).
    pub measured: Option<MeasuredCosts>,
}

impl TunedKernel {
    /// Measured setup cost in baseline-SpMV equivalents, for
    /// [`crate::amortization::plan_setup_cost_spmv`].
    pub fn measured_setup_spmv(&self) -> Option<f64> {
        self.measured.map(|m| m.setup_spmv)
    }

    /// Minimum solver iterations before this plan's tuning-time setup is
    /// repaid by its per-apply gain over the scalar baseline — the Table V
    /// formula on *measured* numbers. `None` when nothing was measured or
    /// the plan is not faster than the baseline (never amortizes).
    pub fn amortization_iters(&self) -> Option<f64> {
        let m = self.measured?;
        amortization_iters(
            m.setup_spmv * m.baseline_secs,
            m.baseline_secs,
            m.apply_secs,
        )
    }
}

/// The tuning service: an [`AdaptiveOptimizer`] wrapped with a measurement
/// budget and a persistent plan cache.
pub struct PlanTuner {
    opt: AdaptiveOptimizer,
    cache: RefCell<PlanCache>,
    budget: TuneBudget,
    stats: TunerStats,
}

impl PlanTuner {
    /// A tuner with an in-memory (non-persistent) cache.
    pub fn new(ctx: Arc<ExecCtx>) -> Self {
        Self::with_cache(ctx, PlanCache::in_memory())
    }

    /// A tuner over an explicit cache (tests point this at a temp file; the
    /// warm-start acceptance test opens two tuners on the same path).
    pub fn with_cache(ctx: Arc<ExecCtx>, cache: PlanCache) -> Self {
        Self {
            opt: AdaptiveOptimizer::new(ctx),
            cache: RefCell::new(cache),
            budget: TuneBudget::default(),
            stats: TunerStats::default(),
        }
    }

    /// A tuner on the default persistent cache location
    /// ([`PlanCache::default_path`]); a corrupt or stale cache file degrades
    /// to a cold start with a stderr warning, never an error.
    pub fn open_default(ctx: Arc<ExecCtx>) -> Self {
        let (cache, warning) = PlanCache::open_default();
        if let Some(w) = warning {
            eprintln!("warning: {w}");
        }
        Self::with_cache(ctx, cache)
    }

    /// The execution context tuned kernels are built and measured on.
    pub fn ctx(&self) -> &Arc<ExecCtx> {
        self.opt.ctx()
    }

    /// Overrides the search budget.
    pub fn with_budget(mut self, budget: TuneBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The wrapped optimizer (mutable, so callers can set `llc_bytes` or
    /// the guard platform exactly as they would on a bare
    /// [`AdaptiveOptimizer`]).
    pub fn optimizer_mut(&mut self) -> &mut AdaptiveOptimizer {
        &mut self.opt
    }

    /// The wrapped optimizer.
    pub fn optimizer(&self) -> &AdaptiveOptimizer {
        &self.opt
    }

    /// Service counters so far.
    pub fn stats(&self) -> TunerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Number of cached plans currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Tuned profile-guided optimization for a forward single-vector
    /// consumer.
    pub fn optimize_profiled(
        &self,
        csr: &Arc<CsrMatrix>,
        profiler: &dyn BoundsProfiler,
    ) -> TunedKernel {
        self.optimize_profiled_for(csr, profiler, &OpRequirements::spmv())
    }

    /// Tuned profile-guided optimization with explicit operator
    /// requirements. Stage 1 is exactly
    /// [`AdaptiveOptimizer::optimize_profiled_for`]'s decision and build; a
    /// warm cache skips it.
    pub fn optimize_profiled_for(
        &self,
        csr: &Arc<CsrMatrix>,
        profiler: &dyn BoundsProfiler,
        reqs: &OpRequirements,
    ) -> TunedKernel {
        self.optimize_with(csr, reqs, |features, profile| {
            self.opt.decide_profiled(csr, profiler, features, profile)
        })
    }

    /// Tuned feature-guided optimization for a forward single-vector
    /// consumer.
    pub fn optimize_feature_guided(
        &self,
        csr: &Arc<CsrMatrix>,
        clf: &FeatureGuidedClassifier,
    ) -> TunedKernel {
        self.optimize_feature_guided_for(csr, clf, &OpRequirements::spmv())
    }

    /// Tuned feature-guided optimization with explicit operator
    /// requirements.
    pub fn optimize_feature_guided_for(
        &self,
        csr: &Arc<CsrMatrix>,
        clf: &FeatureGuidedClassifier,
        reqs: &OpRequirements,
    ) -> TunedKernel {
        self.optimize_with(csr, reqs, |features, profile| {
            self.opt.decide_feature_guided(csr, clf, features, profile)
        })
    }

    /// The shared hit/miss flow behind both classifier paths. `decide` is
    /// the classifier's decision, given the full features and the guard
    /// profile cell that the ranking then reads.
    fn optimize_with(
        &self,
        csr: &Arc<CsrMatrix>,
        reqs: &OpRequirements,
        decide: impl FnOnce(&MatrixFeatures, &OnceCell<SimMatrixProfile>) -> PlanDecision,
    ) -> TunedKernel {
        let (key_features, _) = timed(&self.stats.inspect_ns, || KeyFeatures::extract(csr));
        let fingerprint = MatrixFingerprint::from_key_features(&key_features);
        let key = fingerprint.key();

        // Warm path: replay the cached winner. The rebuilt operator must
        // still satisfy this caller's requirements — a plan tuned for a
        // forward-only consumer may not cover a transpose-consuming solver,
        // in which case the entry is ignored and the cold path (which
        // guarantees `reqs`) runs instead.
        if let Some(entry) = self.cache.borrow().get(&key) {
            let plan = entry.to_plan().reduced();
            let (kernel, _) = timed(&self.stats.build_ns, || {
                plan.build_host_kernel(csr, self.opt.ctx().clone())
            });
            if kernel.capabilities().satisfies(&reqs.as_capabilities()) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return TunedKernel {
                    kernel,
                    classes: plan.classes,
                    plan,
                    bounds: None,
                    fingerprint,
                    outcome: TuneOutcome::CacheHit,
                    measured: Some(entry.measured),
                };
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);

        // Stage 1: the rest of the features and one model profile, shared
        // by the classifier's decision and the stage 2 ranking.
        let ((decision, ranked), _) = timed(&self.stats.inspect_ns, || {
            let features = MatrixFeatures::complete(csr, &key_features, self.opt.llc_bytes);
            let profile = OnceCell::new();
            let decision = decide(&features, &profile);
            let ranked = ranked_candidates(
                self.opt.guard_profile(csr, &profile),
                &self.opt.guard_platform,
                &features,
            );
            (decision, ranked)
        });
        self.search_and_promote(csr, fingerprint, decision, ranked, reqs)
    }

    /// Best-of-batches per-apply seconds, charging one timed trial per
    /// batch.
    fn time_applies(&self, kernel: &dyn SparseLinOp, x: &[f64], y: &mut [f64]) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..self.budget.batches.max(1) {
            let (_, secs) = timed(&self.stats.apply_ns, || {
                for _ in 0..self.budget.batch_iters.max(1) {
                    kernel.spmv(x, y);
                }
            });
            best = best.min(secs / self.budget.batch_iters.max(1) as f64);
            self.stats.timed_trials.fetch_add(1, Ordering::Relaxed);
        }
        best
    }

    /// Builds `plan`'s operator, returning it with its setup seconds.
    fn build_plan(
        &self,
        csr: &Arc<CsrMatrix>,
        plan: &OptimizationPlan,
    ) -> (Box<dyn SparseLinOp>, f64) {
        timed(&self.stats.build_ns, || {
            plan.build_host_kernel(csr, self.opt.ctx().clone())
        })
    }

    /// Stages 1 (the build) to 3: build the guess, measure it, the baseline
    /// and the top of `ranked` on the real matrix; promote the fastest;
    /// persist.
    fn search_and_promote(
        &self,
        csr: &Arc<CsrMatrix>,
        fingerprint: MatrixFingerprint,
        decision: PlanDecision,
        ranked: Vec<RankedPlan>,
        reqs: &OpRequirements,
    ) -> TunedKernel {
        let n = csr.nrows();
        let x: Vec<f64> = (0..csr.ncols())
            .map(|i| 1.0 + (i as f64 * 0.37).sin())
            .collect();
        let mut y = vec![0.0; n];

        // The guess is built once; that build, format conversion included,
        // is its recorded setup. Its plan is already reduced, like every
        // plan recorded here.
        let (guessed, guess_setup_secs) =
            timed(&self.stats.build_ns, || self.opt.build(csr, decision, reqs));
        let guess_plan = guessed.plan.clone();

        // Everything measured: (plan, kernel, setup_secs, apply_secs).
        struct Trial {
            plan: OptimizationPlan,
            kernel: Box<dyn SparseLinOp>,
            setup_secs: f64,
            apply_secs: f64,
        }
        let mut trials: Vec<Trial> = Vec::new();

        // The baseline apply defines the SpMV budget unit (and the
        // amortization reference t_MKL-analogue). A baseline guess is the
        // baseline operator, measured once.
        let base_plan = OptimizationPlan::baseline();
        let baseline_secs = if guessed.plan.is_noop() {
            let baseline_secs = self.time_applies(&*guessed.kernel, &x, &mut y).max(1e-12);
            trials.push(Trial {
                plan: base_plan.clone(),
                kernel: guessed.kernel,
                setup_secs: guess_setup_secs,
                apply_secs: baseline_secs,
            });
            baseline_secs
        } else {
            let (base_kernel, base_setup_secs) = self.build_plan(csr, &base_plan);
            let baseline_secs = self.time_applies(&*base_kernel, &x, &mut y).max(1e-12);
            let apply_secs = self.time_applies(&*guessed.kernel, &x, &mut y);
            trials.push(Trial {
                plan: guessed.plan,
                kernel: guessed.kernel,
                setup_secs: guess_setup_secs,
                apply_secs,
            });
            trials.push(Trial {
                plan: base_plan.clone(),
                kernel: base_kernel,
                setup_secs: base_setup_secs,
                apply_secs: baseline_secs,
            });
            baseline_secs
        };

        // Stage 2: sim-ranked top-k candidates, measured while budget
        // remains. Spend is accounted in baseline-SpMV equivalents.
        let mut spent: f64 = trials
            .iter()
            .map(|t| {
                t.setup_secs / baseline_secs
                    + (self.budget.batches * self.budget.batch_iters) as f64 * t.apply_secs
                        / baseline_secs
            })
            .sum();
        let apply_budget = (self.budget.batches * self.budget.batch_iters) as f64;
        for cand in ranked.into_iter().take(self.budget.top_k + 1) {
            let plan = cand.plan.reduced();
            if trials.iter().any(|t| t.plan == plan) {
                continue; // this operator is already measured
            }
            // Conservative pre-charge: a candidate roughly as fast as the
            // baseline costs one apply-budget of units plus its setup.
            if spent + apply_budget > self.budget.total_spmv {
                break;
            }
            let (kernel, setup_secs) = self.build_plan(csr, &plan);
            if !kernel.capabilities().satisfies(&reqs.as_capabilities()) {
                spent += setup_secs / baseline_secs;
                continue;
            }
            let apply_secs = self.time_applies(&*kernel, &x, &mut y);
            spent += setup_secs / baseline_secs + apply_budget * apply_secs / baseline_secs;
            trials.push(Trial {
                plan,
                kernel,
                setup_secs,
                apply_secs,
            });
        }

        // Stage 3: promote the measured winner (stable: the guess was
        // pushed first, so on an exact tie it survives).
        let winner_idx = trials
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.apply_secs.total_cmp(&b.apply_secs))
            .map(|(i, _)| i)
            .expect("at least the guess is always measured");
        let winner = trials.swap_remove(winner_idx);
        let promoted = winner.plan != guess_plan;
        if promoted {
            self.stats.promotions.fetch_add(1, Ordering::Relaxed);
        }

        let flops = 2.0 * csr.nnz() as f64;
        let measured = MeasuredCosts {
            setup_spmv: winner.setup_secs / baseline_secs,
            apply_secs: winner.apply_secs,
            baseline_secs,
            gflops: flops / winner.apply_secs.max(1e-12) / 1e9,
        };
        self.cache.borrow_mut().insert(PlanCacheEntry {
            fingerprint: fingerprint.key(),
            optimizations: winner.plan.optimizations.clone(),
            inner: winner.plan.inner,
            decompose_threshold: winner.plan.decompose_threshold,
            measured,
        });

        TunedKernel {
            kernel: winner.kernel,
            classes: if promoted {
                winner.plan.classes
            } else {
                guessed.classes
            },
            plan: winner.plan,
            bounds: guessed.bounds,
            fingerprint,
            outcome: if promoted {
                TuneOutcome::Promoted
            } else {
                TuneOutcome::ClassifierGuess
            },
            measured: Some(measured),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_classifier::SimBoundsProfiler;
    use sparseopt_matrix::generators as g;
    use sparseopt_sim::Platform;

    fn arc(m: sparseopt_core::coo::CooMatrix) -> Arc<CsrMatrix> {
        Arc::new(CsrMatrix::from_coo(&m))
    }

    #[test]
    fn cold_tune_measures_and_caches() {
        let csr = arc(g::few_dense_rows(2000, 3, 2, 5));
        let ctx = ExecCtx::new(2);
        let tuner = PlanTuner::new(ctx);
        let profiler = SimBoundsProfiler::new(Platform::knc());
        let tuned = tuner.optimize_profiled(&csr, &profiler);

        let s = tuner.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 0);
        assert!(s.timed_trials > 0, "cold path must measure");
        assert_eq!(tuner.cache_len(), 1);
        let m = tuned.measured.expect("cold tune records measurements");
        assert!(m.apply_secs > 0.0 && m.baseline_secs > 0.0);
        assert!(m.setup_spmv >= 0.0);
        assert_ne!(tuned.outcome, TuneOutcome::CacheHit);

        // The served kernel is correct.
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).cos()).collect();
        let mut got = vec![0.0; 2000];
        tuned.kernel.spmv(&x, &mut got);
        let mut want = vec![0.0; 2000];
        SerialCsr::new(csr.clone()).spmv(&x, &mut want);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn cold_tune_times_each_distinct_operator_once() {
        // On a symmetric band the ranked candidates include several plans
        // that build one SELL operator (`sym-compress`, `compress+vec`,
        // `vectorize` with prefetch or auto scheduling): it is timed once.
        let csr = arc(g::symmetric_banded(3_000, 4));
        let tuner = PlanTuner::new(ExecCtx::new(2));
        let profiler = SimBoundsProfiler::new(Platform::knc());
        let tuned = tuner.optimize_profiled(&csr, &profiler);

        // What the tuner may measure: the guess, the baseline and the first
        // `top_k + 1` ranked candidates.
        let budget = TuneBudget::default();
        let opt = tuner.optimizer();
        let features = MatrixFeatures::extract(&csr, opt.llc_bytes);
        let profile = SimMatrixProfile::analyze(&csr, &opt.guard_platform);
        let mut candidates = vec![
            opt.optimize_profiled(&csr, &profiler).plan,
            OptimizationPlan::baseline(),
        ];
        candidates.extend(
            ranked_candidates(&profile, &opt.guard_platform, &features)
                .into_iter()
                .take(budget.top_k + 1)
                .map(|r| r.plan),
        );
        let mut operators: Vec<OptimizationPlan> = Vec::new();
        for plan in &candidates {
            let plan = plan.reduced();
            if !operators.contains(&plan) {
                operators.push(plan);
            }
        }
        assert!(
            operators.len() < candidates.len(),
            "the candidates must share operators for this test to bite"
        );
        assert_eq!(
            tuner.stats().timed_trials as usize,
            budget.batches * operators.len(),
            "one timed trial set per distinct operator {:?}",
            operators.iter().map(|p| p.label()).collect::<Vec<_>>()
        );
        assert_eq!(tuned.plan, tuned.plan.reduced());
        assert!(operators.contains(&tuned.plan));
    }

    /// Counts `measure` calls and implements only `measure` and `label`,
    /// as a tracing wrapper written before `measure_with_profile` does.
    struct MeasureOnly {
        sim: SimBoundsProfiler,
        measures: std::cell::Cell<usize>,
    }

    impl MeasureOnly {
        fn new() -> Self {
            Self {
                sim: SimBoundsProfiler::new(Platform::broadwell()),
                measures: Default::default(),
            }
        }
    }

    impl BoundsProfiler for MeasureOnly {
        fn measure(&self, csr: &Arc<CsrMatrix>) -> PerClassBounds {
            self.measures.set(self.measures.get() + 1);
            self.sim.measure(csr)
        }

        fn label(&self) -> String {
            self.sim.label()
        }
    }

    /// [`MeasureOnly`] plus a counted `measure_with_profile` that forwards
    /// to the wrapped sim profiler.
    struct Forwarding {
        inner: MeasureOnly,
        shared: std::cell::Cell<usize>,
    }

    impl BoundsProfiler for Forwarding {
        fn measure(&self, csr: &Arc<CsrMatrix>) -> PerClassBounds {
            self.inner.measure(csr)
        }

        fn label(&self) -> String {
            self.inner.label()
        }

        fn measure_with_profile(
            &self,
            csr: &Arc<CsrMatrix>,
            profile: &SimMatrixProfile,
            platform: &Platform,
        ) -> PerClassBounds {
            self.shared.set(self.shared.get() + 1);
            self.inner.sim.measure_with_profile(csr, profile, platform)
        }
    }

    #[test]
    fn a_cold_tune_profiles_the_matrix_once() {
        // The profiler models the guard platform, so the bounds can reuse
        // the tuner's one profile instead of analyzing again.
        let csr = arc(g::few_dense_rows(2_000, 3, 2, 5));
        let forwarding = Forwarding {
            inner: MeasureOnly::new(),
            shared: Default::default(),
        };
        let tuner = PlanTuner::new(ExecCtx::new(2)).with_budget(TuneBudget::minimal());
        assert_eq!(
            forwarding.inner.sim.platform(),
            &tuner.optimizer().guard_platform
        );
        let cold = tuner.optimize_profiled(&csr, &forwarding);
        assert_eq!(forwarding.inner.measures.get(), 0, "the profile was reused");
        assert_eq!(forwarding.shared.get(), 1);

        // A wrapper that only implements `measure` pays its own analysis
        // once, and the tuner decides exactly as it does with reuse.
        let measure_only = MeasureOnly::new();
        let tuner2 = PlanTuner::new(ExecCtx::new(2)).with_budget(TuneBudget::minimal());
        let cold2 = tuner2.optimize_profiled(&csr, &measure_only);
        assert_eq!(measure_only.measures.get(), 1);
        assert!(cold.bounds.is_some());
        assert_eq!(cold2.bounds, cold.bounds);
        let opt = tuner.optimizer();
        let features = MatrixFeatures::extract(&csr, opt.llc_bytes);
        let decide =
            |p: &dyn BoundsProfiler| opt.decide_profiled(&csr, p, &features, &OnceCell::new());
        assert_eq!(decide(&forwarding), decide(&measure_only));

        // A warm hit inspects only the fingerprint: no profiler call at all.
        let calls = |f: &Forwarding| (f.inner.measures.get(), f.shared.get());
        let before = calls(&forwarding);
        let warm = tuner.optimize_profiled(&csr, &forwarding);
        assert_eq!(warm.outcome, TuneOutcome::CacheHit);
        assert_eq!(calls(&forwarding), before);
        let before = measure_only.measures.get();
        let warm2 = tuner2.optimize_profiled(&csr, &measure_only);
        assert_eq!(warm2.outcome, TuneOutcome::CacheHit);
        assert_eq!(measure_only.measures.get(), before);
    }

    #[test]
    fn stats_split_the_set_up_time() {
        let csr = arc(g::banded(3_000, 4));
        let tuner = PlanTuner::new(ExecCtx::new(2));
        let profiler = SimBoundsProfiler::new(Platform::broadwell());
        tuner.optimize_profiled(&csr, &profiler);
        let cold = tuner.stats();
        assert!(cold.inspect_time > Duration::ZERO);
        assert!(cold.build_time > Duration::ZERO);
        assert!(cold.apply_time > Duration::ZERO);

        // A hit fingerprints and builds, but times no apply.
        tuner.optimize_profiled(&csr, &profiler);
        let warm = tuner.stats();
        assert!(warm.inspect_time > cold.inspect_time);
        assert!(warm.build_time > cold.build_time);
        assert_eq!(warm.apply_time, cold.apply_time);
    }

    #[test]
    fn cached_plans_replay_reduced() {
        // A cached entry may name knobs its operator ignores: it still
        // parses and builds, and the hit reports the reduced plan.
        use crate::pool::Optimization::*;
        let csr = arc(g::banded(3000, 4));
        let profiler = SimBoundsProfiler::new(Platform::knc());
        let tuner = PlanTuner::new(ExecCtx::new(2));
        let key = MatrixFingerprint::from_features(&MatrixFeatures::extract(
            &csr,
            tuner.optimizer().llc_bytes,
        ))
        .key();
        for opts in [vec![Prefetch, Vectorize], vec![CompressVectorize]] {
            tuner.cache.borrow_mut().insert(PlanCacheEntry {
                fingerprint: key.clone(),
                optimizations: opts,
                inner: InnerLoop::Unrolled4,
                decompose_threshold: None,
                measured: MeasuredCosts {
                    setup_spmv: 1.0,
                    apply_secs: 1e-5,
                    baseline_secs: 2e-5,
                    gflops: 1.0,
                },
            });
            let hit = tuner.optimize_profiled(&csr, &profiler);
            assert_eq!(hit.outcome, TuneOutcome::CacheHit);
            assert_eq!(hit.plan.label(), "vectorize");
            assert!(
                hit.kernel.name().starts_with("sell-c"),
                "{}",
                hit.kernel.name()
            );
        }
        assert_eq!(tuner.stats().timed_trials, 0);
    }

    #[test]
    fn warm_cache_skips_measurement_entirely() {
        let csr = arc(g::banded(3000, 4));
        let ctx = ExecCtx::new(2);
        let tuner = PlanTuner::new(ctx);
        let profiler = SimBoundsProfiler::new(Platform::knc());

        let first = tuner.optimize_profiled(&csr, &profiler);
        let trials_after_cold = tuner.stats().timed_trials;
        assert!(trials_after_cold > 0);

        let second = tuner.optimize_profiled(&csr, &profiler);
        let s = tuner.stats();
        assert_eq!(s.hits, 1, "second optimize must hit the cache");
        assert_eq!(
            s.timed_trials, trials_after_cold,
            "warm path must run zero timed trials"
        );
        assert_eq!(second.outcome, TuneOutcome::CacheHit);
        assert_eq!(second.plan.label(), first.plan.label());
        assert_eq!(second.measured, first.measured);
    }

    #[test]
    fn requirements_are_honored_even_on_cache_hits() {
        let csr = arc(g::few_dense_rows(1500, 3, 2, 5));
        let ctx = ExecCtx::new(2);
        let tuner = PlanTuner::new(ctx);
        let profiler = SimBoundsProfiler::new(Platform::knc());

        // Seed the cache through the forward-only path, then demand the
        // full application space: the served operator must satisfy it
        // whether the cache hit survives or the cold path reruns.
        tuner.optimize_profiled(&csr, &profiler);
        let full = tuner.optimize_profiled_for(&csr, &profiler, &OpRequirements::full());
        let caps = full.kernel.capabilities();
        assert!(caps.transpose && caps.multi_vec);

        let x: Vec<f64> = (0..1500).map(|i| 0.5 + (i as f64 * 0.02).sin()).collect();
        let mut got = vec![f64::NAN; 1500];
        full.kernel.apply(Apply::Trans, &x, &mut got);
        let mut want = vec![0.0; 1500];
        SerialCsr::new(csr.clone()).apply(Apply::Trans, &x, &mut want);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn measured_amortization_uses_real_numbers() {
        let csr = arc(g::few_dense_rows(2000, 3, 2, 5));
        let tuner = PlanTuner::new(ExecCtx::new(2));
        let profiler = SimBoundsProfiler::new(Platform::knc());
        let tuned = tuner.optimize_profiled(&csr, &profiler);
        let m = tuned.measured.unwrap();
        match tuned.amortization_iters() {
            // Faster than baseline: iterations = measured setup seconds
            // over the measured per-apply gain.
            Some(iters) => {
                let expect = (m.setup_spmv * m.baseline_secs) / (m.baseline_secs - m.apply_secs);
                assert!((iters - expect).abs() < 1e-12 * expect.abs().max(1.0));
            }
            // Not faster than baseline: must report "never amortizes".
            None => assert!(m.apply_secs >= m.baseline_secs),
        }
        assert_eq!(tuned.measured_setup_spmv(), Some(m.setup_spmv));
    }

    #[test]
    fn feature_guided_path_tunes_too() {
        use sparseopt_classifier::{Bottleneck, LabeledMatrix};
        use sparseopt_matrix::FeatureSet;
        use sparseopt_ml::TreeParams;
        // Tiny two-concept corpus: banded → MB, random → ML. The tuner only
        // needs *a* classifier decision; quality is tested elsewhere.
        let mut samples = Vec::new();
        for k in 0..4u64 {
            let m = CsrMatrix::from_coo(&g::banded(2000 + k as usize * 400, 1 + k as usize % 3));
            samples.push(LabeledMatrix {
                name: format!("band{k}"),
                features: MatrixFeatures::extract(&m, 1 << 25),
                classes: ClassSet::from_classes(&[Bottleneck::Mb]),
            });
            let m = CsrMatrix::from_coo(&g::random_uniform(2000 + k as usize * 400, 6, k));
            samples.push(LabeledMatrix {
                name: format!("rand{k}"),
                features: MatrixFeatures::extract(&m, 1 << 25),
                classes: ClassSet::from_classes(&[Bottleneck::Ml]),
            });
        }
        let clf = FeatureGuidedClassifier::train(
            &samples,
            FeatureSet::LinearInNnz,
            TreeParams::default(),
        );

        let csr = arc(g::banded(2500, 3));
        let tuner = PlanTuner::new(ExecCtx::new(2));
        let a = tuner.optimize_feature_guided(&csr, &clf);
        let b = tuner.optimize_feature_guided(&csr, &clf);
        assert_eq!(tuner.stats().hits, 1);
        assert_eq!(b.outcome, TuneOutcome::CacheHit);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn persistent_cache_warms_a_second_tuner_instance() {
        let path = std::env::temp_dir().join(format!(
            "sparseopt-tuner-cross-instance-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let csr = arc(g::banded(3000, 4));
        let profiler = SimBoundsProfiler::new(Platform::knc());

        {
            let (cache, warn) = PlanCache::at_path(&path);
            assert!(warn.is_none());
            let tuner = PlanTuner::with_cache(ExecCtx::new(2), cache);
            tuner.optimize_profiled(&csr, &profiler);
            assert_eq!(tuner.stats().misses, 1);
        }

        // A brand-new tuner (standing in for a second process) sees the
        // persisted winner and serves it without any measurement.
        let (cache, warn) = PlanCache::at_path(&path);
        assert!(warn.is_none(), "{warn:?}");
        let tuner = PlanTuner::with_cache(ExecCtx::new(2), cache);
        let tuned = tuner.optimize_profiled(&csr, &profiler);
        let s = tuner.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
        assert_eq!(s.timed_trials, 0);
        assert_eq!(tuned.outcome, TuneOutcome::CacheHit);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_cache_degrades_to_cold_tuning() {
        let path = std::env::temp_dir().join(format!(
            "sparseopt-tuner-corrupt-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "{\"schema\": 1, \"entries\": [ garbage").unwrap();
        let (cache, warn) = PlanCache::at_path(&path);
        assert!(warn.is_some(), "corrupt file must warn");
        let tuner = PlanTuner::with_cache(ExecCtx::new(2), cache);
        let csr = arc(g::banded(2000, 3));
        let profiler = SimBoundsProfiler::new(Platform::knc());
        let tuned = tuner.optimize_profiled(&csr, &profiler);
        assert_ne!(tuned.outcome, TuneOutcome::CacheHit);
        assert_eq!(tuner.stats().misses, 1);
        // ...and the bad file is healed by the insert.
        let (cache, warn) = PlanCache::at_path(&path);
        assert!(warn.is_none(), "rewritten cache must parse: {warn:?}");
        assert_eq!(cache.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
