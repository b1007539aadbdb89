//! The optimizers compared in the paper's evaluation (Fig. 7):
//!
//! * **MKL** — vendor-like generic CSR kernel: vectorized, row-count
//!   partitioning, zero preprocessing (substitute for `mkl_dcsrmv`).
//! * **MKL Inspector-Executor** — inspection pass that fixes the workload
//!   distribution (nnz-balanced) and vectorizes (substitute for
//!   `mkl_sparse_d_mv` after `mkl_sparse_optimize`).
//! * **baseline** — the paper's own scalar CSR with static nnz partitioning.
//! * **oracle** — exhaustively tries every plan (singles + pairs) and keeps
//!   the best.
//! * **prof** / **feat** — the adaptive optimizer driven by the
//!   profile-guided or feature-guided classifier.
//!
//! Everything is evaluated in two modes: *simulated* (modeled Table III
//! platform — regenerates the paper's figures) and *host* (real kernels on
//! this machine).

use crate::pool::{OpRequirements, OptimizationPlan};
use crate::rank::{rank_plans, ranked_candidates};
use sparseopt_classifier::{
    BoundsProfiler, ClassSet, FeatureGuidedClassifier, PerClassBounds, ProfileGuidedClassifier,
    SimBoundsProfiler,
};
use sparseopt_core::prelude::*;
use sparseopt_core::CsrKernelConfig;
use sparseopt_matrix::MatrixFeatures;
use sparseopt_sim::{simulate, Platform, SimFormat, SimKernelConfig, SimMatrixProfile};
use std::cell::OnceCell;
use std::sync::Arc;

/// Vendor-like CSR kernel configuration (MKL stand-in): static row-count
/// partitioning with a platform-dependent inner loop. On KNC and Broadwell
/// the legacy `mkl_dcsrmv` path is well vectorized; on KNL it is not — the
/// paper's own numbers imply this (the Inspector-Executor alone gains 4.89×
/// over MKL CSR there), so the KNL stand-in runs the scalar loop.
pub fn mkl_sim_config(platform: &Platform) -> SimKernelConfig {
    let inner = if platform.name == "KNL" {
        InnerLoop::Scalar
    } else {
        InnerLoop::Simd
    };
    SimKernelConfig {
        format: SimFormat::Csr,
        inner,
        prefetch: false,
        schedule: Schedule::StaticRows,
    }
}

/// Inspector-Executor stand-in: one inspection pass buys an nnz-balanced
/// partition, vectorization, and software prefetching (the inspector sees
/// the irregular access pattern) — but no decomposition, which is why the
/// paper's largest wins over IE are on imbalanced matrices.
pub fn inspector_executor_sim_config() -> SimKernelConfig {
    SimKernelConfig {
        format: SimFormat::Csr,
        inner: InnerLoop::Simd,
        prefetch: true,
        schedule: Schedule::StaticNnz,
    }
}

/// Host-side equivalents of the two vendor baselines.
pub fn mkl_host_kernel(csr: &Arc<CsrMatrix>, ctx: Arc<ExecCtx>) -> Box<dyn SparseLinOp> {
    let cfg = CsrKernelConfig {
        inner: InnerLoop::Simd,
        prefetch: false,
        schedule: Schedule::StaticRows,
    };
    Box::new(ParallelCsr::new(csr.clone(), cfg, ctx))
}

/// Host-side Inspector-Executor stand-in.
pub fn inspector_executor_host_kernel(
    csr: &Arc<CsrMatrix>,
    ctx: Arc<ExecCtx>,
) -> Box<dyn SparseLinOp> {
    let cfg = CsrKernelConfig {
        inner: InnerLoop::Simd,
        prefetch: false,
        schedule: Schedule::StaticNnz,
    };
    Box::new(ParallelCsr::new(csr.clone(), cfg, ctx))
}

/// Sim-backed no-loss guard on a proposed plan: simulates the plan, its
/// inner-loop downgrades (`Simd → Unrolled4 → Scalar` — the historical
/// `delta+Simd` pairing loses to its own unrolled variant on short rows),
/// and the scalar-CSR baseline, and returns whichever the model ranks
/// fastest with its modeled Gflop/s. The returned plan is therefore never
/// modeled slower than the baseline kernel: a "vectorize" recommendation
/// the model says loses to scalar is downgraded instead of shipped.
pub fn guard_plan(
    profile: &SimMatrixProfile,
    platform: &Platform,
    plan: OptimizationPlan,
) -> (OptimizationPlan, f64) {
    // Baseline first: the shared ranking is stable, so on a modeled tie the
    // baseline wins and the guard never ships a plan that merely equals it.
    let mut candidates = vec![OptimizationPlan::baseline(), plan.clone()];
    if plan.inner == InnerLoop::Simd {
        let mut p = plan.clone();
        p.inner = InnerLoop::Unrolled4;
        candidates.push(p);
    }
    if plan.inner != InnerLoop::Scalar {
        let mut p = plan;
        p.inner = InnerLoop::Scalar;
        candidates.push(p);
    }
    let best = rank_plans(profile, platform, candidates)
        .into_iter()
        .next()
        .expect("guard candidate list is never empty");
    (best.plan, best.modeled_gflops)
}

/// Everything Fig. 7 plots for one matrix on one platform, in Gflop/s.
#[derive(Clone, Debug)]
pub struct MatrixEvaluation {
    /// Per-class bounds backing the profile-guided decision.
    pub bounds: PerClassBounds,
    /// Classes from the profile-guided classifier (the figure's annotations).
    pub classes_profile: ClassSet,
    /// Classes from the feature-guided classifier, when one is supplied.
    pub classes_feature: Option<ClassSet>,
    /// Vendor CSR baseline.
    pub mkl: f64,
    /// Vendor autotuned baseline.
    pub mkl_ie: f64,
    /// The paper's own baseline CSR.
    pub baseline: f64,
    /// Best plan found by exhaustive search, with its performance.
    pub oracle: f64,
    /// The oracle's winning plan.
    pub oracle_plan: OptimizationPlan,
    /// Profile-guided adaptive optimizer.
    pub prof: f64,
    /// Profile-guided plan.
    pub prof_plan: OptimizationPlan,
    /// Feature-guided adaptive optimizer (when a classifier is supplied).
    pub feat: Option<f64>,
}

/// Simulated optimizer study on one modeled platform.
pub struct SimOptimizerStudy {
    profiler: SimBoundsProfiler,
    classifier: ProfileGuidedClassifier,
}

impl SimOptimizerStudy {
    /// Creates a study for `platform` with the paper's tuned thresholds.
    pub fn new(platform: Platform) -> Self {
        Self {
            profiler: SimBoundsProfiler::new(platform),
            classifier: ProfileGuidedClassifier::new(),
        }
    }

    /// Overrides the profile-guided thresholds (used by the tuning harness).
    pub fn with_classifier(mut self, classifier: ProfileGuidedClassifier) -> Self {
        self.classifier = classifier;
        self
    }

    /// The modeled platform.
    pub fn platform(&self) -> &Platform {
        self.profiler.platform()
    }

    /// The bounds profiler (shared with labeling pipelines).
    pub fn profiler(&self) -> &SimBoundsProfiler {
        &self.profiler
    }

    /// Gflop/s of an arbitrary plan on this platform.
    pub fn plan_gflops(&self, profile: &SimMatrixProfile, plan: &OptimizationPlan) -> f64 {
        simulate(profile, self.platform(), &plan.to_sim_config(), 1).gflops
    }

    /// Full Fig. 7 evaluation of one matrix at scale 1.
    pub fn evaluate(
        &self,
        csr: &Arc<CsrMatrix>,
        features: &MatrixFeatures,
        feature_classifier: Option<&FeatureGuidedClassifier>,
    ) -> MatrixEvaluation {
        self.evaluate_scaled(csr, features, 1.0, 1.0, feature_classifier)
    }

    /// Full Fig. 7 evaluation of one matrix standing in for an original
    /// `scale`× larger (see `SimMatrixProfile::analyze_scaled` for the two
    /// scale factors).
    pub fn evaluate_scaled(
        &self,
        csr: &Arc<CsrMatrix>,
        features: &MatrixFeatures,
        scale: f64,
        locality_scale: f64,
        feature_classifier: Option<&FeatureGuidedClassifier>,
    ) -> MatrixEvaluation {
        let profile = self.profiler.profile_scaled(csr, scale, locality_scale);
        let bounds = self.profiler.measure_profile(&profile, 1);
        let platform = self.platform();

        let baseline = simulate(&profile, platform, &SimKernelConfig::baseline(), 1).gflops;
        let mkl = simulate(&profile, platform, &mkl_sim_config(platform), 1).gflops;
        let mkl_ie = simulate(&profile, platform, &inspector_executor_sim_config(), 1).gflops;

        // Oracle: the top of the shared candidate ranking (baseline +
        // deduplicated singles + pairs — the same list the tuner draws its
        // measurement candidates from).
        let top = ranked_candidates(&profile, platform, features)
            .into_iter()
            .next()
            .expect("candidate list is never empty");
        let (oracle, oracle_plan) = (top.modeled_gflops, top.plan);

        // Profile-guided adaptive plan, run through the sim-backed no-loss
        // guard: the recorded plan is whatever the guard actually keeps.
        let classes_profile = self.classifier.classify(&bounds);
        let raw = OptimizationPlan::from_classes(classes_profile, features);
        let (prof_plan, prof) = if raw.is_noop() {
            (raw, baseline)
        } else {
            guard_plan(&profile, platform, raw)
        };

        // Feature-guided adaptive plan, guarded the same way.
        let (classes_feature, feat) = match feature_classifier {
            None => (None, None),
            Some(clf) => {
                let classes = clf.classify(features);
                let plan = OptimizationPlan::from_classes(classes, features);
                let g = if plan.is_noop() {
                    baseline
                } else {
                    guard_plan(&profile, platform, plan).1
                };
                (Some(classes), Some(g))
            }
        };

        MatrixEvaluation {
            bounds,
            classes_profile,
            classes_feature,
            mkl,
            mkl_ie,
            baseline,
            oracle,
            oracle_plan,
            prof,
            prof_plan,
            feat,
        }
    }
}

/// Host-side adaptive optimizer: profiles (or feature-classifies) a matrix
/// on the actual machine and returns a runnable optimized kernel.
///
/// Each entry point runs two steps, which [`crate::PlanTuner`] also takes
/// one at a time: a decision (classify, derive the plan, guard it, reduce
/// it) and a build, which falls back to the baseline when the plan's
/// operator does not meet the consumer's requirements.
pub struct AdaptiveOptimizer {
    ctx: Arc<ExecCtx>,
    classifier: ProfileGuidedClassifier,
    /// LLC size used for the `size` feature, bytes.
    pub llc_bytes: usize,
    /// Modeled platform backing the sim no-loss guard ([`guard_plan`])
    /// applied to every classified plan before it is built: a plan the
    /// model ranks slower than scalar CSR on this platform is downgraded
    /// rather than shipped. Defaults to the commodity Broadwell model, the
    /// closest stand-in for a typical host.
    pub guard_platform: Platform,
}

/// Outcome of a host-side optimization.
pub struct OptimizedKernel {
    /// The runnable operator (full `{NoTrans, Trans} × {vec, multivec}`
    /// application space; query `kernel.capabilities()` for what the built
    /// operator supports — it was validated against the consumer's
    /// [`OpRequirements`] at build time).
    pub kernel: Box<dyn SparseLinOp>,
    /// Detected classes.
    pub classes: ClassSet,
    /// The applied plan, reduced to what its operator honours
    /// ([`OptimizationPlan::reduced`]).
    pub plan: OptimizationPlan,
    /// The bounds that drove the decision (profile-guided path only).
    pub bounds: Option<PerClassBounds>,
}

/// What the adaptive optimizer decided for one matrix, before any operator
/// is built.
#[derive(Debug, PartialEq)]
pub(crate) struct PlanDecision {
    classes: ClassSet,
    /// The class-derived plan after the no-loss guard, reduced to what its
    /// operator honours.
    plan: OptimizationPlan,
    /// The bounds that drove the decision (profile-guided path only).
    bounds: Option<PerClassBounds>,
}

impl AdaptiveOptimizer {
    /// Creates an optimizer bound to an execution context.
    pub fn new(ctx: Arc<ExecCtx>) -> Self {
        Self {
            ctx,
            classifier: ProfileGuidedClassifier::new(),
            llc_bytes: 32 * 1024 * 1024,
            guard_platform: Platform::broadwell(),
        }
    }

    /// The execution context kernels are built against (shared with the
    /// tuning layer, which builds and measures candidate operators).
    pub fn ctx(&self) -> &Arc<ExecCtx> {
        &self.ctx
    }

    /// Profile-guided optimization: measures the per-class bounds with the
    /// supplied profiler, classifies, and builds the optimized operator for
    /// a forward single-vector consumer.
    pub fn optimize_profiled(
        &self,
        csr: &Arc<CsrMatrix>,
        profiler: &dyn BoundsProfiler,
    ) -> OptimizedKernel {
        self.optimize_profiled_for(csr, profiler, &OpRequirements::spmv())
    }

    /// Profile-guided optimization for a consumer with explicit operator
    /// requirements — the entry point transpose-consuming solvers (BiCG,
    /// LSQR/CGNR) and block-Krylov drivers use. The returned operator is
    /// guaranteed to satisfy `reqs`; if the classified plan's operator ever
    /// could not, the *recorded* plan falls back to baseline along with the
    /// kernel, so `OptimizedKernel::plan` always describes the operator
    /// that actually runs.
    pub fn optimize_profiled_for(
        &self,
        csr: &Arc<CsrMatrix>,
        profiler: &dyn BoundsProfiler,
        reqs: &OpRequirements,
    ) -> OptimizedKernel {
        let features = MatrixFeatures::extract(csr, self.llc_bytes);
        let decision = self.decide_profiled(csr, profiler, &features, &OnceCell::new());
        self.build(csr, decision, reqs)
    }

    /// Feature-guided optimization: extracts features on the fly and queries
    /// a pre-trained classifier. This is the paper's lightweight path.
    pub fn optimize_feature_guided(
        &self,
        csr: &Arc<CsrMatrix>,
        clf: &FeatureGuidedClassifier,
    ) -> OptimizedKernel {
        self.optimize_feature_guided_for(csr, clf, &OpRequirements::spmv())
    }

    /// Feature-guided optimization with explicit operator requirements
    /// (same plan-and-kernel fallback contract as
    /// [`Self::optimize_profiled_for`]).
    pub fn optimize_feature_guided_for(
        &self,
        csr: &Arc<CsrMatrix>,
        clf: &FeatureGuidedClassifier,
        reqs: &OpRequirements,
    ) -> OptimizedKernel {
        let features = MatrixFeatures::extract(csr, self.llc_bytes);
        let decision = self.decide_feature_guided(csr, clf, &features, &OnceCell::new());
        self.build(csr, decision, reqs)
    }

    /// `csr`'s model profile on [`Self::guard_platform`], analyzed into
    /// `profile` on first use. The decision steps take the cell so that
    /// the bounds, the guard and a caller's own ranking share one analysis.
    pub(crate) fn guard_profile<'a>(
        &self,
        csr: &CsrMatrix,
        profile: &'a OnceCell<SimMatrixProfile>,
    ) -> &'a SimMatrixProfile {
        profile.get_or_init(|| SimMatrixProfile::analyze(csr, &self.guard_platform))
    }

    /// The profile-guided decision: bounds from `profiler` (handed the
    /// guard profile, which a sim profiler of the guard platform reuses),
    /// classes, and the guarded, reduced plan.
    pub(crate) fn decide_profiled(
        &self,
        csr: &Arc<CsrMatrix>,
        profiler: &dyn BoundsProfiler,
        features: &MatrixFeatures,
        profile: &OnceCell<SimMatrixProfile>,
    ) -> PlanDecision {
        let bounds = profiler.measure_with_profile(
            csr,
            self.guard_profile(csr, profile),
            &self.guard_platform,
        );
        let classes = self.classifier.classify(&bounds);
        self.decide(csr, classes, Some(bounds), features, profile)
    }

    /// The feature-guided decision: classes from `clf`, and the guarded,
    /// reduced plan. The guard profile is analyzed only when the plan is not
    /// the baseline.
    pub(crate) fn decide_feature_guided(
        &self,
        csr: &CsrMatrix,
        clf: &FeatureGuidedClassifier,
        features: &MatrixFeatures,
        profile: &OnceCell<SimMatrixProfile>,
    ) -> PlanDecision {
        self.decide(csr, clf.classify(features), None, features, profile)
    }

    fn decide(
        &self,
        csr: &CsrMatrix,
        classes: ClassSet,
        bounds: Option<PerClassBounds>,
        features: &MatrixFeatures,
        profile: &OnceCell<SimMatrixProfile>,
    ) -> PlanDecision {
        let plan = OptimizationPlan::from_classes(classes, features);
        // No-loss guard: never build a plan the model ranks below scalar
        // CSR (the pre-SELL "vectorize" recommendation did exactly that).
        let plan = if plan.is_noop() {
            plan
        } else {
            let profile = self.guard_profile(csr, profile);
            guard_plan(profile, &self.guard_platform, plan).0.reduced()
        };
        PlanDecision {
            classes,
            plan,
            bounds,
        }
    }

    /// Builds the decided plan's operator, falling back to the baseline
    /// plan + operator *together* when the requirements cannot be met
    /// (baseline CSR always covers the full application space).
    pub(crate) fn build(
        &self,
        csr: &Arc<CsrMatrix>,
        decision: PlanDecision,
        reqs: &OpRequirements,
    ) -> OptimizedKernel {
        let PlanDecision {
            classes,
            plan,
            bounds,
        } = decision;
        let kernel = plan.build_host_kernel(csr, self.ctx.clone());
        let (plan, kernel) = if kernel.capabilities().satisfies(&reqs.as_capabilities()) {
            (plan, kernel)
        } else {
            let baseline = OptimizationPlan::baseline();
            let kernel = baseline.build_host_kernel(csr, self.ctx.clone());
            (baseline, kernel)
        };
        OptimizedKernel {
            kernel,
            classes,
            plan,
            bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_matrix::generators as g;

    fn arc(m: sparseopt_core::coo::CooMatrix) -> Arc<CsrMatrix> {
        Arc::new(CsrMatrix::from_coo(&m))
    }

    #[test]
    fn oracle_dominates_everything_simulated() {
        let study = SimOptimizerStudy::new(Platform::knc());
        for csr in [
            arc(g::banded(20_000, 3)),
            arc(g::random_uniform(15_000, 8, 1)),
            arc(g::few_dense_rows(15_000, 2, 3, 2)),
        ] {
            let f = MatrixFeatures::extract(&csr, 30 * 1024 * 1024);
            let e = study.evaluate(&csr, &f, None);
            assert!(e.oracle >= e.baseline - 1e-9);
            assert!(
                e.oracle >= e.prof - 1e-9,
                "oracle {} < prof {}",
                e.oracle,
                e.prof
            );
        }
    }

    #[test]
    fn profile_guided_beats_mkl_on_skewed_matrix() {
        let study = SimOptimizerStudy::new(Platform::knc());
        let csr = arc(g::few_dense_rows(20_000, 2, 4, 3));
        let f = MatrixFeatures::extract(&csr, 30 * 1024 * 1024);
        let e = study.evaluate(&csr, &f, None);
        assert!(
            e.prof > 1.5 * e.mkl,
            "adaptive must beat vendor CSR on imbalance: {} vs {}",
            e.prof,
            e.mkl
        );
        assert!(
            !e.classes_profile.is_empty(),
            "classes: {}",
            e.classes_profile
        );
    }

    #[test]
    fn ie_beats_mkl_on_skew_but_loses_to_adaptive() {
        let study = SimOptimizerStudy::new(Platform::knl());
        let csr = arc(g::few_dense_rows(20_000, 2, 4, 4));
        let f = MatrixFeatures::extract(&csr, 34 * 1024 * 1024);
        let e = study.evaluate(&csr, &f, None);
        assert!(
            e.mkl_ie >= e.mkl * 0.95,
            "IE should not trail MKL meaningfully"
        );
        assert!(e.prof >= e.mkl_ie, "adaptive {} vs IE {}", e.prof, e.mkl_ie);
    }

    #[test]
    fn host_adaptive_optimizer_produces_correct_kernel() {
        let csr = arc(g::few_dense_rows(500, 3, 2, 5));
        let ctx = ExecCtx::new(2);
        let opt = AdaptiveOptimizer::new(ctx.clone());
        // Use the simulated profiler for decision making (deterministic) but
        // build and run the real kernel.
        let profiler = SimBoundsProfiler::new(Platform::knc());
        let result = opt.optimize_profiled(&csr, &profiler);

        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.02).cos()).collect();
        let mut y = vec![0.0; 500];
        result.kernel.spmv(&x, &mut y);
        let mut expect = vec![0.0; 500];
        SerialCsr::new(csr.clone()).spmv(&x, &mut expect);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
        assert!(result.bounds.is_some());
    }

    #[test]
    fn transpose_capable_plans_apply_the_transpose_correctly() {
        // A skewed matrix drives the optimizer to a non-CSR format
        // (decomposition); the requirements-aware path must still hand back
        // an operator whose Aᵀ·x matches the serial reference.
        let csr = arc(g::few_dense_rows(600, 3, 2, 5));
        let ctx = ExecCtx::new(3);
        let opt = AdaptiveOptimizer::new(ctx.clone());
        let profiler = SimBoundsProfiler::new(Platform::knc());
        let result = opt.optimize_profiled_for(&csr, &profiler, &OpRequirements::full());
        let caps = result.kernel.capabilities();
        assert!(caps.transpose && caps.multi_vec);

        let x: Vec<f64> = (0..600).map(|i| (i as f64 * 0.03).sin() + 0.5).collect();
        let mut got = vec![f64::NAN; 600];
        result.kernel.apply(Apply::Trans, &x, &mut got);
        let mut want = vec![0.0; 600];
        SerialCsr::new(csr.clone()).apply(Apply::Trans, &x, &mut want);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "row {i}: {a} vs {b} under plan {}",
                result.plan.label()
            );
        }
    }

    #[test]
    fn guard_never_returns_a_modeled_loss() {
        use crate::pool::Optimization;
        let platform = Platform::knl();
        let study = SimOptimizerStudy::new(platform.clone());
        // Very short irregular rows: the historical `delta+Simd` pathology,
        // where the per-row vector remainder cost swamps 3-element rows.
        let csr = arc(g::random_uniform(10_000, 3, 8));
        let f = MatrixFeatures::extract(&csr, 30 * 1024 * 1024);
        let profile = study.profiler().profile_scaled(&csr, 1.0, 1.0);
        let mut plan = OptimizationPlan::from_optimizations(&[Optimization::CompressVectorize], &f);
        plan.inner = InnerLoop::Simd;
        let base = simulate(&profile, &platform, &SimKernelConfig::baseline(), 1).gflops;
        let raw = simulate(&profile, &platform, &plan.to_sim_config(), 1).gflops;
        let (guarded, g) = guard_plan(&profile, &platform, plan);
        assert!(
            g >= base,
            "guard must never hand back a modeled loss: {g} vs baseline {base}"
        );
        if raw < base {
            assert_ne!(
                guarded.inner,
                InnerLoop::Simd,
                "a losing Simd pairing must be downgraded"
            );
        }
    }

    #[test]
    fn vendor_baselines_are_distinct_configs() {
        for p in Platform::paper_platforms() {
            assert_ne!(mkl_sim_config(&p), inspector_executor_sim_config());
            assert_eq!(mkl_sim_config(&p).schedule, Schedule::StaticRows);
        }
        assert_eq!(
            inspector_executor_sim_config().schedule,
            Schedule::StaticNnz
        );
        // The KNL legacy path is unvectorized (see mkl_sim_config docs).
        assert_eq!(mkl_sim_config(&Platform::knl()).inner, InnerLoop::Scalar);
        assert_eq!(mkl_sim_config(&Platform::knc()).inner, InnerLoop::Simd);
    }
}
