//! The optimization pool — Table II of the paper, extended with the
//! merge-path nonzero split.
//!
//! | class | optimization |
//! |---|---|
//! | MB | symmetric (SSS) storage *or* column-index delta compression, + vectorization |
//! | ML | software prefetching on `x` |
//! | IMB | merge-path nonzero split, matrix decomposition, *or* OpenMP-style auto scheduling |
//! | CMP | SELL-C-σ conversion + vectorized chunk kernels |
//!
//! When several bottlenecks are detected the optimizations are applied
//! jointly. The IMB subcategory choice extends Section III-E: a row heavy
//! enough that *no* whole-row distribution can balance it (its share of all
//! nonzeros exceeds [`MERGE_ROW_SHARE`]) or a heavy-tailed row-length
//! variance (`nnz_sd` beyond [`MERGE_SD_SKEW`]`·nnz_avg`) ⇒ merge-path
//! nonzero split; highly uneven row lengths below that (`nnz_max` vs
//! `nnz_avg`) ⇒ decomposition; computational unevenness ⇒ auto scheduling.
//!
//! The MB subcategory choice is the symmetric extension: an **exactly
//! symmetric** matrix (`features.is_symmetric`) takes the SSS triangle
//! split — each stored off-diagonal element is streamed once and used twice,
//! halving the matrix line traffic where delta compression only shaves the
//! index stream — and an asymmetric one keeps delta compression.
//!
//! The simulator prices every member, but the host builds one operator per
//! format family: CSR, merge-path, decomposed CSR and SELL-C-σ. Neither MB
//! storage change has a host kernel (a delta kernel and an SSS kernel never
//! came within 5% of the per-matrix winner on the evaluation suite), so
//! `compress+vec` and `sym-compress` build SELL-C-σ, the vectorization half
//! of each remedy. [`OptimizationPlan::reduced`] is the one place that
//! decides which operator a plan builds.

use sparseopt_classifier::{Bottleneck, ClassSet};
use sparseopt_core::prelude::*;
use sparseopt_core::CsrKernelConfig;
use sparseopt_matrix::MatrixFeatures;
use sparseopt_sim::{SimFormat, SimKernelConfig};
use std::sync::Arc;

/// An individual optimization from the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Optimization {
    /// Delta-compress column indices + vectorize (MB).
    CompressVectorize,
    /// Symmetric (SSS) storage — lower triangle + diagonal only — +
    /// vectorize (MB, symmetric matrices): the other classic traffic
    /// halver, cutting the value stream too, not just the index stream.
    SymCompress,
    /// Software prefetching on `x` (ML).
    Prefetch,
    /// Split out long rows (IMB, uneven row lengths).
    Decompose,
    /// Merge-path nonzero split (IMB, dominant rows / heavy-tailed
    /// variance): balance *within* rows, no format conversion.
    MergeSplit,
    /// Delegate scheduling to the runtime heuristic (IMB, uneven regions).
    AutoSchedule,
    /// Vectorize via SELL-C-σ conversion (CMP): rows sorted by length
    /// within σ windows and packed into C-row chunks whose slot-major
    /// layout feeds vector lanes with stride-1 value/index streams. This
    /// replaced the historical "unroll + vectorize the CSR inner loop"
    /// remediation, whose per-row remainder/masking cost made blind
    /// vectorization *slower* than scalar on short-row matrices (paper
    /// Fig. 1 — and our own bench trajectory, where `csr-simd` sat at
    /// 0.6–0.75× of the scalar baseline on every suite matrix).
    Vectorize,
}

impl Optimization {
    /// True for the members whose host half is vectorization: they resolve
    /// the plan's inner loop and, absent a partitioning change, build SELL.
    fn vectorizes(self) -> bool {
        matches!(
            self,
            Optimization::CompressVectorize | Optimization::SymCompress | Optimization::Vectorize
        )
    }

    /// All pool members: the paper's "total of 5" plus the merge-path
    /// nonzero split and the symmetric-storage compression.
    pub const ALL: [Optimization; 7] = [
        Optimization::CompressVectorize,
        Optimization::SymCompress,
        Optimization::Prefetch,
        Optimization::Decompose,
        Optimization::MergeSplit,
        Optimization::AutoSchedule,
        Optimization::Vectorize,
    ];

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            Optimization::CompressVectorize => "compress+vec",
            Optimization::SymCompress => "sym-compress",
            Optimization::Prefetch => "prefetch",
            Optimization::Decompose => "decompose",
            Optimization::MergeSplit => "merge-split",
            Optimization::AutoSchedule => "auto-sched",
            Optimization::Vectorize => "vectorize",
        }
    }

    /// Inverse of [`Self::label`] — used by the persistent plan cache to
    /// round-trip serialized plans. `None` for unknown labels, so a
    /// hand-edited cache entry is rejected rather than misread.
    pub fn parse_label(label: &str) -> Option<Optimization> {
        Optimization::ALL.into_iter().find(|o| o.label() == label)
    }

    /// The class this optimization addresses (Table II row).
    pub fn target_class(self) -> Bottleneck {
        match self {
            Optimization::CompressVectorize | Optimization::SymCompress => Bottleneck::Mb,
            Optimization::Prefetch => Bottleneck::Ml,
            Optimization::Decompose | Optimization::MergeSplit | Optimization::AutoSchedule => {
                Bottleneck::Imb
            }
            Optimization::Vectorize => Bottleneck::Cmp,
        }
    }
}

/// Row-length skew factor above which the IMB optimization decomposes rather
/// than reschedules (`nnz_max > LONG_ROW_SKEW · nnz_avg`).
pub const LONG_ROW_SKEW: f64 = 16.0;

/// Share of all nonzeros a single row must hold before the IMB remediation
/// is the merge-path nonzero split: above this no whole-row quota (for any
/// realistic thread count) can contain the row, so balance must come from
/// splitting *inside* it.
pub const MERGE_ROW_SHARE: f64 = 0.25;

/// Row-length standard deviation factor (`nnz_sd > MERGE_SD_SKEW · nnz_avg`)
/// marking a heavy-tailed distribution: many medium-long rows fragment every
/// whole-row quota, which the nonzero split absorbs without the format
/// conversion a decomposition pays.
pub const MERGE_SD_SKEW: f64 = 8.0;

/// Long-row threshold factor handed to the decomposition
/// (`threshold = LONG_ROW_FACTOR · nnz_avg`).
pub const LONG_ROW_FACTOR: f64 = 4.0;

/// Minimum average row length for the vectorized inner loop to pay off:
/// below this, gather setup and remainder handling dominate and the JIT
/// emits the unrolled scalar loop instead (the paper's codegen decides
/// per matrix; blind vectorization of short rows is a Fig. 1 slowdown).
pub const VECTOR_MIN_AVG_ROW: f64 = 8.0;

/// Maps a detected class set to the jointly applied optimizations,
/// using features to disambiguate the IMB subcategory.
pub fn select_optimizations(classes: ClassSet, features: &MatrixFeatures) -> Vec<Optimization> {
    let mut opts = Vec::new();
    if classes.contains(Bottleneck::Mb) {
        // MB subcategory: an exactly symmetric matrix halves the whole
        // matrix stream with the SSS triangle split; anything else can only
        // shave the index stream with delta compression.
        if features.is_symmetric > 0.5 {
            opts.push(Optimization::SymCompress);
        } else {
            opts.push(Optimization::CompressVectorize);
        }
    }
    if classes.contains(Bottleneck::Ml) {
        opts.push(Optimization::Prefetch);
    }
    if classes.contains(Bottleneck::Imb) {
        let avg = features.nnz_avg.max(1e-12);
        // Order matters: by the Bhatia–Davis inequality `sd² ≤ avg·max` for
        // non-negative row lengths, `sd > 8·avg` implies `max > 64·avg`, so
        // the heavy-tail check must come *before* the long-row check or it
        // could never fire.
        if features.nnz_max > MERGE_ROW_SHARE * features.nnz as f64 {
            // A single row dominates the whole matrix: split within it.
            opts.push(Optimization::MergeSplit);
        } else if features.nnz_sd > MERGE_SD_SKEW * avg {
            // Heavy tail: enough long-row mass to fragment every whole-row
            // quota — balance within rows, no format conversion.
            opts.push(Optimization::MergeSplit);
        } else if features.nnz_max > LONG_ROW_SKEW * avg {
            // A few isolated long rows over a regular background (extreme
            // max, modest overall dispersion): splitting just those rows
            // out is cheap and keeps the plain row kernel for the rest.
            opts.push(Optimization::Decompose);
        } else {
            opts.push(Optimization::AutoSchedule);
        }
    }
    if classes.contains(Bottleneck::Cmp) {
        opts.push(Optimization::Vectorize);
    }
    opts
}

/// What a consumer needs from the operator a plan builds. Solvers that
/// apply `Aᵀ` (BiCG, LSQR/CGNR) or whole multi-vectors (block Krylov) pass
/// their requirements through the adaptive optimizer, which validates the
/// built operator's [`OpCapabilities`] against them — the plan carries the
/// requirement, the operator carries the capability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OpRequirements {
    /// Transposed application will be called.
    pub transpose: bool,
    /// Multi-vector application will be called.
    pub multi_vec: bool,
}

impl OpRequirements {
    /// Forward single-vector consumers (CG, BiCGSTAB, GMRES).
    pub const fn spmv() -> Self {
        Self {
            transpose: false,
            multi_vec: false,
        }
    }

    /// The full application space (transpose-consuming block solvers).
    pub const fn full() -> Self {
        Self {
            transpose: true,
            multi_vec: true,
        }
    }

    /// The capability record an operator must satisfy.
    pub fn as_capabilities(&self) -> OpCapabilities {
        OpCapabilities {
            transpose: self.transpose,
            multi_vec: self.multi_vec,
        }
    }
}

/// The host operator families a plan can build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HostOperator {
    /// `ParallelCsr`.
    Csr,
    /// `MergeCsr`.
    Merge,
    /// `DecomposedKernel` at this long-row threshold.
    Decomposed(usize),
    /// `SellKernel`.
    Sell,
}

/// A concrete, jointly-applied optimization plan.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizationPlan {
    /// Detected classes this plan addresses.
    pub classes: ClassSet,
    /// The pool members applied.
    pub optimizations: Vec<Optimization>,
    /// Long-row threshold when decomposition participates.
    pub decompose_threshold: Option<usize>,
    /// Inner-loop flavor the "vectorization" optimizations resolve to for
    /// this matrix (SIMD for long rows, unrolled for short ones).
    pub inner: InnerLoop,
}

impl OptimizationPlan {
    /// Builds the plan for a class set (Table II composition rules).
    pub fn from_classes(classes: ClassSet, features: &MatrixFeatures) -> Self {
        let optimizations = select_optimizations(classes, features);
        Self::assemble(classes, optimizations, features)
    }

    /// Shared constructor: resolves the threshold and inner-loop choices.
    fn assemble(
        classes: ClassSet,
        optimizations: Vec<Optimization>,
        features: &MatrixFeatures,
    ) -> Self {
        let decompose_threshold = optimizations
            .contains(&Optimization::Decompose)
            .then(|| ((features.nnz_avg * LONG_ROW_FACTOR).ceil() as usize).max(8));
        let wants_vector = optimizations.iter().any(|o| o.vectorizes());
        let inner = if !wants_vector {
            InnerLoop::Scalar
        } else if features.nnz_avg >= VECTOR_MIN_AVG_ROW {
            InnerLoop::Simd
        } else {
            InnerLoop::Unrolled4
        };
        Self {
            classes,
            optimizations,
            decompose_threshold,
            inner,
        }
    }

    /// The explicit no-op plan (baseline kernel).
    pub fn baseline() -> Self {
        Self {
            classes: ClassSet::EMPTY,
            optimizations: Vec::new(),
            decompose_threshold: None,
            inner: InnerLoop::Scalar,
        }
    }

    /// Builds a plan for an explicit optimization combination (used by the
    /// trivial optimizers and the oracle sweep).
    pub fn from_optimizations(opts: &[Optimization], features: &MatrixFeatures) -> Self {
        let mut classes = ClassSet::EMPTY;
        for o in opts {
            classes.insert(o.target_class());
        }
        Self::assemble(classes, opts.to_vec(), features)
    }

    /// Reconstructs a plan from its serialized parts (the persistent plan
    /// cache's deserialization path). Classes are re-derived from each
    /// optimization's target class; the inner loop and decomposition
    /// threshold are taken verbatim — a cached winner must rebuild exactly
    /// the operator that was measured, not re-resolve against features.
    pub fn from_saved(
        optimizations: Vec<Optimization>,
        inner: InnerLoop,
        decompose_threshold: Option<usize>,
    ) -> Self {
        let mut classes = ClassSet::EMPTY;
        for o in &optimizations {
            classes.insert(o.target_class());
        }
        Self {
            classes,
            optimizations,
            decompose_threshold,
            inner,
        }
    }

    /// True when this plan changes nothing.
    pub fn is_noop(&self) -> bool {
        self.optimizations.is_empty()
    }

    /// The modeled kernel configuration for the simulator. Precedence among
    /// format/partitioning changes: merge split > decomposition > SSS >
    /// delta compression > SELL-C-σ. The model prices the two MB storage
    /// changes the host does not build (see [`Self::reduced`]), so the
    /// paper-figure binaries price the whole pool.
    pub fn to_sim_config(&self) -> SimKernelConfig {
        let has = |o: Optimization| self.optimizations.contains(&o);
        let format = if has(Optimization::MergeSplit) {
            SimFormat::MergeCsr
        } else if let Some(t) = self.decompose_threshold {
            SimFormat::Decomposed { threshold: t }
        } else if has(Optimization::SymCompress) {
            SimFormat::SymCsr
        } else if has(Optimization::CompressVectorize) {
            SimFormat::DeltaCsr
        } else if has(Optimization::Vectorize) {
            SimFormat::SellCs
        } else {
            SimFormat::Csr
        };
        let schedule = if has(Optimization::AutoSchedule) {
            Schedule::Auto
        } else {
            Schedule::StaticNnz
        };
        SimKernelConfig {
            format,
            inner: self.inner,
            prefetch: has(Optimization::Prefetch),
            schedule,
        }
    }

    /// The host operator family this plan builds. Precedence when
    /// format/partitioning changes collide: the merge-path nonzero split
    /// wins over decomposition (it subsumes the long-row remediation
    /// without a format conversion), which wins over SELL-C-σ.
    fn host_operator(&self) -> HostOperator {
        if self.optimizations.contains(&Optimization::MergeSplit) {
            HostOperator::Merge
        } else if let Some(threshold) = self.decompose_threshold {
            HostOperator::Decomposed(threshold)
        } else if self.optimizations.iter().any(|o| o.vectorizes()) {
            HostOperator::Sell
        } else {
            HostOperator::Csr
        }
    }

    /// The plan reduced to what the operator it builds honours — the one
    /// answer to "which operator does this plan build". Plans with equal
    /// reductions build the same operator, the reduction builds the same
    /// operator as the plan, and reducing twice changes nothing, so the
    /// tuner dedups candidates on it and records it: a recorded label
    /// always names the operator that runs.
    ///
    /// - SELL-C-σ (`vectorize`, and `compress+vec` / `sym-compress`, whose
    ///   host half is the vectorization) ignores prefetch, schedule and
    ///   inner loop: it reduces to `vectorize` with the SIMD inner loop
    ///   (the chunk kernel picks its own lane width).
    /// - Merge-path ignores schedule and decomposition.
    /// - Decomposed CSR and plain CSR honour prefetch, schedule and inner
    ///   loop; decomposed CSR keeps its threshold.
    ///
    /// Merge-path and decomposed plans list `vectorize` exactly when their
    /// row loop is not scalar, so the label tells the two apart. Classes
    /// are re-derived from the kept optimizations.
    pub fn reduced(&self) -> OptimizationPlan {
        let operator = self.host_operator();
        let has = |o: Optimization| self.optimizations.contains(&o);
        let vector_rows = self.inner != InnerLoop::Scalar;
        let keep = |o: Optimization| match (o, operator) {
            (Optimization::MergeSplit, HostOperator::Merge)
            | (Optimization::Decompose, HostOperator::Decomposed(_))
            | (Optimization::Vectorize, HostOperator::Sell) => true,
            (Optimization::Vectorize, HostOperator::Merge | HostOperator::Decomposed(_)) => {
                vector_rows
            }
            (Optimization::Prefetch, HostOperator::Sell) => false,
            (Optimization::Prefetch, _) => has(o),
            (Optimization::AutoSchedule, HostOperator::Csr | HostOperator::Decomposed(_)) => has(o),
            _ => false,
        };
        let optimizations = Optimization::ALL.into_iter().filter(|&o| keep(o)).collect();
        let (inner, threshold) = match operator {
            HostOperator::Sell => (InnerLoop::Simd, None),
            HostOperator::Decomposed(t) => (self.inner, Some(t)),
            HostOperator::Merge | HostOperator::Csr => (self.inner, None),
        };
        Self::from_saved(optimizations, inner, threshold)
    }

    /// Builds the real, runnable operator of the [reduced](Self::reduced)
    /// plan on the host. Every operator covers the full
    /// `{NoTrans, Trans} × {vec, multivec}` space, so the result serves any
    /// consumer.
    pub fn build_host_kernel(
        &self,
        csr: &Arc<CsrMatrix>,
        ctx: Arc<ExecCtx>,
    ) -> Box<dyn SparseLinOp> {
        let plan = self.reduced();
        let prefetch = plan.optimizations.contains(&Optimization::Prefetch);
        let schedule = if plan.optimizations.contains(&Optimization::AutoSchedule) {
            Schedule::Auto
        } else {
            Schedule::StaticNnz
        };
        match plan.host_operator() {
            // The nonzero split replaces scheduling entirely: its 2-D
            // partition is the schedule.
            HostOperator::Merge => Box::new(MergeCsr::new(csr.clone(), plan.inner, prefetch, ctx)),
            HostOperator::Decomposed(threshold) => {
                let dec = Arc::new(DecomposedCsrMatrix::from_csr(csr, threshold));
                Box::new(DecomposedKernel::new(
                    dec, plan.inner, prefetch, schedule, ctx,
                ))
            }
            HostOperator::Sell => {
                let sell = Arc::new(SellMatrix::from_csr(csr));
                Box::new(SellKernel::vectorized(sell, ctx))
            }
            HostOperator::Csr => {
                let cfg = CsrKernelConfig {
                    inner: plan.inner,
                    prefetch,
                    schedule,
                };
                Box::new(ParallelCsr::new(csr.clone(), cfg, ctx))
            }
        }
    }

    /// Display string, e.g. `prefetch+decompose`.
    pub fn label(&self) -> String {
        if self.is_noop() {
            return "baseline".into();
        }
        self.optimizations
            .iter()
            .map(|o| o.label())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// The pool members applicable to one matrix: `sym-compress` only enters a
/// sweep when the matrix is exactly symmetric — on anything else the
/// modeled SSS stream would price a storage the matrix cannot take, and
/// the oracle could pick a plan the model has no business ranking.
fn applicable_pool(features: &MatrixFeatures) -> Vec<Optimization> {
    Optimization::ALL
        .iter()
        .copied()
        .filter(|&o| o != Optimization::SymCompress || features.is_symmetric > 0.5)
        .collect()
}

/// All single-optimization plans (the paper's trivial-single sweep over the
/// 5 Table II members, widened by the merge split and — for symmetric
/// matrices — the SSS triangle split: 6 or 7 singles).
pub fn single_plans(features: &MatrixFeatures) -> Vec<OptimizationPlan> {
    applicable_pool(features)
        .into_iter()
        .map(|o| OptimizationPlan::from_optimizations(&[o], features))
        .collect()
}

/// All singles plus every pair — the paper's trivial-combined sweep
/// ("combinations of 2"): 6 + C(6,2) = 21 plans on a general matrix,
/// 7 + C(7,2) = 28 on a symmetric one.
pub fn single_and_pair_plans(features: &MatrixFeatures) -> Vec<OptimizationPlan> {
    let mut plans = single_plans(features);
    let all = applicable_pool(features);
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            // The IMB remediations are alternatives for the same class;
            // their pairs are still enumerated (the trivial optimizer is
            // blind) and resolve by the build precedence.
            plans.push(OptimizationPlan::from_optimizations(
                &[all[i], all[j]],
                features,
            ));
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_matrix::generators as g;

    const LLC: usize = 32 * 1024 * 1024;

    fn feats(csr: &CsrMatrix) -> MatrixFeatures {
        MatrixFeatures::extract(csr, LLC)
    }

    #[test]
    fn table2_mapping() {
        let m = CsrMatrix::from_coo(&g::banded(500, 2));
        let f = feats(&m);
        let one = |c| select_optimizations(ClassSet::from_classes(&[c]), &f);
        assert_eq!(one(Bottleneck::Mb), vec![Optimization::CompressVectorize]);
        assert_eq!(one(Bottleneck::Ml), vec![Optimization::Prefetch]);
        assert_eq!(one(Bottleneck::Cmp), vec![Optimization::Vectorize]);
        // Regular row lengths: IMB resolves to auto scheduling.
        assert_eq!(one(Bottleneck::Imb), vec![Optimization::AutoSchedule]);
    }

    #[test]
    fn imb_decomposes_on_isolated_long_rows() {
        // A few isolated long rows over a large regular background: extreme
        // max/avg (> LONG_ROW_SKEW) but modest dispersion (sd below
        // MERGE_SD_SKEW·avg) and a tiny nonzero share — the shape where
        // splitting out the handful of long rows stays the right call.
        let mut coo = sparseopt_core::coo::CooMatrix::new(5000, 5000);
        for i in 0..5000 {
            for j in 0..5 {
                coo.push(i, (i + j * 7) % 5000, 1.0);
            }
        }
        for r in [100usize, 2500, 4900] {
            for j in 0..300 {
                coo.push(r, (j * 13) % 5000, 0.5);
            }
        }
        let m = CsrMatrix::from_coo(&coo);
        let f = feats(&m);
        assert!(f.nnz_max > LONG_ROW_SKEW * f.nnz_avg);
        assert!(f.nnz_sd <= MERGE_SD_SKEW * f.nnz_avg, "sd {}", f.nnz_sd);
        let opts = select_optimizations(ClassSet::from_classes(&[Bottleneck::Imb]), &f);
        assert_eq!(opts, vec![Optimization::Decompose]);
        let plan = OptimizationPlan::from_classes(ClassSet::from_classes(&[Bottleneck::Imb]), &f);
        assert!(plan.decompose_threshold.is_some());
    }

    #[test]
    fn imb_merge_splits_on_heavy_tail_without_dominant_row() {
        // Many dense-ish rows, none holding MERGE_ROW_SHARE of the matrix:
        // the heavy-tail rule (sd > MERGE_SD_SKEW·avg) must pick the
        // nonzero split — this branch sits *before* the long-row check
        // because sd² ≤ avg·max makes it unreachable afterwards.
        let m = CsrMatrix::from_coo(&g::few_dense_rows(3000, 2, 3, 1));
        let f = feats(&m);
        assert!(f.nnz_max < MERGE_ROW_SHARE * f.nnz as f64 + 1.0);
        assert!(f.nnz_sd > MERGE_SD_SKEW * f.nnz_avg);
        let opts = select_optimizations(ClassSet::from_classes(&[Bottleneck::Imb]), &f);
        assert_eq!(opts, vec![Optimization::MergeSplit]);
    }

    #[test]
    fn joint_plan_composes() {
        let m = CsrMatrix::from_coo(&g::random_uniform(2000, 6, 3));
        let f = feats(&m);
        let classes = ClassSet::from_classes(&[Bottleneck::Ml, Bottleneck::Imb]);
        let plan = OptimizationPlan::from_classes(classes, &f);
        assert_eq!(plan.optimizations.len(), 2);
        let cfg = plan.to_sim_config();
        assert!(cfg.prefetch);
        assert_eq!(cfg.schedule, Schedule::Auto);
    }

    #[test]
    fn plan_counts_cover_the_widened_pool() {
        // Asymmetric matrix: the paper's 5 + merge split = 6 singles, plus
        // C(6,2) pairs (sym-compress is inapplicable and filtered out).
        let m = CsrMatrix::from_coo(&g::banded(300, 1));
        let f = feats(&m);
        assert_eq!(f.is_symmetric, 0.0);
        assert_eq!(single_plans(&f).len(), 6);
        assert_eq!(single_and_pair_plans(&f).len(), 21);

        // Symmetric matrix: the SSS triangle split joins the sweep.
        let m = CsrMatrix::from_coo(&g::poisson2d(20, 20));
        let f = feats(&m);
        assert_eq!(f.is_symmetric, 1.0);
        assert_eq!(single_plans(&f).len(), 7);
        assert_eq!(single_and_pair_plans(&f).len(), 28);
    }

    #[test]
    fn mb_picks_sym_compress_on_symmetric_matrices_only() {
        let mb = ClassSet::from_classes(&[Bottleneck::Mb]);

        let sym = CsrMatrix::from_coo(&g::symmetric_banded(2000, 3));
        let f = feats(&sym);
        let opts = select_optimizations(mb, &f);
        assert_eq!(opts, vec![Optimization::SymCompress]);
        let plan = OptimizationPlan::from_classes(mb, &f);
        assert_eq!(plan.to_sim_config().format, SimFormat::SymCsr);
        let csr = Arc::new(sym);
        let op = plan.build_host_kernel(&csr, ExecCtx::new(2));
        assert!(op.name().starts_with("sell-c"), "got {}", op.name());
        // And it computes the right product.
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut y = vec![f64::NAN; 2000];
        op.spmv(&x, &mut y);
        let mut want = vec![0.0; 2000];
        SerialCsr::new(csr.clone()).spmv(&x, &mut want);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }

        // Asymmetric MB matrix keeps delta compression.
        let gen = CsrMatrix::from_coo(&g::banded(2000, 3));
        let f = feats(&gen);
        assert_eq!(
            select_optimizations(mb, &f),
            vec![Optimization::CompressVectorize]
        );
    }

    #[test]
    fn imb_merge_splits_on_dominant_row() {
        // The power-law hub concentrates ≥ 30% of nonzeros in one row:
        // beyond any whole-row quota, so the pool must pick the nonzero
        // split over decomposition.
        let m = CsrMatrix::from_coo(&g::power_law_hub(4000, 2, 7));
        let f = feats(&m);
        assert!(
            f.nnz_max > MERGE_ROW_SHARE * f.nnz as f64,
            "hub must dominate: max {} of {}",
            f.nnz_max,
            f.nnz
        );
        let opts = select_optimizations(ClassSet::from_classes(&[Bottleneck::Imb]), &f);
        assert_eq!(opts, vec![Optimization::MergeSplit]);
        let plan = OptimizationPlan::from_classes(ClassSet::from_classes(&[Bottleneck::Imb]), &f);
        assert_eq!(plan.to_sim_config().format, SimFormat::MergeCsr);
        let op = plan.build_host_kernel(&Arc::new(m), ExecCtx::new(2));
        assert!(op.name().starts_with("csr-merge"), "got {}", op.name());
    }

    #[test]
    fn merge_split_takes_precedence_in_joint_plans() {
        let m = CsrMatrix::from_coo(&g::power_law_hub(2000, 2, 3));
        let f = feats(&m);
        let plan = OptimizationPlan::from_optimizations(
            &[Optimization::MergeSplit, Optimization::Decompose],
            &f,
        );
        assert_eq!(plan.to_sim_config().format, SimFormat::MergeCsr);
        let csr = Arc::new(m);
        let op = plan.build_host_kernel(&csr, ExecCtx::new(2));
        assert!(op.name().starts_with("csr-merge"), "got {}", op.name());
        // And the built operator still computes A·x correctly.
        let x: Vec<f64> = (0..csr.ncols()).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut y = vec![f64::NAN; csr.nrows()];
        op.spmv(&x, &mut y);
        let mut want = vec![0.0; csr.nrows()];
        SerialCsr::new(csr.clone()).spmv(&x, &mut want);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn cmp_plan_builds_the_sell_operator() {
        // The CMP remediation is the SELL-C-σ conversion now — both the
        // modeled format and the built host operator must say so.
        let m = CsrMatrix::from_coo(&g::random_uniform(2000, 12, 5));
        let f = feats(&m);
        let cmp = ClassSet::from_classes(&[Bottleneck::Cmp]);
        let plan = OptimizationPlan::from_classes(cmp, &f);
        assert_eq!(plan.optimizations, vec![Optimization::Vectorize]);
        assert_eq!(plan.to_sim_config().format, SimFormat::SellCs);
        let csr = Arc::new(m);
        let op = plan.build_host_kernel(&csr, ExecCtx::new(2));
        assert!(op.name().starts_with("sell-c"), "got {}", op.name());
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.07).sin()).collect();
        let mut y = vec![f64::NAN; 2000];
        op.spmv(&x, &mut y);
        let mut want = vec![0.0; 2000];
        SerialCsr::new(csr.clone()).spmv(&x, &mut want);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn host_kernels_all_compute_correctly() {
        // Every single and pair plan, plus the inner-loop downgrades the
        // no-loss guard tries, on an asymmetric matrix and on a symmetric
        // one (the only kind `sym-compress` is enumerated for).
        let ctx = ExecCtx::new(3);
        let asym = Arc::new(CsrMatrix::from_coo(&g::few_dense_rows(400, 3, 2, 9)));
        let sym = Arc::new(CsrMatrix::from_coo(&g::symmetric_banded(400, 3)));
        for (csr, symmetric) in [(asym, 0.0), (sym, 1.0)] {
            let f = feats(&csr);
            assert_eq!(f.is_symmetric, symmetric);
            let n = csr.nrows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            let mut reference = vec![0.0; n];
            SerialCsr::new(csr.clone()).spmv(&x, &mut reference);

            for plan in single_and_pair_plans(&f) {
                let mut variants = vec![plan.clone()];
                if plan.inner == InnerLoop::Simd {
                    variants.push(OptimizationPlan {
                        inner: InnerLoop::Unrolled4,
                        ..plan.clone()
                    });
                }
                if plan.inner != InnerLoop::Scalar {
                    variants.push(OptimizationPlan {
                        inner: InnerLoop::Scalar,
                        ..plan.clone()
                    });
                }
                for plan in variants {
                    let k = plan.build_host_kernel(&csr, ctx.clone());
                    let reduced = plan.reduced();
                    let what = format!("plan {} ({:?})", plan.label(), plan.inner);
                    assert_eq!(
                        reduced.build_host_kernel(&csr, ctx.clone()).name(),
                        k.name(),
                        "{what}"
                    );
                    assert_eq!(reduced.reduced(), reduced, "{what}");
                    // The reduced label names the operator that runs: its
                    // family, and every knob that operator shows.
                    let (name, has) = (k.name(), |o| reduced.optimizations.contains(&o));
                    let family = if has(Optimization::MergeSplit) {
                        "csr-merge["
                    } else if has(Optimization::Decompose) {
                        "csr-decomposed["
                    } else if has(Optimization::Vectorize) {
                        "sell-c"
                    } else {
                        "csr-parallel["
                    };
                    assert!(name.starts_with(family), "{what} built {name}");
                    if family == "sell-c" {
                        // SELL honours no prefetch, schedule or inner loop.
                        assert_eq!(reduced.label(), "vectorize", "{what}");
                    } else {
                        let vector_rows = !name.contains("[scalar");
                        assert_eq!(name.contains("prefetch"), has(Optimization::Prefetch));
                        if family == "csr-parallel[" {
                            assert_eq!(name.contains("auto"), has(Optimization::AutoSchedule));
                        } else {
                            assert_eq!(vector_rows, has(Optimization::Vectorize), "{what}");
                        }
                    }
                    let mut y = vec![f64::NAN; n];
                    k.spmv(&x, &mut y);
                    for (i, (a, b)) in y.iter().zip(&reference).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                            "row {i} mismatch under {what}"
                        );
                    }
                }
            }

            // Both MB remediations build SELL, the vectorization half of
            // each remedy — even a blind `sym-compress` on an asymmetric
            // matrix.
            for o in [
                Optimization::CompressVectorize,
                Optimization::SymCompress,
                Optimization::Vectorize,
            ] {
                let plan = OptimizationPlan::from_optimizations(&[o], &f);
                assert_eq!(plan.reduced().label(), "vectorize", "{}", o.label());
            }
        }
    }

    #[test]
    fn reduction_drops_what_the_operator_ignores() {
        let m = CsrMatrix::from_coo(&g::random_uniform(500, 12, 4));
        let f = feats(&m);
        let plan = |opts: &[Optimization]| OptimizationPlan::from_optimizations(opts, &f);
        use Optimization::*;
        // Merge-path ignores schedule and decomposition.
        let merge = plan(&[MergeSplit, AutoSchedule]).reduced();
        assert_eq!(merge, plan(&[MergeSplit]).reduced());
        assert_eq!(merge.label(), "merge-split");
        let merge = plan(&[Decompose, MergeSplit]).reduced();
        assert_eq!(merge.label(), "merge-split");
        assert_eq!(merge.decompose_threshold, None);
        // ...but keeps prefetch and a vectorized row loop.
        assert_eq!(
            plan(&[Prefetch, MergeSplit]).reduced().label(),
            "prefetch+merge-split"
        );
        let vec_merge = plan(&[MergeSplit, Vectorize]).reduced();
        assert_eq!(vec_merge.label(), "merge-split+vectorize");
        assert_eq!(vec_merge.inner, InnerLoop::Simd);
        // SELL keeps nothing but itself.
        for opts in [
            &[Prefetch, Vectorize][..],
            &[AutoSchedule, Vectorize],
            &[CompressVectorize, Prefetch],
            &[CompressVectorize, Vectorize],
        ] {
            assert_eq!(plan(opts).reduced(), plan(&[Vectorize]).reduced());
        }
        // Decomposition and CSR keep every knob they honour.
        let dec = plan(&[Prefetch, Decompose]).reduced();
        assert_eq!(dec.label(), "prefetch+decompose");
        assert_eq!(
            dec.decompose_threshold,
            plan(&[Decompose]).decompose_threshold
        );
        assert_eq!(
            plan(&[Prefetch, AutoSchedule]).reduced(),
            plan(&[Prefetch, AutoSchedule])
        );
        assert!(OptimizationPlan::baseline().reduced().is_noop());
    }

    #[test]
    fn labels_are_informative() {
        let m = CsrMatrix::from_coo(&g::banded(300, 1));
        let f = feats(&m);
        let plan = OptimizationPlan::from_optimizations(
            &[Optimization::Prefetch, Optimization::Vectorize],
            &f,
        );
        assert_eq!(plan.label(), "prefetch+vectorize");
        assert_eq!(OptimizationPlan::baseline().label(), "baseline");
    }
}
