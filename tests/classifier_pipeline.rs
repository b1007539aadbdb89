//! Integration tests of the full classification pipeline across crates:
//! bounds → profile-guided classes → labels → feature-guided training →
//! consistent predictions, on all three modeled platforms.

use sparseopt::classifier::LabeledMatrix;
use sparseopt::ml::TreeParams;
use sparseopt::prelude::*;
use std::sync::Arc;

fn arc(coo: CooMatrix) -> Arc<CsrMatrix> {
    Arc::new(CsrMatrix::from_coo(&coo))
}

/// Small deterministic corpus with structurally forced classes.
fn corpus() -> Vec<(String, Arc<CsrMatrix>)> {
    use sparseopt::matrix::generators as g;
    let mut out = Vec::new();
    for k in 0..6u64 {
        let n = 4000 + 1000 * k as usize;
        out.push((format!("band{k}"), arc(g::banded(n, 2 + (k % 3) as usize))));
        out.push((format!("rand{k}"), arc(g::random_uniform(n, 8, k))));
        out.push((
            format!("skew{k}"),
            arc(g::few_dense_rows(n, 2, 2 + (k % 3) as usize, k)),
        ));
        out.push((
            format!("stencil{k}"),
            arc(g::poisson2d(60 + 5 * k as usize, 60)),
        ));
    }
    out
}

#[test]
fn bounds_are_internally_consistent_on_all_platforms() {
    for platform in Platform::paper_platforms() {
        let profiler = SimBoundsProfiler::new(platform.clone());
        for (name, csr) in corpus() {
            let b = profiler.measure(&csr);
            assert!(
                b.p_csr > 0.0,
                "{}/{name}: P_CSR must be positive",
                platform.name
            );
            assert!(
                b.p_imb >= b.p_csr * 0.99,
                "{}/{name}: median-based bound below baseline",
                platform.name
            );
            assert!(
                b.p_peak >= b.p_mb * 0.99,
                "{}/{name}: peak must dominate the MB roof",
                platform.name
            );
            for (bound_name, v) in b.as_rows() {
                assert!(v.is_finite() && v > 0.0, "{bound_name} invalid for {name}");
            }
        }
    }
}

#[test]
fn profile_guided_classifies_structures_sensibly_on_knc() {
    let profiler = SimBoundsProfiler::new(Platform::knc());
    let classifier = ProfileGuidedClassifier::new();
    use sparseopt::matrix::generators as g;

    // Scale-free matrix with scattered hubs must show latency and/or
    // imbalance; a mega-row circuit must show imbalance; a scalar-bound
    // random matrix must be latency-bound.
    let skew = arc(g::few_dense_rows(20_000, 2, 4, 3));
    let c = classifier.classify(&profiler.measure(&skew));
    assert!(
        c.contains(Bottleneck::Imb),
        "mega rows must flag IMB, got {c}"
    );

    let rand = arc(g::random_uniform(20_000, 8, 5));
    let c = classifier.classify(&profiler.measure(&rand));
    assert!(
        c.contains(Bottleneck::Ml),
        "random access must flag ML, got {c}"
    );
}

#[test]
fn classes_differ_across_platforms_for_same_matrix() {
    // The paper's Section IV observation: "some matrices present different
    // or additional bottlenecks compared to KNC" — at least one corpus
    // matrix must be diagnosed differently on different platforms.
    let classifier = ProfileGuidedClassifier::new();
    let mut any_diff = false;
    for (_, csr) in corpus() {
        let mut sets = Vec::new();
        for platform in Platform::paper_platforms() {
            let profiler = SimBoundsProfiler::new(platform);
            sets.push(classifier.classify(&profiler.measure(&csr)));
        }
        if sets.windows(2).any(|w| w[0] != w[1]) {
            any_diff = true;
            break;
        }
    }
    assert!(any_diff, "bottlenecks must be architecture-dependent");
}

#[test]
fn feature_guided_agrees_with_profile_guided_on_training_data() {
    let platform = Platform::knc();
    let profiler = SimBoundsProfiler::new(platform);
    let pgc = ProfileGuidedClassifier::new();

    let samples: Vec<LabeledMatrix> = corpus()
        .into_iter()
        .map(|(name, csr)| LabeledMatrix {
            features: MatrixFeatures::extract(&csr, 30 * 1024 * 1024),
            classes: pgc.classify(&profiler.measure(&csr)),
            name,
        })
        .collect();

    let clf =
        FeatureGuidedClassifier::train(&samples, FeatureSet::LinearInNnz, TreeParams::default());
    let mut exact = 0usize;
    for s in &samples {
        if clf.classify(&s.features) == s.classes {
            exact += 1;
        }
    }
    // Training-set reconstruction should be near perfect for a deep tree.
    assert!(
        exact * 10 >= samples.len() * 9,
        "only {exact}/{} training samples reproduced",
        samples.len()
    );
}

#[test]
fn adaptive_optimizer_never_picks_a_catastrophic_plan() {
    // Performance stability (the paper's stated goal): on the KNC model the
    // adaptive plan must never fall below 80% of the baseline.
    let study = SimOptimizerStudy::new(Platform::knc());
    for (name, csr) in corpus() {
        let features = MatrixFeatures::extract(&csr, 30 * 1024 * 1024);
        let e = study.evaluate(&csr, &features, None);
        assert!(
            e.prof >= 0.8 * e.baseline,
            "{name}: prof {} fell below baseline {}",
            e.prof,
            e.baseline
        );
        assert!(e.oracle >= e.prof - 1e-9, "{name}: oracle must dominate");
    }
}

#[test]
fn imb_pool_proposes_merge_csr_for_power_law_hub() {
    // Acceptance shape: a power-law matrix whose hub row holds ≥ 30% of all
    // nonzeros. Whole-row remediation cannot balance it, so the IMB
    // optimization pool must propose the merge-path nonzero split — through
    // *both* classifier paths.
    use sparseopt::classifier::LabeledMatrix;
    use sparseopt::matrix::generators as g;
    use sparseopt::ml::TreeParams;

    let csr = arc(g::power_law_hub(4000, 2, 11));
    let hub = (0..csr.nrows()).map(|i| csr.row_nnz(i)).max().unwrap();
    assert!(
        hub as f64 >= 0.3 * csr.nnz() as f64,
        "hub row must hold ≥ 30% of nonzeros"
    );

    let profiler = SimBoundsProfiler::new(Platform::knc());
    let features = MatrixFeatures::extract(&csr, 30 * 1024 * 1024);
    let ctx = ExecCtx::new(2);

    // Profile-guided path: bounds → IMB → merge-split plan → MergeCsr op.
    let classes = ProfileGuidedClassifier::new().classify(&profiler.measure(&csr));
    assert!(classes.contains(Bottleneck::Imb), "got {classes}");
    let plan = OptimizationPlan::from_classes(classes, &features);
    assert!(
        plan.optimizations.contains(&Optimization::MergeSplit),
        "plan was {}",
        plan.label()
    );
    let op = plan.build_host_kernel(&csr, ctx.clone());
    assert!(op.name().starts_with("csr-merge"), "got {}", op.name());

    // Feature-guided path: train on a corpus containing hub matrices
    // (labeled by the profile-guided classifier), then the tree must carry
    // IMB — and therefore the same merge-split plan — to unseen features.
    let pgc = ProfileGuidedClassifier::new();
    let mut samples: Vec<LabeledMatrix> = corpus()
        .into_iter()
        .map(|(name, m)| LabeledMatrix {
            features: MatrixFeatures::extract(&m, 30 * 1024 * 1024),
            classes: pgc.classify(&profiler.measure(&m)),
            name,
        })
        .collect();
    for seed in 0..4u64 {
        let m = arc(g::power_law_hub(3000 + 500 * seed as usize, 2, seed));
        samples.push(LabeledMatrix {
            features: MatrixFeatures::extract(&m, 30 * 1024 * 1024),
            classes: pgc.classify(&profiler.measure(&m)),
            name: format!("hub{seed}"),
        });
    }
    let clf =
        FeatureGuidedClassifier::train(&samples, FeatureSet::LinearInNnz, TreeParams::default());
    let feat_classes = clf.classify(&features);
    assert!(
        feat_classes.contains(Bottleneck::Imb),
        "feature-guided classes: {feat_classes}"
    );
    let feat_plan = OptimizationPlan::from_classes(feat_classes, &features);
    assert!(
        feat_plan.optimizations.contains(&Optimization::MergeSplit),
        "feature-guided plan was {}",
        feat_plan.label()
    );
    let feat_op = feat_plan.build_host_kernel(&csr, ctx);
    assert!(feat_op.name().starts_with("csr-merge"));
}

#[test]
fn both_classifier_paths_propose_sym_compress_for_symmetric_banded_mb() {
    // Acceptance shape: a memory-resident, exactly symmetric banded matrix —
    // the canonical MB class member whose remediation should now be the SSS
    // triangle split (halved matrix stream) rather than delta compression —
    // proposed by *both* classifier paths.
    use sparseopt::classifier::LabeledMatrix;
    use sparseopt::matrix::generators as g;
    use sparseopt::ml::TreeParams;

    let csr = arc(g::symmetric_banded(150_000, 12));
    let features = MatrixFeatures::extract(&csr, 30 * 1024 * 1024);
    assert_eq!(features.is_symmetric, 1.0, "generator must be symmetric");

    let profiler = SimBoundsProfiler::new(Platform::knc());
    let ctx = ExecCtx::new(2);

    // Profile-guided path: bounds → MB → sym-compress plan, priced as SSS
    // by the model and built as SELL-C-σ (its vectorization half) on the
    // host.
    let classes = ProfileGuidedClassifier::new().classify(&profiler.measure(&csr));
    assert!(classes.contains(Bottleneck::Mb), "got {classes}");
    let plan = OptimizationPlan::from_classes(classes, &features);
    assert!(
        plan.optimizations.contains(&Optimization::SymCompress),
        "plan was {}",
        plan.label()
    );
    assert_eq!(
        plan.to_sim_config().format,
        sparseopt::sim::SimFormat::SymCsr
    );
    let op = plan.build_host_kernel(&csr, ctx.clone());
    assert!(op.name().starts_with("sell-c"), "got {}", op.name());
    assert_eq!(plan.reduced().label(), "vectorize");

    // Feature-guided path: train on the standard corpus plus large
    // profiler-labeled bands (the MB exemplars at this scale), then the tree
    // must carry MB — and therefore the same sym-compress plan — to the
    // acceptance matrix's features.
    let pgc = ProfileGuidedClassifier::new();
    let mut samples: Vec<LabeledMatrix> = corpus()
        .into_iter()
        .map(|(name, m)| LabeledMatrix {
            features: MatrixFeatures::extract(&m, 30 * 1024 * 1024),
            classes: pgc.classify(&profiler.measure(&m)),
            name,
        })
        .collect();
    for (i, n) in [60_000usize, 90_000, 120_000, 180_000]
        .into_iter()
        .enumerate()
    {
        let m = arc(g::symmetric_banded(n, 8 + 2 * i));
        samples.push(LabeledMatrix {
            features: MatrixFeatures::extract(&m, 30 * 1024 * 1024),
            classes: pgc.classify(&profiler.measure(&m)),
            name: format!("symband{i}"),
        });
    }
    let clf =
        FeatureGuidedClassifier::train(&samples, FeatureSet::LinearInNnz, TreeParams::default());
    let feat_classes = clf.classify(&features);
    assert!(
        feat_classes.contains(Bottleneck::Mb),
        "feature-guided classes: {feat_classes}"
    );
    let feat_plan = OptimizationPlan::from_classes(feat_classes, &features);
    assert!(
        feat_plan.optimizations.contains(&Optimization::SymCompress),
        "feature-guided plan was {}",
        feat_plan.label()
    );
    let feat_op = feat_plan.build_host_kernel(&csr, ctx);
    assert!(
        feat_op.name().starts_with("sell-c"),
        "got {}",
        feat_op.name()
    );
}

#[test]
fn both_classifier_paths_propose_sell_for_cmp_class_matrix() {
    // Acceptance shape: a cache-resident banded matrix with long regular
    // rows — the canonical CMP class member, whose remediation is now the
    // SELL-C-σ conversion (stride-1 vector lanes, no per-row remainder
    // cost) rather than blind CSR inner-loop vectorization — proposed by
    // *both* classifier paths, and *surviving* the sim-backed no-loss
    // guard that kills any plan modeled slower than scalar CSR.
    use sparseopt::classifier::LabeledMatrix;
    use sparseopt::matrix::generators as g;
    use sparseopt::ml::TreeParams;

    let csr = arc(g::banded(2000, 16));
    let features = MatrixFeatures::extract(&csr, 30 * 1024 * 1024);

    let platform = Platform::knc();
    let profiler = SimBoundsProfiler::new(platform.clone());
    let ctx = ExecCtx::new(2);

    // Profile-guided path: bounds → CMP → vectorize plan → SELL op.
    let classes = ProfileGuidedClassifier::new().classify(&profiler.measure(&csr));
    assert!(classes.contains(Bottleneck::Cmp), "got {classes}");
    let plan = OptimizationPlan::from_classes(classes, &features);
    assert!(
        plan.optimizations.contains(&Optimization::Vectorize),
        "plan was {}",
        plan.label()
    );
    assert_eq!(
        plan.to_sim_config().format,
        sparseopt::sim::SimFormat::SellCs
    );
    let op = plan.build_host_kernel(&csr, ctx.clone());
    assert!(op.name().starts_with("sell-c"), "got {}", op.name());

    // The no-loss guard must keep the SELL plan: the model ranks it above
    // scalar CSR on this compute-bound matrix, so no downgrade fires — and
    // by the guard's contract the shipped plan is never a modeled loss.
    let profile = profiler.profile_scaled(&csr, 1.0, 1.0);
    let (guarded, g) = sparseopt::optimizer::guard_plan(&profile, &platform, plan.clone());
    assert!(
        guarded.optimizations.contains(&Optimization::Vectorize),
        "guard must keep the SELL plan, kept {}",
        guarded.label()
    );
    let base = sparseopt::sim::simulate(
        &profile,
        &platform,
        &sparseopt::sim::SimKernelConfig::baseline(),
        1,
    )
    .gflops;
    assert!(
        g >= base,
        "guarded plan {g} must not lose to baseline {base}"
    );

    // Feature-guided path: train on the standard corpus plus
    // profiler-labeled CMP exemplars (cache-resident long-row bands), then
    // the tree must carry CMP — and the same SELL plan — to the acceptance
    // matrix's features.
    let pgc = ProfileGuidedClassifier::new();
    let mut samples: Vec<LabeledMatrix> = corpus()
        .into_iter()
        .map(|(name, m)| LabeledMatrix {
            features: MatrixFeatures::extract(&m, 30 * 1024 * 1024),
            classes: pgc.classify(&profiler.measure(&m)),
            name,
        })
        .collect();
    for (i, (n, band)) in [(1500usize, 12usize), (2500, 14), (3000, 18), (1800, 20)]
        .into_iter()
        .enumerate()
    {
        let m = arc(g::banded(n, band));
        samples.push(LabeledMatrix {
            features: MatrixFeatures::extract(&m, 30 * 1024 * 1024),
            classes: pgc.classify(&profiler.measure(&m)),
            name: format!("longband{i}"),
        });
    }
    let clf =
        FeatureGuidedClassifier::train(&samples, FeatureSet::LinearInNnz, TreeParams::default());
    let feat_classes = clf.classify(&features);
    assert!(
        feat_classes.contains(Bottleneck::Cmp),
        "feature-guided classes: {feat_classes}"
    );
    let feat_plan = OptimizationPlan::from_classes(feat_classes, &features);
    assert!(
        feat_plan.optimizations.contains(&Optimization::Vectorize),
        "feature-guided plan was {}",
        feat_plan.label()
    );
    let feat_op = feat_plan.build_host_kernel(&csr, ctx);
    assert!(
        feat_op.name().starts_with("sell-c"),
        "got {}",
        feat_op.name()
    );
}

#[test]
fn classification_is_deterministic() {
    let profiler = SimBoundsProfiler::new(Platform::knl());
    let classifier = ProfileGuidedClassifier::new();
    let csr = arc(sparseopt::matrix::generators::power_law(8000, 6, 0.9, 11));
    let a = classifier.classify(&profiler.measure(&csr));
    let b = classifier.classify(&profiler.measure(&csr));
    assert_eq!(a, b);
}

/// The out-of-core pinning test: shards of the degree-sorted power-law
/// streaming-suite member legitimately belong to different bottleneck
/// classes, so the per-shard planner must classify at least two of them
/// differently and plan each under its own fingerprint (the paper's
/// decomposed-class insight hoisted to container granularity). Both class
/// sets build SELL-C-σ on this member — SELL ignores the tail's auto
/// scheduling — so the formats the shards end up on are the tuner's
/// measured choice, not a fixed outcome this test can pin.
#[test]
fn per_shard_planner_diversifies_formats_on_streaming_suite() {
    use sparseopt::matrix::{shard::write_shard_file, streaming_suite, ShardStore};

    let member = &streaming_suite()[0];
    assert_eq!(member.name, "powerlaw-sorted-48k");
    let csr = &member.csr;
    let path = std::env::temp_dir().join(format!(
        "sparseopt-pipeline-shards-{}.shards",
        std::process::id()
    ));
    write_shard_file(&path, csr, csr.nrows() / 8).expect("write shards");
    let store = Arc::new(ShardStore::open(&path).expect("open"));
    std::fs::remove_file(&path).ok();

    // Deterministic layer first: the sim-profiled classifier alone (no
    // timed trials) must already tell the hub-heavy head shard from the
    // short-row tail.
    let profiler = SimBoundsProfiler::new(Platform::broadwell());
    let ctx = ExecCtx::new(1);
    let shard_classes: Vec<String> = (0..store.nshards())
        .map(|i| {
            let fragment = Arc::new(store.load(i).expect("load shard"));
            AdaptiveOptimizer::new(ctx.clone())
                .optimize_profiled_for(&fragment, &profiler, &OpRequirements::full())
                .classes
                .to_string()
        })
        .collect();
    let mut distinct = shard_classes.clone();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "classifier assigned one class set to every shard: {shard_classes:?}"
    );
    assert_ne!(
        shard_classes.first(),
        shard_classes.last(),
        "hub head shard and tail shard must classify differently"
    );

    // Full per-shard planner end-to-end: every shard is tuned under its
    // own fingerprint, every recorded label names the operator that runs,
    // and the assembled operator agrees with the in-memory reference.
    let tuner = PlanTuner::new(ExecCtx::new(2)).with_budget(TuneBudget::minimal());
    let tuned = tuner
        .optimize_sharded(store, &profiler, Platform::broadwell(), 2)
        .expect("tune sharded");
    assert!(
        tuner.cache_len() >= 2,
        "shards must be planned under distinct fingerprints"
    );
    for label in tuned.distinct_plan_labels() {
        assert!(
            label == "baseline" || label == "vectorize",
            "both class sets build CSR or SELL-C-σ here, got {label}"
        );
    }

    let reference = SerialCsr::new(csr.clone());
    let x: Vec<f64> = (0..csr.ncols())
        .map(|i| ((i * 7) % 13) as f64 - 6.0)
        .collect();
    let (mut got, mut want) = (vec![0.0; csr.nrows()], vec![0.0; csr.nrows()]);
    tuned.op.spmv(&x, &mut got);
    reference.spmv(&x, &mut want);
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0));
    }
}
