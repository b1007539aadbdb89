//! Regenerates **Table V** of the paper: "Minimum number of solver
//! iterations required to amortize the autotuning runtime overhead of
//! different optimizers on KNL".
//!
//! For every suite matrix the per-SpMV times of MKL and of each optimizer's
//! selected kernel are modeled on KNL; each optimizer's preprocessing time
//! (classification, format conversion, JIT, empirical trials) is charged per
//! the cost model in `sparseopt_optimizer::amortization`; the minimum
//! iteration count follows `N = t_pre / (t_MKL − t_opt)`.
//!
//! Usage: `cargo run --release -p sparseopt-bench --bin table5`

use sparseopt_bench::report::Table;
use sparseopt_bench::train_feature_classifier;
use sparseopt_matrix::{FeatureSet, MatrixFeatures};
use sparseopt_ml::TreeParams;
use sparseopt_optimizer::{
    amortization_iters, plan_conversion_cost_spmv, single_and_pair_plans, single_plans, summarize,
    OptimizationPlan, OptimizerKind, SimOptimizerStudy,
};
use sparseopt_sim::{simulate, Platform};

fn main() {
    let platform = Platform::knl();
    eprintln!(
        "[table5] training feature-guided classifier on {} ...",
        platform.name
    );
    let clf = train_feature_classifier(&platform, FeatureSet::LinearInNnz, TreeParams::default());
    let study = SimOptimizerStudy::new(platform.clone());
    let llc = platform.total_cache_bytes();
    let suite = sparseopt_matrix::paper_suite();

    // Per-kind per-matrix amortization counts.
    let mut iters: std::collections::HashMap<OptimizerKind, Vec<Option<f64>>> = OptimizerKind::ALL
        .iter()
        .map(|&k| (k, Vec::new()))
        .collect();

    for m in &suite {
        let eff_llc = ((llc as f64 / m.scale) as usize).max(1);
        let features = MatrixFeatures::extract(&m.csr, eff_llc);
        let profile = study
            .profiler()
            .profile_scaled(&m.csr, m.scale, m.locality_scale());
        let e = study.evaluate_scaled(&m.csr, &features, m.scale, m.locality_scale(), Some(&clf));
        let nnz2 = 2.0 * m.csr.nnz() as f64;

        let secs_of = |gflops: f64| nnz2 / (gflops.max(1e-9) * 1e9);
        let t_mkl = secs_of(e.mkl);
        let t_base = secs_of(e.baseline);

        // Best empirical plans for the trivial optimizers.
        let best_of = |plans: &[OptimizationPlan]| -> (f64, f64) {
            // Returns (t_opt, summed conversion cost of every trialed plan).
            let mut best = t_base;
            let mut conv = 0.0;
            for p in plans {
                conv += plan_conversion_cost_spmv(p);
                let g = simulate(&profile, &platform, &p.to_sim_config(), 1).gflops;
                best = best.min(secs_of(g));
            }
            (best, conv)
        };
        let singles = single_plans(&features);
        let pairs = single_and_pair_plans(&features);
        let (t_single, conv_single) = best_of(&singles);
        let (t_pairs, conv_pairs) = best_of(&pairs);

        let t_feat = e.feat.map(secs_of).unwrap_or(t_base);
        let t_prof = secs_of(e.prof);
        let t_ie = secs_of(e.mkl_ie);

        let feat_plan = OptimizationPlan::from_classes(
            e.classes_feature.unwrap_or(e.classes_profile),
            &features,
        );

        for kind in OptimizerKind::ALL {
            let (t_opt, selected) = match kind {
                OptimizerKind::TrivialSingle => (t_single, e.oracle_plan.clone()),
                OptimizerKind::TrivialCombined => (t_pairs, e.oracle_plan.clone()),
                OptimizerKind::ProfileGuided => (t_prof, e.prof_plan.clone()),
                OptimizerKind::FeatureGuided => (t_feat, feat_plan.clone()),
                OptimizerKind::InspectorExecutor => (t_ie, OptimizationPlan::baseline()),
            };
            let t_pre = kind.preprocessing_spmv_equiv(&selected, conv_single, conv_pairs) * t_base;
            iters
                .get_mut(&kind)
                .expect("all kinds present")
                .push(amortization_iters(t_pre, t_mkl, t_opt));
        }
    }

    let mut table = Table::new(vec![
        "optimizer",
        "N_iters,best",
        "N_iters,avg",
        "N_iters,worst",
        "never",
    ]);
    for kind in OptimizerKind::ALL {
        let row = summarize(kind.label(), &iters[&kind]);
        let f = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{:.0}", v.ceil())
            }
        };
        table.row(vec![
            row.label.to_string(),
            f(row.best),
            f(row.avg),
            f(row.worst),
            row.never.to_string(),
        ]);
    }

    println!(
        "== Table V: minimum solver iterations to amortize optimizer overhead ({} model) ==\n",
        platform.name
    );
    print!("{}", table.render());
    println!(
        "\n'never' counts matrices where the optimizer is not faster than MKL \
         (overhead can never amortize)."
    );
    println!(
        "(paper, KNL: trivial-single 455/910/8016; trivial-combined 1992/3782/37111; \
         profile 145/267/3145; feature 27/60/567; MKL IE 28/336/1229)"
    );
}
