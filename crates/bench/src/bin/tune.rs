//! Hyperparameter grid search for the profile-guided classifier (Fig. 4):
//! "The values of T_ML and T_IMB ... have been tuned using grid search ...
//! We choose to maximize the average performance gain of the corresponding
//! optimizations on a large set of matrices."
//!
//! Sweeps `(T_ML, T_IMB)` over a grid, scoring each point by the mean
//! speedup of the resulting adaptive plans over the baseline across a
//! training subset, on the KNC model.
//!
//! Usage: `cargo run --release -p sparseopt-bench --bin tune [--platform knc|knl|bdw]`

use sparseopt_classifier::{ProfileGuidedClassifier, ProfileThresholds};
use sparseopt_matrix::MatrixFeatures;
use sparseopt_ml::{cartesian2, grid_search};
use sparseopt_optimizer::{OptimizationPlan, SimOptimizerStudy};
use sparseopt_sim::Platform;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let platform = match args
        .iter()
        .position(|a| a == "--platform")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("knl") => Platform::knl(),
        Some("bdw") | Some("broadwell") => Platform::broadwell(),
        _ => Platform::knc(),
    };
    let llc = platform.total_cache_bytes();

    // A manageable tuning subset: every 4th training matrix (52 of 210).
    eprintln!("[tune] generating tuning subset ...");
    let suite: Vec<_> = sparseopt_matrix::training_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .map(|(_, m)| m)
        .collect();

    let study = SimOptimizerStudy::new(platform.clone());
    // Precompute per-matrix profiles, features, bounds, and the baseline.
    eprintln!(
        "[tune] profiling {} matrices on {} ...",
        suite.len(),
        platform.name
    );
    let prepared: Vec<_> = suite
        .iter()
        .map(|m| {
            let profile = study
                .profiler()
                .profile_scaled(&m.csr, m.scale, m.locality_scale());
            let bounds = study.profiler().measure_profile(&profile, 1);
            let eff_llc = ((llc as f64 / m.scale) as usize).max(1);
            let features = MatrixFeatures::extract(&m.csr, eff_llc);
            let base = bounds.p_csr;
            (profile, bounds, features, base)
        })
        .collect();

    let grid = cartesian2(
        &(0..14).map(|i| 1.0 + i as f64 * 0.05).collect::<Vec<_>>(),
        &(0..14).map(|i| 1.0 + i as f64 * 0.04).collect::<Vec<_>>(),
    );
    eprintln!("[tune] grid of {} points ...", grid.len());

    let ((t_ml, t_imb), score) = grid_search(&grid, |&(t_ml, t_imb)| {
        let clf = ProfileGuidedClassifier::with_thresholds(ProfileThresholds {
            t_ml,
            t_imb,
            ..Default::default()
        });
        let mut sum = 0.0;
        for (profile, bounds, features, base) in &prepared {
            let classes = clf.classify(bounds);
            let plan = OptimizationPlan::from_classes(classes, features);
            let g = if plan.is_noop() {
                *base
            } else {
                study.plan_gflops(profile, &plan)
            };
            sum += g / base.max(1e-12);
        }
        sum / prepared.len() as f64
    });

    println!(
        "== Fig. 4 hyperparameter grid search ({} model) ==\n",
        platform.name
    );
    println!("best thresholds: T_ML = {t_ml:.2}, T_IMB = {t_imb:.2}");
    println!("mean adaptive speedup over baseline at optimum: {score:.3}x");
    println!("(paper's tuned values on its testbeds: T_ML = 1.25, T_IMB = 1.24)");
}
