//! The tuning service end to end: classifier one-shot → budgeted empirical
//! search → cached winner.
//!
//! For a few structurally different matrices this example measures the
//! guarded classifier plan (what `AdaptiveOptimizer` ships in one shot),
//! lets the `PlanTuner` spend its SpMV-equivalent budget searching the
//! sim-ranked candidates on the *real* machine, and then asks again — the
//! second request hits the plan cache and serves the tuned kernel with zero
//! timed trials. Measured setup times feed the paper's Table V amortization
//! formula, replacing the fixed per-plan charges. The tuner's counters end
//! the run, with where its time went: inspecting matrices, building
//! operators and timing applies.
//!
//! Run with: `cargo run --release --example plan_tuning`

use sparseopt::matrix::generators as g;
use sparseopt::optimizer::plan_setup_cost_spmv;
use sparseopt::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn gflops_of(op: &dyn SparseLinOp) -> f64 {
    let (nrows, ncols) = op.shape();
    let x: Vec<f64> = (0..ncols).map(|i| 0.5 + (i as f64 * 0.11).sin()).collect();
    let mut y = vec![0.0; nrows];
    op.spmv(&x, &mut y); // warm up
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..10 {
            op.spmv(&x, &mut y);
        }
        best = best.min(t.elapsed().as_secs_f64() / 10.0);
    }
    std::hint::black_box(&y);
    gflops(op.flops(1), best)
}

fn main() {
    let suite: Vec<(&str, Arc<CsrMatrix>)> = vec![
        (
            "poisson2d-96",
            Arc::new(CsrMatrix::from_coo(&g::poisson2d(96, 96))),
        ),
        (
            "powerlaw-hub-8k",
            Arc::new(CsrMatrix::from_coo(&g::power_law_hub(8192, 2, 11))),
        ),
        (
            "banded-20k",
            Arc::new(CsrMatrix::from_coo(&g::banded(20_000, 4))),
        ),
    ];

    let ctx = ExecCtx::host();
    let optimizer = AdaptiveOptimizer::new(ctx.clone());
    let tuner = PlanTuner::new(ctx.clone()); // in-memory cache for the demo
    let profiler = SimBoundsProfiler::new(Platform::broadwell());

    println!("plan tuning on {} thread(s)\n", ctx.nthreads());
    for (name, csr) in &suite {
        // Stage 1: the classifier's guarded one-shot plan.
        let one_shot = optimizer.optimize_profiled(csr, &profiler);
        let one_shot_gf = gflops_of(one_shot.kernel.as_ref());

        // Stages 2+3: budgeted search, promotion, cache write.
        let tuned = tuner.optimize_profiled(csr, &profiler);
        let tuned_gf = gflops_of(tuned.kernel.as_ref());

        println!("=== {name} ({} nnz) ===", csr.nnz());
        println!(
            "  one-shot  [{:<24}] {:>6.3} Gflop/s",
            one_shot.plan.label(),
            one_shot_gf
        );
        println!(
            "  tuned     [{:<24}] {:>6.3} Gflop/s  ({:+.1}%, {:?})",
            tuned.plan.label(),
            tuned_gf,
            100.0 * (tuned_gf / one_shot_gf - 1.0),
            tuned.outcome,
        );
        if let Some(m) = tuned.measured {
            println!(
                "  measured: setup {:.1} SpMV-equiv (Table V model would charge {:.1}), \
                 amortizes after {} iterations",
                m.setup_spmv,
                plan_setup_cost_spmv(&tuned.plan, None),
                match tuned.amortization_iters() {
                    Some(n) => format!("{:.0}", n.ceil()),
                    None => "∞ (plan is not faster than scalar baseline)".to_string(),
                }
            );
        }

        // The service is warm now: same fingerprint, instant answer.
        let before = tuner.stats().timed_trials;
        let warm = tuner.optimize_profiled(csr, &profiler);
        assert_eq!(warm.outcome, TuneOutcome::CacheHit);
        assert_eq!(tuner.stats().timed_trials, before);
        println!(
            "  warm re-request: cache hit under fingerprint {} (0 new timed trials)\n",
            warm.fingerprint.key()
        );
    }

    let s = tuner.stats();
    println!(
        "tuner counters: {} hit(s), {} miss(es), {} promotion(s), {} timed trial(s)",
        s.hits, s.misses, s.promotions, s.timed_trials
    );
    println!(
        "tuner time: inspecting {:.1} ms, building {:.1} ms, timed applies {:.1} ms \
         (the budget charges builds and applies, not inspection)",
        s.inspect_time.as_secs_f64() * 1e3,
        s.build_time.as_secs_f64() * 1e3,
        s.apply_time.as_secs_f64() * 1e3
    );
    println!(
        "(persistent use: PlanTuner::open_default() keys winners under {} — \
         delete the file or set SPARSEOPT_PLAN_CACHE to relocate it)",
        PlanCache::default_path().display()
    );
}
