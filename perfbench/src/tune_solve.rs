//! `tune-solve`: closed loop, one caller. Three SPD matrices sized onto the
//! DRAM plateau are cold-tuned, preconditioned and solved with CG.

use crate::trace::{TimedOp, TimedPrecond, TimedProfiler};
use crate::util::{geomean, median, median_secs, Digest, Rng};
use crate::{Cx, Outcome};
use sparseopt_classifier::{BoundsProfiler, SimBoundsProfiler};
use sparseopt_core::prelude::*;
use sparseopt_matrix::{generators, MatrixFingerprint};
use sparseopt_optimizer::{PlanCache, PlanTuner, TuneOutcome, TunedKernel, TunerStatsSnapshot};
use sparseopt_sim::Platform;
use sparseopt_solver::{cg, Ic0Precond, JacobiPrecond, Preconditioner, SolverOptions};
use std::sync::Arc;
use std::time::Instant;

/// The members, in processing order.
pub const MEMBERS: [&str; 3] = ["poisson3d", "symband", "sympowerlaw"];

/// Cold set-ups per member per run; `setup_s` is their median and
/// `optimizer.plan_flips` compares their chosen plans.
const SETUP_REPS: usize = 2;

/// CG stopping tolerance (relative residual).
const TOL: f64 = 1e-8;

/// The independently recomputed residual may exceed CG's recurrence
/// residual by rounding drift; beyond this factor the solve counts as wrong.
const RESIDUAL_SLACK: f64 = 10.0;

/// Applies per median when timing a kernel alone.
const SPMV_REPS: usize = 15;

pub struct Member {
    pub name: &'static str,
    pub csr: Arc<CsrMatrix>,
    pub b: Vec<f64>,
}

/// Generates one member from the seed. Every member holds at least 64 MiB
/// of CSR, far beyond the per-core L2. The structure is fixed, so every
/// seed poses the same problem; a seeded diagonal shift, which keeps the
/// matrix SPD, and the right-hand side are what the seed changes.
pub fn generate(name: &'static str, seed: u64) -> Member {
    let stream = MEMBERS.iter().position(|m| *m == name).expect("member") as u64;
    let mut rng = Rng::new(seed, 100 + stream);
    let mut coo = match name {
        "poisson3d" => generators::poisson3d(91, 91, 91),
        "symband" => generators::symmetric_banded(600_000, 4),
        _ => generators::symmetric_power_law(400_000, 6, 11),
    };
    for i in 0..coo.nrows() {
        coo.push(i, i, rng.range(0.0, 0.05));
    }
    let csr = Arc::new(CsrMatrix::from_coo(&coo));
    let b = rng.vector(csr.nrows());
    Member { name, csr, b }
}

/// Inputs digest of a seed, generating one member at a time.
pub fn inputs_digest(seed: u64) -> u64 {
    let mut d = Digest::default();
    for name in MEMBERS {
        let m = generate(name, seed);
        d.csr(&m.csr);
        d.f64s(&m.b);
    }
    d.finish()
}

struct SetUp {
    tuned: TunedKernel,
    precond: Box<dyn Preconditioner>,
    tune_s: f64,
    precond_s: f64,
    stats: TunerStatsSnapshot,
}

fn set_up(cx: &Cx, m: &Member, rep: usize, profiler: &dyn BoundsProfiler) -> Result<SetUp, String> {
    let cache_path = cx.work.join(format!("plans-{}-{rep}.json", m.name));
    let _ = std::fs::remove_file(&cache_path);
    let (cache, warning) = PlanCache::at_path(&cache_path);
    if let Some(w) = warning {
        return Err(format!("fresh plan cache warned: {w}"));
    }
    let tuner = PlanTuner::with_cache(cx.exec.clone(), cache);
    let t0 = Instant::now();
    let tuned = {
        let _s = cx.tracer.span("optimizer.optimize_profiled", 0);
        tuner.optimize_profiled(&m.csr, profiler)
    };
    let tune_s = t0.elapsed().as_secs_f64();
    if tuned.outcome == TuneOutcome::CacheHit {
        return Err("cold tune hit the plan cache".into());
    }
    let t1 = Instant::now();
    let precond: Box<dyn Preconditioner> = {
        let _s = cx.tracer.span("solver.precond_setup", 0);
        if m.name == "poisson3d" {
            Box::new(Ic0Precond::with_ctx(&m.csr, cx.exec.clone()).map_err(|e| e.to_string())?)
        } else {
            Box::new(JacobiPrecond::new(&m.csr).map_err(|e| e.to_string())?)
        }
    };
    Ok(SetUp {
        tuned,
        precond,
        tune_s,
        precond_s: t1.elapsed().as_secs_f64(),
        stats: tuner.stats(),
    })
}

/// `‖b − A·x‖ / ‖b‖` recomputed with the serial reference kernel.
fn true_residual(csr: &Arc<CsrMatrix>, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    SerialCsr::new(csr.clone()).spmv(x, &mut ax);
    let r2: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai).powi(2)).sum();
    let b2: f64 = b.iter().map(|v| v * v).sum();
    (r2 / b2.max(f64::MIN_POSITIVE)).sqrt()
}

pub fn run(cx: &Cx) -> Outcome {
    let mut out = Outcome::default();
    let sim = SimBoundsProfiler::new(Platform::broadwell());
    let timed_profiler = TimedProfiler::new(&sim, &cx.tracer);
    let profiler: &dyn BoundsProfiler = if cx.tracer.enabled() {
        &timed_profiler
    } else {
        &sim
    };
    let opts = SolverOptions {
        tol: TOL,
        max_iters: 5000,
    };
    let solve_budget = cx.seconds / MEMBERS.len() as f64;

    let mut setup_per_rep = [0.0f64; SETUP_REPS];
    let (mut solve_s, mut tail_s) = (0.0, 0.0);
    let mut gflops = Vec::new();
    let (mut tune_s, mut precond_setup_s) = (0.0, 0.0);
    let (mut setup_spmv, mut amortization) = (Vec::new(), Vec::new());
    let (mut cg_wall, mut spmv_busy, mut precond_busy) = (0.0, 0.0, 0.0);
    let mut digest = Digest::default();
    let mut largest = 0usize;
    let (mut misses, mut promotions, mut timed_trials) = (0u64, 0u64, 0u64);
    let mut fingerprint_ms = Vec::new();

    for name in MEMBERS {
        let m = {
            let _s = cx.tracer.span("bench.generate", 0);
            generate(name, cx.seed)
        };
        digest.csr(&m.csr);
        digest.f64s(&m.b);
        largest = largest.max(m.csr.footprint_bytes());
        if cx.tracer.enabled() {
            let t0 = Instant::now();
            let _s = cx.tracer.span("matrix.fingerprint", 0);
            MatrixFingerprint::extract(&m.csr, 32 << 20);
            fingerprint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }

        // Set-up, repeated cold; the last one is kept for solving.
        let mut kept = None;
        let mut tune_reps = Vec::new();
        let mut precond_reps = Vec::new();
        for (rep, slot) in setup_per_rep.iter_mut().enumerate() {
            kept = None; // free the previous operator before tuning again
            match set_up(cx, &m, rep, profiler) {
                Ok(s) => {
                    *slot += s.tune_s + s.precond_s;
                    tune_reps.push(s.tune_s);
                    precond_reps.push(s.precond_s);
                    misses += s.stats.misses;
                    promotions += s.stats.promotions;
                    timed_trials += s.stats.timed_trials;
                    out.plans.push((name.to_string(), s.tuned.plan.label()));
                    kept = Some(s);
                }
                Err(e) => {
                    out.fail(format!("{name}: set-up failed: {e}"));
                }
            }
        }
        let Some(su) = kept else {
            continue;
        };
        tune_s += median(&tune_reps);
        precond_setup_s += median(&precond_reps);
        if let Some(mc) = su.tuned.measured {
            setup_spmv.push(mc.setup_spmv);
        }
        if let Some(it) = su.tuned.amortization_iters() {
            amortization.push(it);
        }

        // Solves: repeated until this member's share of the window is used.
        let kernel: &dyn SparseLinOp = &*su.tuned.kernel;
        let timed_op = TimedOp::new(kernel, &cx.tracer);
        let timed_pc = TimedPrecond::new(&*su.precond, &cx.tracer);
        let (op, pc): (&dyn SparseLinOp, &dyn Preconditioner) = if cx.tracer.enabled() {
            (&timed_op, &timed_pc)
        } else {
            (kernel, &*su.precond)
        };
        let mut times = Vec::new();
        let started = Instant::now();
        let mut iters;
        loop {
            let mut x = vec![0.0; m.b.len()];
            let t0 = Instant::now();
            let outcome = {
                let _s = cx.tracer.span("solver.cg", 0);
                cg(op, &m.b, &mut x, pc, &opts)
            };
            let dt = t0.elapsed().as_secs_f64();
            out.attempted += 1;
            let rel = true_residual(&m.csr, &m.b, &x);
            if !outcome.converged || rel.is_nan() || rel > RESIDUAL_SLACK * TOL {
                out.fail(format!(
                    "{name}: CG converged={} recomputed residual {rel:e}",
                    outcome.converged
                ));
            }
            times.push(dt);
            iters = outcome.iterations;
            // Stop before a solve that would overrun this member's share.
            if started.elapsed().as_secs_f64() + dt > solve_budget || times.len() >= 50 {
                break;
            }
        }
        solve_s += median(&times);
        tail_s += times.iter().cloned().fold(0.0, f64::max);
        if cx.tracer.enabled() {
            cg_wall += times.iter().sum::<f64>();
            spmv_busy += timed_op.busy.secs();
            precond_busy += timed_pc.busy.secs();
            out.layer(&format!("solver.iters.{name}"), iters as f64, "iters");
            if name == "poisson3d" {
                let per = timed_pc.busy.secs() / timed_pc.busy.calls().max(1) as f64;
                out.layer("core.trsv_ms.poisson3d", per * 1e3, "ms");
            }
        }

        // The tuned operator alone.
        let xv = Rng::new(cx.seed, 7).vector(m.csr.ncols());
        let mut y = vec![0.0; m.csr.nrows()];
        let spmv = median_secs(SPMV_REPS, || kernel.spmv(&xv, &mut y));
        let flops = 2.0 * m.csr.nnz() as f64;
        gflops.push(flops / spmv / 1e9);
        out.named(&format!("spmv_ms.{name}"), spmv * 1e3, "ms");
        out.named(&format!("solve_ms.{name}"), median(&times) * 1e3, "ms");
        if cx.tracer.enabled() {
            layer_kernel_metrics(cx, &mut out, name, &m.csr, kernel, spmv, &xv);
        }
    }

    let setup_s = median(&setup_per_rep);
    out.digest = digest.finish();
    out.matrix_bytes = largest;
    let e2e = [
        ("setup_s", setup_s, "s"),
        ("op_p50_ms", solve_s * 1e3, "ms"),
        ("op_tail_ms", tail_s * 1e3, "ms"),
        ("ops_per_s", 1.0 / solve_s.max(1e-12), "1/s"),
    ];
    for (n, v, u) in e2e {
        out.e2e(n, v, u);
    }
    out.named("solve_s", solve_s, "s");
    out.named("time_to_solution_s", setup_s + solve_s, "s");
    out.named("spmv_gflops", geomean(&gflops), "Gflop/s");

    if cx.tracer.enabled() {
        out.layer("matrix.fingerprint_ms", median(&fingerprint_ms), "ms");
        out.layer("optimizer.tune_s", tune_s, "s");
        out.layer(
            "optimizer.timed_trials",
            timed_trials as f64 / SETUP_REPS as f64,
            "count",
        );
        out.layer(
            "optimizer.setup_spmv",
            setup_spmv.iter().sum::<f64>() / setup_spmv.len().max(1) as f64,
            "spmv",
        );
        out.layer(
            "optimizer.promotion_ratio",
            promotions as f64 / misses.max(1) as f64,
            "ratio",
        );
        out.layer(
            "optimizer.amortization_iters",
            amortization.iter().sum::<f64>() / amortization.len().max(1) as f64,
            "iters",
        );
        out.layer("solver.precond_setup_s", precond_setup_s, "s");
        let vec_ops = (cg_wall - spmv_busy - precond_busy).max(0.0);
        out.layer("solver.spmv_share", spmv_busy / cg_wall, "frac");
        out.layer("solver.precond_share", precond_busy / cg_wall, "frac");
        out.layer("solver.vecops_share", vec_ops / cg_wall, "frac");
        out.layer(
            "classifier.profile_ms",
            timed_profiler.busy.secs() * 1e3 / timed_profiler.busy.calls().max(1) as f64,
            "ms",
        );
    }
    out
}

/// Bandwidth, balance and baseline comparisons of one tuned operator.
fn layer_kernel_metrics(
    cx: &Cx,
    out: &mut Outcome,
    name: &str,
    csr: &Arc<CsrMatrix>,
    kernel: &dyn SparseLinOp,
    spmv_secs: f64,
    x: &[f64],
) {
    let mut y = vec![0.0; csr.nrows()];
    kernel.spmv(x, &mut y);
    let mut times: Vec<f64> = kernel
        .last_thread_times()
        .iter()
        .map(|d| d.as_secs_f64())
        .collect();
    if times.is_empty() {
        times = cx
            .exec
            .last_thread_times()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
    }
    let t_max = times.iter().cloned().fold(0.0, f64::max);
    let flops = 2.0 * csr.nnz() as f64;
    // Computed bytes: the format's stored stream plus one read of x and
    // one write of y.
    let bytes = (kernel.footprint_bytes() + 8 * (csr.ncols() + csr.nrows())) as f64;
    let serial = SerialCsr::new(csr.clone());
    let csr_1t = median_secs(SPMV_REPS, || serial.spmv(x, &mut y));
    let base = ParallelCsr::baseline(csr.clone(), cx.exec.clone());
    let base_secs = median_secs(SPMV_REPS, || base.spmv(x, &mut y));
    out.layer(&format!("core.spmv_ms.{name}"), spmv_secs * 1e3, "ms");
    out.layer(&format!("core.gbs.{name}"), bytes / spmv_secs / 1e9, "GB/s");
    out.layer(
        &format!("core.imbalance.{name}"),
        t_max / median(&times).max(1e-12),
        "ratio",
    );
    out.layer(
        &format!("core.csr_1t_gflops.{name}"),
        flops / csr_1t / 1e9,
        "Gflop/s",
    );
    out.layer(
        &format!("core.speedup_vs_csr.{name}"),
        base_secs / spmv_secs,
        "x",
    );
}
