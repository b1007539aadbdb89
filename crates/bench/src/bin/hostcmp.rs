//! Host-machine comparison and kernel census on the *real* kernels (not the
//! model).
//!
//! 1. **Census** — on every matrix of `paper_suite()` + `spd_suite()`, at 1
//!    thread and at host parallelism, each distinct operator that the
//!    baseline and the single and pair plans build (keyed by
//!    [`SparseLinOp::name`]) is built and timed once, best of
//!    [`BATCHES`] batches. Per operator family (the name without its
//!    bracketed configuration) the table counts the matrices where the
//!    family comes within 5% of the per-matrix winner and reports its best
//!    ratio to the winner. A family that never comes within 5% does not
//!    earn its place in the plan space.
//! 2. **Comparison** — the wall-clock analogue of Fig. 7 on six suite
//!    matrices at host parallelism: MKL-like, IE-like, baseline, oracle
//!    (the census winner) and the adaptive plan classified on measured
//!    host bounds.
//!
//! Usage: `cargo run --release -p sparseopt-bench --bin hostcmp [reps]`
//! (`reps` applies per timed batch, default 20).

use sparseopt_bench::report::Table;
use sparseopt_classifier::{BoundsProfiler, HostBoundsProfiler, ProfileGuidedClassifier};
use sparseopt_core::prelude::*;
use sparseopt_matrix::{paper_suite, spd_suite, MatrixFeatures, SuiteMatrix};
use sparseopt_optimizer::{
    inspector_executor_host_kernel, mkl_host_kernel, single_and_pair_plans, OptimizationPlan,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per operator; the best batch counts.
const BATCHES: usize = 7;

/// A family is "within 5%" on a matrix when its best operator reaches this
/// share of the winner's Gflop/s.
const WITHIN: f64 = 0.95;

/// Best-of-[`BATCHES`] Gflop/s over batches of `reps` applies.
fn time_gflops(k: &dyn SparseLinOp, reps: usize) -> f64 {
    let (nrows, ncols) = k.shape();
    let x = vec![1.0f64; ncols];
    let mut y = vec![0.0f64; nrows];
    k.spmv(&x, &mut y); // warm
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..reps {
            k.spmv(&x, &mut y);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&y);
    gflops(k.flops(1) * reps as f64, best)
}

/// Gflop/s per distinct operator on one matrix, keyed by operator name.
type OpTimings = Vec<(String, f64)>;

/// Times every distinct operator the baseline and the single and pair
/// plans build on one matrix.
fn census_matrix(csr: &Arc<CsrMatrix>, ctx: &Arc<ExecCtx>, reps: usize) -> OpTimings {
    let features = MatrixFeatures::extract(csr, 32 * 1024 * 1024);
    let mut timed = OpTimings::new();
    let plans =
        std::iter::once(OptimizationPlan::baseline()).chain(single_and_pair_plans(&features));
    for plan in plans {
        let op = plan.build_host_kernel(csr, ctx.clone());
        let name = op.name();
        if timed.iter().any(|(n, _)| *n == name) {
            continue;
        }
        let g = time_gflops(op.as_ref(), reps);
        timed.push((name, g));
    }
    timed
}

/// Per-family census summary at one thread count: matrices measured,
/// matrices within 5% of the winner, best ratio to the winner.
#[derive(Default, Clone, Copy)]
struct FamilyScore {
    measured: usize,
    within: usize,
    best_ratio: f64,
}

fn family(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

fn score(results: &[OpTimings]) -> BTreeMap<String, FamilyScore> {
    let mut scores: BTreeMap<String, FamilyScore> = BTreeMap::new();
    for ops in results {
        let winner = ops.iter().map(|(_, g)| *g).fold(0.0, f64::max);
        let mut best_per_family: HashMap<&str, f64> = HashMap::new();
        for (name, g) in ops {
            let best = best_per_family.entry(family(name)).or_insert(0.0);
            *best = best.max(*g);
        }
        for (fam, g) in best_per_family {
            let ratio = if winner > 0.0 { g / winner } else { 1.0 };
            let s = scores.entry(fam.to_string()).or_default();
            s.measured += 1;
            s.within += usize::from(ratio >= WITHIN);
            s.best_ratio = s.best_ratio.max(ratio);
        }
    }
    scores
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20)
        .max(1);
    let host = ExecCtx::host();
    println!(
        "host comparison: {} threads, best of {BATCHES} batches of {reps} applies per kernel\n",
        host.nthreads()
    );

    let mut suite: Vec<SuiteMatrix> = paper_suite();
    suite.extend(spd_suite());

    // Census at 1 thread and at host parallelism.
    let thread_counts = if host.nthreads() > 1 {
        vec![ExecCtx::new(1), host.clone()]
    } else {
        vec![host.clone()]
    };
    let mut per_threads: Vec<(usize, Vec<OpTimings>)> = Vec::new();
    for ctx in &thread_counts {
        let results: Vec<OpTimings> = suite
            .iter()
            .map(|m| census_matrix(&m.csr, ctx, reps))
            .collect();
        per_threads.push((ctx.nthreads(), results));
    }

    let scores: Vec<(usize, BTreeMap<String, FamilyScore>)> = per_threads
        .iter()
        .map(|(t, results)| (*t, score(results)))
        .collect();
    let mut header = vec!["family".to_string(), "matrices".to_string()];
    for (t, _) in &scores {
        header.push(format!("within 5% @{t}t"));
        header.push(format!("best @{t}t"));
    }
    let families: BTreeSet<&String> = scores.iter().flat_map(|(_, s)| s.keys()).collect();
    let mut census = Table::new(header);
    for fam in families {
        let measured = scores
            .iter()
            .filter_map(|(_, s)| s.get(fam))
            .map(|f| f.measured);
        let mut row = vec![fam.clone(), measured.max().unwrap_or(0).to_string()];
        for (_, s) in &scores {
            let f = s.get(fam).copied().unwrap_or_default();
            row.push(f.within.to_string());
            row.push(format!("{:.2}x", f.best_ratio));
        }
        census.row(row);
    }
    println!(
        "kernel census over {} matrices (paper_suite + spd_suite): per operator\n\
         family, the matrices where it comes within 5% of the per-matrix winner\n\
         and its best ratio to that winner\n",
        suite.len()
    );
    println!("{}", census.render());

    // Comparison on six suite matrices at host parallelism; the oracle is
    // the census winner.
    let host_results = &per_threads.last().expect("host census").1;
    let profiler = HostBoundsProfiler::new(host.clone()).with_reps(reps.min(8));
    let classifier = ProfileGuidedClassifier::new();
    println!("profiler: {}\n", profiler.label());

    let names = [
        "poisson3Db",
        "FEM_3D_thermal2",
        "webbase-1M",
        "ASIC_680k",
        "consph",
        "SiO2",
    ];
    let mut table = Table::new(vec![
        "matrix", "MKL-like", "IE-like", "baseline", "oracle", "adaptive", "classes",
    ]);
    for name in names {
        let idx = suite
            .iter()
            .position(|m| m.name == name)
            .expect("suite matrix");
        let csr = suite[idx].csr.clone();
        let features = MatrixFeatures::extract(&csr, 32 * 1024 * 1024);

        let mkl = time_gflops(mkl_host_kernel(&csr, host.clone()).as_ref(), reps);
        let ie = time_gflops(
            inspector_executor_host_kernel(&csr, host.clone()).as_ref(),
            reps,
        );
        let baseline = time_gflops(&ParallelCsr::baseline(csr.clone(), host.clone()), reps);
        let oracle = host_results[idx]
            .iter()
            .map(|(_, g)| *g)
            .fold(baseline, f64::max);

        // Adaptive: classify on measured host bounds, build, time.
        let bounds = profiler.measure(&csr);
        let classes = classifier.classify(&bounds);
        let plan = OptimizationPlan::from_classes(classes, &features);
        let adaptive = if plan.is_noop() {
            baseline
        } else {
            time_gflops(plan.build_host_kernel(&csr, host.clone()).as_ref(), reps)
        };

        table.row(vec![
            name.to_string(),
            format!("{mkl:.3}"),
            format!("{ie:.3}"),
            format!("{baseline:.3}"),
            format!("{oracle:.3}"),
            format!("{adaptive:.3}"),
            classes.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "All numbers are Gflop/s measured on this machine. With few cores the\n\
         scheduling/imbalance optimizations have little room; the modeled\n\
         platforms (fig7) are the faithful reproduction of the paper's testbeds."
    );
}
