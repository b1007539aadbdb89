//! `ci_bench` — the bench-regression tier of `ci.sh full`.
//!
//! Runs a pinned micro-suite (one matrix per bottleneck shape × the kernel
//! family, plus the symmetric-storage operator on the symmetric members),
//! writes the measured Gflop/s trajectory to the **stable**
//! `BENCH_TRAJECTORY.json` (so the CI workflow's artifact upload never
//! needs a per-PR filename edit), and exits nonzero if any
//! (matrix, kernel) pair regresses more than the tolerance (default 15%,
//! override with `--tolerance` or `SPARSEOPT_BENCH_TOLERANCE`) against the
//! committed `BENCH_BASELINE.json`. A pair that lands below its floor is
//! re-measured up to [`RETRIES`] times before the tier fails, so transient
//! scheduler noise on shared hosts cannot fail the gate while a genuine
//! collapse (which reproduces on every retry) still does.
//!
//! Two acceptance comparisons ride on top of the drift band. The
//! **vectorization no-loss gate** is unconditional: on every suite matrix
//! the best vectorized kernel (the SELL-C-σ operator or the length-bucketed
//! `csr-simd`) must reach ≥ 1.0× the scalar `csr-baseline` — the CMP
//! class's "vectorize" prescription must never make a matrix slower.
//!
//! The **tuning no-loss gate** pins the tuning service: every suite matrix
//! gets an `adaptive` row (the classifier's guarded one-shot plan) and a
//! `tuned` row (what `PlanTuner` serves after its budgeted empirical
//! search), and a promoted plan must never measure slower than the one-shot
//! it replaced. The tuner's winners persist to `BENCH_PLAN_CACHE.json`,
//! which rides the CI workflow's `BENCH_*.json` artifact glob.
//!
//! It additionally enforces the merge-path acceptance comparison —
//! `MergeCsr` must beat the best whole-row CSR schedule on the power-law
//! hub matrix — whenever the hub row actually overflows a whole-row
//! nonzero quota on this host (hub share ≥ 1.5 / nthreads). Below that the
//! win is not structural (and on one core imbalance cannot surface in wall
//! clock at all), so the comparison is reported but the criterion is
//! carried by the deterministic modeled gate in `tests/merge_path.rs`.
//! When the committed baseline was recorded on a different hardware shape
//! (thread-count mismatch), the absolute-Gflop/s gate degrades to a
//! per-matrix speedup-over-csr-baseline comparison at doubled tolerance
//! rather than switching off.
//!
//! Usage:
//!   ci_bench [--out PATH] [--baseline PATH] [--tolerance F] [--write-baseline]

use sparseopt_bench::Table;
use sparseopt_classifier::SimBoundsProfiler;
use sparseopt_core::kernels::{peak_resident_shard_bytes, reset_peak_resident_shard_bytes};
use sparseopt_core::prelude::*;
use sparseopt_core::CsrKernelConfig;
use sparseopt_matrix::generators as g;
use sparseopt_matrix::{shard::write_shard_file, streaming_suite, ShardStore};
use sparseopt_optimizer::{AdaptiveOptimizer, PlanCache, PlanTuner, TuneBudget};
use sparseopt_serve::{ServeConfig, SpmvServer, Ticket};
use sparseopt_sim::Platform;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default allowed fractional slowdown per (matrix, kernel) pair.
const DEFAULT_TOLERANCE: f64 = 0.15;

/// Target wall time per timed batch, seconds (keeps the tier fast while
/// amortizing timer noise on tiny matrices).
const BATCH_SECS: f64 = 0.02;

/// Timed batches per measurement; the best (minimum) batch is reported, the
/// standard robust estimator for wall-clock microbenchmarks on shared CI.
const BATCHES: usize = 5;

/// Re-measurements granted to a (matrix, kernel) pair that lands below its
/// regression floor before the tier fails. Virtualized single-core CI hosts
/// wobble 20–30% run to run — more than any tolerance band that would still
/// catch a real collapse — but the noise is transient: a genuine regression
/// reproduces on every retry, while a scheduler hiccup clears on the first.
/// Retried values only affect the verdict; the trajectory file keeps the
/// first measurement.
const RETRIES: usize = 2;

struct Entry {
    matrix: String,
    kernel: String,
    gflops: f64,
}

fn measure(op: &dyn SparseLinOp) -> f64 {
    let (nrows, ncols) = op.shape();
    let x: Vec<f64> = (0..ncols).map(|i| 0.5 + (i as f64 * 0.13).sin()).collect();
    let mut y = vec![0.0f64; nrows];
    op.spmv(&x, &mut y); // warm up (faults pages, resolves schedules)

    let t0 = Instant::now();
    op.spmv(&x, &mut y);
    let est = t0.elapsed().as_secs_f64().max(1e-7);
    let iters = ((BATCH_SECS / est).ceil() as usize).clamp(1, 20_000);

    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            op.spmv(&x, &mut y);
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    std::hint::black_box(&y);
    gflops(op.flops(1), best)
}

/// The pinned suite: one matrix per structural shape the classifier cares
/// about. Names are stable identifiers — the baseline JSON keys on them.
fn suite() -> Vec<(&'static str, Arc<CsrMatrix>)> {
    vec![
        (
            "banded-20k-b4",
            Arc::new(CsrMatrix::from_coo(&g::banded(20_000, 4))),
        ),
        (
            "poisson2d-96",
            Arc::new(CsrMatrix::from_coo(&g::poisson2d(96, 96))),
        ),
        (
            "random-8k-d8",
            Arc::new(CsrMatrix::from_coo(&g::random_uniform(8192, 8, 1))),
        ),
        (
            "powerlaw-hub-8k",
            Arc::new(CsrMatrix::from_coo(&g::power_law_hub(8192, 2, 11))),
        ),
        (
            "sym-band-20k",
            Arc::new(CsrMatrix::from_coo(&g::symmetric_banded(20_000, 4))),
        ),
        (
            "spd-powerlaw-12k",
            Arc::new(CsrMatrix::from_coo(&g::symmetric_power_law(12_000, 8, 97))),
        ),
    ]
}

/// The SPD members that carry SpTRSV rows (their lower triangles are the
/// IC(0)/SymGS solve operands): a 2-D stencil (medium-width levels), a pure
/// band (chain DAG — level scheduling must *not* be selected there, but the
/// row still pins its cost) and a symmetrized power-law graph (wide shallow
/// DAG — the level-scheduled win the no-loss gate checks).
const SPTRSV_MATRICES: [&str; 3] = ["poisson2d-96", "sym-band-20k", "spd-powerlaw-12k"];

/// The SPD member on which level-scheduled SpTRSV must not lose to serial
/// substitution when more than one thread is available. Only the wide-DAG
/// member arms the gate: on chain/narrow DAGs serial is the *correct*
/// choice (and what `TrsvAlgo::Auto` picks), so "level wins there" is not a
/// property worth pinning.
const SPTRSV_GATE_MATRIX: &str = "spd-powerlaw-12k";

/// Measures one triangular solve kernel with the same batching protocol as
/// [`measure`] (best batch of [`BATCHES`]).
fn measure_trsv(k: &TrsvKernel) -> f64 {
    let n = k.nrows();
    let b: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.13).sin()).collect();
    let mut x = vec![0.0f64; n];
    k.solve(&b, &mut x); // warm up

    let t0 = Instant::now();
    k.solve(&b, &mut x);
    let est = t0.elapsed().as_secs_f64().max(1e-7);
    let iters = ((BATCH_SECS / est).ceil() as usize).clamp(1, 20_000);

    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            k.solve(&b, &mut x);
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    std::hint::black_box(&x);
    gflops(k.flops(1), best)
}

/// Builds the (kernel-name, solver) pairs for one SPD matrix's lower
/// triangle. At one thread the level-scheduled kernel resolves to serial,
/// so both rows exist on every host and the baseline keys stay stable.
fn trsv_kernels(csr: &Arc<CsrMatrix>, ctx: &Arc<ExecCtx>) -> Vec<(&'static str, TrsvKernel)> {
    let lower = csr.lower_triangle(true);
    vec![
        (
            "sptrsv-serial",
            TrsvKernel::serial(&lower, TrsvDirection::Lower, false).expect("SPD lower triangle"),
        ),
        (
            "sptrsv-level",
            TrsvKernel::try_new(
                &lower,
                TrsvDirection::Lower,
                false,
                TrsvAlgo::LevelScheduled,
                ctx.clone(),
            )
            .expect("SPD lower triangle"),
        ),
    ]
}

/// Requests per serving measurement run.
const SERVE_REQUESTS: usize = 256;

/// Coalescing cap for the batched serving run — the effective `k` the
/// acceptance comparison targets (`mean batch ≥ 4` arms the gate).
const SERVE_BATCH: usize = 8;

/// Fresh-server repetitions per serving measurement; best run is reported
/// (same robust-minimum protocol as [`measure`]).
const SERVE_RUNS: usize = 3;

/// The serving matrix — the banded suite member the coalescing acceptance
/// criterion is pinned on.
const SERVE_MATRIX: &str = "banded-20k-b4";

/// One serving measurement: throughput (Gflop/s equivalent over the
/// request stream), the inverse of the exact client-side p99 latency
/// (inverted so "bigger is better" matches the generic regression gate),
/// and the effective batch width the coalescer achieved.
struct ServeMeasurement {
    gflops: f64,
    p99_inv: f64,
    mean_batch: f64,
    /// Plan label the server registered the matrix under, plus whether it
    /// came warm from the persistent cache — a cold minimal-budget re-tune
    /// is the first suspect when the coalescing ratio collapses.
    plan: String,
}

/// Measures the serving layer on one matrix: `SERVE_REQUESTS` identical
/// `y = A·x` requests from one tenant, either closed-loop (submit, wait,
/// repeat — every dispatch is width 1) or open-loop (submit all, then
/// wait — the backlog coalesces into width-[`SERVE_BATCH`] SpMM batches).
/// Each of the [`SERVE_RUNS`] repetitions builds a fresh server so queue
/// state never leaks between runs; the best run is returned. p99 is exact
/// (sorted client-side latencies), not the serving histogram's
/// octave-resolution readout, so the regression gate's 15% band is
/// meaningful for it.
fn measure_serving(
    ctx: &Arc<ExecCtx>,
    csr: &Arc<CsrMatrix>,
    plan_cache_path: &str,
    coalesce: bool,
) -> ServeMeasurement {
    let cfg = ServeConfig {
        workers: 1,
        batch_window: if coalesce {
            Duration::from_millis(5)
        } else {
            Duration::ZERO
        },
        max_batch: if coalesce { SERVE_BATCH } else { 1 },
        tenant_capacity: SERVE_REQUESTS + 8,
        tune_budget: TuneBudget::minimal(),
    };
    let flops = 2.0 * csr.nnz() as f64 * SERVE_REQUESTS as f64;
    let x: Vec<f64> = (0..csr.ncols())
        .map(|i| 0.5 + (i as f64 * 0.13).sin())
        .collect();
    let mut best = ServeMeasurement {
        gflops: 0.0,
        p99_inv: 0.0,
        mean_batch: 0.0,
        plan: String::new(),
    };
    for _ in 0..SERVE_RUNS {
        // Register against the suite's persistent plan cache: by this point
        // the tuned rows above have promoted and persisted a winner for this
        // matrix, so registration is a warm cache hit — the serving rows
        // compare dispatch policies over ONE deterministic kernel instead of
        // re-running minimal-budget trials whose mid-suite timing noise can
        // promote a different (SpMM-indifferent) plan per server.
        let server =
            SpmvServer::with_plan_cache(ctx.clone(), cfg, PlanCache::at_path(plan_cache_path).0);
        let tenant = server.register_tenant("bench");
        let matrix = server.register_matrix(SERVE_MATRIX, csr.clone());
        // Warm up: faults pages, resolves the kernel's schedule.
        server
            .submit(tenant, matrix, x.clone())
            .and_then(Ticket::wait)
            .expect("warm-up request");
        // Operand clones and reply frees are client-side costs, identical
        // per request in both modes; keeping them inside the timed window
        // would add a fixed tax that dilutes the coalescing ratio. Clone
        // before the clock starts, hold replies until after it stops.
        let mut ops: Vec<Vec<f64>> = (0..SERVE_REQUESTS).map(|_| x.clone()).collect();
        let mut replies = Vec::with_capacity(SERVE_REQUESTS);
        let mut latencies = Vec::with_capacity(SERVE_REQUESTS);
        let t0 = Instant::now();
        if coalesce {
            let in_flight: Vec<(Instant, Ticket)> = ops
                .drain(..)
                .map(|op| {
                    (
                        Instant::now(),
                        server.submit(tenant, matrix, op).expect("sized trace"),
                    )
                })
                .collect();
            // Fulfillment follows queue order, so waiting in submit order
            // reads each completion as it lands.
            for (submitted, ticket) in in_flight {
                replies.push(ticket.wait().expect("server dropped a request"));
                latencies.push(submitted.elapsed());
            }
        } else {
            for op in ops.drain(..) {
                let submitted = Instant::now();
                replies.push(
                    server
                        .submit(tenant, matrix, op)
                        .and_then(Ticket::wait)
                        .expect("sized trace"),
                );
                latencies.push(submitted.elapsed());
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        drop(replies);
        latencies.sort_unstable();
        let p99 = latencies[(SERVE_REQUESTS * 99).div_ceil(100) - 1];
        let gf = flops / elapsed / 1e9;
        if gf > best.gflops {
            // The warm-up dispatch is width 1 by construction; exclude it
            // from the effective-width readout.
            let snap = server.stats();
            let info = server.matrix_info(matrix).expect("registered matrix");
            best = ServeMeasurement {
                gflops: gf,
                p99_inv: 1.0 / p99.as_secs_f64().max(1e-12),
                mean_batch: (snap.completed - 1) as f64 / (snap.batches - 1).max(1) as f64,
                plan: format!(
                    "{}{}",
                    info.plan_label,
                    if info.warm { "" } else { " (cold-tuned)" }
                ),
            };
        }
    }
    best
}

/// The out-of-core streaming member: a degree-sorted power-law matrix whose
/// head shard (hubs) and tail shards (short rows) tune to different formats,
/// benched through the shard container + `ShardedOp` path.
const STREAM_MATRIX: &str = "powerlaw-sorted-48k";

/// Shards the streaming member gets in the container.
const STREAM_SHARDS: usize = 8;

/// The kernel family measured per matrix. Names are stable identifiers.
fn kernels(csr: &Arc<CsrMatrix>, ctx: &Arc<ExecCtx>) -> Vec<(&'static str, Box<dyn SparseLinOp>)> {
    let simd = CsrKernelConfig {
        inner: InnerLoop::Simd,
        ..CsrKernelConfig::baseline()
    };
    let threshold = DecomposedCsrMatrix::auto_threshold(csr, 4.0);
    vec![
        (
            "csr-baseline",
            Box::new(ParallelCsr::baseline(csr.clone(), ctx.clone())),
        ),
        (
            "csr-simd",
            Box::new(ParallelCsr::new(csr.clone(), simd, ctx.clone())),
        ),
        (
            "sell",
            Box::new(SellKernel::vectorized(
                Arc::new(SellMatrix::from_csr(csr)),
                ctx.clone(),
            )),
        ),
        (
            "csr-auto",
            Box::new(ParallelCsr::with_schedule(
                csr.clone(),
                Schedule::Auto,
                ctx.clone(),
            )),
        ),
        (
            "csr-dynamic",
            Box::new(ParallelCsr::with_schedule(
                csr.clone(),
                Schedule::Dynamic { chunk: 64 },
                ctx.clone(),
            )),
        ),
        (
            "csr-guided",
            Box::new(ParallelCsr::with_schedule(
                csr.clone(),
                Schedule::Guided { min_chunk: 4 },
                ctx.clone(),
            )),
        ),
        (
            "decomposed",
            Box::new(DecomposedKernel::baseline(
                Arc::new(DecomposedCsrMatrix::from_csr(csr, threshold)),
                ctx.clone(),
            )),
        ),
        (
            "merge",
            Box::new(MergeCsr::baseline(csr.clone(), ctx.clone())),
        ),
    ]
}

fn write_json(path: &str, nthreads: usize, entries: &[Entry]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"nthreads\": {nthreads},\n"));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"matrix\": \"{}\", \"kernel\": \"{}\", \"gflops\": {:.4}}}{comma}\n",
            e.matrix, e.kernel, e.gflops
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Parses a JSON file this tool wrote (one result per line — no general
/// JSON parser is vendored, and the baseline is always produced by
/// `--write-baseline`). Returns the recorded thread count and the entries;
/// a malformed line is an error, never a silent skip (a half-parsed
/// baseline must fail the gate, not disable it).
fn read_json(path: &str) -> Result<(usize, Vec<Entry>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let field = |line: &str, key: &str| -> Option<String> {
        let tag = format!("\"{key}\": ");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        Some(if let Some(stripped) = rest.strip_prefix('"') {
            stripped[..stripped.find('"')?].to_string()
        } else {
            rest[..rest.find(['}', ','])?].trim().to_string()
        })
    };
    let mut nthreads = None;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if let Some(t) = field(line, "nthreads") {
            nthreads = Some(
                t.parse()
                    .map_err(|_| format!("{path}:{}: bad nthreads `{t}`", lineno + 1))?,
            );
        }
        let (matrix, kernel, gf) = match (
            field(line, "matrix"),
            field(line, "kernel"),
            field(line, "gflops"),
        ) {
            (Some(m), Some(k), Some(g)) => (m, k, g),
            (None, None, None) => continue, // structural line, no result
            _ => return Err(format!("{path}:{}: malformed result line", lineno + 1)),
        };
        entries.push(Entry {
            matrix,
            kernel,
            gflops: gf
                .parse()
                .map_err(|_| format!("{path}:{}: bad gflops `{gf}`", lineno + 1))?,
        });
    }
    let nthreads = nthreads.ok_or_else(|| format!("{path}: missing nthreads field"))?;
    if entries.is_empty() {
        return Err(format!("{path}: no result entries"));
    }
    Ok((nthreads, entries))
}

fn main() {
    let mut out_path = "BENCH_TRAJECTORY.json".to_string();
    let mut baseline_path = "BENCH_BASELINE.json".to_string();
    let mut tolerance = std::env::var("SPARSEOPT_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOLERANCE);
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a fraction")
            }
            "--write-baseline" => write_baseline = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let ctx = ExecCtx::host();
    let nthreads = ctx.nthreads();
    println!("ci_bench: pinned micro-suite on {nthreads} thread(s)\n");

    // The tuning-service rows persist their winners here; the stable
    // BENCH_-prefixed name rides the CI workflow's existing `BENCH_*.json`
    // artifact glob, so the tuned plans ship next to the trajectory.
    let plan_cache_path = "BENCH_PLAN_CACHE.json";
    let (plan_cache, cache_warn) = PlanCache::at_path(plan_cache_path);
    if let Some(w) = cache_warn {
        eprintln!("warning: {w}");
    }
    let tuner = PlanTuner::with_cache(ctx.clone(), plan_cache);
    let adaptive_opt = AdaptiveOptimizer::new(ctx.clone());
    let tune_profiler = SimBoundsProfiler::new(Platform::broadwell());
    // (matrix, adaptive Gflop/s, tuned Gflop/s, adaptive plan, tuned plan)
    let mut tune_gate: Vec<(String, f64, f64, String, String)> = Vec::new();

    let mut entries = Vec::new();
    let mut table = Table::new(vec!["matrix", "kernel", "gflops"]);
    let mut hub_merge = 0.0f64;
    let mut hub_best_whole_row = 0.0f64;
    let mut hub_share = 0.0f64;
    let mut trsv_serial = 0.0f64;
    let mut trsv_level = 0.0f64;
    let mut vec_gate: Vec<(String, f64, f64, &'static str)> = Vec::new();
    let mats = suite();
    for (mname, csr) in mats.iter() {
        let mname = *mname;
        if mname == "powerlaw-hub-8k" {
            let max = (0..csr.nrows()).map(|i| csr.row_nnz(i)).max().unwrap_or(0);
            hub_share = max as f64 / csr.nnz().max(1) as f64;
        }
        let (mut scalar_base, mut vec_best, mut vec_which) = (0.0f64, 0.0f64, "none");
        for (kname, op) in kernels(csr, &ctx) {
            let gf = measure(op.as_ref());
            match kname {
                "csr-baseline" => scalar_base = gf,
                "csr-simd" | "sell" if gf > vec_best => {
                    vec_best = gf;
                    vec_which = kname;
                }
                _ => {}
            }
            table.row(vec![
                mname.to_string(),
                kname.to_string(),
                format!("{gf:.3}"),
            ]);
            if mname == "powerlaw-hub-8k" {
                match kname {
                    "merge" => hub_merge = gf,
                    // *Every* whole-row CSR schedule in the suite competes —
                    // the acceptance criterion is "beats the best", and the
                    // self-scheduling policies are the strongest whole-row
                    // contenders on a hub matrix.
                    "csr-baseline" | "csr-simd" | "csr-auto" | "csr-dynamic" | "csr-guided" => {
                        hub_best_whole_row = hub_best_whole_row.max(gf)
                    }
                    _ => {}
                }
            }
            entries.push(Entry {
                matrix: mname.to_string(),
                kernel: kname.to_string(),
                gflops: gf,
            });
        }
        vec_gate.push((mname.to_string(), scalar_base, vec_best, vec_which));
        // Classifier one-shot vs tuning service. `adaptive` is the guarded
        // classifier plan exactly as `AdaptiveOptimizer` ships it; `tuned`
        // is what the `PlanTuner` serves after its budgeted empirical
        // search (or straight from the plan cache on a warm run).
        let adaptive = adaptive_opt.optimize_profiled(csr, &tune_profiler);
        let tuned = tuner.optimize_profiled(csr, &tune_profiler);
        for (kname, op, plan_label) in [
            ("adaptive", adaptive.kernel.as_ref(), adaptive.plan.label()),
            ("tuned", tuned.kernel.as_ref(), tuned.plan.label()),
        ] {
            let gf = measure(op);
            table.row(vec![
                mname.to_string(),
                kname.to_string(),
                format!("{gf:.3}"),
            ]);
            entries.push(Entry {
                matrix: mname.to_string(),
                kernel: kname.to_string(),
                gflops: gf,
            });
            match kname {
                "adaptive" => {
                    tune_gate.push((mname.to_string(), gf, 0.0, plan_label, String::new()))
                }
                _ => {
                    let slot = tune_gate.last_mut().expect("adaptive row pushed first");
                    slot.2 = gf;
                    slot.4 = plan_label;
                }
            }
        }
        // SpTRSV rows on the SPD members (lower-triangle solve).
        if SPTRSV_MATRICES.contains(&mname) {
            for (kname, kernel) in trsv_kernels(csr, &ctx) {
                let gf = measure_trsv(&kernel);
                if mname == SPTRSV_GATE_MATRIX {
                    match kname {
                        "sptrsv-serial" => trsv_serial = gf,
                        "sptrsv-level" => trsv_level = gf,
                        _ => {}
                    }
                }
                table.row(vec![
                    mname.to_string(),
                    kname.to_string(),
                    format!("{gf:.3}"),
                ]);
                entries.push(Entry {
                    matrix: mname.to_string(),
                    kernel: kname.to_string(),
                    gflops: gf,
                });
            }
        }
    }

    // Serving-layer rows: the same banded member served closed-loop
    // (width-1 dispatches) and open-loop (coalesced SpMM batches), plus
    // the batched configuration's inverse-p99 tail-latency row.
    let serve_csr = mats
        .iter()
        .find(|(n, _)| *n == SERVE_MATRIX)
        .map(|(_, c)| c.clone())
        .expect("serving matrix is a pinned suite member");
    let mut serve_seq = measure_serving(&ctx, &serve_csr, plan_cache_path, false);
    let mut serve_coal = measure_serving(&ctx, &serve_csr, plan_cache_path, true);
    for (kname, gf) in [
        ("serve-sequential", serve_seq.gflops),
        ("serve-coalesced", serve_coal.gflops),
        ("serve-p99-inv", serve_coal.p99_inv),
    ] {
        table.row(vec![
            SERVE_MATRIX.to_string(),
            kname.to_string(),
            format!("{gf:.3}"),
        ]);
        entries.push(Entry {
            matrix: SERVE_MATRIX.to_string(),
            kernel: kname.to_string(),
            gflops: gf,
        });
    }
    // Out-of-core rows: the streaming suite member goes through the full
    // shard pipeline — container write, mmap-backed open, per-shard plan
    // selection — and is measured as a `ShardedOp` with every shard kernel
    // resident (window = nshards ≥ 2, the steady state a solver loop sees).
    // The whole-matrix csr-baseline row on the same member is the no-loss
    // reference.
    let mut shard_failures: Vec<String> = Vec::new();
    let stream_csr = streaming_suite()
        .into_iter()
        .find(|m| m.name == STREAM_MATRIX)
        .expect("streaming suite member")
        .csr;
    let shard_path =
        std::env::temp_dir().join(format!("sparseopt-ci-bench-{}.shards", std::process::id()));
    write_shard_file(&shard_path, &stream_csr, stream_csr.nrows() / STREAM_SHARDS)
        .expect("write shard container");
    let store = Arc::new(ShardStore::open(&shard_path).expect("open shard container"));
    std::fs::remove_file(&shard_path).ok();
    let sharded_window = store.nshards();
    let sharded = tuner
        .optimize_sharded(
            store.clone(),
            &tune_profiler,
            Platform::broadwell(),
            sharded_window,
        )
        .expect("tune sharded");
    println!(
        "sharded {STREAM_MATRIX}: {} shard(s), window {sharded_window}, per-shard plans [{}]",
        store.nshards(),
        sharded.distinct_plan_labels().join(" | ")
    );
    // Residency accounting hook first, while no other sharded operator has
    // built kernels (the accounting is crate-global): stream the matrix
    // through a bounded window (2 of the {STREAM_SHARDS}) and assert the
    // peak resident built-shard bytes never exceeded window · max_shard_bytes.
    {
        let bounded = tuner
            .optimize_sharded(store.clone(), &tune_profiler, Platform::broadwell(), 2)
            .expect("tune bounded sharded");
        let x: Vec<f64> = vec![1.0; stream_csr.ncols()];
        let mut y = vec![0.0f64; stream_csr.nrows()];
        reset_peak_resident_shard_bytes();
        bounded.op.spmv(&x, &mut y);
        bounded.op.spmv(&x, &mut y);
        let peak = peak_resident_shard_bytes();
        let bound = 2 * bounded.op.max_built_shard_bytes();
        println!(
            "sharded residency at window 2: peak {peak} bytes vs bound {bound} bytes \
             (2 x largest built shard)"
        );
        if peak > bound {
            shard_failures.push(format!(
                "window-2 apply held {peak} resident shard bytes, above the \
                 window bound {bound}"
            ));
        }
    }
    // Correctness: the streamed operator must match the in-memory reference
    // to 1e-12 relative. A mismatch fails the tier (not a panic — the
    // remaining gates still report).
    {
        let reference = SerialCsr::new(stream_csr.clone());
        let x: Vec<f64> = (0..stream_csr.ncols())
            .map(|i| 0.5 + (i as f64 * 0.13).sin())
            .collect();
        let (mut got, mut want) = (
            vec![0.0f64; stream_csr.nrows()],
            vec![0.0f64; stream_csr.nrows()],
        );
        sharded.op.spmv(&x, &mut got);
        reference.spmv(&x, &mut want);
        if let Some(i) =
            (0..got.len()).find(|&i| (got[i] - want[i]).abs() > 1e-12 * want[i].abs().max(1.0))
        {
            shard_failures.push(format!(
                "sharded-spmv diverges from the in-memory reference at row {i} \
                 ({} vs {})",
                got[i], want[i]
            ));
        }
    }
    let mut shard_gf = measure(sharded.op.as_ref());
    let mut shard_base_gf = measure(&ParallelCsr::baseline(stream_csr.clone(), ctx.clone()));
    for (kname, gf) in [("sharded-spmv", shard_gf), ("csr-baseline", shard_base_gf)] {
        table.row(vec![
            STREAM_MATRIX.to_string(),
            kname.to_string(),
            format!("{gf:.3}"),
        ]);
        entries.push(Entry {
            matrix: STREAM_MATRIX.to_string(),
            kernel: kname.to_string(),
            gflops: gf,
        });
    }
    println!("{}", table.render());

    // Vectorization no-loss gate (unconditional, every matrix, any thread
    // count): the best vectorized kernel — SELL-C-σ or the length-bucketed
    // csr-simd — must be at least as fast as the scalar csr-baseline. This
    // is the hard floor behind the CMP class's "vectorize" recommendation:
    // a classifier whose prescribed optimization loses to scalar is worse
    // than no classifier, so the state is pinned here rather than left to
    // the 15% drift band.
    // One fresh measurement of a single (matrix, kernel) pair, for the
    // retry paths of both gates. Rebuilding the kernel is part of the
    // point: a stale schedule resolution or a cold structure is exactly the
    // transient state a retry should not inherit.
    let remeasure = |m: &str, k: &str| -> Option<f64> {
        if m == STREAM_MATRIX {
            return match k {
                "sharded-spmv" => Some(measure(sharded.op.as_ref())),
                "csr-baseline" => Some(measure(&ParallelCsr::baseline(
                    stream_csr.clone(),
                    ctx.clone(),
                ))),
                _ => None,
            };
        }
        let csr = mats.iter().find(|(n, _)| *n == m).map(|(_, c)| c)?;
        match k {
            // The optimizer rows rebuild through their own entry points;
            // the tuned rebuild hits the plan cache, so a retry re-times
            // the winning kernel rather than re-running the search.
            "adaptive" => Some(measure(
                adaptive_opt
                    .optimize_profiled(csr, &tune_profiler)
                    .kernel
                    .as_ref(),
            )),
            "tuned" => Some(measure(
                tuner.optimize_profiled(csr, &tune_profiler).kernel.as_ref(),
            )),
            "serve-sequential" => Some(measure_serving(&ctx, csr, plan_cache_path, false).gflops),
            "serve-coalesced" => Some(measure_serving(&ctx, csr, plan_cache_path, true).gflops),
            "serve-p99-inv" => Some(measure_serving(&ctx, csr, plan_cache_path, true).p99_inv),
            _ => {
                let (_, op) = kernels(csr, &ctx).into_iter().find(|(n, _)| *n == k)?;
                Some(measure(op.as_ref()))
            }
        }
    };

    let mut failed = false;
    println!("vectorization no-loss gate (best of sell / csr-simd vs csr-baseline):");
    for (mname, base, best, which) in &vec_gate {
        let (mut base, mut best, mut which) = (*base, *best, *which);
        // On an apparent loss, re-measure the scalar reference and both
        // vectorized contenders together, so the comparison happens inside
        // one noise window instead of pitting a lucky baseline sample
        // against an unlucky vectorized one.
        let mut tries = 0;
        while best < base && tries < RETRIES {
            tries += 1;
            let Some(new_base) = remeasure(mname, "csr-baseline") else {
                break;
            };
            base = new_base;
            best = 0.0;
            which = "none";
            for k in ["sell", "csr-simd"] {
                if let Some(v) = remeasure(mname, k) {
                    if v > best {
                        best = v;
                        which = k;
                    }
                }
            }
        }
        let ratio = best / base.max(1e-12);
        let verdict = if best < base {
            "FAIL"
        } else if tries > 0 {
            "ok (retried)"
        } else {
            "ok"
        };
        println!("  {mname:>16}: {which:<8} {best:>8.3} vs {base:>8.3}  ({ratio:.2}x)  {verdict}");
        if best < base {
            eprintln!(
                "FAIL: best vectorized kernel loses to scalar csr-baseline on {mname} \
                 ({best:.3} < {base:.3} Gflop/s)"
            );
            failed = true;
        }
    }

    // Tuning no-loss gate: the plan the tuning service promotes must never
    // measure slower than the classifier's one-shot plan. When the tuner
    // kept the classifier's own plan the two rows time the *same* kernel
    // configuration and the comparison is pure noise, so the gate holds by
    // construction; when a promotion happened, the independently
    // re-measured win is enforced (with the standard retry protocol).
    println!("tuning no-loss gate (tuned service vs classifier one-shot):");
    for (mname, a_gf, t_gf, a_label, t_label) in &tune_gate {
        if a_label == t_label {
            println!(
                "  {mname:>16}: tuned kept the classifier plan [{t_label}] \
                 ({t_gf:.3} vs {a_gf:.3})  ok (same plan)"
            );
            continue;
        }
        let (mut a, mut t) = (*a_gf, *t_gf);
        let mut tries = 0;
        while t < a && tries < RETRIES {
            tries += 1;
            // Re-measure both sides inside one noise window.
            let (Some(na), Some(nt)) = (remeasure(mname, "adaptive"), remeasure(mname, "tuned"))
            else {
                break;
            };
            a = na;
            t = nt;
        }
        let verdict = if t < a {
            "FAIL"
        } else if tries > 0 {
            "ok (retried)"
        } else {
            "ok"
        };
        println!(
            "  {mname:>16}: tuned [{t_label}] {t:>8.3} vs adaptive [{a_label}] {a:>8.3}  {verdict}"
        );
        if t < a {
            eprintln!(
                "FAIL: tuned plan loses to the classifier one-shot on {mname} \
                 ({t:.3} < {a:.3} Gflop/s)"
            );
            failed = true;
        }
    }
    let tstats = tuner.stats();
    println!(
        "plan tuner: {} hit(s), {} miss(es), {} promotion(s), {} timed trial(s); cache -> {plan_cache_path}",
        tstats.hits, tstats.misses, tstats.promotions, tstats.timed_trials
    );

    // Sharded no-loss gate: with every shard kernel resident, streaming
    // through the container must not lose to the whole-matrix scalar CSR
    // baseline — the per-shard formats have to buy back the per-shard
    // dispatch overhead. Correctness and residency failures recorded above
    // fail here too.
    {
        for msg in &shard_failures {
            eprintln!("FAIL: {msg}");
            failed = true;
        }
        let mut tries = 0;
        while shard_gf < shard_base_gf && tries < RETRIES {
            tries += 1;
            // Re-measure both sides inside one noise window.
            shard_gf = measure(sharded.op.as_ref());
            shard_base_gf = measure(&ParallelCsr::baseline(stream_csr.clone(), ctx.clone()));
        }
        let ratio = shard_gf / shard_base_gf.max(1e-12);
        let verdict = if shard_gf < shard_base_gf {
            "FAIL"
        } else if tries > 0 {
            "ok (retried)"
        } else {
            "ok"
        };
        println!(
            "sharded no-loss gate on {STREAM_MATRIX}: sharded-spmv {shard_gf:.3} vs \
             csr-baseline {shard_base_gf:.3} Gflop/s ({ratio:.2}x at window {sharded_window})  {verdict}"
        );
        if shard_gf < shard_base_gf {
            eprintln!(
                "FAIL: sharded out-of-core SpMV loses to the whole-matrix CSR baseline on \
                 {STREAM_MATRIX} ({shard_gf:.3} < {shard_base_gf:.3} Gflop/s)"
            );
            failed = true;
        }
    }

    // Serving coalescing acceptance gate: folding a backlog of
    // single-vector requests into SpMM batches must pay — batched
    // throughput ≥ 1.5x the closed-loop one-at-a-time rate on the banded
    // member, at an effective batch width of at least 4. Both halves are
    // enforced: a coalescer that silently stopped batching (width → 1)
    // fails the width condition rather than disarming the ratio check.
    {
        let mut tries = 0;
        while (serve_coal.mean_batch < 4.0 || serve_coal.gflops < 1.5 * serve_seq.gflops)
            && tries < RETRIES
        {
            tries += 1;
            // Re-measure both modes inside one noise window.
            serve_seq = measure_serving(&ctx, &serve_csr, plan_cache_path, false);
            serve_coal = measure_serving(&ctx, &serve_csr, plan_cache_path, true);
        }
        let ratio = serve_coal.gflops / serve_seq.gflops.max(1e-12);
        let verdict = if serve_coal.mean_batch < 4.0 || ratio < 1.5 {
            "FAIL"
        } else if tries > 0 {
            "ok (retried)"
        } else {
            "ok"
        };
        println!(
            "serving coalescing gate on {SERVE_MATRIX} [plan {}]: coalesced {:.3} vs sequential \
             {:.3} Gflop/s ({ratio:.2}x at mean batch {:.1}, need >= 1.50x at width >= 4)  {verdict}",
            serve_coal.plan, serve_coal.gflops, serve_seq.gflops, serve_coal.mean_batch
        );
        if serve_coal.mean_batch < 4.0 {
            eprintln!(
                "FAIL: serving coalescer achieved mean batch {:.2} (< 4) on a {SERVE_REQUESTS}-deep backlog",
                serve_coal.mean_batch
            );
            failed = true;
        } else if ratio < 1.5 {
            eprintln!(
                "FAIL: coalesced serving throughput is only {ratio:.2}x the one-at-a-time rate \
                 on {SERVE_MATRIX} (needs >= 1.5x)"
            );
            failed = true;
        }
    }

    // Merge-path acceptance comparison. The structural win only exists when
    // the hub row overflows a whole-row nonzero quota — hub_share > 1 /
    // nthreads — so the wall-clock gate is armed only when the hub fills at
    // least 1.5 quotas (e.g. a ~33% hub needs ≥ 5 threads); below that the
    // comparison is informational and the deterministic modeled gate in
    // tests/merge_path.rs carries the criterion.
    println!(
        "merge-path on powerlaw-hub-8k: merge {hub_merge:.3} Gflop/s vs best whole-row {hub_best_whole_row:.3} Gflop/s"
    );
    if hub_share * nthreads as f64 >= 1.5 {
        if hub_merge <= hub_best_whole_row {
            eprintln!("FAIL: merge-path must beat every whole-row CSR schedule on the hub matrix");
            failed = true;
        }
    } else {
        println!(
            "  (hub holds {:.0}% of nonzeros — with {nthreads} thread(s) a whole-row quota can \
             still contain it, so the comparison is not gated here; tests/merge_path.rs gates the \
             modeled equivalent)",
            hub_share * 100.0
        );
    }

    // SpTRSV no-loss gate: on the wide-DAG SPD member, level-scheduled must
    // reach at least the serial-substitution rate once more than one thread
    // participates. At one thread the level kernel *is* serial (construction
    // downgrades it), so the comparison is reported but not gated.
    println!(
        "sptrsv on {SPTRSV_GATE_MATRIX}: level {trsv_level:.3} Gflop/s vs serial {trsv_serial:.3} Gflop/s"
    );
    if nthreads > 1 {
        let mut tries = 0;
        while trsv_level < trsv_serial && tries < RETRIES {
            tries += 1;
            // Re-measure both sides inside one noise window, like the
            // vectorization gate does.
            if let Some((_, csr)) = mats.iter().find(|(n, _)| *n == SPTRSV_GATE_MATRIX) {
                for (kname, kernel) in trsv_kernels(csr, &ctx) {
                    let gf = measure_trsv(&kernel);
                    match kname {
                        "sptrsv-serial" => trsv_serial = gf,
                        "sptrsv-level" => trsv_level = gf,
                        _ => {}
                    }
                }
            }
        }
        if trsv_level < trsv_serial {
            eprintln!(
                "FAIL: level-scheduled SpTRSV loses to serial substitution on \
                 {SPTRSV_GATE_MATRIX} ({trsv_level:.3} < {trsv_serial:.3} Gflop/s) at {nthreads} threads"
            );
            failed = true;
        }
    } else {
        println!("  (single-threaded host: level-scheduling cannot engage, comparison not gated)");
    }

    // Preconditioned-CG iteration pin (deterministic — no timing noise):
    // IC(0) on the Poisson stencil must converge in at most half the
    // Jacobi-preconditioned iterations at the same tolerance, the
    // acceptance criterion for the preconditioning layer. Mirrors the
    // hard pin in tests/trsv_equivalence.rs so a bench-tier run catches a
    // factorization regression even when the test tier is skipped.
    {
        use sparseopt_solver::{cg, Ic0Precond, JacobiPrecond, SolverOptions};
        let (_, poisson) = mats
            .iter()
            .find(|(n, _)| *n == "poisson2d-96")
            .expect("poisson2d-96 is a pinned suite member");
        let op = SerialCsr::new(poisson.clone());
        let b: Vec<f64> = (0..poisson.nrows())
            .map(|i| 1.0 + (i as f64 * 0.07).sin())
            .collect();
        let opts = SolverOptions {
            tol: 1e-8,
            max_iters: 2_000,
        };
        let jacobi = JacobiPrecond::new(poisson).expect("Poisson diagonal");
        let ic = Ic0Precond::new(poisson).expect("Poisson is SPD");
        let mut x = vec![0.0; poisson.nrows()];
        let out_j = cg(&op, &b, &mut x, &jacobi, &opts);
        x.fill(0.0);
        let out_ic = cg(&op, &b, &mut x, &ic, &opts);
        println!(
            "preconditioned CG on poisson2d-96: jacobi {} iters, ic0 {} iters",
            out_j.iterations, out_ic.iterations
        );
        if !out_j.converged || !out_ic.converged {
            eprintln!("FAIL: preconditioned CG did not converge on poisson2d-96");
            failed = true;
        } else if 2 * out_ic.iterations > out_j.iterations {
            eprintln!(
                "FAIL: IC(0)-CG needs {} iterations, more than half of Jacobi-CG's {}",
                out_ic.iterations, out_j.iterations
            );
            failed = true;
        }
    }

    write_json(&out_path, nthreads, &entries).expect("failed to write results JSON");
    println!("wrote {out_path}");
    if write_baseline {
        // Re-seeding is an explicit request, but it must never launder a
        // failed acceptance comparison into a green exit.
        write_json(&baseline_path, nthreads, &entries).expect("failed to write baseline JSON");
        println!("wrote {baseline_path}");
        if failed {
            eprintln!(
                "\nci_bench: FAILED (baseline written, but the acceptance comparison failed)"
            );
            std::process::exit(1);
        }
        println!("\nci_bench: ok");
        return;
    }

    // Regression gate against the committed baseline. A missing file skips
    // the gate (seed one with --write-baseline); an *unreadable* file is a
    // hard failure — a corrupt baseline must never silently turn the gate
    // off. Absolute Gflop/s only compare on the same hardware shape; when
    // the baseline was recorded with a different thread count (e.g. seeded
    // on a laptop, gated on a CI runner) the gate falls back to comparing
    // each kernel's per-matrix speedup over that host's own csr-baseline —
    // a host-portable shape — at doubled tolerance, so the tier still
    // catches a kernel collapsing instead of going silently inert.
    if !std::path::Path::new(&baseline_path).exists() {
        println!(
            "no baseline at {baseline_path}; regression gate skipped (run --write-baseline to seed it)"
        );
    } else {
        match read_json(&baseline_path) {
            Err(e) => {
                eprintln!("FAIL: unreadable baseline: {e}");
                failed = true;
            }
            Ok((base_threads, baseline)) if base_threads != nthreads => {
                let rel_tol = (2.0 * tolerance).min(0.9);
                println!(
                    "\nbaseline recorded on {base_threads} thread(s), this host has {nthreads}: \
                     absolute Gflop/s are not comparable; gating per-matrix speedups over \
                     csr-baseline instead (tolerance {:.0}%):",
                    rel_tol * 100.0
                );
                let lookup = |set: &[Entry], m: &str, k: &str| {
                    set.iter()
                        .find(|e| e.matrix == m && e.kernel == k)
                        .map(|e| e.gflops)
                };
                for b in &baseline {
                    if b.kernel == "csr-baseline" {
                        continue;
                    }
                    let refs = (
                        lookup(&baseline, &b.matrix, "csr-baseline"),
                        lookup(&entries, &b.matrix, "csr-baseline"),
                        lookup(&entries, &b.matrix, &b.kernel),
                    );
                    let (Some(base_ref), Some(new_ref), Some(new_abs)) = refs else {
                        eprintln!(
                            "FAIL: {}/{} missing from the suite or its csr-baseline reference",
                            b.matrix, b.kernel
                        );
                        failed = true;
                        continue;
                    };
                    let ratio_base = b.gflops / base_ref.max(1e-12);
                    let mut ratio_new = new_abs / new_ref.max(1e-12);
                    let floor = ratio_base * (1.0 - rel_tol);
                    let mut tries = 0;
                    while ratio_new < floor && tries < RETRIES {
                        tries += 1;
                        match remeasure(&b.matrix, &b.kernel) {
                            Some(again) => ratio_new = ratio_new.max(again / new_ref.max(1e-12)),
                            None => break,
                        }
                    }
                    let verdict = if ratio_new < floor {
                        "REGRESSED"
                    } else if tries > 0 {
                        "ok (retried)"
                    } else {
                        "ok"
                    };
                    println!(
                        "  {:>16}/{:<13} speedup {:>6.3} vs baseline {:>6.3}  {verdict}",
                        b.matrix, b.kernel, ratio_new, ratio_base
                    );
                    if ratio_new < floor {
                        failed = true;
                    }
                }
            }
            Ok((_, baseline)) => {
                println!(
                    "\nregression gate vs {baseline_path} (tolerance {:.0}%):",
                    tolerance * 100.0
                );
                for b in &baseline {
                    match entries
                        .iter()
                        .find(|e| e.matrix == b.matrix && e.kernel == b.kernel)
                    {
                        None => {
                            eprintln!("FAIL: {}/{} vanished from the suite", b.matrix, b.kernel);
                            failed = true;
                        }
                        Some(e) => {
                            let floor = b.gflops * (1.0 - tolerance);
                            let mut gf = e.gflops;
                            let mut tries = 0;
                            while gf < floor && tries < RETRIES {
                                tries += 1;
                                match remeasure(&b.matrix, &b.kernel) {
                                    Some(again) => gf = gf.max(again),
                                    None => break,
                                }
                            }
                            let verdict = if gf < floor {
                                "REGRESSED"
                            } else if tries > 0 {
                                "ok (retried)"
                            } else {
                                "ok"
                            };
                            println!(
                                "  {:>16}/{:<13} {:>8.3} vs baseline {:>8.3}  {verdict}",
                                b.matrix, b.kernel, gf, b.gflops
                            );
                            if gf < floor {
                                failed = true;
                            }
                        }
                    }
                }
            }
        }
    }

    if failed {
        eprintln!("\nci_bench: FAILED");
        std::process::exit(1);
    }
    println!("\nci_bench: ok");
}
