//! `ooc-update`: closed-loop applies of a `ShardedOp` tuned per shard by
//! `PlanTuner::optimize_sharded`, while one writer thread stages seeded COO
//! deltas at a fixed rate that crosses the compaction threshold several
//! times per run.

use crate::util::{abs_row_scale, median, quantile, Digest, Rng, REL_TOL};
use crate::{Cx, Outcome};
use sparseopt_classifier::SimBoundsProfiler;
use sparseopt_core::kernels::{
    peak_resident_shard_bytes, reset_peak_resident_shard_bytes, ShardedOp,
};
use sparseopt_core::prelude::*;
use sparseopt_matrix::{generators, write_shard_file, ShardStore};
use sparseopt_optimizer::{PlanCache, PlanTuner, TunedShardedOp};
use sparseopt_sim::Platform;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the degree-sorted power-law matrix.
const N: usize = 200_000;
const AVG_NNZ: usize = 8;
/// 16 row-block shards.
const ROWS_PER_SHARD: usize = 12_500;
/// Resident shard kernels; smaller than the shard count, so every apply
/// reloads and rebuilds shards.
const WINDOW: usize = 4;
/// Cold set-ups (container open plus per-shard tuning) per run, each
/// followed by its share of the measured seconds; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Deltas staged per second by the writer thread.
const DELTA_RATE: f64 = 20_000.0;

/// The `i`-th staged delta of a seed: `a[row][col] += value`.
fn delta(seed: u64, i: usize) -> (usize, usize, f64) {
    let mut rng = Rng::new(seed ^ 0x0D17_A000, i as u64);
    (rng.below(N), rng.below(N), rng.range(-0.01, 0.01))
}

struct Inputs {
    csr: CsrMatrix,
    x: Vec<f64>,
}

/// A fixed degree-sorted power-law structure with seeded values, so every
/// seed streams the same shards; the seed sets the values, the operand and
/// the deltas.
fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 400);
    let mut csr = CsrMatrix::from_coo(&generators::power_law_sorted(N, AVG_NNZ, 0.9, 7));
    for v in csr.values_mut() {
        *v = rng.range(-1.0, 1.0);
    }
    let x = rng.vector(N);
    Inputs { csr, x }
}

fn digest_of(inp: &Inputs, seed: u64) -> u64 {
    let mut d = Digest::default();
    d.csr(&inp.csr);
    d.f64s(&inp.x);
    for i in 0..4096 {
        let (r, c, v) = delta(seed, i);
        d.u64(r as u64);
        d.u64(c as u64);
        d.u64(v.to_bits());
    }
    d.finish()
}

pub fn inputs_digest(seed: u64) -> u64 {
    digest_of(&generate(seed), seed)
}

struct SetUp {
    tuned: TunedShardedOp,
    store: Arc<ShardStore>,
    open_s: f64,
    tune_s: f64,
}

fn set_up(cx: &Cx, path: &Path, rep: usize) -> Result<SetUp, String> {
    let cache_path = cx.work.join(format!("ooc-plans-{rep}.json"));
    let _ = std::fs::remove_file(&cache_path);
    let t0 = Instant::now();
    let store = {
        let _s = cx.tracer.span("matrix.shard_open", 0);
        Arc::new(ShardStore::open(path).map_err(|e| e.to_string())?)
    };
    let open_s = t0.elapsed().as_secs_f64();
    let tuner = PlanTuner::with_cache(cx.exec.clone(), PlanCache::at_path(&cache_path).0);
    let profiler = SimBoundsProfiler::new(Platform::broadwell());
    let t1 = Instant::now();
    let tuned = {
        let _s = cx.tracer.span("optimizer.optimize_sharded", 0);
        tuner
            .optimize_sharded(store.clone(), &profiler, Platform::broadwell(), WINDOW)
            .map_err(|e| e.to_string())?
    };
    Ok(SetUp {
        tuned,
        store,
        open_s,
        tune_s: t1.elapsed().as_secs_f64(),
    })
}

/// The serial reference with every delta below a staged count folded in.
#[derive(Clone)]
struct Reference {
    y: Vec<f64>,
    scale: Vec<f64>,
    folded: usize,
}

impl Reference {
    fn advance(&mut self, seed: u64, x: &[f64], upto: usize) {
        for i in self.folded..upto {
            let (r, c, v) = delta(seed, i);
            self.y[r] += v * x[c];
            self.scale[r] += (v * x[c]).abs();
        }
        self.folded = self.folded.max(upto);
    }

    /// Checks one apply. Deltas below `self.folded` were staged before the
    /// apply began; deltas in `self.folded..begun` raced with it, and each
    /// row may show any prefix of its racing deltas.
    fn check(&self, seed: u64, x: &[f64], y: &[f64], begun: usize) -> Result<(), String> {
        let mut racing: HashMap<usize, Vec<f64>> = HashMap::new();
        for i in self.folded..begun {
            let (r, c, v) = delta(seed, i);
            racing.entry(r).or_default().push(v * x[c]);
        }
        for (r, (&got, &want)) in y.iter().zip(&self.y).enumerate() {
            let ok = match racing.get(&r) {
                None => (got - want).abs() <= REL_TOL * self.scale[r] + f64::MIN_POSITIVE,
                Some(parts) => {
                    let tol = REL_TOL
                        * (self.scale[r] + parts.iter().map(|p| p.abs()).sum::<f64>())
                        + f64::MIN_POSITIVE;
                    let mut acc = want;
                    let mut any = (got - acc).abs() <= tol;
                    for p in parts {
                        acc += p;
                        any |= (got - acc).abs() <= tol;
                    }
                    any
                }
            };
            if !ok {
                return Err(format!("row {r}: got {got:e}, reference {want:e}"));
            }
        }
        Ok(())
    }
}

/// What one measured cycle saw.
#[derive(Default)]
struct Cycle {
    apply_ms: Vec<f64>,
    stage_us: Vec<f64>,
    compactions: usize,
    delta_nnz: usize,
    wall_s: f64,
}

/// Closed-loop applies of `op` beside the delta writer for `secs`, each
/// checked against `reference`.
fn measure(
    cx: &Cx,
    out: &mut Outcome,
    op: &Arc<ShardedOp>,
    x: &[f64],
    mut reference: Reference,
    secs: f64,
) -> Cycle {
    let begun = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut cycle = Cycle::default();
    let wall = Instant::now();
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let start = Instant::now();
            let mut staged = 0usize;
            let mut stage_us = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let due = (start.elapsed().as_secs_f64() * DELTA_RATE) as usize;
                while staged < due {
                    let (r, c, v) = delta(cx.seed, staged);
                    begun.store(staged + 1, Ordering::SeqCst);
                    let t0 = Instant::now();
                    op.stage_delta(r, c, v);
                    if cx.tracer.enabled() {
                        stage_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    done.store(staged + 1, Ordering::SeqCst);
                    staged += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            stage_us
        });
        let deadline = wall + Duration::from_secs_f64(secs);
        let mut y = vec![0.0; N];
        while Instant::now() < deadline {
            reference.advance(cx.seed, x, done.load(Ordering::SeqCst));
            let t0 = Instant::now();
            {
                let _s = cx.tracer.span("core.sharded_apply", 0);
                op.apply(Apply::NoTrans, x, &mut y);
            }
            cycle.apply_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            if let Err(e) = reference.check(cx.seed, x, &y, begun.load(Ordering::SeqCst)) {
                out.fail(format!(
                    "sharded apply differs from the serial reference: {e}"
                ));
            }
        }
        stop.store(true, Ordering::SeqCst);
        cycle.stage_us = writer.join().expect("writer thread");
    });
    cycle.wall_s = wall.elapsed().as_secs_f64();
    op.wait_for_compactions();
    cycle.compactions = op.compactions_completed();
    cycle.delta_nnz = op.delta_nnz();
    cycle
}

pub fn run(cx: &Cx) -> Outcome {
    let mut out = Outcome::default();
    let inp = {
        let _s = cx.tracer.span("bench.generate", 0);
        generate(cx.seed)
    };
    out.digest = digest_of(&inp, cx.seed);
    out.matrix_bytes = inp.csr.footprint_bytes();
    let base_nnz = inp.csr.nnz();
    let path = cx.work.join("matrix.shards");
    if let Err(e) = write_shard_file(&path, &inp.csr, ROWS_PER_SHARD) {
        out.fail(format!("cannot write the shard container: {e}"));
        return out;
    }
    let base = {
        let mut y = vec![0.0; N];
        let csr = Arc::new(inp.csr);
        SerialCsr::new(csr.clone()).spmv(&inp.x, &mut y);
        Reference {
            y,
            scale: abs_row_scale(&csr, &inp.x),
            folded: 0,
        }
    };
    let x = inp.x;

    // Cycles of a cold set-up followed by a share of the measured seconds:
    // each cycle draws the per-shard plans anew, and the pooled applies
    // cover every draw.
    let (mut setups, mut opens, mut tunes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut apply_ms, mut stage_us) = (Vec::new(), Vec::new());
    let (mut compactions, mut delta_nnz, mut measured_s) = (0, 0, 0.0);
    let (mut distinct_plans, mut peak_resident_mb) = (0usize, 0.0f64);
    let mut load_ms = Vec::new();
    for rep in 0..SETUP_REPS {
        let su = match set_up(cx, &path, rep) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("set-up failed: {e}"));
                continue;
            }
        };
        setups.push(su.open_s + su.tune_s);
        opens.push(su.open_s);
        tunes.push(su.tune_s);
        for (i, p) in su.tuned.shard_plans.iter().enumerate() {
            out.plans
                .push((format!("shard{i:02}"), p.plan_label.clone()));
        }
        distinct_plans = distinct_plans.max(su.tuned.distinct_plan_labels().len());
        reset_peak_resident_shard_bytes();
        let secs = cx.seconds / SETUP_REPS as f64;
        let cycle = measure(cx, &mut out, &su.tuned.op, &x, base.clone(), secs);
        peak_resident_mb = peak_resident_mb.max(peak_resident_shard_bytes() as f64 / 1e6);
        apply_ms.extend(cycle.apply_ms);
        stage_us.extend(cycle.stage_us);
        compactions += cycle.compactions;
        delta_nnz += cycle.delta_nnz;
        measured_s += cycle.wall_s;
        if cx.tracer.enabled() {
            // Shard loads, timed on the store the operator streams from.
            for i in 0..su.store.nshards() {
                let _s = cx.tracer.span("matrix.shard_load", 0);
                let t0 = Instant::now();
                if su.store.load(i).is_err() {
                    out.fail(format!("shard {i} failed to load"));
                }
                load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    if setups.is_empty() {
        return out;
    }

    let p50 = median(&apply_ms);
    let p90 = quantile(&apply_ms, 0.9);
    let e2e = [
        ("setup_s", median(&setups), "s"),
        ("op_p50_ms", p50, "ms"),
        ("op_tail_ms", p90, "ms"),
        ("ops_per_s", apply_ms.len() as f64 / measured_s, "1/s"),
    ];
    for (n, v, u) in e2e {
        out.e2e(n, v, u);
    }
    out.named("apply_p50_ms", p50, "ms");
    out.named("apply_p90_ms", p90, "ms");
    out.named("applies", apply_ms.len() as f64, "count");
    out.named("peak_resident_mb", peak_resident_mb, "MB");
    out.named(
        "spmv_gflops",
        2.0 * base_nnz as f64 / (p50 / 1e3) / 1e9,
        "Gflop/s",
    );

    if cx.tracer.enabled() {
        out.layer("matrix.shard_open_s", median(&opens), "s");
        out.layer("matrix.shard_load_ms", median(&load_ms), "ms");
        out.layer("matrix.shard_loads", load_ms.len() as f64, "count");
        out.layer("optimizer.sharded_tune_s", median(&tunes), "s");
        out.layer(
            "optimizer.distinct_shard_plans",
            distinct_plans as f64,
            "count",
        );
        out.layer("core.ooc.compactions", compactions as f64, "count");
        out.layer("core.ooc.delta_nnz", delta_nnz as f64, "count");
        out.layer("core.ooc.stage_delta_us", quantile(&stage_us, 0.99), "us");
        out.layer("core.ooc.peak_resident_mb", peak_resident_mb, "MB");
    }
    out
}
