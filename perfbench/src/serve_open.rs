//! `serve-open`: open loop. Seeded Poisson arrivals go to one `SpmvServer`
//! holding three cache-resident matrices with skewed popularity; the load
//! steps through fixed rates below, near and above the coalescing knee.

use crate::trace::Tracer;
use crate::util::{abs_row_scale, median, median_secs, quantile, rows_match, Digest, Rng};
use crate::{Cx, Outcome};
use sparseopt_classifier::SimBoundsProfiler;
use sparseopt_core::prelude::*;
use sparseopt_matrix::{generators, MatrixFingerprint};
use sparseopt_optimizer::{OpRequirements, PlanCache, PlanTuner};
use sparseopt_serve::{MatrixId, Reply, ServeConfig, ServeError, SpmvServer, TenantId, Ticket};
use sparseopt_sim::Platform;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served matrices (the `ci_bench` shapes), hottest first.
pub const MATRICES: [&str; 3] = ["band", "hub", "random"];

/// Share of arrivals per matrix, in [`MATRICES`] order.
const POPULARITY: [f64; 3] = [0.7, 0.2, 0.1];

/// Fixed offered rates in requests per second, ascending: mostly lone
/// requests, the reference rate where the hot matrix starts to coalesce,
/// half the one-at-a-time capacity on the host the benchmark was written
/// on, and far above capacity. The steps sit away from the knee so that the
/// pass/fail pattern survives the host's capacity varying by half.
pub const RATES: [u32; 4] = [750, 1500, 3000, 12000];

/// Share of the measured seconds each rate step runs for.
const STEP_SHARE: [f64; 4] = [0.15, 0.45, 0.3, 0.1];

/// The reference rate at which `req_p50_ms` and `req_p99_ms` are read.
const REF_RATE: u32 = 1500;

/// The p99 latency limit `max_rps_at_slo` is judged against.
const SLO_P99_MS: f64 = 50.0;

/// Consecutive requests per percentile window: a step's percentiles are
/// medians of its windows' percentiles (each window's p99 has ten samples
/// beyond it), so a stall of the shared host that covers part of a step
/// moves some windows and not the step.
const WINDOW: usize = 1000;

/// Operand vectors per matrix; requests draw one at random, so every reply
/// has a precomputed serial reference.
const X_POOL: usize = 8;

/// Server constructions (with registration) per run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 15;

/// No tenant is ever shed: an overloaded step shows up as latency and
/// backlog, not as refused requests.
const TENANT_CAPACITY: usize = 1 << 20;

struct Inputs {
    mats: Vec<Arc<CsrMatrix>>,
    xs: Vec<Vec<Vec<f64>>>,
}

/// The `ci_bench` structures with seeded values, so every seed serves the
/// same shapes; the seed sets the values, operands and arrivals.
fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 200);
    let mats: Vec<Arc<CsrMatrix>> = [
        generators::banded(20_000, 4),
        generators::power_law_hub(8192, 2, 11),
        generators::random_uniform(8192, 8, 1),
    ]
    .iter()
    .map(|c| {
        let mut m = CsrMatrix::from_coo(c);
        for v in m.values_mut() {
            *v = rng.range(-1.0, 1.0);
        }
        Arc::new(m)
    })
    .collect();
    let xs = mats
        .iter()
        .map(|m| (0..X_POOL).map(|_| rng.vector(m.ncols())).collect())
        .collect();
    Inputs { mats, xs }
}

fn digest_of(inp: &Inputs) -> u64 {
    let mut d = Digest::default();
    for (m, xs) in inp.mats.iter().zip(&inp.xs) {
        d.csr(m);
        for x in xs {
            d.f64s(x);
        }
    }
    d.finish()
}

pub fn inputs_digest(seed: u64) -> u64 {
    digest_of(&generate(seed))
}

/// Serial reference result and its per-row error scale.
struct Reference {
    y: Vec<f64>,
    scale: Vec<f64>,
}

struct Pending {
    ticket: Ticket,
    due: Instant,
    matrix: usize,
    xi: usize,
    req: u64,
}

#[derive(Default)]
struct Step {
    rate: u32,
    /// Arrivals actually offered per second over the step.
    offered_rps: f64,
    latencies_ms: Vec<f64>,
    per_matrix: [u64; 3],
    gen_lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    backlog_end: u64,
    /// The step stopped early on a backlog twice the growing limit.
    aborted: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    batches: u64,
    completed: u64,
    coalesced: u64,
}

impl Step {
    /// Median over the step's windows of their `q` quantile.
    fn windowed(&self, q: f64) -> f64 {
        let windows: Vec<f64> = self
            .latencies_ms
            .chunks(WINDOW)
            .filter(|w| w.len() == WINDOW || self.latencies_ms.len() < WINDOW)
            .map(|w| quantile(w, q))
            .collect();
        median(&windows)
    }

    /// p99 with every failed request counted as missing any limit.
    fn p99_ms(&self) -> f64 {
        if self.failed > 0 || self.aborted {
            return f64::INFINITY;
        }
        self.windowed(0.99)
    }

    fn meets_slo(&self) -> bool {
        self.p99_ms() <= SLO_P99_MS && (self.backlog_end as f64) <= backlog_limit(self.rate)
    }
}

/// A backlog beyond what the latency limit itself would queue is growing.
fn backlog_limit(rate: u32) -> f64 {
    rate as f64 * SLO_P99_MS / 1e3 + 16.0
}

/// Collects replies as they complete and checks each against its reference.
fn collect(
    rx: mpsc::Receiver<Pending>,
    refs: &[Vec<Reference>],
    tracer: &Tracer,
    completed: &AtomicU64,
) -> (Vec<f64>, [u64; 3], u64, Vec<String>) {
    let mut pending: VecDeque<Pending> = VecDeque::new();
    // (request id, latency), put back in arrival order at the end.
    let mut lat: Vec<(u64, f64)> = Vec::new();
    let (mut per_matrix, mut failed, mut errors) = ([0u64; 3], 0, Vec::new());
    let mut finish = |p: &Pending, res: Result<Reply, ServeError>, at: Instant| {
        completed.fetch_add(1, Ordering::Relaxed);
        tracer.record("serve.request", p.req, p.due, at);
        let r = &refs[p.matrix][p.xi];
        match res {
            Ok(Reply::Vector(y)) if rows_match(&y, &r.y, &r.scale) => {
                lat.push((
                    p.req,
                    at.saturating_duration_since(p.due).as_secs_f64() * 1e3,
                ));
                per_matrix[p.matrix] += 1;
            }
            other => {
                failed += 1;
                if errors.len() < 4 {
                    let why = match other {
                        Ok(_) => "reply differs from the serial reference".to_string(),
                        Err(e) => e.to_string(),
                    };
                    errors.push(format!("{} request {}: {why}", MATRICES[p.matrix], p.req));
                }
            }
        }
    };
    loop {
        if pending.is_empty() {
            match rx.recv() {
                Ok(p) => pending.push_back(p),
                Err(_) => break,
            }
        }
        while let Ok(p) = rx.try_recv() {
            pending.push_back(p);
        }
        // Block briefly on the oldest, then sweep everything that is done.
        if let Some(res) = pending[0].ticket.wait_timeout(Duration::from_micros(200)) {
            let p = pending.pop_front().expect("non-empty");
            finish(&p, res, Instant::now());
        }
        let mut i = 0;
        while i < pending.len() {
            if let Some(res) = pending[i].ticket.wait_timeout(Duration::ZERO) {
                let p = pending.remove(i).expect("in range");
                finish(&p, res, Instant::now());
            } else {
                i += 1;
            }
        }
    }
    lat.sort_by_key(|&(req, _)| req);
    let lat = lat.into_iter().map(|(_, ms)| ms).collect();
    (lat, per_matrix, failed, errors)
}

#[allow(clippy::too_many_arguments)]
fn run_step(
    server: &SpmvServer,
    tenant: TenantId,
    ids: &[MatrixId],
    inp: &Inputs,
    refs: &[Vec<Reference>],
    rate: u32,
    secs: f64,
    rng: &mut Rng,
    tracer: &Tracer,
    next_req: &mut u64,
) -> Step {
    let before = server.stats();
    let mut step = Step {
        rate,
        ..Step::default()
    };
    let (tx, rx) = mpsc::channel::<Pending>();
    let completed = AtomicU64::new(0);
    let abort_at = 2.0 * backlog_limit(rate);
    let collected = std::thread::scope(|s| {
        let completed = &completed;
        let collector = s.spawn(move || collect(rx, refs, tracer, completed));
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(secs);
        let mut due = start;
        loop {
            due += Duration::from_secs_f64(rng.exp(1.0 / rate as f64));
            if due >= end {
                break;
            }
            if (step.attempted - completed.load(Ordering::Relaxed)) as f64 > abort_at {
                step.aborted = true;
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            step.gen_lag_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            let u = rng.unit();
            let matrix = if u < POPULARITY[0] {
                0
            } else if u < POPULARITY[0] + POPULARITY[1] {
                1
            } else {
                2
            };
            let xi = rng.below(X_POOL);
            let x = inp.xs[matrix][xi].clone();
            *next_req += 1;
            let req = *next_req;
            step.attempted += 1;
            let submitted = {
                let _s = tracer.span("serve.submit", req);
                let t0 = Instant::now();
                let r = server.submit(tenant, ids[matrix], x);
                step.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                r
            };
            match submitted {
                Ok(ticket) => {
                    let p = Pending {
                        ticket,
                        due,
                        matrix,
                        xi,
                        req,
                    };
                    tx.send(p).expect("collector alive");
                }
                Err(e) => {
                    step.failed += 1;
                    step.errors.push(format!("submit refused: {e}"));
                }
            }
        }
        let at_end = server.stats();
        step.backlog_end = at_end.submitted - at_end.completed;
        step.offered_rps = step.attempted as f64 / (secs.min(start.elapsed().as_secs_f64()));
        drop(tx);
        collector.join().expect("collector thread")
    });
    let (lat, per_matrix, failed, errors) = collected;
    step.latencies_ms = lat;
    step.per_matrix = per_matrix;
    step.failed += failed;
    step.errors.extend(errors);
    let after = server.stats();
    step.batches = after.batches - before.batches;
    step.completed = after.completed - before.completed;
    step.coalesced = after.coalesced - before.coalesced;
    step
}

/// Highest rate whose p99 meets the limit without a growing backlog,
/// interpolated between the last passing and the first failing step.
fn max_rps_at_slo(steps: &[Step]) -> f64 {
    match steps.iter().position(|s| !s.meets_slo()) {
        None => steps.last().map_or(0.0, |s| s.offered_rps),
        Some(0) => {
            let s = &steps[0];
            s.offered_rps * (SLO_P99_MS / s.p99_ms()).min(1.0)
        }
        Some(i) => {
            let (lo, hi) = (&steps[i - 1], &steps[i]);
            let (a, b) = (lo.p99_ms(), hi.p99_ms());
            if b.is_finite() && b > a && b > SLO_P99_MS {
                let f = ((SLO_P99_MS - a) / (b - a)).clamp(0.0, 1.0);
                lo.offered_rps + f * (hi.offered_rps - lo.offered_rps)
            } else {
                lo.offered_rps
            }
        }
    }
}

pub fn run(cx: &Cx) -> Outcome {
    let mut out = Outcome::default();
    let inp = {
        let _s = cx.tracer.span("bench.generate", 0);
        generate(cx.seed)
    };
    out.digest = digest_of(&inp);
    out.matrix_bytes = inp.mats.iter().map(|m| m.footprint_bytes()).sum();
    let refs: Vec<Vec<Reference>> = inp
        .mats
        .iter()
        .zip(&inp.xs)
        .map(|(m, xs)| {
            let serial = SerialCsr::new(m.clone());
            xs.iter()
                .map(|x| {
                    let mut y = vec![0.0; m.nrows()];
                    serial.spmv(x, &mut y);
                    Reference {
                        y,
                        scale: abs_row_scale(m, x),
                    }
                })
                .collect()
        })
        .collect();

    let cfg = ServeConfig {
        tenant_capacity: TENANT_CAPACITY,
        ..ServeConfig::default()
    };
    let profiler = SimBoundsProfiler::new(Platform::broadwell());
    let reqs = OpRequirements {
        transpose: false,
        multi_vec: true,
    };

    // Warm the plan cache exactly as registration tunes; a traced run also
    // times each tuned operator at width 1 and at the widest batch.
    let cache_path = cx.work.join("serve-plans.json");
    let _ = std::fs::remove_file(&cache_path);
    let tuner = PlanTuner::with_cache(cx.exec.clone(), PlanCache::at_path(&cache_path).0)
        .with_budget(cfg.tune_budget);
    for (i, (m, name)) in inp.mats.iter().zip(MATRICES).enumerate() {
        let tuned = {
            let _s = cx.tracer.span("optimizer.optimize_profiled", 0);
            tuner.optimize_profiled_for(m, &profiler, &reqs)
        };
        out.plans.push((name.to_string(), tuned.plan.label()));
        if cx.tracer.enabled() {
            for (w, label) in [(1, "k1"), (cfg.max_batch, "kmax")] {
                let xk = MultiVec::from_fn(m.ncols(), w, |r, c| inp.xs[i][c % X_POOL][r]);
                let mut yk = MultiVec::zeros(m.nrows(), w);
                let t = median_secs(50, || tuned.kernel.spmm(&xk, &mut yk));
                out.layer(&format!("core.spmm_ms.{label}.{name}"), t * 1e3, "ms");
            }
        }
    }
    drop(tuner);

    if cx.tracer.enabled() {
        let fp: Vec<f64> = inp
            .mats
            .iter()
            .map(|m| {
                let _s = cx.tracer.span("matrix.fingerprint", 0);
                median_secs(5, || {
                    MatrixFingerprint::extract(m, 32 << 20);
                }) * 1e3
            })
            .collect();
        out.layer("matrix.fingerprint_ms", fp.iter().sum(), "ms");
    }

    // Set-up: server construction plus warm registration, repeated.
    let mut setups = Vec::new();
    let mut registers = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take()); // join the previous server's workers outside the timing
        let t0 = Instant::now();
        let server = {
            let _s = cx.tracer.span("serve.construct", 0);
            SpmvServer::with_plan_cache(cx.exec.clone(), cfg, PlanCache::at_path(&cache_path).0)
        };
        let tenant = server.register_tenant("open-loop");
        let t1 = Instant::now();
        let ids: Vec<MatrixId> = inp
            .mats
            .iter()
            .zip(MATRICES)
            .map(|(m, name)| {
                let _s = cx.tracer.span("serve.register_matrix", 0);
                server.register_matrix(name, m.clone())
            })
            .collect();
        registers.push(t1.elapsed().as_secs_f64());
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((server, tenant, ids));
    }
    let (server, tenant, ids) = kept.expect("at least one set-up");
    let hits = ids
        .iter()
        .filter(|id| server.matrix_info(**id).is_some_and(|i| i.warm))
        .count();
    if hits != ids.len() {
        out.fail(format!(
            "only {hits} of {} registrations were warm",
            ids.len()
        ));
    }

    let mut rng = Rng::new(cx.seed, 300);
    let mut next_req = 0u64;
    let mut steps = Vec::new();
    for (&rate, share) in RATES.iter().zip(STEP_SHARE) {
        let _s = cx.tracer.span("bench.step", 0);
        steps.push(run_step(
            &server,
            tenant,
            &ids,
            &inp,
            &refs,
            rate,
            cx.seconds * share,
            &mut rng,
            &cx.tracer,
            &mut next_req,
        ));
    }
    let final_stats = server.stats();
    drop(server);

    for s in &steps {
        out.attempted += s.attempted;
        for e in s.errors.iter().take(4) {
            out.errors.push(e.clone());
        }
        out.failed += s.failed;
        out.named(&format!("step_p99_ms.r{}", s.rate), s.p99_ms(), "ms");
    }
    let reference = steps
        .iter()
        .find(|s| s.rate == REF_RATE)
        .expect("reference rate is a step");
    let ref_secs = cx.seconds * STEP_SHARE[RATES.iter().position(|&r| r == REF_RATE).expect("ref")];
    let p50 = reference.windowed(0.5);
    let p90 = reference.windowed(0.9);
    let p99 = reference.p99_ms();
    let max_rps = max_rps_at_slo(&steps);
    let setup_s = median(&setups);
    let e2e = [
        ("setup_s", setup_s, "s"),
        ("op_p50_ms", p50, "ms"),
        // p90, not p99: at this rate the p99 is set by the host's idle-wake
        // stalls and moves by a third between runs; it stays on the
        // `req_p99_ms` line.
        ("op_tail_ms", p90, "ms"),
        ("ops_per_s", max_rps, "1/s"),
    ];
    for (n, v, u) in e2e {
        out.e2e(n, v, u);
    }
    out.named("req_p50_ms", p50, "ms");
    out.named("req_p99_ms", p99, "ms");
    out.named("req_p90_ms", p90, "ms");
    out.named("req_samples", reference.latencies_ms.len() as f64, "count");
    out.named("max_rps_at_slo", max_rps, "1/s");

    if cx.tracer.enabled() {
        let all_submit: Vec<f64> = steps.iter().flat_map(|s| s.submit_us.clone()).collect();
        let all_lag: Vec<f64> = steps.iter().flat_map(|s| s.gen_lag_ms.clone()).collect();
        let r = reference;
        let mean_batch = r.completed as f64 / r.batches.max(1) as f64;
        // Kernel time estimated from the measured SpMM widths: each
        // matrix's completions in batches of the mean width, each batch
        // costing the interpolated apply time at that width.
        let kernel_s: f64 = (0..MATRICES.len())
            .map(|i| {
                let t = |label: &str| {
                    out.layers
                        .iter()
                        .find(|m| m.name == format!("core.spmm_ms.{label}.{}", MATRICES[i]))
                        .map_or(0.0, |m| m.value / 1e3)
                };
                let (t1, tk) = (t("k1"), t("kmax"));
                let k = mean_batch.clamp(1.0, cfg.max_batch as f64);
                let per_batch = t1 + (k - 1.0) / (cfg.max_batch as f64 - 1.0) * (tk - t1);
                r.per_matrix[i] as f64 / k * per_batch
            })
            .sum();
        out.layer("optimizer.cache_hits", hits as f64, "count");
        out.layer("serve.register_s", median(&registers), "s");
        out.layer("serve.submit_us", median(&all_submit), "us");
        out.layer("serve.mean_batch", mean_batch, "count");
        out.layer(
            "serve.coalesced_frac",
            r.coalesced as f64 / r.completed.max(1) as f64,
            "frac",
        );
        out.layer("serve.shed", final_stats.shed as f64, "count");
        out.layer(
            "serve.server_p99_ms",
            final_stats.p99.as_secs_f64() * 1e3,
            "ms",
        );
        out.layer("serve.kernel_share", kernel_s / ref_secs, "frac");
        out.layer("bench.gen_lag_p99_ms", quantile(&all_lag, 0.99), "ms");
        for s in &steps {
            out.layer(
                &format!("bench.backlog_end.r{}", s.rate),
                s.backlog_end as f64,
                "count",
            );
        }
    }
    out
}
