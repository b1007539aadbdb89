//! End-to-end benchmark of the sparseopt workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune-solve|serve-open|ooc-update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Earlier lines carry
//! the host reference probe, the chosen plans, every metric under its
//! workload-specific name, and (traced) the per-layer self-time report.
//! See `perfbench/README.md`.

mod ooc_update;
mod serve_open;
mod trace;
mod tune_solve;
mod util;

use sparseopt_core::prelude::ExecCtx;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics every workload reports (untraced runs), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with units. A layer that is
/// idle on a workload, or a member the workload does not have, reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("matrix.shard_open_s", "s"),
        ("matrix.shard_load_ms", "ms"),
        ("matrix.shard_loads", "count"),
        ("matrix.fingerprint_ms", "ms"),
        ("classifier.profile_ms", "ms"),
        ("sim.triad_gbs", "GB/s"),
        ("sim.triad_llc4x_gbs", "GB/s"),
        ("optimizer.tune_s", "s"),
        ("optimizer.timed_trials", "count"),
        ("optimizer.setup_spmv", "spmv"),
        ("optimizer.promotion_ratio", "ratio"),
        ("optimizer.amortization_iters", "iters"),
        ("optimizer.cache_hits", "count"),
        ("optimizer.sharded_tune_s", "s"),
        ("optimizer.distinct_shard_plans", "count"),
        ("optimizer.plan_flips", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for m in tune_solve::MEMBERS {
        for (k, u) in [
            ("spmv_ms", "ms"),
            ("gbs", "GB/s"),
            ("stream_frac", "frac"),
            ("imbalance", "ratio"),
            ("csr_1t_gflops", "Gflop/s"),
            ("speedup_vs_csr", "x"),
        ] {
            v.push((format!("core.{k}.{m}"), u));
        }
    }
    v.push(("core.trsv_ms.poisson3d".into(), "ms"));
    for m in serve_open::MATRICES {
        v.push((format!("core.spmm_ms.k1.{m}"), "ms"));
        v.push((format!("core.spmm_ms.kmax.{m}"), "ms"));
    }
    for m in tune_solve::MEMBERS {
        v.push((format!("solver.iters.{m}"), "iters"));
    }
    for (k, u) in [
        ("core.ooc.compactions", "count"),
        ("core.ooc.delta_nnz", "count"),
        ("core.ooc.stage_delta_us", "us"),
        ("core.ooc.peak_resident_mb", "MB"),
        ("solver.spmv_share", "frac"),
        ("solver.precond_share", "frac"),
        ("solver.vecops_share", "frac"),
        ("solver.precond_setup_s", "s"),
        ("serve.register_s", "s"),
        ("serve.submit_us", "us"),
        ("serve.mean_batch", "count"),
        ("serve.coalesced_frac", "frac"),
        ("serve.shed", "count"),
        ("serve.server_p99_ms", "ms"),
        ("serve.kernel_share", "frac"),
        ("bench.gen_lag_p99_ms", "ms"),
    ] {
        v.push((k.into(), u));
    }
    for r in serve_open::RATES {
        v.push((format!("bench.backlog_end.r{r}"), "count"));
    }
    v.push(("bench.trace_overhead".into(), "frac"));
    v.push(("bench.fail_frac".into(), "frac"));
    v
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the diagnostic on standard error.
    pub errors: Vec<String>,
    /// The end-to-end metrics under their generic names.
    pub e2e: Vec<Metric>,
    /// The same quantities under the workload's own names.
    pub named: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// `(member, chosen plan label)` for every set-up.
    pub plans: Vec<(String, String)>,
    pub digest: u64,
    /// Size of the workload's largest matrix, for the triad probe.
    pub matrix_bytes: usize,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What a workload pass runs with.
pub struct Cx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
    pub exec: Arc<ExecCtx>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !["tune-solve", "serve-open", "ooc-update"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_pass(args: &Args, traced: bool, work: &std::path::Path) -> (Outcome, Tracer) {
    let cx = Cx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(traced),
        work: work.to_path_buf(),
        exec: ExecCtx::host(),
    };
    let out = match args.workload.as_str() {
        "tune-solve" => tune_solve::run(&cx),
        "serve-open" => serve_open::run(&cx),
        _ => ooc_update::run(&cx),
    };
    (out, cx.tracer)
}

fn inputs_digest(workload: &str, seed: u64) -> u64 {
    match workload {
        "tune-solve" => tune_solve::inputs_digest(seed),
        "serve-open" => serve_open::inputs_digest(seed),
        _ => ooc_update::inputs_digest(seed),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(tag: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{tag} {} {} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tune-solve|serve-open|ooc-update> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench-work");
    let work = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }

    // The untraced pass always runs; a traced run adds a traced pass of the
    // same seed, so the tracing overhead and the plan stability across runs
    // are both measured.
    let t0 = Instant::now();
    let (untraced, _) = run_pass(&args, false, &work);
    let untraced_s = t0.elapsed().as_secs_f64();
    let peak_rss = util::peak_rss_mb();
    let mut failed = untraced.failed;
    let mut attempted = untraced.attempted;
    let mut errors = untraced.errors.clone();
    let mut plans = untraced.plans.clone();

    let mut layers: Vec<Metric> = Vec::new();
    if args.trace {
        let t1 = Instant::now();
        let (traced, tracer) = run_pass(&args, true, &work);
        let traced_s = t1.elapsed().as_secs_f64();
        failed += traced.failed;
        attempted += traced.attempted;
        errors.extend(traced.errors.iter().cloned());
        plans.extend(traced.plans.iter().cloned());
        if traced.digest != untraced.digest {
            failed += 1;
            errors.push("same seed gave a different input digest".into());
        }
        if inputs_digest(&args.workload, args.seed.wrapping_add(1)) == untraced.digest {
            failed += 1;
            errors.push("a different seed gave the same input digest".into());
        }
        layers = traced.layers.clone();
        let op = |o: &Outcome| {
            o.e2e
                .iter()
                .find(|m| m.name == "op_p50_ms")
                .map(|m| m.value)
                .unwrap_or(0.0)
        };
        layers.push(Metric {
            name: "bench.trace_overhead".into(),
            value: op(&traced) / op(&untraced).max(1e-12) - 1.0,
            unit: "frac",
        });
        println!("trace pass_wall_s untraced {untraced_s:.3} traced {traced_s:.3}");
        print_metrics("traced", &traced.e2e);
        for (layer, (total, own, n)) in tracer.self_times() {
            println!("selftime {layer} total_ms {total:.3} self_ms {own:.3} spans {n}");
        }
        let trace_path = out_dir.join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&trace_path) {
            eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
        }
    }

    // Host reference probe, after the workload so it cannot inflate the
    // workload's peak RSS.
    let (l2, llc) = util::cache_sizes();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let triad_at = |bytes: usize| sparseopt_sim::stream_triad_gbs((bytes / 24).max(1 << 16), 3);
    let triad_matrix = triad_at(untraced.matrix_bytes);
    // 4× the last-level cache, capped at 1 GiB of arrays.
    let llc4x = (4 * llc).clamp(64 << 20, 1 << 30);
    let triad_llc4x = triad_at(llc4x);
    println!(
        "host {{\"nproc\": {nproc}, \"threads\": {}, \"l2_bytes\": {l2}, \"llc_bytes\": {llc}, \
         \"matrix_bytes\": {}, \"triad_gbs_at_matrix\": {triad_matrix:.3}, \
         \"llc4x_bytes\": {llc4x}, \"triad_gbs_at_llc4x\": {triad_llc4x:.3}}}",
        ExecCtx::host().nthreads(),
        untraced.matrix_bytes
    );
    let _ = std::fs::remove_dir_all(&work);

    // Plan labels per member over every set-up of this invocation; a
    // member whose labels differ flipped.
    let mut by_member: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (m, l) in &plans {
        by_member.entry(m).or_default().push(l);
    }
    let plan_flips = by_member
        .values()
        .filter(|labels| labels.iter().any(|l| l != &labels[0]))
        .count();
    let plan_line: Vec<String> = by_member
        .iter()
        .map(|(m, labels)| format!("\"{m}\": [\"{}\"]", labels.join("\", \"")))
        .collect();
    println!(
        "plans digest {:016x} {{{}}}",
        untraced.digest,
        plan_line.join(", ")
    );
    print_metrics("metric", &untraced.named);

    let mut e2e = untraced.e2e.clone();
    e2e.push(Metric {
        name: "peak_rss_mb".into(),
        value: peak_rss,
        unit: "MB",
    });

    if failed > 0 || attempted == 0 {
        for e in &errors {
            eprintln!("perfbench: FAILED: {e}");
        }
        println!(
            "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{}}}}",
            failed.max(1)
        );
        std::process::exit(1);
    }

    let metrics = if args.trace {
        // Ratios against the host probe, then every per-layer name.
        let stream_frac: Vec<Metric> = layers
            .iter()
            .filter_map(|m| {
                m.name.strip_prefix("core.gbs.").map(|member| Metric {
                    name: format!("core.stream_frac.{member}"),
                    value: m.value / triad_matrix,
                    unit: "frac",
                })
            })
            .collect();
        layers.extend(stream_frac);
        let extra = [
            ("sim.triad_gbs", triad_matrix, "GB/s"),
            ("sim.triad_llc4x_gbs", triad_llc4x, "GB/s"),
            ("optimizer.plan_flips", plan_flips as f64, "count"),
            ("bench.fail_frac", failed as f64 / attempted as f64, "frac"),
        ];
        for (n, v, u) in extra {
            layers.push(Metric {
                name: n.into(),
                value: v,
                unit: u,
            });
        }
        let mut all = Vec::new();
        for (name, unit) in per_layer() {
            let value = layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            all.push(Metric { name, value, unit });
        }
        print_metrics("layer", &all);
        all
    } else {
        let mut all = Vec::new();
        for (name, unit) in END_TO_END {
            let Some(m) = e2e.iter().find(|m| m.name == name) else {
                eprintln!("perfbench: workload did not report {name}");
                std::process::exit(1);
            };
            all.push(Metric {
                name: name.into(),
                value: m.value,
                unit,
            });
        }
        print_metrics("e2e", &all);
        all
    };
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
}
