//! Regenerates **Fig. 1** of the paper: "Speedup (slowdown) of different
//! software optimizations applied to the CSR SpMV kernel on Intel Xeon Phi
//! (codename Knights Corner)".
//!
//! For each suite matrix we model the baseline CSR kernel on KNC and three
//! blindly-applied single optimizations — software prefetching,
//! vectorization, and auto scheduling — and report each one's speedup over
//! the baseline. The paper's takeaway must reproduce: every optimization
//! helps some matrices and *slows others down* (values below 1.0).
//!
//! Usage: `cargo run --release -p sparseopt-bench --bin fig1 [--csv]`

use sparseopt_bench::report::{speedup, Table};
use sparseopt_core::prelude::*;
use sparseopt_sim::{simulate, Platform, SimKernelConfig, SimMatrixProfile};

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let knc = Platform::knc();
    let suite = sparseopt_matrix::paper_suite();

    let mut table = Table::new(vec![
        "matrix",
        "baseline GF/s",
        "prefetch",
        "vectorization",
        "auto-sched",
    ]);
    let (mut slow, mut fast) = (0usize, 0usize);

    for m in &suite {
        let profile = SimMatrixProfile::analyze_scaled(&m.csr, &knc, m.scale, m.locality_scale());
        let base = simulate(&profile, &knc, &SimKernelConfig::baseline(), 1).gflops;

        let pf = simulate(
            &profile,
            &knc,
            &SimKernelConfig {
                prefetch: true,
                ..SimKernelConfig::baseline()
            },
            1,
        )
        .gflops;
        let vec = simulate(
            &profile,
            &knc,
            &SimKernelConfig {
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        )
        .gflops;
        let auto = simulate(
            &profile,
            &knc,
            &SimKernelConfig {
                schedule: Schedule::Auto,
                ..SimKernelConfig::baseline()
            },
            1,
        )
        .gflops;

        for s in [pf / base, vec / base, auto / base] {
            if s < 0.995 {
                slow += 1;
            } else if s > 1.05 {
                fast += 1;
            }
        }
        table.row(vec![
            m.name.to_string(),
            format!("{base:.2}"),
            speedup(pf / base),
            speedup(vec / base),
            speedup(auto / base),
        ]);
    }

    println!("== Fig. 1: speedup of blind single optimizations over baseline CSR (KNC model) ==\n");
    if csv {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }
    println!(
        "\n{fast} (matrix, optimization) pairs speed up, {slow} slow down — \
         blindly applying optimizations can hinder performance (paper Fig. 1)."
    );
}
