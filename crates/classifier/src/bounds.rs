//! Per-class performance bounds — Section III-B of the paper.
//!
//! For every bottleneck class an upper bound on achievable performance is
//! derived; comparing each bound with the baseline tells which bottlenecks
//! are worth addressing. Two providers implement the measurement:
//!
//! * [`SimBoundsProfiler`] — evaluates the bounds on a modeled Table III
//!   platform (the hardware substitution; used by all figure harnesses);
//! * [`HostBoundsProfiler`] — runs the real micro-benchmark kernels on the
//!   host: the regularized-`colind` kernel for `P_ML`, the unit-stride
//!   kernel for `P_CMP`, per-thread medians for `P_IMB`, and measured STREAM
//!   bandwidth for `P_MB` / `P_peak`.

use sparseopt_core::kernels::regularize_colind;
use sparseopt_core::prelude::*;
use sparseopt_sim::{
    analytic_mb_bound, analytic_peak_bound, simulate, simulate_cmp_bound, simulate_imb_bound,
    simulate_ml_bound, Platform, SimKernelConfig, SimMatrixProfile,
};
use std::sync::Arc;
use std::time::Instant;

/// The measured baseline performance and the five upper bounds, in Gflop/s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerClassBounds {
    /// Baseline CSR performance `P_CSR`.
    pub p_csr: f64,
    /// Bandwidth roof `P_MB`.
    pub p_mb: f64,
    /// Latency-free bound `P_ML`.
    pub p_ml: f64,
    /// Balance bound `P_IMB = 2·NNZ / t_median`.
    pub p_imb: f64,
    /// Compute bound `P_CMP` (indirect references eliminated).
    pub p_cmp: f64,
    /// Format-independent peak `P_peak`.
    pub p_peak: f64,
}

impl PerClassBounds {
    /// All six values keyed for table printing, in Fig. 3 legend order.
    pub fn as_rows(&self) -> [(&'static str, f64); 6] {
        [
            ("CSR", self.p_csr),
            ("Peak", self.p_peak),
            ("ML", self.p_ml),
            ("IMB", self.p_imb),
            ("CMP", self.p_cmp),
            ("MB", self.p_mb),
        ]
    }
}

/// Provider of per-class bounds for a matrix.
pub trait BoundsProfiler {
    /// Measures (or models) the baseline and all per-class bounds.
    fn measure(&self, csr: &Arc<CsrMatrix>) -> PerClassBounds;

    /// Short provenance label ("sim:KNC", "host", ...).
    fn label(&self) -> String;

    /// [`Self::measure`] for a caller that has already analyzed `profile`
    /// of `csr` on `platform` (the optimizer's guard platform). The result
    /// must equal `measure(csr)`; a model-backed profiler of that same
    /// platform reuses the profile instead of analyzing the matrix again.
    /// The default ignores it and calls [`Self::measure`].
    fn measure_with_profile(
        &self,
        csr: &Arc<CsrMatrix>,
        profile: &SimMatrixProfile,
        platform: &Platform,
    ) -> PerClassBounds {
        let _ = (profile, platform);
        self.measure(csr)
    }
}

/// Bounds from the analytic execution model on a Table III platform.
pub struct SimBoundsProfiler {
    platform: Platform,
}

impl SimBoundsProfiler {
    /// Creates a profiler for `platform`.
    pub fn new(platform: Platform) -> Self {
        Self { platform }
    }

    /// The modeled platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Also expose the underlying matrix profile (reused by the optimizer's
    /// simulated execution).
    pub fn profile(&self, csr: &CsrMatrix) -> SimMatrixProfile {
        SimMatrixProfile::analyze(csr, &self.platform)
    }

    /// Profile for a stand-in of a matrix `scale`× larger (see
    /// [`SimMatrixProfile::analyze_scaled`]).
    pub fn profile_scaled(
        &self,
        csr: &CsrMatrix,
        scale: f64,
        locality_scale: f64,
    ) -> SimMatrixProfile {
        SimMatrixProfile::analyze_scaled(csr, &self.platform, scale, locality_scale)
    }

    /// Bounds for a scaled stand-in.
    pub fn measure_scaled(
        &self,
        csr: &CsrMatrix,
        scale: f64,
        locality_scale: f64,
    ) -> PerClassBounds {
        self.measure_profile(&self.profile_scaled(csr, scale, locality_scale), 1)
    }

    /// Bounds from an existing profile (avoids re-analysis) for a workload
    /// with `k` right-hand sides. `k = 1` is SpMV. Above it the same Fig. 4
    /// classification applies, but every bound accounts for the reuse
    /// factor: matrix traffic divides by `k`, so the `P_MB` roof rises
    /// faster than the baseline and MB-bound matrices drift out of the MB
    /// class as `k` grows.
    pub fn measure_profile(&self, profile: &SimMatrixProfile, k: usize) -> PerClassBounds {
        let p = &self.platform;
        PerClassBounds {
            p_csr: simulate(profile, p, &SimKernelConfig::baseline(), k).gflops,
            p_mb: analytic_mb_bound(profile, p, k),
            p_ml: simulate_ml_bound(profile, p, k),
            p_imb: simulate_imb_bound(profile, p, k),
            p_cmp: simulate_cmp_bound(profile, p, k),
            p_peak: analytic_peak_bound(profile, p, k),
        }
    }
}

impl BoundsProfiler for SimBoundsProfiler {
    fn measure(&self, csr: &Arc<CsrMatrix>) -> PerClassBounds {
        let profile = SimMatrixProfile::analyze(csr, &self.platform);
        self.measure_profile(&profile, 1)
    }

    fn label(&self) -> String {
        format!("sim:{}", self.platform.name)
    }

    fn measure_with_profile(
        &self,
        csr: &Arc<CsrMatrix>,
        profile: &SimMatrixProfile,
        platform: &Platform,
    ) -> PerClassBounds {
        if *platform == self.platform {
            self.measure_profile(profile, 1)
        } else {
            self.measure(csr)
        }
    }
}

/// Bounds measured by actually running the micro-benchmark kernels on the
/// host machine.
pub struct HostBoundsProfiler {
    ctx: Arc<ExecCtx>,
    /// Measured STREAM triad bandwidth, GB/s.
    bw_gbs: f64,
    /// SpMV repetitions per timing sample (the paper uses 128 warm runs).
    reps: usize,
}

impl HostBoundsProfiler {
    /// Creates a host profiler; measures STREAM bandwidth once up front.
    pub fn new(ctx: Arc<ExecCtx>) -> Self {
        let bw_gbs = sparseopt_sim::stream_triad_gbs(4 * 1024 * 1024, 3);
        Self {
            ctx,
            bw_gbs,
            reps: 16,
        }
    }

    /// Overrides the measured bandwidth (tests, known machines).
    pub fn with_bandwidth(mut self, bw_gbs: f64) -> Self {
        self.bw_gbs = bw_gbs;
        self
    }

    /// Overrides the repetition count.
    pub fn with_reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Times `reps` warm forward applications of `kernel`, returning
    /// Gflop/s of the mean run (the paper's "rate of the arithmetic means
    /// of the absolute counts").
    pub fn time_kernel(&self, kernel: &dyn SparseLinOp) -> f64 {
        let (nrows, ncols) = kernel.shape();
        let x = vec![1.0f64; ncols];
        let mut y = vec![0.0f64; nrows];
        kernel.spmv(&x, &mut y); // warm-up
        let t0 = Instant::now();
        for _ in 0..self.reps {
            kernel.spmv(&x, &mut y);
        }
        let secs = t0.elapsed().as_secs_f64() / self.reps as f64;
        std::hint::black_box(&y);
        gflops(kernel.flops(1), secs)
    }

    /// Per-thread median time of one additional baseline run, seconds.
    fn median_thread_secs(&self, kernel: &ParallelCsr, x: &[f64], y: &mut [f64]) -> f64 {
        kernel.spmv(x, y);
        let secs: Vec<f64> = kernel
            .last_thread_times()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        sparseopt_core::util::median(&secs).unwrap_or(0.0)
    }
}

impl BoundsProfiler for HostBoundsProfiler {
    fn measure(&self, csr: &Arc<CsrMatrix>) -> PerClassBounds {
        let nnz = csr.nnz() as f64;
        let flops = 2.0 * nnz;

        // P_CSR: the baseline kernel.
        let baseline = ParallelCsr::baseline(csr.clone(), self.ctx.clone());
        let p_csr = self.time_kernel(&baseline);

        // P_IMB from the baseline's per-thread times.
        let x = vec![1.0f64; csr.ncols()];
        let mut y = vec![0.0f64; csr.nrows()];
        let median = self.median_thread_secs(&baseline, &x, &mut y).max(1e-12);
        let p_imb = gflops(flops, median);

        // P_ML: regularized colind micro-benchmark.
        let reg = Arc::new(regularize_colind(csr));
        let p_ml = self.time_kernel(&ParallelCsr::baseline(reg, self.ctx.clone()));

        // P_CMP: unit-stride micro-benchmark.
        let p_cmp = self.time_kernel(&UnitStrideCsr::new(csr.clone(), self.ctx.clone()));

        // P_MB and P_peak from measured bandwidth and minimum traffic.
        let bw = self.bw_gbs * 1e9;
        let xy_bytes = ((csr.ncols() + csr.nrows()) * 8) as f64;
        let p_mb = gflops(flops, (csr.footprint_bytes() as f64 + xy_bytes) / bw);
        let p_peak = gflops(flops, (csr.values_bytes() as f64 + xy_bytes) / bw);

        PerClassBounds {
            p_csr,
            p_mb,
            p_ml,
            p_imb,
            p_cmp,
            p_peak,
        }
    }

    fn label(&self) -> String {
        format!(
            "host({} threads, {:.1} GB/s)",
            self.ctx.nthreads(),
            self.bw_gbs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_matrix::generators as g;

    #[test]
    fn sim_bounds_ordering_invariants() {
        let csr = Arc::new(CsrMatrix::from_coo(&g::poisson3d(12, 12, 12)));
        for p in Platform::paper_platforms() {
            let b = SimBoundsProfiler::new(p.clone()).measure(&csr);
            assert!(b.p_csr > 0.0);
            assert!(
                b.p_peak >= b.p_mb,
                "{}: peak {} < mb {}",
                p.name,
                b.p_peak,
                b.p_mb
            );
            assert!(
                b.p_imb >= 0.99 * b.p_csr,
                "{}: median cannot trail max by much",
                p.name
            );
            assert!(
                b.p_ml >= 0.9 * b.p_csr,
                "{}: removing misses cannot hurt",
                p.name
            );
        }
    }

    #[test]
    fn sim_bounds_expose_imbalance_on_skewed_matrix() {
        let csr = Arc::new(CsrMatrix::from_coo(&g::few_dense_rows(20_000, 2, 3, 5)));
        let b = SimBoundsProfiler::new(Platform::knc()).measure(&csr);
        assert!(
            b.p_imb > 1.24 * b.p_csr,
            "skewed matrix must show IMB headroom: {} vs {}",
            b.p_imb,
            b.p_csr
        );
    }

    #[test]
    fn sim_bounds_expose_latency_on_random_matrix() {
        let csr = Arc::new(CsrMatrix::from_coo(&g::random_uniform(20_000, 8, 42)));
        let b = SimBoundsProfiler::new(Platform::knc()).measure(&csr);
        assert!(
            b.p_ml > 1.25 * b.p_csr,
            "irregular matrix must show ML headroom: {} vs {}",
            b.p_ml,
            b.p_csr
        );
    }

    #[test]
    fn reuse_factor_shifts_mb_matrix_out_of_mb() {
        use crate::profile_guided::ProfileGuidedClassifier;
        use crate::Bottleneck;

        // A large regular band is the canonical MB matrix at k = 1.
        let csr = Arc::new(CsrMatrix::from_coo(&g::banded(400_000, 12)));
        let prof = SimBoundsProfiler::new(Platform::knc());
        let clf = ProfileGuidedClassifier::new();
        // One O(NNZ) analysis shared by every k.
        let profile = prof.profile(&csr);

        let at_1 = clf.classify(&prof.measure_profile(&profile, 1));
        assert!(
            at_1.contains(Bottleneck::Mb),
            "band must start MB-bound: {at_1}"
        );

        // With enough right-hand sides the matrix stream amortizes away and
        // bandwidth stops binding.
        let mut left_mb = false;
        for k in [4usize, 8, 16, 32, 64] {
            let classes = clf.classify(&prof.measure_profile(&profile, k));
            if !classes.contains(Bottleneck::Mb) {
                left_mb = true;
                break;
            }
        }
        assert!(left_mb, "growing k must eventually leave the MB class");
    }

    #[test]
    fn a_shared_profile_gives_the_bounds_measure_gives() {
        let csr = Arc::new(CsrMatrix::from_coo(&g::power_law_hub(3_000, 2, 7)));
        let broadwell = Platform::broadwell();
        let profile = SimMatrixProfile::analyze(&csr, &broadwell);
        for p in Platform::paper_platforms() {
            // The same platform reuses the profile; another one re-analyzes.
            let prof = SimBoundsProfiler::new(p);
            assert_eq!(
                prof.measure_with_profile(&csr, &profile, &broadwell),
                prof.measure(&csr)
            );
        }
    }

    #[test]
    fn host_bounds_run_and_are_positive() {
        let csr = Arc::new(CsrMatrix::from_coo(&g::poisson2d(40, 40)));
        let prof = HostBoundsProfiler::new(ExecCtx::new(2))
            .with_reps(2)
            .with_bandwidth(10.0);
        let b = prof.measure(&csr);
        for (name, v) in b.as_rows() {
            assert!(v > 0.0, "{name} must be positive, got {v}");
        }
        assert!(b.p_peak >= b.p_mb);
        assert!(prof.label().contains("host"));
    }
}
