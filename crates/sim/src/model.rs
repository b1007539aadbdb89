//! Analytic SpMV execution-time model over the Table III platforms.
//!
//! This is the substitution substrate for the paper's real KNC / KNL /
//! Broadwell testbeds (see `DESIGN.md`): per-thread execution time is
//! predicted from the mechanisms the paper attributes performance to —
//!
//! * **bandwidth**: streamed matrix/vector bytes against the STREAM triad
//!   figure for the working-set's residency (MB class);
//! * **latency**: irregular `x` misses, counted by a set-associative LRU
//!   [`crate::cache::CacheSim`] over the real column-index stream, stalling
//!   the core for the un-overlapped fraction of memory latency (ML class);
//! * **imbalance**: per-thread work from the actual row partition, with the
//!   kernel time set by the slowest thread (IMB class);
//! * **compute**: cycles-per-element of the inner loop flavor plus a per-row
//!   loop overhead (CMP class).
//!
//! A thread's time is `max(compute, bandwidth) + latency-stalls`; the kernel
//! time is the max over threads. Gflop/s = `2·NNZ / time`.

use crate::cache::CacheSim;
use crate::platform::Platform;
use sparseopt_core::csr::CsrMatrix;
use sparseopt_core::delta::DeltaCsrMatrix;
use sparseopt_core::kernels::InnerLoop;
use sparseopt_core::partition::Partition;
use sparseopt_core::schedule::Schedule;

/// Storage format being modeled.
#[derive(Clone, Debug, PartialEq)]
pub enum SimFormat {
    /// Plain CSR.
    Csr,
    /// Delta-compressed column indices (MB optimization).
    DeltaCsr,
    /// Long-row decomposition with the given threshold (IMB optimization).
    Decomposed { threshold: usize },
    /// Merge-path nonzero-split CSR (IMB optimization for dominant rows):
    /// per-thread work is balanced to within one merge item regardless of
    /// the row-length distribution, at the price of a serial carry fix-up
    /// pass whose cost and cache-line traffic the model charges explicitly.
    MergeCsr,
    /// Symmetric sparse skyline storage (MB optimization for symmetric
    /// matrices): only the lower triangle + diagonal stream, each stored
    /// off-diagonal element performing two fused multiply-adds, so the
    /// matrix line traffic roughly halves. The scatter side of `Lᵀx` pays
    /// windowed per-thread scratch-merge write traffic, which the model
    /// charges explicitly.
    SymCsr,
    /// SELL-C-σ sliced-ELLPACK storage (CMP optimization): rows sorted by
    /// length within σ windows, packed into C-row chunks padded to the
    /// chunk's max width, stored slot-major. The layout feeds vector lanes
    /// with stride-1 value/index streams, which removes the per-row
    /// remainder/masking cost that makes blind CSR vectorization a
    /// *slowdown* on short rows (paper Fig. 1) and amortizes the row-loop
    /// overhead over `C` lanes. The price — the padded slots' extra matrix
    /// bytes — is charged explicitly from the real layout's pad count
    /// ([`SimMatrixProfile::sell_padded_slots`]).
    SellCs,
}

/// A kernel configuration to simulate — mirrors
/// `sparseopt_core::CsrKernelConfig` plus the format choice.
#[derive(Clone, Debug, PartialEq)]
pub struct SimKernelConfig {
    /// Storage format.
    pub format: SimFormat,
    /// Inner-loop flavor.
    pub inner: InnerLoop,
    /// Software prefetching on `x`.
    pub prefetch: bool,
    /// Row-loop schedule.
    pub schedule: Schedule,
}

impl SimKernelConfig {
    /// The paper's baseline: plain CSR, scalar loop, static nnz partition.
    pub fn baseline() -> Self {
        Self {
            format: SimFormat::Csr,
            inner: InnerLoop::Scalar,
            prefetch: false,
            schedule: Schedule::StaticNnz,
        }
    }
}

/// Cached per-(matrix, platform) analysis shared by every configuration
/// simulated against that pair: the baseline partition, per-thread work, and
/// per-thread cache-simulated `x` miss counts.
#[derive(Clone, Debug)]
pub struct SimMatrixProfile {
    /// Modeled thread count (one per core; SMT folded into the cost params).
    pub nthreads: usize,
    /// Baseline nnz-balanced partition.
    pub partition: Partition,
    /// Nonzeros per thread under the baseline partition.
    pub nnz_per_thread: Vec<usize>,
    /// Rows per thread under the baseline partition.
    pub rows_per_thread: Vec<usize>,
    /// Total `x` misses per thread (cache-simulated).
    pub x_misses: Vec<u64>,
    /// The subset of misses a stream prefetcher would not hide.
    pub x_irregular_misses: Vec<u64>,
    /// Nonzeros per thread under an equal-row-count partition (the MKL-like
    /// distribution) — carries the real skew, unlike a uniform-density
    /// approximation.
    pub rows_partition_nnz: Vec<usize>,
    /// Rows per thread under the equal-row-count partition.
    pub rows_partition_rows: Vec<usize>,
    /// Cache-simulated x misses per thread under the equal-row partition.
    pub rows_partition_misses: Vec<u64>,
    /// Irregular subset of `rows_partition_misses`.
    pub rows_partition_irregular: Vec<u64>,
    /// Largest single row's nonzero count.
    pub max_row_nnz: usize,
    /// Index bytes per nonzero after delta compression (≤ 4.0).
    pub delta_index_bytes_per_nnz: f64,
    /// Streamed matrix bytes under symmetric (SSS) storage: strictly lower
    /// triangle values + indices, dense diagonal, and lower row pointer.
    /// Computed for any matrix (the format is only *selected* for symmetric
    /// ones); roughly half of the CSR stream for a symmetric matrix.
    pub sym_matrix_bytes: usize,
    /// Total windowed scatter-scratch bytes (`k = 1`) of the symmetric
    /// operator under this platform's thread count: the sum of per-thread
    /// column windows `[min lower col, rows.end)` over an nnz-balanced
    /// partition of the lower triangle. The merge pass reads this much and
    /// writes the output once.
    pub sym_scratch_bytes: usize,
    /// Value/index slot count of the SELL-C-σ layout at the library's
    /// default `(C, σ)`: every stored nonzero plus the explicit zero pads.
    /// The SELL model streams this many slots instead of `nnz`; the ratio
    /// to `nnz` is the padding overhead the format pays for its stride-1
    /// lanes.
    pub sell_padded_slots: usize,
    /// CSR footprint + x + y, bytes (working set for bandwidth selection).
    pub working_set_bytes: usize,
    /// Bytes of the dense vectors alone (`x` + `y` at `k = 1`); each extra
    /// right-hand side in an SpMM call adds this much to the working set.
    pub vector_bytes: usize,
    /// Size scale factor: the stand-in matrix models a UF original `scale`×
    /// larger. Caches are shrunk by `scale` in the x-miss simulation and the
    /// working set is grown by `scale` for residency decisions; per-nonzero
    /// rates are scale-invariant, so Gflop/s stay directly comparable.
    pub scale: f64,
    /// Total nonzeros.
    pub nnz: usize,
    /// Total rows.
    pub nrows: usize,
}

impl SimMatrixProfile {
    /// Analyzes `csr` for `platform` at scale 1. Cost: `O(NNZ)`.
    pub fn analyze(csr: &CsrMatrix, platform: &Platform) -> Self {
        Self::analyze_scaled(csr, platform, 1.0, 1.0)
    }

    /// Analyzes `csr` as a stand-in for a matrix `scale`× larger: the
    /// working set grows by `scale` for residency decisions, while the
    /// per-thread cache capacity in the x-miss simulation shrinks by
    /// `locality_scale` (how much the original's x reuse window outgrows the
    /// stand-in's — sub-linear for stencils/bands, linear for graphs).
    /// Cost: `O(NNZ)`.
    pub fn analyze_scaled(
        csr: &CsrMatrix,
        platform: &Platform,
        scale: f64,
        locality_scale: f64,
    ) -> Self {
        assert!(scale >= 1.0, "scale must be >= 1");
        assert!(locality_scale >= 1.0, "locality_scale must be >= 1");
        let nthreads = platform.cores;
        let partition = Partition::by_nnz(csr, nthreads);
        let nnz_per_thread = partition.nnz_per_part(csr);
        let rows_per_thread: Vec<usize> = partition.ranges().iter().map(|r| r.len()).collect();

        let cache_bytes = ((platform.cache_per_thread_bytes(nthreads) as f64 / locality_scale)
            as usize)
            .max(platform.cache_line * 8);
        let mut x_misses = Vec::with_capacity(nthreads);
        let mut x_irregular = Vec::with_capacity(nthreads);
        for t in 0..nthreads {
            let mut cache = CacheSim::new(cache_bytes, 8, platform.cache_line);
            for i in partition.range(t) {
                for &c in csr.row_cols(i) {
                    cache.access_element(0, c as usize, 8);
                }
            }
            x_misses.push(cache.misses());
            x_irregular.push(cache.irregular_misses());
        }

        let rows_part = Partition::by_rows(csr.nrows(), nthreads);
        let rows_partition_nnz = rows_part.nnz_per_part(csr);
        let rows_partition_rows: Vec<usize> = rows_part.ranges().iter().map(|r| r.len()).collect();
        let mut rows_partition_misses = Vec::with_capacity(nthreads);
        let mut rows_partition_irregular = Vec::with_capacity(nthreads);
        for t in 0..nthreads {
            let mut cache = CacheSim::new(cache_bytes, 8, platform.cache_line);
            for i in rows_part.range(t) {
                for &c in csr.row_cols(i) {
                    cache.access_element(0, c as usize, 8);
                }
            }
            rows_partition_misses.push(cache.misses());
            rows_partition_irregular.push(cache.irregular_misses());
        }

        let max_row_nnz = (0..csr.nrows()).map(|i| csr.row_nnz(i)).max().unwrap_or(0);
        let delta = DeltaCsrMatrix::from_csr(csr);
        let delta_index_bytes_per_nnz = delta.index_compression_ratio() * 4.0;
        let vector_bytes = (csr.ncols() + csr.nrows()) * 8;
        let working_set_bytes = csr.footprint_bytes() + vector_bytes;

        // Symmetric-storage stream and the windowed scatter-scratch size of
        // a one-sweep SSS operator on this platform's thread count: an
        // nnz-balanced partition of the lower-triangle rows, each thread's
        // scratch window spanning its rows plus the lowest column they
        // reference.
        let n = csr.nrows();
        let mut lower_rowptr = vec![0usize; n + 1];
        let mut first_lower: Vec<usize> = (0..n).collect();
        for i in 0..n {
            for &c in csr.row_cols(i) {
                let c = c as usize;
                if c < i {
                    lower_rowptr[i + 1] += 1;
                    first_lower[i] = first_lower[i].min(c);
                }
            }
        }
        for i in 0..n {
            lower_rowptr[i + 1] += lower_rowptr[i];
        }
        let strict_lower = lower_rowptr[n];
        let sym_matrix_bytes = strict_lower * 12 + n * 8 + (n + 1) * 8;
        let lower_part = Partition::by_rowptr(&lower_rowptr, nthreads);
        let mut scratch_elems = 0usize;
        for t in 0..lower_part.len() {
            let rows = lower_part.range(t);
            if rows.is_empty() {
                continue;
            }
            let lo = rows
                .clone()
                .map(|i| first_lower[i])
                .min()
                .unwrap_or(rows.start)
                .min(rows.start);
            scratch_elems += rows.end - lo;
        }
        let sym_scratch_bytes = scratch_elems * 8;

        let sell_padded_slots =
            sparseopt_core::sell::sell_padded_slots(csr, sparseopt_core::sell::SELL_SIGMA);

        Self {
            nthreads,
            partition,
            nnz_per_thread,
            rows_per_thread,
            x_misses,
            x_irregular_misses: x_irregular,
            rows_partition_nnz,
            rows_partition_rows,
            rows_partition_misses,
            rows_partition_irregular,
            max_row_nnz,
            delta_index_bytes_per_nnz,
            sym_matrix_bytes,
            sym_scratch_bytes,
            sell_padded_slots,
            working_set_bytes,
            vector_bytes,
            scale,
            nnz: csr.nnz(),
            nrows: csr.nrows(),
        }
    }

    /// Working set of the modeled (scaled) original, bytes.
    pub fn effective_working_set(&self) -> usize {
        (self.working_set_bytes as f64 * self.scale) as usize
    }

    /// Total x misses across threads.
    pub fn total_x_misses(&self) -> u64 {
        self.x_misses.iter().sum()
    }
}

/// Outcome of one simulated kernel execution.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Kernel wall time (slowest thread), seconds.
    pub secs: f64,
    /// `2·NNZ / secs`, Gflop/s.
    pub gflops: f64,
    /// Per-thread times, seconds.
    pub thread_secs: Vec<f64>,
    /// Modeled memory traffic, bytes.
    pub traffic_bytes: f64,
    /// The matrix-stream subset of [`Self::traffic_bytes`] (values +
    /// indices + row pointer + diagonal, excluding vectors, misses, and
    /// scratch) — the quantity format compression acts on, pinned by the
    /// symmetric-storage acceptance test.
    pub matrix_traffic_bytes: f64,
}

impl SimResult {
    /// Median of the per-thread times — the paper's `t_median` for `P_IMB`.
    pub fn median_thread_secs(&self) -> f64 {
        sparseopt_core::util::median(&self.thread_secs).unwrap_or(self.secs)
    }
}

/// Per-thread workload snapshot after schedule redistribution.
struct ThreadWork {
    nnz: f64,
    rows: f64,
    misses: f64,
    irregular: f64,
    /// Extra compute cycles from scheduling machinery (chunk claims).
    sched_cycles: f64,
}

/// Simulates one execution of a kernel configuration with `k` right-hand
/// sides: `y = A·x` at `k = 1` (SpMV), `Y = A·X` with `X ∈ R^{n×k}` above
/// (SpMM).
///
/// The **reuse factor** `k` scales everything but the matrix stream: the
/// values + indices + rowptr are paid once per call and amortized over `k`
/// right-hand sides, while compute, `y` write-back, and the dense-vector
/// working set scale with `k`. The tests pin down that time per right-hand
/// side (`secs / k`) is non-increasing in `k` for a fixed residency regime.
///
/// Specifics per thread:
/// * **compute**: `k` fused multiply-adds per nonzero; the per-row loop
///   overhead is paid once per [`sparseopt_core::kernels::SPMM_COL_TILE`]
///   column tile (linearly interpolated, so it amortizes smoothly);
/// * **bandwidth**: matrix bytes unchanged, `y` traffic `× k`, and each
///   `x` miss now pulls `max(line, 8k)` bytes — a missed row of `X` is
///   `k` contiguous doubles;
/// * **latency**: irregular-miss stalls are paid once per nonzero, not once
///   per right-hand side — the trailing bytes of a missed `X` row stream
///   behind the first line.
pub fn simulate(
    profile: &SimMatrixProfile,
    platform: &Platform,
    config: &SimKernelConfig,
    k: usize,
) -> SimResult {
    assert!(k >= 1, "need at least one right-hand side");
    if matches!(config.format, SimFormat::SymCsr) {
        return simulate_sym(profile, platform, config, k);
    }
    let kf = k as f64;
    let tile = sparseopt_core::kernels::SPMM_COL_TILE as f64;
    let nthreads = profile.nthreads;
    let nnz_total = profile.nnz as f64;
    let work = distribute(profile, config);

    // --- Per-element compute cost -----------------------------------------
    let inner = config.inner;
    let mut cpe = match inner {
        InnerLoop::Scalar => platform.cpe_scalar,
        InnerLoop::Unrolled4 => platform.cpe_unrolled,
        InnerLoop::Simd => platform.cpe_simd,
    };
    // Vector kernels pay a per-row remainder/masking cost (half a vector of
    // wasted lanes plus the tail branch). This is what makes blind
    // vectorization a *slowdown* on very short rows (paper Fig. 1,
    // webbase-1M / delaunay / citation graphs).
    let mut row_extra = match inner {
        InnerLoop::Scalar => 0.0,
        InnerLoop::Unrolled4 => 2.0,
        InnerLoop::Simd => platform.simd_f64_lanes as f64 * platform.cpe_simd + 4.0,
    };
    // SELL-C-σ is exactly the cure for that per-row cost: lanes run
    // stride-1 over the slot-major stream with no remainder/masking, and
    // one chunk loop serves C rows, so the row overhead amortizes by C.
    // Compute still runs over the *real* nonzeros — the chunk kernels skip
    // trailing pads lane-wise — but the value/index streams are stored
    // padded, which `pad_factor` charges on the bandwidth side below.
    let mut row_overhead = platform.row_overhead_cycles;
    let mut pad_factor = 1.0;
    if matches!(config.format, SimFormat::SellCs) {
        row_extra = 0.0;
        row_overhead /= sparseopt_core::sell::SELL_C as f64;
        pad_factor = profile.sell_padded_slots as f64 / (profile.nnz as f64).max(1.0);
    }
    if config.prefetch {
        cpe += platform.prefetch_cost_cpe;
    }
    // Delta decoding adds a dependent add (and escape branch) per element;
    // vectorized variants decode into a block buffer, costing slightly more.
    if matches!(config.format, SimFormat::DeltaCsr) {
        cpe += match inner {
            InnerLoop::Scalar => 0.3,
            _ => 0.5,
        };
    }

    // --- Index-stream bytes per nonzero ------------------------------------
    let index_bpn = match config.format {
        SimFormat::DeltaCsr => profile.delta_index_bytes_per_nnz,
        _ => 4.0,
    };

    // Working set decides which STREAM figure applies (see
    // [`residency_regime`]: compression shrinks it, extra right-hand sides
    // grow the dense vectors, the suite scale factor grows it to the
    // modeled original's size).
    let (bw_total, bw_core, cache_resident) = residency_regime(profile, platform, config, k, 0.0);

    let freq = platform.freq_ghz * 1e9;
    let line = platform.cache_line as f64;
    let miss_ns = platform.mem_latency_ns;
    let unhidden = (1.0 - platform.latency_overlap)
        * if config.prefetch {
            1.0 - platform.prefetch_effectiveness
        } else {
            1.0
        };

    let mut thread_secs = Vec::with_capacity(nthreads);
    let mut traffic = 0.0f64;
    let mut matrix_traffic = 0.0f64;
    for w in &work {
        // Compute: k fused multiply-adds per element + per-row loop overhead
        // (amortized over column tiles) + schedule machinery.
        let row_pass = (tile + kf - 1.0) / tile;
        let compute_cycles =
            w.nnz * cpe * kf + w.rows * (row_overhead + row_extra) * row_pass + w.sched_cycles;
        let compute = compute_cycles / freq;

        // Bandwidth: matrix stream (values + indices + rowptr, padded for
        // SELL) paid once, y write-back paid k times, and each x miss pulls
        // a k-double row of X (at least one line).
        let matrix_bytes = w.nnz * (8.0 + index_bpn) * pad_factor + w.rows * 8.0;
        matrix_traffic += matrix_bytes;
        let bytes = matrix_bytes + w.rows * 8.0 * kf + w.misses * line.max(8.0 * kf);
        let bw_share = (bw_total * (w.nnz / nnz_total.max(1.0)))
            .max(1.0)
            .min(bw_core);
        let mem = if cache_resident {
            bytes / bw_core
        } else {
            bytes / bw_share
        };

        // Latency stalls: irregular misses that neither HW stream prefetch
        // nor (optionally) SW prefetch hides. Cache-resident sets stall on
        // LLC latency, an order of magnitude cheaper — fold to 10%.
        let eff_miss_ns = if cache_resident {
            miss_ns * 0.1
        } else {
            miss_ns
        };
        let stall = w.irregular * eff_miss_ns * unhidden / 1e9;

        thread_secs.push(compute.max(mem) + stall);
        traffic += bytes;
    }

    let mut secs = thread_secs.iter().copied().fold(0.0, f64::max).max(1e-12);
    if matches!(config.format, SimFormat::MergeCsr) {
        // Carry-merge fix-up: one serial pass over the per-thread carries
        // after the barrier. Each carry is a (row, k-wide partial) record:
        // a dirty line bounced from its producing core plus `k` dependent
        // adds, and the written output line back out.
        let fixup_cycles = nthreads as f64 * (CARRY_FIXUP_CYCLES + kf);
        secs += fixup_cycles / freq;
        traffic += nthreads as f64 * 2.0 * line.max(8.0 * kf);
    }
    SimResult {
        secs,
        gflops: 2.0 * nnz_total * kf / secs / 1e9,
        thread_secs,
        traffic_bytes: traffic,
        matrix_traffic_bytes: matrix_traffic,
    }
}

/// Execution model of the symmetric-storage (SSS) operator: one sweep over
/// the lower triangle where each stored off-diagonal element performs two
/// fused multiply-adds (gather `L·x` + scatter `Lᵀ·x`), streaming roughly
/// half the matrix bytes — plus the windowed scratch-merge costs the
/// scatter side pays.
///
/// Cost structure per thread (work is nnz-balanced over the lower triangle,
/// hence uniform like the merge path):
/// * **compute** — the full logical `NNZ · k` multiply-adds (the gather
///   half at the configured inner-loop rate, the scatter half pinned to the
///   scalar rate: an accumulate chain does not vectorize like a dot
///   product), per-row overhead, and this thread's merge-reduction share;
/// * **bandwidth** — the SSS stream ([`SimMatrixProfile::sym_matrix_bytes`])
///   paid once; `x` streamed sequentially `k`-wide; `y` written once by the
///   merge; half the cache-simulated misses charged as gather line fills
///   and half as scatter write-allocate (fill + write-back); plus the
///   windowed scratch read traffic
///   ([`SimMatrixProfile::sym_scratch_bytes`] · k);
/// * **latency** — only the gather half of the irregular misses stalls (the
///   scatter half retires through the store buffer).
fn simulate_sym(
    profile: &SimMatrixProfile,
    platform: &Platform,
    config: &SimKernelConfig,
    k: usize,
) -> SimResult {
    let kf = k as f64;
    let nthreads = profile.nthreads;
    let t = nthreads as f64;
    let nnz_total = profile.nnz as f64;
    let n = profile.nrows as f64;
    let scratch_elems = profile.sym_scratch_bytes as f64 / 8.0;

    let mut cpe_gather = match config.inner {
        InnerLoop::Scalar => platform.cpe_scalar,
        InnerLoop::Unrolled4 => platform.cpe_unrolled,
        InnerLoop::Simd => platform.cpe_simd,
    };
    if config.prefetch {
        cpe_gather += platform.prefetch_cost_cpe;
    }
    let cpe_scatter = platform.cpe_scalar;

    // Residency: the triangle split shrinks the working set, the windowed
    // scratch grows it.
    let scratch_bytes = profile.sym_scratch_bytes as f64 * kf;
    let (bw_total, bw_core, cache_resident) =
        residency_regime(profile, platform, config, k, scratch_bytes);

    let freq = platform.freq_ghz * 1e9;
    let line = platform.cache_line as f64;
    let miss_ns = platform.mem_latency_ns;
    let unhidden = (1.0 - platform.latency_overlap)
        * if config.prefetch {
            1.0 - platform.prefetch_effectiveness
        } else {
            1.0
        };

    let misses_total: f64 = profile.x_misses.iter().map(|&m| m as f64).sum();
    let irregular_total: f64 = profile.x_irregular_misses.iter().map(|&m| m as f64).sum();

    let mut thread_secs = Vec::with_capacity(nthreads);
    let mut traffic = 0.0f64;
    let matrix_traffic = profile.sym_matrix_bytes as f64;
    for _ in 0..nthreads {
        let nnz_th = nnz_total / t;
        let rows_th = n / t;
        let gather_misses = misses_total / 2.0 / t;
        let scatter_misses = misses_total / 2.0 / t;
        let irregular_th = irregular_total / 2.0 / t;

        // Two madds per stored element ≈ one madd per logical nonzero on
        // each side; merge share: one add per scratch element + the write.
        let merge_cycles = (scratch_elems + n) * kf / t;
        let compute_cycles = nnz_th * 0.5 * cpe_gather * kf
            + nnz_th * 0.5 * cpe_scatter * kf
            + rows_th * platform.row_overhead_cycles
            + merge_cycles;
        let compute = compute_cycles / freq;

        let bytes = matrix_traffic / t
            + rows_th * 8.0 * kf // x streamed sequentially
            + rows_th * 8.0 * kf // y written by the merge
            + gather_misses * line.max(8.0 * kf)
            + scatter_misses * 2.0 * line.max(8.0 * kf)
            + scratch_elems * 8.0 * kf / t; // merge reads the windows
        let bw_share = (bw_total / t).max(1.0).min(bw_core);
        let mem = if cache_resident {
            bytes / bw_core
        } else {
            bytes / bw_share
        };

        let eff_miss_ns = if cache_resident {
            miss_ns * 0.1
        } else {
            miss_ns
        };
        let stall = irregular_th * eff_miss_ns * unhidden / 1e9;

        thread_secs.push(compute.max(mem) + stall);
        traffic += bytes;
    }

    let secs = thread_secs.iter().copied().fold(0.0, f64::max).max(1e-12);
    SimResult {
        secs,
        gflops: 2.0 * nnz_total * kf / secs / 1e9,
        thread_secs,
        traffic_bytes: traffic,
        matrix_traffic_bytes: matrix_traffic,
    }
}

/// Serial carry fix-up cost per merge segment (cross-core dirty-line
/// transfer + the dependent add), in cycles.
const CARRY_FIXUP_CYCLES: f64 = 24.0;

/// The shared working-set → bandwidth/residency computation: compression
/// shrinks the set, extra right-hand sides grow the dense vectors,
/// `extra_bytes` adds any per-application scratch (the symmetric operator's
/// per-thread windows), and the suite scale factor grows everything to the
/// modeled original's size. Returns `(bw_total, bw_core, cache_resident)`.
fn residency_regime(
    profile: &SimMatrixProfile,
    platform: &Platform,
    config: &SimKernelConfig,
    k: usize,
    extra_bytes: f64,
) -> (f64, f64, bool) {
    let extra_vec_bytes = (k as f64 - 1.0) * profile.vector_bytes as f64;
    let csr_matrix_bytes = (profile.working_set_bytes - profile.vector_bytes) as f64;
    let compression_bytes = match config.format {
        SimFormat::DeltaCsr => (4.0 - profile.delta_index_bytes_per_nnz) * profile.nnz as f64,
        // The triangle split: working set shrinks by the upper triangle's
        // stream (never below zero — an asymmetric matrix modeled under SSS
        // stores nearly everything in the lower triangle anyway).
        SimFormat::SymCsr => (csr_matrix_bytes - profile.sym_matrix_bytes as f64).max(0.0),
        // SELL padding *grows* the stored values + indices: negative
        // "compression" pushes the working set toward the memory regime.
        SimFormat::SellCs => -(profile.sell_padded_slots.saturating_sub(profile.nnz) as f64 * 12.0),
        _ => 0.0,
    };
    let ws =
        ((profile.working_set_bytes as f64 - compression_bytes + extra_vec_bytes + extra_bytes)
            * profile.scale) as usize;
    let bw_total = platform.bandwidth_for_working_set(ws) * 1e9;
    // A single core cannot pull the whole chip's bandwidth; cap its share.
    let bw_core = ((bw_total / profile.nthreads as f64) * 4.0).min(bw_total);
    // If the working set is cache-resident, x misses refill from the LLC at
    // llc bandwidth rather than stalling on memory latency.
    let cache_resident = ws <= platform.total_cache_bytes();
    (bw_total, bw_core, cache_resident)
}

/// Redistributes the baseline per-thread workload according to the schedule
/// and format of `config`.
fn distribute(profile: &SimMatrixProfile, config: &SimKernelConfig) -> Vec<ThreadWork> {
    let t = profile.nthreads;
    let nnz = profile.nnz as f64;
    let rows = profile.nrows as f64;
    let misses_total: f64 = profile.x_misses.iter().map(|&m| m as f64).sum();
    let irregular_total: f64 = profile.x_irregular_misses.iter().map(|&m| m as f64).sum();
    // Per-chunk claim cost for self-scheduling policies (atomic RMW + line
    // ping-pong), in cycles.
    const CHUNK_CLAIM_CYCLES: f64 = 120.0;

    // Merge-path nonzero split: work is balanced by construction — rows are
    // divisible, so even a dominant row spreads evenly. The partition is
    // precomputed at operator-build time (no per-application scheduling
    // machinery); the serial carry fix-up is charged by the caller.
    if matches!(config.format, SimFormat::MergeCsr) {
        return (0..t)
            .map(|_| ThreadWork {
                nnz: nnz / t as f64,
                rows: rows / t as f64,
                misses: misses_total / t as f64,
                irregular: irregular_total / t as f64,
                sched_cycles: 0.0,
            })
            .collect();
    }

    // SELL-C-σ: the operator partitions chunks by their padded-slot counts
    // (the chunk pointer doubles as a weight vector), so per-thread work is
    // slot-balanced by construction — the σ-window sort confines a hub row
    // to one chunk and the chunk split is far finer than whole-row static
    // ranges.
    if matches!(config.format, SimFormat::SellCs) {
        return (0..t)
            .map(|_| ThreadWork {
                nnz: nnz / t as f64,
                rows: rows / t as f64,
                misses: misses_total / t as f64,
                irregular: irregular_total / t as f64,
                sched_cycles: 0.0,
            })
            .collect();
    }

    // Decomposition first: long rows are spread evenly, the rest follows the
    // schedule over a now-balanced short matrix.
    if matches!(config.format, SimFormat::Decomposed { .. }) {
        // Balanced work plus a small reduction/barrier cost per thread.
        let reduction_cycles = 2.0 * CHUNK_CLAIM_CYCLES + t as f64 * 8.0;
        return (0..t)
            .map(|_| ThreadWork {
                nnz: nnz / t as f64,
                rows: rows / t as f64,
                misses: misses_total / t as f64,
                irregular: irregular_total / t as f64,
                sched_cycles: reduction_cycles,
            })
            .collect();
    }

    match &config.schedule {
        Schedule::StaticNnz => (0..t)
            .map(|i| ThreadWork {
                nnz: profile.nnz_per_thread[i] as f64,
                rows: profile.rows_per_thread[i] as f64,
                misses: profile.x_misses[i] as f64,
                irregular: profile.x_irregular_misses[i] as f64,
                sched_cycles: 0.0,
            })
            .collect(),
        Schedule::StaticRows => {
            // Equal row counts: per-thread nnz and misses both come from the
            // cache-simulated row partition, which carries the real skew
            // (a dense-row thread has many elements but *sequential*, cheap
            // x accesses).
            (0..t)
                .map(|i| ThreadWork {
                    nnz: profile.rows_partition_nnz[i] as f64,
                    rows: profile.rows_partition_rows[i] as f64,
                    misses: profile.rows_partition_misses[i] as f64,
                    irregular: profile.rows_partition_irregular[i] as f64,
                    sched_cycles: 0.0,
                })
                .collect()
        }
        Schedule::Dynamic { chunk } | Schedule::Guided { min_chunk: chunk } => {
            // Self-scheduling balances everything except indivisible rows:
            // the largest row lower-bounds one thread's share.
            let chunkf = (*chunk).max(1) as f64;
            let nchunks = (rows / chunkf).ceil();
            let claims_per_thread = nchunks / t as f64;
            let hot = profile.max_row_nnz as f64;
            let base = nnz / t as f64;
            (0..t)
                .map(|i| {
                    // Self-scheduling balances everything divisible; one
                    // thread must still swallow the largest row whole. That
                    // row streams sequentially, so the *miss* share stays
                    // balanced — only its element count is indivisible.
                    let n = if i == 0 { base.max(hot) } else { base };
                    ThreadWork {
                        nnz: n,
                        rows: rows / t as f64,
                        misses: misses_total / t as f64,
                        irregular: irregular_total / t as f64,
                        sched_cycles: claims_per_thread * CHUNK_CLAIM_CYCLES,
                    }
                })
                .collect()
        }
        Schedule::Auto => {
            // Mirror the core Auto heuristic's outcome space: skew ⇒ dynamic
            // fine chunks, otherwise static nnz.
            let avg = nnz / rows.max(1.0);
            let inner = if profile.max_row_nnz as f64 > 16.0 * avg {
                SimKernelConfig {
                    schedule: Schedule::Dynamic {
                        chunk: (profile.nrows / (t * 16)).clamp(4, 1024),
                    },
                    ..config.clone()
                }
            } else {
                SimKernelConfig {
                    schedule: Schedule::StaticNnz,
                    ..config.clone()
                }
            };
            distribute(profile, &inner)
        }
    }
}

/// `P_MB` bound (paper §III-B) with `k` right-hand sides: `2·NNZ·k` flops
/// over the CSR footprint (streamed once) plus `k` copies of the dense
/// vectors, at the bandwidth of that working set. The per-nonzero matrix
/// traffic divides by the reuse factor, so this roof rises with `k` toward
/// the values-only ceiling.
pub fn analytic_mb_bound(profile: &SimMatrixProfile, platform: &Platform, k: usize) -> f64 {
    assert!(k >= 1, "need at least one right-hand side");
    let bytes = profile.working_set_bytes as f64 + (k - 1) as f64 * profile.vector_bytes as f64;
    let ws = (bytes * profile.scale) as usize;
    let bw = platform.bandwidth_for_working_set(ws) * 1e9;
    2.0 * profile.nnz as f64 * k as f64 / (bytes / bw) / 1e9
}

/// `P_peak` bound with `k` right-hand sides: indexing structures compressed
/// away entirely, so only the values stream, plus `k` copies of the dense
/// vectors (`x` and `y`, [`SimMatrixProfile::vector_bytes`]).
pub fn analytic_peak_bound(profile: &SimMatrixProfile, platform: &Platform, k: usize) -> f64 {
    assert!(k >= 1, "need at least one right-hand side");
    let bytes = (profile.nnz * 8 + profile.vector_bytes * k) as f64;
    let ws = ((profile.working_set_bytes + (k - 1) * profile.vector_bytes) as f64 * profile.scale)
        as usize;
    let bw = platform.bandwidth_for_working_set(ws) * 1e9;
    2.0 * profile.nnz as f64 * k as f64 / (bytes / bw) / 1e9
}

/// `P_ML` bound (paper §III-B) with `k` right-hand sides: the baseline
/// kernel with irregular accesses to `x` "converted to regular accesses" —
/// modeled by zeroing the x-miss counts (all x loads hit cache).
pub fn simulate_ml_bound(profile: &SimMatrixProfile, platform: &Platform, k: usize) -> f64 {
    let mut regular = profile.clone();
    regular.x_misses = vec![0; regular.nthreads];
    regular.x_irregular_misses = vec![0; regular.nthreads];
    simulate(&regular, platform, &SimKernelConfig::baseline(), k).gflops
}

/// `P_CMP` bound (paper §III-B) with `k` right-hand sides: indirect
/// references eliminated entirely — no `colind` stream, no x misses,
/// unit-stride access only. A "very loose" upper bound by construction.
pub fn simulate_cmp_bound(profile: &SimMatrixProfile, platform: &Platform, k: usize) -> f64 {
    let mut unit = profile.clone();
    unit.x_misses = vec![0; unit.nthreads];
    unit.x_irregular_misses = vec![0; unit.nthreads];
    // No colind: the DeltaCsr path reads its index bytes per nonzero from
    // the profile, so zero there models an index stream of zero bytes.
    unit.delta_index_bytes_per_nnz = 0.0;
    unit.working_set_bytes = unit.nnz * 8 + unit.vector_bytes;
    // The unit-stride micro-benchmark loop is a plain reduction the
    // compiler auto-vectorizes at -O3, so the bound runs the unrolled loop.
    // Modeling it as DeltaCsr also charges the delta-decode cost of the
    // non-scalar loops, +0.5 cycles per element on top of `cpe_unrolled`;
    // the bound keeps that charge.
    let cfg = SimKernelConfig {
        format: SimFormat::DeltaCsr,
        inner: InnerLoop::Unrolled4,
        ..SimKernelConfig::baseline()
    };
    simulate(&unit, platform, &cfg, k).gflops
}

/// `P_IMB` bound (paper §III-B) with `k` right-hand sides:
/// `2·NNZ·k / t_median` over the baseline run's per-thread times.
pub fn simulate_imb_bound(profile: &SimMatrixProfile, platform: &Platform, k: usize) -> f64 {
    let base = simulate(profile, platform, &SimKernelConfig::baseline(), k);
    let median = base.median_thread_secs().max(1e-12);
    2.0 * profile.nnz as f64 * k as f64 / median / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_matrix::generators as g;

    fn profile(csr: &CsrMatrix, p: &Platform) -> SimMatrixProfile {
        SimMatrixProfile::analyze(csr, p)
    }

    #[test]
    fn banded_matrix_is_bandwidth_bound_on_knc() {
        let csr = CsrMatrix::from_coo(&g::banded(20_000, 4));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let base = simulate(&prof, &knc, &SimKernelConfig::baseline(), 1);
        let mb = analytic_mb_bound(&prof, &knc, 1);
        // Baseline must sit below but within reach of the bandwidth roof.
        assert!(
            base.gflops <= mb * 1.05,
            "baseline {} vs MB roof {}",
            base.gflops,
            mb
        );
        assert!(
            base.gflops > 0.1 * mb,
            "regular matrix should approach the roof"
        );
    }

    #[test]
    fn irregular_matrix_gains_from_prefetch_on_knc() {
        let csr = CsrMatrix::from_coo(&g::random_uniform(20_000, 8, 42));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let base = simulate(&prof, &knc, &SimKernelConfig::baseline(), 1);
        let pf = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                prefetch: true,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        assert!(
            pf.gflops > 1.2 * base.gflops,
            "prefetch should relieve latency: {} vs {}",
            pf.gflops,
            base.gflops
        );
    }

    #[test]
    fn regular_matrix_not_helped_by_prefetch() {
        let csr = CsrMatrix::from_coo(&g::banded(20_000, 4));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let base = simulate(&prof, &knc, &SimKernelConfig::baseline(), 1);
        let pf = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                prefetch: true,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        // Prefetch instructions cost a little and hide nothing here.
        assert!(pf.gflops <= base.gflops * 1.02);
    }

    #[test]
    fn skewed_matrix_helped_by_decomposition() {
        let csr = CsrMatrix::from_coo(&g::few_dense_rows(20_000, 2, 4, 7));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let base = simulate(&prof, &knc, &SimKernelConfig::baseline(), 1);
        let dec = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                format: SimFormat::Decomposed { threshold: 64 },
                ..SimKernelConfig::baseline()
            },
            1,
        );
        assert!(
            dec.gflops > 1.3 * base.gflops,
            "decomposition must relieve imbalance: {} vs {}",
            dec.gflops,
            base.gflops
        );
    }

    #[test]
    fn vectorization_helps_compute_bound_dense() {
        let csr = CsrMatrix::from_coo(&g::dense(96));
        let knl = Platform::knl();
        let prof = profile(&csr, &knl);
        let base = simulate(&prof, &knl, &SimKernelConfig::baseline(), 1);
        let simd = simulate(
            &prof,
            &knl,
            &SimKernelConfig {
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        assert!(simd.gflops > 1.5 * base.gflops);
    }

    #[test]
    fn sell_vectorizes_short_rows_without_the_remainder_penalty() {
        // Short irregular rows are exactly where blind CSR vectorization
        // loses (paper Fig. 1): the per-row masking/remainder cost swamps
        // 8-element rows. The SELL-C-σ model has no per-row vector cost, so
        // its vectorized prediction must beat both CSR+SIMD and the scalar
        // baseline.
        let csr = CsrMatrix::from_coo(&g::random_uniform(20_000, 8, 42));
        let knl = Platform::knl();
        let prof = profile(&csr, &knl);
        let base = simulate(&prof, &knl, &SimKernelConfig::baseline(), 1);
        let csr_simd = simulate(
            &prof,
            &knl,
            &SimKernelConfig {
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        let sell = simulate(
            &prof,
            &knl,
            &SimKernelConfig {
                format: SimFormat::SellCs,
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        assert!(
            sell.gflops > csr_simd.gflops,
            "SELL {} must beat CSR+SIMD {} on short rows",
            sell.gflops,
            csr_simd.gflops
        );
        assert!(
            sell.gflops >= base.gflops,
            "SELL {} must not lose to scalar CSR {}",
            sell.gflops,
            base.gflops
        );
    }

    #[test]
    fn sell_padding_is_charged_as_matrix_traffic() {
        // A power-law matrix pads: the modeled SELL matrix stream must grow
        // over CSR's by exactly the padded-slot ratio (the format trades
        // bytes for stride-1 lanes — the model must not pretend otherwise).
        let csr = CsrMatrix::from_coo(&g::power_law_hub(8192, 2, 11));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        assert!(
            prof.sell_padded_slots > prof.nnz,
            "sorted SELL still pads a power-law matrix"
        );
        let mk = |format| SimKernelConfig {
            format,
            inner: InnerLoop::Simd,
            ..SimKernelConfig::baseline()
        };
        let base = simulate(&prof, &knc, &mk(SimFormat::Csr), 1);
        let sell = simulate(&prof, &knc, &mk(SimFormat::SellCs), 1);
        assert!(
            sell.matrix_traffic_bytes > base.matrix_traffic_bytes,
            "padded slots must appear as matrix traffic: {} vs {}",
            sell.matrix_traffic_bytes,
            base.matrix_traffic_bytes
        );
    }

    #[test]
    fn compression_helps_bandwidth_bound() {
        // Large enough to exceed KNC's 31 MiB aggregate cache, and with
        // enough nonzeros per row that the stream (not the row loop)
        // dominates.
        let csr = CsrMatrix::from_coo(&g::banded(150_000, 12));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        assert!(
            prof.delta_index_bytes_per_nnz < 2.0,
            "band compresses to u8 deltas"
        );
        assert!(
            prof.working_set_bytes > knc.total_cache_bytes(),
            "must be memory-resident"
        );
        let base = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        let comp = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                format: SimFormat::DeltaCsr,
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        assert!(
            comp.gflops > base.gflops,
            "compression must lift a bandwidth-bound kernel: {} vs {}",
            comp.gflops,
            base.gflops
        );
    }

    #[test]
    fn median_vs_max_exposes_imbalance() {
        let csr = CsrMatrix::from_coo(&g::few_dense_rows(20_000, 2, 3, 9));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let base = simulate(&prof, &knc, &SimKernelConfig::baseline(), 1);
        assert!(
            base.median_thread_secs() < 0.7 * base.secs,
            "median thread must finish well before the hot one"
        );
    }

    #[test]
    fn peak_bound_dominates_mb_bound() {
        let csr = CsrMatrix::from_coo(&g::poisson3d(12, 12, 12));
        for p in Platform::paper_platforms() {
            let prof = profile(&csr, &p);
            assert!(analytic_peak_bound(&prof, &p, 1) >= analytic_mb_bound(&prof, &p, 1));
        }
    }

    #[test]
    fn peak_bound_streams_x_and_y_on_a_wide_matrix() {
        // A 400 × 6000 system, the shape LSQR/CGNR solve: the dense vectors
        // are x (ncols doubles) and y (nrows doubles), not twice y.
        let (nrows, ncols) = (400usize, 6000usize);
        let mut coo = sparseopt_core::coo::CooMatrix::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..8 {
                coo.push(i, (i * 15 + j * 750) % ncols, 1.0);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let nnz = csr.nnz() as f64;
        for p in Platform::paper_platforms() {
            let prof = profile(&csr, &p);
            let bw = p.bandwidth_for_working_set(prof.effective_working_set()) * 1e9;
            let bytes = nnz * 8.0 + (nrows + ncols) as f64 * 8.0;
            let want = 2.0 * nnz / (bytes / bw) / 1e9;
            let got = analytic_peak_bound(&prof, &p, 1);
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "{}: P_peak {got} vs {want}",
                p.name
            );
        }
    }

    #[test]
    fn spmm_time_per_rhs_never_increases() {
        // Memory-resident bandwidth-bound matrix: the regime where the
        // reuse-factor amortization matters most.
        let csr = CsrMatrix::from_coo(&g::banded(150_000, 12));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let mut last_per_rhs = f64::INFINITY;
        for k in [1usize, 2, 3, 4, 6, 8, 12, 16, 32] {
            let r = simulate(&prof, &knc, &SimKernelConfig::baseline(), k);
            let per_rhs = r.secs / k as f64;
            assert!(
                per_rhs <= last_per_rhs * (1.0 + 1e-12),
                "per-RHS time rose at k={k}: {per_rhs} vs {last_per_rhs}"
            );
            last_per_rhs = per_rhs;
        }
    }

    #[test]
    fn spmm_mb_roof_rises_with_k_toward_peak() {
        // Well beyond KNC's aggregate cache at every k, so the bandwidth
        // figure is fixed and only the reuse factor moves the roof.
        let csr = CsrMatrix::from_coo(&g::banded(400_000, 12));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        assert!(prof.working_set_bytes > knc.total_cache_bytes());
        let mut last = 0.0;
        for k in [1usize, 2, 4, 8, 16] {
            // The Gflop/s roof equals flops-per-RHS over time-per-RHS, so
            // "per-RHS time non-increasing" reads as a non-decreasing roof.
            let roof = analytic_mb_bound(&prof, &knc, k);
            assert!(
                roof >= last,
                "MB roof must rise with k: {roof} vs {last} at k={k}"
            );
            last = roof;
            assert!(
                analytic_peak_bound(&prof, &knc, k) >= analytic_mb_bound(&prof, &knc, k) - 1e-9
            );
        }
    }

    #[test]
    fn merge_path_relieves_dominant_row_imbalance() {
        // One mega row (~1/3 of all nonzeros): every whole-row schedule
        // leaves a thread holding the row, the merge path splits it.
        let csr = CsrMatrix::from_coo(&g::few_dense_rows(20_000, 2, 1, 3));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let merge = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                format: SimFormat::MergeCsr,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        for schedule in [
            Schedule::StaticRows,
            Schedule::StaticNnz,
            Schedule::Dynamic { chunk: 64 },
            Schedule::Guided { min_chunk: 4 },
            Schedule::Auto,
        ] {
            let whole_row = simulate(
                &prof,
                &knc,
                &SimKernelConfig {
                    schedule: schedule.clone(),
                    ..SimKernelConfig::baseline()
                },
                1,
            );
            assert!(
                merge.gflops > 1.5 * whole_row.gflops,
                "merge {} must beat whole-row {:?} at {}",
                merge.gflops,
                schedule,
                whole_row.gflops
            );
        }
    }

    #[test]
    fn merge_carry_fixup_is_not_free() {
        // On a regular matrix the merge path buys nothing (static nnz is
        // already balanced) and pays carry traffic: the model must charge it.
        let csr = CsrMatrix::from_coo(&g::banded(20_000, 4));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let base = simulate(&prof, &knc, &SimKernelConfig::baseline(), 1);
        let merge = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                format: SimFormat::MergeCsr,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        assert!(
            merge.traffic_bytes > base.traffic_bytes,
            "carry lines must appear as traffic"
        );
        assert!(
            merge.gflops <= base.gflops * 1.05,
            "no imbalance to relieve: merge {} vs base {}",
            merge.gflops,
            base.gflops
        );
    }

    #[test]
    fn sym_storage_halves_matrix_traffic_on_symmetric_band() {
        // The acceptance pin: on a symmetric banded matrix the modeled
        // matrix stream under SSS storage is at most 0.6× of plain CSR
        // (strictly lower triangle + dense diagonal vs the full stream).
        let csr = CsrMatrix::from_coo(&g::symmetric_banded(150_000, 12));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        assert!(
            prof.working_set_bytes > knc.total_cache_bytes(),
            "must be memory-resident for the MB argument"
        );
        // The MB plan composes storage compression with vectorization
        // (`sym-compress` resolves the inner loop exactly like
        // `compress+vec`), so the comparison runs both sides vectorized —
        // at the scalar rate KNC is marginally compute-bound and no
        // traffic optimization can show through.
        let base = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        let sym = simulate(
            &prof,
            &knc,
            &SimKernelConfig {
                format: SimFormat::SymCsr,
                inner: InnerLoop::Simd,
                ..SimKernelConfig::baseline()
            },
            1,
        );
        assert!(
            sym.matrix_traffic_bytes <= 0.6 * base.matrix_traffic_bytes,
            "SSS matrix stream {} must be ≤ 0.6× of CSR {}",
            sym.matrix_traffic_bytes,
            base.matrix_traffic_bytes
        );
        // The halved stream must show up as a modeled MB win, windowed
        // scratch merge and all.
        assert!(
            sym.traffic_bytes < base.traffic_bytes,
            "total traffic must drop: {} vs {}",
            sym.traffic_bytes,
            base.traffic_bytes
        );
        assert!(
            sym.gflops > 1.2 * base.gflops,
            "bandwidth-bound kernel must speed up: {} vs {}",
            sym.gflops,
            base.gflops
        );
    }

    #[test]
    fn sym_windowed_scratch_stays_near_n_on_banded() {
        // The windowed merge is what keeps the scheme viable on many-core:
        // per-thread windows are the thread's own rows plus a one-bandwidth
        // halo, so the scratch is ~n doubles — not nthreads·n.
        let band = 12usize;
        let csr = CsrMatrix::from_coo(&g::symmetric_banded(150_000, band));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let full = prof.nthreads * 150_000 * 8;
        assert!(
            prof.sym_scratch_bytes <= (150_000 + prof.nthreads * band) * 8,
            "windowed scratch {} must be ~n, naive scheme would be {}",
            prof.sym_scratch_bytes,
            full
        );
    }

    #[test]
    fn sym_per_rhs_time_never_increases() {
        let csr = CsrMatrix::from_coo(&g::symmetric_banded(150_000, 12));
        let knc = Platform::knc();
        let prof = profile(&csr, &knc);
        let cfg = SimKernelConfig {
            format: SimFormat::SymCsr,
            ..SimKernelConfig::baseline()
        };
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8, 16] {
            let r = simulate(&prof, &knc, &cfg, k);
            let per_rhs = r.secs / k as f64;
            assert!(
                per_rhs <= last * (1.0 + 1e-12),
                "per-RHS time rose at k={k}: {per_rhs} vs {last}"
            );
            last = per_rhs;
        }
    }

    #[test]
    fn knl_outperforms_knc_on_bandwidth_bound() {
        let csr = CsrMatrix::from_coo(&g::banded(30_000, 4));
        let knc = Platform::knc();
        let knl = Platform::knl();
        let r_knc = simulate(&profile(&csr, &knc), &knc, &SimKernelConfig::baseline(), 1);
        let r_knl = simulate(&profile(&csr, &knl), &knl, &SimKernelConfig::baseline(), 1);
        assert!(r_knl.gflops > r_knc.gflops, "HBM must win on streaming");
    }
}
