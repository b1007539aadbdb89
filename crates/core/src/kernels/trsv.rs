//! Sparse triangular solve (SpTRSV) — the second member of the sparse kernel
//! family next to SpMV (the kease reference treats SpMV, SpTRSV, and SymGS
//! as one family), and the compute core of the incomplete-factorization
//! preconditioners in `sparseopt-solver`.
//!
//! Solving `L x = b` (or `U x = b`) is **dependency-bound**, not
//! bandwidth/latency/imbalance-bound like SpMV: row `i` cannot be solved
//! before every row it references. The dependency DAG is exposed by *level
//! scheduling* ([`LevelSets`]): level 0 holds the rows with no off-diagonal
//! dependencies, level `ℓ` the rows whose deepest dependency sits in level
//! `ℓ − 1`. Rows **within** a level are independent, so the kernel solves
//! them pool-parallel with one barrier per level. The shape of the DAG —
//! level count × average level width — decides whether that pays:
//! a banded triangle degenerates to `n` single-row levels (serial chain,
//! [`TrsvAlgo::Serial`] wins), while stencil/random triangles have wide
//! levels where [`TrsvAlgo::LevelScheduled`] approaches `nthreads`-way
//! speedup. The `sparseopt-sim` crate models exactly this trade
//! (`simulate_trsv`), and [`TrsvAlgo::Auto`] applies a host-side heuristic.
//!
//! **Execution-order storage**: the kernel copies the triangle once, at
//! construction, into a private CSR whose rows sit in the order the solve
//! visits them — level order for [`TrsvAlgo::LevelScheduled`], natural
//! order for [`TrsvAlgo::Serial`]. The summed diagonal moves into a
//! per-row array and the off-diagonal entries keep their storage order and
//! original column indices. Every per-level, per-thread chunk is then one
//! contiguous slice of values and indices, so the level-scheduled solve
//! streams the factor like SpMV does instead of gathering rows scattered
//! across it (on a 3-D stencil, consecutive rows of a level sit a grid
//! line apart).
//!
//! **Bit-identical guarantee**: both algorithms run the *same* per-row
//! substitution (`x_i = (b_i − Σ_{j≠i} a_ij·x_j) / a_ii`, entries in storage
//! order, one division). Level scheduling only reorders *whole rows* whose
//! inputs are final either way, so the level-scheduled solution is
//! bit-identical to serial substitution — pinned by the equivalence suite.

use super::super::util::SendMutPtr;
use crate::csr::CsrMatrix;
use crate::multivec::MultiVec;
use crate::pool::ExecCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which triangle the operand matrix is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsvDirection {
    /// Lower triangular (`col <= row`): forward substitution, rows solved in
    /// ascending dependency order.
    Lower,
    /// Upper triangular (`col >= row`): backward substitution.
    Upper,
}

/// Execution algorithm for the solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsvAlgo {
    /// Plain forward/backward substitution on one thread — optimal for
    /// serial-chain DAGs (bands) and the reference the level-scheduled path
    /// must match bit-for-bit.
    Serial,
    /// Level-scheduled: rows within a level solved pool-parallel, one spin
    /// barrier per level.
    LevelScheduled,
    /// Pick per matrix: level-scheduled when the DAG is wide enough for the
    /// per-level barrier to amortize on this context's thread count.
    Auto,
}

impl TrsvAlgo {
    /// The algorithm `self` runs as on a triangle with these `levels` and
    /// `nthreads` threads — never `Auto`. `Auto` goes level-scheduled when
    /// the context has more than one thread and the DAG is wide enough to
    /// amortize the per-level barrier; one thread always runs serial.
    pub fn resolve(self, levels: &LevelSets, nthreads: usize) -> TrsvAlgo {
        match self {
            TrsvAlgo::Auto => {
                if nthreads > 1 && levels.avg_width() >= AUTO_WIDTH_PER_THREAD * nthreads as f64 {
                    TrsvAlgo::LevelScheduled
                } else {
                    TrsvAlgo::Serial
                }
            }
            TrsvAlgo::LevelScheduled if nthreads == 1 => TrsvAlgo::Serial,
            a => a,
        }
    }
}

/// Construction-time validation failure of a triangular operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsvError {
    /// The matrix is not square.
    NotSquare,
    /// A stored entry lies on the wrong side of the diagonal.
    NotTriangular {
        /// Offending row.
        row: usize,
    },
    /// A non-unit solve found a zero (or absent) diagonal in this row.
    ZeroDiagonal {
        /// Offending row.
        row: usize,
    },
}

impl std::fmt::Display for TrsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrsvError::NotSquare => write!(f, "triangular solve needs a square matrix"),
            TrsvError::NotTriangular { row } => {
                write!(f, "row {row} has an entry outside the triangle")
            }
            TrsvError::ZeroDiagonal { row } => {
                write!(f, "row {row} has a zero diagonal (non-unit solve)")
            }
        }
    }
}

impl std::error::Error for TrsvError {}

/// Level sets of a triangular matrix's dependency DAG.
///
/// `level_ptr[ℓ]..level_ptr[ℓ+1]` delimits level `ℓ`'s rows inside the
/// `rows` permutation; every row's off-diagonal dependencies live in
/// strictly earlier levels. Built once per matrix in `O(NNZ)`. A
/// level-scheduled [`TrsvKernel`] stores its rows in this permutation's
/// order.
#[derive(Clone, Debug)]
pub struct LevelSets {
    level_ptr: Vec<usize>,
    rows: Vec<u32>,
}

impl LevelSets {
    /// Computes the level sets of `csr` interpreted as the given triangle.
    /// Entries on the wrong side of the diagonal are ignored here
    /// (construction via [`TrsvKernel`] rejects them before this runs).
    pub fn build(csr: &CsrMatrix, direction: TrsvDirection) -> Self {
        let n = csr.nrows();
        let mut level = vec![0u32; n];
        let mut nlevels = 0u32;
        let order: Box<dyn Iterator<Item = usize>> = match direction {
            TrsvDirection::Lower => Box::new(0..n),
            TrsvDirection::Upper => Box::new((0..n).rev()),
        };
        for i in order {
            let mut lv = 0u32;
            for &c in csr.row_cols(i) {
                let c = c as usize;
                let dep = match direction {
                    TrsvDirection::Lower => c < i,
                    TrsvDirection::Upper => c > i,
                };
                if dep {
                    lv = lv.max(level[c] + 1);
                }
            }
            level[i] = lv;
            nlevels = nlevels.max(lv + 1);
        }
        let nlevels = if n == 0 { 0 } else { nlevels as usize };
        // Bucket rows by level (counting sort keeps rows ascending within a
        // level — deterministic, and cache-friendly chunks for the solver).
        let mut level_ptr = vec![0usize; nlevels + 1];
        for &lv in &level {
            level_ptr[lv as usize + 1] += 1;
        }
        for l in 0..nlevels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut cursor = level_ptr.clone();
        let mut rows = vec![0u32; n];
        for (i, &lv) in level.iter().enumerate() {
            let lv = lv as usize;
            rows[cursor[lv]] = i as u32;
            cursor[lv] += 1;
        }
        Self { level_ptr, rows }
    }

    /// Number of levels (the DAG's critical-path length).
    #[inline]
    pub fn nlevels(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// Rows of level `l`, in ascending row order.
    #[inline]
    pub fn level_rows(&self, l: usize) -> &[u32] {
        &self.rows[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Every row in level order: the rows of level 0, then level 1, and so
    /// on. Renumbering a triangle by this order makes each level a
    /// contiguous range of rows.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.rows
    }

    /// Mean rows per level — the DAG-width summary the selection heuristic
    /// and the sim's dependency-bound model key on.
    pub fn avg_width(&self) -> f64 {
        if self.nlevels() == 0 {
            0.0
        } else {
            self.rows.len() as f64 / self.nlevels() as f64
        }
    }

    /// Row counts per level (the sim profile's input).
    pub fn level_row_counts(&self) -> Vec<usize> {
        (0..self.nlevels())
            .map(|l| self.level_ptr[l + 1] - self.level_ptr[l])
            .collect()
    }
}

/// A reusable sense-reversing spin barrier for the inter-level
/// synchronization. `std::sync::Barrier` parks threads through a mutex +
/// condvar — microseconds per wait — which would eat the level-parallel win
/// on the thousands of short levels real triangles have; spinning costs
/// ~100 ns on the core counts this pool runs.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            n,
        }
    }

    #[inline]
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 1 << 12 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed pool (more workers than cores): yield so
                    // the straggler can run at all.
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Average level width below which level scheduling cannot amortize its
/// per-level barrier against the rows it parallelizes (per thread). At 2
/// threads a 96×96 2-D stencil triangle (191 levels of 48 rows) stays
/// serial, where the level path measured slower; a 91³ 3-D stencil
/// triangle (271 levels of 2780 rows) goes level-scheduled. Re-measured on
/// the caller-participating `ExecCtx` (2-vCPU Xeon host, best of 5 batches,
/// 12 repeats): the 96×96 stencil solved in 76–126 µs level-scheduled
/// against 74–98 µs serial, while a 12k symmetric power-law triangle
/// (90 levels of 133 rows) solved in 148–286 µs against 188–320 µs. The
/// cut-over lies between those widths, where this rule puts it.
const AUTO_WIDTH_PER_THREAD: f64 = 32.0;

/// The triangle packed in execution order: packed row `p` is the `p`-th
/// row the solve visits. Its off-diagonal entries are
/// `rowptr[p]..rowptr[p+1]` of `colind`/`values`, in their original storage
/// order and with their original column indices; its summed diagonal is
/// `diag[p]`.
struct PackedTriangle {
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    values: Vec<f64>,
    diag: Vec<f64>,
}

impl PackedTriangle {
    /// Copies the rows of `matrix` named by `order`, dropping diagonal
    /// entries in favour of `diag_of` (the per-row summed diagonal in
    /// natural order). `offdiag` is the off-diagonal entry count, so the
    /// arrays are allocated once at their final size.
    fn pack(
        matrix: &CsrMatrix,
        order: impl Iterator<Item = usize>,
        diag_of: &[f64],
        offdiag: usize,
    ) -> Self {
        let n = matrix.nrows();
        let mut rowptr = Vec::with_capacity(n + 1);
        let mut colind = Vec::with_capacity(offdiag);
        let mut values = Vec::with_capacity(offdiag);
        let mut diag = Vec::with_capacity(n);
        rowptr.push(0);
        for i in order {
            for (&c, &v) in matrix.row_cols(i).iter().zip(matrix.row_vals(i)) {
                if c as usize != i {
                    colind.push(c);
                    values.push(v);
                }
            }
            rowptr.push(colind.len());
            diag.push(diag_of[i]);
        }
        Self {
            rowptr,
            colind,
            values,
            diag,
        }
    }

    /// The shared per-row substitution for packed row `p`, which is row `i`
    /// of the triangle: entries in storage order, then one division. Both
    /// execution paths call exactly this, which is what makes them
    /// bit-identical. `k = 1` gets its own loop so the single-vector solve
    /// carries no column stride.
    ///
    /// # Safety
    /// `x` must hold `n · k` elements, and its reads/writes must be
    /// race-free: row `i` is written by exactly one thread and its
    /// dependencies are final (same level ⇒ independent; earlier level ⇒
    /// published by the barrier).
    #[inline(always)]
    unsafe fn solve_row(
        &self,
        p: usize,
        i: usize,
        b: &[f64],
        k: usize,
        unit_diag: bool,
        x: SendMutPtr<f64>,
    ) {
        let entries = self.rowptr[p]..self.rowptr[p + 1];
        let cols = &self.colind[entries.clone()];
        let vals = &self.values[entries];
        if k == 1 {
            let mut s = b[i];
            for (&c, &v) in cols.iter().zip(vals) {
                // SAFETY: `c < n` (validated at construction) and row `c`
                // is final (the caller's contract).
                s -= v * unsafe { x.read(c as usize) };
            }
            let xi = if unit_diag { s } else { s / self.diag[p] };
            // SAFETY: row `i` has exactly one writer (the caller's contract).
            unsafe { x.write(i, xi) };
        } else {
            for j in 0..k {
                let mut s = b[i * k + j];
                for (&c, &v) in cols.iter().zip(vals) {
                    // SAFETY: as above, column `j` of row `c`.
                    s -= v * unsafe { x.read(c as usize * k + j) };
                }
                let xi = if unit_diag { s } else { s / self.diag[p] };
                // SAFETY: as above, column `j` of row `i`.
                unsafe { x.write(i * k + j, xi) };
            }
        }
    }
}

/// The sparse triangular solve kernel: `x = T⁻¹ b` for a lower or upper
/// triangular CSR matrix, with serial substitution and a level-scheduled
/// pool-parallel path that is bit-identical to it. The kernel holds its own
/// copy of the triangle, packed in execution order (see the module docs).
///
/// ```
/// use sparseopt_core::prelude::*;
///
/// // L = [2 0; 1 4]: forward substitution gives x = [1, 1].
/// let mut coo = CooMatrix::new(2, 2);
/// for (r, c, v) in [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 4.0)] {
///     coo.push(r, c, v);
/// }
/// let l = CsrMatrix::from_coo(&coo);
/// let solver = TrsvKernel::try_new(
///     &l, TrsvDirection::Lower, false, TrsvAlgo::Auto, ExecCtx::new(1),
/// ).expect("valid triangle");
/// let mut x = vec![0.0; 2];
/// solver.solve(&[2.0, 5.0], &mut x);
/// assert_eq!(x, vec![1.0, 1.0]);
/// ```
pub struct TrsvKernel {
    direction: TrsvDirection,
    unit_diag: bool,
    /// Stored entries of the source triangle, diagonal included (the flop
    /// count's base).
    nnz: usize,
    packed: PackedTriangle,
    /// The DAG's levels. On the level path `levels.rows[p]` is the triangle
    /// row stored as packed row `p`; on the serial path packed row `p` is
    /// row `p`.
    levels: LevelSets,
    /// Per-level per-thread chunk boundaries in packed rows
    /// (`nlevels · (nthreads + 1)` absolute offsets, nnz-balanced).
    chunks: Vec<usize>,
    algo: TrsvAlgo,
    ctx: Arc<ExecCtx>,
}

impl TrsvKernel {
    /// Builds the solver, validating shape, triangularity, and (for non-unit
    /// solves) a zero-free diagonal, then packs the triangle in execution
    /// order; `matrix` is not retained. Duplicate diagonal entries are
    /// summed, like [`CsrMatrix::diagonal`]. `TrsvAlgo::Auto` resolves to
    /// level-scheduled when the context has more than one thread and the DAG
    /// is wide enough to amortize the per-level barrier; a one-thread
    /// context always resolves to serial.
    pub fn try_new(
        matrix: &CsrMatrix,
        direction: TrsvDirection,
        unit_diag: bool,
        algo: TrsvAlgo,
        ctx: Arc<ExecCtx>,
    ) -> Result<Self, TrsvError> {
        if matrix.nrows() != matrix.ncols() {
            return Err(TrsvError::NotSquare);
        }
        let n = matrix.nrows();
        let mut diag = vec![0.0f64; n];
        let mut offdiag = matrix.nnz();
        for (i, di) in diag.iter_mut().enumerate() {
            for (&c, &v) in matrix.row_cols(i).iter().zip(matrix.row_vals(i)) {
                let c = c as usize;
                let outside = match direction {
                    TrsvDirection::Lower => c > i,
                    TrsvDirection::Upper => c < i,
                };
                if outside {
                    return Err(TrsvError::NotTriangular { row: i });
                }
                if c == i {
                    *di += v;
                    offdiag -= 1;
                }
            }
            if !unit_diag && *di == 0.0 {
                return Err(TrsvError::ZeroDiagonal { row: i });
            }
        }

        let levels = LevelSets::build(matrix, direction);
        let nthreads = ctx.nthreads();
        let algo = algo.resolve(&levels, nthreads);
        let packed = match algo {
            TrsvAlgo::LevelScheduled => PackedTriangle::pack(
                matrix,
                levels.rows.iter().map(|&i| i as usize),
                &diag,
                offdiag,
            ),
            _ => PackedTriangle::pack(matrix, 0..n, &diag, offdiag),
        };

        // Work-balanced contiguous chunks of each level's packed rows: the
        // rows of a level are independent, so any split is correct;
        // balancing on nonzeros keeps skewed levels from serializing on one
        // thread. Each row weighs `nnz + 1` — the `+1` charges the per-row
        // divide/store and, crucially, keeps every weight positive: with
        // zero weights an empty row could fall past the last boundary and
        // never be solved, leaving its output unwritten.
        let mut chunks = Vec::new();
        if algo == TrsvAlgo::LevelScheduled {
            let weight = |p: usize| packed.rowptr[p + 1] - packed.rowptr[p] + 1;
            chunks.reserve(levels.nlevels() * (nthreads + 1));
            for l in 0..levels.nlevels() {
                let (lo, hi) = (levels.level_ptr[l], levels.level_ptr[l + 1]);
                let total: usize = (lo..hi).map(weight).sum();
                chunks.push(lo);
                let mut acc = 0usize;
                let mut p = lo;
                for t in 1..=nthreads {
                    let target = total * t / nthreads;
                    while p < hi && acc < target {
                        acc += weight(p);
                        p += 1;
                    }
                    chunks.push(p);
                }
            }
        }

        Ok(Self {
            direction,
            unit_diag,
            nnz: matrix.nnz(),
            packed,
            levels,
            chunks,
            algo,
            ctx,
        })
    }

    /// Serial-substitution solver over a fresh one-thread context — the
    /// reference implementation and the fallback for narrow DAGs.
    pub fn serial(
        matrix: &CsrMatrix,
        direction: TrsvDirection,
        unit_diag: bool,
    ) -> Result<Self, TrsvError> {
        Self::try_new(
            matrix,
            direction,
            unit_diag,
            TrsvAlgo::Serial,
            ExecCtx::new(1),
        )
    }

    /// Dimension of the (square) triangle.
    pub fn nrows(&self) -> usize {
        self.packed.diag.len()
    }

    /// The resolved execution algorithm (never `Auto`).
    pub fn algo(&self) -> TrsvAlgo {
        self.algo
    }

    /// The dependency DAG's level structure.
    pub fn levels(&self) -> &LevelSets {
        &self.levels
    }

    /// Solve direction.
    pub fn direction(&self) -> TrsvDirection {
        self.direction
    }

    /// Display name, e.g. `sptrsv-lower[level:41]` or `sptrsv-upper[serial]`.
    pub fn name(&self) -> String {
        let dir = match self.direction {
            TrsvDirection::Lower => "lower",
            TrsvDirection::Upper => "upper",
        };
        match self.algo {
            TrsvAlgo::Serial => format!("sptrsv-{dir}[serial]"),
            TrsvAlgo::LevelScheduled => {
                format!("sptrsv-{dir}[level:{}]", self.levels.nlevels())
            }
            TrsvAlgo::Auto => unreachable!("Auto resolves at construction"),
        }
    }

    /// Flop count of one solve with `k` right-hand sides (a multiply-add per
    /// stored entry, like SpMV).
    pub fn flops(&self, k: usize) -> f64 {
        2.0 * self.nnz as f64 * k as f64
    }

    /// Per-thread wall times of the most recent solve.
    pub fn last_thread_times(&self) -> Vec<Duration> {
        self.ctx.last_thread_times()
    }

    /// Solves `T x = b`.
    ///
    /// # Panics
    /// Panics if `b` or `x` length differs from the matrix dimension.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        self.solve_strided(b, 1, x);
    }

    /// Solves `T X = B` column-wise over row-major multi-vectors — the
    /// block-Krylov preconditioners' entry point.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn solve_multi(&self, b: &MultiVec, x: &mut MultiVec) {
        assert_eq!(b.width(), x.width(), "width mismatch");
        self.solve_strided(b.as_slice(), b.width(), x.as_mut_slice());
    }

    /// Solves `T X = B` for `k` right-hand sides stored row-major in flat
    /// slices (`b[i·k + j]`, the [`MultiVec`] layout), so callers can solve
    /// in scratch they keep.
    ///
    /// # Panics
    /// Panics unless `b` and `x` both hold `nrows · k` values.
    pub fn solve_strided(&self, b: &[f64], k: usize, x: &mut [f64]) {
        let n = self.nrows();
        assert_eq!(b.len(), n * k, "B length mismatch");
        assert_eq!(x.len(), n * k, "X length mismatch");
        let packed = &self.packed;
        let unit_diag = self.unit_diag;
        // Every closure below captures the pointer by value (`move`): a
        // captured reference makes the compiler reload it around each
        // store through it.
        let xp = SendMutPtr::new(x);
        match self.algo {
            TrsvAlgo::Serial => {
                let direction = self.direction;
                // Run on the pool (thread 0 does the chain) so
                // `last_thread_times` covers the solve like every kernel.
                self.ctx.run(move |tid| {
                    if tid != 0 {
                        return;
                    }
                    match direction {
                        TrsvDirection::Lower => {
                            for i in 0..n {
                                // SAFETY: single writer, dependencies already
                                // solved by the ascending order.
                                unsafe { packed.solve_row(i, i, b, k, unit_diag, xp) };
                            }
                        }
                        TrsvDirection::Upper => {
                            for i in (0..n).rev() {
                                // SAFETY: as above, descending order.
                                unsafe { packed.solve_row(i, i, b, k, unit_diag, xp) };
                            }
                        }
                    }
                });
            }
            TrsvAlgo::LevelScheduled => {
                let nthreads = self.ctx.nthreads();
                let nlevels = self.levels.nlevels();
                let rows = &self.levels.rows[..];
                let chunks = &self.chunks[..];
                let barrier = &SpinBarrier::new(nthreads);
                let stride = nthreads + 1;
                self.ctx.run(move |tid| {
                    for l in 0..nlevels {
                        let start = chunks[l * stride + tid];
                        let end = chunks[l * stride + tid + 1];
                        for (p, &i) in (start..end).zip(&rows[start..end]) {
                            // SAFETY: rows within a level are independent and
                            // dispensed to exactly one thread; cross-level
                            // reads are published by the barrier below.
                            unsafe { packed.solve_row(p, i as usize, b, k, unit_diag, xp) };
                        }
                        barrier.wait();
                    }
                });
            }
            TrsvAlgo::Auto => unreachable!("Auto resolves at construction"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Dense reference forward/backward substitution.
    fn dense_solve(m: &CsrMatrix, dir: TrsvDirection, unit: bool, b: &[f64]) -> Vec<f64> {
        let n = m.nrows();
        let mut a = vec![vec![0.0f64; n]; n];
        let mut d = vec![0.0f64; n];
        for (i, c, v) in m.iter() {
            if c == i {
                d[i] += v;
            } else {
                a[i][c] += v;
            }
        }
        let mut x = vec![0.0; n];
        let order: Vec<usize> = match dir {
            TrsvDirection::Lower => (0..n).collect(),
            TrsvDirection::Upper => (0..n).rev().collect(),
        };
        for &i in &order {
            let mut s = b[i];
            for j in 0..n {
                s -= a[i][j] * x[j];
            }
            x[i] = if unit { s } else { s / d[i] };
        }
        x
    }

    fn lower_band(n: usize, band: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + (i % 5) as f64);
            for j in i.saturating_sub(band)..i {
                coo.push(i, j, 0.5 + ((i * 7 + j) % 3) as f64 * 0.25);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Random sparse lower triangle with a wide, shallow dependency DAG.
    fn lower_random(n: usize, deg: usize, seed: u64) -> CsrMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0 + (i % 7) as f64);
            for _ in 0..deg.min(i) {
                let j = (next() as usize) % i;
                coo.push(i, j, 0.125 + (next() % 8) as f64 * 0.0625);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Lower triangle of the 5-/7-point Laplacian on an `nx × ny × nz` grid
    /// (`nz = 1` gives the 2-D stencil): the diagonal plus the neighbour one
    /// step back along each axis.
    fn stencil_lower(dims: &[usize]) -> CsrMatrix {
        let (nx, ny, nz) = (dims[0], dims[1], dims[2]);
        let n = nx * ny * nz;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let (x, y, z) = (i % nx, i / nx % ny, i / (nx * ny));
            coo.push(i, i, 6.0);
            for (back, stride) in [(x > 0, 1), (y > 0, nx), (z > 0, nx * ny)] {
                if back {
                    coo.push(i, i - stride, -1.0);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn level_sets_of_a_band_are_a_chain() {
        let m = lower_band(64, 2);
        let levels = LevelSets::build(&m, TrsvDirection::Lower);
        assert_eq!(levels.nlevels(), 64);
        assert!((levels.avg_width() - 1.0).abs() < 1e-12);
        for l in 0..64 {
            assert_eq!(levels.level_rows(l), &[l as u32]);
        }
    }

    #[test]
    fn level_sets_of_a_diagonal_are_one_level() {
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0);
        }
        let m = CsrMatrix::from_coo(&coo);
        let levels = LevelSets::build(&m, TrsvDirection::Lower);
        assert_eq!(levels.nlevels(), 1);
        assert_eq!(levels.level_rows(0).len(), 8);
    }

    #[test]
    fn level_sets_respect_dependencies() {
        let m = lower_random(500, 4, 7);
        for dir in [TrsvDirection::Lower, TrsvDirection::Upper] {
            let levels = LevelSets::build(&m, dir);
            let mut level_of = vec![0usize; 500];
            for l in 0..levels.nlevels() {
                for &i in levels.level_rows(l) {
                    level_of[i as usize] = l;
                }
            }
            for (i, c, _) in m.iter() {
                let dep = match dir {
                    TrsvDirection::Lower => c < i,
                    TrsvDirection::Upper => c > i,
                };
                if dep {
                    assert!(level_of[c] < level_of[i], "dep ({i},{c}) not ordered");
                }
            }
        }
    }

    #[test]
    fn serial_matches_dense_reference() {
        let m = lower_random(200, 5, 3);
        let b: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
        let solver = TrsvKernel::serial(&m, TrsvDirection::Lower, false).unwrap();
        let mut x = vec![f64::NAN; 200];
        solver.solve(&b, &mut x);
        let want = dense_solve(&m, TrsvDirection::Lower, false, &b);
        for (i, (a, w)) in x.iter().zip(&want).enumerate() {
            assert!(
                (a - w).abs() < 1e-9 * (1.0 + w.abs()),
                "row {i}: {a} vs {w}"
            );
        }
        // Residual check: L x == b.
        use crate::kernels::SparseLinOp;
        let mut lx = vec![0.0; 200];
        crate::kernels::SerialCsr::new(Arc::new(m)).spmv(&x, &mut lx);
        for (v, bi) in lx.iter().zip(&b) {
            assert!((v - bi).abs() < 1e-9 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn level_scheduled_is_bit_identical_to_serial() {
        for seed in [1u64, 9, 42] {
            let m = lower_random(777, 6, seed);
            let b: Vec<f64> = (0..777)
                .map(|i| ((i * 13 % 101) as f64) * 0.017 - 0.5)
                .collect();
            let serial = TrsvKernel::serial(&m, TrsvDirection::Lower, false).unwrap();
            let mut xs = vec![0.0; 777];
            serial.solve(&b, &mut xs);
            for nthreads in [2, 3, 4, 7] {
                let par = TrsvKernel::try_new(
                    &m,
                    TrsvDirection::Lower,
                    false,
                    TrsvAlgo::LevelScheduled,
                    ExecCtx::new(nthreads),
                )
                .unwrap();
                assert_eq!(par.algo(), TrsvAlgo::LevelScheduled);
                let mut xp = vec![f64::NAN; 777];
                par.solve(&b, &mut xp);
                assert_eq!(xs, xp, "{nthreads} threads must be bit-identical");
            }
        }
    }

    #[test]
    fn upper_solve_matches_dense_reference() {
        // Transpose the random lower triangle into an upper one.
        let lower = lower_random(300, 4, 11);
        let mut coo = CooMatrix::new(300, 300);
        for (i, c, v) in lower.iter() {
            coo.push(c, i, v);
        }
        let upper = CsrMatrix::from_coo(&coo);
        let b: Vec<f64> = (0..300).map(|i| 1.0 + (i as f64 * 0.21).cos()).collect();
        let want = dense_solve(&upper, TrsvDirection::Upper, false, &b);
        for algo in [TrsvAlgo::Serial, TrsvAlgo::LevelScheduled] {
            let solver =
                TrsvKernel::try_new(&upper, TrsvDirection::Upper, false, algo, ExecCtx::new(3))
                    .unwrap();
            let mut x = vec![f64::NAN; 300];
            solver.solve(&b, &mut x);
            for (i, (a, w)) in x.iter().zip(&want).enumerate() {
                assert!(
                    (a - w).abs() < 1e-9 * (1.0 + w.abs()),
                    "row {i}: {a} vs {w}"
                );
            }
        }
    }

    #[test]
    fn unit_diagonal_skips_division_and_stored_diag() {
        // Strict lower triangle with unit diagonal implied (the ILU(0) L).
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 0, 2.0);
        coo.push(2, 1, 3.0);
        let m = CsrMatrix::from_coo(&coo);
        let solver = TrsvKernel::serial(&m, TrsvDirection::Lower, true).unwrap();
        let mut x = vec![0.0; 3];
        solver.solve(&[1.0, 1.0, 1.0], &mut x);
        // x0 = 1; x1 = 1 - 2·1 = -1; x2 = 1 - 3·(-1) = 4.
        assert_eq!(x, vec![1.0, -1.0, 4.0]);
    }

    #[test]
    fn multi_vector_solve_matches_columns() {
        let m = lower_random(150, 5, 21);
        let k = 4;
        let b = MultiVec::from_fn(150, k, |i, j| (i as f64 * 0.11 + j as f64 * 0.7).sin());
        for nthreads in [1, 4] {
            let solver = TrsvKernel::try_new(
                &m,
                TrsvDirection::Lower,
                false,
                TrsvAlgo::LevelScheduled,
                ExecCtx::new(nthreads),
            )
            .unwrap();
            let mut x = MultiVec::zeros(150, k);
            solver.solve_multi(&b, &mut x);
            let single = TrsvKernel::serial(&m, TrsvDirection::Lower, false).unwrap();
            for j in 0..k {
                let mut col = vec![0.0; 150];
                single.solve(&b.column(j), &mut col);
                for (i, ci) in col.iter().enumerate() {
                    let got = x.row(i)[j];
                    assert!(
                        (got - ci).abs() < 1e-12 * (1.0 + ci.abs()),
                        "({i},{j}): {got} vs {ci}"
                    );
                }
            }
        }
    }

    #[test]
    fn construction_rejects_bad_operands() {
        // Not square.
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        let rect = CsrMatrix::from_coo(&coo);
        assert_eq!(
            TrsvKernel::serial(&rect, TrsvDirection::Lower, false).err(),
            Some(TrsvError::NotSquare)
        );
        // Entry above the diagonal in a lower solve.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 5.0);
        coo.push(1, 1, 1.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(
            TrsvKernel::serial(&m, TrsvDirection::Lower, false).err(),
            Some(TrsvError::NotTriangular { row: 0 })
        );
        // ... which is a perfectly fine upper solve.
        assert!(TrsvKernel::serial(&m, TrsvDirection::Upper, false).is_ok());
        // Zero diagonal on a non-unit solve.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(
            TrsvKernel::serial(&m, TrsvDirection::Lower, false).err(),
            Some(TrsvError::ZeroDiagonal { row: 1 })
        );
        // Unit solves don't need the diagonal.
        assert!(TrsvKernel::serial(&m, TrsvDirection::Lower, true).is_ok());
    }

    #[test]
    fn auto_resolves_by_dag_width() {
        // Band ⇒ serial chain even on many threads.
        let band = lower_band(512, 1);
        let k = TrsvKernel::try_new(
            &band,
            TrsvDirection::Lower,
            false,
            TrsvAlgo::Auto,
            ExecCtx::new(4),
        )
        .unwrap();
        assert_eq!(k.algo(), TrsvAlgo::Serial);
        // Wide random DAG ⇒ level-scheduled on a multi-thread context...
        let wide = lower_random(4096, 3, 5);
        let k = TrsvKernel::try_new(
            &wide,
            TrsvDirection::Lower,
            false,
            TrsvAlgo::Auto,
            ExecCtx::new(2),
        )
        .unwrap();
        assert_eq!(k.algo(), TrsvAlgo::LevelScheduled);
        assert!(k.name().starts_with("sptrsv-lower[level:"));
        // ... but serial on one thread regardless.
        let k = TrsvKernel::try_new(
            &wide,
            TrsvDirection::Lower,
            false,
            TrsvAlgo::LevelScheduled,
            ExecCtx::new(1),
        )
        .unwrap();
        assert_eq!(k.algo(), TrsvAlgo::Serial);
        // At 2 threads the 2-D stencil's 48-row levels stay serial, while a
        // 3-D stencil's IC(0) factor (zero fill: the pattern of lower(A))
        // has levels wide enough to schedule.
        for (dims, want) in [
            (&[96usize, 96, 1][..], TrsvAlgo::Serial),
            (&[24, 24, 24][..], TrsvAlgo::LevelScheduled),
        ] {
            let k = TrsvKernel::try_new(
                &stencil_lower(dims),
                TrsvDirection::Lower,
                false,
                TrsvAlgo::Auto,
                ExecCtx::new(2),
            )
            .unwrap();
            assert_eq!(k.algo(), want, "stencil {dims:?}");
        }
    }

    #[test]
    fn empty_and_single_row_matrices() {
        let empty = CsrMatrix::from_coo(&CooMatrix::new(0, 0));
        let solver = TrsvKernel::serial(&empty, TrsvDirection::Lower, false).unwrap();
        let mut x: Vec<f64> = vec![];
        solver.solve(&[], &mut x);
        assert_eq!(solver.levels().nlevels(), 0);

        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 4.0);
        let one = CsrMatrix::from_coo(&coo);
        for dir in [TrsvDirection::Lower, TrsvDirection::Upper] {
            let solver =
                TrsvKernel::try_new(&one, dir, false, TrsvAlgo::LevelScheduled, ExecCtx::new(3))
                    .unwrap();
            let mut x = vec![0.0];
            solver.solve(&[8.0], &mut x);
            assert_eq!(x, vec![2.0]);
        }
    }

    #[test]
    fn zero_nnz_rows_are_still_assigned_to_a_chunk() {
        // Regression: chunk balancing used to weight rows by nnz alone, so a
        // level made of empty rows (weight 0) could strand rows past the
        // last thread boundary — their outputs were never written. A strict
        // lower triangle solved with an implied unit diagonal makes every
        // first-level row weightless without the `+1` charge.
        let mut coo = CooMatrix::new(9, 9);
        coo.push(6, 2, -1.0);
        coo.push(7, 3, -2.0);
        let m = CsrMatrix::from_coo(&coo);
        let b: Vec<f64> = (0..9).map(|i| 1.0 + i as f64).collect();
        let serial = TrsvKernel::serial(&m, TrsvDirection::Lower, true).unwrap();
        let mut want = vec![f64::NAN; 9];
        serial.solve(&b, &mut want);
        assert!(want.iter().all(|v| v.is_finite()));
        for nthreads in [2, 4, 8] {
            let par = TrsvKernel::try_new(
                &m,
                TrsvDirection::Lower,
                true,
                TrsvAlgo::LevelScheduled,
                ExecCtx::new(nthreads),
            )
            .unwrap();
            let mut got = vec![f64::NAN; 9];
            par.solve(&b, &mut got);
            assert_eq!(got, want, "nthreads={nthreads}");
        }
    }

    #[test]
    fn duplicate_diagonal_entries_are_summed() {
        // from_raw can carry duplicate diagonal entries; the solve must use
        // their sum, consistent with CsrMatrix::diagonal().
        let m = CsrMatrix::from_raw(2, 2, vec![0, 2, 3], vec![0, 0, 1], vec![1.5, 2.5, 2.0]);
        let solver = TrsvKernel::serial(&m, TrsvDirection::Lower, false).unwrap();
        let mut x = vec![0.0; 2];
        solver.solve(&[8.0, 6.0], &mut x);
        assert_eq!(x, vec![2.0, 3.0]);
    }
}
