//! The dispatcher: registration, per-matrix queues, worker pool, coalescing.
//!
//! ## Concurrency design
//!
//! All mutable serving state (tenant table, matrix table, per-matrix
//! request queues) lives behind **one** mutex plus a condvar — requests
//! are micro- to millisecond-scale kernel calls, so a finer-grained
//! scheme would buy nothing and cost invariants. The things touched on
//! every request *outside* the lock are atomics: per-tenant in-flight
//! counters (load shedding admits or sheds with a CAS loop) and the
//! [`crate::stats`] registry.
//!
//! Kernel applications themselves are serialized on a dedicated `exec`
//! mutex. `ExecCtx` would serialize concurrent runs on its own, but only
//! run by run: the lock keeps one whole kernel application at a time,
//! which is what a bandwidth-bound kernel wants (two concurrent SpMVs
//! would just split the same memory bandwidth), and it keeps a
//! registration's tuning trials from interleaving with request batches.
//! Throughput comes from *coalescing* (matrix bytes amortized over the
//! batch), not from overlapping kernels.
//!
//! ## The batching window
//!
//! A worker that finds a non-empty queue *claims* the matrix (so no other
//! worker dispatches it concurrently), then holds the batch open until
//! either [`ServeConfig::max_batch`] single-vector requests are queued or
//! the oldest request has waited [`ServeConfig::batch_window`]. The window
//! is anchored at the *oldest* request's submit time, so the worst-case
//! added latency is exactly one window. Multi-RHS and solve requests never
//! wait — they dispatch alone, immediately.

use crate::stats::{ServeStats, StatsSnapshot};
use crate::{Reply, ServeError, Ticket, TicketInner};
use sparseopt_classifier::SimBoundsProfiler;
use sparseopt_core::kernels::{Apply, SparseLinOp};
use sparseopt_core::multivec::MultiVec;
use sparseopt_core::{csr::CsrMatrix, pool::ExecCtx};
use sparseopt_matrix::ShardStore;
use sparseopt_optimizer::{OpRequirements, PlanCache, PlanTuner, TuneBudget, TuneOutcome};
use sparseopt_sim::Platform;
use sparseopt_solver::{cg, IdentityPrecond, JacobiPrecond, Preconditioner, SolverOptions};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs. `..Default::default()` is a sane interactive setup; the
/// benchmark harness shrinks `tune_budget` and stretches `batch_window` to
/// make coalescing deterministic.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Dispatcher threads. They share one kernel-execution lock, so extra
    /// workers buy queue/window management overlap (one per concurrently
    /// hot matrix is plenty), not kernel parallelism.
    pub workers: usize,
    /// How long a claimed queue is held open for same-matrix requests to
    /// coalesce, measured from the oldest pending request's submit time.
    /// Zero disables batching (every request dispatches alone).
    pub batch_window: Duration,
    /// Hard cap on coalesced batch width; reaching it dispatches
    /// immediately, before the window expires.
    pub max_batch: usize,
    /// Default per-tenant in-flight bound; submits beyond it shed with
    /// [`ServeError::Overloaded`].
    pub tenant_capacity: usize,
    /// Measurement budget for registration-time tuning (cache hits skip
    /// tuning entirely).
    pub tune_budget: TuneBudget,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            batch_window: Duration::from_micros(200),
            max_batch: 16,
            tenant_capacity: 64,
            tune_budget: TuneBudget::default(),
        }
    }
}

/// Handle to a registered tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

/// Handle to a registered matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatrixId(pub(crate) usize);

/// What registration learned about a matrix.
#[derive(Clone, Debug)]
pub struct MatrixInfo {
    /// Caller-supplied name (diagnostics only).
    pub name: String,
    /// `(nrows, ncols)`.
    pub shape: (usize, usize),
    /// Stored nonzeros.
    pub nnz: usize,
    /// Label of the tuned plan serving this matrix.
    pub plan_label: String,
    /// The structural plan-cache key.
    pub fingerprint: String,
    /// True when the plan came straight out of the persistent cache
    /// (no classifier call, no timed trials).
    pub warm: bool,
}

/// One queued request's operand.
enum Payload {
    Spmv(Vec<f64>),
    Spmm(MultiVec),
    Solve { b: Vec<f64>, opts: SolverOptions },
}

struct Request {
    payload: Payload,
    in_flight: Arc<AtomicUsize>,
    submitted: Instant,
    ticket: Arc<TicketInner>,
}

struct MatrixEntry {
    info: MatrixInfo,
    kernel: Arc<dyn SparseLinOp>,
    precond: Arc<dyn Preconditioner>,
    queue: VecDeque<Request>,
    /// A worker is windowing/draining this queue; others must skip it.
    claimed: bool,
}

struct TenantEntry {
    name: String,
    capacity: usize,
    in_flight: Arc<AtomicUsize>,
}

struct State {
    matrices: Vec<MatrixEntry>,
    tenants: Vec<TenantEntry>,
    /// Round-robin cursor over matrices, so one hot queue cannot starve
    /// the others.
    next_scan: usize,
    shutdown: bool,
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Signaled on submit, drain, and shutdown.
    work: Condvar,
    /// Serializes every kernel application and registration tuning on the
    /// shared `ExecCtx`: one bandwidth-bound kernel at a time (see module
    /// docs).
    exec: Mutex<()>,
    stats: ServeStats,
}

/// The multi-tenant SpMV server. See the [crate docs](crate) for the
/// architecture and an end-to-end example.
///
/// A backlog submitted open-loop coalesces into multi-request batches,
/// visible in the stats readout:
///
/// ```
/// use sparseopt_core::prelude::*;
/// use sparseopt_serve::{ServeConfig, SpmvServer, TuneBudget};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let csr = Arc::new(CsrMatrix::from_coo(
///     &sparseopt_matrix::generators::banded(200, 1),
/// ));
/// let server = SpmvServer::new(
///     ExecCtx::new(1),
///     ServeConfig {
///         batch_window: Duration::from_millis(50),
///         max_batch: 4,
///         tune_budget: TuneBudget::minimal(),
///         ..ServeConfig::default()
///     },
/// );
/// let tenant = server.register_tenant("docs");
/// let matrix = server.register_matrix("band", csr);
///
/// let tickets: Vec<_> = (0..8)
///     .map(|_| server.submit(tenant, matrix, vec![1.0; 200]).unwrap())
///     .collect();
/// for t in tickets {
///     t.wait().unwrap();
/// }
/// let stats = server.stats();
/// assert_eq!(stats.completed, 8);
/// assert!(stats.coalesced > 0, "the backlog rode shared dispatches");
/// ```
pub struct SpmvServer {
    inner: Arc<Inner>,
    tuner: Mutex<PlanTuner>,
    profiler: SimBoundsProfiler,
    workers: Vec<JoinHandle<()>>,
}

impl SpmvServer {
    /// A server over `ctx` with an in-memory (per-process) plan cache.
    pub fn new(ctx: Arc<ExecCtx>, cfg: ServeConfig) -> Self {
        Self::with_plan_cache(ctx, cfg, PlanCache::in_memory())
    }

    /// A server whose registrations warm from (and promote into) an
    /// explicit plan cache — point this at the persistent default cache
    /// to make matrix registration a cache hit across processes.
    pub fn with_plan_cache(ctx: Arc<ExecCtx>, cfg: ServeConfig, cache: PlanCache) -> Self {
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State {
                matrices: Vec::new(),
                tenants: Vec::new(),
                next_scan: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            exec: Mutex::new(()),
            stats: ServeStats::default(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("sparseopt-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            inner,
            tuner: Mutex::new(PlanTuner::with_cache(ctx, cache).with_budget(cfg.tune_budget)),
            profiler: SimBoundsProfiler::new(Platform::broadwell()),
            workers,
        }
    }

    /// Registers a tenant with the configured default in-flight capacity.
    pub fn register_tenant(&self, name: &str) -> TenantId {
        self.register_tenant_with_capacity(name, self.inner.cfg.tenant_capacity)
    }

    /// Registers a tenant with an explicit in-flight capacity (≥ 1).
    pub fn register_tenant_with_capacity(&self, name: &str, capacity: usize) -> TenantId {
        let mut st = self.inner.state.lock().unwrap();
        st.tenants.push(TenantEntry {
            name: name.to_string(),
            capacity: capacity.max(1),
            in_flight: Arc::new(AtomicUsize::new(0)),
        });
        TenantId(st.tenants.len() - 1)
    }

    /// Registers a matrix: runs the plan tuner once (a warm plan cache
    /// skips classifier and trials — [`MatrixInfo::warm`]), builds the
    /// tuned multi-vector-capable operator, and opens its request queue.
    /// Safe to call while the server is live; tuning holds the kernel
    /// execution lock, so in-flight request batches and tuning trials
    /// interleave rather than overlap.
    pub fn register_matrix(&self, name: &str, csr: Arc<CsrMatrix>) -> MatrixId {
        let reqs = OpRequirements {
            transpose: false,
            multi_vec: true,
        };
        let tuner = self.tuner.lock().unwrap();
        let tuned = {
            let _exec = self.inner.exec.lock().unwrap();
            tuner.optimize_profiled_for(&csr, &self.profiler, &reqs)
        };
        drop(tuner);
        let square = csr.nrows() == csr.ncols();
        let precond: Arc<dyn Preconditioner> = if square {
            match JacobiPrecond::new(&csr) {
                Ok(j) => Arc::new(j),
                Err(_) => Arc::new(IdentityPrecond),
            }
        } else {
            Arc::new(IdentityPrecond)
        };
        let entry = MatrixEntry {
            info: MatrixInfo {
                name: name.to_string(),
                shape: (csr.nrows(), csr.ncols()),
                nnz: csr.nnz(),
                plan_label: tuned.plan.label(),
                fingerprint: tuned.fingerprint.key(),
                warm: tuned.outcome == TuneOutcome::CacheHit,
            },
            kernel: Arc::from(tuned.kernel),
            precond,
            queue: VecDeque::new(),
            claimed: false,
        };
        let mut st = self.inner.state.lock().unwrap();
        st.matrices.push(entry);
        MatrixId(st.matrices.len() - 1)
    }

    /// Registers an **out-of-core** matrix from an on-disk shard container
    /// (written by [`sparseopt_matrix::write_shard_file`] or the
    /// `mm2shards` tool) without ever materializing the whole matrix:
    /// each shard is loaded once, tuned to its own plan, and then served
    /// through a [`ShardedOp`](sparseopt_core::kernels::ShardedOp) that
    /// keeps at most `window` shard kernels resident.
    ///
    /// Requests against the returned id go through the exact same queue,
    /// coalescing, and solve paths as in-memory matrices — the streaming
    /// is invisible to clients.
    ///
    /// ```
    /// use sparseopt_core::prelude::*;
    /// use sparseopt_serve::{ServeConfig, SpmvServer, TuneBudget};
    ///
    /// let csr = CsrMatrix::from_coo(&sparseopt_matrix::generators::banded(120, 2));
    /// let path = std::env::temp_dir().join(format!(
    ///     "sparseopt-serve-doc-{}.shards",
    ///     std::process::id()
    /// ));
    /// sparseopt_matrix::write_shard_file(&path, &csr, 40).unwrap();
    ///
    /// let server = SpmvServer::new(
    ///     ExecCtx::new(1),
    ///     ServeConfig { tune_budget: TuneBudget::minimal(), ..ServeConfig::default() },
    /// );
    /// let tenant = server.register_tenant("docs");
    /// let matrix = server.register_sharded_from_path("band-ooc", &path, 2).unwrap();
    /// std::fs::remove_file(&path).unwrap(); // the open store keeps serving
    ///
    /// let y = server.submit(tenant, matrix, vec![1.0; 120]).unwrap().wait().unwrap();
    /// # let _ = y;
    /// ```
    pub fn register_sharded_from_path(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
        window: usize,
    ) -> Result<MatrixId, ServeError> {
        let store = Arc::new(
            ShardStore::open(path.as_ref())
                .map_err(|e| ServeError::ShardContainer(e.to_string()))?,
        );
        let tuner = self.tuner.lock().unwrap();
        let tuned = {
            let _exec = self.inner.exec.lock().unwrap();
            tuner
                .optimize_sharded(
                    store.clone(),
                    &self.profiler,
                    Platform::broadwell(),
                    window.max(1),
                )
                .map_err(|e| ServeError::ShardContainer(e.to_string()))?
        };
        drop(tuner);
        let entry = MatrixEntry {
            info: MatrixInfo {
                name: name.to_string(),
                shape: (store.nrows(), store.ncols()),
                nnz: store.nnz(),
                plan_label: format!("sharded[{}]", tuned.distinct_plan_labels().join("|")),
                fingerprint: format!("sharded:nshards={}", store.nshards()),
                warm: tuned.warm(),
            },
            kernel: tuned.op.clone(),
            // No whole-matrix diagonal without a full pass; identity keeps
            // solves correct, just unaccelerated.
            precond: Arc::new(IdentityPrecond),
            queue: VecDeque::new(),
            claimed: false,
        };
        let mut st = self.inner.state.lock().unwrap();
        st.matrices.push(entry);
        Ok(MatrixId(st.matrices.len() - 1))
    }

    /// What registration learned about `matrix`.
    pub fn matrix_info(&self, matrix: MatrixId) -> Option<MatrixInfo> {
        let st = self.inner.state.lock().unwrap();
        st.matrices.get(matrix.0).map(|e| e.info.clone())
    }

    /// The tenant's currently admitted (queued or executing) requests.
    pub fn in_flight(&self, tenant: TenantId) -> Option<usize> {
        let st = self.inner.state.lock().unwrap();
        st.tenants
            .get(tenant.0)
            .map(|t| t.in_flight.load(Ordering::Relaxed))
    }

    /// Submits `y = A·x`. The reply is [`Reply::Vector`].
    pub fn submit(
        &self,
        tenant: TenantId,
        matrix: MatrixId,
        x: Vec<f64>,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(tenant, matrix, |shape| {
            if x.len() != shape.1 {
                return Err(ServeError::DimensionMismatch {
                    expected: shape.1,
                    got: x.len(),
                });
            }
            Ok(Payload::Spmv(x))
        })
    }

    /// Submits a multi-RHS product `Y = A·X`. The reply is
    /// [`Reply::Multi`]. Dispatches alone (it is already a batch).
    pub fn submit_multi(
        &self,
        tenant: TenantId,
        matrix: MatrixId,
        x: MultiVec,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(tenant, matrix, |shape| {
            if x.nrows() != shape.1 {
                return Err(ServeError::DimensionMismatch {
                    expected: shape.1,
                    got: x.nrows(),
                });
            }
            Ok(Payload::Spmm(x))
        })
    }

    /// Submits a preconditioned-CG solve of `A·x = b` (Jacobi when the
    /// diagonal permits, identity otherwise). The reply is
    /// [`Reply::Solve`].
    pub fn submit_solve(
        &self,
        tenant: TenantId,
        matrix: MatrixId,
        b: Vec<f64>,
        opts: SolverOptions,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(tenant, matrix, |shape| {
            if shape.0 != shape.1 {
                return Err(ServeError::NotSquare);
            }
            if b.len() != shape.0 {
                return Err(ServeError::DimensionMismatch {
                    expected: shape.0,
                    got: b.len(),
                });
            }
            Ok(Payload::Solve { b, opts })
        })
    }

    /// Live statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Stops accepting work, drains every queue, and joins the workers.
    /// Dropping the server does the same.
    pub fn shutdown(self) {
        // Drop runs the shutdown protocol.
    }

    /// Validation → admission (tenant CAS) → enqueue → wake workers.
    fn enqueue(
        &self,
        tenant: TenantId,
        matrix: MatrixId,
        make: impl FnOnce((usize, usize)) -> Result<Payload, ServeError>,
    ) -> Result<Ticket, ServeError> {
        let mut st = self.inner.state.lock().unwrap();
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let shape = st
            .matrices
            .get(matrix.0)
            .ok_or(ServeError::UnknownMatrix)?
            .info
            .shape;
        let (in_flight, capacity, tenant_name) = {
            let t = st.tenants.get(tenant.0).ok_or(ServeError::UnknownTenant)?;
            (t.in_flight.clone(), t.capacity, t.name.clone())
        };
        // Dimensions are checked before admission so a malformed request
        // never consumes a tenant slot.
        let payload = make(shape)?;
        let mut current = in_flight.load(Ordering::Relaxed);
        loop {
            if current >= capacity {
                self.inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    tenant: tenant_name,
                    capacity,
                });
            }
            match in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        let ticket = Arc::new(TicketInner::default());
        st.matrices[matrix.0].queue.push_back(Request {
            payload,
            in_flight,
            submitted: Instant::now(),
            ticket: ticket.clone(),
        });
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.inner.work.notify_all();
        Ok(Ticket { inner: ticket })
    }
}

impl Drop for SpmvServer {
    fn drop(&mut self) {
        self.inner.state.lock().unwrap().shutdown = true;
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Length of the coalescible (leading single-vector) run, capped.
fn spmv_run_len(queue: &VecDeque<Request>, cap: usize) -> usize {
    queue
        .iter()
        .take(cap)
        .take_while(|r| matches!(r.payload, Payload::Spmv(_)))
        .count()
}

/// Next unclaimed non-empty queue, round-robin from the scan cursor.
fn find_ready(st: &mut State) -> Option<usize> {
    let n = st.matrices.len();
    for offset in 0..n {
        let i = (st.next_scan + offset) % n;
        if !st.matrices[i].claimed && !st.matrices[i].queue.is_empty() {
            return Some(i);
        }
    }
    None
}

/// Pops the front request plus, when it is a single-vector product, every
/// immediately following one up to `max_batch` — the coalesced batch.
fn drain_batch(queue: &mut VecDeque<Request>, max_batch: usize) -> Vec<Request> {
    let mut batch = Vec::new();
    let Some(first) = queue.pop_front() else {
        return batch;
    };
    let coalescible = matches!(first.payload, Payload::Spmv(_));
    batch.push(first);
    while coalescible
        && batch.len() < max_batch
        && matches!(queue.front().map(|r| &r.payload), Some(Payload::Spmv(_)))
    {
        batch.push(queue.pop_front().unwrap());
    }
    batch
}

/// Per-worker reusable gather/output blocks. A dispatcher coalescing
/// batch after batch must not pay a fresh `n·k` allocation (and the page
/// faults behind it) per dispatch — on an L3-resident matrix that
/// overhead alone erases the coalescing win.
struct BatchScratch {
    x: MultiVec,
    y: MultiVec,
}

impl Default for BatchScratch {
    fn default() -> Self {
        Self {
            x: MultiVec::zeros(0, 1),
            y: MultiVec::zeros(0, 1),
        }
    }
}

fn worker_loop(inner: &Inner) {
    let max_batch = inner.cfg.max_batch.max(1);
    let mut scratch = BatchScratch::default();
    loop {
        // Phase 1 (state lock): claim a queue, hold the batching window,
        // drain a batch.
        let (kernel, precond, shape, batch) = {
            let mut st = inner.state.lock().unwrap();
            let mid = loop {
                if let Some(mid) = find_ready(&mut st) {
                    break mid;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work.wait(st).unwrap();
            };
            st.matrices[mid].claimed = true;
            let front_is_spmv = matches!(
                st.matrices[mid].queue.front().map(|r| &r.payload),
                Some(Payload::Spmv(_))
            );
            if front_is_spmv && !inner.cfg.batch_window.is_zero() && max_batch > 1 {
                let deadline =
                    st.matrices[mid].queue.front().unwrap().submitted + inner.cfg.batch_window;
                while !st.shutdown && spmv_run_len(&st.matrices[mid].queue, max_batch) < max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = inner.work.wait_timeout(st, deadline - now).unwrap();
                    st = guard;
                }
            }
            st.next_scan = (mid + 1) % st.matrices.len().max(1);
            let entry = &mut st.matrices[mid];
            let batch = drain_batch(&mut entry.queue, max_batch);
            entry.claimed = false;
            (
                entry.kernel.clone(),
                entry.precond.clone(),
                entry.info.shape,
                batch,
            )
        };
        if batch.is_empty() {
            continue;
        }
        // Other workers may have been sleeping while this queue was
        // claimed; anything left (here or elsewhere) is theirs now.
        inner.work.notify_all();
        execute_batch(inner, &kernel, &precond, shape, batch, &mut scratch);
    }
}

/// Phase 2 (exec lock): compute replies, then fulfill tickets and release
/// tenant slots outside the lock.
fn execute_batch(
    inner: &Inner,
    kernel: &Arc<dyn SparseLinOp>,
    precond: &Arc<dyn Preconditioner>,
    shape: (usize, usize),
    mut batch: Vec<Request>,
    scratch: &mut BatchScratch,
) {
    let width = batch.len();
    let coalesce = width > 1 && batch.iter().all(|r| matches!(r.payload, Payload::Spmv(_)));
    let replies: Vec<Reply> = {
        let _exec = inner.exec.lock().unwrap();
        if coalesce {
            // The payoff path: k requests, one streaming pass over the
            // matrix bytes, gathered into this worker's reused scratch.
            // Each request's operand buffer becomes its reply buffer: once
            // gathered it is dead, already paged in, and — unlike a fresh
            // allocation here — both allocated and freed on the client
            // side. An `n`-vector crosses the allocator's mmap threshold,
            // so a fresh reply per request would pay an mmap, a page-fault
            // walk, and a munmap per batch element; recycling the operand
            // is what keeps the dispatch at kernel speed.
            let mut buffers: Vec<Vec<f64>> = batch
                .iter_mut()
                .map(|r| match &mut r.payload {
                    Payload::Spmv(x) => std::mem::take(x),
                    _ => unreachable!("coalesce checked all payloads"),
                })
                .collect();
            let columns: Vec<&[f64]> = buffers.iter().map(|x| x.as_slice()).collect();
            scratch.x.gather_columns_into(&columns);
            scratch.y.reset_zeroed(shape.0, width);
            kernel.apply_multi(Apply::NoTrans, &scratch.x, &mut scratch.y);
            for buf in buffers.iter_mut() {
                buf.resize(shape.0, 0.0); // no-op for a square matrix
            }
            {
                let mut views: Vec<&mut [f64]> =
                    buffers.iter_mut().map(|y| y.as_mut_slice()).collect();
                scratch.y.scatter_columns_into(&mut views);
            }
            buffers.into_iter().map(Reply::Vector).collect()
        } else {
            batch
                .iter()
                .map(|r| match &r.payload {
                    Payload::Spmv(x) => {
                        let mut y = vec![0.0; shape.0];
                        kernel.spmv(x, &mut y);
                        Reply::Vector(y)
                    }
                    Payload::Spmm(x) => {
                        let mut y = MultiVec::zeros(shape.0, x.width());
                        kernel.apply_multi(Apply::NoTrans, x, &mut y);
                        Reply::Multi(y)
                    }
                    Payload::Solve { b, opts } => {
                        let mut x = vec![0.0; shape.0];
                        let outcome = cg(kernel.as_ref(), b, &mut x, precond.as_ref(), opts);
                        Reply::Solve { x, outcome }
                    }
                })
                .collect()
        }
    };
    inner.stats.record_batch(width);
    for (request, reply) in batch.into_iter().zip(replies) {
        // Release the tenant slot before waking the client so an
        // immediate resubmit from the fulfilled ticket cannot shed
        // against its own just-finished request.
        request.in_flight.fetch_sub(1, Ordering::AcqRel);
        inner.stats.record_completion(request.submitted.elapsed());
        request.ticket.fulfill(Ok(reply));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_matrix::{generators, write_shard_file};

    fn quick_server() -> SpmvServer {
        SpmvServer::new(
            ExecCtx::new(1),
            ServeConfig {
                tune_budget: TuneBudget::minimal(),
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn sharded_registration_serves_identical_results() {
        let csr = Arc::new(CsrMatrix::from_coo(&generators::power_law_sorted(
            300, 6, 0.9, 7,
        )));
        let path = std::env::temp_dir().join(format!(
            "sparseopt-serve-shard-{}.shards",
            std::process::id()
        ));
        write_shard_file(&path, &csr, 75).expect("write shards");

        let server = quick_server();
        let tenant = server.register_tenant("t");
        let dense = server.register_matrix("inmem", csr.clone());
        let sharded = server
            .register_sharded_from_path("ooc", &path, 2)
            .expect("register sharded");
        std::fs::remove_file(&path).ok();

        let info = server.matrix_info(sharded).expect("info");
        assert_eq!(info.shape, (csr.nrows(), csr.ncols()));
        assert_eq!(info.nnz, csr.nnz());
        assert!(
            info.plan_label.starts_with("sharded["),
            "{}",
            info.plan_label
        );

        let x: Vec<f64> = (0..csr.ncols()).map(|i| ((i % 17) as f64) - 8.0).collect();
        let want = match server
            .submit(tenant, dense, x.clone())
            .unwrap()
            .wait()
            .unwrap()
        {
            crate::Reply::Vector(y) => y,
            other => panic!("unexpected reply: {other:?}"),
        };
        let got = match server.submit(tenant, sharded, x).unwrap().wait().unwrap() {
            crate::Reply::Vector(y) => y,
            other => panic!("unexpected reply: {other:?}"),
        };
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0));
        }
    }

    #[test]
    fn missing_or_corrupt_container_is_a_typed_error() {
        let server = quick_server();
        let err = server
            .register_sharded_from_path("nope", "/nonexistent/path.shards", 2)
            .unwrap_err();
        assert!(matches!(err, ServeError::ShardContainer(_)), "{err}");

        let path = std::env::temp_dir().join(format!(
            "sparseopt-serve-badmagic-{}.shards",
            std::process::id()
        ));
        std::fs::write(&path, b"NOTSHRD0aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa").unwrap();
        let err = server
            .register_sharded_from_path("bad", &path, 2)
            .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ServeError::ShardContainer(_)), "{err}");
    }
}
