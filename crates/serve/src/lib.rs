//! # sparseopt-serve
//!
//! A concurrent, multi-tenant SpMV serving layer with request coalescing —
//! the cross-*request* form of the reuse argument that drives this whole
//! codebase.
//!
//! ## Why a serving layer
//!
//! The source paper's central observation is that SpMV is memory-bandwidth
//! bound: performance is set by how many times the matrix bytes must be
//! streamed, not by flops. The SpMM layer (`sparseopt-core`'s multi-vector
//! kernels) exploits that *within* one call — `k` right-hand sides stream
//! the matrix once instead of `k` times. This crate exploits it *across
//! independent requests*: in the target scenario (one big graph matrix,
//! millions of small query vectors from many clients) concurrent `y = A·x`
//! requests against the same registered matrix are folded by the dispatcher
//! into a single `Y = A·X` SpMM application, so the matrix bytes are paid
//! once per *batch* rather than once per *request*.
//!
//! ## The moving parts
//!
//! - [`SpmvServer`] — owns the registered matrices, the per-matrix request
//!   queues, and a pool of dispatcher workers over the shared
//!   `ExecCtx`. Kernel applications run one at a time on it (one
//!   bandwidth-bound kernel at a time, and registration tuning never
//!   interleaved with request batches); workers overlap queue management,
//!   gather/scatter, and ticket fulfillment with it.
//! - **Registration** ([`SpmvServer::register_matrix`]) runs the
//!   `PlanTuner` once per matrix: the structural fingerprint either warms
//!   from the persistent plan cache (zero classifier calls, zero timed
//!   trials — see [`MatrixInfo::warm`]) or is tuned and cached for the next
//!   process.
//! - **Coalescing** — a worker that claims a queue holds it open for the
//!   configured batching window ([`ServeConfig::batch_window`]) or until
//!   [`ServeConfig::max_batch`] single-vector requests are pending, then
//!   gathers them into one `MultiVec` (see `MultiVec::gather_columns`),
//!   applies the tuned operator once, and scatters each column back to its
//!   ticket.
//! - **Load shedding** — each tenant has a bounded in-flight budget
//!   ([`ServeConfig::tenant_capacity`]); a submit beyond it fails fast with
//!   [`ServeError::Overloaded`] instead of growing a queue without bound,
//!   and the rejection is counted in the stats registry. Queues drain
//!   round-robin across matrices so one tenant's backlog delays another by
//!   at most a bounded number of batches, never indefinitely.
//! - **Metrics** ([`stats`]) — a lock-free registry of throughput counters,
//!   a batch-width histogram (the measured effective `k`), and a
//!   log-bucketed latency histogram with p50/p95/p99 readouts; the traffic
//!   generator in `sparseopt-bench` gates its p99 on this.
//!
//! ## Example
//!
//! ```
//! use sparseopt_core::prelude::*;
//! use sparseopt_serve::{Reply, ServeConfig, SpmvServer, TuneBudget};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let csr = Arc::new(CsrMatrix::from_coo(
//!     &sparseopt_matrix::generators::banded(400, 2),
//! ));
//! let cfg = ServeConfig {
//!     workers: 1,
//!     batch_window: Duration::from_micros(100),
//!     tune_budget: TuneBudget::minimal(),
//!     ..ServeConfig::default()
//! };
//! let server = SpmvServer::new(ExecCtx::new(1), cfg);
//! let tenant = server.register_tenant("docs");
//! let matrix = server.register_matrix("band", csr.clone());
//!
//! let x = vec![1.0; 400];
//! let ticket = server.submit(tenant, matrix, x.clone()).unwrap();
//! let Reply::Vector(y) = ticket.wait().unwrap() else {
//!     unreachable!("submit always answers with a vector")
//! };
//!
//! let mut want = vec![0.0; 400];
//! SerialCsr::new(csr).spmv(&x, &mut want);
//! assert_eq!(y, want);
//! assert_eq!(server.stats().completed, 1);
//! ```

#![warn(missing_docs)]

pub mod server;
pub mod stats;

pub use server::{MatrixId, MatrixInfo, ServeConfig, SpmvServer, TenantId};
pub use stats::{LatencyHistogram, ServeStats, StatsSnapshot, MAX_TRACKED_BATCH};
// Re-exported so serving callers can size registration budgets and point
// [`SpmvServer::with_plan_cache`] at a persistent cache without depending
// on the optimizer crate directly.
pub use sparseopt_optimizer::{PlanCache, TuneBudget};

use sparseopt_core::prelude::MultiVec;
use sparseopt_solver::SolveOutcome;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a fulfilled request carries back.
#[derive(Clone, Debug)]
pub enum Reply {
    /// `y = A·x` for a single-vector request (possibly computed as one
    /// column of a coalesced SpMM).
    Vector(Vec<f64>),
    /// `Y = A·X` for a multi-RHS request.
    Multi(MultiVec),
    /// A preconditioned-CG solve of `A·x = b`.
    Solve {
        /// The computed solution (zero initial guess).
        x: Vec<f64>,
        /// Convergence record of the solve.
        outcome: SolveOutcome,
    },
}

/// Why a request was rejected or abandoned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The tenant id was never registered on this server.
    UnknownTenant,
    /// The matrix id was never registered on this server.
    UnknownMatrix,
    /// Operand length disagrees with the registered matrix shape.
    DimensionMismatch {
        /// Length the matrix shape requires.
        expected: usize,
        /// Length the caller supplied.
        got: usize,
    },
    /// A solve was requested against a rectangular matrix.
    NotSquare,
    /// The tenant's bounded in-flight budget is exhausted — the load-shed
    /// answer. Back off and retry; the queue did not grow.
    Overloaded {
        /// The shedding tenant's name.
        tenant: String,
        /// Its configured in-flight capacity.
        capacity: usize,
    },
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// An out-of-core shard container could not be opened or validated
    /// (see [`sparseopt_matrix::ShardError`] for the underlying cause).
    ShardContainer(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant => write!(f, "unknown tenant id"),
            ServeError::UnknownMatrix => write!(f, "unknown matrix id"),
            ServeError::DimensionMismatch { expected, got } => {
                write!(f, "operand length {got} != required {expected}")
            }
            ServeError::NotSquare => write!(f, "solve requires a square matrix"),
            ServeError::Overloaded { tenant, capacity } => write!(
                f,
                "tenant `{tenant}` is at its in-flight capacity ({capacity}); request shed"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::ShardContainer(msg) => {
                write!(f, "shard container rejected: {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Completion slot shared between a queued request and its [`Ticket`].
#[derive(Default)]
pub(crate) struct TicketInner {
    slot: Mutex<Option<Result<Reply, ServeError>>>,
    cv: Condvar,
}

impl TicketInner {
    pub(crate) fn fulfill(&self, result: Result<Reply, ServeError>) {
        *self.slot.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }
}

/// A handle to one submitted request. Wait on it to receive the [`Reply`];
/// dropping it abandons the result (the request still executes and its
/// tenant slot is still released).
pub struct Ticket {
    pub(crate) inner: Arc<TicketInner>,
}

impl Ticket {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<Reply, ServeError> {
        let mut slot = self.inner.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.inner.cv.wait(slot).unwrap();
        }
    }

    /// Blocks up to `timeout`; `None` when the request is still in flight
    /// (the ticket remains waitable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Reply, ServeError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.inner.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.inner.cv.wait_timeout(slot, deadline - now).unwrap();
            slot = guard;
        }
    }

    /// True when the result is already available (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.inner.slot.lock().unwrap().is_some()
    }
}
