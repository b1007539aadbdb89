//! Fork-join execution context with per-thread timing.
//!
//! The paper's IMB bound `P_IMB = 2·NNZ / t_median` needs the execution time
//! of *each* thread for one SpMV (Section III-B). [`ExecCtx::run`] runs a
//! closure once per thread id and records each thread's wall time into a
//! cache-padded slot.
//!
//! Every parallel kernel forks and joins once per application, and a Krylov
//! solve applies thousands of times, so the context is built for short,
//! frequent runs:
//!
//! - the calling thread runs tid 0 and a team of `nthreads − 1` persistent
//!   workers runs the rest; a 1-thread context runs the closure inline and
//!   spawns no thread;
//! - an idle thread (a worker waiting for the next run, or the caller
//!   waiting for the workers) spins for 50 µs and then parks, so
//!   back-to-back runs cost under a microsecond while an idle context
//!   costs no CPU;
//! - a lock serializes concurrent `run`s on one context, so any number of
//!   threads may share it;
//! - a panic on any thread reaches the caller of `run` once every thread is
//!   done with the closure, and the context stays usable.
//!
//! OpenMP runtimes spin before they sleep for the same reason.

use crossbeam::utils::CachePadded;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle thread spins before it parks. Bounded in time, not in
/// `spin_loop` calls, because one PAUSE costs 10–140 cycles depending on the
/// CPU. Tens of microseconds cover the serial gaps between the runs of a
/// solver iteration; waking a parked thread costs about as much again.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// The job of one run, with its lifetime erased (see [`Team::run`]).
type Job = dyn Fn(usize) + Sync;

/// Execution context shared by all parallel kernels.
pub struct ExecCtx {
    nthreads: usize,
    times_ns: Vec<CachePadded<AtomicU64>>,
    /// `None` for a 1-thread context, which runs inline.
    team: Option<Team>,
}

impl ExecCtx {
    /// Creates a context of `nthreads` threads (>= 1): the caller of
    /// [`Self::run`] plus `nthreads − 1` spawned workers.
    ///
    /// # Panics
    /// Panics if `nthreads == 0` or the OS refuses to spawn a worker.
    pub fn new(nthreads: usize) -> Arc<Self> {
        assert!(nthreads > 0, "need at least one thread");
        let times_ns = (0..nthreads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        Arc::new(Self {
            nthreads,
            times_ns,
            team: (nthreads > 1).then(|| Team::spawn(nthreads - 1)),
        })
    }

    /// A context sized to the host's available parallelism.
    pub fn host() -> Arc<Self> {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Number of threads a run executes on, the caller included.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Runs `f(tid)` once for every `tid` in `0..nthreads`, blocking until
    /// all finish, and records per-thread wall times retrievable via
    /// [`Self::last_thread_times`]. The calling thread runs `tid` 0.
    ///
    /// Concurrent calls on one context run one after the other. `f` must not
    /// call `run` on the same context: that deadlocks.
    ///
    /// # Panics
    /// Re-raises the panic of any `f(tid)` once every thread has returned;
    /// the context stays usable.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let body = |tid: usize| {
            let start = Instant::now();
            f(tid);
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.times_ns[tid].store(ns, Relaxed);
        };
        match &self.team {
            Some(team) => team.run(&body),
            None => body(0),
        }
    }

    /// Folds `extra` into the recorded per-thread times — used by
    /// multi-phase kernels (the transpose scatter + merge) so
    /// [`Self::last_thread_times`] covers the whole application rather than
    /// only the final phase.
    pub(crate) fn accumulate_last_times(&self, extra: &[Duration]) {
        for (slot, d) in self.times_ns.iter().zip(extra) {
            slot.fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Relaxed);
        }
    }

    /// Per-thread execution times of the most recent [`Self::run`].
    pub fn last_thread_times(&self) -> Vec<Duration> {
        self.times_ns
            .iter()
            .map(|t| Duration::from_nanos(t.load(Relaxed)))
            .collect()
    }

    /// Median of the last per-thread times in seconds — the `t_median` of the
    /// paper's `P_IMB` bound.
    pub fn last_median_secs(&self) -> f64 {
        let secs: Vec<f64> = self
            .last_thread_times()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        crate::util::median(&secs).unwrap_or(0.0)
    }

    /// Maximum of the last per-thread times in seconds (the critical path).
    pub fn last_max_secs(&self) -> f64 {
        self.last_thread_times()
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("nthreads", &self.nthreads)
            .finish()
    }
}

/// The spawned workers of a multi-thread context and the lock that admits
/// one run at a time.
struct Team {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    serial: Mutex<()>,
}

/// State the caller and the workers share. Worker `w` runs tid `w + 1`.
struct Shared {
    /// Bumped once per run, and once at shutdown; workers wait for a change.
    epoch: CachePadded<AtomicUsize>,
    /// Workers that have not yet finished the current job.
    pending: CachePadded<AtomicUsize>,
    /// The current job. Written only under `Team::serial` while
    /// `pending == 0` (no worker reads it), before the `epoch` bump that
    /// publishes it; read by workers only between that bump and their own
    /// decrement of `pending`.
    job: UnsafeCell<Option<*const Job>>,
    /// Where each worker parks between runs.
    worker_beds: Vec<CachePadded<Bed>>,
    /// Where the caller parks while the workers finish.
    caller_bed: CachePadded<Bed>,
    shutdown: AtomicBool,
    /// The first panic payload a worker caught during the current run.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: every field but `job` is Send + Sync on its own. `job` is accessed
// under the protocol documented on it: one writer (the run-lock holder,
// while no worker reads), readers only after the SeqCst `epoch` bump that
// orders the write before them, and the closure behind the pointer is
// `Sync`.
unsafe impl Sync for Shared {}
// SAFETY: as above; the raw pointer is only dereferenced under that protocol.
unsafe impl Send for Shared {}

impl Team {
    fn spawn(nworkers: usize) -> Self {
        let shared = Arc::new(Shared {
            epoch: CachePadded::new(AtomicUsize::new(0)),
            pending: CachePadded::new(AtomicUsize::new(0)),
            job: UnsafeCell::new(None),
            worker_beds: (0..nworkers)
                .map(|_| CachePadded::new(Bed::default()))
                .collect(),
            caller_bed: CachePadded::new(Bed::default()),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let workers = (0..nworkers)
            .map(|w| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("sparseopt-worker-{}", w + 1))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("failed to spawn an ExecCtx worker thread")
            })
            .collect();
        Self {
            shared,
            workers,
            serial: Mutex::new(()),
        }
    }

    fn run(&self, body: &(dyn Fn(usize) + Sync)) {
        // The guarded data is `()`: a run that panicked leaves nothing to
        // repair, so a poisoned lock is taken over as is.
        let serial = self.serial.lock().unwrap_or_else(PoisonError::into_inner);
        let shared = &*self.shared;
        // SAFETY: only the lifetime is erased. Workers dereference the
        // pointer only until they decrement `pending`, and this frame does
        // not return (nor unwind) before `pending` is back to zero: the
        // caller's own share runs under `catch_unwind`.
        let job =
            unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Job>(body) };
        // SAFETY: we hold `serial` and the previous run drained `pending`,
        // so no worker reads the slot (the protocol on `Shared::job`).
        unsafe { *shared.job.get() = Some(job) };
        shared.pending.store(self.workers.len(), SeqCst);
        shared.epoch.fetch_add(1, SeqCst);
        for bed in &shared.worker_beds {
            bed.wake();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(|| body(0)));
        shared
            .caller_bed
            .wait_until(|| shared.pending.load(SeqCst) == 0);
        let theirs = shared
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(serial);
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.epoch.fetch_add(1, SeqCst);
        for bed in &self.shared.worker_beds {
            bed.wake();
        }
        for handle in self.workers.drain(..) {
            // A worker catches every job panic, so join cannot fail.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let tid = w + 1;
    let mut seen = 0usize;
    loop {
        shared.worker_beds[w].wait_until(|| shared.epoch.load(SeqCst) != seen);
        seen = shared.epoch.load(SeqCst);
        if shared.shutdown.load(SeqCst) {
            return;
        }
        // SAFETY: the epoch bump we observed published the slot, and the
        // caller keeps it and the closure alive until we decrement
        // `pending` below.
        let job = unsafe { *shared.job.get() }.expect("a run publishes its job");
        // SAFETY: as above, the closure outlives this call.
        let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(tid) }));
        if let Err(payload) = result {
            let mut slot = shared.panic.lock().unwrap_or_else(PoisonError::into_inner);
            slot.get_or_insert(payload);
        }
        if shared.pending.fetch_sub(1, SeqCst) == 1 {
            shared.caller_bed.wake();
        }
    }
}

/// Where one thread waits for a condition another thread makes true: it
/// spins for [`SPIN_BUDGET`], then sleeps on a condvar. It spins without
/// yielding: in a trial where waits yielded after 2 µs, the scheduler kept
/// two team threads on one vCPU for whole process lifetimes (every empty
/// run then cost 8 µs instead of 0.8 µs, and one `tune-solve` run solved
/// 1.5× slower than on the condvar pool this team replaced).
///
/// The waker makes the condition true with a SeqCst write and then calls
/// [`Bed::wake`], which reads `asleep` with SeqCst: so either the waker
/// sees `asleep` and notifies, or the sleeper's own SeqCst re-check sees
/// the condition. The re-check and the wait happen under `lock`, which the
/// waker takes before notifying, so the notification cannot fall between
/// them.
#[derive(Default)]
struct Bed {
    asleep: AtomicBool,
    lock: Mutex<()>,
    bell: Condvar,
}

impl Bed {
    /// Returns once `done()` holds.
    fn wait_until(&self, done: impl Fn() -> bool) {
        let start = Instant::now();
        let mut spins = 0u32;
        while !done() {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) && start.elapsed() >= SPIN_BUDGET {
                self.asleep.store(true, SeqCst);
                // The guarded data is `()`, so poisoning is harmless.
                let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                while !done() {
                    guard = self
                        .bell
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                drop(guard);
                self.asleep.store(false, SeqCst);
                return;
            }
        }
    }

    /// Rouses the sleeper, if any; call after making its condition true.
    fn wake(&self) {
        if self.asleep.load(SeqCst) {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.bell.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_on_every_thread_exactly_once() {
        let ctx = ExecCtx::new(4);
        let hits = AtomicUsize::new(0);
        let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        ctx.run(|tid| {
            hits.fetch_add(1, SeqCst);
            seen[tid].fetch_add(1, SeqCst);
        });
        assert_eq!(hits.load(SeqCst), 4);
        for s in &seen {
            assert_eq!(s.load(SeqCst), 1);
        }
    }

    #[test]
    fn records_per_thread_times() {
        let ctx = ExecCtx::new(2);
        ctx.run(|tid| {
            if tid == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let times = ctx.last_thread_times();
        assert_eq!(times.len(), 2);
        assert!(times[0] >= Duration::from_millis(5));
        assert!(ctx.last_max_secs() >= ctx.last_median_secs());
    }

    #[test]
    fn borrows_stack_data() {
        let ctx = ExecCtx::new(3);
        let mut out = vec![0usize; 3];
        let p = crate::util::SendMutPtr::new(&mut out);
        ctx.run(|tid| unsafe { p.write(tid, tid + 1) });
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn single_thread_context_runs_inline() {
        let ctx = ExecCtx::new(1);
        let caller = std::thread::current().id();
        ctx.run(|tid| {
            assert_eq!(tid, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(ctx.last_thread_times().len(), 1);
    }

    #[test]
    fn the_caller_runs_tid_zero() {
        let ctx = ExecCtx::new(3);
        let caller = std::thread::current().id();
        let tid0_on_caller = AtomicBool::new(false);
        ctx.run(|tid| {
            if tid == 0 {
                tid0_on_caller.store(std::thread::current().id() == caller, SeqCst);
            }
        });
        assert!(tid0_on_caller.load(SeqCst));
    }

    /// Visits of each tid in one run, checked to be exactly one each.
    fn assert_each_tid_once(ctx: &ExecCtx) {
        let seen: Vec<AtomicUsize> = (0..ctx.nthreads()).map(|_| AtomicUsize::new(0)).collect();
        ctx.run(|tid| {
            seen[tid].fetch_add(1, SeqCst);
        });
        assert!(seen.iter().all(|s| s.load(SeqCst) == 1));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_context_survives() {
        let ctx = ExecCtx::new(3);
        for victim in [2, 0] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                ctx.run(|tid| {
                    if tid == victim {
                        panic!("boom on {tid}");
                    }
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(msg, &format!("boom on {victim}"));
            assert_each_tid_once(&ctx);
        }
    }

    #[test]
    fn the_caller_waits_for_workers_before_reraising_its_own_panic() {
        // tid 0 panics at once while tid 1 still reads the caller's stack:
        // the unwind must not start until tid 1 is done with it.
        let ctx = ExecCtx::new(2);
        let done = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            ctx.run(|tid| {
                if tid == 0 {
                    panic!("caller share");
                }
                std::thread::sleep(Duration::from_millis(20));
                done.store(true, SeqCst);
            })
        }));
        assert!(caught.is_err());
        assert!(done.load(SeqCst));
        assert_each_tid_once(&ctx);
    }

    #[test]
    fn concurrent_callers_each_see_every_tid_once_per_run() {
        let ctx = ExecCtx::new(3);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..2000 {
                        assert_each_tid_once(&ctx);
                    }
                });
            }
        });
    }

    #[test]
    fn dropping_a_context_with_parked_workers_returns() {
        let ctx = ExecCtx::new(3);
        ctx.run(|_| {});
        // Well past the spin budget, so the workers have parked.
        std::thread::sleep(SPIN_BUDGET * 20);
        drop(ctx);
    }
}
