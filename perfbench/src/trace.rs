//! The traced run: an in-memory span recorder plus timing adapters around
//! the library's public interfaces.
//!
//! Spans are recorded only from the benchmark's own files, around calls into
//! each crate (`matrix`, `classifier`, `optimizer`, `core`, `solver`,
//! `serve`). A span's name is `<layer>.<call>`; the layer is the part before
//! the first dot. Spans stay in memory and are written out when the run
//! ends. With tracing off every recording call is a no-op.

use sparseopt_classifier::{BoundsProfiler, PerClassBounds};
use sparseopt_core::kernels::{Apply, OpCapabilities, SparseLinOp};
use sparseopt_core::prelude::{CsrMatrix, MultiVec};
use sparseopt_solver::Preconditioner;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 at the top.
    pub parent: u64,
    pub name: &'static str,
    /// Request id for spans that belong to one served request, else 0.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last (parents for new spans).
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let p = o.last().copied().unwrap_or(0);
            o.push(id);
            p
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                parent,
                name,
                req,
                start: Instant::now(),
            }),
        }
    }

    /// Records a finished interval measured elsewhere (for example a
    /// request's due-to-reply time, which spans two threads).
    pub fn record(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log").push(span);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log").clone()
    }

    /// Per-layer `(total ms, self ms, spans)`: a span's self time is its
    /// duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<String, (f64, f64, usize)> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
        for s in &spans {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(layer).or_default();
            e.0 += dur as f64 / 1e6;
            e.1 += own as f64 / 1e6;
            e.2 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start: Instant,
}

pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(s) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        let span = Span {
            id: s.id,
            parent: s.parent,
            name: s.name,
            req: s.req,
            start_ns: s.tracer.ns(s.start),
            end_ns: s.tracer.ns(end),
        };
        if let Ok(mut log) = s.tracer.spans.lock() {
            log.push(span);
        }
    }
}

/// Call count and busy time of one adapter.
#[derive(Default)]
pub struct Busy {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Busy {
    fn add(&self, d: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Times every application of a [`SparseLinOp`] and records a `core.*`
/// span around it.
pub struct TimedOp<'a> {
    inner: &'a dyn SparseLinOp,
    tracer: &'a Tracer,
    pub busy: Busy,
}

impl<'a> TimedOp<'a> {
    pub fn new(inner: &'a dyn SparseLinOp, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            busy: Busy::default(),
        }
    }
}

impl SparseLinOp for TimedOp<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn capabilities(&self) -> OpCapabilities {
        self.inner.capabilities()
    }
    fn apply(&self, op: Apply, x: &[f64], y: &mut [f64]) {
        let _s = self.tracer.span("core.apply", 0);
        let t0 = Instant::now();
        self.inner.apply(op, x, y);
        self.busy.add(t0.elapsed());
    }
    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec) {
        let _s = self.tracer.span("core.apply_multi", 0);
        let t0 = Instant::now();
        self.inner.apply_multi(op, x, y);
        self.busy.add(t0.elapsed());
    }
    fn last_thread_times(&self) -> Vec<Duration> {
        self.inner.last_thread_times()
    }
    fn footprint_bytes(&self) -> usize {
        self.inner.footprint_bytes()
    }
}

/// Times every application of a [`Preconditioner`] and records a
/// `solver.precond` span around it.
pub struct TimedPrecond<'a> {
    inner: &'a dyn Preconditioner,
    tracer: &'a Tracer,
    pub busy: Busy,
}

impl<'a> TimedPrecond<'a> {
    pub fn new(inner: &'a dyn Preconditioner, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            busy: Busy::default(),
        }
    }
}

impl Preconditioner for TimedPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _s = self.tracer.span("solver.precond", 0);
        let t0 = Instant::now();
        self.inner.apply(r, z);
        self.busy.add(t0.elapsed());
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times the classifier's bounds measurement inside the tuner.
pub struct TimedProfiler<'a> {
    inner: &'a dyn BoundsProfiler,
    tracer: &'a Tracer,
    pub busy: Busy,
}

impl<'a> TimedProfiler<'a> {
    pub fn new(inner: &'a dyn BoundsProfiler, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            busy: Busy::default(),
        }
    }
}

impl BoundsProfiler for TimedProfiler<'_> {
    fn measure(&self, csr: &Arc<CsrMatrix>) -> PerClassBounds {
        let _s = self.tracer.span("classifier.measure", 0);
        let t0 = Instant::now();
        let b = self.inner.measure(csr);
        self.busy.add(t0.elapsed());
        b
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}
