//! The tracer: the producer half of the subsystem.
//!
//! A [`Tracer`] is a cheap handle (`Option<Arc>`), cloned freely into
//! every layer that wants to emit events. The disabled tracer is `None`
//! inside, so the hot path of every recording method is one branch —
//! measured by `ablate_trace_overhead` in popper-bench.
//!
//! Events are buffered in per-thread buffers (a `thread_local!`
//! registry keyed by tracer core) and flushed to the sink's channel in
//! batches, so threads never contend on a shared lock while recording.
//! Buffers flush on batch overflow, on [`Tracer::flush`], and on thread
//! exit (TLS destructor). A worker of a scoped pool must call
//! [`Tracer::flush`] before its closure returns: `std::thread::scope`
//! returns once every closure has returned, *before* the workers' TLS
//! destructors run, so the caller could drain the sink ahead of a
//! worker's last batch.

use crate::event::{EventKind, SpanId, TraceEvent};
use crossbeam::channel::Sender;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which clock a tracer stamps events with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Real time: nanoseconds since the tracer was created, read from a
    /// monotonic clock. For thread pools doing real work (CI jobs,
    /// orchestra hosts, container builds).
    Wall,
    /// Simulated time: the caller supplies every timestamp explicitly
    /// (`*_at` methods). Same seed ⇒ bit-identical trace.
    Virtual,
}

/// Flush to the sink after this many buffered events.
const BATCH: usize = 256;

pub(crate) struct Core {
    pub(crate) tx: Sender<Vec<TraceEvent>>,
    next_id: AtomicU64,
    epoch: Instant,
    domain: ClockDomain,
}

impl Core {
    pub(crate) fn new(tx: Sender<Vec<TraceEvent>>, domain: ClockDomain) -> Core {
        Core { tx, next_id: AtomicU64::new(1), epoch: Instant::now(), domain }
    }

    fn alloc_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn now_ns(&self) -> u64 {
        debug_assert_eq!(self.domain, ClockDomain::Wall, "virtual-domain tracers need *_at methods");
        self.epoch.elapsed().as_nanos() as u64
    }
}

// ---- per-thread buffering ----

struct ThreadBuffer {
    // Holding the core keeps its address stable, so the key (the Arc's
    // pointer) cannot be reused by another tracer while this entry lives.
    core: Arc<Core>,
    events: Vec<TraceEvent>,
    // Stack of open wall-clock spans on this thread (for parent links).
    open: Vec<SpanId>,
}

impl ThreadBuffer {
    fn flush(&mut self) {
        if !self.events.is_empty() {
            // The receiver may already be gone during shutdown; losing
            // the batch then is fine — nobody is left to read it.
            let _ = self.core.tx.send(std::mem::take(&mut self.events));
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUFFERS: RefCell<Vec<ThreadBuffer>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's buffer for `core`.
fn with_buffer<R>(core: &Arc<Core>, f: impl FnOnce(&mut ThreadBuffer) -> R) -> R {
    BUFFERS.with(|cell| {
        let mut buffers = cell.borrow_mut();
        let key = Arc::as_ptr(core);
        let idx = match buffers.iter().position(|b| Arc::as_ptr(&b.core) == key) {
            Some(i) => i,
            None => {
                buffers.push(ThreadBuffer { core: Arc::clone(core), events: Vec::new(), open: Vec::new() });
                buffers.len() - 1
            }
        };
        f(&mut buffers[idx])
    })
}

fn push_event(core: &Arc<Core>, event: TraceEvent) {
    with_buffer(core, |buf| {
        buf.events.push(event);
        if buf.events.len() >= BATCH {
            buf.flush();
        }
    });
}

// ---- the handle ----

/// A handle for recording events. Clone it anywhere; a disabled tracer
/// records nothing and costs one branch per call.
#[derive(Clone)]
pub struct Tracer {
    pub(crate) core: Option<Arc<Core>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            Some(c) => write!(f, "Tracer({:?})", c.domain),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The no-op tracer.
    pub fn disabled() -> Tracer {
        Tracer { core: None }
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The clock domain, if enabled.
    pub fn domain(&self) -> Option<ClockDomain> {
        self.core.as_ref().map(|c| c.domain)
    }

    /// Open a wall-clock span; it records itself when the guard drops.
    /// Guards on one thread must drop in LIFO order for parent links to
    /// be right (the natural shape of scoped instrumentation).
    pub fn span(
        &self,
        category: &'static str,
        track: impl AsRef<str>,
        name: impl AsRef<str>,
    ) -> SpanGuard {
        let Some(core) = &self.core else { return SpanGuard { inner: None } };
        let id = core.alloc_id();
        let parent = with_buffer(core, |buf| {
            let parent = buf.open.last().copied().unwrap_or(SpanId::NONE);
            buf.open.push(id);
            parent
        });
        SpanGuard {
            inner: Some(GuardInner {
                core: Arc::clone(core),
                id,
                parent,
                category,
                track: track.as_ref().to_string(),
                name: name.as_ref().to_string(),
                start_ns: core.now_ns(),
            }),
        }
    }

    /// Record a complete span with explicit timestamps (virtual time, or
    /// wall spans measured elsewhere). Returns the span's id so callers
    /// can parent further spans under it.
    pub fn span_at(
        &self,
        category: &'static str,
        track: impl AsRef<str>,
        name: impl AsRef<str>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.span_at_child(SpanId::NONE, category, track, name, start_ns, end_ns)
    }

    /// Like [`Tracer::span_at`], nested under `parent`.
    pub fn span_at_child(
        &self,
        parent: SpanId,
        category: &'static str,
        track: impl AsRef<str>,
        name: impl AsRef<str>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let Some(core) = &self.core else { return SpanId::NONE };
        let id = core.alloc_id();
        push_event(
            core,
            TraceEvent {
                name: name.as_ref().to_string(),
                category,
                track: track.as_ref().to_string(),
                kind: EventKind::Span { start_ns, end_ns: end_ns.max(start_ns) },
                id,
                parent,
            },
        );
        id
    }

    /// Record a point event at the wall clock's current time.
    pub fn instant(&self, category: &'static str, track: impl AsRef<str>, name: impl AsRef<str>) {
        let Some(core) = &self.core else { return };
        let ts = core.now_ns();
        self.instant_at(category, track, name, ts);
    }

    /// Record a point event at an explicit timestamp.
    pub fn instant_at(
        &self,
        category: &'static str,
        track: impl AsRef<str>,
        name: impl AsRef<str>,
        ts_ns: u64,
    ) {
        let Some(core) = &self.core else { return };
        push_event(
            core,
            TraceEvent {
                name: name.as_ref().to_string(),
                category,
                track: track.as_ref().to_string(),
                kind: EventKind::Instant { ts_ns },
                id: SpanId::NONE,
                parent: SpanId::NONE,
            },
        );
    }

    /// Sample a counter at the wall clock's current time.
    pub fn counter(&self, track: impl AsRef<str>, name: impl AsRef<str>, value: f64) {
        let Some(core) = &self.core else { return };
        let ts = core.now_ns();
        self.counter_at(track, name, value, ts);
    }

    /// Sample a counter at an explicit timestamp.
    pub fn counter_at(&self, track: impl AsRef<str>, name: impl AsRef<str>, value: f64, ts_ns: u64) {
        let Some(core) = &self.core else { return };
        push_event(
            core,
            TraceEvent {
                name: name.as_ref().to_string(),
                category: "counter",
                track: track.as_ref().to_string(),
                kind: EventKind::Counter { ts_ns, value },
                id: SpanId::NONE,
                parent: SpanId::NONE,
            },
        );
    }

    /// Flush this thread's buffered events for this tracer to the sink.
    /// Call before draining the sink on the same thread, and at the end
    /// of a scoped worker's closure (after its last span guard drops);
    /// other threads flush when they exit.
    pub fn flush(&self) {
        if let Some(core) = &self.core {
            with_buffer(core, |buf| buf.flush());
        }
    }
}

struct GuardInner {
    core: Arc<Core>,
    id: SpanId,
    parent: SpanId,
    category: &'static str,
    track: String,
    name: String,
    start_ns: u64,
}

/// An open wall-clock span; records itself on drop.
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl SpanGuard {
    /// The span's id (`NONE` when the tracer is disabled).
    pub fn id(&self) -> SpanId {
        self.inner.as_ref().map(|g| g.id).unwrap_or(SpanId::NONE)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(g) = self.inner.take() else { return };
        let end_ns = g.core.now_ns();
        with_buffer(&g.core, |buf| {
            // LIFO discipline: this span should be on top.
            if let Some(pos) = buf.open.iter().rposition(|&s| s == g.id) {
                buf.open.remove(pos);
            }
        });
        push_event(
            &g.core,
            TraceEvent {
                name: g.name,
                category: g.category,
                track: g.track,
                kind: EventKind::Span { start_ns: g.start_ns, end_ns: end_ns.max(g.start_ns) },
                id: g.id,
                parent: g.parent,
            },
        );
    }
}

// ---- ambient tracer ----

thread_local! {
    static CURRENT: RefCell<Tracer> = const { RefCell::new(Tracer { core: None }) };
}

/// The thread's ambient tracer (disabled unless inside [`with_current`]).
/// Library code deep in the stack uses this so instrumentation does not
/// thread a `Tracer` argument through every signature.
pub fn current() -> Tracer {
    CURRENT.with(|c| c.borrow().clone())
}

/// Run `f` with `tracer` as the thread's ambient tracer, restoring the
/// previous one afterwards (also on panic). Worker threads do not
/// inherit the ambient tracer — pass one explicitly and re-enter
/// `with_current` inside the thread.
pub fn with_current<R>(tracer: Tracer, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Tracer>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), tracer));
    let _restore = Restore(Some(prev));
    f()
}
