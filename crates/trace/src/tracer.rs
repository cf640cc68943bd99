//! The tracer: the producer half of the subsystem.
//!
//! A [`Tracer`] is a cheap handle (`Option<Arc>`), cloned freely into
//! every layer that wants to emit events. The disabled tracer is `None`
//! inside, so the hot path of every recording method is one branch —
//! measured by `ablate_trace_overhead` in popper-bench.
//!
//! Every event goes straight into the buffer its [`TraceSink`] shares
//! with all the tracers it hands out, so an event is in the sink the
//! moment its recording call returns: a worker of a scoped pool needs
//! no flush before its closure returns. Under the same lock the sink
//! interns the event's track and name, so the buffer holds two label
//! numbers per event and no text. The only per-thread state is a stack
//! of open wall-clock spans, keyed by tracer core, for the parent links
//! of [`Tracer::span`].
//!
//! [`TraceSink`]: crate::TraceSink

use crate::event::{EventKind, SpanId};
use crate::sink::{Recorded, SharedRecording};
use popper_format::sync::lock;
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

pub(crate) struct Core {
    recording: SharedRecording,
    // Distinguishes this core's open spans on a thread's stack; unlike
    // the core's address it is never reused.
    key: u64,
    next_id: AtomicU64,
    epoch: Instant,
    domain: ClockDomain,
}

impl Core {
    pub(crate) fn new(recording: SharedRecording, domain: ClockDomain) -> Core {
        static NEXT_KEY: AtomicU64 = AtomicU64::new(0);
        Core {
            recording,
            key: NEXT_KEY.fetch_add(1, Ordering::Relaxed),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            domain,
        }
    }

    fn alloc_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn now_ns(&self) -> u64 {
        debug_assert_eq!(self.domain, ClockDomain::Wall, "virtual-domain tracers need *_at methods");
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The sink's numbers for a track and a name.
    fn labels(&self, track: &str, name: &str) -> (u32, u32) {
        let mut recording = lock(&self.recording);
        (recording.labels.id(track), recording.labels.id(name))
    }

    /// Record one event: intern its labels and buffer it, under one lock.
    fn record(
        &self,
        category: &'static str,
        track: &str,
        name: &str,
        kind: EventKind,
        id: SpanId,
        parent: SpanId,
    ) {
        let mut recording = lock(&self.recording);
        let (track, name) = (recording.labels.id(track), recording.labels.id(name));
        recording.events.push(Recorded { kind, id, parent, category, track, name });
    }

    fn push(&self, event: Recorded) {
        lock(&self.recording).events.push(event);
    }
}

thread_local! {
    /// This thread's open wall-clock spans as `(core key, span)`,
    /// innermost last.
    static OPEN: RefCell<Vec<(u64, SpanId)>> = const { RefCell::new(Vec::new()) };
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
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.iter().rev().find(|(key, _)| *key == core.key).map_or(SpanId::NONE, |&(_, s)| s);
            open.push((core.key, id));
            parent
        });
        let (track, name) = core.labels(track.as_ref(), name.as_ref());
        SpanGuard {
            inner: Some(GuardInner {
                core: Arc::clone(core),
                id,
                parent,
                category,
                track,
                name,
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
        let kind = EventKind::Span { start_ns, end_ns: end_ns.max(start_ns) };
        core.record(category, track.as_ref(), name.as_ref(), kind, id, parent);
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
        let kind = EventKind::Instant { ts_ns };
        core.record(category, track.as_ref(), name.as_ref(), kind, SpanId::NONE, SpanId::NONE);
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
        let kind = EventKind::Counter { ts_ns, value };
        core.record("counter", track.as_ref(), name.as_ref(), kind, SpanId::NONE, SpanId::NONE);
    }

    /// Does nothing: every event is in the sink as soon as it is
    /// recorded, so there is nothing to flush. Kept for callers outside
    /// this workspace that still call it.
    pub fn flush(&self) {}
}

struct GuardInner {
    core: Arc<Core>,
    id: SpanId,
    parent: SpanId,
    category: &'static str,
    track: u32,
    name: u32,
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
        OPEN.with(|open| {
            // LIFO discipline: this span should be on top.
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&entry| entry == (g.core.key, g.id)) {
                open.remove(pos);
            }
        });
        g.core.push(Recorded {
            kind: EventKind::Span { start_ns: g.start_ns, end_ns: end_ns.max(g.start_ns) },
            id: g.id,
            parent: g.parent,
            category: g.category,
            track: g.track,
            name: g.name,
        });
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
