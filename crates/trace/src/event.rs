//! The trace event model.

use crate::label::Label;

/// Identity of a span, for parent/child nesting. Ids are allocated from
/// a per-tracer counter starting at 1; `SpanId::NONE` (0) means "no
/// span".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (top level).
    pub const NONE: SpanId = SpanId(0);

    /// Is this the absent span?
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// What kind of event this is. All timestamps are nanoseconds in the
/// tracer's clock domain (wall nanoseconds since the sink's epoch, or
/// virtual nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A duration with a start and an end.
    Span {
        /// Start timestamp, ns.
        start_ns: u64,
        /// End timestamp, ns (`>= start_ns`).
        end_ns: u64,
    },
    /// A point in time.
    Instant {
        /// Timestamp, ns.
        ts_ns: u64,
    },
    /// A sampled numeric series (queue depth, cache hits, …).
    Counter {
        /// Timestamp, ns.
        ts_ns: u64,
        /// Sample value.
        value: f64,
    },
}

impl EventKind {
    /// The position on the time axis (span start, or timestamp).
    pub(crate) fn start_ns(&self) -> u64 {
        match *self {
            EventKind::Span { start_ns, .. } => start_ns,
            EventKind::Instant { ts_ns } | EventKind::Counter { ts_ns, .. } => ts_ns,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Human-readable name ("admit", "job build/exp", "read_page").
    pub name: Label,
    /// Coarse category used for grouping and coloring ("sim", "ci",
    /// "rpc", "mpi", "container", "lifecycle", …).
    pub category: &'static str,
    /// The horizontal lane this event belongs to ("sim/serial",
    /// "ci/worker-0", "orchestra/node3", …). Becomes the thread name in
    /// Chrome's viewer and a row in the SVG timeline.
    pub track: Label,
    /// Timing payload.
    pub kind: EventKind,
    /// This event's span id (`NONE` for instants and counters).
    pub id: SpanId,
    /// Enclosing span, or `NONE`.
    pub parent: SpanId,
}

impl TraceEvent {
    /// The event's position on the time axis (span start, or timestamp).
    pub fn start_ns(&self) -> u64 {
        self.kind.start_ns()
    }

    /// The event's end on the time axis (equals `start_ns` for points).
    pub fn end_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { end_ns, .. } => end_ns,
            EventKind::Instant { ts_ns } | EventKind::Counter { ts_ns, .. } => ts_ns,
        }
    }

    /// Span duration in ns (0 for points).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns().saturating_sub(self.start_ns())
    }
}
