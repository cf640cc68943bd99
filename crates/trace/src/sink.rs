//! The sink: the consumer half of the subsystem.
//!
//! A [`TraceSink`] is one event buffer shared with every tracer it
//! hands out, plus [`TraceSink::drain`], which takes the buffer and
//! sorts it into the order every exporter writes.

use crate::event::TraceEvent;
use crate::tracer::{ClockDomain, Core, SharedEvents, Tracer};
use std::sync::Arc;

/// Central collection point for trace events. Create one per traced
/// run, hand out tracers, then [`TraceSink::drain`] after the work.
#[derive(Default)]
pub struct TraceSink {
    events: SharedEvents,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// A new enabled tracer feeding this sink. Each call creates an
    /// independent span-id space; use one tracer per clock domain and
    /// clone it, rather than calling this per thread.
    pub fn tracer(&self, domain: ClockDomain) -> Tracer {
        Tracer { core: Some(Arc::new(Core::new(Arc::clone(&self.events), domain))) }
    }

    /// Take everything recorded so far, in a deterministic order (time,
    /// then track, then name, then id; the sort is stable, so ties keep
    /// the order they were recorded in).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = std::mem::take(&mut *self.events.lock());
        events.sort_by(|a, b| {
            a.start_ns()
                .cmp(&b.start_ns())
                .then_with(|| a.track.cmp(&b.track))
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.id.cmp(&b.id))
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_keeps_every_event_and_drains_once() {
        let sink = TraceSink::new();
        let tracer = sink.tracer(ClockDomain::Virtual);
        for i in 0..1000u64 {
            tracer.instant_at("test", "t", "e", i);
        }
        assert_eq!(sink.drain().len(), 1000);
        assert!(sink.drain().is_empty());
    }
}
