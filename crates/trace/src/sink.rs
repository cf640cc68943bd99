//! The sink: the consumer half of the subsystem.

use crate::event::TraceEvent;
use crate::tracer::{ClockDomain, Core, Tracer};
use crossbeam::channel::{self, Receiver, Sender};
use std::sync::Arc;

/// Central collection point for trace events. Create one per traced
/// run, hand out tracers, then [`TraceSink::drain`] after the work.
/// Flushed batches wait in the channel until the drain.
pub struct TraceSink {
    tx: Sender<Vec<TraceEvent>>,
    rx: Receiver<Vec<TraceEvent>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> TraceSink {
        let (tx, rx) = channel::unbounded();
        TraceSink { tx, rx }
    }

    /// A new enabled tracer feeding this sink. Each call creates an
    /// independent span-id space; use one tracer per clock domain and
    /// clone it, rather than calling this per thread.
    pub fn tracer(&self, domain: ClockDomain) -> Tracer {
        Tracer { core: Some(Arc::new(Core::new(self.tx.clone(), domain))) }
    }

    /// Collect everything flushed so far, in a deterministic order
    /// (time, then track, then name, then id) regardless of which
    /// thread delivered which batch first. Call `tracer.flush()` on the
    /// recording thread(s) first; exited threads have already flushed.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        while let Ok(batch) = self.rx.try_recv() {
            events.extend(batch);
        }
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
        tracer.flush();
        assert_eq!(sink.drain().len(), 1000);
        assert!(sink.drain().is_empty());
    }
}
