//! The lifecycle trace recorder.
//!
//! [`TraceRecorder`] packages the sink + wall-domain tracer + exporter
//! wiring every traced lifecycle mode needs: it buffers the whole run,
//! drains it once (globally sorted, so the bytes are stable) and writes
//! it with [`chrome_trace_json`], keeping the events for the timeline
//! SVG and the summary table.

use crate::chrome::chrome_trace_json;
use crate::event::TraceEvent;
use crate::export::summary_table;
use crate::sink::TraceSink;
use crate::tracer::{ClockDomain, Tracer};

/// A self-contained trace recording session for one lifecycle run:
/// owns the sink, hands out a wall-clock [`Tracer`], and exports to
/// Chrome JSON when finished.
pub struct TraceRecorder {
    sink: TraceSink,
    tracer: Tracer,
}

/// The output of [`TraceRecorder::finish`].
pub struct TraceRecording {
    /// The complete Chrome `trace_event` JSON document.
    pub json: String,
    /// The recorded events, in drain order.
    pub events: Vec<TraceEvent>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder over a fresh sink.
    pub fn new() -> TraceRecorder {
        let sink = TraceSink::new();
        let tracer = sink.tracer(ClockDomain::Wall);
        TraceRecorder { sink, tracer }
    }

    /// The tracer lifecycle stages should record through.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Flush, drain the whole run, and write the document.
    pub fn finish(self) -> TraceRecording {
        self.tracer.flush();
        let events = self.sink.drain();
        let json = chrome_trace_json(&events);
        TraceRecording { json, events }
    }
}

impl TraceRecording {
    /// The per-track span summary.
    pub fn summary(&self) -> String {
        summary_table(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_chrome_trace;

    #[test]
    fn recorder_keeps_the_sorted_events_it_writes() {
        let rec = TraceRecorder::new();
        let t = rec.tracer();
        {
            let _a = t.span("core", "core/lifecycle", "execute");
            t.instant("chaos", "chaos", "tick");
        }
        {
            let _b = t.span("core", "core/lifecycle", "record");
        }
        let out = rec.finish();
        assert_eq!(out.events.len(), 3);
        assert_eq!(out.json, chrome_trace_json(&out.events));
        assert_eq!(parse_chrome_trace(&out.json).unwrap(), out.events);
        assert!(out.summary().contains("execute"));
    }
}
