//! The lifecycle trace recorder.
//!
//! [`TraceRecorder`] packages the sink + wall-domain tracer wiring
//! every traced lifecycle mode needs: it buffers the whole run and
//! drains it once, globally sorted so the bytes are stable. The caller
//! renders what it records from the drained events: `popper trace` the
//! Chrome JSON on one thread beside the timeline SVG and the summary,
//! `popper chaos` and the CI self-checks the JSON alone.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use crate::tracer::{ClockDomain, Tracer};

/// A self-contained trace recording session for one lifecycle run:
/// owns the sink and hands out a wall-clock [`Tracer`].
pub struct TraceRecorder {
    sink: TraceSink,
    tracer: Tracer,
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

    /// Drain the whole run, in the order
    /// [`chrome_trace_json`](crate::chrome_trace_json) writes it.
    pub fn finish(self) -> Vec<TraceEvent> {
        self.sink.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{chrome_trace_json, parse_chrome_trace, summary_table};

    #[test]
    fn recorder_drains_the_sorted_events_the_json_holds() {
        let rec = TraceRecorder::new();
        let t = rec.tracer();
        {
            let _a = t.span("core", "core/lifecycle", "execute");
            t.instant("chaos", "chaos", "tick");
        }
        {
            let _b = t.span("core", "core/lifecycle", "record");
        }
        let events = rec.finish();
        assert_eq!(events.len(), 3);
        assert_eq!(parse_chrome_trace(&chrome_trace_json(&events)).unwrap(), events);
        assert!(summary_table(&events).contains("execute"));
    }
}
