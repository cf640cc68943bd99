//! Incremental Chrome-JSON export and the lifecycle trace recorder.
//!
//! [`ChromeStream`] is the streaming half of the exporter: it writes
//! `traceEvents` array elements as batches are absorbed from the sink's
//! ring buffer instead of buffering the whole run, so a long soak can
//! record through a bounded ring without ever materialising the full
//! event vector. [`crate::chrome_trace_json`] is the one-batch case.
//!
//! [`TraceRecorder`] packages the sink + wall-domain tracer + exporter
//! wiring every lifecycle mode used to hand-roll: `ordered()` buffers
//! and globally sorts (stable bytes for `popper trace` and the CI
//! selfcheck), `streaming()` flushes each absorbed wave straight to the
//! encoder (the default record-stage sink for `popper chaos` soaks).

use crate::chrome::{push_event, push_meta, CLOSE, OPEN};
use crate::event::TraceEvent;
use crate::export::summary_table;
use crate::sink::TraceSink;
use crate::tracer::{ClockDomain, Tracer};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// [`ChromeStream`] hands its text buffer to the writer once it holds
/// this many bytes, so a whole-run batch is not held twice.
const FLUSH_AT: usize = 1 << 16;

/// Streaming Chrome `trace_event` encoder over any [`Write`] target.
///
/// Tracks gain tids in sorted order *within each batch*, continuing
/// from tracks already seen; `thread_name` metadata is emitted the
/// moment a track first appears, which `parse_chrome_trace` tolerates
/// (its first pass scans the whole document for metadata).
pub struct ChromeStream<W: Write> {
    out: W,
    buf: String,
    tids: BTreeMap<String, u64>,
    events_written: u64,
}

impl<W: Write> ChromeStream<W> {
    /// Open the document: array preamble plus the process metadata.
    pub fn new(out: W) -> io::Result<ChromeStream<W>> {
        let mut buf = String::from(OPEN);
        push_meta(&mut buf, "process_name", None, "popper");
        let mut stream = ChromeStream { out, buf, tids: BTreeMap::new(), events_written: 0 };
        stream.drain_buf()?;
        Ok(stream)
    }

    fn drain_buf(&mut self) -> io::Result<()> {
        self.out.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }

    /// Encode one absorbed batch. New tracks are assigned tids in
    /// sorted order so that a lone full-drain batch reproduces the
    /// buffered exporter's bytes exactly.
    pub fn write_batch(&mut self, events: &[TraceEvent]) -> io::Result<()> {
        let mut fresh: Vec<&str> = events
            .iter()
            .map(|e| e.track.as_str())
            .filter(|t| !self.tids.contains_key(*t))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        for track in fresh {
            let tid = self.tids.len() as u64 + 1;
            self.tids.insert(track.to_string(), tid);
            self.buf.push(',');
            push_meta(&mut self.buf, "thread_name", Some(tid), track);
        }
        for e in events {
            self.buf.push(',');
            push_event(&mut self.buf, e, self.tids[e.track.as_str()]);
            self.events_written += 1;
            if self.buf.len() >= FLUSH_AT {
                self.drain_buf()?;
            }
        }
        self.drain_buf()
    }

    /// Events encoded so far (metadata elements excluded).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Close the array and document, returning the writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(CLOSE.as_bytes())?;
        Ok(self.out)
    }
}

/// How a [`TraceRecorder`] turns absorbed events into JSON.
enum RecordMode {
    /// Buffer everything; one globally-sorted batch at `finish()`.
    /// Byte-identical to the pre-streaming exporter, and keeps the
    /// event vector for SVG/summary rendering.
    Ordered,
    /// Stream every absorbed wave (each wave is drain-sorted) straight
    /// into the encoder; events are not retained.
    Streaming(ChromeStream<Vec<u8>>),
}

/// A self-contained trace recording session for one lifecycle run:
/// owns the sink, hands out a wall-clock [`Tracer`], and exports to
/// Chrome JSON when finished.
pub struct TraceRecorder {
    sink: TraceSink,
    tracer: Tracer,
    mode: RecordMode,
}

/// The output of [`TraceRecorder::finish`].
pub struct TraceRecording {
    /// The complete Chrome `trace_event` JSON document.
    pub json: String,
    /// The recorded events — empty in streaming mode, where retaining
    /// them would defeat the bounded ring.
    pub events: Vec<TraceEvent>,
    /// Events exported (streaming mode counts what it encoded).
    pub count: u64,
    /// Events shed by a bounded ring before they could be absorbed.
    pub dropped: u64,
}

impl TraceRecorder {
    fn with_sink(sink: TraceSink, mode: RecordMode) -> TraceRecorder {
        let tracer = sink.tracer(ClockDomain::Wall);
        TraceRecorder { sink, tracer, mode }
    }

    /// Buffering recorder: globally-sorted, byte-stable output that
    /// also keeps the events for timeline SVG / summary rendering.
    pub fn ordered() -> TraceRecorder {
        TraceRecorder::with_sink(TraceSink::new(), RecordMode::Ordered)
    }

    /// Streaming recorder over an unbounded sink.
    pub fn streaming() -> TraceRecorder {
        let stream = ChromeStream::new(Vec::new()).expect("Vec sink cannot fail");
        TraceRecorder::with_sink(TraceSink::new(), RecordMode::Streaming(stream))
    }

    /// Streaming recorder over a bounded ring: between absorbs at most
    /// `capacity` events are held, older ones are shed (and counted).
    pub fn streaming_with_capacity(capacity: usize) -> TraceRecorder {
        let stream = ChromeStream::new(Vec::new()).expect("Vec sink cannot fail");
        TraceRecorder::with_sink(TraceSink::with_capacity(capacity), RecordMode::Streaming(stream))
    }

    /// The tracer lifecycle stages should record through.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Absorb whatever has been recorded since the last call. In
    /// streaming mode the wave (sorted by the drain) is encoded
    /// immediately; in ordered mode events stay in the sink so the
    /// final drain can sort the whole run.
    pub fn absorb(&mut self) {
        match &mut self.mode {
            RecordMode::Ordered => {
                self.sink.absorb();
            }
            RecordMode::Streaming(stream) => {
                self.tracer.flush();
                let wave = self.sink.drain();
                stream.write_batch(&wave).expect("Vec sink cannot fail");
            }
        }
    }

    /// Flush, drain the residue, and close the document.
    pub fn finish(self) -> TraceRecording {
        self.tracer.flush();
        let residue = self.sink.drain();
        let dropped = self.sink.dropped();
        match self.mode {
            RecordMode::Ordered => {
                let json = crate::export::chrome_trace_json(&residue);
                let count = residue.len() as u64;
                TraceRecording { json, events: residue, count, dropped }
            }
            RecordMode::Streaming(mut stream) => {
                stream.write_batch(&residue).expect("Vec sink cannot fail");
                let count = stream.events_written();
                let bytes = stream.finish().expect("Vec sink cannot fail");
                let json = String::from_utf8(bytes).expect("encoder emits UTF-8");
                TraceRecording { json, events: Vec::new(), count, dropped }
            }
        }
    }
}

impl TraceRecording {
    /// The per-track span summary (empty-events recordings included).
    pub fn summary(&self) -> String {
        summary_table(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{chrome_trace_json, parse_chrome_trace};

    fn sample_events(n: u64) -> Vec<TraceEvent> {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        for i in 0..n {
            let track = format!("track-{}", i % 3);
            let s = t.span_at("sim", &track, format!("op{i}"), i * 100, i * 100 + 50);
            t.span_at_child(s, "sim", &track, "sub", i * 100 + 10, i * 100 + 20);
        }
        t.instant_at("chaos", "chaos/faults", "crash", 42);
        t.counter_at("engine", "pending", 3.0, 99);
        t.flush();
        sink.drain()
    }

    #[test]
    fn single_batch_matches_buffered_exporter_bytes() {
        let events = sample_events(40);
        let mut stream = ChromeStream::new(Vec::new()).unwrap();
        stream.write_batch(&events).unwrap();
        assert_eq!(stream.events_written(), events.len() as u64);
        let streamed = String::from_utf8(stream.finish().unwrap()).unwrap();
        assert_eq!(streamed, chrome_trace_json(&events));
    }

    #[test]
    fn empty_stream_is_a_valid_document() {
        let stream = ChromeStream::new(Vec::new()).unwrap();
        let json = String::from_utf8(stream.finish().unwrap()).unwrap();
        assert_eq!(parse_chrome_trace(&json).unwrap(), Vec::new());
        assert_eq!(json, chrome_trace_json(&[]));
    }

    #[test]
    fn multi_batch_stream_parses_back_to_the_same_events() {
        let events = sample_events(60);
        let mut stream = ChromeStream::new(Vec::new()).unwrap();
        for chunk in events.chunks(7) {
            stream.write_batch(chunk).unwrap();
        }
        let json = String::from_utf8(stream.finish().unwrap()).unwrap();
        let back = parse_chrome_trace(&json).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn ordered_recorder_matches_hand_rolled_export() {
        let record = |ordered: bool| {
            let mut rec =
                if ordered { TraceRecorder::ordered() } else { TraceRecorder::streaming() };
            let t = rec.tracer();
            {
                let _a = t.span("core", "core/lifecycle", "execute");
                t.instant("chaos", "chaos", "tick");
            }
            rec.absorb();
            {
                let _b = t.span("core", "core/lifecycle", "record");
            }
            rec.finish()
        };
        let ordered = record(true);
        let streaming = record(false);
        assert_eq!(ordered.count, 3);
        assert_eq!(streaming.count, 3);
        assert_eq!(ordered.events.len(), 3);
        assert!(streaming.events.is_empty());
        // Both are valid documents with the same span population.
        let a = parse_chrome_trace(&ordered.json).unwrap();
        let b = parse_chrome_trace(&streaming.json).unwrap();
        assert_eq!(a.len(), b.len());
        let names = |evs: &[TraceEvent]| {
            let mut n: Vec<String> = evs.iter().map(|e| e.name.clone()).collect();
            n.sort();
            n
        };
        assert_eq!(names(&a), names(&b));
        assert!(ordered.summary().contains("execute"));
    }

    #[test]
    fn bounded_streaming_recorder_counts_shed_events() {
        let rec = TraceRecorder::streaming_with_capacity(8);
        let t = rec.tracer();
        for i in 0..600u64 {
            t.counter("pressure", "n", i as f64);
        }
        // No absorb between: the ring must shed.
        let out = rec.finish();
        assert!(out.dropped > 0, "ring of 8 must shed most of 600 events");
        assert!(out.count <= 8);
        parse_chrome_trace(&out.json).unwrap();
    }
}
