//! The sink: the consumer half of the subsystem.
//!
//! A [`TraceSink`] is one event buffer shared with every tracer it
//! hands out, plus [`TraceSink::drain`], which takes the buffer and
//! sorts it into the order every exporter writes. The sink interns each
//! track and name the first time a tracer records it, so the buffer
//! holds label numbers, not text, and the drain ranks the few distinct
//! labels once and then sorts integer keys.

use crate::event::{EventKind, SpanId, TraceEvent};
use crate::label::{ranks, Interner, Label};
use crate::tracer::{ClockDomain, Core, Tracer};
use popper_format::sync::lock;
use std::sync::{Arc, Mutex};

/// An event as the sink buffers it: its track and name are numbers of
/// the sink's interned labels.
pub(crate) struct Recorded {
    pub(crate) kind: EventKind,
    pub(crate) id: SpanId,
    pub(crate) parent: SpanId,
    pub(crate) category: &'static str,
    pub(crate) track: u32,
    pub(crate) name: u32,
}

impl Recorded {
    fn event(&self, labels: &[Label]) -> TraceEvent {
        TraceEvent {
            name: labels[self.name as usize].clone(),
            category: self.category,
            track: labels[self.track as usize].clone(),
            kind: self.kind,
            id: self.id,
            parent: self.parent,
        }
    }
}

/// What a sink shares with its tracers: the labels interned so far and
/// the events recorded since the last drain.
#[derive(Default)]
pub(crate) struct Recording {
    pub(crate) labels: Interner,
    pub(crate) events: Vec<Recorded>,
}

/// The recording a sink shares with its tracers.
pub(crate) type SharedRecording = Arc<Mutex<Recording>>;

/// Central collection point for trace events. Create one per traced
/// run, hand out tracers, then [`TraceSink::drain`] after the work.
#[derive(Default)]
pub struct TraceSink {
    recording: SharedRecording,
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
        Tracer { core: Some(Arc::new(Core::new(Arc::clone(&self.recording), domain))) }
    }

    /// Take everything recorded so far, in a deterministic order (time,
    /// then track, then name, then id; ties keep the order they were
    /// recorded in). Events with equal track or name text share one
    /// [`Label`] handle.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let (labels, recorded) = {
            let mut recording = lock(&self.recording);
            (recording.labels.labels().to_vec(), std::mem::take(&mut recording.events))
        };
        // Distinct labels have distinct text, so comparing their ranks
        // compares their text; the record index ends the key, so the
        // unstable sort keeps ties in record order.
        let rank = ranks(&labels);
        let mut keys: Vec<(u64, u32, u32, SpanId, usize)> = recorded
            .iter()
            .enumerate()
            .map(|(i, e)| (e.kind.start_ns(), rank[e.track as usize], rank[e.name as usize], e.id, i))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(.., i)| recorded[i].event(&labels)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn a_label_is_interned_once_per_sink() {
        let sink = TraceSink::new();
        let tracer = sink.tracer(ClockDomain::Virtual);
        for i in 0..100u64 {
            tracer.span_at("test", format!("node{}", i % 2), "op", i, i + 1);
        }
        let events = sink.drain();
        tracer.span_at("test", "node0", "op", 0, 1);
        let later = sink.drain();
        let node0 = events.iter().find(|e| e.track == "node0").unwrap();
        let same = |a: &Label, b: &Label| std::ptr::eq(a.as_str(), b.as_str());
        assert!(events.iter().filter(|e| e.track == "node0").all(|e| same(&e.track, &node0.track)));
        assert!(same(&later[0].track, &node0.track));
        assert!(same(&later[0].name, &node0.name));
        assert_eq!(lock(&sink.recording).labels.labels().len(), 3);
    }

    /// Labels that share prefixes, differ only past a non-ASCII byte,
    /// or are empty, so text order and byte order are both exercised.
    const LABELS: &[&str] =
        &["sim/net/node1", "sim/net/node10", "sim/net/node2", "sim/net", "", "é", "e\u{301}", "ü/trace", "🚀", "Z"];

    /// One recording call: ((thread, tracer, kind), (track, name, ts, len)).
    type Op = ((usize, usize, u8), (usize, usize, u64, u64));

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = ((0..3usize, 0..2usize, 0..3u8), (0..LABELS.len(), 0..LABELS.len(), 0..4u64, 0..3u64));
        proptest::collection::vec(op, 0..200)
    }

    proptest! {
        #[test]
        fn drain_order_is_the_stable_text_sort_of_the_recorded_order(ops in ops()) {
            let sink = TraceSink::new();
            let tracers = [sink.tracer(ClockDomain::Virtual), sink.tracer(ClockDomain::Virtual)];
            std::thread::scope(|scope| {
                for thread in 0..3 {
                    let (ops, tracers) = (&ops, &tracers);
                    scope.spawn(move || {
                        for &((_, tracer, kind), (track, name, ts, len)) in ops.iter().filter(|op| op.0 .0 == thread) {
                            let (t, track, name) = (&tracers[tracer], LABELS[track], LABELS[name]);
                            match kind {
                                0 => {
                                    t.span_at("sim", track, name, ts, ts + len);
                                }
                                // Equal keys: only the category or the
                                // sample tells these apart.
                                1 => t.instant_at(["sim", "rpc", "mpi"][len as usize], track, name, ts),
                                _ => t.counter_at(track, name, len as f64, ts),
                            }
                        }
                    });
                }
            });
            let mut expect: Vec<TraceEvent> = {
                let recording = lock(&sink.recording);
                let labels = recording.labels.labels();
                recording.events.iter().map(|e| e.event(labels)).collect()
            };
            expect.sort_by(|a, b| {
                a.start_ns()
                    .cmp(&b.start_ns())
                    .then_with(|| a.track.as_str().cmp(b.track.as_str()))
                    .then_with(|| a.name.as_str().cmp(b.name.as_str()))
                    .then_with(|| a.id.cmp(&b.id))
            });
            prop_assert_eq!(sink.drain(), expect);
        }
    }
}
