//! # popper-trace
//!
//! Low-overhead structured tracing for the whole Popper stack: spans
//! (durations with parent/child nesting), instant events and counters,
//! collected into a central [`TraceSink`] and exported as a Chrome
//! `trace_event` JSON file, an SVG timeline, or an ASCII summary table.
//!
//! Two clock domains cover the two kinds of work in this repository:
//!
//! * [`ClockDomain::Wall`] — real threads doing real work (CI job
//!   pools, orchestra host fan-out, container builds). Spans are timed
//!   with a monotonic clock via RAII guards ([`Tracer::span`]).
//! * [`ClockDomain::Virtual`] — everything inside popper-sim. The
//!   caller supplies timestamps from the simulation clock
//!   ([`Tracer::span_at`]), so a traced simulation is bit-identical
//!   across runs with the same seed — traces are Popper artifacts and
//!   must be reproducible like any other result.
//!
//! Recording goes through per-thread buffers flushed in batches over a
//! channel, so producer threads never share a lock. A disabled tracer
//! ([`Tracer::disabled`]) reduces every recording call to one branch;
//! the `ablate_trace_overhead` benchmark in popper-bench keeps that
//! honest.
//!
//! Library code deep in the stack (the sim engine, GassyFS RPCs, MPI
//! collectives, the container runtime) records through the *ambient*
//! tracer ([`current`]/[`with_current`]) so instrumentation does not
//! change public signatures; thread-pool layers (popper-ci's
//! `run_pipeline`, popper-orchestra's `run_playbook`) take an explicit
//! tracer argument, re-enter `with_current` on each worker, and call
//! [`Tracer::flush`] at the end of each worker so its last events reach
//! the sink before the pool returns.

mod chrome;
pub mod diff;
pub mod event;
pub mod export;
pub mod recorder;
pub mod sink;
pub mod svg;
pub mod tracer;

pub use diff::{diff_traces, DiffOptions, Divergence, DivergenceKind, TraceDiff};
pub use event::{EventKind, SpanId, TraceEvent};
pub use export::{chrome_trace_json, parse_chrome_trace, summary_table};
pub use sink::TraceSink;
pub use recorder::TraceRecorder;
pub use svg::{timeline_svg, timeline_svg_filtered};
pub use tracer::{current, with_current, ClockDomain, SpanGuard, Tracer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.domain(), None);
        {
            let _g = t.span("test", "track", "noop");
            t.instant("test", "track", "point");
            t.counter("track", "gauge", 1.0);
            assert!(t.span_at("test", "track", "virt", 0, 10).is_none());
        }
        t.flush();
    }

    #[test]
    fn wall_spans_nest_and_time() {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Wall);
        {
            let outer = t.span("test", "main", "outer");
            assert!(!outer.id().is_none());
            {
                let _inner = t.span("test", "main", "inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        t.flush();
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.parent.is_none());
        assert!(inner.duration_ns() >= 1_000_000, "slept 2ms, got {}", inner.duration_ns());
        assert!(outer.duration_ns() >= inner.duration_ns());
        assert!(outer.start_ns() <= inner.start_ns());
    }

    #[test]
    fn virtual_spans_use_explicit_time() {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        let a = t.span_at("sim", "res", "first", 100, 200);
        t.span_at_child(a, "sim", "res", "second", 120, 180);
        t.instant_at("sim", "res", "tick", 150);
        t.counter_at("res", "depth", 3.0, 160);
        t.flush();
        let events = sink.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, "first");
        assert_eq!(events[0].kind, EventKind::Span { start_ns: 100, end_ns: 200 });
        let second = events.iter().find(|e| e.name == "second").unwrap();
        assert_eq!(second.parent, a);
        assert!(matches!(events[2].kind, EventKind::Instant { ts_ns: 150 }));
        assert!(matches!(events[3].kind, EventKind::Counter { ts_ns: 160, .. }));
    }

    #[test]
    fn threads_flush_on_exit_and_drain_is_deterministic() {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..100u64 {
                    t.span_at("test", format!("worker-{i}"), format!("op{j}"), j * 10, j * 10 + 5);
                }
                // No explicit flush: the TLS destructor must deliver.
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = sink.drain();
        assert_eq!(events.len(), 400);
        // Deterministic order regardless of delivery interleaving.
        let mut expect = events.clone();
        expect.sort_by(|a, b| {
            a.start_ns()
                .cmp(&b.start_ns())
                .then_with(|| a.track.cmp(&b.track))
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.id.cmp(&b.id))
        });
        assert_eq!(events, expect);
    }

    /// A thread-local whose destructor holds its thread's exit until
    /// the test opens the gate: thread-local destructors run in reverse
    /// order of first use, so a thread that records first and touches
    /// this second runs its trace buffer's destructor only afterwards.
    mod late_exit {
        use std::cell::RefCell;
        use std::sync::{Arc, Condvar, Mutex};
        use std::time::Duration;

        pub type Gate = Arc<(Mutex<bool>, Condvar)>;

        struct Hold(Gate);

        impl Drop for Hold {
            fn drop(&mut self) {
                let (open, cv) = &*self.0;
                let open = open.lock().unwrap();
                let _ = cv.wait_timeout_while(open, Duration::from_secs(10), |open| !*open);
            }
        }

        thread_local! {
            static HOLD: RefCell<Option<Hold>> = const { RefCell::new(None) };
        }

        /// Make this thread's exit wait for `gate`.
        pub fn arm(gate: &Gate) {
            HOLD.with(|h| {
                h.borrow_mut().get_or_insert_with(|| Hold(Arc::clone(gate)));
            });
        }

        pub fn open(gate: &Gate) {
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
        }
    }

    #[test]
    fn a_worker_that_flushes_delivers_before_a_scoped_pool_returns() {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Wall);
        let gate = late_exit::Gate::default();
        std::thread::scope(|scope| {
            for w in 0..3 {
                let (t, gate) = (t.clone(), &gate);
                scope.spawn(move || {
                    let job = t.span("test", format!("worker-{w}"), "job");
                    t.instant("test", format!("worker-{w}"), "last");
                    late_exit::arm(gate);
                    drop(job);
                    t.flush();
                });
            }
        });
        // The workers are still inside their thread-local destructors.
        let events = sink.drain();
        late_exit::open(&gate);
        assert_eq!(events.len(), 6, "every worker's span and instant arrive: {events:?}");
    }

    #[test]
    fn ambient_tracer_scoping() {
        assert!(!current().is_enabled());
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        with_current(t.clone(), || {
            assert!(current().is_enabled());
            current().span_at("test", "amb", "inside", 0, 1);
            with_current(Tracer::disabled(), || {
                assert!(!current().is_enabled());
            });
            assert!(current().is_enabled());
        });
        assert!(!current().is_enabled());
        t.flush();
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_shape() {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        let p = t.span_at("sim", "serial", "admit", 1_000, 5_000);
        t.span_at_child(p, "sim", "serial", "service", 2_000, 4_000);
        t.instant_at("sim", "engine", "dispatch", 1_500);
        t.counter_at("engine", "pending", 7.0, 1_600);
        t.flush();
        let events = sink.drain();
        let json = chrome_trace_json(&events);
        let doc = popper_format::json::parse(&json).expect("exporter must emit valid JSON");
        let Value::Map(top) = &doc else { panic!("top level must be an object") };
        let te = top.iter().find(|(k, _)| k == "traceEvents").expect("traceEvents");
        let Value::List(items) = &te.1 else { panic!("traceEvents must be a list") };
        // 1 process_name + 2 thread_name + 4 events.
        assert_eq!(items.len(), 7);
        let phases: Vec<&str> = items
            .iter()
            .filter_map(|v| match v {
                Value::Map(m) => m.iter().find(|(k, _)| k == "ph").and_then(|(_, v)| match v {
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                }),
                _ => None,
            })
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert!(phases.contains(&"i") && phases.contains(&"C"));
        // ts is microseconds: the admit span starts at 1µs.
        assert!(json.contains("\"ts\": 1") || json.contains("\"ts\":1"));

        use popper_format::Value;
        let svg = timeline_svg(&events);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("<rect"));
        assert!(svg.contains("serial"));

        let table = summary_table(&events);
        assert!(table.contains("admit"));
        assert!(table.contains("1 instants, 1 counter samples"));
    }

    #[test]
    fn filtered_timeline_keeps_only_matching_tracks() {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        t.span_at("farm", "tenant-a/jobs", "job 1", 0, 1_000);
        t.span_at("farm", "tenant-b/jobs", "job 2", 500, 2_000);
        t.flush();
        let events = sink.drain();
        let svg = timeline_svg_filtered(&events, "tenant-a");
        assert!(svg.contains("tenant-a/jobs"));
        assert!(!svg.contains("tenant-b"));
        // An unmatched prefix still renders a valid (empty) document.
        let empty = timeline_svg_filtered(&events, "tenant-z");
        assert!(empty.starts_with("<svg"));
    }

    #[test]
    fn export_is_byte_stable() {
        let record = || {
            let sink = TraceSink::new();
            let t = sink.tracer(ClockDomain::Virtual);
            for i in 0..50u64 {
                let s = t.span_at("sim", "a", format!("op{i}"), i * 100, i * 100 + 40);
                t.span_at_child(s, "sim", "b", "sub", i * 100 + 10, i * 100 + 20);
            }
            t.flush();
            chrome_trace_json(&sink.drain())
        };
        assert_eq!(record(), record());
    }
}
