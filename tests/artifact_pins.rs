//! Byte pins for the trace and figure writers.
//!
//! `trace.json`, `trace.svg` and `figure.svg` are committed Popper
//! artifacts, so the bytes each writer emits for a given input are part
//! of the contract. `figures_regenerate_identically` only compares two
//! runs of one build; these digests compare every build against the
//! same fixed inputs. The recording is built by hand so that it covers
//! the writers' edge cases: nested and skewed spans, instants, counters
//! with fractional, negative and non-finite samples, timestamps and
//! span ids at and past 10^15, and names that need JSON and SVG
//! escaping.

use popper::format::Table;
use popper::trace::{chrome_trace_json, timeline_svg, EventKind, SpanId, TraceEvent};
use popper::viz::{render_from_spec, FigureSpec};

fn digest(s: &str) -> String {
    popper::vcs::sha256::to_hex(&popper::vcs::sha256::digest(s.as_bytes()))
}

fn event(
    name: &str,
    category: &'static str,
    track: &str,
    kind: EventKind,
    id: u64,
    parent: u64,
) -> TraceEvent {
    TraceEvent {
        name: name.to_string(),
        category,
        track: track.to_string(),
        kind,
        id: SpanId(id),
        parent: SpanId(parent),
    }
}

fn span(start_ns: u64, end_ns: u64) -> EventKind {
    EventKind::Span { start_ns, end_ns }
}

/// The fixed recording every pin is built from.
fn recording() -> Vec<TraceEvent> {
    const NAMES: &[&str] = &[
        "admit",
        "quote\"d",
        "back\\slash",
        "tab\tnew\nline\r\u{1}\u{8}\u{c}\u{1f}\u{7f}",
        "ünïcødé → ✓ 🚀",
        "a&b<c>d\"e",
    ];
    const TRACKS: &[&str] = &["sim/serial", "json/\"q\"\\t", "svg/<&\">", "mpi/rank-0"];
    const CATS: &[&str] = &["sim", "r&d", "mpi", "cat\"<q>"];
    let mut events = Vec::new();
    let mut id = 1u64;
    // Geometrically spaced spans from 1 ns up to about 10^15 ns, each
    // with a child and a grandchild, so timestamps take every digit
    // count the integer path handles.
    let mut ts = 1u64;
    for i in 0..112usize {
        let len = ts / 3 + (i as u64 % 7) * 131 + 1;
        let track = TRACKS[i % TRACKS.len()];
        let cat = CATS[i % CATS.len()];
        let name = NAMES[i % NAMES.len()];
        let parent = id;
        events.push(event(name, cat, track, span(ts, ts + len), parent, 0));
        events.push(event("child", cat, track, span(ts + len / 4, ts + len / 2), parent + 1, parent));
        events.push(event("leaf", cat, track, span(ts + len / 4 + 1, ts + len / 3), parent + 2, parent + 1));
        id += 3;
        if i % 5 == 0 {
            let kind = EventKind::Instant { ts_ns: ts + 999 };
            events.push(event(name, "chaos", "chaos/faults", kind, 0, 0));
        }
        ts = ts * 137 / 100 + 1 + i as u64;
    }
    // Counters: integral, fractional, negative, signed zero, huge and
    // non-finite samples.
    let samples =
        [7.0, 0.25, -3.75, 1.0 / 3.0, -0.0, 1e15, 1.5e300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for (k, value) in samples.into_iter().enumerate() {
        let name = if k % 2 == 0 { "depth" } else { "q\"ueue\\len" };
        let kind = EventKind::Counter { ts_ns: 1_000 * k as u64 + 1, value };
        events.push(event(name, "counter", "counters", kind, 0, 0));
    }
    // A skewed span (end before start, as imported wall clocks can be).
    events.push(event("skewed", "sim", "sim/serial", span(5_000, 4_000), id, 0));
    // Timestamps and ids at the edge of the exact integer path.
    let edges = [999, 1_000, 999_999_999_999_999, 1_000_000_000_000_000, 1_000_000_000_000_001];
    for (k, ns) in edges.into_iter().enumerate() {
        let id = 999_999_999_999_999 + k as u64;
        events.push(event("edge", "sim", "edges", span(ns, ns + 1_001), id, 0));
    }
    events.push(event("two^53", "sim", "edges", EventKind::Instant { ts_ns: 1 << 53 }, 0, 0));
    let kind = EventKind::Counter { ts_ns: (1 << 53) + 1, value: 2.5 };
    events.push(event("two^53+1", "sim", "edges", kind, 0, 0));
    events.push(event("max-id", "sim", "edges", span(12_345, 67_890), u64::MAX, u64::MAX - 1));
    events
}

const CHROME_JSON: &str = "c2d1cb1bbf7a6caf0762a2017372fedbf9f6fd05b9187c5641592d8f37f71ede";
const TIMELINE_SVG: &str = "059e76403957fdda9fd2dfdf8f68e58a89d7838f14904db56eddec39aa7dd109";
const CHART_SVG: &str = "09dbc14f3bd972fcfeee9cdbb51ff059a2bf1ffaf107219eae7fa33fa5a0191c";

#[test]
fn chrome_trace_json_bytes_are_pinned() {
    let json = chrome_trace_json(&recording());
    assert_eq!(digest(&json), CHROME_JSON);
}

#[test]
fn timeline_svg_bytes_are_pinned() {
    let svg = timeline_svg(&recording());
    assert_eq!(digest(&svg), TIMELINE_SVG);
}

#[test]
fn chart_svg_bytes_are_pinned() {
    let table = Table::from_csv(
        "machine,nodes,time\n\
         cloud<lab>,1,0.25\ncloud<lab>,2,0.75\ncloud<lab>,4,1.125\ncloud<lab>,8,2.0500001\n\
         \"e&c\"\"2\",1,1.2\n\"e&c\"\"2\",2,-0.35\n\"e&c\"\"2\",4,2.3\n\"e&c\"\"2\",8,1e-9\n",
    )
    .unwrap();
    let spec = FigureSpec {
        kind: "line".to_string(),
        title: "Pinned <scalability> & \"speedup\"".to_string(),
        x: "nodes".to_string(),
        y: Some("time".to_string()),
        group_by: Some("machine".to_string()),
        bin_width: 0.1,
    };
    let (svg, _) = render_from_spec(&spec, &table).unwrap();
    assert_eq!(digest(&svg), CHART_SVG);
}
