//! Byte pins for the trace and figure writers and for the seeded
//! streams.
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
//!
//! Every seeded stream (gremlin fault schedules, MPI noise phases,
//! reanalysis noise) is pinned by the bytes it ends up in, so a change
//! to the generator underneath shows here rather than as a quiet shift
//! in a figure.

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
        name: name.into(),
        category,
        track: track.into(),
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

/// `FaultSchedule::gremlin` draws every event from its seed.
#[test]
fn gremlin_schedule_json_bytes_are_pinned() {
    let pins = [
        (3, 0, "910e32827d844e7acc23d40e400a1dd6cb3d8cd7ae035815bd9ef2005040ce39"),
        (4, 7, "1a9001acfd670584fe6d4bb2b658a175d175289f23d3216eb63c2adf017e5565"),
        (5, 42, "c369ec303c9be41c3e327f6e1b3f13ea1c8f51f4b55d365ce2afb96810ea1981"),
        (8, 0xdead_beef, "cce5112d8310ac267a194e5c0ca02d3763ce4976a728a5dcd5ecef825cdd0cfe"),
    ];
    for (nodes, seed, want) in pins {
        let json = popper::chaos::FaultSchedule::gremlin(nodes, seed).to_json();
        assert_eq!(digest(&json), want, "gremlin({nodes}, {seed}):\n{json}");
    }
}

/// `popper run` on the two templates whose runners draw seeded noise:
/// `mpi-comm-variability` (OS-noise phases and neighbour shares) and
/// `jupyter-bww` (reanalysis noise).
#[test]
fn seeded_template_results_csv_bytes_are_pinned() {
    let pins = [
        ("mpi-comm-variability", "0d51ebdb05ab4113840dad7ebcbbb5943a31709d7a39ea20cdd57a359a127668"),
        ("jupyter-bww", "65b448a8bf3ea567931ac0132edd80ea7a8e30435710b3a9f893444be4b305b1"),
    ];
    for (template, want) in pins {
        let dir = std::env::temp_dir().join(format!("popper-pins-{template}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        popper::cli::run(&["init"], &dir).unwrap();
        popper::cli::run(&["add", template, "e"], &dir).unwrap();
        popper::cli::run(&["run", "e"], &dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("experiments/e/results.csv")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(digest(&csv), want, "{template} results.csv:\n{csv}");
    }
}
