//! The Chrome `trace_event` writer.
//!
//! Every byte of `trace.json` comes from here: [`chrome_trace_json`]
//! appends the whole document into one `String`. The output is the
//! compact form of `popper_format::json::to_string` over the equivalent
//! `Value` tree, byte for byte: keys in the same order, and strings and
//! numbers appended by the JSON writer's own `write_string`/`write_num`.
//! Timestamps and ids take an exact integer path; only values too large
//! for it go through `write_num`. An event's head (its escaped name and
//! category and its track's tid) is written once per distinct (track,
//! name, category) text and copied for every event that shares it.

use crate::event::{EventKind, TraceEvent};
use crate::label::FxMap;
use popper_format::json::{write_num, write_string};

/// Below this, an integer `n` (an id, or a timestamp in ns whose
/// microsecond value has at most 12 integer and 3 fraction digits) has
/// at most 15 significant digits, so the `f64` the tree would hold
/// prints as exactly those digits.
const EXACT: u64 = 1_000_000_000_000_000;

/// Append `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Append `ns` as microseconds: the text `write_num(ns as f64 / 1000.0)`
/// produces.
fn push_us(out: &mut String, ns: u64) {
    if ns >= EXACT {
        write_num(out, ns as f64 / 1000.0);
        return;
    }
    push_u64(out, ns / 1000);
    let frac = ns % 1000;
    if frac != 0 {
        // Three fraction digits with trailing zeros dropped.
        let digit = |d: u64| b'0' + (d % 10) as u8;
        let digits = [b'.', digit(frac / 100), digit(frac / 10), digit(frac)];
        let len = if frac.is_multiple_of(100) {
            2
        } else if frac.is_multiple_of(10) {
            3
        } else {
            4
        };
        out.push_str(std::str::from_utf8(&digits[..len]).expect("ASCII digits"));
    }
}

/// Append an id or tid: the text `write_num(n as f64)` produces.
fn push_id(out: &mut String, n: u64) {
    if n < EXACT {
        push_u64(out, n);
    } else {
        write_num(out, n as f64);
    }
}

/// The Chrome `trace_event` document (the object form, with a
/// `traceEvents` array) as a JSON string: the process metadata, one
/// `thread_name` per track with tids 1..n in sorted track order, then
/// the events in the order given. Load it in `chrome://tracing` or
/// Perfetto. Stable output: same events ⇒ same bytes.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut tid_of: FxMap<&str, u64> = events.iter().map(|e| (e.track.as_str(), 0)).collect();
    let mut tracks: Vec<&str> = tid_of.keys().copied().collect();
    tracks.sort_unstable();
    for (tid, track) in (1..).zip(&tracks) {
        tid_of.insert(track, tid);
    }
    let mut heads: FxMap<(&str, &str, &str), String> = FxMap::default();
    let mut out = String::with_capacity(64 + events.len() * 160);
    out.push_str("{\"traceEvents\":[");
    push_meta(&mut out, "process_name", None, "popper");
    for (tid, track) in (1..).zip(&tracks) {
        out.push(',');
        push_meta(&mut out, "thread_name", Some(tid), track);
    }
    for e in events {
        let head = heads.entry((e.track.as_str(), e.name.as_str(), e.category)).or_insert_with(|| {
            let mut head = String::new();
            push_head(&mut head, e, tid_of[e.track.as_str()]);
            head
        });
        out.push(',');
        out.push_str(head);
        push_tail(&mut out, e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// A `ph: "M"` metadata element (`process_name` / `thread_name`).
fn push_meta(out: &mut String, name: &str, tid: Option<u64>, value: &str) {
    out.push_str("{\"name\":");
    write_string(out, name);
    out.push_str(",\"ph\":\"M\",\"pid\":1");
    if let Some(tid) = tid {
        out.push_str(",\"tid\":");
        push_id(out, tid);
    }
    out.push_str(",\"args\":{\"name\":");
    write_string(out, value);
    out.push_str("}}");
}

/// The start of the trace-event array element for `e` on thread `tid`,
/// up to its phase.
fn push_head(out: &mut String, e: &TraceEvent, tid: u64) {
    out.push_str("{\"name\":");
    write_string(out, &e.name);
    out.push_str(",\"cat\":");
    write_string(out, e.category);
    out.push_str(",\"pid\":1,\"tid\":");
    push_id(out, tid);
}

/// The rest of the trace-event array element for `e` after its head.
fn push_tail(out: &mut String, e: &TraceEvent) {
    match e.kind {
        EventKind::Span { start_ns, .. } => {
            out.push_str(",\"ph\":\"X\",\"ts\":");
            push_us(out, start_ns);
            // duration_ns() saturates: a skewed span (end < start,
            // possible in hand-built or imported traces) must not
            // panic the exporter.
            out.push_str(",\"dur\":");
            push_us(out, e.duration_ns());
            out.push_str(",\"args\":{\"id\":");
            push_id(out, e.id.0);
            if !e.parent.is_none() {
                out.push_str(",\"parent\":");
                push_id(out, e.parent.0);
            }
            out.push('}');
        }
        EventKind::Instant { ts_ns } => {
            out.push_str(",\"ph\":\"i\",\"ts\":");
            push_us(out, ts_ns);
            out.push_str(",\"s\":\"t\"");
        }
        EventKind::Counter { ts_ns, value } => {
            out.push_str(",\"ph\":\"C\",\"ts\":");
            push_us(out, ts_ns);
            out.push_str(",\"args\":{");
            write_string(out, &e.name);
            out.push(':');
            write_num(out, value);
            out.push('}');
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;
    use crate::export::parse_chrome_trace;
    use crate::label::Label;
    use popper_format::{json, Value};
    use proptest::prelude::*;

    fn with(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    /// What a `Value::Num(n)` tree node serializes to.
    fn tree_num(n: f64) -> String {
        json::to_string(&Value::Num(n))
    }

    /// splitmix64: many well-spread values from one generated seed.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn integer_paths_match_the_json_writer_at_the_edges() {
        let edges = [
            0,
            1,
            10,
            999,
            1_000,
            1_001,
            1_010,
            1_100,
            999_999,
            EXACT - 1,
            EXACT,
            EXACT + 1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for ns in edges {
            assert_eq!(with(|o| push_us(o, ns)), tree_num(ns as f64 / 1000.0), "ts {ns}");
            assert_eq!(with(|o| push_id(o, ns)), tree_num(ns as f64), "id {ns}");
        }
    }

    /// A character drawn to stress escaping: controls, quotes and
    /// backslashes, printable ASCII, and non-ASCII up to four bytes.
    fn pick_char(x: u32) -> char {
        const SPECIAL: &[char] = &['"', '\\', '\u{7f}', '/', '\u{2028}', 'é', '→', '🚀'];
        match x % 4 {
            0 => char::from_u32((x >> 2) % 0x20).expect("control"),
            1 => SPECIAL[(x >> 2) as usize % SPECIAL.len()],
            2 => char::from_u32(0x20 + (x >> 2) % 0x5f).expect("printable"),
            _ => char::from_u32((x >> 2) % 0x11_0000).unwrap_or('\u{fffd}'),
        }
    }

    fn names() -> BoxedStrategy<String> {
        proptest::collection::vec(any::<u32>(), 0..12)
            .prop_map(|cs| cs.into_iter().map(pick_char).collect())
    }

    /// Drained-style recordings: finite samples and spans whose end is
    /// not before their start, so the importer can reproduce them.
    fn recordings() -> BoxedStrategy<Vec<TraceEvent>> {
        let event = ((0u8..3, names(), names()), (0u64..1 << 40, 0u64..1 << 30, any::<u64>()));
        proptest::collection::vec(event, 0..24).prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, ((kind, name, track), (ts, dur, bits)))| {
                    let (kind, id, parent) = match kind {
                        0 => {
                            // Ids below 2^53 survive the importer's f64.
                            let parent = if i % 2 == 0 { SpanId::NONE } else { SpanId(bits >> 11) };
                            let span = EventKind::Span { start_ns: ts, end_ns: ts + dur };
                            (span, SpanId(i as u64 + 1), parent)
                        }
                        1 => (EventKind::Instant { ts_ns: ts }, SpanId::NONE, SpanId::NONE),
                        _ => {
                            let value =
                                (bits as i64 >> (bits % 64)) as f64 / (1 << (bits % 13)) as f64;
                            (EventKind::Counter { ts_ns: ts, value }, SpanId::NONE, SpanId::NONE)
                        }
                    };
                    TraceEvent { name: name.into(), category: "sim", track: track.into(), kind, id, parent }
                })
                .collect()
        })
    }

    #[test]
    fn equal_track_text_in_distinct_handles_gets_one_tid_and_the_same_bytes() {
        let event = |track: Label, name: Label, ts_ns| TraceEvent {
            name,
            category: "sim",
            track,
            kind: EventKind::Instant { ts_ns },
            id: SpanId::NONE,
            parent: SpanId::NONE,
        };
        let (node, send, other) = (Label::from("sim/net/node1"), Label::from("send"), Label::from("a"));
        let shared: Vec<TraceEvent> = (0..4)
            .map(|ts| if ts == 2 { event(other.clone(), send.clone(), ts) } else { event(node.clone(), send.clone(), ts) })
            .collect();
        let distinct: Vec<TraceEvent> =
            (0..4).map(|ts| event(if ts == 2 { "a" } else { "sim/net/node1" }.into(), "send".into(), ts)).collect();
        assert!(!std::ptr::eq(distinct[0].track.as_str(), distinct[1].track.as_str()));
        let json = chrome_trace_json(&distinct);
        assert_eq!(json, chrome_trace_json(&shared));
        assert_eq!(json.matches("thread_name").count(), 2, "{json}");
        assert_eq!(json.matches(r#""tid":2,"ph":"i""#).count(), 3, "{json}");
    }

    #[test]
    fn an_empty_recording_is_a_valid_document() {
        let json = chrome_trace_json(&[]);
        assert_eq!(parse_chrome_trace(&json).unwrap(), Vec::new());
    }

    proptest! {
        #[test]
        fn integer_paths_match_the_json_writer_over_all_of_u64(seed in any::<u64>()) {
            let mut x = seed;
            for _ in 0..4096 {
                // Every magnitude: a random value shifted down 0..63 bits.
                let ns = mix(&mut x) >> (mix(&mut x) % 64);
                prop_assert_eq!(with(|o| push_us(o, ns)), tree_num(ns as f64 / 1000.0), "ts {}", ns);
                prop_assert_eq!(with(|o| push_id(o, ns)), tree_num(ns as f64), "id {}", ns);
            }
        }

        #[test]
        fn output_is_canonical_and_round_trips(events in recordings()) {
            let out = chrome_trace_json(&events);
            let doc = json::parse(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(json::to_string(&doc), out.clone());
            let back = parse_chrome_trace(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(back, events);
        }
    }
}
