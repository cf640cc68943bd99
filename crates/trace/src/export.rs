//! Exporters: Chrome `trace_event` JSON and an ASCII summary table —
//! plus the inverse importer ([`parse_chrome_trace`]) that trace-diff
//! uses to reload committed `trace.json` artifacts.

use crate::event::{EventKind, SpanId, TraceEvent};
use crate::stream::ChromeStream;
use popper_format::FormatError;
use std::collections::BTreeMap;

/// The Chrome `trace_event` document (the object form, with a
/// `traceEvents` array) as a JSON string: one [`ChromeStream`] batch, so
/// tracks get tids in sorted order. Load it in `chrome://tracing` or
/// Perfetto. Stable output: same events ⇒ same bytes.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut stream = ChromeStream::new(Vec::with_capacity(64 + events.len() * 160))
        .expect("Vec sink cannot fail");
    stream.write_batch(events).expect("Vec sink cannot fail");
    let bytes = stream.finish().expect("Vec sink cannot fail");
    String::from_utf8(bytes).expect("encoder emits UTF-8")
}

/// Intern a category string. [`TraceEvent::category`] is `&'static str`
/// (recording never allocates for it), so the importer maps categories
/// back onto a known list and leaks each distinct unknown category once
/// (bounded by the number of distinct categories ever imported).
fn intern_category(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "sim", "ci", "rpc", "mpi", "container", "lifecycle", "core", "vcs", "store", "chaos",
        "counter", "orchestra", "test", "bench",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == s) {
        return k;
    }
    use std::sync::{Mutex, OnceLock};
    static EXTRA: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut extra = EXTRA.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    if let Some(k) = extra.iter().find(|k| **k == s) {
        return k;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    extra.push(leaked);
    leaked
}

/// Nanoseconds from a Chrome-JSON microsecond field.
fn ns_of(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

fn imp_err(msg: impl Into<String>) -> FormatError {
    FormatError::new("trace", msg)
}

/// Parse a Chrome `trace_event` JSON document (as produced by
/// [`chrome_trace_json`]) back into a stream of [`TraceEvent`]s, in the
/// order they appear in the file. The inverse of the exporter:
/// `parse_chrome_trace(&chrome_trace_json(&events))` reproduces
/// `events` for any drained trace, which the round-trip test pins.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<TraceEvent>, FormatError> {
    let doc = popper_format::json::parse(json)?;
    let items = doc
        .get_list("traceEvents")
        .ok_or_else(|| imp_err("missing traceEvents array"))?;

    // First pass: recover tid → track from thread_name metadata.
    let mut track_of: BTreeMap<u64, String> = BTreeMap::new();
    for item in items {
        if item.get_str("ph") == Some("M") && item.get_str("name") == Some("thread_name") {
            let tid = item
                .get_num("tid")
                .ok_or_else(|| imp_err("thread_name metadata without tid"))? as u64;
            let name = item
                .get("args")
                .and_then(|a| a.get_str("name"))
                .ok_or_else(|| imp_err("thread_name metadata without args.name"))?;
            track_of.insert(tid, name.to_string());
        }
    }

    let mut events = Vec::new();
    for item in items {
        let ph = item.get_str("ph").ok_or_else(|| imp_err("event without ph"))?;
        if ph == "M" {
            continue;
        }
        let tid = item.get_num("tid").ok_or_else(|| imp_err("event without tid"))? as u64;
        let track = track_of
            .get(&tid)
            .ok_or_else(|| imp_err(format!("tid {tid} has no thread_name metadata")))?
            .clone();
        let name = item
            .get_str("name")
            .ok_or_else(|| imp_err("event without name"))?
            .to_string();
        let category = intern_category(item.get_str("cat").unwrap_or(""));
        let ts = item.get_num("ts").ok_or_else(|| imp_err("event without ts"))?;
        let (kind, id, parent) = match ph {
            "X" => {
                let dur = item.get_num("dur").ok_or_else(|| imp_err("span without dur"))?;
                let start_ns = ns_of(ts);
                let id = item
                    .get("args")
                    .and_then(|a| a.get_num("id"))
                    .map(|n| SpanId(n as u64))
                    .unwrap_or(SpanId::NONE);
                let parent = item
                    .get("args")
                    .and_then(|a| a.get_num("parent"))
                    .map(|n| SpanId(n as u64))
                    .unwrap_or(SpanId::NONE);
                (EventKind::Span { start_ns, end_ns: start_ns + ns_of(dur) }, id, parent)
            }
            "i" | "I" => (EventKind::Instant { ts_ns: ns_of(ts) }, SpanId::NONE, SpanId::NONE),
            "C" => {
                let value = item
                    .get("args")
                    .and_then(|a| a.get_num(&name))
                    .ok_or_else(|| imp_err(format!("counter {name} without args sample")))?;
                (EventKind::Counter { ts_ns: ns_of(ts), value }, SpanId::NONE, SpanId::NONE)
            }
            other => return Err(imp_err(format!("unsupported event phase {other:?}"))),
        };
        events.push(TraceEvent { name, category, track, kind, id, parent });
    }
    Ok(events)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A fixed-width per-(track, span-name) summary: call count, total,
/// mean and max duration. The `popper trace` command prints this.
pub fn summary_table(events: &[TraceEvent]) -> String {
    #[derive(Default)]
    struct Agg {
        count: u64,
        total: u64,
        max: u64,
    }
    let mut rows: BTreeMap<(&str, &str), Agg> = BTreeMap::new();
    let mut instants = 0u64;
    let mut counters = 0u64;
    for e in events {
        match e.kind {
            EventKind::Span { .. } => {
                let a = rows.entry((e.track.as_str(), e.name.as_str())).or_default();
                a.count += 1;
                a.total += e.duration_ns();
                a.max = a.max.max(e.duration_ns());
            }
            EventKind::Instant { .. } => instants += 1,
            EventKind::Counter { .. } => counters += 1,
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:<24} {:>7} {:>10} {:>10} {:>10}\n",
        "track", "span", "count", "total", "mean", "max"
    ));
    for ((track, name), a) in &rows {
        out.push_str(&format!(
            "{:<28} {:<24} {:>7} {:>10} {:>10} {:>10}\n",
            track,
            name,
            a.count,
            fmt_ns(a.total),
            fmt_ns(a.total / a.count.max(1)),
            fmt_ns(a.max),
        ));
    }
    out.push_str(&format!(
        "({} span kinds, {instants} instants, {counters} counter samples)\n",
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use crate::tracer::ClockDomain;

    /// Regression: a skewed span (end < start, as wall clocks can
    /// produce across cores) used to panic the exporter in debug builds
    /// via `end_ns - start_ns`. It must export with dur 0 instead, and
    /// the SVG timeline must not overflow on it either.
    #[test]
    fn skewed_span_exports_without_panicking() {
        let skewed = TraceEvent {
            name: "skewed".to_string(),
            category: "test",
            track: "wall".to_string(),
            kind: EventKind::Span { start_ns: 2_000, end_ns: 1_000 },
            id: crate::SpanId(1),
            parent: crate::SpanId::NONE,
        };
        // The timeline draws it as the narrowest bar.
        let svg = crate::timeline_svg(std::slice::from_ref(&skewed));
        assert!(svg.contains(r#"width="0.8""#), "{svg}");
        let json = chrome_trace_json(&[skewed]);
        assert!(json.contains("\"dur\":0") || json.contains("\"dur\": 0"));
        let back = parse_chrome_trace(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].duration_ns(), 0);
    }

    #[test]
    fn chrome_json_round_trips_through_importer() {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        let p = t.span_at("sim", "serial", "admit", 1_000, 5_000);
        t.span_at_child(p, "sim", "serial", "service", 2_000, 4_000);
        t.instant_at("chaos", "chaos/faults", "crash", 1_500);
        t.counter_at("engine", "pending", 7.0, 1_600);
        t.flush();
        let events = sink.drain();
        let back = parse_chrome_trace(&chrome_trace_json(&events)).unwrap();
        assert_eq!(back, events);
        // And re-exporting the imported stream is byte-identical.
        assert_eq!(chrome_trace_json(&back), chrome_trace_json(&events));
    }

    #[test]
    fn importer_rejects_malformed_documents() {
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace("not json").is_err());
        // An event referencing a tid with no thread_name metadata.
        let doc = r#"{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":9,"ts":1,"s":"t"}]}"#;
        assert!(parse_chrome_trace(doc).is_err());
    }

    #[test]
    fn importer_interns_categories() {
        let a = intern_category("sim");
        assert_eq!(a, "sim");
        let b = intern_category("custom-cat");
        let c = intern_category("custom-cat");
        assert_eq!(b, "custom-cat");
        assert!(std::ptr::eq(b.as_ptr(), c.as_ptr()));
    }
}
