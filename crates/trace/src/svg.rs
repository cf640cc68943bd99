//! SVG timeline rendering: one row per track, spans as colored bars
//! (nesting shown by inset), instants as markers, plus a time axis.
//!
//! The document is bounded by pixels, not by events. Spans are drawn in
//! lanes, a lane being a row, a nesting inset and a category colour.
//! Each lane keeps one open bar: a span whose pixel extent comes within
//! one pixel of the bar extends it, any other span closes the bar and
//! opens the next. Instants and counters draw at most one marker each
//! per row, colour and pixel column. A span still gets its label when
//! it is wider than the text, and deeper insets paint after shallower
//! ones, so nested spans stay visible.

use crate::event::{EventKind, SpanId, TraceEvent};
use crate::label::{FxMap, FxSet};
use popper_viz::svg::{ticks, SvgDoc};

const LEFT: f64 = 190.0;
const WIDTH: u32 = 1060;
const ROW: f64 = 26.0;
const TOP: f64 = 34.0;
const BAR: f64 = 15.0;

/// Nesting levels with an inset of their own (3 px each); deeper spans
/// share the deepest.
const LEVELS: usize = 4;

/// Spans closer than this, in pixels, merge into one bar.
const MERGE_PX: f64 = 1.0;

/// Flat-UI palette, assigned to categories in sorted order.
const PALETTE: &[&str] = &[
    "#4472c4", "#ed7d31", "#70ad47", "#ffc000", "#7030a0", "#c00000", "#2e9e9e", "#8a6d3b",
];

fn fmt_axis(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.0}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Where bars are drawn: a row, a nesting level and a palette colour.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Lane {
    level: usize,
    row: usize,
    color: usize,
}

/// Merged spans on one lane, in pixels, with the labels of the spans
/// wide enough to hold them.
struct Bar<'a> {
    lane: Lane,
    x0: f64,
    x1: f64,
    labels: Vec<(f64, &'a str)>,
}

/// The rows, colours, time scale and nesting of one recording.
struct Layout<'a> {
    /// Tracks in sorted order: a track's index is its row.
    tracks: Vec<&'a str>,
    rows: FxMap<&'a str, usize>,
    /// Categories in sorted order: index modulo the palette is colour.
    cats: Vec<&'static str>,
    t_max: u64,
    scale: f64,
    /// Parents recorded in the same batch.
    parent_of: FxMap<SpanId, SpanId>,
}

impl<'a> Layout<'a> {
    fn new(events: impl Iterator<Item = &'a TraceEvent>) -> Layout<'a> {
        let mut rows = FxMap::default();
        let mut cats = Vec::new();
        let mut t_max = 0;
        let mut parent_of = FxMap::default();
        for e in events {
            rows.entry(e.track.as_str()).or_insert(0);
            if !cats.contains(&e.category) {
                cats.push(e.category);
            }
            t_max = t_max.max(e.end_ns());
            if !e.id.is_none() {
                parent_of.insert(e.id, e.parent);
            }
        }
        let mut tracks: Vec<&str> = rows.keys().copied().collect();
        tracks.sort_unstable();
        for (row, track) in tracks.iter().enumerate() {
            rows.insert(track, row);
        }
        cats.sort_unstable();
        let t_max = t_max.max(1);
        let scale = (WIDTH as f64 - LEFT - 20.0) / t_max as f64;
        Layout { tracks, rows, cats, t_max, scale, parent_of }
    }

    fn x(&self, ns: u64) -> f64 {
        LEFT + ns as f64 * self.scale
    }

    fn row(&self, track: &str) -> usize {
        *self.rows.get(track).expect("every track has a row")
    }

    fn color(&self, category: &str) -> usize {
        self.cats.binary_search(&category).expect("every category has a colour") % PALETTE.len()
    }

    /// Nesting level of a span: how many of its parents, up to the
    /// deepest level, were recorded in the same batch.
    fn level(&self, mut id: SpanId) -> usize {
        let mut level = 0;
        while level < LEVELS - 1 {
            match self.parent_of.get(&id) {
                Some(&parent) if !parent.is_none() => {
                    level += 1;
                    id = parent;
                }
                _ => break,
            }
        }
        level
    }

    fn lane(&self, e: &TraceEvent) -> Lane {
        Lane { level: self.level(e.id), row: self.row(&e.track), color: self.color(e.category) }
    }

    /// A lane's place in paint order: by level, then row, then colour.
    fn slot(&self, lane: Lane) -> usize {
        (lane.level * self.tracks.len() + lane.row) * PALETTE.len() + lane.color
    }

    /// A span's left edge and width in pixels. `duration_ns` saturates:
    /// a skewed span draws as the narrowest bar rather than overflowing.
    fn span_px(&self, e: &TraceEvent) -> (f64, f64) {
        (self.x(e.start_ns()), (e.duration_ns() as f64 * self.scale).max(0.8))
    }

    /// The spans' bars in paint order: by level, then as they closed,
    /// the bars still open last.
    fn bars(&self, events: impl Iterator<Item = &'a TraceEvent>) -> Vec<Bar<'a>> {
        let mut open: Vec<Option<Bar<'a>>> = Vec::new();
        open.resize_with(LEVELS * self.tracks.len() * PALETTE.len(), || None);
        let mut bars = Vec::new();
        for e in events.filter(|e| matches!(e.kind, EventKind::Span { .. })) {
            let lane = self.lane(e);
            let (x0, w) = self.span_px(e);
            let x1 = x0 + w;
            let label = (w > e.name.len() as f64 * 6.5).then_some((x0, e.name.as_str()));
            let slot = &mut open[self.slot(lane)];
            let bar = match slot {
                Some(bar) if x0 <= bar.x1 + MERGE_PX && x1 >= bar.x0 - MERGE_PX => {
                    bar.x0 = bar.x0.min(x0);
                    bar.x1 = bar.x1.max(x1);
                    bar
                }
                _ => {
                    bars.extend(slot.replace(Bar { lane, x0, x1, labels: Vec::new() }));
                    slot.as_mut().expect("just opened")
                }
            };
            bar.labels.extend(label);
        }
        bars.extend(open.into_iter().flatten());
        bars.sort_by_key(|bar| bar.lane.level);
        bars
    }
}

/// Render the events as a timeline SVG document.
pub fn timeline_svg(events: &[TraceEvent]) -> String {
    render(events.iter())
}

/// Render only the events whose track starts with `track_prefix` — the
/// per-tenant or per-worker slice of a multiplexed recording (the CI
/// farm serves `/tenants/<t>/timeline.svg` from this). Timestamps keep
/// the full recording's epoch, so slices of one recording stay
/// mutually comparable.
pub fn timeline_svg_filtered(events: &[TraceEvent], track_prefix: &str) -> String {
    render(events.iter().filter(|e| e.track.starts_with(track_prefix)))
}

fn render<'a>(events: impl Iterator<Item = &'a TraceEvent> + Clone) -> String {
    let layout = Layout::new(events.clone());
    let rows = layout.tracks.len();
    let height = (TOP + rows as f64 * ROW + 40.0) as u32;
    let mut doc = SvgDoc::new(WIDTH, height);
    doc.rect(0.0, 0.0, WIDTH as f64, height as f64, "#ffffff");
    doc.text(8.0, 18.0, "popper trace timeline", 13, "start");

    // Axis.
    let axis_y = TOP + rows as f64 * ROW + 6.0;
    for t in ticks(0.0, layout.t_max as f64, 8) {
        let tx = LEFT + t * layout.scale;
        doc.line(tx, TOP - 4.0, tx, axis_y, "#dddddd", 1.0);
        doc.text(tx, axis_y + 14.0, &fmt_axis(t), 10, "middle");
    }

    // Rows.
    for (row, track) in layout.tracks.iter().enumerate() {
        let y = TOP + row as f64 * ROW;
        if row % 2 == 1 {
            doc.rect(LEFT, y, WIDTH as f64 - LEFT - 20.0, ROW, "#f6f6f6");
        }
        doc.text(LEFT - 8.0, y + ROW / 2.0 + 4.0, track, 11, "end");
    }

    // Spans.
    for bar in layout.bars(events.clone()) {
        let y0 = TOP + bar.lane.row as f64 * ROW;
        let inset = bar.lane.level as f64 * 3.0;
        doc.rect(bar.x0, y0 + 4.0 + inset, bar.x1 - bar.x0, (BAR - inset).max(3.0), PALETTE[bar.lane.color]);
        for (x, name) in bar.labels {
            doc.text(x + 3.0, y0 + 15.0 + inset, name, 9, "start");
        }
    }

    // Instants and counters: one marker of each per row, colour and
    // pixel column.
    let mut marked = FxSet::default();
    for e in events {
        let (instant, ts_ns) = match e.kind {
            EventKind::Span { .. } => continue,
            EventKind::Instant { ts_ns } => (true, ts_ns),
            EventKind::Counter { ts_ns, .. } => (false, ts_ns),
        };
        let (row, color) = (layout.row(&e.track), layout.color(e.category));
        let x = layout.x(ts_ns);
        if !marked.insert((instant, row, color, x.floor() as i64)) {
            continue;
        }
        let y0 = TOP + row as f64 * ROW;
        if instant {
            doc.circle(x, y0 + ROW - 5.0, 2.2, PALETTE[color]);
        } else {
            doc.line(x, y0 + ROW - 3.0, x, y0 + ROW - 8.0, PALETTE[color], 1.0);
        }
    }

    // Legend.
    let mut lx = LEFT;
    let ly = axis_y + 26.0;
    for (i, cat) in layout.cats.iter().enumerate() {
        doc.rect(lx, ly - 9.0, 10.0, 10.0, PALETTE[i % PALETTE.len()]);
        doc.text(lx + 14.0, ly, cat, 10, "start");
        lx += 14.0 + cat.len() as f64 * 7.0 + 18.0;
    }

    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn span(track: &str, name: &str, start_ns: u64, end_ns: u64, id: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            category: "sim",
            track: track.into(),
            kind: EventKind::Span { start_ns, end_ns },
            id: SpanId(id),
            parent: SpanId(parent),
        }
    }

    fn rects(svg: &str) -> usize {
        svg.matches("<rect").count()
    }

    #[test]
    fn two_hundred_thousand_adjacent_spans_draw_as_one_bar() {
        let events: Vec<TraceEvent> =
            (0..200_000u64).map(|i| span("sim/serial", "op", i * 10, i * 10 + 10, i + 1, 0)).collect();
        let svg = timeline_svg(&events);
        assert!(svg.len() < 64 * 1024, "{} bytes", svg.len());
        // Background, legend swatch and the one bar.
        assert_eq!(rects(&svg), 3, "{svg}");
    }

    #[test]
    fn a_nested_span_paints_after_its_parent() {
        // Drain order puts the child first: same start, its name sorts first.
        let events = [span("t", "a-child", 100, 200, 2, 1), span("t", "b-parent", 100, 900, 1, 0)];
        let svg = timeline_svg(&events);
        let parent = svg.find(r#"y="38.0""#).expect("the parent's bar, no inset");
        let child = svg.find(r#"y="41.0""#).expect("the child's bar, inset 3");
        assert!(parent < child, "{svg}");
        assert!(svg.contains(">b-parent<") && svg.contains(">a-child<"), "{svg}");
    }

    #[test]
    fn markers_draw_once_per_row_colour_and_pixel_column() {
        let point = |track: &str, ts_ns| TraceEvent {
            name: "tick".into(),
            category: "chaos",
            track: track.into(),
            kind: EventKind::Instant { ts_ns },
            id: SpanId::NONE,
            parent: SpanId::NONE,
        };
        // 850 px over 1e6 ns: 1000 instants at 1 ns steps share a column.
        let mut events: Vec<TraceEvent> = (0..1000).map(|ts| point("a", ts)).collect();
        events.push(point("b", 0));
        events.push(point("a", 1_000_000));
        let svg = timeline_svg(&events);
        assert_eq!(svg.matches("<circle").count(), 3, "{svg}");
    }

    #[test]
    fn the_filtered_timeline_equals_the_timeline_of_the_slice() {
        let events = [span("tenant-a/jobs", "job", 0, 1_000, 1, 0), span("tenant-b/jobs", "job", 500, 2_000, 2, 0)];
        assert_eq!(timeline_svg_filtered(&events, "tenant-a"), timeline_svg(&events[..1]));
    }

    /// A random recording: spans on three tracks and two categories,
    /// some nested in earlier spans, in no particular order, plus
    /// instants.
    fn recording(seed: u64, len: usize) -> Vec<TraceEvent> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut events = Vec::new();
        for i in 0..len as u64 {
            let track = ["a", "b", "c"][next() as usize % 3];
            let category = ["sim", "rpc"][next() as usize % 2];
            let start_ns = next() % 100_000;
            // Mostly narrow, sometimes wide, sometimes skewed.
            let dur = match next() % 8 {
                0 => next() % 50_000,
                1 => 0,
                _ => next() % 300,
            };
            let end_ns = if next() % 16 == 0 { start_ns.saturating_sub(dur) } else { start_ns + dur };
            let parent = if i > 0 && next() % 2 == 0 { next() % i + 1 } else { 0 };
            let kind = if next() % 10 == 0 {
                EventKind::Instant { ts_ns: start_ns }
            } else {
                EventKind::Span { start_ns, end_ns }
            };
            let id = if matches!(kind, EventKind::Span { .. }) { i + 1 } else { 0 };
            events.push(TraceEvent {
                name: format!("op{}", next() % 5).into(),
                category,
                track: track.into(),
                kind,
                id: SpanId(id),
                parent: SpanId(parent),
            });
        }
        events
    }

    proptest! {
        #[test]
        fn bars_cover_every_span_and_never_outnumber_them(seed in any::<u64>(), len in 0usize..300) {
            let events = recording(seed, len);
            let layout = Layout::new(events.iter());
            let bars = layout.bars(events.iter());
            let spans: Vec<&TraceEvent> =
                events.iter().filter(|e| matches!(e.kind, EventKind::Span { .. })).collect();
            prop_assert!(bars.len() <= spans.len(), "{} bars for {} spans", bars.len(), spans.len());
            for e in &spans {
                let lane = layout.lane(e);
                let (x0, w) = layout.span_px(e);
                prop_assert!(
                    bars.iter().any(|b| b.lane == lane && b.x0 <= x0 && x0 + w <= b.x1),
                    "span {:?} at {}..{} lies in no bar of its lane", e, x0, x0 + w
                );
            }
            prop_assert!(bars.windows(2).all(|w| w[0].lane.level <= w[1].lane.level));
            // The document draws each bar once, beside the background,
            // the odd rows' shading and the legend swatches.
            let shading = layout.tracks.len() / 2;
            prop_assert_eq!(rects(&timeline_svg(&events)), 1 + shading + bars.len() + layout.cats.len());
        }

        #[test]
        fn spans_two_pixels_apart_keep_a_bar_each(seed in any::<u64>()) {
            // A span on another row fixes the scale: 850 px over 1e6 ns,
            // so 0.8 px is 941.2 ns and 2 px is 2352.9 ns.
            const T: u64 = 1_000_000;
            let mut events = vec![span("z", "s", 0, T, 1, 0)];
            let mut x = seed | 1;
            let mut start = 0u64;
            loop {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let dur = x % 3_000;
                if start + dur > T {
                    break;
                }
                let id = events.len() as u64 + 1;
                events.push(span("t", "s", start, start + dur, id, 0));
                start += dur.max(941) + 2_400 + (x >> 20) % 2_000;
            }
            let layout = Layout::new(events.iter());
            let row = layout.row("t");
            let all = layout.bars(events.iter());
            let bars: Vec<&Bar> = all.iter().filter(|b| b.lane.row == row).collect();
            prop_assert_eq!(bars.len(), events.len() - 1);
            for (bar, e) in bars.iter().zip(&events[1..]) {
                let (x0, w) = layout.span_px(e);
                prop_assert_eq!((bar.x0, bar.x1), (x0, x0 + w));
            }
        }
    }
}
