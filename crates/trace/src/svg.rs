//! SVG timeline rendering: one row per track, spans as colored bars
//! (nesting shown by inset), instants as markers, plus a time axis.

use crate::event::{EventKind, SpanId, TraceEvent};
use popper_viz::svg::{ticks, SvgDoc};
use std::collections::BTreeMap;

const LEFT: f64 = 190.0;
const WIDTH: u32 = 1060;
const ROW: f64 = 26.0;
const TOP: f64 = 34.0;
const BAR: f64 = 15.0;

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

/// Render the events as a timeline SVG document.
pub fn timeline_svg(events: &[TraceEvent]) -> String {
    // Stable row and color assignment.
    let mut tracks: Vec<&str> = events.iter().map(|e| e.track.as_str()).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let rows: BTreeMap<&str, usize> = tracks.iter().copied().zip(0..).collect();
    let mut cats: Vec<&str> = events.iter().map(|e| e.category).collect();
    cats.sort_unstable();
    cats.dedup();
    let colors: BTreeMap<&str, &str> =
        cats.iter().copied().zip(PALETTE.iter().cycle().copied()).collect();

    let t_max = events.iter().map(|e| e.end_ns()).max().unwrap_or(0).max(1);
    let scale = (WIDTH as f64 - LEFT - 20.0) / t_max as f64;
    let x = |ns: u64| LEFT + ns as f64 * scale;

    // Nesting depth per span id (parents recorded in the same batch).
    let parent_of: BTreeMap<SpanId, SpanId> = events
        .iter()
        .filter(|e| !e.id.is_none())
        .map(|e| (e.id, e.parent))
        .collect();
    let depth = |mut id: SpanId| -> usize {
        let mut d = 0;
        while let Some(&p) = parent_of.get(&id) {
            if p.is_none() || d > 8 {
                break;
            }
            d += 1;
            id = p;
        }
        d
    };

    let height = (TOP + tracks.len() as f64 * ROW + 40.0) as u32;
    let mut doc = SvgDoc::new(WIDTH, height);
    doc.rect(0.0, 0.0, WIDTH as f64, height as f64, "#ffffff");
    doc.text(8.0, 18.0, "popper trace timeline", 13, "start");

    // Axis.
    let axis_y = TOP + tracks.len() as f64 * ROW + 6.0;
    for t in ticks(0.0, t_max as f64, 8) {
        let tx = LEFT + t * scale;
        doc.line(tx, TOP - 4.0, tx, axis_y, "#dddddd", 1.0);
        doc.text(tx, axis_y + 14.0, &fmt_axis(t), 10, "middle");
    }

    // Rows.
    for (track, row) in &rows {
        let y = TOP + *row as f64 * ROW;
        if row % 2 == 1 {
            doc.rect(LEFT, y, WIDTH as f64 - LEFT - 20.0, ROW, "#f6f6f6");
        }
        doc.text(LEFT - 8.0, y + ROW / 2.0 + 4.0, track, 11, "end");
    }

    // Events.
    for e in events {
        let y0 = TOP + rows[e.track.as_str()] as f64 * ROW;
        let color = colors[e.category];
        match e.kind {
            EventKind::Span { start_ns, .. } => {
                let d = depth(e.id) as f64;
                // duration_ns() saturates: a skewed span draws as the
                // narrowest bar rather than overflowing.
                let w = (e.duration_ns() as f64 * scale).max(0.8);
                let inset = (d * 3.0).min(9.0);
                doc.rect(x(start_ns), y0 + 4.0 + inset, w, (BAR - inset).max(3.0), color);
                // Label spans wide enough to hold text.
                if w > e.name.len() as f64 * 6.5 {
                    doc.text(x(start_ns) + 3.0, y0 + 15.0 + inset, &e.name, 9, "start");
                }
            }
            EventKind::Instant { ts_ns } => {
                doc.circle(x(ts_ns), y0 + ROW - 5.0, 2.2, color);
            }
            EventKind::Counter { ts_ns, .. } => {
                doc.line(x(ts_ns), y0 + ROW - 3.0, x(ts_ns), y0 + ROW - 8.0, color, 1.0);
            }
        }
    }

    // Legend.
    let mut lx = LEFT;
    let ly = axis_y + 26.0;
    for cat in &cats {
        doc.rect(lx, ly - 9.0, 10.0, 10.0, colors[cat]);
        doc.text(lx + 14.0, ly, cat, 10, "start");
        lx += 14.0 + cat.len() as f64 * 7.0 + 18.0;
    }

    doc.finish()
}

/// Render only the events whose track starts with `track_prefix` — the
/// per-tenant or per-worker slice of a multiplexed recording (the CI
/// farm serves `/tenants/<t>/timeline.svg` from this). Timestamps keep
/// the full recording's epoch, so slices of one recording stay
/// mutually comparable.
pub fn timeline_svg_filtered(events: &[TraceEvent], track_prefix: &str) -> String {
    let slice: Vec<TraceEvent> =
        events.iter().filter(|e| e.track.starts_with(track_prefix)).cloned().collect();
    timeline_svg(&slice)
}
