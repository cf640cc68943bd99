//! Trace diffing: align two recorded traces and classify divergences.
//!
//! Virtual-time traces are byte-identical for identical workloads, so
//! *any* divergence between two commits' traces is signal — a changed
//! schedule, an extra RPC, a fault firing at a different instant.
//! Wall-domain traces drift run-to-run, so durations are compared under
//! a configurable relative tolerance (or skipped entirely in
//! structure-only mode, which the CI self-check uses).
//!
//! Alignment is per-track sequence alignment (longest common
//! subsequence on `(name, category)` keys in stream order), not tree
//! edit distance: traces are flat event streams with parent *pointers*,
//! so per-track LCS plus a parent-key comparison on matched pairs
//! recovers structural changes at O(n·m) per track without
//! reconstructing trees, and insertions/deletions stay local instead of
//! cascading.

use crate::event::{EventKind, SpanId, TraceEvent};
use popper_format::{Table, Value};
use std::collections::BTreeMap;

/// What kind of divergence was found between trace A and trace B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Event present in B but not in A.
    Added,
    /// Event present in A but not in B.
    Removed,
    /// Same event on both sides, but at a different position in its
    /// track (or under a different parent span).
    Reordered,
    /// Matched span whose duration drifted beyond the tolerance.
    DurationDrift,
    /// Counter series with a different sample count or sample values
    /// beyond the tolerance.
    CounterDrift,
    /// A fault-injection instant (category `"chaos"`) added, removed,
    /// or moved to a different timestamp.
    FaultMismatch,
}

impl DivergenceKind {
    /// Short stable label used in reports and `trace-diff.json`.
    pub fn label(self) -> &'static str {
        match self {
            DivergenceKind::Added => "added",
            DivergenceKind::Removed => "removed",
            DivergenceKind::Reordered => "reordered",
            DivergenceKind::DurationDrift => "duration-drift",
            DivergenceKind::CounterDrift => "counter-drift",
            DivergenceKind::FaultMismatch => "fault-mismatch",
        }
    }

    /// Structural divergences make two traces non-equivalent regardless
    /// of any duration tolerance.
    pub fn is_structural(self) -> bool {
        !matches!(self, DivergenceKind::DurationDrift | DivergenceKind::CounterDrift)
    }

    /// Inverse of [`DivergenceKind::label`].
    pub fn from_label(label: &str) -> Option<DivergenceKind> {
        Some(match label {
            "added" => DivergenceKind::Added,
            "removed" => DivergenceKind::Removed,
            "reordered" => DivergenceKind::Reordered,
            "duration-drift" => DivergenceKind::DurationDrift,
            "counter-drift" => DivergenceKind::CounterDrift,
            "fault-mismatch" => DivergenceKind::FaultMismatch,
            _ => return None,
        })
    }
}

/// One divergence between the two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Classification.
    pub kind: DivergenceKind,
    /// Track the event lives on.
    pub track: String,
    /// Event name.
    pub name: String,
    /// Event category.
    pub category: String,
    /// Human-readable specifics ("120ns vs 180ns (+50.0%)", …).
    pub detail: String,
}

/// Knobs for [`diff_traces`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative tolerance (percent) for duration and counter-value
    /// drift. 0.0 demands exact equality — right for virtual-time
    /// traces, which are deterministic.
    pub tolerance_pct: f64,
    /// When false, skip duration, counter-value and fault-timestamp
    /// comparison entirely and compare structure only. Use for
    /// wall-domain traces, whose timings drift run-to-run.
    pub compare_durations: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { tolerance_pct: 0.0, compare_durations: true }
    }
}

impl DiffOptions {
    /// Structure-only comparison (the CI self-check default for
    /// wall-domain traces).
    pub fn structure_only() -> Self {
        DiffOptions { tolerance_pct: 0.0, compare_durations: false }
    }
}

/// The result of diffing two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Total events in trace A.
    pub events_a: usize,
    /// Total events in trace B.
    pub events_b: usize,
    /// All divergences found, in deterministic (track-sorted) order.
    pub divergences: Vec<Divergence>,
    /// Largest relative duration/counter drift observed across *all*
    /// matched pairs, even below the diff tolerance — so an `.aver`
    /// check can apply a tolerance of its own.
    pub max_drift_pct: f64,
    /// The options the diff ran with.
    pub options: DiffOptions,
}

impl TraceDiff {
    /// Number of structural divergences (added/removed/reordered/fault).
    pub fn structural_count(&self) -> usize {
        self.divergences.iter().filter(|d| d.kind.is_structural()).count()
    }

    /// Equivalent under `tolerance_pct`: no structural divergence and
    /// every observed drift within the tolerance.
    pub fn is_equivalent(&self, tolerance_pct: f64) -> bool {
        self.structural_count() == 0 && self.max_drift_pct <= tolerance_pct
    }

    /// The diff as a JSON-ready [`Value`] (the `trace-diff.json` body).
    pub fn to_value(&self) -> Value {
        let divs: Vec<Value> = self
            .divergences
            .iter()
            .map(|d| {
                Value::Map(vec![
                    ("kind".to_string(), Value::Str(d.kind.label().to_string())),
                    ("track".to_string(), Value::Str(d.track.clone())),
                    ("name".to_string(), Value::Str(d.name.clone())),
                    ("category".to_string(), Value::Str(d.category.clone())),
                    ("detail".to_string(), Value::Str(d.detail.clone())),
                ])
            })
            .collect();
        Value::Map(vec![
            ("events_a".to_string(), Value::Num(self.events_a as f64)),
            ("events_b".to_string(), Value::Num(self.events_b as f64)),
            ("divergences".to_string(), Value::Num(self.divergences.len() as f64)),
            ("structural".to_string(), Value::Num(self.structural_count() as f64)),
            ("max_drift_pct".to_string(), Value::Num(self.max_drift_pct)),
            ("tolerance_pct".to_string(), Value::Num(self.options.tolerance_pct)),
            ("structure_only".to_string(), Value::Bool(!self.options.compare_durations)),
            ("details".to_string(), Value::List(divs)),
        ])
    }

    /// Inverse of [`TraceDiff::to_value`]: rebuild the diff from its
    /// `trace-diff.json` body. `to_value` carries every field, so the
    /// round trip is lossless — which lets a pipeline stage park a diff
    /// in the run context as a plain [`Value`] instead of closure state.
    pub fn from_value(v: &Value) -> Result<TraceDiff, String> {
        let num = |key: &str| {
            v.get_num(key).ok_or_else(|| format!("trace-diff value: missing number '{key}'"))
        };
        let mut divergences = Vec::new();
        for (idx, d) in v
            .get_list("details")
            .ok_or("trace-diff value: missing list 'details'")?
            .iter()
            .enumerate()
        {
            let field = |key: &str| {
                d.get_str(key)
                    .map(str::to_string)
                    .ok_or_else(|| format!("trace-diff value: detail {idx} missing '{key}'"))
            };
            let label = field("kind")?;
            divergences.push(Divergence {
                kind: DivergenceKind::from_label(&label)
                    .ok_or_else(|| format!("trace-diff value: unknown kind '{label}'"))?,
                track: field("track")?,
                name: field("name")?,
                category: field("category")?,
                detail: field("detail")?,
            });
        }
        Ok(TraceDiff {
            events_a: num("events_a")? as usize,
            events_b: num("events_b")? as usize,
            divergences,
            max_drift_pct: num("max_drift_pct")?,
            options: DiffOptions {
                tolerance_pct: num("tolerance_pct")?,
                compare_durations: !v
                    .get_bool("structure_only")
                    .ok_or("trace-diff value: missing bool 'structure_only'")?,
            },
        })
    }

    /// An always-one-row summary table for Aver (`trace_equivalent`
    /// evaluates over it; a per-divergence table would be empty exactly
    /// when the check should pass, and Aver treats an empty filtered
    /// table as a failure).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["events_a", "events_b", "divergences", "structural", "max_drift_pct"]);
        t.push_row(vec![
            Value::Num(self.events_a as f64),
            Value::Num(self.events_b as f64),
            Value::Num(self.divergences.len() as f64),
            Value::Num(self.structural_count() as f64),
            Value::Num(self.max_drift_pct),
        ])
        .expect("summary row matches its own schema");
        t
    }

    /// ASCII divergence report. A pure function of the diff, so the
    /// report bytes are stable across invocations.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace-diff: {} event(s) vs {} event(s), {} divergence(s) ({} structural), max drift {:.3}%\n",
            self.events_a,
            self.events_b,
            self.divergences.len(),
            self.structural_count(),
            self.max_drift_pct,
        ));
        if !self.options.compare_durations {
            out.push_str("(structure-only: durations, counter values and fault instants not compared)\n");
        }
        // Cap the per-divergence listing: a wholesale divergence (say, a
        // full execution timeline diffed against a replay-only one) has
        // hundreds of thousands of entries, and this string is also the
        // committed `trace-diff.txt` artifact. The counts above and the
        // JSON artifact still carry the full diff.
        const MAX_LISTED: usize = 50;
        for d in self.divergences.iter().take(MAX_LISTED) {
            out.push_str(&format!(
                "  [{:<14}] {:<24} {} ({}): {}\n",
                d.kind.label(),
                d.track,
                d.name,
                d.category,
                d.detail
            ));
        }
        if self.divergences.len() > MAX_LISTED {
            out.push_str(&format!(
                "  ... and {} more divergence(s)\n",
                self.divergences.len() - MAX_LISTED
            ));
        }
        if self.divergences.is_empty() {
            out.push_str("  traces are equivalent\n");
        }
        out
    }
}

/// Relative drift between two magnitudes, in percent of the larger one
/// (symmetric, and defined when one side is zero).
fn drift_pct(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom * 100.0
    }
}

/// Longest-common-subsequence alignment of two key sequences. Returns
/// `(Some(i), Some(j))` for matches, `(Some(i), None)` for A-only
/// items, `(None, Some(j))` for B-only items, in stream order.
fn lcs_align<K: PartialEq>(a: &[K], b: &[K]) -> Vec<(Option<usize>, Option<usize>)> {
    let (n, m) = (a.len(), b.len());
    // lcs[i][j] = LCS length of a[i..] and b[j..].
    let mut lcs = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            out.push((Some(i), Some(j)));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            out.push((Some(i), None));
            i += 1;
        } else {
            out.push((None, Some(j)));
            j += 1;
        }
    }
    while i < n {
        out.push((Some(i), None));
        i += 1;
    }
    while j < m {
        out.push((None, Some(j)));
        j += 1;
    }
    out
}

/// Key a span/instant aligns on: `(name, category)` within its track.
fn key_of(e: &TraceEvent) -> (&str, &str) {
    (e.name.as_str(), e.category)
}

/// Map span id → "track/name" for parent-structure comparison.
fn span_names(events: &[TraceEvent]) -> BTreeMap<SpanId, String> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .map(|e| (e.id, format!("{}/{}", e.track, e.name)))
        .collect()
}

fn parent_key(names: &BTreeMap<SpanId, String>, parent: SpanId) -> String {
    if parent.is_none() {
        "(root)".to_string()
    } else {
        names.get(&parent).cloned().unwrap_or_else(|| "(unknown)".to_string())
    }
}

fn fmt_side(removed: bool) -> &'static str {
    if removed {
        "present in A, missing in B"
    } else {
        "present in B, missing in A"
    }
}

/// Diff two recorded traces. Events must be in stream order (as drained
/// from a [`crate::TraceSink`] or re-imported via
/// [`crate::export::parse_chrome_trace`]).
pub fn diff_traces(a: &[TraceEvent], b: &[TraceEvent], options: DiffOptions) -> TraceDiff {
    let mut diff = TraceDiff {
        events_a: a.len(),
        events_b: b.len(),
        divergences: Vec::new(),
        max_drift_pct: 0.0,
        options,
    };
    // Fast path: identical event streams cannot diverge.
    if a == b {
        return diff;
    }

    let names_a = span_names(a);
    let names_b = span_names(b);

    // Partition both traces by track, preserving stream order.
    let mut tracks: BTreeMap<&str, (Vec<&TraceEvent>, Vec<&TraceEvent>)> = BTreeMap::new();
    for e in a {
        tracks.entry(e.track.as_str()).or_default().0.push(e);
    }
    for e in b {
        tracks.entry(e.track.as_str()).or_default().1.push(e);
    }

    for (ea, eb) in tracks.values() {
        diff_spans(ea, eb, &names_a, &names_b, &mut diff);
        diff_instants(ea, eb, &mut diff);
        diff_counters(ea, eb, &mut diff);
    }
    diff
}

fn push(diff: &mut TraceDiff, kind: DivergenceKind, e: &TraceEvent, detail: String) {
    diff.divergences.push(Divergence {
        kind,
        track: e.track.to_string(),
        name: e.name.to_string(),
        category: e.category.to_string(),
        detail,
    });
}

fn diff_spans(
    ea: &[&TraceEvent],
    eb: &[&TraceEvent],
    names_a: &BTreeMap<SpanId, String>,
    names_b: &BTreeMap<SpanId, String>,
    diff: &mut TraceDiff,
) {
    let sa: Vec<&TraceEvent> =
        ea.iter().copied().filter(|e| matches!(e.kind, EventKind::Span { .. })).collect();
    let sb: Vec<&TraceEvent> =
        eb.iter().copied().filter(|e| matches!(e.kind, EventKind::Span { .. })).collect();
    let ka: Vec<(&str, &str)> = sa.iter().map(|e| key_of(e)).collect();
    let kb: Vec<(&str, &str)> = sb.iter().map(|e| key_of(e)).collect();

    let mut only_a: Vec<&TraceEvent> = Vec::new();
    let mut only_b: Vec<&TraceEvent> = Vec::new();
    for (i, j) in lcs_align(&ka, &kb) {
        match (i, j) {
            (Some(i), Some(j)) => {
                let (x, y) = (sa[i], sb[j]);
                // Parent structure: same span under a different parent
                // is a reorder, not a match.
                let (pa, pb) = (parent_key(names_a, x.parent), parent_key(names_b, y.parent));
                if pa != pb {
                    push(
                        diff,
                        DivergenceKind::Reordered,
                        x,
                        format!("parent differs: {pa} vs {pb}"),
                    );
                }
                if diff.options.compare_durations {
                    let (da, db) = (x.duration_ns() as f64, y.duration_ns() as f64);
                    let drift = drift_pct(da, db);
                    diff.max_drift_pct = diff.max_drift_pct.max(drift);
                    if drift > diff.options.tolerance_pct {
                        push(
                            diff,
                            DivergenceKind::DurationDrift,
                            x,
                            format!(
                                "{}ns vs {}ns ({:.3}% > {:.3}%)",
                                x.duration_ns(),
                                y.duration_ns(),
                                drift,
                                diff.options.tolerance_pct
                            ),
                        );
                    }
                }
            }
            (Some(i), None) => only_a.push(sa[i]),
            (None, Some(j)) => only_b.push(sb[j]),
            (None, None) => unreachable!(),
        }
    }
    emit_unmatched(diff, only_a, only_b, false);
}

/// Pair up unmatched events with the same key across sides as reorders;
/// the remainder become added/removed (or fault mismatches for chaos
/// instants).
fn emit_unmatched(
    diff: &mut TraceDiff,
    only_a: Vec<&TraceEvent>,
    mut only_b: Vec<&TraceEvent>,
    instants: bool,
) {
    for x in only_a {
        if let Some(pos) = only_b.iter().position(|y| key_of(y) == key_of(x)) {
            let y = only_b.remove(pos);
            push(
                diff,
                DivergenceKind::Reordered,
                x,
                format!("moved within track (ts {}ns vs {}ns)", x.start_ns(), y.start_ns()),
            );
        } else if instants && x.category == "chaos" {
            push(diff, DivergenceKind::FaultMismatch, x, fmt_side(true).to_string());
        } else {
            push(diff, DivergenceKind::Removed, x, fmt_side(true).to_string());
        }
    }
    for y in only_b {
        if instants && y.category == "chaos" {
            push(diff, DivergenceKind::FaultMismatch, y, fmt_side(false).to_string());
        } else {
            push(diff, DivergenceKind::Added, y, fmt_side(false).to_string());
        }
    }
}

fn diff_instants(ea: &[&TraceEvent], eb: &[&TraceEvent], diff: &mut TraceDiff) {
    let ia: Vec<&TraceEvent> =
        ea.iter().copied().filter(|e| matches!(e.kind, EventKind::Instant { .. })).collect();
    let ib: Vec<&TraceEvent> =
        eb.iter().copied().filter(|e| matches!(e.kind, EventKind::Instant { .. })).collect();
    let ka: Vec<(&str, &str)> = ia.iter().map(|e| key_of(e)).collect();
    let kb: Vec<(&str, &str)> = ib.iter().map(|e| key_of(e)).collect();

    let mut only_a: Vec<&TraceEvent> = Vec::new();
    let mut only_b: Vec<&TraceEvent> = Vec::new();
    for (i, j) in lcs_align(&ka, &kb) {
        match (i, j) {
            (Some(i), Some(j)) => {
                let (x, y) = (ia[i], ib[j]);
                // Fault instants carry meaning in their timestamp:
                // the same fault firing at a different virtual instant
                // is a schedule change, not noise.
                if diff.options.compare_durations
                    && x.category == "chaos"
                    && x.start_ns() != y.start_ns()
                {
                    push(
                        diff,
                        DivergenceKind::FaultMismatch,
                        x,
                        format!("fires at {}ns vs {}ns", x.start_ns(), y.start_ns()),
                    );
                }
            }
            (Some(i), None) => only_a.push(ia[i]),
            (None, Some(j)) => only_b.push(ib[j]),
            (None, None) => unreachable!(),
        }
    }
    emit_unmatched(diff, only_a, only_b, true);
}

fn diff_counters(ea: &[&TraceEvent], eb: &[&TraceEvent], diff: &mut TraceDiff) {
    // Group samples by counter name within the track.
    fn series<'a>(events: &[&'a TraceEvent]) -> BTreeMap<&'a str, Vec<f64>> {
        let mut m: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for e in events {
            if let EventKind::Counter { value, .. } = e.kind {
                m.entry(e.name.as_str()).or_default().push(value);
            }
        }
        m
    }
    let (ca, cb) = (series(ea), series(eb));
    let mut names: Vec<&str> = ca.keys().chain(cb.keys()).copied().collect();
    names.sort();
    names.dedup();
    fn find_counter<'a>(events: &[&'a TraceEvent], name: &str) -> Option<&'a TraceEvent> {
        events
            .iter()
            .copied()
            .find(|e| matches!(e.kind, EventKind::Counter { .. }) && e.name == name)
    }
    for name in names {
        let holder =
            find_counter(ea, name).or_else(|| find_counter(eb, name)).expect("name came from a counter");
        let (va, vb) = (ca.get(name), cb.get(name));
        match (va, vb) {
            (Some(va), Some(vb)) => {
                if va.len() != vb.len() {
                    push(
                        diff,
                        DivergenceKind::CounterDrift,
                        holder,
                        format!("{} samples vs {} samples", va.len(), vb.len()),
                    );
                } else if diff.options.compare_durations {
                    let mut worst = 0.0f64;
                    let mut at = 0usize;
                    for (idx, (x, y)) in va.iter().zip(vb.iter()).enumerate() {
                        let d = drift_pct(*x, *y);
                        if d > worst {
                            worst = d;
                            at = idx;
                        }
                    }
                    diff.max_drift_pct = diff.max_drift_pct.max(worst);
                    if worst > diff.options.tolerance_pct {
                        push(
                            diff,
                            DivergenceKind::CounterDrift,
                            holder,
                            format!(
                                "sample {}: {} vs {} ({:.3}% > {:.3}%)",
                                at, va[at], vb[at], worst, diff.options.tolerance_pct
                            ),
                        );
                    }
                }
            }
            (Some(_), None) => {
                push(diff, DivergenceKind::CounterDrift, holder, fmt_side(true).to_string())
            }
            (None, Some(_)) => {
                push(diff, DivergenceKind::CounterDrift, holder, fmt_side(false).to_string())
            }
            (None, None) => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use crate::tracer::ClockDomain;

    fn virt(build: impl Fn(&crate::tracer::Tracer)) -> Vec<TraceEvent> {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        build(&t);
        sink.drain()
    }

    fn base_trace() -> Vec<TraceEvent> {
        virt(|t| {
            let a = t.span_at("sim", "serial", "admit", 100, 200);
            t.span_at_child(a, "sim", "serial", "service", 120, 180);
            t.instant_at("chaos", "chaos/faults", "crash", 150);
            t.counter_at("engine", "pending", 3.0, 160);
            t.counter_at("engine", "pending", 5.0, 170);
        })
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let d = diff_traces(&base_trace(), &base_trace(), DiffOptions::default());
        assert!(d.divergences.is_empty());
        assert_eq!(d.max_drift_pct, 0.0);
        assert!(d.is_equivalent(0.0));
        assert_eq!(d.structural_count(), 0);
        assert!(d.report().contains("traces are equivalent"));
    }

    #[test]
    fn report_and_json_are_byte_stable() {
        let mk = || diff_traces(&base_trace(), &base_trace(), DiffOptions::default());
        assert_eq!(mk().report(), mk().report());
        assert_eq!(
            popper_format::json::to_string(&mk().to_value()),
            popper_format::json::to_string(&mk().to_value())
        );
    }

    #[test]
    fn added_and_removed_spans_are_flagged() {
        let a = base_trace();
        let b = virt(|t| {
            let s = t.span_at("sim", "serial", "admit", 100, 200);
            t.span_at_child(s, "sim", "serial", "service", 120, 180);
            t.span_at("sim", "serial", "retry", 185, 195);
            t.instant_at("chaos", "chaos/faults", "crash", 150);
            t.counter_at("engine", "pending", 3.0, 160);
            t.counter_at("engine", "pending", 5.0, 170);
        });
        let d = diff_traces(&a, &b, DiffOptions::default());
        assert_eq!(d.divergences.len(), 1);
        assert_eq!(d.divergences[0].kind, DivergenceKind::Added);
        assert_eq!(d.divergences[0].name, "retry");
        assert!(!d.is_equivalent(100.0));

        let d = diff_traces(&b, &a, DiffOptions::default());
        assert_eq!(d.divergences.len(), 1);
        assert_eq!(d.divergences[0].kind, DivergenceKind::Removed);
    }

    #[test]
    fn duration_drift_respects_tolerance() {
        let a = base_trace();
        let b = virt(|t| {
            let s = t.span_at("sim", "serial", "admit", 100, 210);
            t.span_at_child(s, "sim", "serial", "service", 120, 180);
            t.instant_at("chaos", "chaos/faults", "crash", 150);
            t.counter_at("engine", "pending", 3.0, 160);
            t.counter_at("engine", "pending", 5.0, 170);
        });
        // admit: 100ns vs 110ns ≈ 9.09% drift.
        let strict = diff_traces(&a, &b, DiffOptions::default());
        assert_eq!(strict.divergences.len(), 1);
        assert_eq!(strict.divergences[0].kind, DivergenceKind::DurationDrift);
        assert!(strict.max_drift_pct > 9.0 && strict.max_drift_pct < 9.2);
        assert!(!strict.is_equivalent(5.0));
        assert!(strict.is_equivalent(10.0));

        let loose = diff_traces(&a, &b, DiffOptions { tolerance_pct: 15.0, compare_durations: true });
        assert!(loose.divergences.is_empty());
        // Drift is still recorded even below tolerance.
        assert!(loose.max_drift_pct > 9.0);

        let structural = diff_traces(&a, &b, DiffOptions::structure_only());
        assert!(structural.divergences.is_empty());
        assert_eq!(structural.max_drift_pct, 0.0);
    }

    #[test]
    fn fault_instant_mismatch_is_flagged() {
        let a = base_trace();
        let moved = virt(|t| {
            let s = t.span_at("sim", "serial", "admit", 100, 200);
            t.span_at_child(s, "sim", "serial", "service", 120, 180);
            t.instant_at("chaos", "chaos/faults", "crash", 155);
            t.counter_at("engine", "pending", 3.0, 160);
            t.counter_at("engine", "pending", 5.0, 170);
        });
        let d = diff_traces(&a, &moved, DiffOptions::default());
        assert_eq!(d.divergences.len(), 1);
        assert_eq!(d.divergences[0].kind, DivergenceKind::FaultMismatch);
        assert!(d.divergences[0].detail.contains("150ns vs 155ns"));
        assert_eq!(d.structural_count(), 1);

        let extra = virt(|t| {
            let s = t.span_at("sim", "serial", "admit", 100, 200);
            t.span_at_child(s, "sim", "serial", "service", 120, 180);
            t.instant_at("chaos", "chaos/faults", "crash", 150);
            t.instant_at("chaos", "chaos/faults", "partition", 190);
            t.counter_at("engine", "pending", 3.0, 160);
            t.counter_at("engine", "pending", 5.0, 170);
        });
        let d = diff_traces(&a, &extra, DiffOptions::default());
        assert_eq!(d.divergences.len(), 1);
        assert_eq!(d.divergences[0].kind, DivergenceKind::FaultMismatch);
        assert_eq!(d.divergences[0].name, "partition");
    }

    #[test]
    fn counter_drift_and_sample_count() {
        let a = base_trace();
        let b = virt(|t| {
            let s = t.span_at("sim", "serial", "admit", 100, 200);
            t.span_at_child(s, "sim", "serial", "service", 120, 180);
            t.instant_at("chaos", "chaos/faults", "crash", 150);
            t.counter_at("engine", "pending", 3.0, 160);
            t.counter_at("engine", "pending", 8.0, 170);
        });
        let d = diff_traces(&a, &b, DiffOptions::default());
        assert_eq!(d.divergences.len(), 1);
        assert_eq!(d.divergences[0].kind, DivergenceKind::CounterDrift);
        // 5 vs 8 = 37.5% of the larger value.
        assert!((d.max_drift_pct - 37.5).abs() < 1e-9);

        let fewer = virt(|t| {
            let s = t.span_at("sim", "serial", "admit", 100, 200);
            t.span_at_child(s, "sim", "serial", "service", 120, 180);
            t.instant_at("chaos", "chaos/faults", "crash", 150);
            t.counter_at("engine", "pending", 3.0, 160);
        });
        let d = diff_traces(&a, &fewer, DiffOptions::structure_only());
        assert_eq!(d.divergences.len(), 1);
        assert!(d.divergences[0].detail.contains("2 samples vs 1 samples"));
    }

    #[test]
    fn reorder_and_parent_change_are_structural() {
        let a = virt(|t| {
            t.span_at("sim", "serial", "first", 100, 110);
            t.span_at("sim", "serial", "second", 120, 130);
        });
        let b = virt(|t| {
            t.span_at("sim", "serial", "second", 100, 110);
            t.span_at("sim", "serial", "first", 120, 130);
        });
        let d = diff_traces(&a, &b, DiffOptions::structure_only());
        assert!(!d.divergences.is_empty());
        assert!(d.divergences.iter().all(|x| x.kind == DivergenceKind::Reordered));
        assert!(d.structural_count() >= 1);

        let nested = virt(|t| {
            let p = t.span_at("sim", "serial", "first", 100, 110);
            t.span_at_child(p, "sim", "serial", "second", 102, 108);
        });
        let d = diff_traces(&a, &nested, DiffOptions::structure_only());
        assert!(d.divergences.iter().any(|x| x.kind == DivergenceKind::Reordered
            && x.detail.contains("parent differs")));
    }

    #[test]
    fn value_round_trip_is_lossless() {
        let a = base_trace();
        let b = virt(|t| {
            let s = t.span_at("sim", "serial", "admit", 100, 210);
            t.span_at_child(s, "sim", "serial", "service", 120, 180);
            t.instant_at("chaos", "chaos/faults", "crash", 155);
            t.counter_at("engine", "pending", 3.0, 160);
            t.counter_at("engine", "pending", 8.0, 170);
        });
        for opts in [DiffOptions::default(), DiffOptions::structure_only(),
            DiffOptions { tolerance_pct: 12.5, compare_durations: true }]
        {
            let d = diff_traces(&a, &b, opts);
            assert_eq!(TraceDiff::from_value(&d.to_value()).unwrap(), d);
        }
        assert!(TraceDiff::from_value(&Value::empty_map()).is_err());
    }

    #[test]
    fn summary_table_has_one_row() {
        let d = diff_traces(&base_trace(), &base_trace(), DiffOptions::default());
        let t = d.to_table();
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, "structural"), Some(&Value::Num(0.0)));
        assert_eq!(t.cell(0, "max_drift_pct"), Some(&Value::Num(0.0)));
    }
}
