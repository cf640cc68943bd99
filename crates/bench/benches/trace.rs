//! `popper trace` cost by step: what recording a trace costs beyond
//! the run it records.
//!
//! For gassyfs and mpi-comm-variability, the two templates whose traces
//! hold about 190k and 216k events, the bench times, `REPEATS` times
//! each on a new repository (`init` + `add`):
//!
//! * `wall_ms`: `popper trace e --no-cache` end to end, in process
//!   through `popper_cli::run`;
//! * the steps of that command after its pipeline, replayed through the
//!   library on another new repository: `drain_json_ms` (drain the
//!   recorder and write the Chrome JSON, one after the other),
//!   `svg_ms` (`timeline_svg`), `summary_ms` (`summary_table`),
//!   `render_ms` (the drain plus the render as the command does it, the
//!   JSON on a thread beside the timeline and summary), `commit_ms` and
//!   `save_ms`;
//! * `svg_bytes`, the size of the `trace.svg` it records.
//!
//! It writes the medians beside the figures this bench measured on the
//! commit before the pixel-bounded timeline (`BEFORE`) to
//! `BENCH_trace.json` at the workspace root, and gates with Aver: no
//! `trace.svg` is larger than 1 MB. The before figures fail that gate.

use criterion::{criterion_group, Criterion};
use popper_core::{CommitPolicy, RunContext};
use popper_format::{json, Table, Value};
use popper_trace::TraceRecorder;
use std::path::{Path, PathBuf};
use std::time::Instant;

const TEMPLATES: &[&str] = &["gassyfs", "mpi-comm-variability"];
const REPEATS: usize = 5;
const GATE: &str = "expect max(svg_bytes) <= 1000000";
const AUTHOR: &str = "bench <bench@popper>";

/// The timed columns, in the order a sample lists them.
const STEPS: [&str; 7] = ["wall_ms", "drain_json_ms", "svg_ms", "summary_ms", "render_ms", "commit_ms", "save_ms"];

/// Medians of `STEPS` and the `trace.svg` bytes per template, measured
/// with this bench, fitted to the recorder API of f27b96f, on that
/// commit (one timeline rect per span, the JSON
/// written inside the recorder's drain and rendered before the timeline
/// and summary, three copies per new blob) on a shared 2-core host: the
/// middle of three runs by `wall_ms`. There `render_ms` is the sum of
/// the three renderings.
const BEFORE: [(&str, [f64; 7], f64); 2] = [
    ("gassyfs", [818.76, 151.50, 146.21, 27.69, 324.57, 92.32, 47.94], 13_520_286.0),
    ("mpi-comm-variability", [654.61, 184.49, 165.50, 24.74, 374.36, 109.54, 59.91], 15_506_018.0),
];

fn popper(dir: &Path, argv: &[&str]) -> String {
    popper_cli::run(argv, dir).unwrap_or_else(|e| panic!("popper {}: {e}", argv.join(" ")))
}

/// A new repository holding `template` as experiment `e`.
fn repository(template: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("popper-trace-bench-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    popper(&dir, &["init"]);
    popper(&dir, &["add", template, "e"]);
    dir
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// One sample: `STEPS` in ms and the `trace.svg` bytes.
fn sample(template: &str) -> ([f64; 7], f64) {
    let dir = repository(template, "cli");
    let started = Instant::now();
    popper(&dir, &["trace", "e", "--no-cache"]);
    let wall = ms_since(started);
    let svg_bytes = std::fs::metadata(dir.join("experiments/e/trace.svg")).unwrap().len() as f64;
    std::fs::remove_dir_all(&dir).ok();

    // The command's steps, replayed on a repository of its own.
    let dir = repository(template, "steps");
    let mut repo = popper_cli::persist::load(&dir, AUTHOR).unwrap();
    let engine = popper_cli::runners::full_engine();
    let mut ctx = RunContext::for_experiment(&repo, "e").unwrap().with_recorder(TraceRecorder::new());
    engine.run_pipeline(&mut repo, &mut ctx).unwrap();
    let mut artifacts = std::mem::take(&mut ctx.artifacts);
    let started = Instant::now();
    let events = ctx.finish_recording().unwrap();
    let drain = ms_since(started);
    let started = Instant::now();
    std::hint::black_box(popper_trace::chrome_trace_json(&events));
    let json = ms_since(started);
    let started = Instant::now();
    std::hint::black_box(popper_trace::timeline_svg(&events));
    let svg = ms_since(started);
    let started = Instant::now();
    std::hint::black_box(popper_trace::summary_table(&events));
    let summary = ms_since(started);
    let started = Instant::now();
    let (json_doc, svg_doc, _) = popper_core::render_trace(&events, true);
    let render = drain + ms_since(started);
    artifacts.stage("experiments/e/trace.json", json_doc);
    artifacts.stage("experiments/e/trace.svg", svg_doc);
    let started = Instant::now();
    artifacts.commit_into(&mut repo, "popper trace e: record trace", CommitPolicy::Always).unwrap();
    let commit = ms_since(started);
    let started = Instant::now();
    popper_cli::persist::save(&repo, &dir).unwrap();
    let save = ms_since(started);
    std::fs::remove_dir_all(&dir).ok();
    ([wall, drain + json, svg, summary, render, commit, save], svg_bytes)
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The medians of `STEPS` and the svg bytes as a JSON map.
fn point(steps: [f64; 7], svg_bytes: f64) -> Value {
    let mut point = Value::empty_map();
    for (name, ms) in STEPS.iter().zip(steps) {
        point.insert(*name, Value::from(ms));
    }
    point.insert("svg_bytes", Value::from(svg_bytes));
    point
}

fn columns() -> Vec<String> {
    ["template", "svg_bytes"].into_iter().chain(STEPS).map(str::to_string).collect()
}

fn row(template: &str, steps: [f64; 7], svg_bytes: f64) -> Vec<Value> {
    [Value::from(template), Value::from(svg_bytes)].into_iter().chain(steps.map(Value::from)).collect()
}

fn print_and_commit() {
    eprintln!("{}", popper_bench::banner("trace: popper trace cost by step"));
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut table = Table::new(columns());
    let mut after = Value::empty_map();
    for template in TEMPLATES {
        let samples: Vec<([f64; 7], f64)> = (0..REPEATS).map(|_| sample(template)).collect();
        for (steps, svg_bytes) in &samples {
            table.push_row(row(template, *steps, *svg_bytes)).unwrap();
        }
        let steps: [f64; 7] = std::array::from_fn(|i| median(&samples.iter().map(|s| s.0[i]).collect::<Vec<_>>()));
        let svg_bytes = median(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
        eprintln!("{template:<22} svg {svg_bytes:>10} B");
        for (name, ms) in STEPS.iter().zip(steps) {
            eprintln!("{template:<22} {name:<14} {ms:>9.2} ms");
        }
        after.insert(*template, point(steps, svg_bytes));
    }
    let verdict = popper_aver::check(GATE, &table).expect("gate evaluates");
    eprintln!("\naver: {GATE}\n  -> {verdict}");
    assert!(verdict.passed, "trace gate failed: {verdict}");

    let mut before_table = Table::new(columns());
    let mut before = Value::empty_map();
    for (template, steps, svg_bytes) in BEFORE {
        before_table.push_row(row(template, steps, svg_bytes)).unwrap();
        before.insert(template, point(steps, svg_bytes));
    }
    let before_verdict = popper_aver::check(GATE, &before_table).expect("gate evaluates");
    assert!(!before_verdict.passed, "the before figures pass the gate: {before_verdict}");

    let mut report = Value::empty_map();
    report.insert("bench", Value::from("trace_cost_by_step"));
    report.insert("unit", Value::from("ms_wall"));
    report.insert("host_cores", Value::from(host_cores as i64));
    report.insert("statistic", Value::from(format!("median of {REPEATS}")));
    report.insert("command", Value::from("popper trace e --no-cache on a new repository"));
    report.insert("before", before);
    report.insert("after", after);
    report.insert("assertion", Value::from(GATE));
    report.insert("before_verdict", Value::from(format!("{before_verdict}")));
    report.insert("verdict", Value::from(format!("{verdict}")));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    std::fs::write(path, json::to_string_pretty(&report) + "\n").unwrap();
    eprintln!("wrote {path}\n");
}

fn bench_timeline(c: &mut Criterion) {
    let dir = repository("gassyfs", "criterion");
    popper(&dir, &["trace", "e", "--no-cache"]);
    let json = std::fs::read_to_string(dir.join("experiments/e/trace.json")).unwrap();
    let events = popper_trace::parse_chrome_trace(&json).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let mut group = c.benchmark_group("trace");
    group.sample_size(10);
    group.bench_function("timeline_svg/gassyfs", |b| {
        b.iter(|| criterion::black_box(popper_trace::timeline_svg(&events)));
    });
    group.finish();
}

criterion_group!(benches, bench_timeline);

fn main() {
    print_and_commit();
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
