//! `popper trace` cost by step: what recording a trace costs beyond
//! the run it records.
//!
//! For gassyfs and mpi-comm-variability, the two templates whose traces
//! hold about 190k and 216k events, the bench times, `REPEATS` times
//! each on a new repository (`init` + `add`):
//!
//! * `wall_ms`: `popper trace e --no-cache` end to end, in process
//!   through `popper_cli::run`;
//! * `record_ms`: the experiment's pipeline run with a recorder
//!   attached minus the same pipeline run without one, each on a new
//!   repository: what recording the events costs the run;
//! * the steps of that command after its pipeline, replayed through the
//!   library on the traced repository: `drain_ms` (drain the recorder),
//!   `json_ms` (`chrome_trace_json`), `svg_ms` (`timeline_svg`),
//!   `summary_ms` (`summary_table`), `render_ms` (the drain plus the
//!   render as the command does it, the JSON on a thread beside the
//!   timeline and summary), `commit_ms` and `save_ms`;
//! * `svg_bytes`, the size of the `trace.svg` it records, and `labels`,
//!   the distinct tracks and names of the recording.
//!
//! It writes the medians beside the figures of the commit before
//! interned labels (`BEFORE`) to `BENCH_trace.json` at the workspace
//! root, and gates with Aver: no `trace.svg` is larger than 1 MB, and
//! no recording holds more than 256 distinct labels, which a call site
//! that minted a track or name per event would break.

use criterion::{criterion_group, Criterion};
use popper_core::{CommitPolicy, RunContext};
use popper_format::{json, Table, Value};
use popper_trace::TraceRecorder;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

const TEMPLATES: &[&str] = &["gassyfs", "mpi-comm-variability"];
const REPEATS: usize = 5;
const GATE: &str = "expect max(svg_bytes) <= 1000000; expect max(labels) <= 256";
const AUTHOR: &str = "bench <bench@popper>";

/// The timed columns, in the order a sample lists them.
const STEPS: [&str; 9] =
    ["wall_ms", "record_ms", "drain_ms", "json_ms", "svg_ms", "summary_ms", "render_ms", "commit_ms", "save_ms"];

/// The counted columns, in the order a sample lists them.
const COUNTS: [&str; 2] = ["svg_bytes", "labels"];

/// One sample: `STEPS` in ms, then `COUNTS`.
type Sample = ([f64; 9], [f64; 2]);

/// Medians of `STEPS` and `COUNTS` per template, measured with this
/// bench on the commit before interned labels (one owned `String` per
/// track and name of every event, a stable sort comparing them in the
/// drain, a binary search over the sorted tracks per exported event) on
/// a shared 2-core host, alternated run by run with this commit: the
/// middle of three runs by `wall_ms`.
const BEFORE: [(&str, Sample); 2] = [
    ("gassyfs", ([383.45, 49.47, 74.28, 83.66, 69.10, 23.99, 168.64, 22.60, 41.67], [117_910.0, 96.0])),
    ("mpi-comm-variability", ([374.60, 63.17, 91.59, 103.73, 75.65, 23.15, 200.89, 27.41, 32.34], [195_662.0, 72.0])),
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

/// The experiment's pipeline on a new repository, untraced: its ms.
fn untraced_pipeline_ms(template: &str) -> f64 {
    let dir = repository(template, "untraced");
    let mut repo = popper_cli::persist::load(&dir, AUTHOR).unwrap();
    let engine = popper_cli::runners::full_engine();
    let mut ctx = RunContext::for_experiment(&repo, "e").unwrap();
    let started = Instant::now();
    engine.run_pipeline(&mut repo, &mut ctx).unwrap();
    let ms = ms_since(started);
    std::fs::remove_dir_all(&dir).ok();
    ms
}

/// One sample of `template`.
fn sample(template: &str) -> Sample {
    let dir = repository(template, "cli");
    let started = Instant::now();
    popper(&dir, &["trace", "e", "--no-cache"]);
    let wall = ms_since(started);
    let svg_bytes = std::fs::metadata(dir.join("experiments/e/trace.svg")).unwrap().len() as f64;
    std::fs::remove_dir_all(&dir).ok();

    let untraced = untraced_pipeline_ms(template);
    // The command's steps, replayed on a repository of its own.
    let dir = repository(template, "steps");
    let mut repo = popper_cli::persist::load(&dir, AUTHOR).unwrap();
    let engine = popper_cli::runners::full_engine();
    let mut ctx = RunContext::for_experiment(&repo, "e").unwrap().with_recorder(TraceRecorder::new());
    let started = Instant::now();
    engine.run_pipeline(&mut repo, &mut ctx).unwrap();
    let record = ms_since(started) - untraced;
    let mut artifacts = std::mem::take(&mut ctx.artifacts);
    let started = Instant::now();
    let events = ctx.finish_recording().unwrap();
    let drain = ms_since(started);
    let labels: HashSet<&str> = events.iter().flat_map(|e| [e.track.as_str(), e.name.as_str()]).collect();
    let labels = labels.len() as f64;
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
    ([wall, record, drain, json, svg, summary, render, commit, save], [svg_bytes, labels])
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The columns of one sample, paired with their names.
fn named((steps, counts): Sample) -> impl Iterator<Item = (&'static str, f64)> {
    STEPS.into_iter().zip(steps).chain(COUNTS.into_iter().zip(counts))
}

/// A sample as a JSON map.
fn point(sample: Sample) -> Value {
    let mut point = Value::empty_map();
    for (name, value) in named(sample) {
        point.insert(name, Value::from(value));
    }
    point
}

fn columns() -> Vec<String> {
    std::iter::once("template").chain(STEPS).chain(COUNTS).map(str::to_string).collect()
}

fn row(template: &str, sample: Sample) -> Vec<Value> {
    std::iter::once(Value::from(template)).chain(named(sample).map(|(_, value)| Value::from(value))).collect()
}

fn print_and_commit() {
    eprintln!("{}", popper_bench::banner("trace: popper trace cost by step"));
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut table = Table::new(columns());
    let mut after = Value::empty_map();
    for template in TEMPLATES {
        let samples: Vec<Sample> = (0..REPEATS).map(|_| sample(template)).collect();
        for s in &samples {
            table.push_row(row(template, *s)).unwrap();
        }
        let steps = std::array::from_fn(|i| median(&samples.iter().map(|s| s.0[i]).collect::<Vec<_>>()));
        let counts = std::array::from_fn(|i| median(&samples.iter().map(|s| s.1[i]).collect::<Vec<_>>()));
        for (name, value) in named((steps, counts)) {
            eprintln!("{template:<22} {name:<14} {value:>12.2}");
        }
        after.insert(*template, point((steps, counts)));
    }
    let verdict = popper_aver::check(GATE, &table).expect("gate evaluates");
    eprintln!("\naver: {GATE}\n  -> {verdict}");
    assert!(verdict.passed, "trace gate failed: {verdict}");

    let mut before_table = Table::new(columns());
    let mut before = Value::empty_map();
    for (template, sample) in BEFORE {
        before_table.push_row(row(template, sample)).unwrap();
        before.insert(template, point(sample));
    }
    let before_verdict = popper_aver::check(GATE, &before_table).expect("gate evaluates");

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
