//! F2 — Figure `gassyfs-git`: GassyFS git-compile runtime vs cluster
//! size, plus the Listing-3 validation and the page-cache ablation.
//!
//! It also measures what replaying the figure costs, `REPEATS` times
//! each:
//!
//! * `run_ms`: `popper run e --no-cache` on a new repository holding
//!   the gassyfs template, in process through `popper_cli::run`;
//! * `sweep_ms`: `run_scalability(&ScalabilityConfig::default())`, the
//!   five-size sweep that command runs;
//! * `kept_bytes`: the bytes of page contents `GassyFs` keeps after one
//!   compile-git replay (the same at every cluster size). The replay
//!   reads only timing, so contents it keeps are waste.
//!
//! It writes the medians beside the same figures measured on the
//! commit before timing-only writes and the O(1) page cache (`BEFORE`)
//! to `BENCH_gassyfs.json` at the workspace root, and gates with Aver
//! on the deterministic figure: the replay keeps no page contents. The
//! before figures fail that gate.

use criterion::{criterion_group, BenchmarkId, Criterion};
use popper_format::{json, Table, Value};
use popper_gassyfs::experiment::{run_scalability, to_table, ScalabilityConfig, LISTING3_ASSERTION};
use popper_gassyfs::fs::{GassyFs, MountOptions};
use popper_gassyfs::workload::{run_compile, CompileWorkload};
use popper_sim::{platforms, Cluster};
use std::time::Instant;

const REPEATS: usize = 7;
const GATE: &str = "expect max(kept_bytes) <= 0";

/// Medians of `run_ms` and `sweep_ms`, and `kept_bytes`, measured with
/// this bench on 800f5f8, the commit before timing-only writes and the
/// O(1) page cache, on a shared 2-core host: the middle of three runs
/// by `run_ms`, alternated with runs of this commit. There every write
/// kept its contents, so `kept_bytes` is the bytes of the files the
/// replay writes (the bench, fitted to that commit, summed them).
const BEFORE: (f64, f64, f64) = (195.8, 191.6, 25_049_939.0);

fn print_figure() {
    eprintln!("{}", popper_bench::banner("Fig. gassyfs-git"));
    let config = ScalabilityConfig::default();
    let points = run_scalability(&config).expect("scalability sweep");
    eprintln!("{:>6} {:>12} {:>9}", "nodes", "time (s)", "remote %");
    for p in &points {
        eprintln!("{:>6} {:>12.3} {:>8.1}%", p.nodes, p.time_secs, p.remote_fraction * 100.0);
    }
    let table = to_table(&points, "git", &config.machine_label);
    let verdict = popper_aver::check(LISTING3_ASSERTION, &table).expect("assertion evaluates");
    eprintln!("\naver: {LISTING3_ASSERTION}\n  -> {verdict}");
    let degradation = points.last().unwrap().time_secs / points[0].time_secs;
    eprintln!("shape: {degradation:.2}x degradation over {}x nodes (sublinear)\n", points.last().unwrap().nodes);
}

fn bench_compile_by_nodes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gassyfs/compile_simulation");
    group.sample_size(10);
    for nodes in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &nodes| {
            let workload = CompileWorkload::small();
            b.iter(|| {
                let cluster = Cluster::new(platforms::gassyfs_node(), nodes);
                let mut fs = GassyFs::mount(cluster, MountOptions::default());
                criterion::black_box(run_compile(&mut fs, &workload).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_fs_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("gassyfs/fs_ops");
    group.sample_size(20);
    group.bench_function("write_read_1MiB", |b| {
        let data = vec![7u8; 1 << 20];
        b.iter(|| {
            let mut fs = GassyFs::mount(Cluster::new(platforms::gassyfs_node(), 4), MountOptions::default());
            let t = fs.write_file("/f", &data, popper_sim::Nanos::ZERO).unwrap();
            criterion::black_box(fs.read_timing("/f", t).unwrap())
        });
    });
    group.finish();
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// One `popper run e --no-cache` on a new gassyfs repository, in ms.
fn run_ms() -> f64 {
    let dir = std::env::temp_dir().join(format!("popper-gassyfs-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for argv in [&["init"][..], &["add", "gassyfs", "e"]] {
        popper_cli::run(argv, &dir).unwrap();
    }
    let started = Instant::now();
    popper_cli::run(&["run", "e", "--no-cache"], &dir).unwrap();
    let ms = ms_since(started);
    std::fs::remove_dir_all(&dir).ok();
    ms
}

fn sweep_ms() -> f64 {
    let started = Instant::now();
    criterion::black_box(run_scalability(&ScalabilityConfig::default()).unwrap());
    ms_since(started)
}

/// Page-content bytes kept after one compile-git replay.
fn kept_bytes() -> f64 {
    let mut fs = GassyFs::mount(Cluster::new(platforms::gassyfs_node(), 1), MountOptions::default());
    run_compile(&mut fs, &CompileWorkload::git()).unwrap();
    fs.content_bytes() as f64
}

fn point((run_ms, sweep_ms, kept_bytes): (f64, f64, f64)) -> (Table, Value) {
    let mut table = Table::new(["run_ms", "sweep_ms", "kept_bytes"]);
    table.push_row(vec![Value::from(run_ms), Value::from(sweep_ms), Value::from(kept_bytes)]).unwrap();
    let mut point = Value::empty_map();
    point.insert("run_ms", Value::from(run_ms));
    point.insert("sweep_ms", Value::from(sweep_ms));
    point.insert("kept_bytes", Value::from(kept_bytes));
    (table, point)
}

fn print_and_commit_cost() {
    eprintln!("{}", popper_bench::banner("gassyfs: what replaying the figure costs"));
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let run = median((0..REPEATS).map(|_| run_ms()).collect());
    let sweep = median((0..REPEATS).map(|_| sweep_ms()).collect());
    let kept = kept_bytes();
    let (table, after) = point((run, sweep, kept));
    let (before_table, before) = point(BEFORE);
    eprintln!("{:<12} {:>12} {:>12}", "", "before", "after");
    eprintln!("{:<12} {:>9.1} ms {:>9.1} ms", "run_ms", BEFORE.0, run);
    eprintln!("{:<12} {:>9.1} ms {:>9.1} ms", "sweep_ms", BEFORE.1, sweep);
    eprintln!("{:<12} {:>12} {:>12}", "kept_bytes", BEFORE.2, kept);
    let verdict = popper_aver::check(GATE, &table).expect("gate evaluates");
    eprintln!("\naver: {GATE}\n  -> {verdict}");
    assert!(verdict.passed, "gassyfs gate failed: {verdict}");
    let before_verdict = popper_aver::check(GATE, &before_table).expect("gate evaluates");
    assert!(!before_verdict.passed, "the before figures pass the gate: {before_verdict}");

    let mut report = Value::empty_map();
    report.insert("bench", Value::from("gassyfs_replay_cost"));
    report.insert("unit", Value::from("ms_wall"));
    report.insert("host_cores", Value::from(host_cores as i64));
    report.insert("statistic", Value::from(format!("median of {REPEATS}")));
    report.insert("command", Value::from("popper run e --no-cache on a new repository of the gassyfs template"));
    report.insert("speedup_run", Value::from(BEFORE.0 / run));
    report.insert("speedup_sweep", Value::from(BEFORE.1 / sweep));
    report.insert("before", before);
    report.insert("after", after);
    report.insert("assertion", Value::from(GATE));
    report.insert("before_verdict", Value::from(format!("{before_verdict}")));
    report.insert("verdict", Value::from(format!("{verdict}")));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gassyfs.json");
    std::fs::write(path, json::to_string_pretty(&report) + "\n").unwrap();
    eprintln!("wrote {path}\n");
}

criterion_group!(benches, bench_compile_by_nodes, bench_fs_ops);

fn main() {
    print_figure();
    print_and_commit_cost();
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
