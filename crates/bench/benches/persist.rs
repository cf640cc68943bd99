//! Persistence cost by bytes touched: a command on a worktree that
//! holds large, untouched artifacts should cost about what it costs
//! without them.
//!
//! The bench builds two Popper repositories with the four paper
//! templates (torpor, gassyfs, mpi-comm-variability, jupyter-bww): an
//! untraced one, and a traced one where `popper trace --no-cache` of
//! each left its `trace.json`/`trace.svg` versioned in the worktree. On
//! each it times, in process through `popper_cli::run`, `run torpor
//! --no-cache`, `status` and `trace jupyter-bww`, `REPEATS` times, the
//! two worktrees in turn so that disk noise falls on both. It writes the
//! medians beside the figures this bench measured on the commit before
//! the stat cache (`BEFORE`) to `BENCH_persist.json` at the workspace
//! root, and gates with Aver: `run` on the traced worktree costs at most
//! three times its untraced cost. `status` has no such gate: it verifies
//! every blob it calls clean, so it reads the traces by design.

use criterion::{criterion_group, Criterion};
use popper_format::{json, Table, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

const TEMPLATES: &[&str] = &["torpor", "gassyfs", "mpi-comm-variability", "jupyter-bww"];
const REPEATS: usize = 9;
const GATE: &str = "expect median(run_traced_ms) <= 3 * median(run_untraced_ms)";
const WORKTREES: [&str; 2] = ["untraced", "traced"];

/// The timed commands, by the name of their column stem.
const COMMANDS: &[(&str, &[&str])] = &[
    ("run", &["run", "torpor", "--no-cache"]),
    ("status", &["status"]),
    ("trace", &["trace", "jupyter-bww"]),
];

/// Medians in ms of `run`, `status` and `trace` on the untraced and the
/// traced worktree, measured with this bench on 01be227 (before the
/// stat cache and the blob-id tree diff) on a shared 2-core host: each
/// the middle of three runs' medians.
const BEFORE: [(&str, [f64; 3]); 2] = [("untraced", [3.21, 1.35, 2.82]), ("traced", [102.49, 269.48, 111.99])];

fn popper(dir: &Path, argv: &[&str]) -> String {
    popper_cli::run(argv, dir).unwrap_or_else(|e| panic!("popper {}: {e}", argv.join(" ")))
}

/// A new repository with the four templates added, traced or not.
fn worktree(traced: bool) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("popper-persist-bench-{}-{traced}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    popper(&dir, &["init"]);
    for tpl in TEMPLATES {
        popper(&dir, &["add", tpl, tpl]);
    }
    if traced {
        for tpl in TEMPLATES {
            popper(&dir, &["trace", tpl, "--no-cache"]);
        }
    }
    dir
}

/// Bytes of the worktree files, `.popper` left out.
fn worktree_mb(dir: &Path) -> f64 {
    fn walk(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name() != ".popper")
            .map(|e| {
                let meta = e.metadata().unwrap();
                if meta.is_dir() {
                    walk(&e.path())
                } else {
                    meta.len()
                }
            })
            .sum()
    }
    walk(dir) as f64 / 1e6
}

/// `REPEATS` wall times in ms of each command in each of `dirs`, by
/// worktree, then command.
fn time_commands(dirs: &[PathBuf]) -> Vec<Vec<Vec<f64>>> {
    let mut samples = vec![vec![Vec::new(); COMMANDS.len()]; dirs.len()];
    for _ in 0..REPEATS {
        for (c, (_, argv)) in COMMANDS.iter().enumerate() {
            for (w, dir) in dirs.iter().enumerate() {
                let started = Instant::now();
                popper(dir, argv);
                samples[w][c].push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    samples
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn print_and_commit() {
    eprintln!("{}", popper_bench::banner("persist: cost by bytes touched"));
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut table = Table::new(
        WORKTREES.iter().flat_map(|w| COMMANDS.iter().map(move |(c, _)| format!("{c}_{w}_ms"))).collect::<Vec<_>>(),
    );
    let dirs = [worktree(false), worktree(true)];
    let mut sizes = Value::empty_map();
    for (label, dir) in WORKTREES.iter().zip(&dirs) {
        sizes.insert(*label, Value::from(worktree_mb(dir)));
    }
    let samples = time_commands(&dirs);
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    let mut after = Value::empty_map();
    for (label, by_command) in WORKTREES.iter().zip(&samples) {
        let mut point = Value::empty_map();
        for ((name, argv), times) in COMMANDS.iter().zip(by_command) {
            eprintln!("{label:<9} popper {:<24} {:>9.2} ms", argv.join(" "), median(times));
            point.insert(format!("{name}_ms"), Value::from(median(times)));
        }
        after.insert(*label, point);
    }
    // One row per repeat, the columns in the table's order.
    let columns: Vec<&Vec<f64>> = samples.iter().flatten().collect();
    for row in 0..REPEATS {
        table.push_row(columns.iter().map(|times| Value::from(times[row])).collect()).unwrap();
    }
    let verdict = popper_aver::check(GATE, &table).expect("gate evaluates");
    eprintln!("\naver: {GATE}\n  -> {verdict}");
    assert!(verdict.passed, "persist gate failed: {verdict}");

    let mut before = Value::empty_map();
    for (label, medians) in BEFORE {
        let mut point = Value::empty_map();
        for ((name, _), ms) in COMMANDS.iter().zip(medians) {
            point.insert(format!("{name}_ms"), Value::from(ms));
        }
        before.insert(label, point);
    }
    let mut report = Value::empty_map();
    report.insert("bench", Value::from("persist_cost_by_bytes_touched"));
    report.insert("unit", Value::from("ms_wall"));
    report.insert("host_cores", Value::from(host_cores as i64));
    report.insert("statistic", Value::from(format!("median of {REPEATS}")));
    report.insert("commands", Value::from("run torpor --no-cache; status; trace jupyter-bww"));
    report.insert("worktree_mb", sizes);
    report.insert("before", before);
    report.insert("after", after);
    report.insert("assertion", Value::from(GATE));
    report.insert("verdict", Value::from(format!("{verdict}")));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(path, json::to_string_pretty(&report) + "\n").unwrap();
    eprintln!("wrote {path}\n");
}

fn bench_traced_run(c: &mut Criterion) {
    let dir = worktree(true);
    let mut group = c.benchmark_group("persist");
    group.sample_size(10);
    group.bench_function("run_torpor_no_cache/traced", |b| {
        b.iter(|| criterion::black_box(popper(&dir, &["run", "torpor", "--no-cache"])));
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_traced_run);

fn main() {
    print_and_commit();
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
