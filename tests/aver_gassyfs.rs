//! L3 — Listing 3 of the paper: the Aver assertion guarding the
//! GassyFS scalability figure, exercised against the real (simulated)
//! experiment and against its persisted `results.csv` artifact.

use popper::aver;
use popper::format::Table;
use popper::gassyfs::experiment::{run_scalability, to_table, ScalabilityConfig, LISTING3_ASSERTION};
use popper::gassyfs::workload::CompileWorkload;
use popper::trace::{parse_chrome_trace, SpanId};
use std::collections::HashMap;
use std::path::PathBuf;

fn small_points() -> Vec<popper::gassyfs::ScalabilityPoint> {
    run_scalability(&ScalabilityConfig {
        node_counts: vec![1, 2, 4, 8],
        workload: CompileWorkload::small(),
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn listing_three_holds_on_the_real_experiment() {
    let points = small_points();
    let table = to_table(&points, "git", "cloudlab");
    let verdict = aver::check(LISTING3_ASSERTION, &table).unwrap();
    assert!(verdict.passed, "{verdict}");
    assert_eq!(verdict.assertions, 1);
    assert_eq!(verdict.groups, 1); // one (workload, machine) combination
}

#[test]
fn listing_three_groups_over_multiple_machines() {
    // The wildcard semantics: one verdict per (workload, machine).
    let mut table = to_table(&small_points(), "git", "cloudlab");
    let ec2 = to_table(&small_points(), "git", "ec2");
    table.append(&ec2).unwrap();
    let verdict = aver::check(LISTING3_ASSERTION, &table).unwrap();
    assert!(verdict.passed);
    assert_eq!(verdict.groups, 2);
}

#[test]
fn assertion_survives_the_results_csv_artifact() {
    // Validation runs against the *versioned artifact*, not in-memory
    // state: round-trip through CSV first.
    let table = to_table(&small_points(), "git", "cloudlab");
    let csv = table.to_csv();
    let loaded = Table::from_csv(&csv).unwrap();
    let verdict = aver::check(LISTING3_ASSERTION, &loaded).unwrap();
    assert!(verdict.passed);
}

#[test]
fn falsification_works() {
    // Karl Popper's demarcation criterion, applied: the assertion can
    // fail. Linear-or-worse degradation is rejected.
    let mut table = Table::new(["workload", "machine", "nodes", "time"]);
    for (n, t) in [(1, 100.0), (2, 210.0), (4, 460.0), (8, 1000.0)] {
        table
            .push_row(vec![
                popper::format::Value::from("git"),
                popper::format::Value::from("cloudlab"),
                popper::format::Value::from(n as i64),
                popper::format::Value::Num(t),
            ])
            .unwrap();
    }
    let verdict = aver::check(LISTING3_ASSERTION, &table).unwrap();
    assert!(!verdict.passed, "superlinear degradation must be rejected");
}

#[test]
fn mount_option_ablation_affects_the_curve_but_not_the_shape() {
    // The paper's motivation for Popperizing GassyFS is its huge
    // configuration space ("FUSE … more than 30 different options").
    // Ablate the page cache: slower everywhere, still sublinear.
    let cached = small_points();
    let uncached = run_scalability(&ScalabilityConfig {
        node_counts: vec![1, 2, 4, 8],
        workload: CompileWorkload::small(),
        mount: popper::gassyfs::MountOptions { page_cache_pages: 0, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    for (c, u) in cached.iter().zip(&uncached) {
        assert!(u.time_secs >= c.time_secs, "direct_io must not be faster (n={})", c.nodes);
    }
    let table = to_table(&uncached, "git", "cloudlab-direct-io");
    assert!(aver::check(LISTING3_ASSERTION, &table).unwrap().passed);
}

// ------------------------------------------------- pins of the full figure

/// A new repository holding the gassyfs template, default vars, as `e`.
fn gassyfs_repository(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-aver-gassyfs-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    popper::cli::run(&["init"], &dir).unwrap();
    popper::cli::run(&["add", "gassyfs", "e"], &dir).unwrap();
    dir
}

#[test]
fn default_sweep_results_csv_bytes_are_pinned() {
    let dir = gassyfs_repository("run");
    popper::cli::run(&["run", "e", "--no-cache"], &dir).unwrap();
    let csv = std::fs::read_to_string(dir.join("experiments/e/results.csv")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        csv,
        "workload,machine,nodes,time,remote_fraction,ops\n\
         git,gassyfs-node,1,0.913652188,0,8135\n\
         git,gassyfs-node,2,1.45615012,0.5,8135\n\
         git,gassyfs-node,4,1.726703158,0.7502883506343714,8135\n\
         git,gassyfs-node,8,1.861975114,0.8750480584390619,8135\n\
         git,gassyfs-node,16,1.92972147,0.9375240292195309,8135\n"
    );
}

#[test]
fn default_sweep_virtual_trace_events_are_pinned() {
    // The simulated fabric (`sim/`) and page-store RPC (`gassyfs/`)
    // tracks carry virtual-clock timestamps, so they are the same bytes
    // on every run; the wall-clock lifecycle tracks are left out. Span
    // ids are numbered by first appearance among the kept events, so
    // the pin does not depend on how many wall spans opened before.
    let dir = gassyfs_repository("trace");
    popper::cli::run(&["trace", "e", "--no-cache"], &dir).unwrap();
    let json = std::fs::read_to_string(dir.join("experiments/e/trace.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let events = parse_chrome_trace(&json).unwrap();
    let mut ids: HashMap<SpanId, usize> = HashMap::from([(SpanId::NONE, 0)]);
    let mut lines = String::new();
    let mut kept = 0usize;
    for e in events.iter().filter(|e| e.track.starts_with("sim/") || e.track.starts_with("gassyfs/")) {
        let next = ids.len();
        let id = *ids.entry(e.id).or_insert(next);
        let next = ids.len();
        let parent = *ids.entry(e.parent).or_insert(next);
        lines.push_str(&format!("{}|{}|{}|{:?}|{id}|{parent}\n", e.category, e.track, e.name, e.kind));
        kept += 1;
    }
    let digest = popper::vcs::sha256::to_hex(&popper::vcs::sha256::digest(lines.as_bytes()));
    assert_eq!(kept, 189_690);
    assert_eq!(digest, "588b721b4d107b070bdafd8a2c2a8ed152a73abbe7438107f5f54dd1e99c00e2");
}
