//! popper trace-diff end to end: execution-provenance regression
//! gating over the CLI. Diffing a recorded trace against itself is
//! byte-stable with zero divergences; two recordings of the same source
//! state are structurally equivalent even though wall timings drift;
//! chaos runs with different seeds diverge, flag their fault instants,
//! and fail the gate (exit 1).

use popper::cli::run;
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-trace-diff-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Short commit ids (newest first) whose log line contains `needle`.
fn commits_matching(log: &str, needle: &str) -> Vec<String> {
    log.lines()
        .filter(|l| l.contains(needle))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn identical_and_repeated_recordings_are_equivalent() {
    let dir = temp_dir("equiv");
    run(&["init"], &dir).unwrap();
    run(&["add", "ceph-rados", "e"], &dir).unwrap();
    for _ in 0..3 {
        run(&["trace", "e"], &dir).unwrap();
    }
    let log = run(&["log"], &dir).unwrap();
    let recs = commits_matching(&log, "popper trace e: record trace");
    assert!(recs.len() >= 3, "{log}");

    // A commit diffed against itself: zero divergences, exit 0.
    let same = format!("{}..{}", recs[0], recs[0]);
    let out = run(&["trace-diff", "e", &same], &dir).unwrap();
    assert!(out.contains("EQUIVALENT"), "{out}");
    assert!(out.contains("trace-diff.json"), "{out}");
    let json = fs::read_to_string(dir.join("experiments/e/trace-diff.json")).unwrap();
    assert!(json.contains("\"divergences\": 0"), "{json}");
    assert!(json.contains("\"experiment\": \"e\""), "{json}");

    // Two independent recordings of the same source state: wall-clock
    // timings drift run to run, the span structure must not. (The
    // first-ever run also records the baseline fingerprint, so compare
    // the second and third recordings.)
    let pair = format!("{}..{}", recs[1], recs[0]);
    let out = run(&["trace-diff", "e", &pair, "--structure-only"], &dir).unwrap();
    assert!(out.contains("EQUIVALENT"), "{out}");

    // Re-running the same diff is idempotent: byte-stable artifacts
    // and no second recording commit.
    let txt = fs::read_to_string(dir.join("experiments/e/trace-diff.txt")).unwrap();
    run(&["trace-diff", "e", &pair, "--structure-only"], &dir).unwrap();
    assert_eq!(fs::read_to_string(dir.join("experiments/e/trace-diff.txt")).unwrap(), txt);
    let log = run(&["log"], &dir).unwrap();
    assert_eq!(commits_matching(&log, "popper trace-diff e").len(), 2, "{log}");
}

#[test]
fn chaos_schedules_diverge_and_fail_the_gate() {
    let dir = temp_dir("chaos");
    run(&["init"], &dir).unwrap();
    run(&["add", "gassyfs", "g"], &dir).unwrap();
    // The runs record their trace whether or not the system survived.
    let _ = run(&["chaos", "g", "--schedule", "node-crash", "--seed", "7"], &dir);
    let _ = run(&["chaos", "g", "--schedule", "slow-disk", "--seed", "7"], &dir);
    let log = run(&["log"], &dir).unwrap();
    let recs = commits_matching(&log, "popper chaos g: record trace");
    assert!(recs.len() >= 2, "{log}");

    let pair = format!("{}..{}", recs[1], recs[0]);
    let err = run(&["trace-diff", "g", &pair], &dir).unwrap_err();
    assert!(err.contains("DIVERGED"), "{err}");
    // The recorded diff names the diverging fault instants.
    let json = fs::read_to_string(dir.join("experiments/g/trace-diff.json")).unwrap();
    assert!(json.contains("fault-mismatch"), "{json}");
    assert!(json.contains("chaos"), "{json}");
}

/// This repository eats its own dog food: the root `.popper-ci.pml`
/// carries a trace-diff self-check job that runs this file.
#[test]
fn own_ci_config_has_trace_diff_selfcheck_job() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".popper-ci.pml");
    let text = fs::read_to_string(path).expect(".popper-ci.pml at the workspace root");
    let config = popper::ci::PipelineConfig::from_pml(&text).expect("config parses");
    let job = config.jobs.iter().find(|j| j.name == "trace-diff-selfcheck");
    let job = job.expect("missing CI job 'trace-diff-selfcheck'");
    let runs_target = |s: &String| s.split_whitespace().collect::<Vec<_>>().windows(2).any(|w| w == ["--test", "trace_diff"]);
    assert!(job.steps.iter().any(runs_target), "trace-diff-selfcheck does not run --test trace_diff");
}

#[test]
fn trace_diff_error_paths() {
    let dir = temp_dir("errors");
    run(&["init"], &dir).unwrap();
    run(&["add", "zlog", "z"], &dir).unwrap();
    // Range must be <refA>..<refB>.
    let err = run(&["trace-diff", "z", "main"], &dir).unwrap_err();
    assert!(err.contains("usage"), "{err}");
    // No recorded trace at either commit: a clear, actionable error.
    let err = run(&["trace-diff", "z", "main..main"], &dir).unwrap_err();
    assert!(err.contains("popper trace z"), "{err}");
    // Unknown ref.
    let err = run(&["trace-diff", "z", "ghost..main"], &dir).unwrap_err();
    assert!(err.contains("ghost"), "{err}");
}
