//! Lifecycle parity across the staged-pipeline refactor.
//!
//! The four experiment lifecycles (`run`, `trace`, `chaos`,
//! `trace-diff`) now execute as stage compositions over one
//! `Pipeline`/`RunContext` engine. This suite proves the refactor is
//! invisible where it must be and an improvement where it should be:
//!
//! * committed artifacts are byte-identical to the pre-refactor
//!   drivers' output, pinned in `tests/golden/` (one experiment per
//!   mode; wall-domain `trace.json` is checked structurally instead);
//! * a failing stage leaves **no partial commit** in any mode — the
//!   `ArtifactSet` buffers artifact bytes in memory and the record
//!   stage commits them as one atomic unit, so an error mid-record
//!   leaves the working tree exactly as the last commit left it.

use popper::cli::run;
use popper::core::{templates::find_template, ExperimentEngine, PopperRepo};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-parity-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn golden(mode: &str, name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(mode).join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| {
        panic!("missing golden {p:?} (regenerate with `cargo test --test golden_regen -- --ignored`): {e}")
    })
}

/// Short commit ids (newest first) whose log line contains `needle`.
fn commits_matching(log: &str, needle: &str) -> Vec<String> {
    log.lines()
        .filter(|l| l.contains(needle))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

// ---------------------------------------------------------------- goldens

#[test]
fn run_mode_artifacts_match_pre_refactor_goldens() {
    let mut repo = PopperRepo::init("golden").unwrap();
    for (path, contents) in find_template("ceph-rados").unwrap().files("e") {
        repo.write(&path, contents).unwrap();
    }
    repo.commit("popper add ceph-rados e").unwrap();
    let report = ExperimentEngine::new().run(&mut repo, "e").unwrap();
    assert!(report.success(), "{report}");
    for (artifact, mode_file) in [
        ("experiments/e/results.csv", "results.csv"),
        ("experiments/e/figure.txt", "figure.txt"),
        ("experiments/e/datasets/baseline.csv", "baseline.csv"),
    ] {
        assert_eq!(
            repo.read(artifact).unwrap(),
            golden("run", mode_file),
            "{artifact} drifted from the pre-refactor bytes"
        );
    }
    assert!(repo.vcs.status().unwrap().is_empty(), "artifacts must be committed");
}

#[test]
fn trace_mode_artifacts_match_goldens_and_cover_every_stage() {
    let dir = temp_dir("trace");
    run(&["init"], &dir).unwrap();
    run(&["add", "ceph-rados", "e"], &dir).unwrap();
    run(&["trace", "e"], &dir).unwrap();
    for name in ["results.csv", "figure.txt"] {
        assert_eq!(
            fs::read_to_string(dir.join("experiments/e").join(name)).unwrap(),
            golden("trace", name),
            "{name} drifted from the pre-refactor bytes"
        );
    }
    // trace.json is wall-domain (not byte-stable): check the staged
    // lifecycle structurally — a run-level span plus all five stages.
    let json = fs::read_to_string(dir.join("experiments/e/trace.json")).unwrap();
    let events = popper::trace::parse_chrome_trace(&json).unwrap();
    assert!(events.iter().any(|e| e.track == "core/lifecycle" && e.name == "run e"));
    for stage in ["sanitize", "orchestrate", "execute", "record", "validate"] {
        assert!(
            events.iter().any(|e| e.track == "core/lifecycle" && e.name == stage),
            "missing stage span '{stage}'"
        );
    }
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "{status}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_mode_artifacts_match_pre_refactor_goldens() {
    let dir = temp_dir("chaos");
    run(&["init"], &dir).unwrap();
    run(&["add", "gassyfs", "g"], &dir).unwrap();
    run(&["chaos", "g", "--schedule", "node-crash", "--seed", "7"], &dir).unwrap();
    for name in ["chaos-results.csv", "faults.json", "recovery.json", "chaos-figure.txt"] {
        assert_eq!(
            fs::read_to_string(dir.join("experiments/g").join(name)).unwrap(),
            golden("chaos", name),
            "{name} drifted from the pre-refactor bytes"
        );
    }
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "{status}");
    fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------- one driver, one recording

/// The committed `trace.svg` draws the committed `trace.json`.
fn assert_trace_pair_is_one_recording(dir: &Path, experiment: &str) {
    let json = fs::read_to_string(dir.join("experiments").join(experiment).join("trace.json")).unwrap();
    let svg = fs::read_to_string(dir.join("experiments").join(experiment).join("trace.svg")).unwrap();
    let events = popper::trace::parse_chrome_trace(&json).unwrap();
    assert!(svg == popper::trace::timeline_svg(&events), "trace.svg does not draw trace.json");
}

/// The files a lifecycle left under `experiments/<experiment>/`.
fn experiment_files(dir: &Path, experiment: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir.join("experiments").join(experiment))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Run `steps` as the repository's only CI job.
fn run_ci_job(dir: &Path, steps: &str, matrix: &str) {
    let pml = format!("stages: [check]\njobs:\n  - name: check\n    stage: check\n{matrix}    steps: [{steps}]\n");
    fs::write(dir.join(".popper-ci.pml"), pml).unwrap();
    run(&["commit", "one CI job"], dir).unwrap();
    run(&["ci"], dir).unwrap();
}

/// CI records what a human records: the self-checks re-record the trace
/// pair from one recording, and `run-chaos` leaves the artifacts
/// `popper chaos` leaves.
#[test]
fn ci_lifecycle_steps_record_what_the_cli_records() {
    let dir = temp_dir("ci-trace-pair");
    run(&["init"], &dir).unwrap();
    run(&["add", "ceph-rados", "e"], &dir).unwrap();
    run(&["trace", "e"], &dir).unwrap();
    run_ci_job(&dir, "memo-selfcheck e, trace-diff-selfcheck e", "");
    assert_trace_pair_is_one_recording(&dir, "e");
    fs::remove_dir_all(&dir).ok();

    let human = temp_dir("chaos-human");
    run(&["init"], &human).unwrap();
    run(&["add", "jupyter-bww", "w"], &human).unwrap();
    run(&["chaos", "w", "--schedule", "node-crash", "--seed", "7"], &human).unwrap();
    let ci = temp_dir("chaos-ci");
    run(&["init"], &ci).unwrap();
    run(&["add", "jupyter-bww", "w"], &ci).unwrap();
    run_ci_job(&ci, "run-chaos w", "    matrix:\n      schedule: [node-crash]\n      seed: [\"7\"]\n");
    assert_eq!(experiment_files(&ci, "w"), experiment_files(&human, "w"));
    assert_trace_pair_is_one_recording(&ci, "w");
    for dir in [human, ci] {
        let status = run(&["status"], &dir).unwrap();
        assert!(status.contains("working tree clean"), "{status}");
        fs::remove_dir_all(&dir).ok();
    }
}

// ------------------------------------------------- commit atomicity

/// A record-stage error (the figure spec names a column the results
/// don't have) must leave the repository exactly as the last commit
/// left it: no artifact written, no dirty tree, in run mode…
#[test]
fn erroring_record_stage_leaves_no_partial_commit_in_run_mode() {
    let dir = temp_dir("atomic-run");
    run(&["init"], &dir).unwrap();
    run(&["add", "jupyter-bww", "w"], &dir).unwrap();
    let vars = fs::read_to_string(dir.join("experiments/w/vars.pml")).unwrap();
    fs::write(dir.join("experiments/w/vars.pml"), vars.replace("x: lat", "x: nope")).unwrap();
    run(&["commit", "break the figure spec"], &dir).unwrap();

    let err = run(&["run", "w"], &dir).unwrap_err();
    assert!(err.contains("nope"), "{err}");
    assert!(!dir.join("experiments/w/results.csv").exists(), "no partial artifact");
    assert!(!dir.join("experiments/w/figure.txt").exists());
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "{status}");
    fs::remove_dir_all(&dir).ok();
}

/// …and in trace mode, where the trace artifacts must not be recorded
/// either when the pipeline under them errored.
#[test]
fn erroring_record_stage_leaves_no_partial_commit_in_trace_mode() {
    let dir = temp_dir("atomic-trace");
    run(&["init"], &dir).unwrap();
    run(&["add", "jupyter-bww", "w"], &dir).unwrap();
    let vars = fs::read_to_string(dir.join("experiments/w/vars.pml")).unwrap();
    fs::write(dir.join("experiments/w/vars.pml"), vars.replace("x: lat", "x: nope")).unwrap();
    run(&["commit", "break the figure spec"], &dir).unwrap();

    let err = run(&["trace", "w"], &dir).unwrap_err();
    assert!(err.contains("nope"), "{err}");
    for artifact in ["results.csv", "figure.txt", "trace.json", "trace.svg"] {
        assert!(!dir.join("experiments/w").join(artifact).exists(), "no partial {artifact}");
    }
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "{status}");
    fs::remove_dir_all(&dir).ok();
}

/// A schedule-stage error (unknown schedule name) aborts chaos mode
/// before anything is staged; a *failing* chaos gate still commits the
/// evidence (a failed experiment is a result too) and leaves the tree
/// clean.
#[test]
fn chaos_mode_stage_failures_leave_the_tree_clean() {
    let dir = temp_dir("atomic-chaos");
    run(&["init"], &dir).unwrap();
    run(&["add", "gassyfs", "g"], &dir).unwrap();

    let err = run(&["chaos", "g", "--schedule", "warp"], &dir).unwrap_err();
    assert!(err.contains("unknown fault schedule"), "{err}");
    assert!(!dir.join("experiments/g/faults.json").exists(), "no partial artifact");
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "{status}");

    fs::write(dir.join("experiments/g/chaos.aver"), "expect max(recovery_ms) < 1\n").unwrap();
    run(&["commit", "impossible recovery bound"], &dir).unwrap();
    let err = run(&["chaos", "g", "--schedule", "node-crash", "--seed", "7"], &dir).unwrap_err();
    assert!(err.contains("FAILED"), "{err}");
    assert!(dir.join("experiments/g/faults.json").exists(), "evidence is committed");
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "{status}");
    fs::remove_dir_all(&dir).ok();
}

/// A failing trace-diff gate records the divergence report (committed,
/// clean tree) and re-running the same diff is idempotent: the compare
/// stage commits `IfChanged`, so no second commit lands.
#[test]
fn trace_diff_gate_failure_is_clean_and_idempotent() {
    let dir = temp_dir("atomic-diff");
    run(&["init"], &dir).unwrap();
    run(&["add", "ceph-rados", "e"], &dir).unwrap();
    run(&["trace", "e"], &dir).unwrap();
    run(&["trace", "e"], &dir).unwrap();
    let log = run(&["log"], &dir).unwrap();
    let recs = commits_matching(&log, "popper trace e: record trace");
    assert!(recs.len() >= 2, "{log}");
    let pair = format!("{}..{}", recs[1], recs[0]);

    fs::write(dir.join("experiments/e/trace.aver"), "expect count(structural) = 99\n").unwrap();
    run(&["commit", "impossible trace gate"], &dir).unwrap();

    let err = run(&["trace-diff", "e", &pair, "--structure-only"], &dir).unwrap_err();
    assert!(err.contains("trace-diff.json"), "{err}");
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "{status}");

    // Same refs, same bytes: the re-run must not add a commit.
    let before = run(&["log"], &dir).unwrap();
    let _ = run(&["trace-diff", "e", &pair, "--structure-only"], &dir);
    assert_eq!(run(&["log"], &dir).unwrap(), before, "idempotent re-diff");
    fs::remove_dir_all(&dir).ok();
}
