//! L2 — Listing 2 of the paper: the `popper` CLI session, against the
//! real filesystem.

use popper::cli::run;
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-it-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn listing_two_end_to_end() {
    let dir = temp_dir("l2");

    // $ popper init
    let out = run(&["init"], &dir).unwrap();
    assert!(out.contains("-- Initialized Popper repo"));

    // $ popper experiment list — all nine Listing-2 templates.
    let out = run(&["experiment", "list"], &dir).unwrap();
    for name in [
        "ceph-rados",
        "proteustm",
        "mpi-comm-variability",
        "cloverleaf",
        "gassyfs",
        "zlog",
        "spark-standalone",
        "torpor",
        "malacology",
    ] {
        assert!(out.contains(name), "template listing missing {name}:\n{out}");
    }

    // $ popper add torpor myexp
    run(&["add", "torpor", "myexp"], &dir).unwrap();
    for file in ["run.sh", "vars.pml", "setup.pml", "validations.aver"] {
        assert!(dir.join("experiments/myexp").join(file).is_file(), "missing {file}");
    }

    // Run + validate through the CLI; artifacts land on disk.
    let out = run(&["run", "myexp"], &dir).unwrap();
    assert!(out.contains("OK"), "{out}");
    let csv = fs::read_to_string(dir.join("experiments/myexp/results.csv")).unwrap();
    assert!(csv.starts_with("base,target,stressor,speedup"));
    let out = run(&["validate", "myexp"], &dir).unwrap();
    assert!(out.contains("PASS"));

    // The history is a lab notebook.
    let out = run(&["log"], &dir).unwrap();
    assert!(out.contains("popper init"));
    assert!(out.contains("popper add torpor myexp"));
    assert!(out.contains("record results"));

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn reviewer_reexecution_workflow() {
    // Fig. `review-workflow`: a reviewer clones (here: re-loads) the
    // repo and re-executes; results regenerate identically because the
    // whole pipeline is deterministic.
    let dir = temp_dir("review");
    run(&["init"], &dir).unwrap();
    run(&["add", "cloverleaf", "hydro"], &dir).unwrap();
    run(&["run", "hydro"], &dir).unwrap();
    let original = fs::read_to_string(dir.join("experiments/hydro/results.csv")).unwrap();

    // "Reviewer" re-runs on their (identical) platform model.
    run(&["run", "hydro"], &dir).unwrap();
    let reexecuted = fs::read_to_string(dir.join("experiments/hydro/results.csv")).unwrap();
    assert_eq!(original, reexecuted, "re-execution must reproduce results exactly");

    // And validation still holds on the re-executed results.
    let out = run(&["validate", "hydro"], &dir).unwrap();
    assert!(out.contains("PASS"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn ci_from_the_cli_is_green_then_red_on_broken_validation() {
    let dir = temp_dir("ci");
    run(&["init"], &dir).unwrap();
    run(&["add", "zlog", "z"], &dir).unwrap();
    // Extend the pipeline to run the experiment.
    fs::write(
        dir.join(".popper-ci.pml"),
        "stages: [lint, test]\n\
         jobs:\n\
         \x20 - name: lint\n\
         \x20   stage: lint\n\
         \x20   steps: [check-compliance, validate-playbooks]\n\
         \x20 - name: exp\n\
         \x20   stage: test\n\
         \x20   steps: [run-experiment z, validate z]\n",
    )
    .unwrap();
    run(&["commit", "extend pipeline"], &dir).unwrap();
    let out = run(&["ci", "--workers=2"], &dir).unwrap();
    assert!(out.contains("build: passing"), "{out}");

    // Break the validation criteria: CI must catch it.
    fs::write(dir.join("experiments/z/validations.aver"), "expect max(y) < 0\n").unwrap();
    run(&["commit", "impossible expectation"], &dir).unwrap();
    let err = run(&["ci", "--workers=2"], &dir).unwrap_err();
    assert!(err.contains("build: failing"), "{err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn init_keeps_files_already_in_the_directory() {
    let dir = temp_dir("init-nonempty");
    fs::write(dir.join("data.csv"), "x\n1\n").unwrap();
    run(&["init"], &dir).unwrap();
    assert_eq!(fs::read_to_string(dir.join("data.csv")).unwrap(), "x\n1\n");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkout_deletes_files_only_the_branch_left_tracks() {
    let dir = temp_dir("checkout");
    run(&["init"], &dir).unwrap();
    run(&["branch", "feature"], &dir).unwrap();
    run(&["add", "torpor", "t"], &dir).unwrap();
    fs::write(dir.join("notes.txt"), "untracked\n").unwrap();

    run(&["checkout", "main"], &dir).unwrap();
    assert!(!dir.join("experiments/t").exists(), "feature-only files stay on disk after checkout main");
    let status = run(&["status"], &dir).unwrap();
    assert!(!status.contains("experiments/t"), "{status}");
    // A file the repository never tracked is the user's: left alone.
    assert_eq!(fs::read_to_string(dir.join("notes.txt")).unwrap(), "untracked\n");

    run(&["checkout", "feature"], &dir).unwrap();
    assert!(dir.join("experiments/t/run.sh").is_file());
    fs::remove_dir_all(&dir).ok();
}

/// Byte ranges of the `object` bodies in a `.popper/state` file: each
/// field is `<tag> <len>\n<body>\n`.
fn object_bodies(state: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut pos = state.iter().position(|&b| b == b'\n').unwrap() + 1; // magic line
    let mut out = Vec::new();
    while pos < state.len() {
        let nl = pos + state[pos..].iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&state[pos..nl]).unwrap();
        let (tag, len) = header.split_once(' ').unwrap();
        let body = nl + 1..nl + 1 + len.parse::<usize>().unwrap();
        pos = body.end + 1;
        if tag == "object" {
            out.push(body);
        }
    }
    out
}

#[test]
fn a_flipped_byte_in_any_stored_object_is_reported_not_accepted() {
    let dir = temp_dir("corrupt");
    run(&["init"], &dir).unwrap();
    let state_file = dir.join(".popper/state");
    let clean = fs::read(&state_file).unwrap();
    let bodies = object_bodies(&clean);
    // Every object of a fresh repository is reachable from HEAD.
    assert!(bodies.len() >= 8, "{} objects", bodies.len());
    for body in bodies {
        let mut state = clean.clone();
        state[body.start + body.len() / 2] ^= 0x20;
        fs::write(&state_file, &state).unwrap();
        let log = run(&["log"], &dir);
        let status = run(&["status"], &dir);
        assert!(
            log.is_err() || status.is_err(),
            "corrupt object at {body:?} accepted:\nlog: {log:?}\nstatus: {status:?}"
        );
    }
    fs::write(&state_file, &clean).unwrap();
    assert!(run(&["log"], &dir).is_ok() && run(&["status"], &dir).is_ok());
    fs::remove_dir_all(&dir).ok();
}
