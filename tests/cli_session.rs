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
/// record is `<kind> <id> <len>\n<body>\n`.
fn object_bodies(state: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut pos = state.iter().position(|&b| b == b'\n').unwrap() + 1; // magic line
    let mut out = Vec::new();
    while pos < state.len() {
        let nl = pos + state[pos..].iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&state[pos..nl]).unwrap();
        let (tag, len) = (header.split(' ').next().unwrap(), header.rsplit(' ').next().unwrap());
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

#[test]
fn only_the_files_a_command_changed_are_written() {
    let dir = temp_dir("mtime");
    run(&["init"], &dir).unwrap();
    run(&["add", "torpor", "torpor"], &dir).unwrap();
    run(&["add", "gassyfs", "gassyfs"], &dir).unwrap();
    let untouched = dir.join("experiments/torpor/vars.pml");
    let past = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
    fs::File::options().write(true).open(&untouched).unwrap().set_modified(past).unwrap();

    run(&["run", "gassyfs"], &dir).unwrap();
    assert!(dir.join("experiments/gassyfs/results.csv").is_file());
    let mtime = fs::metadata(&untouched).unwrap().modified().unwrap();
    assert_eq!(mtime, past, "popper run gassyfs rewrote an unrelated tracked file");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkout_rewrites_a_file_the_branches_hold_differently() {
    let dir = temp_dir("checkout-rewrite");
    run(&["init"], &dir).unwrap();
    let main_readme = fs::read_to_string(dir.join("README.md")).unwrap();
    run(&["branch", "feature"], &dir).unwrap();
    fs::write(dir.join("README.md"), "# the feature branch's README\n").unwrap();
    run(&["commit", "feature readme"], &dir).unwrap();

    run(&["checkout", "main"], &dir).unwrap();
    assert_eq!(fs::read_to_string(dir.join("README.md")).unwrap(), main_readme);
    run(&["checkout", "feature"], &dir).unwrap();
    assert_eq!(fs::read_to_string(dir.join("README.md")).unwrap(), "# the feature branch's README\n");
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("-- working tree clean"), "{status}");
    fs::remove_dir_all(&dir).ok();
}

/// `.popper/state` byte for byte as the first `POPPER-STATE v1` encoder
/// wrote it: on `main`, commit "first" (tagged `v1`) adds `notes.txt`
/// ("hello\n") and `data/x.csv`, and commit "second" changes `notes.txt`
/// to "hello again\n".
const V1_STATE: &[u8] = b"POPPER-STATE v1\n\
clock 1\n\
2\n\
head 4\n\
main\n\
branch 69\n\
54de553e5f2946e6cb0984f030216a1967061ed66a7a6a9279d6b4c99b1a3168 main\n\
tag 67\n\
6c471b640ecaf7d65fbd3abd09a781ed05da2352254f70d246f663bc2f663849 v1\n\
index 75\n\
5d676f3276b346d9183c1c2cf8cf8da8eff57d0a706acb44184b34b8aabef06f data/x.csv\n\
index 74\n\
788fd53e4cf79b72da352a396437d3db8282d823374a54909430c9343570e4ea notes.txt\n\
object 168\n\
tree 159\0tree 6ebffa8ba8127bf86e92874332b9b0188ef539992b00db60b743c8bc65cc3135 4 data\n\
blob 788fd53e4cf79b72da352a396437d3db8282d823374a54909430c9343570e4ea 9 notes.txt\n\
\n\
object 86\n\
tree 78\0blob 5d676f3276b346d9183c1c2cf8cf8da8eff57d0a706acb44184b34b8aabef06f 5 x.csv\n\
\n\
object 168\n\
tree 159\0tree 6ebffa8ba8127bf86e92874332b9b0188ef539992b00db60b743c8bc65cc3135 4 data\n\
blob 2cf8d83d9ee29543b34a87727421fdecb7e3f3a183d337639025de576db9ebb4 9 notes.txt\n\
\n\
object 179\n\
commit 168\0tree 5786da8b77b98b0a36cc8b3e5255aae299a1712d32969aab1702e9f4a4552dd3\n\
parent 6c471b640ecaf7d65fbd3abd09a781ed05da2352254f70d246f663bc2f663849\n\
author tester\n\
ts 2\n\
\n\
second\n\
object 13\n\
blob 6\0hello\n\
\n\
object 15\n\
blob 8\0a,b\n\
1,2\n\
\n\
object 105\n\
commit 95\0tree f85662736811d01f836fa506e19f00f9db60d1645885c88b1d73a789681b8ee2\n\
author tester\n\
ts 1\n\
\n\
first\n\
object 20\n\
blob 12\0hello again\n\
\n";

#[test]
fn a_state_file_from_the_first_v1_encoder_still_loads() {
    let dir = temp_dir("v1-state");
    fs::create_dir_all(dir.join(".popper")).unwrap();
    fs::create_dir_all(dir.join("data")).unwrap();
    fs::write(dir.join(".popper/state"), V1_STATE).unwrap();
    fs::write(dir.join("notes.txt"), "hello again\n").unwrap();
    fs::write(dir.join("data/x.csv"), "a,b\n1,2\n").unwrap();

    let repo = popper::cli::persist::load(&dir, "tester").unwrap();
    let head = repo.vcs.head_commit().unwrap();
    assert_eq!(head.to_hex(), "54de553e5f2946e6cb0984f030216a1967061ed66a7a6a9279d6b4c99b1a3168");
    let first = repo.vcs.resolve("v1").unwrap();
    assert_eq!(first.to_hex(), "6c471b640ecaf7d65fbd3abd09a781ed05da2352254f70d246f663bc2f663849");
    assert_eq!(repo.vcs.file_at(first, "notes.txt").unwrap().unwrap(), b"hello\n");
    assert_eq!(repo.vcs.file_at(head, "data/x.csv").unwrap().unwrap(), b"a,b\n1,2\n");
    assert_eq!(repo.vcs.object_count(), 8);

    assert_eq!(run(&["log"], &dir).unwrap(), "54de553e5f second\n6c471b640e first\n");
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("-- working tree clean"), "{status}");
    fs::remove_dir_all(&dir).ok();
}

/// The SHA-256 of `.popper/state` in `dir`, as hex.
fn state_digest(dir: &std::path::Path) -> String {
    popper::vcs::ObjectId::for_bytes(&fs::read(dir.join(".popper/state")).unwrap()).to_hex()
}

#[test]
fn a_saved_state_keeps_its_bytes() {
    use popper::cli::persist::{load, save};
    use popper::core::PopperRepo;
    let dir = temp_dir("state-pin");
    // A whole write: a new repository with one more commit, a tag and a
    // branch.
    let mut repo = PopperRepo::init("tester").unwrap();
    repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
    repo.write("data/blob.bin", vec![0u8, 0xff, b'\n', 0x0a]).unwrap();
    repo.commit("add experiment").unwrap();
    repo.vcs.tag("v1", None).unwrap();
    repo.vcs.create_branch("feature").unwrap();
    save(&repo, &dir).unwrap();
    assert_eq!(state_digest(&dir), "eff9cee457a167e63d4d17492e31ada978c21169eac25151971e4aa36d9e45c1");
    // An append: loaded, one more commit, saved again.
    let mut repo = load(&dir, "tester").unwrap();
    repo.write("notes.txt", "a note\n").unwrap();
    repo.commit("notes").unwrap();
    save(&repo, &dir).unwrap();
    assert_eq!(state_digest(&dir), "8a6edcdbab1f46e7c9910a68b8db4ece5d8f4a71c1ba81164ef95c388fdbec77");
    fs::remove_dir_all(&dir).ok();
}
