//! Golden-artifact pinning for `tests/lifecycle_parity.rs`.
//!
//! The `regenerate_goldens` test re-records the committed artifacts of
//! one experiment per lifecycle mode (`run`, `trace`, `chaos`) into
//! `tests/golden/`. It is `#[ignore]`d: the goldens pin the artifact
//! bytes across the staged-pipeline refactor, so they must only be
//! re-recorded deliberately (`cargo test --test golden_regen -- --ignored`)
//! when an *intentional* artifact change lands.

use popper::cli::run;
use popper::core::{templates::find_template, ExperimentEngine, PopperRepo};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-golden-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn pin(golden_dir: &Path, name: &str, bytes: &str) {
    fs::create_dir_all(golden_dir).unwrap();
    fs::write(golden_dir.join(name), bytes).unwrap();
}

#[test]
#[ignore = "re-pins the lifecycle parity goldens; run only on deliberate artifact changes"]
fn regenerate_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");

    // -- run mode: the synthetic ceph-rados template via the library
    // engine (the same flow `popper run` drives).
    let mut repo = PopperRepo::init("golden").unwrap();
    for (path, contents) in find_template("ceph-rados").unwrap().files("e") {
        repo.write(&path, contents).unwrap();
    }
    repo.commit("popper add ceph-rados e").unwrap();
    let report = ExperimentEngine::new().run(&mut repo, "e").unwrap();
    assert!(report.success(), "{report}");
    let dir = root.join("run");
    pin(&dir, "results.csv", &repo.read("experiments/e/results.csv").unwrap());
    pin(&dir, "figure.txt", &repo.read("experiments/e/figure.txt").unwrap());
    pin(&dir, "baseline.csv", &repo.read("experiments/e/datasets/baseline.csv").unwrap());

    // -- trace mode: `popper trace` over the same template; the traced
    // lifecycle must record the same deterministic results/figure bytes
    // (trace.json itself is wall-domain and is checked structurally by
    // the parity suite, not byte-compared).
    let cli = temp_dir("trace");
    run(&["init"], &cli).unwrap();
    run(&["add", "ceph-rados", "e"], &cli).unwrap();
    run(&["trace", "e"], &cli).unwrap();
    let dir = root.join("trace");
    for name in ["results.csv", "figure.txt"] {
        pin(&dir, name, &fs::read_to_string(cli.join("experiments/e").join(name)).unwrap());
    }
    fs::remove_dir_all(&cli).ok();

    // -- chaos mode: `popper chaos` against the real gassyfs runner,
    // pinned schedule and seed (virtual-time simulation: same seed ⇒
    // same bytes for every artifact).
    let cli = temp_dir("chaos");
    run(&["init"], &cli).unwrap();
    run(&["add", "gassyfs", "g"], &cli).unwrap();
    run(&["chaos", "g", "--schedule", "node-crash", "--seed", "7"], &cli).unwrap();
    let dir = root.join("chaos");
    for name in ["chaos-results.csv", "faults.json", "recovery.json", "chaos-figure.txt"] {
        pin(&dir, name, &fs::read_to_string(cli.join("experiments/g").join(name)).unwrap());
    }
    fs::remove_dir_all(&cli).ok();
}
