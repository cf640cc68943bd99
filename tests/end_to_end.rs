//! The headline claim, end to end: a fully Popperized paper whose
//! every figure regenerates deterministically, validates automatically,
//! and whose whole pipeline re-executes without author intervention.

use popper::cli::runners::full_engine;
use popper::core::{cipipeline, paper, templates, PopperRepo};
use popper::format::sync::lock;
use std::sync::{Arc, Mutex};

fn small_gassyfs_repo() -> PopperRepo {
    let mut repo = PopperRepo::init("authors").unwrap();
    for (path, contents) in templates::find_template("gassyfs").unwrap().files("gassyfs") {
        let contents = if path.ends_with("vars.pml") {
            format!("{contents}translation_units: 50\njobs: 4\nnodes: [1, 2, 4]\n")
        } else {
            contents
        };
        // Drop the template's own nodes line to avoid a duplicate key.
        let contents = if path.ends_with("vars.pml") {
            contents.replacen("nodes: [1, 2, 4, 8, 16]\n", "", 1)
        } else {
            contents
        };
        repo.write(&path, contents).unwrap();
    }
    repo.commit("add gassyfs").unwrap();
    repo
}

#[test]
fn experiments_reexecute_bit_identically() {
    // "Maximizing automation in the re-execution of experiments and
    // validation of results" only matters if re-execution converges:
    // same inputs ⇒ same results.csv bytes.
    let engine = full_engine();
    let mut repo = small_gassyfs_repo();
    engine.run(&mut repo, "gassyfs").unwrap();
    let first = repo.read("experiments/gassyfs/results.csv").unwrap();
    engine.run(&mut repo, "gassyfs").unwrap();
    let second = repo.read("experiments/gassyfs/results.csv").unwrap();
    assert_eq!(first, second);

    // An independent "reader" starting from scratch gets the same bytes.
    let mut reader_repo = small_gassyfs_repo();
    engine.run(&mut reader_repo, "gassyfs").unwrap();
    assert_eq!(first, reader_repo.read("experiments/gassyfs/results.csv").unwrap());
}

#[test]
fn the_paper_rebuilds_with_fresh_results() {
    // "The reader can easily deploy an experiment or rebuild the
    // article's PDF that might include new results."
    let mut repo = small_gassyfs_repo();
    repo.write(
        "paper/paper.md",
        "---\ntitle: \"GassyFS at scale\"\n---\n\n# Evaluation\n\n![fig](experiments/gassyfs/figure.txt)\n\n@experiment:gassyfs\n",
    )
    .unwrap();
    repo.commit("manuscript").unwrap();
    assert!(paper::build_paper(&repo).is_err(), "no figure yet");

    let engine = full_engine();
    let report = engine.run(&mut repo, "gassyfs").unwrap();
    assert!(report.success(), "{:?}", report.verdict.failures);

    let built = paper::build_paper(&repo).unwrap();
    assert_eq!(built.figures.len(), 1);
    // The article embeds the actual measured table.
    assert!(built.output.contains("nodes"));
    assert!(built.output.contains("gassyfs-node"));
}

#[test]
fn whole_pipeline_under_ci() {
    let mut repo = small_gassyfs_repo();
    repo.write(
        ".popper-ci.pml",
        "stages: [lint, test, build]\n\
         jobs:\n\
         \x20 - name: integrity\n\
         \x20   stage: lint\n\
         \x20   steps: [check-compliance, validate-playbooks, validate-pipelines]\n\
         \x20 - name: gassyfs\n\
         \x20   stage: test\n\
         \x20   steps: [run-experiment gassyfs, validate gassyfs]\n\
         \x20 - name: manuscript\n\
         \x20   stage: build\n\
         \x20   steps: [build-paper]\n",
    )
    .unwrap();
    repo.commit("pipeline").unwrap();
    let shared = Arc::new(Mutex::new(repo));
    let report = cipipeline::run_ci(shared.clone(), Arc::new(full_engine()), 4).unwrap();
    assert!(report.passed(), "{}", report.summary());
    // The CI run left recorded, validated, committed results behind.
    let repo = lock(&shared);
    assert!(repo.exists("experiments/gassyfs/results.csv"));
    assert!(repo.vcs.status().unwrap().is_empty());
}
