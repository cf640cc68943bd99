//! V1 — §Automated Validation, first category: CI integrity checks of
//! the experimentation logic (the paper builds; orchestration syntax is
//! correct; the pipeline itself is valid), plus build history/badges.

use popper::ci::{badge, BuildHistory};
use popper::cli::runners::full_engine;
use popper::core::{cipipeline::run_ci, templates, PopperRepo};
use popper::format::sync::lock;
use std::sync::{Arc, Mutex};

fn repo_with(tpl: &str, name: &str) -> PopperRepo {
    let mut repo = PopperRepo::init("ci-tester").unwrap();
    for (path, contents) in templates::find_template(tpl).unwrap().files(name) {
        repo.write(&path, contents).unwrap();
    }
    repo.commit("add experiment").unwrap();
    repo
}

#[test]
fn integrity_checks_catch_each_breakage() {
    // Green first.
    let repo = Arc::new(Mutex::new(repo_with("zlog", "z")));
    let engine = Arc::new(full_engine());
    let report = run_ci(repo.clone(), engine.clone(), 2).unwrap();
    assert!(report.passed(), "{}", report.summary());

    // Break the orchestration syntax: lint stage fails.
    {
        let mut r = lock(&repo);
        r.write("experiments/z/setup.pml", "- name: broken\n  tasks: []\n").unwrap();
        r.commit("break playbook").unwrap();
    }
    let report = run_ci(repo.clone(), engine.clone(), 2).unwrap();
    assert!(!report.passed());
    let lint = report.stage("lint");
    assert!(lint.iter().any(|j| j.log.contains("setup.pml")), "{}", report.summary());

    // Fix the playbook; break the paper instead.
    {
        let mut r = lock(&repo);
        r.write("experiments/z/setup.pml", "- name: ok\n  hosts: all\n  tasks:\n    - name: t\n      command: x\n")
            .unwrap();
        r.write("paper/paper.md", "# T\n\n![ghost](experiments/ghost/figure.txt)\n").unwrap();
        r.commit("break paper").unwrap();
    }
    let report = run_ci(repo.clone(), engine.clone(), 2).unwrap();
    assert!(!report.passed());
    assert!(report
        .stage("build")
        .iter()
        .any(|j| j.log.contains("figure") && j.log.contains("ghost")));
}

#[test]
fn build_history_and_badge_track_outcomes() {
    let repo = Arc::new(Mutex::new(repo_with("proteustm", "p")));
    let engine = Arc::new(full_engine());
    let mut history = BuildHistory::new();

    let good = run_ci(repo.clone(), engine.clone(), 2).unwrap();
    history.record("commit-1", &good);
    assert_eq!(badge(&history), "build: passing");

    {
        let mut r = lock(&repo);
        r.write(".popper-ci.pml", "stages: [t]\njobs:\n  - name: j\n    stage: t\n    steps: [frobnicate]\n")
            .unwrap();
        r.commit("bad step").unwrap();
    }
    let bad = run_ci(repo.clone(), engine.clone(), 2).unwrap();
    history.record("commit-2", &bad);
    assert_eq!(badge(&history), "build: failing");
    assert_eq!(history.last_good().unwrap().commit, "commit-1");
    assert_eq!(history.pass_rate(), 0.5);
}

#[test]
fn matrix_pipeline_runs_experiment_per_machine() {
    // The build matrix: the same experiment validated on two platform
    // models — "re-executing experiments on multiple platforms is more
    // practical" (the paper's abstract claim, in CI form).
    let repo = Arc::new(Mutex::new(repo_with("malacology", "m")));
    {
        let mut r = lock(&repo);
        r.write(
            ".popper-ci.pml",
            "stages: [test]\n\
             matrix:\n\
             \x20 machine: [cloudlab-c220g, hpc-node]\n\
             jobs:\n\
             \x20 - name: exp\n\
             \x20   stage: test\n\
             \x20   steps: [validate-playbooks]\n",
        )
        .unwrap();
        r.commit("matrix").unwrap();
    }
    let report = run_ci(repo, Arc::new(full_engine()), 4).unwrap();
    assert!(report.passed());
    assert_eq!(report.jobs.len(), 2);
    assert!(report.jobs.iter().any(|j| j.name.contains("machine=cloudlab-c220g")));
    assert!(report.jobs.iter().any(|j| j.name.contains("machine=hpc-node")));
}

/// This repository eats its own dog food: the root `.popper-ci.pml`
/// partitions the test suite. Every unit, doc and integration target
/// runs in exactly one job; each step runs whole, named targets (no
/// test-name filter and no matrix axis, which would split or repeat a
/// target); and the determinism and self-check targets run in the jobs
/// named for them, beside the trace and fault overhead smoke benches.
#[test]
fn own_ci_config_runs_every_test_target_once() {
    use std::collections::BTreeMap;
    use std::path::Path;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join(".popper-ci.pml")).expect(".popper-ci.pml at the workspace root");
    let config = popper::ci::PipelineConfig::from_pml(&text).expect("config parses");

    // Every integration target as `(package, target)`: the root
    // package's `tests/*.rs` and each crate's `crates/*/tests/*.rs`.
    let targets_in = |dir: &Path| -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
        entries
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect()
    };
    let mut runs: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for target in targets_in(&root.join("tests")) {
        runs.insert(("popper".to_string(), target), Vec::new());
    }
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = krate.unwrap().path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let package = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("package name")
            .trim_matches('"')
            .to_string();
        for target in targets_in(&dir.join("tests")) {
            runs.insert((package.clone(), target), Vec::new());
        }
    }
    assert!(runs.len() > 10, "found only {runs:?}");

    assert!(config.matrix.axes.is_empty(), "a pipeline-wide matrix axis repeats every target");
    let mut workspace_runs: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for job in &config.jobs {
        for step in &job.steps {
            let words: Vec<&str> = step.split_whitespace().collect();
            if words.get(..2) != Some(&["cargo", "test"][..]) {
                continue;
            }
            assert!(job.matrix.axes.is_empty(), "job '{}' repeats its targets over a matrix axis", job.name);
            let package = words.windows(2).find(|w| w[0] == "-p").map_or("popper", |w| w[1]);
            let (mut tests, mut kinds, mut workspace) = (Vec::new(), Vec::new(), false);
            let mut args = words[2..].iter();
            while let Some(&arg) = args.next() {
                match arg {
                    "-p" => {
                        args.next();
                    }
                    "--test" => tests.push(*args.next().expect("--test names a target")),
                    "--workspace" => workspace = true,
                    "--lib" | "--bins" | "--doc" => kinds.push(arg),
                    other => panic!("step '{step}': '{other}' filters or widens the run"),
                }
            }
            if workspace {
                assert!(tests.is_empty() && !kinds.is_empty(), "step '{step}' re-runs the integration targets");
                workspace_runs.entry(kinds.join(" ")).or_default().push(job.name.clone());
            } else {
                assert!(kinds.is_empty() && !tests.is_empty(), "step '{step}' must name its targets");
            }
            for test in tests {
                let jobs = runs
                    .get_mut(&(package.to_string(), test.to_string()))
                    .unwrap_or_else(|| panic!("step '{step}' names no test target '{package}/{test}'"));
                jobs.push(job.name.clone());
            }
        }
    }
    for ((package, target), jobs) in &runs {
        assert_eq!(jobs.len(), 1, "test target {package}/{target} runs in jobs {jobs:?}, not exactly one");
    }
    let kinds: Vec<&str> = workspace_runs.keys().map(String::as_str).collect();
    assert_eq!(kinds, ["--doc", "--lib --bins"], "unit and doc targets: {workspace_runs:?}");
    assert!(workspace_runs.values().all(|jobs| jobs.len() == 1), "{workspace_runs:?}");

    // The determinism and self-check targets keep their named jobs.
    for (target, job) in [
        ("trace_pipeline", "trace-determinism"),
        ("chaos_pipeline", "chaos-determinism"),
        ("mpi_chaos", "mpi-chaos"),
        ("trace_diff", "trace-diff-selfcheck"),
        ("memo_pipeline", "memo-selfcheck"),
        ("sim_shard", "sim-shard-determinism"),
        ("fabric_shard", "fabric-shard-determinism"),
    ] {
        assert_eq!(runs[&("popper".to_string(), target.to_string())], [job], "target {target}");
    }
    for job in ["trace-overhead-smoke", "fault-overhead-smoke"] {
        let job = config.jobs.iter().find(|j| j.name == job);
        assert!(job.is_some_and(|j| j.stage == "bench"), "missing bench job {job:?}");
    }
}

/// Every dependency a manifest declares is named in its package's
/// sources: a `name::path` or `name as alias` in some `.rs` file under
/// `src/`, `tests/`, `benches/` or `examples/`. An edge that no source
/// names only lengthens the build graph.
#[test]
fn every_crate_dependency_is_named_in_its_sources() {
    use std::path::{Path, PathBuf};

    fn rust_sources(dir: &Path, text: &mut String) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for path in entries.map(|e| e.unwrap().path()) {
            if path.is_dir() {
                rust_sources(&path, text);
            } else if path.extension().is_some_and(|x| x == "rs") {
                text.push_str(&std::fs::read_to_string(&path).unwrap());
            }
        }
    }
    // `name` followed by `::` or ` as `, and not the tail of a longer
    // identifier.
    fn names(text: &str, name: &str) -> bool {
        text.match_indices(name).any(|(at, _)| {
            let before = text[..at].chars().next_back();
            let after = &text[at + name.len()..];
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                && (after.starts_with("::") || after.starts_with(" as "))
        })
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages: Vec<PathBuf> = vec![root.to_path_buf()];
    for group in ["crates", "compat"] {
        packages.extend(std::fs::read_dir(root.join(group)).unwrap().map(|e| e.unwrap().path()));
    }
    let mut unnamed = Vec::new();
    for dir in &packages {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let mut text = String::new();
        for sub in ["src", "tests", "benches", "examples"] {
            rust_sources(&dir.join(sub), &mut text);
        }
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let declares = matches!(section, "[dependencies]" | "[dev-dependencies]");
            if !declares || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let dep = line.split(['.', '=', ' ']).next().unwrap();
            if !names(&text, &dep.replace('-', "_")) {
                unnamed.push(format!("{} {section} {dep}", dir.strip_prefix(root).unwrap().display()));
            }
        }
    }
    assert!(packages.len() > 20, "found only {packages:?}");
    assert!(unnamed.is_empty(), "dependencies no source names: {unnamed:#?}");
}

/// The `compat/` stand-ins serve tests and benches only: no package's
/// `[dependencies]` names one, except `crates/bench`, a package of
/// benches.
#[test]
fn no_runtime_dependency_is_a_compat_package() {
    use std::path::Path;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |dir: &Path| std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let compat: Vec<String> = std::fs::read_dir(root.join("compat"))
        .unwrap()
        .map(|e| {
            let manifest = read(&e.unwrap().path());
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = ")).unwrap();
            name.trim_matches('"').to_string()
        })
        .collect();
    assert!(compat.iter().any(|n| n == "proptest"), "found only {compat:?}");
    let mut packages = vec![root.to_path_buf()];
    for group in ["crates", "compat"] {
        packages.extend(std::fs::read_dir(root.join(group)).unwrap().map(|e| e.unwrap().path()));
    }
    let mut runtime = Vec::new();
    for dir in packages.iter().filter(|d| !d.ends_with("crates/bench")) {
        let mut section = "";
        for line in read(dir).lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if section == "[dependencies]" {
                let dep = line.split(['.', '=', ' ']).next().unwrap();
                if compat.iter().any(|c| c == dep) {
                    runtime.push(format!("{} {dep}", dir.join("Cargo.toml").strip_prefix(root).unwrap().display()));
                }
            }
        }
    }
    assert!(runtime.is_empty(), "[dependencies] naming a compat package: {runtime:#?}");
}
