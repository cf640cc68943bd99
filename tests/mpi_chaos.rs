//! Fault-tolerant MPI end to end: the `mpi-comm-variability` template's
//! chaos mode (the sharded LULESH world, `lulesh-chaos`) driven through
//! the CLI chaos lifecycle. Every built-in schedule (and a seeded
//! gremlin) completes its configured iterations under both recovery
//! policies within the template's gates, and same-seed runs record
//! byte-identical fault timelines, recovery metrics and results at
//! every worker count.

use popper::chaos::BUILTIN_SCHEDULES;
use popper::cli::run;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-mpi-chaos-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A repository with the template as `m` (shrink, the default policy)
/// and as `c` under checkpoint-restart.
fn mpi_repo(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    run(&["init"], &dir).unwrap();
    run(&["add", "mpi-comm-variability", "m"], &dir).unwrap();
    run(&["add", "mpi-comm-variability", "c"], &dir).unwrap();
    append_vars(&dir, "c", "faults:\n  policy: checkpoint-restart\n");
    dir
}

fn append_vars(dir: &Path, experiment: &str, text: &str) {
    let path = dir.join(format!("experiments/{experiment}/vars.pml"));
    let vars = fs::read_to_string(&path).unwrap();
    fs::write(&path, format!("{vars}{text}")).unwrap();
    run(&["commit", "edit vars"], dir).unwrap();
}

/// Every built-in schedule, plus a seeded gremlin, survives under both
/// policies: LULESH finishes all configured iterations and the chaos
/// gates (`recovers_within`, `degraded_at_most`, zero corruption) hold.
#[test]
fn builtin_schedules_all_survive_lulesh_chaos() {
    let dir = mpi_repo("builtin");
    for (experiment, policy) in [("m", "shrink"), ("c", "checkpoint-restart")] {
        for schedule in BUILTIN_SCHEDULES {
            let out = run(&["chaos", experiment, "--schedule", schedule, "--seed", "3"], &dir)
                .unwrap_or_else(|e| panic!("{policy} under '{schedule}' failed:\n{e}"));
            assert!(out.contains("SURVIVED"), "{policy} under '{schedule}':\n{out}");
            // The recovery metrics carry the resolved schedule name.
            let path = dir.join(format!("experiments/{experiment}/recovery.json"));
            let recovery = fs::read_to_string(path).unwrap();
            assert!(recovery.contains(schedule), "{recovery}");
            let metrics = popper::format::json::parse(&recovery).unwrap();
            assert_eq!(metrics.get_num("corrupt"), Some(0.0), "{policy} under '{schedule}': {recovery}");
        }
        // The policy's artifacts: a per-epoch results table and the
        // fault timeline, all committed.
        let csv = fs::read_to_string(dir.join(format!("experiments/{experiment}/chaos-results.csv"))).unwrap();
        assert!(csv.starts_with("schedule,policy,epoch"), "{csv}");
        assert!(csv.contains(policy), "{csv}");
        assert!(dir.join(format!("experiments/{experiment}/faults.json")).exists());
    }
}

/// Two runs with the same seed record byte-identical artifacts; a
/// different seed draws a different gremlin.
#[test]
fn same_seed_chaos_runs_are_deterministic() {
    let artifacts = |seed: &str| {
        let dir = mpi_repo("det");
        run(&["chaos", "m", "--schedule", "gremlin", "--seed", seed], &dir).unwrap();
        artifacts_of(&dir, "m")
    };
    let a = artifacts("11");
    let b = artifacts("11");
    assert_eq!(a, b, "same seed must replay byte-identically");
    let c = artifacts("12");
    assert_ne!(a.0, c.0, "a different seed draws a different gremlin");
}

fn artifacts_of(dir: &Path, experiment: &str) -> (String, String, String) {
    let read = |name: &str| fs::read_to_string(dir.join(format!("experiments/{experiment}/{name}"))).unwrap();
    (read("faults.json"), read("recovery.json"), read("chaos-results.csv"))
}

/// The sharded world is worker-count invariant under both policies:
/// a node crash recovered at 1, 2 and 8 workers records the same bytes.
#[test]
fn chaos_artifacts_are_identical_at_1_2_8_workers() {
    for experiment in ["m", "c"] {
        let artifacts = |workers: usize| {
            let dir = mpi_repo("workers");
            append_vars(&dir, experiment, &format!("sim_workers: {workers}\n"));
            run(&["chaos", experiment, "--schedule", "node-crash", "--seed", "5"], &dir).unwrap();
            artifacts_of(&dir, experiment)
        };
        let reference = artifacts(1);
        assert!(reference.2.lines().count() > 2, "the crash must open a second epoch: {}", reference.2);
        assert_eq!(artifacts(2), reference, "{experiment}");
        assert_eq!(artifacts(8), reference, "{experiment}");
    }
}

/// The report names the degraded share as `recovery.json` does: for
/// `lulesh-chaos` it is the fraction of ranks a crash took, not of
/// accesses, so it carries no unit. A node crash takes 1 of the
/// template's 9 nodes, and with them 3 of its 27 round-robin ranks.
#[test]
fn chaos_report_prints_the_degraded_fraction_as_recovery_json_names_it() {
    let dir = mpi_repo("report");
    let out = run(&["chaos", "m", "--schedule", "node-crash", "--seed", "5"], &dir).unwrap();
    let line = "\n  degraded_fraction: 0.1111111111111111\n";
    assert!(out.contains(line), "{out}");
    let recovery = fs::read_to_string(dir.join("experiments/m/recovery.json")).unwrap();
    assert!(recovery.contains("\"degraded_fraction\": 0.1111111111111111,"), "{recovery}");
    assert!(!out.contains("% of accesses"), "{out}");
}
