//! Fault-tolerant MPI end to end: the `lulesh-chaos` runner driven
//! through the CLI chaos lifecycle. Every built-in schedule (and a
//! seeded gremlin) completes its configured iterations under the
//! shrink recovery policy within the template's gates, and same-seed
//! runs record byte-identical fault timelines, recovery metrics, and
//! results.

use popper::chaos::BUILTIN_SCHEDULES;
use popper::cli::run;
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-mpi-chaos-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn mpi_repo(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    run(&["init"], &dir).unwrap();
    run(&["add", "mpi-comm-variability", "m"], &dir).unwrap();
    dir
}

/// Every built-in schedule, plus a seeded gremlin, survives: LULESH
/// finishes all configured iterations and the chaos gates
/// (`recovers_within`, `degraded_at_most`, zero corruption) hold.
#[test]
fn builtin_schedules_all_survive_lulesh_chaos() {
    let dir = mpi_repo("builtin");
    for schedule in BUILTIN_SCHEDULES {
        let out = run(&["chaos", "m", "--schedule", schedule, "--seed", "3"], &dir)
            .unwrap_or_else(|e| panic!("schedule '{schedule}' failed:\n{e}"));
        assert!(out.contains("SURVIVED"), "schedule '{schedule}':\n{out}");
        // The recovery metrics carry the resolved schedule name.
        let recovery = fs::read_to_string(dir.join("experiments/m/recovery.json")).unwrap();
        assert!(recovery.contains(schedule), "{recovery}");
    }
    // The shrink policy's artifacts: a per-epoch results table and the
    // fault timeline, all committed.
    let csv = fs::read_to_string(dir.join("experiments/m/chaos-results.csv")).unwrap();
    assert!(csv.starts_with("schedule,policy,epoch"), "{csv}");
    assert!(dir.join("experiments/m/faults.json").exists());
}

/// Two runs with the same seed record byte-identical artifacts; a
/// different seed draws a different gremlin.
#[test]
fn same_seed_chaos_runs_are_deterministic() {
    let artifacts = |seed: &str| {
        let dir = mpi_repo("det");
        run(&["chaos", "m", "--schedule", "gremlin", "--seed", seed], &dir).unwrap();
        (
            fs::read_to_string(dir.join("experiments/m/faults.json")).unwrap(),
            fs::read_to_string(dir.join("experiments/m/recovery.json")).unwrap(),
            fs::read_to_string(dir.join("experiments/m/chaos-results.csv")).unwrap(),
        )
    };
    let a = artifacts("11");
    let b = artifacts("11");
    assert_eq!(a, b, "same seed must replay byte-identically");
    let c = artifacts("12");
    assert_ne!(a.0, c.0, "a different seed draws a different gremlin");
}
