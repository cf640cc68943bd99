//! `--sim-workers N` applies to one command only. `dispatch` sets
//! `POPPER_SIM_WORKERS` for the command it runs and restores the
//! previous value when that command returns, on success and on error,
//! so an in-process caller's next command is not sharded by accident.
//!
//! This is its own test target: the flag changes the process
//! environment, which would race tests sharing a binary.

use popper_cli::run;
use std::fs;
use std::path::PathBuf;

const VAR: &str = "POPPER_SIM_WORKERS";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-sim-workers-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Add a torpor experiment whose `vars.pml` names it, so no two share
/// a memo key and every first run reaches the runner.
fn add_torpor(dir: &std::path::Path, name: &str) {
    run(&["add", "torpor", name], dir).unwrap();
    let vars = dir.join(format!("experiments/{name}/vars.pml"));
    let text = fs::read_to_string(&vars).unwrap();
    fs::write(&vars, format!("{text}note: {name}\n")).unwrap();
}

#[test]
fn sim_workers_does_not_leak_into_later_commands() {
    let dir = temp_dir("leak");
    run(&["init"], &dir).unwrap();
    // `sharded` runs the orchestra world, which takes a worker count;
    // the torpor runs reject one.
    run(&["add", "torpor", "sharded"], &dir).unwrap();
    fs::write(dir.join("experiments/sharded/vars.pml"), "runner: orchestra-sharded\nhosts: 4\ntasks: 3\n").unwrap();
    fs::remove_file(dir.join("experiments/sharded/validations.aver")).unwrap();
    for name in ["plain", "refused", "after_error"] {
        add_torpor(&dir, name);
    }
    assert_eq!(std::env::var_os(VAR), None);

    // Ok path: the sharded run sees the flag, the next torpor run does not.
    let out = run(&["run", "sharded", "--sim-workers", "2"], &dir).unwrap();
    assert!(out.contains("OK"), "{out}");
    assert_eq!(std::env::var_os(VAR), None, "leaked after an Ok command");
    run(&["run", "plain"], &dir).unwrap();

    // Err path: the torpor runner rejects the flag, and the next torpor
    // run still succeeds.
    let err = run(&["run", "refused", "--sim-workers", "2"], &dir).unwrap_err();
    assert!(err.contains("has no sharded world"), "{err}");
    assert_eq!(std::env::var_os(VAR), None, "leaked after an Err command");
    run(&["run", "after_error"], &dir).unwrap();

    // A value set before the command is put back, not removed.
    std::env::set_var(VAR, "3");
    run(&["run", "sharded", "--sim-workers", "2"], &dir).unwrap();
    assert_eq!(std::env::var(VAR).as_deref(), Ok("3"));
    std::env::remove_var(VAR);
    fs::remove_dir_all(&dir).ok();
}
