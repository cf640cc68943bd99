//! popper-chaos end to end: the `popper chaos` CLI command plays a
//! fault schedule against a live experiment and records `faults.json`,
//! `recovery.json`, and the fault-annotated trace as committed
//! artifacts — and the whole pipeline is a deterministic function of
//! the seed (same seed ⇒ same bytes).

use popper::cli::run;
use popper::format::Value;
use popper::trace::{ClockDomain, TraceSink};
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-chaos-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `popper chaos <experiment> --schedule node-crash` completes with
/// degraded-but-correct results: the Aver `recovers_within` gate
/// passes, and the crash, failover, and recovery are visible in the
/// recorded artifacts.
#[test]
fn cli_chaos_records_faults_recovery_and_trace() {
    let dir = temp_dir("cli");
    run(&["init"], &dir).unwrap();
    run(&["add", "gassyfs", "g"], &dir).unwrap();
    let out = run(&["chaos", "g", "--schedule", "node-crash", "--seed", "42"], &dir).unwrap();
    assert!(out.contains("SURVIVED"), "{out}");
    assert!(out.contains("faults.json"), "{out}");

    // faults.json is valid JSON carrying the schedule that actually ran.
    let faults_path = dir.join("experiments/g/faults.json");
    let faults = fs::read_to_string(&faults_path).unwrap();
    let doc = popper::format::json::parse(&faults).expect("faults.json must be valid JSON");
    assert_eq!(doc.get_str("schedule"), Some("node-crash"));
    let events = doc.get_list("events").expect("events list");
    assert!(!events.is_empty());
    assert!(events.iter().any(|e| e.get_str("kind") == Some("crash")), "{faults}");

    // recovery.json summarizes the resilience metrics.
    let recovery = fs::read_to_string(dir.join("experiments/g/recovery.json")).unwrap();
    let metrics = popper::format::json::parse(&recovery).expect("recovery.json must be valid JSON");
    for key in ["recovery_ms", "failovers", "degraded_fraction", "corrupt"] {
        assert!(metrics.get(key).is_some(), "recovery.json missing '{key}': {recovery}");
    }
    assert_eq!(metrics.get_num("corrupt"), Some(0.0), "reads must stay correct: {recovery}");
    assert!(metrics.get_num("failovers").unwrap_or(0.0) > 0.0, "crash must force failovers");

    // The trace shows the fault injections next to the recovery epochs.
    let trace = fs::read_to_string(dir.join("experiments/g/trace.json")).unwrap();
    let doc = popper::format::json::parse(&trace).expect("trace.json must be valid JSON");
    let Value::Map(top) = &doc else { panic!("top level must be an object") };
    let (_, te) = top.iter().find(|(k, _)| k == "traceEvents").expect("traceEvents key");
    let Value::List(items) = te else { panic!("traceEvents must be a list") };
    let cats: Vec<&str> =
        items.iter().filter_map(|i| i.get_str("cat")).collect();
    assert!(cats.contains(&"chaos"), "fault events must be traced: {cats:?}");

    // Artifacts are committed — faults are results too.
    let log = run(&["log"], &dir).unwrap();
    assert!(log.contains("popper chaos g"), "{log}");

    // The full CLI path is deterministic: re-running the same seed
    // reproduces faults.json and recovery.json byte for byte.
    run(&["chaos", "g", "--schedule", "node-crash", "--seed", "42"], &dir).unwrap();
    assert_eq!(faults, fs::read_to_string(&faults_path).unwrap());
    assert_eq!(recovery, fs::read_to_string(dir.join("experiments/g/recovery.json")).unwrap());
    fs::remove_dir_all(&dir).ok();
}

/// `popper chaos` records its table beside the run's, not over it:
/// after `run` then `chaos`, `validate` and `verify` still check the
/// run's table, and a memo-warm `chaos` + `run` pair commits only the
/// chaos trace.
#[test]
fn validate_and_verify_pass_after_a_chaos_run() {
    let dir = temp_dir("run-then-chaos");
    run(&["init"], &dir).unwrap();
    run(&["add", "gassyfs", "g"], &dir).unwrap();
    run(&["run", "g"], &dir).unwrap();
    let recorded = fs::read(dir.join("experiments/g/results.csv")).unwrap();
    run(&["chaos", "g", "--schedule", "node-crash", "--seed", "7"], &dir).unwrap();
    assert_eq!(fs::read(dir.join("experiments/g/results.csv")).unwrap(), recorded, "chaos wrote over the run's table");
    let out = run(&["validate", "g"], &dir).unwrap_or_else(|e| panic!("validate after chaos: {e}"));
    assert!(out.contains("PASS"), "{out}");
    let out = run(&["verify", "g"], &dir).unwrap_or_else(|e| panic!("verify after chaos: {e}"));
    assert!(out.contains("numerically reproducible"), "{out}");

    let commits = || run(&["log"], &dir).unwrap().lines().count();
    let before = commits();
    run(&["chaos", "g", "--schedule", "node-crash", "--seed", "7"], &dir).unwrap();
    run(&["run", "g"], &dir).unwrap();
    assert_eq!(commits(), before + 1, "{}", run(&["log"], &dir).unwrap());
    fs::remove_dir_all(&dir).ok();
}

/// This repository eats its own dog food: its `.popper-ci.pml` must
/// parse with the in-tree CI engine and carry the chaos smoke jobs,
/// each running its whole target once (no matrix axis repeats it).
#[test]
fn own_ci_config_parses_and_has_chaos_smoke_jobs() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".popper-ci.pml");
    let text = fs::read_to_string(path).expect(".popper-ci.pml at the workspace root");
    let config = popper::ci::PipelineConfig::from_pml(&text).expect("config parses");
    for job in ["chaos-determinism", "fault-overhead-smoke", "mpi-chaos"] {
        assert!(config.jobs.iter().any(|j| j.name == job), "missing CI job '{job}'");
    }
    for (name, target) in [("chaos-determinism", "chaos_pipeline"), ("mpi-chaos", "mpi_chaos")] {
        let job = config.jobs.iter().find(|j| j.name == name).unwrap();
        let runs_target = |s: &String| s.split_whitespace().collect::<Vec<_>>().windows(2).any(|w| w == ["--test", target]);
        assert!(job.steps.iter().any(runs_target), "CI job '{name}' does not run --test {target}");
        assert!(job.matrix.axes.is_empty(), "CI job '{name}' repeats {target} over a matrix axis");
    }
    assert_eq!(config.expanded_jobs().len(), config.jobs.len(), "a matrix axis repeats jobs");
}

/// `popper trace` then `popper chaos`: the chaos run rewrites the
/// trace pair from its own recording, so the committed timeline draws
/// the committed JSON, not the traced run's.
#[test]
fn chaos_after_trace_commits_a_timeline_of_its_own_recording() {
    let dir = temp_dir("trace-then-chaos");
    run(&["init"], &dir).unwrap();
    run(&["add", "jupyter-bww", "b"], &dir).unwrap();
    run(&["trace", "b"], &dir).unwrap();
    let traced = fs::read_to_string(dir.join("experiments/b/trace.svg")).unwrap();
    run(&["chaos", "b", "--schedule", "node-crash", "--seed", "7"], &dir).unwrap();
    let json = fs::read_to_string(dir.join("experiments/b/trace.json")).unwrap();
    let svg = fs::read_to_string(dir.join("experiments/b/trace.svg")).unwrap();
    let events = popper::trace::parse_chrome_trace(&json).unwrap();
    assert_eq!(popper::trace::timeline_svg(&events), svg);
    assert_ne!(svg, traced, "the chaos recording differs from the traced run's");
    let status = run(&["status"], &dir).unwrap();
    assert!(status.contains("working tree clean"), "the trace pair must be committed: {status}");
    fs::remove_dir_all(&dir).ok();
}

/// Play a seeded gremlin schedule against the sharded GassyFS world
/// under a virtual-time tracer and return every artifact the run would
/// record: the fault timeline, the recovery metrics, and the Chrome
/// trace.
fn chaos_artifacts(seed: u64, nodes: usize, workers: usize) -> (String, String, String) {
    let schedule = popper::chaos::FaultSchedule::gremlin(nodes, seed);
    let config = popper::gassyfs::ShardedGassyConfig { nodes, pages: 48, streams: 3 };
    let platform = popper::sim::platforms::gassyfs_node();
    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    let report = popper::trace::with_current(tracer, || {
        popper::gassyfs::run_sharded_chaos(&config, &platform, workers, seed, schedule.plane_timeline())
    });
    let mut metrics = Value::empty_map();
    metrics.insert("corrupt", Value::from(report.lost as usize));
    metrics.insert("completed", Value::from(report.completed as usize));
    metrics.insert("failovers", Value::from(report.failovers as usize));
    metrics.insert("detections", Value::from(report.detections as usize));
    metrics.insert("recovery_ms", Value::Num(report.recovery_ms));
    metrics.insert("degraded_fraction", Value::Num(report.degraded_fraction));
    let metrics = popper::format::json::to_string_pretty(&metrics);
    (schedule.to_json(), metrics, popper::trace::chrome_trace_json(&sink.drain()))
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Fault schedules and their consequences are Popper artifacts:
        /// the same seed must reproduce faults.json, the recovery
        /// metrics, and the trace byte for byte, at any worker count.
        #[test]
        fn same_seed_gives_identical_faults_metrics_and_trace(
            seed in 0u64..10_000,
            nodes in 3usize..8,
        ) {
            let (fa, ma, ta) = chaos_artifacts(seed, nodes, 1);
            let (fb, mb, tb) = chaos_artifacts(seed, nodes, 2);
            prop_assert!(!fa.is_empty() && !ta.is_empty());
            prop_assert_eq!(fa, fb);
            prop_assert_eq!(ma, mb);
            prop_assert_eq!(ta, tb);
        }

        /// Distinct seeds draw distinct gremlin schedules (the schedule
        /// actually depends on the seed, not just a fixed skeleton).
        #[test]
        fn gremlin_schedule_depends_on_seed(seed in 0u64..10_000) {
            let a = popper::chaos::FaultSchedule::gremlin(6, seed).to_json();
            let b = popper::chaos::FaultSchedule::gremlin(6, seed.wrapping_add(1)).to_json();
            prop_assert!(a != b, "distinct seeds should almost surely differ");
        }

        /// Replicated pages survive any gremlin schedule: every page
        /// is written and acked, degraded but never lost.
        #[test]
        fn reads_stay_correct_under_gremlins(seed in 0u64..1_000, nodes in 3usize..8) {
            let (_, metrics, _) = chaos_artifacts(seed, nodes, 1);
            let doc = popper::format::json::parse(&metrics).unwrap();
            prop_assert_eq!(doc.get_num("corrupt"), Some(0.0), "{}", metrics);
        }
    }
}
