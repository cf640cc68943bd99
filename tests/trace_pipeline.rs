//! popper-trace end to end: the `popper trace` CLI command produces a
//! valid Chrome trace + SVG timeline, and virtual-time traces are a
//! deterministic function of the workload (same seed ⇒ same bytes).

use popper::cli::run;
use popper::format::Value;
use popper::trace::{ClockDomain, TraceSink};
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-trace-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `popper trace <experiment>` runs the lifecycle and records
/// `trace.json` (valid Chrome `trace_event` JSON) and `trace.svg`.
#[test]
fn cli_trace_records_chrome_json_and_svg() {
    let dir = temp_dir("cli");
    run(&["init"], &dir).unwrap();
    run(&["add", "ceph-rados", "e"], &dir).unwrap();
    let out = run(&["trace", "e"], &dir).unwrap();
    assert!(out.contains("traced"), "{out}");
    assert!(out.contains("trace.json"), "{out}");
    // The summary table lists the lifecycle spans.
    assert!(out.contains("core/lifecycle"), "{out}");

    // The JSON artifact is on disk, versioned with the experiment.
    let json_path = dir.join("experiments/e/trace.json");
    let svg_path = dir.join("experiments/e/trace.svg");
    assert!(json_path.is_file() && svg_path.is_file());

    let json = fs::read_to_string(&json_path).unwrap();
    let doc = popper::format::json::parse(&json).expect("trace.json must be valid JSON");
    let Value::Map(top) = &doc else { panic!("top level must be an object") };
    let (_, te) = top.iter().find(|(k, _)| k == "traceEvents").expect("traceEvents key");
    let Value::List(items) = te else { panic!("traceEvents must be a list") };
    assert!(!items.is_empty());

    // Every event has the mandatory Chrome fields; the lifecycle stages
    // appear as complete ("X") spans.
    let mut names = Vec::new();
    for item in items {
        let Value::Map(fields) = item else { panic!("event must be an object") };
        for key in ["name", "ph", "pid"] {
            assert!(fields.iter().any(|(k, _)| k == key), "event missing '{key}'");
        }
        if let Some((_, Value::Str(name))) = fields.iter().find(|(k, _)| k == "name") {
            names.push(name.clone());
        }
    }
    for stage in ["sanitize", "orchestrate", "execute", "record", "validate"] {
        assert!(names.iter().any(|n| n == stage), "missing lifecycle span '{stage}': {names:?}");
    }

    let svg = fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("core/lifecycle"));

    // The artifacts were committed (traces are results too).
    let log = run(&["log"], &dir).unwrap();
    assert!(log.contains("popper trace e"), "{log}");
    fs::remove_dir_all(&dir).ok();
}

/// `trace.json` and `trace.svg` render one drained recording: the JSON
/// is `chrome_trace_json` of the events it holds, and the timeline is
/// `timeline_svg` of the same events, though the two render on
/// different threads.
#[test]
fn trace_json_and_svg_render_the_same_drained_events() {
    let dir = temp_dir("same-events");
    run(&["init"], &dir).unwrap();
    run(&["add", "ceph-rados", "e"], &dir).unwrap();
    run(&["trace", "e"], &dir).unwrap();
    let json = fs::read_to_string(dir.join("experiments/e/trace.json")).unwrap();
    let svg = fs::read_to_string(dir.join("experiments/e/trace.svg")).unwrap();
    let events = popper::trace::parse_chrome_trace(&json).unwrap();
    assert!(!events.is_empty());
    assert_eq!(popper::trace::chrome_trace_json(&events), json);
    assert_eq!(popper::trace::timeline_svg(&events), svg);
    fs::remove_dir_all(&dir).ok();
}

/// This repository eats its own dog food: its `.popper-ci.pml` must
/// parse with the in-tree CI engine and carry the tracing smoke jobs.
#[test]
fn own_ci_config_parses_and_has_trace_smoke_jobs() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".popper-ci.pml");
    let text = fs::read_to_string(path).expect(".popper-ci.pml at the workspace root");
    let config = popper::ci::PipelineConfig::from_pml(&text).expect("config parses");
    for job in ["trace-determinism", "trace-overhead-smoke"] {
        assert!(config.jobs.iter().any(|j| j.name == job), "missing CI job '{job}'");
    }
    let job = config.jobs.iter().find(|j| j.name == "trace-determinism").unwrap();
    let runs_target = |s: &String| s.split_whitespace().collect::<Vec<_>>().windows(2).any(|w| w == ["--test", "trace_pipeline"]);
    assert!(job.steps.iter().any(runs_target), "trace-determinism does not run --test trace_pipeline");
}

/// Drive a virtual-time workload (fabric transfers + MPI collectives)
/// under an ambient tracer and export it.
fn virtual_trace(seed: u64, ranks: usize) -> String {
    use popper::minimpi::MpiWorld;
    use popper::sim::{platforms, Cluster, Demand, Fabric, Nanos};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    popper::trace::with_current(tracer.clone(), || {
        let mut rng = StdRng::seed_from_u64(seed);

        // Raw fabric traffic.
        let mut fabric = Fabric::new(4, 10.0, Nanos::from_micros(10), 1.0);
        for _ in 0..20 {
            let src = rng.gen_range(0..4usize);
            let dst = rng.gen_range(0..4usize);
            let bytes = rng.gen_range(0..1_000_000u64);
            fabric.transfer(src, dst, bytes, Nanos(rng.gen_range(0..1_000_000u64)));
        }

        // A small MPI application.
        let mut world = MpiWorld::new(Cluster::new(platforms::hpc_node(), 2), ranks);
        let d = Demand { fp_ops: 1e7, ..Default::default() };
        for _ in 0..3 {
            for r in 0..ranks {
                world.compute(r, &d);
            }
            world.allreduce(64);
        }
        world.barrier();
    });
    tracer.flush();
    popper::trace::chrome_trace_json(&sink.drain())
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Virtual-time traces are Popper artifacts: re-running the same
        /// seeded workload must reproduce the trace byte for byte.
        #[test]
        fn same_seed_gives_byte_identical_trace(seed in 0u64..10_000, ranks in 2usize..6) {
            let a = virtual_trace(seed, ranks);
            let b = virtual_trace(seed, ranks);
            prop_assert!(!a.is_empty());
            prop_assert_eq!(a, b);
        }

        /// Different workloads give different traces (the trace actually
        /// reflects the events, not just a fixed skeleton).
        #[test]
        fn trace_depends_on_workload(seed in 0u64..10_000) {
            let a = virtual_trace(seed, 2);
            let b = virtual_trace(seed.wrapping_add(1), 2);
            prop_assert!(a != b, "distinct seeds should almost surely differ");
        }
    }
}
