//! The memoized stage-execution contract (popper-memo).
//!
//! Determinism is the contract: a warm lifecycle must execute zero
//! stage bodies (all hits) and leave byte-identical artifacts, while
//! any edit to what a stage observes — vars.pml, the model seed, an
//! input file, an upstream stage's output — must invalidate the
//! affected suffix and re-execute it. Cold runs are additionally
//! pinned against the pre-memo goldens in `tests/golden/run`, so the
//! cache layer provably changes nothing about what a lifecycle
//! produces.

use popper::cli::run;
use popper::core::{
    lifecycle_session, templates::find_template, ChaosRunReport, ExperimentEngine, PopperRepo,
    ReproVerdict, RunContext,
};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popper-memo-{tag}-{}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn golden(mode: &str, name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(mode).join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("missing golden {p:?}: {e}"))
}

fn seeded(tpl: &str, name: &str) -> PopperRepo {
    let mut repo = PopperRepo::init("memo").unwrap();
    for (path, contents) in find_template(tpl).unwrap().files(name) {
        repo.write(&path, contents).unwrap();
    }
    repo.commit(&format!("popper add {tpl} {name}")).unwrap();
    repo
}

/// One memoized run of the `run` lifecycle; returns (hits, misses).
fn memoized_run(repo: &mut PopperRepo, engine: &ExperimentEngine, name: &str) -> (usize, usize) {
    let mut ctx = RunContext::for_experiment(repo, name)
        .unwrap()
        .with_memo(lifecycle_session(repo, name, "run", &[]));
    engine.run_pipeline(repo, &mut ctx).unwrap();
    let stats = ctx.memo_stats().expect("session attached");
    let out = (stats.hits(), stats.misses());
    let report = popper::core::experiment::RunReport::from_ctx(ctx);
    assert!(report.success(), "{report}");
    out
}

// ------------------------------------------------------- golden parity

#[test]
fn cold_run_under_memo_matches_pre_memo_goldens_and_warm_replays_bytes() {
    let mut repo = seeded("ceph-rados", "e");
    let engine = ExperimentEngine::new();

    // Cold: every stage executes (no entries to hit) and the artifacts
    // are the exact pre-memo bytes.
    let (hits, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(hits, 0, "first run has nothing to replay");
    assert!(misses >= 4, "run lifecycle has at least 4 stages, saw {misses}");
    let artifacts = [
        ("experiments/e/results.csv", "results.csv"),
        ("experiments/e/figure.txt", "figure.txt"),
        ("experiments/e/datasets/baseline.csv", "baseline.csv"),
    ];
    for (path, gold) in artifacts {
        assert_eq!(repo.read(path).unwrap(), golden("run", gold), "{path} drifted under memo");
    }
    let head = repo.vcs.head_commit().unwrap();

    // Warm: zero stage bodies execute, the artifacts stay byte-for-byte
    // identical, and no commit is re-landed for unchanged outputs.
    let (hits, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(misses, 0, "warm run must replay every stage");
    assert!(hits >= 4);
    for (path, gold) in artifacts {
        assert_eq!(repo.read(path).unwrap(), golden("run", gold), "{path} drifted on replay");
    }
    assert_eq!(repo.vcs.head_commit().unwrap(), head, "replay of unchanged outputs commits nothing");
    assert!(repo.vcs.status().unwrap().is_empty());
}

// ------------------------------------------------------- invalidation

#[test]
fn seed_edit_invalidates_and_reverting_rehits_old_entries() {
    let mut repo = seeded("ceph-rados", "e");
    let engine = ExperimentEngine::new();
    memoized_run(&mut repo, &engine, "e");
    let (_, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(misses, 0);

    // Changing the model seed in vars.pml is a new experiment spec:
    // every stage key moves, nothing hits.
    let vars = repo.read("experiments/e/vars.pml").unwrap();
    assert!(vars.contains("seed: 1"), "{vars}");
    repo.write("experiments/e/vars.pml", vars.replace("seed: 1", "seed: 2")).unwrap();
    repo.commit("reseed the synthetic model").unwrap();
    let (hits, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(hits, 0, "seed edit must invalidate every stage");
    assert!(misses >= 4);
    let reseeded = repo.read("experiments/e/results.csv").unwrap();
    assert_ne!(reseeded, golden("run", "results.csv"), "new seed, new numbers");
    let (_, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(misses, 0, "the reseeded run is itself cacheable");

    // The table is content-addressed, not recency-based: restoring the
    // original spec hits the original entries (and artifacts).
    repo.write("experiments/e/vars.pml", vars).unwrap();
    repo.commit("revert to the published seed").unwrap();
    let (hits, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(misses, 0, "reverted spec must hit the original entries, got {hits} hits");
    assert_eq!(repo.read("experiments/e/results.csv").unwrap(), golden("run", "results.csv"));
}

#[test]
fn input_file_edit_invalidates_but_generated_artifacts_do_not() {
    let mut repo = seeded("ceph-rados", "e");
    let engine = ExperimentEngine::new();
    memoized_run(&mut repo, &engine, "e");

    // The run's own outputs (results.csv, figure.txt, baseline.csv…)
    // landed in a commit between the two sessions; they must NOT count
    // as inputs or no run could ever be warm.
    let (_, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(misses, 0);

    // A declared input file under the experiment directory does count.
    repo.write("experiments/e/datasets/notes.txt", "calibration updated\n").unwrap();
    repo.commit("new input data").unwrap();
    let (hits, _) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(hits, 0, "input-file edit must invalidate the run");
    let (_, misses) = memoized_run(&mut repo, &engine, "e");
    assert_eq!(misses, 0);
}

// ------------------------------------------------------- other lifecycles

#[test]
fn chaos_cache_is_salted_by_schedule_and_seed() {
    let mut repo = seeded("gassyfs", "g");
    let engine = popper::cli::runners::full_engine();
    let mut chaos = |schedule: &str, seed: u64| -> (usize, usize, ChaosRunReport) {
        let salt =
            [("schedule".to_string(), schedule.to_string()), ("seed".to_string(), seed.to_string())];
        let mut ctx = RunContext::for_experiment(&repo, "g")
            .unwrap()
            .with_memo(lifecycle_session(&repo, "g", "chaos", &salt));
        engine.chaos_pipeline(&mut repo, &mut ctx, Some(schedule), Some(seed)).unwrap();
        let stats = ctx.memo_stats().unwrap();
        let (h, m) = (stats.hits(), stats.misses());
        (h, m, ChaosRunReport::from_ctx(ctx).unwrap())
    };

    let (_, _, cold) = chaos("node-crash", 7);
    assert!(cold.success());
    let (_, misses, warm) = chaos("node-crash", 7);
    assert_eq!(misses, 0, "same schedule+seed must be a full replay");
    assert_eq!(warm.metrics, cold.metrics, "replayed recovery metrics must be identical");
    assert_eq!(warm.schedule.name, "node-crash", "replay must rebuild the fault schedule");

    // A different schedule or seed is a different experiment.
    let (hits, _, other) = chaos("gremlin", 7);
    assert_eq!(hits, 0, "schedule salt must namespace the cache");
    assert!(other.success());
    let (hits, _, _) = chaos("node-crash", 8);
    assert_eq!(hits, 0, "seed salt must namespace the cache");
}

#[test]
fn verify_warm_run_is_all_hits_but_tampered_results_reexecute() {
    let mut repo = seeded("ceph-rados", "e");
    let engine = ExperimentEngine::new();
    engine.run(&mut repo, "e").unwrap();

    let verify = |repo: &mut PopperRepo| -> (usize, usize, ReproVerdict) {
        let mut ctx = RunContext::for_experiment(repo, "e")
            .unwrap()
            .with_memo(lifecycle_session(repo, "e", "verify", &[]));
        engine.verify_pipeline(repo, &mut ctx).unwrap();
        let stats = ctx.memo_stats().unwrap();
        (stats.hits(), stats.misses(), ReproVerdict::from_ctx(&ctx).unwrap())
    };

    let (_, misses, verdict) = verify(&mut repo);
    assert!(misses > 0);
    assert_eq!(verdict, ReproVerdict::Identical);
    let (_, misses, verdict) = verify(&mut repo);
    assert_eq!(misses, 0, "re-verifying unchanged results must be a full replay");
    assert_eq!(verdict, ReproVerdict::Identical);

    // verify consumes results.csv as an *input*: a tampered recording
    // is a new verification question, never a stale cache hit.
    let csv = repo.read("experiments/e/results.csv").unwrap();
    repo.write("experiments/e/results.csv", csv.replacen("80", "81", 1)).unwrap();
    repo.commit("tamper with the recorded results").unwrap();
    let (hits, _, verdict) = verify(&mut repo);
    assert_eq!(hits, 0, "tampered results.csv must miss the verify cache");
    assert!(matches!(verdict, ReproVerdict::Differs(_)), "{verdict:?}");
}

#[test]
fn trace_diff_warm_repeat_replays_the_whole_comparison() {
    // Two commits carrying a trace.json each, like the diffrun tests.
    let mut repo = seeded("gassyfs", "g");
    let trace = |ts: u64| -> String {
        let sink = popper::trace::TraceSink::new();
        let t = sink.tracer(popper::trace::ClockDomain::Virtual);
        t.span_at("sim", "sim/serial", "admit", 100, 200);
        t.instant_at("chaos", "chaos/faults", "crash", ts);
        popper::trace::chrome_trace_json(&sink.drain())
    };
    repo.write("experiments/g/trace.json", trace(150)).unwrap();
    repo.commit("popper trace g: record timeline").unwrap();
    repo.vcs.tag("base", None).unwrap();
    repo.write("experiments/g/trace.json", trace(150)).unwrap();
    repo.write("notes.md", "same trace again\n").unwrap();
    repo.commit("popper trace g: record timeline again").unwrap();
    let head = repo.vcs.head_commit().unwrap().to_hex();

    let engine = ExperimentEngine::new();
    let opts = popper::trace::DiffOptions::default();
    let (cold, stats) =
        engine.trace_diff(&mut repo, "g", "base", &head, opts, true).unwrap();
    assert!(cold.success());
    let stats = stats.expect("session attached");
    assert_eq!(stats.hits(), 0);
    let (warm, stats) =
        engine.trace_diff(&mut repo, "g", "base", &head, opts, true).unwrap();
    let stats = stats.expect("session attached");
    assert_eq!(stats.misses(), 0, "same commits + options must be a full replay");
    assert_eq!(warm.diff, cold.diff);
    assert!(warm.commit.is_none(), "replay of an already-recorded diff commits nothing");
}

// ------------------------------------------------------- CLI surface

#[test]
fn cli_reports_memo_summary_and_no_cache_opts_out() {
    let dir = temp_dir("cli");
    run(&["init"], &dir).unwrap();
    run(&["add", "ceph-rados", "e"], &dir).unwrap();

    let cold = run(&["run", "e"], &dir).unwrap();
    assert!(cold.contains("memo: 0 hits /"), "cold run reports all misses:\n{cold}");
    let warm = run(&["run", "e"], &dir).unwrap();
    assert!(warm.contains("/ 0 misses"), "warm run reports all hits:\n{warm}");

    // --no-cache executes everything and prints no summary line.
    let uncached = run(&["run", "e", "--no-cache"], &dir).unwrap();
    assert!(!uncached.contains("memo:"), "{uncached}");
    assert!(uncached.contains("OK"), "{uncached}");

    // verify warms up the same way through the CLI.
    let cold = run(&["verify", "e"], &dir).unwrap();
    assert!(cold.contains("byte-identical"), "{cold}");
    let warm = run(&["verify", "e"], &dir).unwrap();
    assert!(warm.contains("/ 0 misses"), "{warm}");
    fs::remove_dir_all(&dir).ok();
}

/// This repository eats its own dog food: the root `.popper-ci.pml`
/// carries a memo self-check job that runs this file.
#[test]
fn own_ci_config_has_memo_selfcheck_job() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".popper-ci.pml");
    let text = fs::read_to_string(path).expect(".popper-ci.pml at the workspace root");
    let config = popper::ci::PipelineConfig::from_pml(&text).expect("config parses");
    let job = config.jobs.iter().find(|j| j.name == "memo-selfcheck");
    let job = job.expect("missing CI job 'memo-selfcheck'");
    let runs_target = |s: &String| s.split_whitespace().collect::<Vec<_>>().windows(2).any(|w| w == ["--test", "memo_pipeline"]);
    assert!(job.steps.iter().any(runs_target), "memo-selfcheck does not run --test memo_pipeline");
}

// ------------------------------------------------------- key properties

mod key_properties {
    use popper::memo::{KeyBuilder, MemoSession, StageEntry};
    use proptest::prelude::*;

    proptest! {
        /// The stage key is injective over (name, index, vars): any
        /// difference in what a stage is or observes moves its key.
        #[test]
        fn stage_identity_is_fully_keyed(
            a in ("[a-z]{1,8}", 0usize..8, "[a-z0-9:{}\"]{0,16}"),
            b in ("[a-z]{1,8}", 0usize..8, "[a-z0-9:{}\"]{0,16}"),
        ) {
            let base = KeyBuilder::new("prop/base").text("experiment", "e").finish();
            let key = |t: &(String, usize, String)| {
                MemoSession::new(base).stage_key(t.1, &t.0, &t.2)
            };
            if a == b {
                prop_assert_eq!(key(&a), key(&b));
            } else {
                prop_assert_ne!(key(&a), key(&b));
            }
        }

        /// Upstream outputs feed the chain: two sessions that replay
        /// different stage outputs diverge on every later key.
        #[test]
        fn upstream_output_divergence_moves_downstream_keys(
            out_a in proptest::collection::vec(any::<u8>(), 0..32),
            out_b in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let base = KeyBuilder::new("prop/base").text("experiment", "e").finish();
            let entry = |bytes: &[u8]| StageEntry {
                stop: false,
                duration_us: 1,
                fields: vec![("vars".to_string(), bytes.to_vec())],
                commits: Vec::new(),
            };
            let mut sa = MemoSession::new(base);
            let mut sb = MemoSession::new(base);
            prop_assert_eq!(sa.stage_key(0, "first", "{}"), sb.stage_key(0, "first", "{}"));
            sa.advance(&entry(&out_a));
            sb.advance(&entry(&out_b));
            let (ka, kb) = (sa.stage_key(1, "second", "{}"), sb.stage_key(1, "second", "{}"));
            if out_a == out_b {
                prop_assert_eq!(ka, kb);
            } else {
                prop_assert_ne!(ka, kb);
            }
        }
    }
}
