//! Wiring a Popper repository into the CI engine.
//!
//! §Automated Validation distinguishes two categories of checks:
//! *integrity of the experimentation logic* (the paper builds, the
//! orchestration files parse, post-processing runs) and *integrity of
//! the experimental results* (domain-specific Aver assertions,
//! performance-regression gates). [`popper_steps`] implements both as a
//! [`popper_ci`] step executor over a shared repository; [`run_ci`]
//! runs the repository's `.popper-ci.pml` with it.

use crate::check::check_compliance;
use crate::experiment::{ExperimentEngine, RunReport};
use crate::memoize::{cache_disabled_by_env, lifecycle_session, MemoStats};
use crate::paper::build_paper;
use crate::pipeline::{CommitPolicy, RunContext};
use crate::repo::PopperRepo;
use parking_lot::Mutex;
use popper_ci::{BuildReport, PipelineConfig, StepCtx, StepOutcome};
use popper_format::Table;
use popper_monitor::RegressionCheck;
use popper_orchestra::Playbook;
use popper_vcs::Object;
use std::sync::Arc;

/// Build the step executor for a repository + engine. Steps:
///
/// * `build-paper` — the manuscript assembles with all figures.
/// * `validate-playbooks` — every experiment's `setup.pml` parses.
/// * `validate-pipelines` — `.popper-ci.pml` itself parses.
/// * `check-compliance` — no fatal [`crate::check`] violations.
/// * `run-experiment <name>` — full lifecycle run (gate, orchestrate,
///   execute, record, validate).
/// * `run-chaos <name>` — the chaos lifecycle (schedule → execute →
///   record → validate); the fault schedule and seed come from the
///   job's `schedule`/`seed` env, which a `matrix:` axis fans out
///   (one job, one run per schedule).
/// * `validate <name>` — re-check `validations.aver` against the stored
///   `results.csv` without re-running.
/// * `regression-gate <name> <column>` — compare the stored results
///   column against the previous commit's version with Welch's t-test.
/// * `trace-diff-selfcheck <name>` — run the traced lifecycle twice at
///   the same source state and assert the two recorded timelines are
///   structurally equivalent (dogfoods execution-provenance
///   determinism; wall-domain, so durations are not compared).
/// * `memo-selfcheck <name>` — prime the stage cache with one traced
///   run, then assert two warm repeats replay every stage (zero
///   misses) and still produce structurally equivalent timelines
///   (dogfoods the memo determinism contract; skipped when
///   `POPPER_NO_CACHE` is set).
/// * `store-stats` — ingest the repository's artifacts into a chunk
///   store and report the dedup ratio (what `popper store stats`
///   prints; in CI it doubles as a sanity check that artifacts chunk).
///
/// Lifecycle steps (`run-experiment`, `run-chaos`, the self-checks)
/// build their stage compositions directly and attach a memo session —
/// the same memoized path the CLI lifecycles use — unless
/// `POPPER_NO_CACHE` disables caching.
pub fn popper_steps(
    repo: Arc<Mutex<PopperRepo>>,
    engine: Arc<ExperimentEngine>,
) -> popper_ci::runner::Executor {
    Arc::new(move |ctx: &StepCtx| {
        let mut parts = ctx.command.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        match cmd {
            "build-paper" => {
                let repo = repo.lock();
                match build_paper(&repo) {
                    Ok(built) => StepOutcome::pass(format!(
                        "built '{}' ({} sections, {} figures)",
                        built.title,
                        built.sections.len(),
                        built.figures.len()
                    )),
                    Err(e) => StepOutcome::fail(format!("paper build failed: {e}")),
                }
            }
            "validate-playbooks" => {
                let repo = repo.lock();
                let mut checked = 0;
                for exp in repo.experiments() {
                    if let Some(text) = repo.read(&format!("experiments/{exp}/setup.pml")) {
                        if let Err(e) = Playbook::from_pml(&text) {
                            return StepOutcome::fail(format!("{exp}/setup.pml: {e}"));
                        }
                        checked += 1;
                    }
                }
                StepOutcome::pass(format!("{checked} playbook(s) parse"))
            }
            "validate-pipelines" => {
                let repo = repo.lock();
                match repo.read(".popper-ci.pml") {
                    Some(text) => match PipelineConfig::from_pml(&text) {
                        Ok(_) => StepOutcome::pass("pipeline config parses"),
                        Err(e) => StepOutcome::fail(e),
                    },
                    None => StepOutcome::fail(".popper-ci.pml missing"),
                }
            }
            "check-compliance" => {
                let repo = repo.lock();
                let violations = check_compliance(&repo);
                let fatals: Vec<String> =
                    violations.iter().filter(|v| v.fatal).map(|v| v.to_string()).collect();
                if fatals.is_empty() {
                    StepOutcome::pass(format!("popperized ({} warning(s))", violations.len()))
                } else {
                    StepOutcome::fail(fatals.join("; "))
                }
            }
            "run-experiment" => {
                let Some(name) = args.first() else {
                    return StepOutcome::fail("run-experiment needs an experiment name");
                };
                let mut repo = repo.lock();
                let mut run = || -> Result<(RunReport, Option<MemoStats>), String> {
                    let mut run_ctx = RunContext::for_experiment(&repo, name)?;
                    if !cache_disabled_by_env() {
                        run_ctx = run_ctx.with_memo(lifecycle_session(&repo, name, "run", &[]));
                    }
                    engine.run_pipeline(&mut repo, &mut run_ctx)?;
                    let stats = run_ctx.memo_stats().cloned();
                    Ok((RunReport::from_ctx(run_ctx), stats))
                };
                match run() {
                    Ok((report, stats)) if report.success() => {
                        StepOutcome::pass(with_memo_note(format!("{report}"), stats))
                    }
                    Ok((report, _)) => StepOutcome::fail(format!("{report}")),
                    Err(e) => StepOutcome::fail(e),
                }
            }
            "run-chaos" => {
                let Some(name) = args.first() else {
                    return StepOutcome::fail("run-chaos needs an experiment name");
                };
                let schedule = ctx.env.get("schedule").map(String::as_str);
                let seed = match ctx.env.get("seed") {
                    Some(s) => match s.parse::<u64>() {
                        Ok(n) => Some(n),
                        Err(_) => {
                            return StepOutcome::fail(format!(
                                "run-chaos: env 'seed' must be an integer, got '{s}'"
                            ))
                        }
                    },
                    None => None,
                };
                let mut repo = repo.lock();
                let mut run = || -> Result<(crate::ChaosRunReport, Option<MemoStats>), String> {
                    let mut run_ctx = RunContext::for_experiment(&repo, name)?;
                    if !cache_disabled_by_env() {
                        let mut salt = Vec::new();
                        if let Some(s) = schedule {
                            salt.push(("schedule".to_string(), s.to_string()));
                        }
                        if let Some(n) = seed {
                            salt.push(("seed".to_string(), n.to_string()));
                        }
                        run_ctx =
                            run_ctx.with_memo(lifecycle_session(&repo, name, "chaos", &salt));
                    }
                    engine.chaos_pipeline(&mut repo, &mut run_ctx, schedule, seed)?;
                    let stats = run_ctx.memo_stats().cloned();
                    Ok((crate::ChaosRunReport::from_ctx(run_ctx)?, stats))
                };
                match run() {
                    Ok((report, stats)) if report.success() => {
                        StepOutcome::pass(with_memo_note(format!("{report}"), stats))
                    }
                    Ok((report, _)) => StepOutcome::fail(format!("{report}")),
                    Err(e) => StepOutcome::fail(e),
                }
            }
            "validate" => {
                let Some(name) = args.first() else {
                    return StepOutcome::fail("validate needs an experiment name");
                };
                match validate_recorded(&repo.lock(), name) {
                    Ok(v) if v.passed => StepOutcome::pass(v.to_string()),
                    Ok(v) => StepOutcome::fail(v.to_string()),
                    Err(e) => StepOutcome::fail(e),
                }
            }
            "regression-gate" => {
                let (Some(name), Some(column)) = (args.first(), args.get(1)) else {
                    return StepOutcome::fail("regression-gate needs <experiment> <column>");
                };
                let repo = repo.lock();
                regression_gate(&repo, name, column)
            }
            "trace-diff-selfcheck" => {
                let Some(name) = args.first() else {
                    return StepOutcome::fail("trace-diff-selfcheck needs an experiment name");
                };
                let mut repo = repo.lock();
                let use_cache = !cache_disabled_by_env();
                // The warm-up recording puts the repository in a state
                // where the two compared runs have identical lifecycles:
                // it establishes the baseline fingerprint, the committed
                // trace.json path (the vcs layer's span names include
                // the committed path set), and — cache on — the memo
                // entries the two compared runs then replay from.
                if let Err(e) = record_traced_run(&mut repo, &engine, name, "warm-up", use_cache)
                {
                    return StepOutcome::fail(e);
                }
                let first = match record_traced_run(&mut repo, &engine, name, "1/2", use_cache) {
                    Ok((c, _)) => c,
                    Err(e) => return StepOutcome::fail(e),
                };
                let second = match record_traced_run(&mut repo, &engine, name, "2/2", use_cache) {
                    Ok((c, _)) => c,
                    Err(e) => return StepOutcome::fail(e),
                };
                // Wall-domain traces: compare structure only.
                match engine.trace_diff(
                    &mut repo,
                    name,
                    &first.to_hex(),
                    &second.to_hex(),
                    popper_trace::DiffOptions::structure_only(),
                    use_cache,
                ) {
                    Ok((report, _)) if report.diff.divergences.is_empty() => {
                        StepOutcome::pass(format!(
                            "two runs of '{name}' produced equivalent timelines ({} events)",
                            report.diff.events_a
                        ))
                    }
                    Ok((report, _)) => StepOutcome::fail(format!(
                        "execution provenance not deterministic:\n{report}"
                    )),
                    Err(e) => StepOutcome::fail(e),
                }
            }
            "memo-selfcheck" => {
                let Some(name) = args.first() else {
                    return StepOutcome::fail("memo-selfcheck needs an experiment name");
                };
                if cache_disabled_by_env() {
                    return StepOutcome::pass(
                        "memo-selfcheck skipped: POPPER_NO_CACHE disables the stage cache",
                    );
                }
                let mut repo = repo.lock();
                // One cold run primes the cache; the two warm repeats
                // must replay every stage and still record structurally
                // equivalent timelines (cold and warm traces differ —
                // replayed stages skip their body spans — so the warm
                // runs are compared against each other, not the prime).
                if let Err(e) = record_traced_run(&mut repo, &engine, name, "prime", true) {
                    return StepOutcome::fail(e);
                }
                let mut commits = Vec::new();
                for label in ["warm 1/2", "warm 2/2"] {
                    match record_traced_run(&mut repo, &engine, name, label, true) {
                        Ok((commit, Some(stats))) if stats.misses() == 0 => commits.push(commit),
                        Ok((_, Some(stats))) => {
                            return StepOutcome::fail(format!(
                                "memo-selfcheck: {label} of '{name}' executed {} stage(s) instead of replaying ({})",
                                stats.misses(),
                                stats.summary()
                            ))
                        }
                        Ok((_, None)) => {
                            return StepOutcome::fail(format!(
                                "memo-selfcheck: {label} of '{name}' ran without a memo session"
                            ))
                        }
                        Err(e) => return StepOutcome::fail(e),
                    }
                }
                match engine.trace_diff(
                    &mut repo,
                    name,
                    &commits[0].to_hex(),
                    &commits[1].to_hex(),
                    popper_trace::DiffOptions::structure_only(),
                    true,
                ) {
                    Ok((report, _)) if report.diff.divergences.is_empty() => {
                        StepOutcome::pass(format!(
                            "warm repeats of '{name}' replayed every stage and produced equivalent timelines ({} events)",
                            report.diff.events_a
                        ))
                    }
                    Ok((report, _)) => StepOutcome::fail(format!(
                        "warm replay diverged from its own repeat:\n{report}"
                    )),
                    Err(e) => StepOutcome::fail(e),
                }
            }
            "store-stats" => {
                let repo = repo.lock();
                StepOutcome::pass(store_stats_report(&repo))
            }
            other => StepOutcome::fail(format!("unknown CI step '{other}'")),
        }
    })
}

/// Check `experiment`'s `validations.aver` against its recorded
/// `results.csv`: the verdict, or why there is none. `popper validate`
/// and the CI `validate` step both call this.
pub fn validate_recorded(repo: &PopperRepo, experiment: &str) -> Result<popper_aver::Verdict, String> {
    let csv = repo
        .read(&format!("experiments/{experiment}/results.csv"))
        .ok_or_else(|| format!("experiment '{experiment}' has no results.csv (run it first)"))?;
    let src = repo
        .experiment_validations(experiment)
        .ok_or_else(|| format!("experiment '{experiment}' has no validations.aver"))?;
    let table = Table::from_csv(&csv).map_err(|e| e.to_string())?;
    popper_aver::check(&src, &table).map_err(|e| e.to_string())
}

/// Compare the working-tree `results.csv` of `experiment` against the
/// version recorded in the *previous* commit that touched it.
fn regression_gate(repo: &PopperRepo, experiment: &str, column: &str) -> StepOutcome {
    let path = format!("experiments/{experiment}/results.csv");
    let Some(current_csv) = repo.read(&path) else {
        return StepOutcome::fail(format!("{path} missing"));
    };
    let current = match Table::from_csv(&current_csv) {
        Ok(t) => t,
        Err(e) => return StepOutcome::fail(e.to_string()),
    };
    // Walk history for the most recent older version with different content.
    let Some(head) = repo.vcs.head_commit() else {
        return StepOutcome::pass("no history yet; nothing to compare");
    };
    let log = match repo.vcs.log(head) {
        Ok(l) => l,
        Err(e) => return StepOutcome::fail(e.to_string()),
    };
    // One path per commit, by blob id: a commit holding the current
    // bytes is skipped unread, and nothing else of its tree is read.
    let current_blob = repo.vcs.read_file(&path).map(Object::blob_id);
    let mut previous: Option<Table> = None;
    for (commit, _) in log {
        let Ok(Some(blob)) = repo.vcs.blob_at(commit, &path) else { continue };
        if Some(blob) == current_blob {
            continue;
        }
        if let Ok(Object::Blob(bytes)) = repo.vcs.get(blob) {
            if let Ok(t) = Table::from_csv(&String::from_utf8_lossy(&bytes)) {
                previous = Some(t);
                break;
            }
        }
    }
    let Some(previous) = previous else {
        return StepOutcome::pass("first recorded results; baseline established");
    };
    let (Ok(base), Ok(cand)) = (previous.numeric_column(column), current.numeric_column(column)) else {
        return StepOutcome::fail(format!("column '{column}' not numeric in both versions"));
    };
    popper_ci::history::regression_gate_step(
        &format!("{experiment}.{column}"),
        &base,
        &cand,
        &RegressionCheck::default(),
    )
}

/// Append the memo hit/miss summary to a step log when a session ran.
fn with_memo_note(log: String, stats: Option<MemoStats>) -> String {
    match stats {
        Some(s) => format!("{log}\n{}", s.summary()),
        None => log,
    }
}

/// One traced lifecycle run for the self-checks: execute the run
/// pipeline under a fresh recorder (and, when `use_cache`, a memo
/// session) and commit the recorded timeline as
/// `experiments/<name>/trace.json` (same recording the `popper trace`
/// command performs).
fn record_traced_run(
    repo: &mut PopperRepo,
    engine: &ExperimentEngine,
    name: &str,
    label: &str,
    use_cache: bool,
) -> Result<(popper_vcs::ObjectId, Option<MemoStats>), String> {
    let mut ctx = RunContext::for_experiment(repo, name)?
        .with_recorder(popper_trace::TraceRecorder::new());
    if use_cache {
        ctx = ctx.with_memo(lifecycle_session(repo, name, "trace", &[]));
    }
    engine.run_pipeline(repo, &mut ctx)?;
    let mut artifacts = std::mem::take(&mut ctx.artifacts);
    let events = ctx.finish_recording().expect("recorder attached");
    let stats = ctx.memo_stats().cloned();
    let report = RunReport::from_ctx(ctx);
    if !report.success() {
        return Err(format!("selfcheck run {label} of '{name}' failed: {report}"));
    }
    artifacts.stage(format!("experiments/{name}/trace.json"), popper_trace::chrome_trace_json(&events));
    let commit = artifacts
        .commit_into(
            repo,
            &format!("popper trace {name}: selfcheck recording {label}"),
            CommitPolicy::Always,
        )?
        .ok_or_else(|| format!("selfcheck recording {label} of '{name}' produced no commit"))?;
    Ok((commit, stats))
}

/// Chunk every worktree file into a fresh dedup store and report the
/// outcome: object counts on the vcs side, chunk counts and the dedup
/// ratio on the store side. Backs both the `store-stats` CI step and
/// the `popper store stats` command.
pub fn store_stats_report(repo: &PopperRepo) -> String {
    let mut store = popper_store::ChunkStore::new();
    let paths: Vec<String> = repo.vcs.files().map(str::to_string).collect();
    store.put_batch(paths.iter().filter_map(|p| repo.vcs.read_file(p)));
    format!(
        "{} file(s), {} vcs object(s); store: {}",
        paths.len(),
        repo.vcs.object_count(),
        store.stats()
    )
}

/// Run the repository's own `.popper-ci.pml`.
pub fn run_ci(
    repo: Arc<Mutex<PopperRepo>>,
    engine: Arc<ExperimentEngine>,
    workers: usize,
) -> Result<BuildReport, String> {
    let config_text = repo
        .lock()
        .read(".popper-ci.pml")
        .ok_or(".popper-ci.pml missing")?;
    let config = PipelineConfig::from_pml(&config_text)?;
    let executor = popper_steps(repo, engine);
    // Propagate the caller's ambient tracer into the worker pool.
    Ok(popper_ci::run_pipeline(&config, executor, workers, popper_trace::current()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::find_template;

    fn shared_repo_with(tpl: &str, name: &str) -> Arc<Mutex<PopperRepo>> {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template(tpl).unwrap().files(name) {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add experiment").unwrap();
        Arc::new(Mutex::new(repo))
    }

    #[test]
    fn default_pipeline_is_green() {
        let repo = shared_repo_with("ceph-rados", "e");
        let engine = Arc::new(ExperimentEngine::new());
        let report = run_ci(repo, engine, 2).unwrap();
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn full_experiment_pipeline() {
        let repo = shared_repo_with("ceph-rados", "e");
        {
            let mut r = repo.lock();
            r.write(
                ".popper-ci.pml",
                "stages: [lint, build, test, regression]\n\
                 jobs:\n\
                 \x20 - name: compliance\n\
                 \x20   stage: lint\n\
                 \x20   steps: [check-compliance, validate-playbooks, validate-pipelines]\n\
                 \x20 - name: run\n\
                 \x20   stage: test\n\
                 \x20   steps: [run-experiment e, validate e]\n\
                 \x20 - name: paper\n\
                 \x20   stage: build\n\
                 \x20   steps: [build-paper]\n\
                 \x20 - name: perf\n\
                 \x20   stage: regression\n\
                 \x20   steps: [regression-gate e y]\n",
            )
            .unwrap();
            r.commit("full pipeline").unwrap();
        }
        let engine = Arc::new(ExperimentEngine::new());
        let report = run_ci(repo.clone(), engine, 4).unwrap();
        assert!(report.passed(), "{}", report.summary());
        // The run step recorded results into the shared repo.
        assert!(repo.lock().exists("experiments/e/results.csv"));
    }

    #[test]
    fn chaos_matrix_fans_one_job_over_schedules() {
        // The chaos axis in the CI matrix: a per-job `matrix:` expands
        // one `run-chaos` job into one job per (schedule, seed) combo,
        // each driving the chaos lifecycle through its env.
        let repo = shared_repo_with("gassyfs", "g");
        {
            let mut r = repo.lock();
            r.write(
                ".popper-ci.pml",
                "stages: [chaos]\n\
                 jobs:\n\
                 \x20 - name: chaos-matrix\n\
                 \x20   stage: chaos\n\
                 \x20   matrix:\n\
                 \x20     schedule: [node-crash, gremlin]\n\
                 \x20     seed: [\"7\"]\n\
                 \x20   steps: [run-chaos g]\n",
            )
            .unwrap();
            r.commit("chaos matrix pipeline").unwrap();
        }
        // A stub fault-aware runner shaped like the real chaos tables.
        let mut engine = ExperimentEngine::new();
        engine.register("gassyfs-scalability", |vars| {
            let sched = popper_chaos::FaultSchedule::from_vars(vars)?.expect("faults armed");
            let mut t = Table::new(["schedule", "epoch", "recovery_ms", "degraded_fraction", "corrupt"]);
            t.push_row(vec![
                popper_format::Value::from(sched.name.as_str()),
                popper_format::Value::from(0i64),
                popper_format::Value::Num(12.0),
                popper_format::Value::Num(0.1),
                popper_format::Value::Num(0.0),
            ])
            .unwrap();
            Ok(t)
        });
        let report = run_ci(repo.clone(), Arc::new(engine), 2).unwrap();
        assert!(report.passed(), "{}", report.summary());
        // Both schedules ran as separate jobs...
        let summary = report.summary();
        assert!(summary.contains("schedule=node-crash"), "{summary}");
        assert!(summary.contains("schedule=gremlin"), "{summary}");
        // ...and the last one's artifacts landed (gremlin sorts after
        // node-crash in job order; each run commits its timeline).
        let r = repo.lock();
        let faults = r.read("experiments/g/faults.json").unwrap();
        assert!(faults.contains("gremlin"), "{faults}");
        assert!(r.vcs.status().unwrap().is_empty());
    }

    #[test]
    fn run_chaos_step_rejects_bad_seed() {
        let repo = shared_repo_with("gassyfs", "g");
        let executor = popper_steps(repo, Arc::new(ExperimentEngine::new()));
        let mut env = std::collections::BTreeMap::new();
        env.insert("schedule".to_string(), "node-crash".to_string());
        env.insert("seed".to_string(), "not-a-number".to_string());
        let outcome = executor(&StepCtx { command: "run-chaos g".into(), env, job: "chaos".into() });
        assert!(!outcome.success);
        assert!(outcome.log.contains("seed"), "{}", outcome.log);
    }

    #[test]
    fn paper_with_dangling_figure_fails_build_stage() {
        let repo = shared_repo_with("ceph-rados", "e");
        {
            let mut r = repo.lock();
            r.write("paper/paper.md", "# T\n\n![fig](experiments/e/figure.txt)\n").unwrap();
            r.commit("paper references unbuilt figure").unwrap();
        }
        let engine = Arc::new(ExperimentEngine::new());
        let report = run_ci(repo.clone(), engine.clone(), 2).unwrap();
        assert!(!report.passed(), "missing figure must fail CI");
        // Run the experiment, then CI goes green — the Popper loop.
        engine.run(&mut repo.lock(), "e").unwrap();
        let report = run_ci(repo, engine, 2).unwrap();
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn regression_gate_detects_slowdown() {
        // Regression gates compare repeated measurements of the same
        // configuration across commits (the Linux-kernel-style perf
        // testing the paper cites).
        let repo = shared_repo_with("ceph-rados", "e");
        let engine = Arc::new(ExperimentEngine::new());
        let runs_csv = |mean: f64| {
            let mut t = Table::new(["rep", "runtime_s"]);
            for i in 0..10 {
                t.push_row(vec![
                    popper_format::Value::from(i as i64),
                    popper_format::Value::Num(mean + (i % 5) as f64 * 0.5),
                ])
                .unwrap();
            }
            t.to_csv()
        };
        {
            let mut r = repo.lock();
            r.write("experiments/e/results.csv", runs_csv(100.0)).unwrap();
            r.commit("baseline runs").unwrap();
        }
        let executor = popper_steps(repo.clone(), engine);
        // First version: nothing to compare against.
        let outcome = executor(&StepCtx {
            command: "regression-gate e runtime_s".into(),
            env: Default::default(),
            job: "perf".into(),
        });
        assert!(outcome.success, "{}", outcome.log);
        // A 15% slowdown in a new commit trips the gate.
        {
            let mut r = repo.lock();
            r.write("experiments/e/results.csv", runs_csv(115.0)).unwrap();
            r.commit("slower results").unwrap();
        }
        let outcome = executor(&StepCtx {
            command: "regression-gate e runtime_s".into(),
            env: Default::default(),
            job: "perf".into(),
        });
        assert!(!outcome.success, "{}", outcome.log);
        assert!(outcome.log.contains("REGRESSION"));
        // An equivalent re-measurement does not.
        {
            let mut r = repo.lock();
            r.write("experiments/e/results.csv", runs_csv(115.1)).unwrap();
            r.commit("rerun, same speed").unwrap();
        }
        let outcome = executor(&StepCtx {
            command: "regression-gate e runtime_s".into(),
            env: Default::default(),
            job: "perf".into(),
        });
        assert!(outcome.success, "{}", outcome.log);
    }

    #[test]
    fn the_regression_gate_reads_only_the_results_it_compares() {
        let runs_csv = |mean: f64| format!("rep,runtime_s\n0,{mean}\n1,{}\n2,{mean}\n3,{}\n", mean + 0.5, mean + 0.5);
        let mut r = PopperRepo::init("t").unwrap();
        r.write("experiments/e/results.csv", runs_csv(100.0)).unwrap();
        r.write("notes/old.txt", "a note that a later commit rewrites\n").unwrap();
        r.commit("baseline runs").unwrap();
        r.write("experiments/e/results.csv", runs_csv(100.1)).unwrap();
        r.write("notes/old.txt", "the note today\n").unwrap();
        r.commit("rerun").unwrap();
        // Damage the old note's blob, which only the first commit holds.
        let file = std::env::temp_dir().join(format!("popper-gate-{}", std::process::id()));
        popper_vcs::state::save(&r.vcs, &file).unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        let at = bytes.windows(6).position(|w| w == b"a note").unwrap();
        bytes[at] ^= 0x20;
        std::fs::write(&file, &bytes).unwrap();
        let mut vcs = popper_vcs::state::load(std::fs::File::open(&file).unwrap()).unwrap();
        std::fs::remove_file(&file).ok();
        for (path, contents) in r.vcs.export_state().worktree {
            vcs.load_file(&path, contents, None);
        }
        let first = vcs.log(vcs.head_commit().unwrap()).unwrap()[1].0;
        assert!(vcs.snapshot_of(first).is_err(), "the first commit holds a damaged blob");
        let repo = Arc::new(Mutex::new(PopperRepo::from_vcs(vcs, "t")));
        let outcome = popper_steps(repo, Arc::new(ExperimentEngine::new()))(&StepCtx {
            command: "regression-gate e runtime_s".into(),
            env: Default::default(),
            job: "perf".into(),
        });
        assert!(outcome.success, "{}", outcome.log);
        assert!(outcome.log.contains("regression gate [e.runtime_s]"), "compared with the baseline: {}", outcome.log);
    }

    #[test]
    fn trace_diff_selfcheck_passes_for_deterministic_experiment() {
        let repo = shared_repo_with("ceph-rados", "e");
        let executor = popper_steps(repo.clone(), Arc::new(ExperimentEngine::new()));
        let outcome = executor(&StepCtx {
            command: "trace-diff-selfcheck e".into(),
            env: Default::default(),
            job: "provenance".into(),
        });
        assert!(outcome.success, "{}", outcome.log);
        assert!(outcome.log.contains("equivalent timelines"), "{}", outcome.log);
        // The step recorded the diff artifacts, all committed.
        let r = repo.lock();
        assert!(r.exists("experiments/e/trace-diff.json"));
        assert!(r.vcs.status().unwrap().is_empty());
        // Missing-name and unknown-experiment error paths.
        drop(r);
        let executor2 = popper_steps(shared_repo_with("ceph-rados", "e"), Arc::new(ExperimentEngine::new()));
        let outcome = executor2(&StepCtx {
            command: "trace-diff-selfcheck".into(),
            env: Default::default(),
            job: "provenance".into(),
        });
        assert!(!outcome.success);
        let outcome = executor2(&StepCtx {
            command: "trace-diff-selfcheck ghost".into(),
            env: Default::default(),
            job: "provenance".into(),
        });
        assert!(!outcome.success);
    }

    #[test]
    fn memo_selfcheck_passes_and_reports_replay() {
        let repo = shared_repo_with("ceph-rados", "e");
        let executor = popper_steps(repo.clone(), Arc::new(ExperimentEngine::new()));
        let outcome = executor(&StepCtx {
            command: "memo-selfcheck e".into(),
            env: Default::default(),
            job: "memo".into(),
        });
        assert!(outcome.success, "{}", outcome.log);
        assert!(outcome.log.contains("replayed every stage"), "{}", outcome.log);
        assert!(repo.lock().vcs.status().unwrap().is_empty());
        // Missing-name and unknown-experiment error paths.
        let outcome = executor(&StepCtx {
            command: "memo-selfcheck".into(),
            env: Default::default(),
            job: "memo".into(),
        });
        assert!(!outcome.success);
        let outcome = executor(&StepCtx {
            command: "memo-selfcheck ghost".into(),
            env: Default::default(),
            job: "memo".into(),
        });
        assert!(!outcome.success);
    }

    #[test]
    fn store_stats_step_reports_dedup() {
        let repo = shared_repo_with("ceph-rados", "e");
        let executor = popper_steps(repo.clone(), Arc::new(ExperimentEngine::new()));
        let outcome = executor(&StepCtx {
            command: "store-stats".into(),
            env: Default::default(),
            job: "store".into(),
        });
        assert!(outcome.success, "{}", outcome.log);
        assert!(outcome.log.contains("vcs object(s)"), "{}", outcome.log);
        assert!(outcome.log.contains("dedup"), "{}", outcome.log);
        assert_eq!(outcome.log, store_stats_report(&repo.lock()));
    }

    #[test]
    fn unknown_step_fails() {
        let repo = shared_repo_with("ceph-rados", "e");
        let executor = popper_steps(repo, Arc::new(ExperimentEngine::new()));
        let outcome = executor(&StepCtx { command: "frobnicate".into(), env: Default::default(), job: "j".into() });
        assert!(!outcome.success);
    }

    #[test]
    fn validate_without_results_fails() {
        let repo = shared_repo_with("ceph-rados", "e");
        let executor = popper_steps(repo, Arc::new(ExperimentEngine::new()));
        let outcome = executor(&StepCtx { command: "validate e".into(), env: Default::default(), job: "j".into() });
        assert!(!outcome.success);
        assert!(outcome.log.contains("results.csv"));
    }
}
