//! The trace-diff lifecycle: `popper trace-diff <exp> <a>..<b>`.
//!
//! Execution-provenance regression gating: both commits already carry a
//! committed `experiments/<exp>/trace.json` artifact (recorded by
//! `popper trace` / `popper chaos`), so the lifecycle loads the two
//! artifacts straight out of the object store, aligns them with
//! [`popper_trace::diff_traces`], records `trace-diff.json` plus an
//! ASCII divergence report as committed artifacts, and gates on the
//! experiment's `trace.aver` (default: `expect trace_equivalent within
//! <tol>`). Virtual-time traces are byte-identical for identical
//! workloads, so any divergence is signal; wall-domain traces should be
//! compared structure-only or under a tolerance.

use crate::experiment::ExperimentEngine;
use crate::memoize::{cache_disabled_by_env, lifecycle_session, MemoStats};
use crate::pipeline::{CommitPolicy, Pipeline, RunContext, StageControl};
use crate::repo::PopperRepo;
use popper_aver::Verdict;
use popper_format::{json, Value};
use popper_trace::{diff_traces, parse_chrome_trace, DiffOptions, TraceDiff};
use popper_vcs::ObjectId;
use std::fmt;

/// The outcome of one `popper trace-diff` run.
#[derive(Debug)]
pub struct TraceDiffReport {
    /// Experiment name.
    pub experiment: String,
    /// Resolved left-hand commit.
    pub commit_a: ObjectId,
    /// Resolved right-hand commit.
    pub commit_b: ObjectId,
    /// The aligned diff.
    pub diff: TraceDiff,
    /// The Aver verdict (`trace.aver` or the default equivalence gate).
    pub verdict: Verdict,
    /// The commit that recorded the artifacts (`None` when this exact
    /// diff was already committed — re-running is idempotent).
    pub commit: Option<ObjectId>,
}

impl TraceDiffReport {
    /// Did the provenance gate hold?
    pub fn success(&self) -> bool {
        self.verdict.passed
    }
}

impl fmt::Display for TraceDiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace-diff '{}' {}..{}: {}",
            self.experiment,
            self.commit_a.short(),
            self.commit_b.short(),
            if self.success() { "EQUIVALENT" } else { "DIVERGED" }
        )?;
        write!(f, "{}", self.diff.report())?;
        write!(f, "  validation: {}", self.verdict)
    }
}

impl ExperimentEngine {
    /// Diff the recorded traces of one experiment between two commits
    /// (any ref `resolve` accepts: branch, tag, hex or unique hex
    /// prefix). Lifecycle stages are traced on `core/lifecycle`.
    /// With `use_cache` (and `POPPER_NO_CACHE` unset), a memo session is
    /// attached: both commits' trace bytes are content-addressed by the
    /// resolved commit ids, so the diff is a pure function of
    /// `(commit_a, commit_b, options, trace.aver)` — exactly what the
    /// session salt carries. Returns the hit/miss stats alongside the
    /// report when caching was on.
    pub fn trace_diff(
        &self,
        repo: &mut PopperRepo,
        experiment: &str,
        ref_a: &str,
        ref_b: &str,
        options: DiffOptions,
        use_cache: bool,
    ) -> Result<(TraceDiffReport, Option<MemoStats>), String> {
        // Resolve both refs up front: the memo key must be over the
        // resolved commit ids, not the (moving) ref names.
        let commit_a = repo.vcs.resolve(ref_a).map_err(|e| e.to_string())?;
        let commit_b = repo.vcs.resolve(ref_b).map_err(|e| e.to_string())?;
        let mut ctx = RunContext::new(experiment, Value::empty_map());
        if use_cache && !cache_disabled_by_env() {
            let salt = [
                ("commit_a".to_string(), commit_a.to_hex()),
                ("commit_b".to_string(), commit_b.to_hex()),
                ("tolerance_pct".to_string(), format!("{}", options.tolerance_pct)),
                ("structure_only".to_string(), format!("{}", !options.compare_durations)),
            ];
            ctx = ctx.with_memo(lifecycle_session(repo, experiment, "trace-diff", &salt));
        }
        self.trace_diff_pipeline(repo, &mut ctx, (ref_a, commit_a), (ref_b, commit_b), options)?;
        let diff = TraceDiff::from_value(
            ctx.metrics.get("trace_diff").ok_or("trace-diff: align stage recorded no diff")?,
        )?;
        let verdict = ctx
            .verdict
            .take()
            .ok_or_else(|| format!("experiment '{experiment}': trace-diff produced no verdict"))?;
        let stats = ctx.memo_stats().cloned();
        let report = TraceDiffReport {
            experiment: ctx.experiment,
            commit_a,
            commit_b,
            diff,
            verdict,
            commit: ctx.commit,
        };
        Ok((report, stats))
    }

    /// The trace-diff stage composition. All cross-stage state rides in
    /// `ctx.metrics` (the loaded trace bytes, then the aligned diff as
    /// its JSON value), so a warm prefix of cache hits replays soundly.
    fn trace_diff_pipeline(
        &self,
        repo: &mut PopperRepo,
        ctx: &mut RunContext,
        a: (&str, ObjectId),
        b: (&str, ObjectId),
        options: DiffOptions,
    ) -> Result<(), String> {
        let artifact = ctx.artifact_path("trace.json");
        let (commit_a, commit_b) = (a.1, b.1);

        let checkout = {
            let (ref_a, ref_b) = (a.0.to_string(), b.0.to_string());
            let artifact = artifact.clone();
            move |repo: &mut PopperRepo, ctx: &mut RunContext| {
                // Pull both commits' committed trace artifacts straight
                // from the object store (no working-tree checkout).
                let load = |refname: &str, commit: ObjectId| -> Result<String, String> {
                    let bytes = repo
                        .vcs
                        .file_at(commit, &artifact)
                        .map_err(|e| e.to_string())?
                        .ok_or_else(|| {
                            format!(
                                "commit {} ('{refname}') has no {artifact} — run `popper trace {}` at that commit first",
                                commit.short(),
                                ctx.experiment
                            )
                        })?;
                    String::from_utf8(bytes)
                        .map_err(|_| format!("{artifact} at {} is not UTF-8", commit.short()))
                };
                let trace_a = load(&ref_a, commit_a)?;
                let trace_b = load(&ref_b, commit_b)?;
                ctx.metrics.insert("trace_a", Value::Str(trace_a));
                ctx.metrics.insert("trace_b", Value::Str(trace_b));
                Ok(StageControl::Continue)
            }
        };

        let align = {
            let artifact = artifact.clone();
            move |_repo: &mut PopperRepo, ctx: &mut RunContext| {
                // Align span-by-span and classify divergences. The raw
                // trace bytes leave the context here: only the (small)
                // diff value crosses to the record/validate stages.
                let mut parse = |key: &str, commit: ObjectId| match ctx.metrics.remove(key) {
                    Some(Value::Str(s)) => parse_chrome_trace(&s)
                        .map_err(|e| format!("{artifact} at {}: {e}", commit.short())),
                    _ => Err(format!("align: checkout stage recorded no {key}")),
                };
                let (a, b) = (parse("trace_a", commit_a)?, parse("trace_b", commit_b)?);
                ctx.metrics.insert("trace_diff", diff_traces(&a, &b, options).to_value());
                Ok(StageControl::Continue)
            }
        };

        let record = move |repo: &mut PopperRepo, ctx: &mut RunContext| {
            // The outputs are pure functions of the committed
            // inputs, so re-diffing the same commits is idempotent:
            // identical bytes are not re-committed.
            let diff = TraceDiff::from_value(
                ctx.metrics.get("trace_diff").ok_or("record: align stage recorded no diff")?,
            )?;
            let mut body = diff.to_value();
            body.insert("experiment", Value::Str(ctx.experiment.clone()));
            body.insert("commit_a", Value::Str(commit_a.to_hex()));
            body.insert("commit_b", Value::Str(commit_b.to_hex()));
            let report_txt = format!(
                "trace-diff {} {}..{}\n{}",
                ctx.experiment,
                commit_a.short(),
                commit_b.short(),
                diff.report()
            );
            ctx.artifacts.stage(ctx.artifact_path("trace-diff.json"), json::to_string_pretty(&body));
            ctx.artifacts.stage(ctx.artifact_path("trace-diff.txt"), report_txt);
            let msg = format!(
                "popper trace-diff {}: {} divergence(s) between {} and {}",
                ctx.experiment,
                diff.divergences.len(),
                commit_a.short(),
                commit_b.short()
            );
            ctx.commit = ctx.artifacts.commit_into(repo, &msg, CommitPolicy::IfChanged)?;
            Ok(StageControl::Continue)
        };

        let validate = move |repo: &mut PopperRepo, ctx: &mut RunContext| {
            // Gate: the experiment's trace.aver, or the default
            // exact/tolerant equivalence predicate.
            let diff = TraceDiff::from_value(
                ctx.metrics.get("trace_diff").ok_or("validate: align stage recorded no diff")?,
            )?;
            let src = repo.read(&ctx.artifact_path("trace.aver")).unwrap_or_else(|| {
                format!("expect trace_equivalent within {}", options.tolerance_pct)
            });
            ctx.verdict =
                Some(popper_aver::check(&src, &diff.to_table()).map_err(|e| e.to_string())?);
            Ok(StageControl::Continue)
        };

        Pipeline::new(format!("trace-diff {}", ctx.experiment))
            .stage("checkout", checkout)
            .stage("align", align)
            .stage("record", record)
            .stage("validate", validate)
            .run(repo, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::find_template;
    use popper_trace::{chrome_trace_json, ClockDomain, TraceSink};

    fn trace_json(fault_ts: u64) -> String {
        let sink = TraceSink::new();
        let t = sink.tracer(ClockDomain::Virtual);
        let s = t.span_at("sim", "sim/serial", "admit", 100, 200);
        t.span_at_child(s, "sim", "sim/serial", "service", 120, 180);
        t.instant_at("chaos", "chaos/faults", "crash", fault_ts);
        t.counter_at("sim/engine", "pending", 2.0, 160);
        chrome_trace_json(&sink.drain())
    }

    /// A repo whose history carries a trace.json at two commits:
    /// `base` tag (fault at 150ns) and HEAD (fault at `head_fault_ts`).
    fn repo_with_traces(head_fault_ts: u64) -> PopperRepo {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("gassyfs").unwrap().files("g") {
            repo.write(&path, contents).unwrap();
        }
        repo.write("experiments/g/trace.json", trace_json(150)).unwrap();
        repo.commit("popper trace g: record timeline").unwrap();
        repo.vcs.tag("base", None).unwrap();
        repo.write("experiments/g/trace.json", trace_json(head_fault_ts)).unwrap();
        // An unrelated change keeps the commit non-empty even when the
        // trace is identical.
        repo.write("notes.md", format!("fault at {head_fault_ts}\n")).unwrap();
        repo.commit("popper trace g: record timeline again").unwrap();
        repo
    }

    #[test]
    fn identical_traces_pass_and_record_artifacts() {
        let mut repo = repo_with_traces(150);
        let engine = ExperimentEngine::new();
        // Pin the right-hand side: `main` itself moves when the diff's
        // own recording commit lands.
        let head = repo.vcs.head_commit().unwrap().to_hex();
        let report = engine
            .trace_diff(&mut repo, "g", "base", &head, DiffOptions::default(), false)
            .unwrap()
            .0;
        assert!(report.success(), "{:?}", report.verdict.failures);
        assert!(report.diff.divergences.is_empty());
        assert!(report.commit.is_some());
        assert!(repo.exists("experiments/g/trace-diff.json"));
        assert!(repo.exists("experiments/g/trace-diff.txt"));
        assert!(repo.vcs.status().unwrap().is_empty(), "artifacts must be committed");
        let body = repo.read("experiments/g/trace-diff.json").unwrap();
        assert!(body.contains("\"divergences\": 0"), "{body}");

        // Re-running the same diff is idempotent: identical artifacts,
        // no new commit, byte-stable report.
        let txt1 = repo.read("experiments/g/trace-diff.txt").unwrap();
        let again = engine
            .trace_diff(&mut repo, "g", "base", &head, DiffOptions::default(), false)
            .unwrap()
            .0;
        assert!(again.commit.is_none());
        assert_eq!(repo.read("experiments/g/trace-diff.txt").unwrap(), txt1);
    }

    #[test]
    fn moved_fault_instant_diverges_and_is_named() {
        let mut repo = repo_with_traces(155);
        let engine = ExperimentEngine::new();
        let report = engine
            .trace_diff(&mut repo, "g", "base", "main", DiffOptions::default(), false)
            .unwrap()
            .0;
        assert!(!report.success());
        assert_eq!(report.diff.structural_count(), 1);
        let body = repo.read("experiments/g/trace-diff.json").unwrap();
        assert!(body.contains("fault-mismatch"), "{body}");
        assert!(body.contains("crash"), "{body}");
        assert!(report.to_string().contains("DIVERGED"));

        // Structure-only comparison ignores the timestamp move.
        let relaxed = engine
            .trace_diff(&mut repo, "g", "base", "main", DiffOptions::structure_only(), false)
            .unwrap()
            .0;
        assert!(relaxed.success(), "{:?}", relaxed.verdict.failures);
    }

    #[test]
    fn trace_aver_overrides_default_gate() {
        let mut repo = repo_with_traces(150);
        repo.write("experiments/g/trace.aver", "expect count(structural) = 99\n").unwrap();
        repo.commit("impossible trace gate").unwrap();
        let report = ExperimentEngine::new()
            .trace_diff(&mut repo, "g", "base", "main", DiffOptions::default(), false)
            .unwrap()
            .0;
        assert!(!report.success(), "custom trace.aver must be consulted");
    }

    #[test]
    fn missing_artifact_is_a_clear_error() {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("gassyfs").unwrap().files("g") {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("popper add gassyfs g").unwrap();
        repo.vcs.tag("base", None).unwrap();
        let err = ExperimentEngine::new()
            .trace_diff(&mut repo, "g", "base", "main", DiffOptions::default(), false)
            .unwrap_err();
        assert!(err.contains("popper trace g"), "{err}");
        let err = ExperimentEngine::new()
            .trace_diff(&mut repo, "g", "nope", "main", DiffOptions::default(), false)
            .unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }
}
