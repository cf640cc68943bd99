//! The numerical-reproducibility lifecycle: `popper verify <exp>`.
//!
//! §Discussion, *Numerical vs. Performance Reproducibility*: does
//! re-executing the experiment produce the *same numerical values* as
//! the recorded artifact? Like every other lifecycle this is a stage
//! composition over the shared [`Pipeline`] engine — load the recorded
//! `results.csv`, re-run the experiment's runner through the *shared*
//! execute stage, byte-compare, and record the verdict. The record
//! stage uses [`CommitPolicy::IfChanged`], so re-verifying an
//! unchanged experiment is idempotent: no new commit, no churn.

use crate::experiment::ExperimentEngine;
use crate::lifecycle::Lifecycle;
use crate::pipeline::{stages, CommitPolicy, Pipeline, RunContext, StageControl};
use crate::repo::PopperRepo;
use popper_format::{json, Value};
use std::fmt;

/// The outcome of a numerical-reproducibility check.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproVerdict {
    /// Re-execution reproduced `results.csv` byte for byte.
    Identical,
    /// Re-execution differs; carries a unified diff of the CSVs.
    Differs(String),
    /// Nothing recorded yet; run the experiment first.
    NoStoredResults,
}

impl ReproVerdict {
    /// Reconstruct the verdict from the metrics the verify stages
    /// recorded into the context.
    pub fn from_ctx(ctx: &RunContext) -> Result<ReproVerdict, String> {
        match ctx.metrics.get_str("verify_status") {
            Some("identical") => Ok(ReproVerdict::Identical),
            Some("differs") => Ok(ReproVerdict::Differs(
                ctx.metrics.get_str("verify_diff").unwrap_or_default().to_string(),
            )),
            Some("no-stored-results") => Ok(ReproVerdict::NoStoredResults),
            _ => Err(format!("experiment '{}': verify produced no verdict", ctx.experiment)),
        }
    }
}

impl fmt::Display for ReproVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproVerdict::Identical => write!(f, "numerically reproducible: re-execution is byte-identical"),
            ReproVerdict::Differs(diff) => write!(f, "NOT reproducible; results drifted:\n{diff}"),
            ReproVerdict::NoStoredResults => write!(f, "no recorded results.csv to verify against"),
        }
    }
}

impl ExperimentEngine {
    /// Re-execute `experiment`'s runner and compare against the stored
    /// `results.csv`, as a load → execute → compare → record pipeline.
    /// The verdict is recorded to `experiments/<exp>/verify.json`
    /// (committed only when it changed).
    pub fn verify(&self, repo: &mut PopperRepo, experiment: &str) -> Result<ReproVerdict, String> {
        ReproVerdict::from_ctx(&self.run_lifecycle(repo, experiment, &Lifecycle::Verify, false)?.ctx)
    }

    /// The verify stage composition over a caller-built context
    /// ([`ExperimentEngine::run_lifecycle`] builds it). All
    /// cross-stage state rides in `ctx.metrics` — never in captured
    /// closure state — so a warm prefix of cache hits replays soundly.
    pub fn verify_pipeline(
        &self,
        repo: &mut PopperRepo,
        ctx: &mut RunContext,
    ) -> Result<(), String> {
        let label = format!("verify {}", ctx.experiment);
        Pipeline::new(label)
            .stage("load", |repo, ctx| match repo.read(&ctx.artifact_path("results.csv")) {
                Some(s) => {
                    ctx.metrics.insert("verify_stored", Value::from(s));
                    Ok(StageControl::Continue)
                }
                None => {
                    ctx.metrics.insert("verify_status", Value::from("no-stored-results"));
                    Ok(StageControl::Stop)
                }
            })
            .stage("execute", stages::execute(self))
            .stage("compare", |_repo, ctx| {
                let stored = match ctx.metrics.remove("verify_stored") {
                    Some(Value::Str(s)) => s,
                    _ => return Err("compare: load stage recorded no results".into()),
                };
                let fresh =
                    ctx.results.as_ref().ok_or("compare: no re-executed results")?.to_csv();
                if fresh == stored {
                    ctx.metrics.insert("verify_status", Value::from("identical"));
                } else {
                    ctx.metrics.insert("verify_status", Value::from("differs"));
                    ctx.metrics.insert(
                        "verify_diff",
                        Value::from(popper_vcs::diff::unified(
                            "recorded/results.csv",
                            "reexecuted/results.csv",
                            &stored,
                            &fresh,
                            2,
                        )),
                    );
                }
                Ok(StageControl::Continue)
            })
            .stage("record", |repo, ctx| {
                let status = ctx
                    .metrics
                    .get_str("verify_status")
                    .ok_or("record: compare stage recorded no verdict")?
                    .to_string();
                let mut m = Value::empty_map();
                m.insert("experiment", Value::from(ctx.experiment.as_str()));
                m.insert("status", Value::from(status));
                ctx.artifacts.stage(ctx.artifact_path("verify.json"), json::to_string_pretty(&m));
                let msg =
                    format!("popper verify {}: record reproducibility verdict", ctx.experiment);
                ctx.commit = ctx.artifacts.commit_into(repo, &msg, CommitPolicy::IfChanged)?;
                Ok(StageControl::Continue)
            })
            .run(repo, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::find_template;

    fn repo_with(tpl: &str) -> PopperRepo {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template(tpl).unwrap().files("e") {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        repo
    }

    #[test]
    fn verify_confirms_deterministic_reexecution() {
        let mut repo = repo_with("ceph-rados");
        let engine = ExperimentEngine::new();
        assert_eq!(engine.verify(&mut repo, "e").unwrap(), ReproVerdict::NoStoredResults);
        engine.run(&mut repo, "e").unwrap();
        assert_eq!(engine.verify(&mut repo, "e").unwrap(), ReproVerdict::Identical);
    }

    #[test]
    fn verify_catches_drift() {
        let mut repo = repo_with("ceph-rados");
        let engine = ExperimentEngine::new();
        engine.run(&mut repo, "e").unwrap();
        // The recorded artifact is tampered with (or the run drifted).
        let csv = repo.read("experiments/e/results.csv").unwrap();
        let tampered = csv.replacen("80", "81", 1);
        assert_ne!(csv, tampered);
        repo.write("experiments/e/results.csv", tampered).unwrap();
        repo.commit("tamper").unwrap();
        match engine.verify(&mut repo, "e").unwrap() {
            ReproVerdict::Differs(diff) => {
                assert!(diff.contains("-"), "{diff}");
                assert!(diff.contains("recorded/results.csv"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verify_catches_parameter_changes_too() {
        // Changing vars without re-running: stored results no longer
        // reproduce — exactly the staleness Popper wants caught.
        let mut repo = repo_with("cloverleaf");
        let engine = ExperimentEngine::new();
        engine.run(&mut repo, "e").unwrap();
        let vars = repo.read("experiments/e/vars.pml").unwrap();
        repo.write("experiments/e/vars.pml", vars.replace("[1, 2, 4, 8, 16]", "[1, 2, 4]")).unwrap();
        repo.commit("shrink sweep without rerunning").unwrap();
        assert!(matches!(engine.verify(&mut repo, "e").unwrap(), ReproVerdict::Differs(_)));
    }

    #[test]
    fn verify_records_its_verdict_idempotently() {
        let mut repo = repo_with("ceph-rados");
        let engine = ExperimentEngine::new();
        engine.run(&mut repo, "e").unwrap();
        assert_eq!(engine.verify(&mut repo, "e").unwrap(), ReproVerdict::Identical);
        let recorded = repo.read("experiments/e/verify.json").unwrap();
        assert!(recorded.contains("identical"), "{recorded}");
        assert!(repo.vcs.status().unwrap().is_empty(), "verdict must be committed");
        // Re-verifying an unchanged experiment changes nothing: the
        // IfChanged record stage skips the idempotent re-commit.
        let head = repo.vcs.head_commit().unwrap();
        assert_eq!(engine.verify(&mut repo, "e").unwrap(), ReproVerdict::Identical);
        assert_eq!(repo.vcs.head_commit().unwrap(), head, "no churn commit on re-verify");
    }
}
