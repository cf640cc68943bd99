//! The staged lifecycle engine shared by every experiment mode.
//!
//! The paper's central claim is that an experiment is a *pipeline of
//! stages* executed identically by a human, by CI, or by a reviewer.
//! This module makes that pipeline a first-class object: a
//! [`RunContext`] (experiment id, parameter map, optional fault
//! schedule, tracer, staged artifacts) threaded through a [`Pipeline`]
//! of named [`Stage`]s. `popper run`, `popper trace`, `popper chaos`
//! and `popper trace-diff` are stage *compositions* over this engine —
//! chaos is run plus a fault-arming decorator before the shared
//! execute stage, trace-diff is a checkout/align/record/validate
//! composition — instead of four copy-adapted drivers.
//!
//! **Commit atomicity invariant:** stages never write through to the
//! repository; they stage bytes into the context's [`ArtifactSet`],
//! and the record stage commits the whole set at once. A stage that
//! errors therefore leaves the repository clean — no partial artifact
//! commit, no dirty working tree — in every mode.

use crate::experiment::ExperimentEngine;
use crate::memoize;
use crate::repo::PopperRepo;
use popper_aver::Verdict;
use popper_memo::{MemoSession, MemoStats};
use popper_chaos::FaultSchedule;
use popper_format::{Table, Value};
use popper_monitor::GateOutcome;
use popper_trace::{TraceRecorder, TraceRecording, Tracer};
use popper_vcs::{ObjectId, VcsError};

/// How [`ArtifactSet::commit_into`] treats already-identical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Write and commit unconditionally (run/trace/chaos re-runs must
    /// land a commit even when results are byte-identical: every
    /// execution is provenance).
    Always,
    /// Skip the write *and* the commit when every staged artifact
    /// already has identical bytes in the working tree — re-running a
    /// pure function of committed inputs (trace-diff) is idempotent.
    IfChanged,
}

/// Artifacts staged in memory by lifecycle stages, committed as one
/// atomic unit. Owning the buffer here (instead of each driver calling
/// `repo.write` file-by-file) is what guarantees the no-partial-commit
/// invariant: nothing touches the repository until `commit_into`.
#[derive(Debug, Default)]
pub struct ArtifactSet {
    staged: Vec<(String, Vec<u8>)>,
}

impl ArtifactSet {
    /// Stage one artifact (replacing any earlier staging of the path).
    pub fn stage(&mut self, path: impl Into<String>, bytes: impl Into<Vec<u8>>) {
        let path = path.into();
        self.staged.retain(|(p, _)| *p != path);
        self.staged.push((path, bytes.into()));
    }

    /// Is anything staged?
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// The staged `(path, bytes)` pairs, in staging order (the memo
    /// layer serializes and restores the set through this).
    pub fn staged(&self) -> &[(String, Vec<u8>)] {
        &self.staged
    }

    /// Write every staged artifact and commit them as one unit,
    /// draining the set. Returns the commit, or `None` when the policy
    /// skipped an idempotent re-commit.
    pub fn commit_into(
        &mut self,
        repo: &mut PopperRepo,
        message: &str,
        policy: CommitPolicy,
    ) -> Result<Option<ObjectId>, String> {
        if self.staged.is_empty() {
            return Ok(None);
        }
        if policy == CommitPolicy::IfChanged {
            let unchanged = self
                .staged
                .iter()
                .all(|(path, bytes)| repo.vcs.read_file(path) == Some(bytes.as_slice()));
            if unchanged {
                self.staged.clear();
                return Ok(None);
            }
        }
        for (path, bytes) in self.staged.drain(..) {
            repo.write(&path, bytes).map_err(|e| e.to_string())?;
        }
        match repo.commit(message) {
            Ok(c) => Ok(Some(c)),
            Err(VcsError::NothingStaged) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// What a stage tells the pipeline to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageControl {
    /// Proceed to the next stage.
    Continue,
    /// Stop the pipeline cleanly (e.g. the baseline gate blocked the
    /// run); not an error.
    Stop,
}

/// The state threaded through a pipeline: everything the old drivers
/// passed around as loose locals, plus the staged artifacts.
pub struct RunContext {
    /// Experiment name.
    pub experiment: String,
    /// The experiment's parameter map (`vars.pml`), which decorator
    /// stages may augment (chaos inserts the resolved `faults:` spec).
    pub vars: Value,
    /// The resolved fault schedule, when a chaos decorator armed one.
    pub schedule: Option<FaultSchedule>,
    /// Baseline-gate outcome, once the sanitize stage ran.
    pub gate: Option<GateOutcome>,
    /// Orchestration recap (empty if the experiment has no playbook).
    pub orchestration: String,
    /// The results table, once the execute stage ran.
    pub results: Option<Table>,
    /// Mode-specific metrics (chaos records recovery metrics here).
    pub metrics: Value,
    /// The Aver verdict, once the validate stage ran.
    pub verdict: Option<Verdict>,
    /// Artifacts staged for the atomic record commit.
    pub artifacts: ArtifactSet,
    /// The commit that recorded the artifacts.
    pub commit: Option<ObjectId>,
    /// The tracer every stage records through (the ambient tracer, or
    /// the recorder's when one is attached).
    pub tracer: Tracer,
    recorder: Option<TraceRecorder>,
    pub(crate) memo: Option<MemoSession>,
}

impl RunContext {
    /// A context over an explicit parameter map (trace-diff needs no
    /// `vars.pml`). The tracer defaults to the ambient one.
    pub fn new(experiment: impl Into<String>, vars: Value) -> RunContext {
        RunContext {
            experiment: experiment.into(),
            vars,
            schedule: None,
            gate: None,
            orchestration: String::new(),
            results: None,
            metrics: Value::empty_map(),
            verdict: None,
            artifacts: ArtifactSet::default(),
            commit: None,
            tracer: popper_trace::current(),
            recorder: None,
            memo: None,
        }
    }

    /// A context for one of the repository's experiments.
    pub fn for_experiment(repo: &PopperRepo, experiment: &str) -> Result<RunContext, String> {
        Ok(RunContext::new(experiment, repo.experiment_vars(experiment)?))
    }

    /// Attach a [`TraceRecorder`]: stages record through it, and the
    /// pipeline streams each stage's wave into the recorder as it
    /// completes (the streaming Chrome exporter encodes incrementally).
    pub fn with_recorder(mut self, recorder: TraceRecorder) -> RunContext {
        self.tracer = recorder.tracer();
        self.recorder = Some(recorder);
        self
    }

    /// Detach and finish the recorder, if one was attached.
    pub fn finish_recording(&mut self) -> Option<TraceRecording> {
        self.recorder.take().map(TraceRecorder::finish)
    }

    /// Attach a memo session: stages whose keys are cached replay from
    /// recorded outputs instead of executing (see [`crate::memoize`]).
    pub fn with_memo(mut self, session: MemoSession) -> RunContext {
        self.memo = Some(session);
        self
    }

    /// Hit/miss accounting, when a memo session is attached.
    pub fn memo_stats(&self) -> Option<&MemoStats> {
        self.memo.as_ref().map(|s| &s.stats)
    }

    /// The experiment's runner name from `vars.pml`.
    pub fn runner_name(&self) -> Result<&str, String> {
        self.vars
            .get_str("runner")
            .ok_or_else(|| format!("experiment '{}': vars.pml has no 'runner'", self.experiment))
    }

    /// `experiments/<name>/<artifact>`.
    pub fn artifact_path(&self, artifact: &str) -> String {
        format!("experiments/{}/{artifact}", self.experiment)
    }

    /// Gate passed (or never ran) and validations hold (or never ran,
    /// with the gate open).
    pub fn success(&self) -> bool {
        let may_run = self.gate.as_ref().map(GateOutcome::may_run).unwrap_or(true);
        may_run && self.verdict.as_ref().map(|v| v.passed).unwrap_or(may_run)
    }
}

/// An all-passed verdict for modes/paths with nothing to assert.
pub(crate) fn pass_verdict() -> Verdict {
    Verdict { passed: true, failures: vec![], assertions: 0, groups: 0 }
}

type StageFn<'a> = Box<dyn FnOnce(&mut PopperRepo, &mut RunContext) -> Result<StageControl, String> + 'a>;

/// A named lifecycle stage. The name becomes the stage's span on the
/// `core/lifecycle` track, so trace consumers see the same five-stage
/// timeline the paper's Figure 1 describes.
pub struct Stage<'a> {
    pub(crate) name: &'static str,
    pub(crate) f: StageFn<'a>,
}

/// A composition of named stages over one [`RunContext`].
pub struct Pipeline<'a> {
    label: String,
    stages: Vec<Stage<'a>>,
}

impl<'a> Pipeline<'a> {
    /// An empty pipeline; `label` names the whole run's span
    /// (e.g. `run myexp`, `chaos myexp`).
    pub fn new(label: impl Into<String>) -> Pipeline<'a> {
        Pipeline { label: label.into(), stages: Vec::new() }
    }

    /// Append a stage.
    pub fn stage(
        mut self,
        name: &'static str,
        f: impl FnOnce(&mut PopperRepo, &mut RunContext) -> Result<StageControl, String> + 'a,
    ) -> Pipeline<'a> {
        self.stages.push(Stage { name, f: Box::new(f) });
        self
    }

    /// Run the stages in order under the context's tracer. A stage
    /// returning [`StageControl::Stop`] ends the run cleanly; an `Err`
    /// propagates — and, by the atomicity invariant, leaves the
    /// repository exactly as the last completed commit left it.
    ///
    /// When the context carries a memo session
    /// ([`RunContext::with_memo`]), each stage is first looked up in
    /// the memo table and replayed on a hit — [`crate::memoize`] owns
    /// that path; without a session this executes every stage body.
    pub fn run(self, repo: &mut PopperRepo, ctx: &mut RunContext) -> Result<(), String> {
        let tracer = ctx.tracer.clone();
        popper_trace::with_current(tracer.clone(), || {
            let _run_span = tracer.span("core", "core/lifecycle", self.label.as_str());
            for (index, stage) in self.stages.into_iter().enumerate() {
                let control = {
                    let _s = tracer.span("core", "core/lifecycle", stage.name);
                    memoize::execute_stage(repo, ctx, index, stage)?
                };
                if let Some(rec) = ctx.recorder.as_mut() {
                    rec.absorb();
                }
                if control == StageControl::Stop {
                    break;
                }
            }
            Ok(())
        })
    }
}

/// Stage builders shared across mode compositions.
pub mod stages {
    use super::*;

    /// Where the validate stage finds its assertions.
    pub enum ValidationSource {
        /// The experiment's `validations.aver` (missing ⇒ trivially
        /// passed).
        Validations,
        /// The experiment's `chaos.aver`, defaulting to
        /// [`popper_chaos::DEFAULT_ASSERTIONS`].
        Chaos,
    }

    /// The shared execute stage: look up the runner named in the
    /// context's vars and run it. The chaos composition reuses this
    /// unchanged — its decorator already armed `faults:` in the vars.
    pub fn execute(
        engine: &ExperimentEngine,
    ) -> impl FnOnce(&mut PopperRepo, &mut RunContext) -> Result<StageControl, String> + '_ {
        move |_repo, ctx| {
            let name = ctx.runner_name()?.to_string();
            let runner = engine.runner(&name).ok_or_else(|| {
                format!("unknown runner '{name}' (registered: {:?})", engine.runners())
            })?;
            ctx.results = Some(runner(&ctx.vars)?);
            Ok(StageControl::Continue)
        }
    }

    /// The shared record stage for run-shaped modes: stage
    /// `results.csv` plus the figure (a chart when `vars.pml` has a
    /// `figure:` spec, the pretty table otherwise) and commit
    /// atomically.
    pub fn record_results(
    ) -> impl FnOnce(&mut PopperRepo, &mut RunContext) -> Result<StageControl, String> {
        move |repo, ctx| {
            let results = ctx.results.as_ref().ok_or("record: no results to record")?;
            let mut staged = vec![(ctx.artifact_path("results.csv"), results.to_csv())];
            match popper_viz::FigureSpec::from_vars(&ctx.vars, &ctx.experiment)? {
                Some(spec) => {
                    let (svg, ascii) = popper_viz::render_from_spec(&spec, results)?;
                    staged.push((ctx.artifact_path("figure.svg"), svg));
                    staged.push((ctx.artifact_path("figure.txt"), ascii));
                }
                None => staged.push((ctx.artifact_path("figure.txt"), results.to_pretty())),
            }
            for (path, bytes) in staged {
                ctx.artifacts.stage(path, bytes);
            }
            let msg = format!("popper run {}: record results", ctx.experiment);
            ctx.commit = ctx.artifacts.commit_into(repo, &msg, CommitPolicy::Always)?;
            Ok(StageControl::Continue)
        }
    }

    /// The shared validate stage: check the mode's assertion source
    /// against the results.
    pub fn validate(
        source: ValidationSource,
    ) -> impl FnOnce(&mut PopperRepo, &mut RunContext) -> Result<StageControl, String> {
        move |repo, ctx| {
            let results = ctx.results.as_ref().ok_or("validate: no results to check")?;
            let verdict = match source {
                ValidationSource::Validations => match repo.experiment_validations(&ctx.experiment) {
                    Some(src) => popper_aver::check(&src, results).map_err(|e| e.to_string())?,
                    None => pass_verdict(),
                },
                ValidationSource::Chaos => {
                    let src = repo
                        .read(&ctx.artifact_path("chaos.aver"))
                        .unwrap_or_else(|| popper_chaos::DEFAULT_ASSERTIONS.to_string());
                    popper_aver::check(&src, results).map_err(|e| e.to_string())?
                }
            };
            ctx.verdict = Some(verdict);
            Ok(StageControl::Continue)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_set_commits_atomically_and_drains() {
        let mut repo = PopperRepo::init("t").unwrap();
        let mut set = ArtifactSet::default();
        set.stage("a.txt", "alpha");
        set.stage("b.txt", "beta");
        set.stage("a.txt", "alpha2"); // restaging replaces
        let commit = set.commit_into(&mut repo, "record pair", CommitPolicy::Always).unwrap();
        assert!(commit.is_some());
        assert!(set.is_empty());
        assert_eq!(repo.read("a.txt").as_deref(), Some("alpha2"));
        assert_eq!(repo.read("b.txt").as_deref(), Some("beta"));
        assert!(repo.vcs.status().unwrap().is_empty());
    }

    #[test]
    fn if_changed_policy_is_idempotent() {
        let mut repo = PopperRepo::init("t").unwrap();
        let mut set = ArtifactSet::default();
        set.stage("x.txt", "same");
        assert!(set.commit_into(&mut repo, "first", CommitPolicy::IfChanged).unwrap().is_some());
        set.stage("x.txt", "same");
        assert!(set.commit_into(&mut repo, "again", CommitPolicy::IfChanged).unwrap().is_none());
        assert!(set.is_empty());
        set.stage("x.txt", "different");
        assert!(set.commit_into(&mut repo, "third", CommitPolicy::IfChanged).unwrap().is_some());
    }

    #[test]
    fn if_changed_policy_compares_binary_bytes_exactly() {
        // Not UTF-8: a lossy text comparison never finds these equal.
        let blob = [0xffu8, 0xfe, 0x00];
        let mut repo = PopperRepo::init("t").unwrap();
        let mut set = ArtifactSet::default();
        set.stage("data/blob.bin", blob);
        assert!(set.commit_into(&mut repo, "first", CommitPolicy::IfChanged).unwrap().is_some());
        let head = repo.vcs.head_commit();
        set.stage("data/blob.bin", blob);
        assert_eq!(set.commit_into(&mut repo, "again", CommitPolicy::IfChanged).unwrap(), None);
        assert_eq!(repo.vcs.head_commit(), head);
    }

    #[test]
    fn pipeline_runs_stages_in_order_and_stop_short_circuits() {
        let mut repo = PopperRepo::init("t").unwrap();
        let mut ctx = RunContext::new("e", Value::empty_map());
        let mut order = Vec::new();
        {
            let order = std::cell::RefCell::new(&mut order);
            Pipeline::new("run e")
                .stage("sanitize", |_r, _c| {
                    order.borrow_mut().push("sanitize");
                    Ok(StageControl::Continue)
                })
                .stage("execute", |_r, _c| {
                    order.borrow_mut().push("execute");
                    Ok(StageControl::Stop)
                })
                .stage("record", |_r, _c| {
                    order.borrow_mut().push("record");
                    Ok(StageControl::Continue)
                })
                .run(&mut repo, &mut ctx)
                .unwrap();
        }
        assert_eq!(order, vec!["sanitize", "execute"]);
    }

    #[test]
    fn erroring_stage_leaves_repo_clean() {
        let mut repo = PopperRepo::init("t").unwrap();
        let mut ctx = RunContext::new("e", Value::empty_map());
        let err = Pipeline::new("run e")
            .stage("record", |_r, c| {
                c.artifacts.stage("experiments/e/results.csv", "partial");
                Err("boom mid-record".to_string())
            })
            .run(&mut repo, &mut ctx)
            .unwrap_err();
        assert!(err.contains("boom"));
        // The staged artifact never reached the repository.
        assert!(!repo.exists("experiments/e/results.csv"));
        assert!(repo.vcs.status().unwrap().is_empty());
    }

    #[test]
    fn pipeline_stages_record_spans_through_an_attached_recorder() {
        let mut repo = PopperRepo::init("t").unwrap();
        let mut ctx = RunContext::new("e", Value::empty_map())
            .with_recorder(TraceRecorder::ordered());
        Pipeline::new("run e")
            .stage("sanitize", |_r, _c| Ok(StageControl::Continue))
            .stage("execute", |_r, _c| Ok(StageControl::Continue))
            .run(&mut repo, &mut ctx)
            .unwrap();
        let recording = ctx.finish_recording().unwrap();
        let names: Vec<&str> = recording.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"run e"));
        assert!(names.contains(&"sanitize"));
        assert!(names.contains(&"execute"));
    }
}
