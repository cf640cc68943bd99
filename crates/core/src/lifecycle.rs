//! One driver for every lifecycle a researcher, CI or the farm starts.
//!
//! `popper run|verify|trace|chaos`, the CI `run-experiment`/`run-chaos`
//! steps and self-checks, and each farm job all go through
//! [`ExperimentEngine::run_lifecycle`]. A [`Lifecycle`] names the
//! composition; from it alone the driver derives everything a caller
//! used to wire by hand: the memo mode and salt that key the session,
//! whether a trace recorder is attached, and the commit of `trace.json`
//! and `trace.svg` drawn from that one recording. CI therefore records
//! exactly what a human's `popper trace`/`popper chaos` records.

use crate::experiment::ExperimentEngine;
use crate::memoize::{cache_disabled_by_env, lifecycle_session};
use crate::pipeline::{CommitPolicy, RunContext};
use crate::repo::PopperRepo;
use popper_trace::{TraceEvent, TraceRecorder};

/// Which stage composition a lifecycle run executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lifecycle {
    /// sanitize → orchestrate → execute → record → validate.
    Run,
    /// load → execute → compare → record (numerical reproducibility).
    Verify,
    /// The `Run` stages under a recorder, plus the trace pair and the
    /// summary table.
    Trace,
    /// schedule → execute → record → validate under a recorder, plus
    /// the trace pair. `schedule`/`seed` override the experiment's
    /// `faults:` spec.
    Chaos {
        /// A named fault schedule.
        schedule: Option<String>,
        /// The schedule's seed.
        seed: Option<u64>,
    },
}

impl Lifecycle {
    /// The mode its memo session and trace commit are named by.
    fn mode(&self) -> &'static str {
        match self {
            Lifecycle::Run => "run",
            Lifecycle::Verify => "verify",
            Lifecycle::Trace => "trace",
            Lifecycle::Chaos { .. } => "chaos",
        }
    }

    /// What keys the session beyond the inputs: the chaos overrides.
    fn salt(&self) -> Vec<(String, String)> {
        let Lifecycle::Chaos { schedule, seed } = self else { return Vec::new() };
        let schedule = schedule.iter().map(|s| ("schedule".to_string(), s.clone()));
        let seed = seed.iter().map(|n| ("seed".to_string(), n.to_string()));
        schedule.chain(seed).collect()
    }

    fn records(&self) -> bool {
        matches!(self, Lifecycle::Trace | Lifecycle::Chaos { .. })
    }
}

/// A finished lifecycle run.
pub struct Finished {
    /// The context the stages left; for a recorded lifecycle its
    /// `commit` is the one that recorded the trace pair.
    pub ctx: RunContext,
    /// Events the recording held (0 when the lifecycle records none).
    pub events: usize,
    /// The trace summary table, for [`Lifecycle::Trace`] only.
    pub summary: Option<String>,
}

impl ExperimentEngine {
    /// Run `lifecycle` on `experiment`. The memo session is keyed by the
    /// lifecycle's own mode and salt unless `use_cache` is false or
    /// `POPPER_NO_CACHE` is set. A recorded lifecycle commits
    /// `trace.json` and `trace.svg` from its one recording after the
    /// stages; a stage error returns before anything of the trace is
    /// committed.
    pub fn run_lifecycle(
        &self,
        repo: &mut PopperRepo,
        experiment: &str,
        lifecycle: &Lifecycle,
        use_cache: bool,
    ) -> Result<Finished, String> {
        let mut ctx = RunContext::for_experiment(repo, experiment)?;
        if use_cache && !cache_disabled_by_env() {
            ctx = ctx.with_memo(lifecycle_session(repo, experiment, lifecycle.mode(), &lifecycle.salt()));
        }
        if lifecycle.records() {
            ctx = ctx.with_recorder(TraceRecorder::new());
        }
        match lifecycle {
            Lifecycle::Run | Lifecycle::Trace => self.run_pipeline(repo, &mut ctx)?,
            Lifecycle::Verify => self.verify_pipeline(repo, &mut ctx)?,
            Lifecycle::Chaos { schedule, seed } => {
                self.chaos_pipeline(repo, &mut ctx, schedule.as_deref(), *seed)?
            }
        }
        let Some(events) = ctx.finish_recording() else {
            return Ok(Finished { ctx, events: 0, summary: None });
        };
        let (json, svg, summary) = render_trace(&events, *lifecycle == Lifecycle::Trace);
        ctx.artifacts.stage(ctx.artifact_path("trace.json"), json);
        ctx.artifacts.stage(ctx.artifact_path("trace.svg"), svg);
        let message = format!("popper {} {experiment}: record trace", lifecycle.mode());
        if let Some(commit) = ctx.artifacts.commit_into(repo, &message, CommitPolicy::Always)? {
            ctx.commit = Some(commit);
        }
        Ok(Finished { ctx, events: events.len(), summary })
    }
}

/// What a recorded lifecycle renders from its drained recording: the
/// Chrome JSON, the timeline SVG and, when `with_summary`, the summary
/// table. The JSON renders on a scoped thread of its own while the
/// calling thread renders the other two.
pub fn render_trace(events: &[TraceEvent], with_summary: bool) -> (String, String, Option<String>) {
    std::thread::scope(|scope| {
        let json = scope.spawn(|| popper_trace::chrome_trace_json(events));
        let svg = popper_trace::timeline_svg(events);
        let summary = with_summary.then(|| popper_trace::summary_table(events));
        let json = json.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (json, svg, summary)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_chaos_salts_its_session_and_only_trace_and_chaos_record() {
        let chaos = Lifecycle::Chaos { schedule: Some("gremlin".into()), seed: Some(7) };
        assert_eq!(
            chaos.salt(),
            vec![("schedule".to_string(), "gremlin".to_string()), ("seed".to_string(), "7".to_string())]
        );
        assert!(Lifecycle::Chaos { schedule: None, seed: None }.salt().is_empty());
        for plain in [Lifecycle::Run, Lifecycle::Verify, Lifecycle::Trace] {
            assert!(plain.salt().is_empty());
        }
        assert!(Lifecycle::Trace.records() && chaos.records());
        assert!(!Lifecycle::Run.records() && !Lifecycle::Verify.records());
    }
}
