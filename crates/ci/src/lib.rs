//! # popper-ci
//!
//! A continuous-integration engine — the "Travis CI slot" of the Popper
//! toolkit (§Toolkit, *Continuous Integration*). The paper's convention
//! expects a `.travis.yml`-style specification whose tests "get executed
//! every time a new commit is added to the repository"; here that file
//! is `.popper-ci.pml` and the engine is in-process:
//!
//! * [`config`] — pipeline configuration: ordered stages, jobs with
//!   steps, an optional build matrix whose axes fan out into per-combo
//!   jobs with injected environment variables.
//! * [`runner`] — executes a pipeline: stages run sequentially, jobs
//!   within a stage run in parallel on a pool of `std::thread::scope`
//!   workers that claim jobs by index from one atomic counter, steps
//!   within a job run in order and stop at the first failure. Step
//!   semantics are supplied by the caller as an executor callback, so
//!   the engine is generic over what a "step" does (build the paper,
//!   validate playbook syntax, run an experiment, check an Aver
//!   assertion, run a performance-regression gate …).
//! * [`history`] — build history and the README badge
//!   (`build: passing`/`failing`), plus a helper wiring
//!   [`popper_monitor::RegressionCheck`] into a step.

pub mod config;
pub mod history;
pub mod runner;

pub use config::{Job, Matrix, PipelineConfig};
pub use history::{badge, BuildHistory};
pub use runner::{run_pipeline, BuildReport, JobResult, JobStatus, StepCtx, StepOutcome};
