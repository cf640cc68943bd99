//! # popper-core
//!
//! The **Popper convention** itself (§The Popper Convention of the
//! paper): "a methodology for writing academic articles and associated
//! experiments following the DevOps model". This crate ties every
//! substrate together:
//!
//! * [`repo`] — the Popper repository model over [`popper_vcs`]: the
//!   canonical layout of Listing 1 (`paper/`, `experiments/<x>/` with
//!   `datasets/`, `run.sh`, `setup.pml`, `vars.pml`,
//!   `validations.aver`, `results.csv`, `figure.txt`), `popper init`,
//!   and commit plumbing.
//! * [`templates`] — the curated, "Popperized" experiment templates of
//!   Listing 2 (`ceph-rados`, `proteustm`, `mpi-comm-variability`,
//!   `cloverleaf`, `gassyfs`, `zlog`, `spark-standalone`, `torpor`,
//!   `malacology`, plus `jupyter-bww`) and the paper templates
//!   (`article`, `bams`).
//! * [`check`] — the compliance checker: is this repository
//!   *Popper-compliant* ("Popperized")? — "experiment code, experiment
//!   orchestration code, reference to data dependencies,
//!   parametrization of experiment, validation criteria and results"
//!   all present, by construction or by reference.
//! * [`experiment`] — the experiment lifecycle engine: sanitize
//!   (baseline gate) → orchestrate (playbook) → execute (a registered
//!   runner) → record (`results.csv`, committed) → validate (Aver).
//! * [`lifecycle`] — the one driver behind `popper run|verify|trace|chaos`,
//!   the CI lifecycle steps and the farm's jobs.
//! * [`paper`] — the manuscript side: `paper/build.sh` semantics
//!   (assemble the article, resolve figure references against
//!   experiment outputs) — the "PDF builds" CI check.
//! * [`cipipeline`] — wiring of a Popper repo into [`popper_ci`]: the
//!   generated `.popper-ci.pml` and the step executor that implements
//!   the paper's two validation categories (integrity of the
//!   experimentation logic; integrity of the results).

pub mod chaosrun;
pub mod check;
pub mod diffrun;
pub mod pack;
pub mod pipeline;
pub mod cipipeline;
pub mod experiment;
pub mod lifecycle;
pub mod memoize;
pub mod paper;
pub mod repo;
pub mod templates;
pub mod verify;

pub use chaosrun::ChaosRunReport;
pub use check::{check_compliance, Violation};
pub use diffrun::TraceDiffReport;
pub use memoize::{lifecycle_session, MemoSession, MemoStats, StageOutcome};
pub use pack::pack_experiment;
pub use pipeline::{ArtifactSet, CommitPolicy, Pipeline, RunContext, Stage, StageControl};
pub use experiment::{ExperimentEngine, RunReport, RunnerFn};
pub use lifecycle::{render_trace, Finished, Lifecycle};
pub use repo::PopperRepo;
pub use templates::{experiment_templates, paper_templates, Template};
pub use verify::ReproVerdict;
