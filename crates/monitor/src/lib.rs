//! # popper-monitor
//!
//! Performance monitoring, baseline characterization and automated
//! performance-regression testing — three adjacent slots of the Popper
//! toolkit (§Toolkit: *Performance Monitoring*, *Automated Performance
//! Regression Testing*, and the baseline-"fingerprint" sanitization step
//! of §Automated Validation).
//!
//! * [`metrics`] — a time-series metric store (the Nagios/CollectD slot):
//!   named series of `(virtual time, value)` samples with tags, summary
//!   statistics and export to [`popper_format::Table`] for Aver.
//! * [`stressors`] — a stress-ng-style microbenchmark battery. Every
//!   stressor carries both a *real* Rust kernel (run on the machine
//!   executing the tests/benches) and a [`popper_sim::Demand`] vector
//!   (run on simulated platform models). The battery is the workload of
//!   the Torpor use case.
//! * [`baseline`] — baseliner-style platform fingerprints: measure the
//!   capability vector of a platform, persist it with the experiment,
//!   and *gate* re-execution on the new environment reproducing the
//!   baseline ("if the baseline performance cannot be reproduced, there
//!   is no point in executing the experiment").
//! * [`special`] — special functions (erf, ln-gamma, regularized
//!   incomplete beta) backing exact test statistics.
//! * [`regress`] — statistical regression detection: Welch's t-test and
//!   the Mann–Whitney U test, the two standard tools for the paper's
//!   "statistical reproducibility" methodology (§Numerical vs.
//!   Performance Reproducibility).

pub mod baseline;
pub mod metrics;
pub mod regress;
pub mod special;
pub mod stressors;

pub use baseline::{Baseline, BaselineGate, GateOutcome};
pub use metrics::MetricStore;
pub use regress::{mann_whitney_u, welch_t_test, RegressionCheck, RegressionVerdict};
pub use stressors::{Stressor, STRESSORS};
