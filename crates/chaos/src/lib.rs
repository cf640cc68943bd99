//! # popper-chaos
//!
//! Deterministic fault injection for the simulated stack. A
//! [`FaultSchedule`] is a sorted list of [`FaultEvent`]s — node
//! crash/restart, network partition/heal, packet loss, latency
//! inflation, disk slowdown — in virtual time. A schedule lowers to the
//! sim layer's [`popper_sim::PlaneCmd`] timeline
//! ([`FaultSchedule::plane_timeline`]); the sharded fabric applies it to
//! its [`popper_sim::FaultPlane`] at epoch barriers and marks every
//! injection with a `chaos/faults` trace instant, so the timeline shows
//! cause → effect.
//!
//! Because the cluster is a deterministic discrete-event simulator,
//! chaos here is perfectly reproducible: the same seed and schedule
//! produce byte-identical fault timelines, recovery metrics and traces —
//! a property no real-cluster chaos tool can offer, and exactly what the
//! Popper convention needs to make "does the experiment survive degraded
//! infrastructure?" an automatically validated claim.
//!
//! Schedules come from three places:
//!
//! * built-in named schedules ([`FaultSchedule::named`]) — `node-crash`,
//!   `partition`, `packet-loss`, `slow-disk`, `gremlin`;
//! * a PML `faults:` spec in an experiment's `vars.pml`
//!   ([`FaultSchedule::from_vars`]);
//! * the seeded gremlin generator ([`FaultSchedule::gremlin`]).
//!
//! Every schedule serializes to a deterministic `faults.json`
//! ([`FaultSchedule::to_json`]) that is committed next to
//! `chaos-results.csv`, so the fault timeline is itself a versioned
//! Popper artifact.

pub mod schedule;

pub use schedule::{FaultEvent, FaultKind, FaultSchedule, BUILTIN_SCHEDULES, MAX_FAULT_NODES};

/// The default chaos validations, checked when an experiment ships no
/// `chaos.aver` of its own. They encode the resilience contract: the
/// system recovers within 5 (virtual) seconds, at most half the
/// accesses run degraded, and degraded never means wrong.
pub const DEFAULT_ASSERTIONS: &str = "\
when schedule=* expect recovers_within(recovery_ms, 5000);
when schedule=* expect degraded_at_most(degraded_fraction, 0.5);
when schedule=* expect max(corrupt) = 0
";
