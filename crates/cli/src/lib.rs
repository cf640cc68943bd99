//! # popper-cli
//!
//! The `popper` command-line tool — the paper's "experiment
//! bootstrapping tool that makes Popper-compliant experiments readily
//! available to researchers" (Listing 2):
//!
//! ```text
//! $ cd mypaper-repo
//! $ popper init
//! -- Initialized Popper repo
//!
//! $ popper experiment list
//! -- available templates ---------------
//! ceph-rados        proteustm  mpi-comm-variability
//! cloverleaf        gassyfs    zlog
//! spark-standalone  torpor     malacology
//!
//! $ popper add torpor myexp
//! ```
//!
//! * [`argparse`] — a small hand-rolled argument parser (the approved
//!   offline crate set does not include `clap`); [`commands`] refuses a
//!   flag or argument the command does not take.
//! * [`persist`] — on-disk persistence: the working tree lives as real
//!   files, the VCS state in the append-only log `.popper/state`. A
//!   command reads the objects it touches, each checked against its id
//!   on first use, and a save appends what the command stored.
//! * [`runners`] — registration of the real experiment runners
//!   (`gassyfs-scalability`, `torpor-variability`, `mpi-variability`,
//!   `bww-airtemp`) with the [`popper_core::ExperimentEngine`].
//! * [`commands`] — the subcommands: `init`, `experiment list`, `add`,
//!   `paper list/add`, `check`, `run`, `ci`, `status`, `log`, `figure`.

pub mod argparse;
pub mod commands;
pub mod error;
pub mod persist;
pub mod runners;

/// Run the CLI against `argv` (without the program name) in `dir`.
/// Returns the text to print, or an error message (exit code 1).
pub fn run(argv: &[&str], dir: &std::path::Path) -> Result<String, String> {
    let parsed = argparse::parse(argv)?;
    commands::dispatch(&parsed, dir)
}
