//! # popper-vcs
//!
//! A content-addressed version-control system — the "git slot" of the
//! Popper convention's DevOps toolkit (§Toolkit, *Version Control*). The
//! convention only requires of a VCS that (1) assets are associated with
//! immutable IDs and (2) it is scriptable; this crate provides both with
//! a git-like object model:
//!
//! * [`sha256`] — SHA-256 implemented from scratch (content addressing
//!   must be stable across platforms; verified against FIPS 180-4 test
//!   vectors).
//! * [`object`] — blobs, trees and commits with canonical byte
//!   serializations; [`ObjectId`] is the SHA-256 of the serialization.
//! * [`diff`] — Myers O((N+M)D) line diff with unified-hunk output and a
//!   patch applier (used by tests to prove `apply(a, diff(a,b)) == b`).
//! * [`repo`] — an in-memory repository: object store, staging index,
//!   branches/tags/HEAD, commit, checkout, log and merge-base.
//! * [`state`] — a repository on disk: the append-only log the CLI keeps
//!   at `.popper/state`, loaded lazily and saved by appending.
//!
//! The Popper `core` crate versions every experiment artifact through
//! this crate, giving the "entire end-to-end pipeline … managed by a
//! version control system" property the paper calls for.

pub mod diff;
pub mod merge;
pub mod object;
pub mod repo;
pub mod sha256;
pub mod state;

pub use object::{Commit, Object, ObjectId, TreeEntry};
pub use merge::{merge_snapshots, MergeOutcome, MergeResult};
pub use repo::{Repository, VcsError};
