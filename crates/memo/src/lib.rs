//! popper-memo: a content-addressed memo table for pipeline stages.
//!
//! Popper's determinism contract — same inputs, same seed, same bytes —
//! means a stage whose inputs are unchanged can be *replayed* from its
//! recorded outputs instead of re-executed. This crate provides the
//! three pieces that make that safe:
//!
//! * [`KeyBuilder`] / [`StageKey`] — a domain-separated SHA-256 over
//!   every input a stage can observe (engine version, lifecycle mode,
//!   spec files, seeds, upstream stage outputs);
//! * [`StageEntry`] — the recorded effect of one stage execution (the
//!   serialized `RunContext` field deltas plus every commit it made),
//!   with a canonical binary encoding so entries are content-addressed;
//! * [`MemoTable`] — the key → entry mapping, stored as blobs in the
//!   popper-vcs object layer and named by `memo/<key>` refs so the
//!   cache travels with the repository state.
//!
//! The crate is deliberately mechanism-only: *what* goes into a key and
//! *how* a recorded entry is replayed into a `RunContext` is the
//! engine's business (`popper-core::memoize`); here a key is just a
//! digest and an entry just bytes.

mod entry;
mod key;
mod table;

pub use entry::{ReplayCommit, StageEntry};
pub use key::{KeyBuilder, StageKey};
pub use table::MemoTable;

/// Outcome of running one stage under a memo session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage was replayed from a recorded entry.
    Hit,
    /// The stage body executed (and, when cacheable, was recorded).
    Miss,
}

/// Per-pipeline hit/miss accounting.
#[derive(Debug, Clone, Default)]
pub struct MemoStats {
    /// `(stage name, outcome)` in execution order.
    pub stages: Vec<(String, StageOutcome)>,
    /// Wall time the hits avoided, from the recorded miss durations.
    pub saved_us: u64,
}

impl MemoStats {
    /// Record a hit that skipped `saved_us` microseconds of work.
    pub fn hit(&mut self, stage: &str, saved_us: u64) {
        self.stages.push((stage.to_string(), StageOutcome::Hit));
        self.saved_us += saved_us;
    }

    /// Record a miss.
    pub fn miss(&mut self, stage: &str) {
        self.stages.push((stage.to_string(), StageOutcome::Miss));
    }

    /// Number of replayed stages.
    pub fn hits(&self) -> usize {
        self.stages.iter().filter(|(_, o)| *o == StageOutcome::Hit).count()
    }

    /// Number of executed stages.
    pub fn misses(&self) -> usize {
        self.stages.len() - self.hits()
    }

    /// The one-line summary printed under lifecycle output.
    pub fn summary(&self) -> String {
        format!(
            "memo: {} hits / {} misses ({} ms saved)",
            self.hits(),
            self.misses(),
            self.saved_us / 1000
        )
    }
}

/// A memo session threads one pipeline run through the cache: a base
/// key shared by every stage (inputs the whole run observes) plus a
/// running chain over upstream stage outputs, so a stage's key changes
/// whenever anything *before* it changed — hits are prefix-closed.
#[derive(Debug, Clone)]
pub struct MemoSession {
    base: StageKey,
    chain: [u8; 32],
    poisoned: bool,
    /// Hit/miss accounting for this run.
    pub stats: MemoStats,
}

impl MemoSession {
    /// A session over a precomputed base key.
    pub fn new(base: StageKey) -> MemoSession {
        MemoSession { base, chain: [0u8; 32], poisoned: false, stats: MemoStats::default() }
    }

    /// False once a stage produced effects the cache cannot represent;
    /// from then on the rest of the run neither looks up nor stores.
    pub fn active(&self) -> bool {
        !self.poisoned
    }

    /// Disable caching for the remainder of the run. Without this, a
    /// stage after an unrecordable one could hit on a stale chain.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// The key for stage `index`/`name`, given the serialized variables
    /// visible at stage entry.
    pub fn stage_key(&self, index: usize, name: &str, vars_json: &str) -> StageKey {
        KeyBuilder::new("popper-memo/stage/v1")
            .bytes("base", &self.base.0)
            .number("index", index as u64)
            .text("name", name)
            .bytes("chain", &self.chain)
            .text("vars", vars_json)
            .finish()
    }

    /// Fold a completed stage's output digest into the chain.
    pub fn advance(&mut self, entry: &StageEntry) {
        self.chain = KeyBuilder::new("popper-memo/chain/v1")
            .bytes("chain", &self.chain)
            .bytes("output", &entry.output_digest())
            .finish()
            .0;
    }
}

/// True when `POPPER_NO_CACHE` is set to anything but empty or `0`.
pub fn cache_disabled_by_env() -> bool {
    match std::env::var("POPPER_NO_CACHE") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_with(field: &str, value: &[u8]) -> StageEntry {
        StageEntry {
            stop: false,
            duration_us: 42,
            fields: vec![(field.to_string(), value.to_vec())],
            commits: Vec::new(),
        }
    }

    #[test]
    fn stats_summary_counts_and_saved_time() {
        let mut s = MemoStats::default();
        s.miss("sanitize");
        s.hit("execute", 1_500);
        s.hit("record", 2_500);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.summary(), "memo: 2 hits / 1 misses (4 ms saved)");
    }

    #[test]
    fn same_prefix_same_key_divergent_output_divergent_downstream() {
        let base = KeyBuilder::new("test").text("exp", "e").finish();
        let mut a = MemoSession::new(base);
        let mut b = MemoSession::new(base);
        // Stage 0 keys agree before anything ran.
        assert_eq!(a.stage_key(0, "sanitize", "{}"), b.stage_key(0, "sanitize", "{}"));
        // Same stage output keeps downstream keys aligned…
        a.advance(&entry_with("vars", b"x"));
        b.advance(&entry_with("vars", b"x"));
        assert_eq!(a.stage_key(1, "execute", "{}"), b.stage_key(1, "execute", "{}"));
        // …while divergent output splits every later key.
        a.advance(&entry_with("results", b"1"));
        b.advance(&entry_with("results", b"2"));
        assert_ne!(a.stage_key(2, "record", "{}"), b.stage_key(2, "record", "{}"));
    }

    #[test]
    fn duration_does_not_affect_the_chain() {
        let base = KeyBuilder::new("test").finish();
        let mut a = MemoSession::new(base);
        let mut b = MemoSession::new(base);
        let mut fast = entry_with("vars", b"x");
        let mut slow = fast.clone();
        fast.duration_us = 1;
        slow.duration_us = 1_000_000;
        a.advance(&fast);
        b.advance(&slow);
        assert_eq!(a.stage_key(1, "next", "{}"), b.stage_key(1, "next", "{}"));
    }

    #[test]
    fn poisoned_sessions_stay_poisoned() {
        let mut s = MemoSession::new(KeyBuilder::new("test").finish());
        assert!(s.active());
        s.poison();
        assert!(!s.active());
    }

    #[test]
    fn env_kill_switch_parses_conventionally() {
        // Serial within this test: the var is process-global.
        std::env::remove_var("POPPER_NO_CACHE");
        assert!(!cache_disabled_by_env());
        std::env::set_var("POPPER_NO_CACHE", "0");
        assert!(!cache_disabled_by_env());
        std::env::set_var("POPPER_NO_CACHE", "");
        assert!(!cache_disabled_by_env());
        std::env::set_var("POPPER_NO_CACHE", "1");
        assert!(cache_disabled_by_env());
        std::env::remove_var("POPPER_NO_CACHE");
    }
}
