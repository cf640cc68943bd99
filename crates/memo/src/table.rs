//! The memo table: key → entry, stored in the VCS object layer.
//!
//! Entries are blobs (content-addressed, deduplicated with everything
//! else in the repository) and keys are `memo/<hex>` refs pointing at
//! them. Riding the existing ref/object machinery means the cache
//! persists through `RepoState` export/import and, as tags, through
//! the `.popper/state` log that `popper_vcs::state` reads and writes,
//! for free, and `popper` never grows a second storage format. The `memo/` prefix keeps keys out of the way of
//! branches, user tags and commit-hex resolution.

use crate::{StageEntry, StageKey};
use popper_vcs::{Object, Repository};

/// Namespacing prefix for memo refs.
pub const REF_PREFIX: &str = "memo/";

/// Lookup/store interface over a [`Repository`].
pub struct MemoTable;

impl MemoTable {
    /// The ref name a key lives under.
    pub fn ref_name(key: &StageKey) -> String {
        format!("{REF_PREFIX}{}", key.to_hex())
    }

    /// Fetch and decode the entry for `key`, if present. A blob that
    /// fails to decode (foreign or corrupt) reads as a miss.
    pub fn lookup(repo: &Repository, key: &StageKey) -> Option<StageEntry> {
        let id = repo.resolve(&Self::ref_name(key)).ok()?;
        match repo.get(id).ok()? {
            Object::Blob(bytes) => StageEntry::decode(&bytes).ok(),
            _ => None,
        }
    }

    /// Store `entry` under `key`, overwriting any previous entry.
    pub fn store(repo: &mut Repository, key: &StageKey, entry: &StageEntry) -> Result<(), String> {
        let id = repo.put(&Object::Blob(entry.encode()));
        repo.tag(&Self::ref_name(key), Some(id)).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyBuilder;

    fn entry(n: u8) -> StageEntry {
        StageEntry { stop: false, duration_us: n as u64, fields: vec![("f".into(), vec![n])], commits: vec![] }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let mut repo = Repository::init();
        let key = KeyBuilder::new("t").text("k", "1").finish();
        assert!(MemoTable::lookup(&repo, &key).is_none());
        MemoTable::store(&mut repo, &key, &entry(7)).unwrap();
        assert_eq!(MemoTable::lookup(&repo, &key), Some(entry(7)));
        // Overwrite wins.
        MemoTable::store(&mut repo, &key, &entry(9)).unwrap();
        assert_eq!(MemoTable::lookup(&repo, &key), Some(entry(9)));
        // A different key is still a miss.
        let other = KeyBuilder::new("t").text("k", "2").finish();
        assert!(MemoTable::lookup(&repo, &other).is_none());
    }

    #[test]
    fn entries_survive_state_export_import() {
        let mut repo = Repository::init();
        let key = KeyBuilder::new("t").text("k", "x").finish();
        MemoTable::store(&mut repo, &key, &entry(3)).unwrap();
        let revived = Repository::import_state(repo.export_state()).unwrap();
        assert_eq!(MemoTable::lookup(&revived, &key), Some(entry(3)));
    }
}
