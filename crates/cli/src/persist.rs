//! On-disk persistence for a Popper repository.
//!
//! The working tree lives as real files in the repository directory (so
//! researchers edit them with their own tools); history, index and refs
//! live in `.popper/state`, a file whose format [`popper_vcs::state`]
//! owns. This module keeps what concerns the directory: it loads the
//! worktree files, writes at save those the command changed and deletes
//! tracked files it dropped, and makes saves in one directory take turns
//! on a lock of its `.popper` directory.
//!
//! A load reads only the files that may have changed.
//! `.popper/stat-cache` records, for each worktree file whose blob is
//! known or whose bytes equal its staged blob, its size, mtime, ctime
//! and inode as last written or loaded, with its blob id, and the same
//! stat data of `.popper/state` as the save left it. A file whose stat data match and whose mtime is older
//! than the cache file's own mtime is loaded unread, as its blob. A file
//! modified in the clock tick the cache was written in cannot be told
//! from an unmodified one by its stat data, so it is read and hashed
//! (git's "racily clean" rule). The cache is derived: a cache that is
//! missing, damaged or written beside another `.popper/state` is
//! ignored and the next save writes it anew, so deleting it costs only
//! speed.

use popper_core::PopperRepo;
use popper_vcs::repo::FileStamp;
use popper_vcs::{state, Object, ObjectId, Repository};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::Read;
use std::path::Path;

/// The stat cache, beside the state file.
const STAT_CACHE: &str = ".popper/stat-cache";

/// The first word of the stat cache's first line.
const STAT_CACHE_MAGIC: &str = "POPPER-STAT-CACHE v1";

/// Save a repository: the worktree files changed since load to disk,
/// state to `.popper/state`, and the stat cache if it changed.
pub fn save(repo: &PopperRepo, dir: &Path) -> Result<(), String> {
    let mut written = HashMap::new();
    for path in repo.vcs.changed_files() {
        match repo.vcs.try_read_file(path).map_err(|e| format!("read {path}: {e}"))? {
            Some(contents) => {
                let full = dir.join(path);
                write_file(&full, contents)?;
                if let Some(stamp) = fs::metadata(&full).ok().as_ref().and_then(stamp_of) {
                    written.insert(path, stamp);
                }
            }
            // A tracked file the model dropped since load (a checkout of
            // a branch without it, say). A file the repository never read
            // from disk, untracked or found by `popper init`, is left alone.
            None if repo.tracked_on_disk().contains(path) => remove_with_empty_parents(dir, path)?,
            None => {}
        }
    }
    let popper_dir = dir.join(".popper");
    fs::create_dir_all(&popper_dir).map_err(|e| format!("mkdir {popper_dir:?}: {e}"))?;
    // One state write at a time: the check that the file is as loaded
    // and the append that relies on it must not interleave with another
    // process's save. The lock goes when `_lock` drops.
    let _lock = File::open(&popper_dir)
        .and_then(|d| d.lock().map(|()| d))
        .map_err(|e| format!("lock {popper_dir:?}: {e}"))?;
    let target = popper_dir.join("state");
    state::save(&repo.vcs, &target).map_err(|e| format!("write {target:?}: {e}"))?;
    if let Some(state) = fs::metadata(&target).ok().as_ref().and_then(stamp_of) {
        let files: Vec<(&str, FileStamp, ObjectId)> = repo
            .vcs
            .files()
            .filter_map(|path| {
                let stamp = written.get(path).copied().or_else(|| repo.vcs.stamp(path))?;
                Some((path, stamp, repo.vcs.clean_blob(path)?))
            })
            .collect();
        save_stat_cache(dir, state, &files);
    }
    Ok(())
}

/// Write the stat cache of `files` beside the state file that has
/// `state`: one unsynced write, and none if the cache on disk already
/// says the same and is newer than every file it names. A failed or
/// torn write fails the cache's checksum, so the next load ignores it.
fn save_stat_cache(dir: &Path, state: FileStamp, files: &[(&str, FileStamp, ObjectId)]) {
    let cache = encode_stat_cache(state, files.iter().copied());
    let cache_file = dir.join(STAT_CACHE);
    let current = File::open(&cache_file).ok().and_then(|mut file| {
        let written_ns = stamp_of(&file.metadata().ok()?)?.mtime_ns;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).ok()?;
        Some((bytes, written_ns))
    });
    // Rewriting a cache that names racily clean files moves its mtime
    // past theirs, so the next load need not read them.
    let stale = current.is_none_or(|(bytes, written_ns)| {
        bytes != cache || files.iter().any(|(_, stamp, _)| stamp.mtime_ns >= written_ns)
    });
    if stale {
        fs::write(&cache_file, &cache).ok();
    }
}

fn write_file(full: &Path, contents: &[u8]) -> Result<(), String> {
    if let Some(parent) = full.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
    }
    fs::write(full, contents).map_err(|e| format!("write {full:?}: {e}"))
}

/// Remove `dir/path`, then each parent directory below `dir` that this
/// leaves empty.
fn remove_with_empty_parents(dir: &Path, path: &str) -> Result<(), String> {
    let full = dir.join(path);
    match fs::remove_file(&full) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(format!("remove {full:?}: {e}")),
        _ => {}
    }
    // `remove_dir` fails on a directory that still holds anything.
    let mut parent = full.parent();
    while let Some(p) = parent.filter(|p| *p != dir) {
        if fs::remove_dir(p).is_err() {
            break;
        }
        parent = p.parent();
    }
    Ok(())
}

/// Is `dir` an initialized Popper repository?
pub fn is_initialized(dir: &Path) -> bool {
    dir.join(".popper/state").is_file()
}

/// Load a repository: state from `.popper/state`, worktree from the
/// real files on disk (so external edits are picked up), each file the
/// stat cache vouches for left unread.
pub fn load(dir: &Path, author: &str) -> Result<PopperRepo, String> {
    let state_file = dir.join(".popper/state");
    let file = File::open(&state_file).map_err(|e| format!("read {state_file:?}: {e} (run `popper init`?)"))?;
    let state = file.metadata().ok().as_ref().and_then(stamp_of);
    let mut vcs = state::load(file).map_err(|e| format!("read {state_file:?}: {e}"))?;
    let cache = state.and_then(|state| StatCache::read(dir, state));
    walk(dir, dir, &mut vcs, cache.as_ref())?;
    let tracked_on_disk = vcs.staged().filter(|path| vcs.has_file(path)).map(str::to_string).collect();
    Ok(PopperRepo::from_disk(vcs, author, tracked_on_disk))
}

fn walk(root: &Path, dir: &Path, vcs: &mut Repository, cache: Option<&StatCache>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == ".popper" || name == ".git" || name == "target" {
            continue;
        }
        let Ok(meta) = fs::metadata(&path) else { continue };
        if meta.is_dir() {
            walk(root, &path, vcs, cache)?;
        } else if meta.is_file() {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            let stamp = stamp_of(&meta);
            let cached = stamp.zip(cache).and_then(|(stamp, cache)| Some((stamp, cache.entry(&rel, stamp)?)));
            if let Some((stamp, (blob, false))) = cached {
                if vcs.load_unread(&rel, blob, stamp) {
                    continue;
                }
            }
            let mut contents = Vec::new();
            fs::File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut contents))
                .map_err(|e| format!("read {path:?}: {e}"))?;
            // A racily clean file read back as its recorded blob is that
            // blob: left unread, its id known without staging.
            if let Some((stamp, (blob, true))) = cached {
                if Object::blob_id(&contents) == blob && vcs.load_unread(&rel, blob, stamp) {
                    continue;
                }
            }
            vcs.load_file(&rel, contents, stamp);
        }
    }
    Ok(())
}

/// The stat data of a file, or `None` where the platform lacks inode
/// numbers and change times: there every load reads every file.
#[cfg(unix)]
fn stamp_of(meta: &fs::Metadata) -> Option<FileStamp> {
    use std::os::unix::fs::MetadataExt;
    let ns = |secs: i64, nanos: i64| i128::from(secs) * 1_000_000_000 + i128::from(nanos);
    Some(FileStamp {
        size: meta.len(),
        mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
        ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
        ino: meta.ino(),
    })
}

#[cfg(not(unix))]
fn stamp_of(_meta: &fs::Metadata) -> Option<FileStamp> {
    None
}

/// A stat cache's file entries: path -> (stamp, blob id).
type CacheEntries = HashMap<String, (FileStamp, ObjectId)>;

/// A stat cache as a load found it, valid for the state file it loaded.
struct StatCache {
    files: CacheEntries,
    /// The cache file's mtime, as the file system stamped it.
    written_ns: i128,
}

impl StatCache {
    /// The stat cache in `dir`, if it is whole and was written beside
    /// the state file that has `state` now.
    fn read(dir: &Path, state: FileStamp) -> Option<StatCache> {
        let mut file = File::open(dir.join(STAT_CACHE)).ok()?;
        let written_ns = stamp_of(&file.metadata().ok()?)?.mtime_ns;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).ok()?;
        let (recorded, files) = decode_stat_cache(&bytes)?;
        (recorded == state).then_some(StatCache { files, written_ns })
    }

    /// The recorded blob of the file at `path` if its stat data is
    /// `stamp` as recorded, and whether the file is racily clean: last
    /// modified no earlier than the cache was written, so that its stat
    /// data cannot tell an edit in that clock tick.
    fn entry(&self, path: &str, stamp: FileStamp) -> Option<(ObjectId, bool)> {
        let &(recorded, blob) = self.files.get(path)?;
        (recorded == stamp).then_some((blob, stamp.mtime_ns >= self.written_ns))
    }
}

/// The stat cache: a line `POPPER-STAT-CACHE v1 <sha256 of the rest>`,
/// then `state <stamp>` for the state file and `<blob id> <stamp> <path>`
/// for each file, a stamp being `<size> <mtime ns> <ctime ns> <inode>`.
fn encode_stat_cache<'a>(
    state: FileStamp,
    files: impl Iterator<Item = (&'a str, FileStamp, ObjectId)>,
) -> Vec<u8> {
    let line = |s: FileStamp| format!("{} {} {} {}", s.size, s.mtime_ns, s.ctime_ns, s.ino);
    let mut body = format!("state {}\n", line(state));
    for (path, stamp, blob) in files.filter(|(path, ..)| !path.contains('\n')) {
        body.push_str(&format!("{blob} {} {path}\n", line(stamp)));
    }
    format!("{STAT_CACHE_MAGIC} {}\n{body}", ObjectId::for_bytes(body.as_bytes())).into_bytes()
}

/// The state file's stamp and the file entries of a stat cache; `None`
/// for anything but a whole cache as [`encode_stat_cache`] writes it.
fn decode_stat_cache(bytes: &[u8]) -> Option<(FileStamp, CacheEntries)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let (header, body) = text.split_once('\n')?;
    let digest = header.strip_prefix(STAT_CACHE_MAGIC)?.strip_prefix(' ')?;
    if ObjectId::for_bytes(body.as_bytes()).to_hex() != digest {
        return None;
    }
    let stamp = |fields: &mut std::str::SplitN<'_, char>| -> Option<FileStamp> {
        Some(FileStamp {
            size: fields.next()?.parse().ok()?,
            mtime_ns: fields.next()?.parse().ok()?,
            ctime_ns: fields.next()?.parse().ok()?,
            ino: fields.next()?.parse().ok()?,
        })
    };
    let mut lines = body.strip_suffix('\n')?.split('\n');
    let mut fields = lines.next()?.strip_prefix("state ")?.splitn(4, ' ');
    let state = stamp(&mut fields)?;
    let mut files = HashMap::new();
    for line in lines {
        let mut fields = line.splitn(6, ' ');
        let blob = ObjectId::from_hex(fields.next()?)?;
        let stamp = stamp(&mut fields)?;
        files.insert(fields.next()?.to_string(), (stamp, blob));
    }
    Some((state, files))
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_vcs::{repo::RepoState, Object, ObjectId, Repository};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "popper-persist-{tag}-{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `repo`'s exported state without its worktree, objects in id order.
    fn exported(repo: &Repository) -> RepoState {
        let mut state = repo.export_state();
        state.worktree.clear();
        state.objects.sort_by_key(|bytes| ObjectId::for_bytes(bytes));
        state
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut repo = PopperRepo::init("tester").unwrap();
        repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
        repo.commit("add experiment").unwrap();
        let head = repo.vcs.head_commit().unwrap();
        save(&repo, &dir).unwrap();
        assert!(is_initialized(&dir));
        assert!(dir.join("README.md").is_file());
        assert!(dir.join("experiments/e/vars.pml").is_file());

        let loaded = load(&dir, "tester").unwrap();
        assert_eq!(loaded.vcs.head_commit(), Some(head));
        assert_eq!(loaded.read("experiments/e/vars.pml").unwrap(), "runner: synthetic\n");
        assert!(loaded.vcs.status().unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_edits_show_as_status_changes() {
        let dir = temp_dir("edits");
        let repo = PopperRepo::init("tester").unwrap();
        save(&repo, &dir).unwrap();
        // A researcher edits README.md with their own editor.
        fs::write(dir.join("README.md"), "# edited outside\n").unwrap();
        fs::create_dir_all(dir.join("experiments/new")).unwrap();
        fs::write(dir.join("experiments/new/vars.pml"), "x: 1\n").unwrap();
        let loaded = load(&dir, "tester").unwrap();
        let status = loaded.vcs.status().unwrap();
        assert_eq!(status.len(), 2, "{status:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_contents_survive() {
        let dir = temp_dir("binary");
        let mut repo = PopperRepo::init("tester").unwrap();
        let blob: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        repo.write("experiments/e/datasets/blob.bin", blob.clone()).unwrap();
        repo.commit("binary").unwrap();
        save(&repo, &dir).unwrap();
        let loaded = load(&dir, "tester").unwrap();
        assert_eq!(loaded.vcs.read_file("experiments/e/datasets/blob.bin").unwrap(), &blob[..]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_into_another_directory_writes_every_object() {
        let (from, to) = (temp_dir("from"), temp_dir("to"));
        let mut repo = PopperRepo::init("tester").unwrap();
        repo.write("data/x.csv", "a,b\n1,2\n").unwrap();
        repo.commit("data").unwrap();
        save(&repo, &from).unwrap();
        let mut repo = load(&from, "tester").unwrap();
        repo.write("notes.txt", "n\n").unwrap();
        repo.commit("notes").unwrap();
        save(&repo, &to).unwrap();
        let copy = load(&to, "tester").unwrap();
        assert_eq!(exported(&copy.vcs), exported(&repo.vcs));
        let head = copy.vcs.head_commit().unwrap();
        assert_eq!(copy.vcs.file_at(head, "data/x.csv").unwrap().unwrap(), b"a,b\n1,2\n");
        fs::remove_dir_all(&from).ok();
        fs::remove_dir_all(&to).ok();
    }

    #[test]
    fn a_logged_blob_that_fails_its_id_is_logged_again_by_the_next_commit() {
        let dir = temp_dir("relog");
        let mut repo = PopperRepo::init("tester").unwrap();
        repo.write("notes.txt", "a note\n").unwrap();
        repo.commit("notes").unwrap();
        save(&repo, &dir).unwrap();
        let state_file = dir.join(".popper/state");
        let mut bytes = fs::read(&state_file).unwrap();
        let at = bytes.windows(7).position(|w| w == b"a note\n").unwrap();
        bytes[at] = b'A';
        fs::write(&state_file, &bytes).unwrap();
        let blob = Object::Blob(b"a note\n".to_vec()).id();
        let mut repo = load(&dir, "tester").unwrap();
        assert!(repo.vcs.get(blob).is_err());
        // The worktree still holds the note: committing puts its blob again.
        repo.commit("again").unwrap();
        save(&repo, &dir).unwrap();
        let repo = load(&dir, "tester").unwrap();
        assert_eq!(repo.vcs.get(blob).unwrap(), Object::Blob(b"a note\n".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_writes_only_changed_files_and_deletes_dropped_ones() {
        let dir = temp_dir("changed");
        let mut repo = PopperRepo::init("tester").unwrap();
        repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
        repo.commit("add experiment").unwrap();
        save(&repo, &dir).unwrap();
        let mut repo = load(&dir, "tester").unwrap();
        // Bytes on disk the loaded model does not know: a save that
        // rewrote every file would put the old contents back.
        fs::write(dir.join("paper/paper.md"), "edited after load\n").unwrap();
        repo.write("README.md", "# rewritten\n").unwrap();
        repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
        repo.vcs.remove_file("paper/references.bib");
        save(&repo, &dir).unwrap();
        assert_eq!(fs::read_to_string(dir.join("paper/paper.md")).unwrap(), "edited after load\n");
        assert_eq!(fs::read_to_string(dir.join("README.md")).unwrap(), "# rewritten\n");
        assert!(!dir.join("paper/references.bib").exists());
        fs::remove_dir_all(&dir).ok();
    }

    /// Rewrite the stat cache in `dir` through `edit`, recorded beside
    /// the state file as it is now and stamped `mtime`.
    fn rewrite_cache(
        dir: &Path,
        mtime: std::time::SystemTime,
        edit: impl FnOnce(&mut CacheEntries),
    ) {
        let (_, mut files) = decode_stat_cache(&fs::read(dir.join(STAT_CACHE)).unwrap()).unwrap();
        edit(&mut files);
        let state = stamp_of(&fs::metadata(dir.join(".popper/state")).unwrap()).unwrap();
        let mut entries: Vec<_> = files.iter().map(|(p, (s, b))| (p.as_str(), *s, *b)).collect();
        entries.sort_by_key(|(p, ..)| *p);
        fs::write(dir.join(STAT_CACHE), encode_stat_cache(state, entries.into_iter())).unwrap();
        File::options().write(true).open(dir.join(STAT_CACHE)).unwrap().set_modified(mtime).unwrap();
    }

    /// A second past now: every file on disk is older than the cache.
    fn later() -> std::time::SystemTime {
        std::time::SystemTime::now() + std::time::Duration::from_secs(1)
    }

    /// The worktree paths a fresh load left unread.
    fn unread(repo: &PopperRepo) -> Vec<String> {
        repo.vcs.files().filter(|p| repo.vcs.known_blob(p).is_some()).map(str::to_string).collect()
    }

    fn stamp_at(dir: &Path, path: &str) -> FileStamp {
        stamp_of(&fs::metadata(dir.join(path)).unwrap()).unwrap()
    }

    /// A repository of `popper init` plus `results.csv`, saved in a new
    /// directory.
    fn saved_with_results(tag: &str) -> std::path::PathBuf {
        let dir = temp_dir(tag);
        let mut repo = PopperRepo::init("tester").unwrap();
        repo.write("results.csv", "x,y\n1,2\n").unwrap();
        repo.commit("results").unwrap();
        save(&repo, &dir).unwrap();
        dir
    }

    #[test]
    fn files_the_stat_cache_vouches_for_load_unread_and_read_back_the_same() {
        let dir = saved_with_results("cache-hit");
        rewrite_cache(&dir, later(), |_| {});
        let repo = load(&dir, "tester").unwrap();
        let all: Vec<String> = repo.vcs.files().map(str::to_string).collect();
        assert_eq!(unread(&repo), all, "every file is unread");
        assert_eq!(repo.read("results.csv").unwrap(), "x,y\n1,2\n");
        assert!(repo.vcs.status().unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_same_size_edit_inside_the_racy_window_is_seen() {
        let dir = saved_with_results("racy");
        // The save stamped results.csv, an edit of the same size kept its
        // stat data (one clock tick), and the cache was written in that
        // tick: it holds the edited file's stat data with the old blob.
        fs::write(dir.join("results.csv"), "x,y\n1,3\n").unwrap();
        let stamp = stamp_at(&dir, "results.csv");
        let edited = fs::metadata(dir.join("results.csv")).unwrap().modified().unwrap();
        rewrite_cache(&dir, edited, |files| files.get_mut("results.csv").unwrap().0 = stamp);
        let repo = load(&dir, "tester").unwrap();
        assert_eq!(repo.read("results.csv").unwrap(), "x,y\n1,3\n");
        assert_eq!(repo.vcs.status().unwrap(), [popper_vcs::repo::Change::Modified("results.csv".into())]);
        // Past the window the stat data is all a load goes by.
        rewrite_cache(&dir, later(), |_| {});
        assert_eq!(load(&dir, "tester").unwrap().read("results.csv").unwrap(), "x,y\n1,2\n");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_edit_whose_mtime_is_set_back_is_seen() {
        let dir = saved_with_results("set-back");
        rewrite_cache(&dir, later(), |_| {});
        let path = dir.join("results.csv");
        let mtime = fs::metadata(&path).unwrap().modified().unwrap();
        fs::write(&path, "x,y\n1,3\n").unwrap();
        let file = File::options().write(true).open(&path).unwrap();
        file.set_times(fs::FileTimes::new().set_modified(mtime)).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().modified().unwrap(), mtime);
        let repo = load(&dir, "tester").unwrap();
        assert_eq!(repo.read("results.csv").unwrap(), "x,y\n1,3\n", "the change time moved");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleting_the_stat_cache_changes_only_speed() {
        let dir = saved_with_results("no-cache");
        fs::write(dir.join("README.md"), "# edited outside\n").unwrap();
        rewrite_cache(&dir, later(), |_| {});
        let cached = load(&dir, "tester").unwrap();
        fs::remove_file(dir.join(STAT_CACHE)).unwrap();
        let read = load(&dir, "tester").unwrap();
        assert!(unread(&read).is_empty() && !unread(&cached).is_empty());
        assert_eq!(cached.vcs.status().unwrap(), read.vcs.status().unwrap());
        assert_eq!(exported(&cached.vcs), exported(&read.vcs));
        assert_eq!(cached.vcs.export_state().worktree, read.vcs.export_state().worktree);
        assert_eq!(cached.tracked_on_disk(), read.tracked_on_disk());
        // The next save writes it again.
        save(&read, &dir).unwrap();
        assert!(dir.join(STAT_CACHE).is_file());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stat_cache_beside_another_state_file_is_ignored() {
        let dir = saved_with_results("other-state");
        rewrite_cache(&dir, later(), |_| {});
        let mut state = fs::read(dir.join(".popper/state")).unwrap();
        state.extend_from_slice(b"x");
        fs::write(dir.join(".popper/state"), &state).unwrap();
        assert!(unread(&load(&dir, "tester").unwrap()).is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_in_the_stat_cache_is_ignored() {
        let dir = saved_with_results("garbage");
        let clean = fs::read(dir.join(STAT_CACHE)).unwrap();
        let mut flipped = clean.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 1;
        for garbage in [&b""[..], b"\xff\xfe", b"POPPER-STAT-CACHE v1 00\nstate 1 2 3 4\n", &clean[..clean.len() - 1], &flipped] {
            fs::write(dir.join(STAT_CACHE), garbage).unwrap();
            let repo = load(&dir, "tester").unwrap();
            assert!(unread(&repo).is_empty());
            assert_eq!(repo.read("results.csv").unwrap(), "x,y\n1,2\n");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exists_and_tracked_on_disk_read_no_file() {
        let dir = saved_with_results("lazy");
        // Damage the results blob in the state and vouch for the state
        // as it is now: the file loads unread over a bad blob.
        let state_file = dir.join(".popper/state");
        let mut bytes = fs::read(&state_file).unwrap();
        let at = bytes.windows(8).position(|w| w == b"x,y\n1,2\n").unwrap();
        bytes[at] = b'X';
        fs::write(&state_file, &bytes).unwrap();
        rewrite_cache(&dir, later(), |_| {});
        let repo = load(&dir, "tester").unwrap();
        assert!(repo.exists("results.csv"));
        assert!(repo.tracked_on_disk().contains("results.csv"));
        assert!(matches!(repo.vcs.try_read_file("results.csv"), Err(popper_vcs::VcsError::Corrupt(_))));
        assert!(repo.vcs.status().is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_that_changes_nothing_writes_neither_state_nor_cache() {
        let dir = saved_with_results("idle");
        let repo = load(&dir, "tester").unwrap();
        save(&repo, &dir).unwrap();
        let modified = |p: &str| fs::metadata(dir.join(p)).unwrap().modified().unwrap();
        let before = (modified(".popper/state"), modified(STAT_CACHE));
        let mut repo = load(&dir, "tester").unwrap();
        repo.vcs.stage(".").unwrap();
        save(&repo, &dir).unwrap();
        assert_eq!((modified(".popper/state"), modified(STAT_CACHE)), before);
        fs::remove_dir_all(&dir).ok();
    }

    /// Copy the files under `from` to `to`: new inodes, new stat data.
    fn copy_tree(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_tree(&entry.path(), &target);
            } else {
                fs::copy(entry.path(), &target).unwrap();
            }
        }
    }

    #[test]
    fn the_save_after_a_load_that_read_files_caches_the_unchanged_ones() {
        let traced = temp_dir("traced");
        for argv in [&["init"][..], &["add", "jupyter-bww", "b"], &["trace", "b"]] {
            crate::run(argv, &traced).unwrap();
        }
        let copy = temp_dir("traced-copy");
        copy_tree(&traced, &copy);
        // The copy's state file has other stat data: its cache is ignored.
        let repo = load(&copy, "tester").unwrap();
        assert!(unread(&repo).is_empty());
        save(&repo, &copy).unwrap();
        // Past the racy window, the next load goes by stat data alone.
        rewrite_cache(&copy, later(), |_| {});
        let repo = load(&copy, "tester").unwrap();
        let all: Vec<String> = repo.vcs.files().map(str::to_string).collect();
        assert!(all.iter().any(|p| p.ends_with("trace.json")), "{all:?}");
        assert_eq!(unread(&repo), all, "the copy's files are all cached");
        assert!(repo.vcs.status().unwrap().is_empty());
        fs::remove_dir_all(&traced).ok();
        fs::remove_dir_all(&copy).ok();
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any bytes decode to a cache or to nothing: no panic.
            #[test]
            fn any_stat_cache_bytes_decode_or_are_ignored(
                bytes in proptest::collection::vec(any::<u8>(), 0..200),
                at in any::<usize>(),
                flip in any::<u8>(),
            ) {
                decode_stat_cache(&bytes);
                let stamp = FileStamp { size: 3, mtime_ns: -5, ctime_ns: 1 << 70, ino: 9 };
                let mut cache = encode_stat_cache(stamp, [("a b/c", stamp, ObjectId([1; 32]))].into_iter());
                let (state, files) = decode_stat_cache(&cache).unwrap();
                prop_assert_eq!(state, stamp);
                prop_assert_eq!(files["a b/c"], (stamp, ObjectId([1; 32])));
                let at = at % cache.len();
                cache[at] ^= flip;
                prop_assert!(flip == 0 || decode_stat_cache(&cache).is_none());
            }
        }
    }

    #[test]
    fn load_without_init_errors() {
        let dir = temp_dir("noinit");
        let err = load(&dir, "t").unwrap_err();
        assert!(err.contains("popper init"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_damaged_state_is_an_error_naming_the_file() {
        let dir = temp_dir("damaged");
        save(&PopperRepo::init("tester").unwrap(), &dir).unwrap();
        fs::write(dir.join(".popper/state"), "not a state file\n").unwrap();
        let err = load(&dir, "tester").unwrap_err();
        assert!(err.contains(".popper/state") && err.contains("bad magic"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
