//! On-disk persistence for a Popper repository.
//!
//! The working tree lives as real files in the repository directory (so
//! researchers edit them with their own tools); history, index and refs
//! live in `.popper/state`, a file whose format [`popper_vcs::state`]
//! owns. This module keeps what concerns the directory: it reads the
//! worktree files at load, writes at save those the command changed and
//! deletes tracked files it dropped, and makes saves in one directory
//! take turns on a lock of its `.popper` directory.

use popper_core::PopperRepo;
use popper_vcs::state;
use std::fs::{self, File};
use std::io::Read;
use std::path::Path;

/// Save a repository: the worktree files changed since load to disk,
/// state to `.popper/state`.
pub fn save(repo: &PopperRepo, dir: &Path) -> Result<(), String> {
    for path in repo.vcs.changed_files() {
        match repo.vcs.read_file(path) {
            Some(contents) => write_file(&dir.join(path), contents)?,
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
    state::save(&repo.vcs, &target).map_err(|e| format!("write {target:?}: {e}"))
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
/// real files on disk (so external edits are picked up).
pub fn load(dir: &Path, author: &str) -> Result<PopperRepo, String> {
    let state_file = dir.join(".popper/state");
    let file = File::open(&state_file).map_err(|e| format!("read {state_file:?}: {e} (run `popper init`?)"))?;
    let vcs = state::load(file, read_worktree(dir)?).map_err(|e| format!("read {state_file:?}: {e}"))?;
    let tracked_on_disk = vcs.staged().filter(|path| vcs.read_file(path).is_some()).map(str::to_string).collect();
    Ok(PopperRepo::from_disk(vcs, author, tracked_on_disk))
}

fn read_worktree(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut out = Vec::new();
    walk(dir, dir, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == ".popper" || name == ".git" || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.is_file() {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            let mut contents = Vec::new();
            fs::File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut contents))
                .map_err(|e| format!("read {path:?}: {e}"))?;
            out.push((rel, contents));
        }
    }
    Ok(())
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
