//! On-disk persistence for a Popper repository.
//!
//! The working tree lives as real files in the repository directory (so
//! researchers edit them with their own tools); history, index and refs
//! live in a single length-prefixed state file at `.popper/state`. The
//! format is binary-safe: every variable-length field is preceded by
//! its byte length.

use popper_core::PopperRepo;
use popper_vcs::{repo::RepoState, Repository};
use std::collections::BTreeSet;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8] = b"POPPER-STATE v1\n";

/// Serialize the VCS state (without the worktree, which lives as real
/// files).
fn encode_state(state: &RepoState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let mut field = |tag: &str, bytes: &[u8]| {
        out.extend_from_slice(format!("{tag} {}\n", bytes.len()).as_bytes());
        out.extend_from_slice(bytes);
        out.push(b'\n');
    };
    field("clock", state.clock.to_string().as_bytes());
    if let Some(h) = &state.head {
        field("head", h.as_bytes());
    }
    for (name, hex) in &state.branches {
        field("branch", format!("{hex} {name}").as_bytes());
    }
    for (name, hex) in &state.tags {
        field("tag", format!("{hex} {name}").as_bytes());
    }
    for (path, hex) in &state.index {
        field("index", format!("{hex} {path}").as_bytes());
    }
    for obj in &state.objects {
        field("object", obj);
    }
    out
}

fn decode_state(bytes: &[u8]) -> Result<RepoState, String> {
    let rest = bytes
        .strip_prefix(MAGIC)
        .ok_or("not a popper state file (bad magic)")?;
    let mut state = RepoState {
        objects: Vec::new(),
        worktree: Vec::new(),
        index: Vec::new(),
        branches: Vec::new(),
        tags: Vec::new(),
        head: None,
        clock: 0,
    };
    let mut pos = 0usize;
    while pos < rest.len() {
        let nl = rest[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("truncated field header")?;
        let header = std::str::from_utf8(&rest[pos..pos + nl]).map_err(|_| "bad header encoding")?;
        pos += nl + 1;
        let (tag, len_s) = header.split_once(' ').ok_or_else(|| format!("bad header '{header}'"))?;
        let len: usize = len_s.parse().map_err(|_| format!("bad length in '{header}'"))?;
        if pos + len + 1 > rest.len() {
            return Err(format!("truncated field body for '{tag}'"));
        }
        let body = &rest[pos..pos + len];
        pos += len;
        if rest[pos] != b'\n' {
            return Err(format!("missing field terminator after '{tag}'"));
        }
        pos += 1;
        let text = || std::str::from_utf8(body).map_err(|_| format!("bad text field '{tag}'"));
        match tag {
            "clock" => state.clock = text()?.parse().map_err(|_| "bad clock")?,
            "head" => state.head = Some(text()?.to_string()),
            "branch" => {
                let (hex, name) = text()?.split_once(' ').ok_or("bad branch field")?;
                state.branches.push((name.to_string(), hex.to_string()));
            }
            "tag" => {
                let (hex, name) = text()?.split_once(' ').ok_or("bad tag field")?;
                state.tags.push((name.to_string(), hex.to_string()));
            }
            "index" => {
                let (hex, path) = text()?.split_once(' ').ok_or("bad index field")?;
                state.index.push((path.to_string(), hex.to_string()));
            }
            "object" => state.objects.push(body.to_vec()),
            other => return Err(format!("unknown field '{other}'")),
        }
    }
    Ok(state)
}

/// Save a repository: worktree files to disk, state to `.popper/state`.
pub fn save(repo: &PopperRepo, dir: &Path) -> Result<(), String> {
    let state = repo.vcs.export_state();
    // Write worktree files.
    for (path, contents) in &state.worktree {
        let full = dir.join(path);
        if let Some(parent) = full.parent() {
            fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
        let mut f = fs::File::create(&full).map_err(|e| format!("create {full:?}: {e}"))?;
        f.write_all(contents).map_err(|e| format!("write {full:?}: {e}"))?;
    }
    // Delete the tracked files the model dropped since load (a checkout
    // of a branch without them, say). A file the repository never read
    // from disk, untracked or found by `popper init`, is left alone.
    for path in repo.tracked_on_disk() {
        if repo.vcs.read_file(path).is_none() {
            remove_with_empty_parents(dir, path)?;
        }
    }
    let popper_dir = dir.join(".popper");
    fs::create_dir_all(&popper_dir).map_err(|e| format!("mkdir {popper_dir:?}: {e}"))?;
    let state_file = popper_dir.join("state");
    fs::write(&state_file, encode_state(&state)).map_err(|e| format!("write {state_file:?}: {e}"))?;
    Ok(())
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
    let bytes = fs::read(&state_file).map_err(|e| format!("read {state_file:?}: {e} (run `popper init`?)"))?;
    let mut state = decode_state(&bytes)?;
    state.worktree = read_worktree(dir)?;
    let tracked: BTreeSet<&str> = state.index.iter().map(|(path, _)| path.as_str()).collect();
    let tracked_on_disk = state
        .worktree
        .iter()
        .map(|(path, _)| path.as_str())
        .filter(|path| tracked.contains(path))
        .map(str::to_string)
        .collect();
    let vcs = Repository::import_state(state).map_err(|e| e.to_string())?;
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
    fn decode_rejects_garbage() {
        assert!(decode_state(b"not magic").is_err());
        let mut truncated = encode_state(&PopperRepo::init("t").unwrap().vcs.export_state());
        truncated.truncate(truncated.len() - 3);
        assert!(decode_state(&truncated).is_err());
    }

    #[test]
    fn load_without_init_errors() {
        let dir = temp_dir("noinit");
        let err = load(&dir, "t").unwrap_err();
        assert!(err.contains("popper init"));
        fs::remove_dir_all(&dir).ok();
    }
}
