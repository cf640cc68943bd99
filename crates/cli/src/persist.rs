//! On-disk persistence for a Popper repository.
//!
//! The working tree lives as real files in the repository directory (so
//! researchers edit them with their own tools); history, index and refs
//! live in a single length-prefixed state file at `.popper/state`. The
//! format is binary-safe: every variable-length field is preceded by
//! its byte length.
//!
//! Persisting costs what a command changed: `load` streams the state
//! file straight into one buffer per object, `save` streams it back out
//! from a borrowed view of the repository and writes only the worktree
//! files the command changed. The state file is replaced atomically, so
//! a failed save leaves the previous history in place.

use popper_core::PopperRepo;
use popper_vcs::{
    repo::{RepoState, StateView},
    Repository,
};
use std::collections::BTreeSet;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8] = b"POPPER-STATE v1\n";

/// The longest field header accepted, newline included. The longest the
/// encoder writes is `object <20 digits>\n`.
const MAX_HEADER: u64 = 32;

/// Why a `.popper/state` stream did not decode.
#[derive(Debug)]
enum StateError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The stream does not start with the format's magic line.
    BadMagic,
    /// The stream ends inside a field header, or the header runs on
    /// without a newline.
    TruncatedHeader,
    /// A header that is not `<tag> <decimal length>`.
    BadHeader(String),
    /// A field's length runs past the end of the stream.
    TruncatedBody(String),
    /// A field's body is not followed by a newline.
    MissingTerminator(String),
    /// A text field that does not parse.
    BadField(String),
    /// A tag this version does not know.
    UnknownField(String),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "{e}"),
            StateError::BadMagic => write!(f, "not a popper state file (bad magic)"),
            StateError::TruncatedHeader => write!(f, "truncated field header"),
            StateError::BadHeader(h) => write!(f, "bad field header '{h}'"),
            StateError::TruncatedBody(tag) => write!(f, "truncated field body for '{tag}'"),
            StateError::MissingTerminator(tag) => write!(f, "missing field terminator after '{tag}'"),
            StateError::BadField(tag) => write!(f, "bad '{tag}' field"),
            StateError::UnknownField(tag) => write!(f, "unknown field '{tag}'"),
        }
    }
}

impl From<io::Error> for StateError {
    fn from(e: io::Error) -> Self {
        StateError::Io(e)
    }
}

/// Stream the VCS state (without the worktree, which lives as real
/// files) to `out`.
fn write_state(state: &StateView, out: &mut impl Write) -> io::Result<()> {
    fn field(out: &mut impl Write, tag: &str, body: &[u8]) -> io::Result<()> {
        writeln!(out, "{tag} {}", body.len())?;
        out.write_all(body)?;
        out.write_all(b"\n")
    }
    out.write_all(MAGIC)?;
    field(out, "clock", state.clock.to_string().as_bytes())?;
    if let Some(h) = state.head {
        field(out, "head", h.as_bytes())?;
    }
    for (tag, refs) in [("branch", &state.branches), ("tag", &state.tags), ("index", &state.index)] {
        for (name, id) in refs {
            field(out, tag, format!("{} {name}", id.to_hex()).as_bytes())?;
        }
    }
    for obj in &state.objects {
        field(out, "object", obj)?;
    }
    Ok(())
}

/// Decode a state stream of `size` bytes. Each object body is read
/// straight into a buffer of its own; a length is trusted only as far
/// as the bytes the stream still holds.
fn read_state(mut input: impl BufRead, size: u64) -> Result<RepoState, StateError> {
    let mut magic = [0u8; MAGIC.len()];
    input.read_exact(&mut magic).map_err(|_| StateError::BadMagic)?;
    if magic != MAGIC {
        return Err(StateError::BadMagic);
    }
    let mut remaining = size.saturating_sub(MAGIC.len() as u64);
    let mut state = RepoState {
        objects: Vec::new(),
        worktree: Vec::new(),
        index: Vec::new(),
        branches: Vec::new(),
        tags: Vec::new(),
        head: None,
        clock: 0,
    };
    let mut header = Vec::new();
    while !input.fill_buf()?.is_empty() {
        header.clear();
        input.by_ref().take(MAX_HEADER).read_until(b'\n', &mut header)?;
        if header.pop() != Some(b'\n') {
            return Err(StateError::TruncatedHeader);
        }
        remaining = remaining.saturating_sub(header.len() as u64 + 1);
        let text = String::from_utf8_lossy(&header);
        let (tag, len) = text
            .split_once(' ')
            .and_then(|(tag, len)| Some((tag, len.parse::<u64>().ok()?)))
            .ok_or_else(|| StateError::BadHeader(text.to_string()))?;
        // The body and its terminating newline must fit in what is left.
        if len >= remaining {
            return Err(StateError::TruncatedBody(tag.to_string()));
        }
        let mut body = Vec::with_capacity(len.try_into().unwrap_or(0));
        input.by_ref().take(len).read_to_end(&mut body)?;
        if body.len() as u64 != len {
            return Err(StateError::TruncatedBody(tag.to_string()));
        }
        let mut terminator = [0u8];
        if input.read(&mut terminator)? != 1 || terminator != *b"\n" {
            return Err(StateError::MissingTerminator(tag.to_string()));
        }
        remaining -= len + 1;
        if tag == "object" {
            state.objects.push(body);
            continue;
        }
        let bad = || StateError::BadField(tag.to_string());
        let body = String::from_utf8(body).map_err(|_| bad())?;
        let pair = || {
            let (hex, name) = body.split_once(' ').ok_or_else(bad)?;
            Ok::<_, StateError>((name.to_string(), hex.to_string()))
        };
        match tag {
            "clock" => state.clock = body.parse().map_err(|_| bad())?,
            "head" => state.head = Some(body),
            "branch" => state.branches.push(pair()?),
            "tag" => state.tags.push(pair()?),
            "index" => state.index.push(pair()?),
            other => return Err(StateError::UnknownField(other.to_string())),
        }
    }
    Ok(state)
}

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
    let state = repo.vcs.state_view();
    replace_file(&popper_dir.join("state"), |file| {
        let mut out = BufWriter::new(file);
        write_state(&state, &mut out)?;
        out.flush()
    })
}

fn write_file(full: &Path, contents: &[u8]) -> Result<(), String> {
    if let Some(parent) = full.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
    }
    fs::write(full, contents).map_err(|e| format!("write {full:?}: {e}"))
}

/// Replace `target` with what `write` puts into a sibling temporary
/// file, synced to disk before it is renamed over `target`, so `target`
/// holds the old contents or the new ones, never a prefix. On error the
/// temporary file is removed and `target` keeps its old contents.
fn replace_file(target: &Path, write: impl FnOnce(&mut File) -> io::Result<()>) -> Result<(), String> {
    let mut tmp_name = target.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = target.with_file_name(tmp_name);
    let written = File::create(&tmp)
        .and_then(|mut file| {
            write(&mut file)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, target));
    written.map_err(|e| {
        fs::remove_file(&tmp).ok();
        format!("write {target:?}: {e}")
    })?;
    // Make the rename itself durable.
    if let Some(parent) = target.parent() {
        File::open(parent).and_then(|d| d.sync_all()).map_err(|e| format!("sync {parent:?}: {e}"))?;
    }
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
    let file = File::open(&state_file).map_err(|e| format!("read {state_file:?}: {e} (run `popper init`?)"))?;
    let size = file.metadata().map_err(|e| format!("read {state_file:?}: {e}"))?.len();
    let mut state =
        read_state(BufReader::new(file), size).map_err(|e| format!("read {state_file:?}: {e}"))?;
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

    fn encode(repo: &Repository) -> Vec<u8> {
        let mut out = Vec::new();
        write_state(&repo.state_view(), &mut out).unwrap();
        out
    }

    fn decode(bytes: &[u8]) -> Result<RepoState, StateError> {
        read_state(bytes, bytes.len() as u64)
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(b"not magic"), Err(StateError::BadMagic)));
        let mut truncated = encode(&PopperRepo::init("t").unwrap().vcs);
        truncated.truncate(truncated.len() - 3);
        assert!(matches!(decode(&truncated), Err(StateError::TruncatedBody(tag)) if tag == "object"));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut repo = PopperRepo::init("t").unwrap();
        repo.vcs.tag("v1", None).unwrap();
        repo.vcs.create_branch("feature").unwrap();
        repo.write("data/blob.bin", vec![0u8, 0xff, b'\n', 0x0a]).unwrap();
        repo.commit("binary").unwrap();
        let bytes = encode(&repo.vcs);
        assert!(bytes.starts_with(MAGIC));
        let mut decoded = decode(&bytes).unwrap();
        let mut exported = repo.vcs.export_state();
        exported.worktree.clear();
        decoded.objects.sort();
        exported.objects.sort();
        assert_eq!(decoded, exported);
    }

    /// A state stream of one field with the given header and body.
    fn one_field(header: &str, body: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn a_hostile_length_is_a_truncated_body_not_a_panic() {
        for len in [u64::MAX, u64::MAX - 1, 1 << 40, 4] {
            let bytes = one_field(&format!("object {len}\n"), b"abc\n");
            let err = decode(&bytes).unwrap_err();
            assert!(matches!(&err, StateError::TruncatedBody(tag) if tag == "object"), "{len}: {err}");
        }
        // The stream itself ends early while the stated size says more.
        let bytes = one_field("object 8\n", b"abc");
        assert!(matches!(read_state(&bytes[..], 1 << 20), Err(StateError::TruncatedBody(_))));
    }

    #[test]
    fn malformed_fields_are_typed_errors() {
        let missing_terminator = one_field("clock 1\n", b"7X\n");
        assert!(matches!(decode(&missing_terminator), Err(StateError::MissingTerminator(tag)) if tag == "clock"));
        let not_a_number = one_field("clock x1\n", b"7\n");
        assert!(matches!(decode(&not_a_number), Err(StateError::BadHeader(h)) if h == "clock x1"));
        let no_space = one_field("clock\n", b"");
        assert!(matches!(decode(&no_space), Err(StateError::BadHeader(_))));
        let endless_header = one_field(&"x".repeat(100), b"");
        assert!(matches!(decode(&endless_header), Err(StateError::TruncatedHeader)));
        let unknown = one_field("colour 3\n", b"red\n");
        assert!(matches!(decode(&unknown), Err(StateError::UnknownField(tag)) if tag == "colour"));
        let bad_clock = one_field("clock 2\n", b"x7\n");
        assert!(matches!(decode(&bad_clock), Err(StateError::BadField(tag)) if tag == "clock"));
    }

    /// A writer that accepts `left` bytes, then fails.
    struct FailAfter<W> {
        inner: W,
        left: usize,
    }

    impl<W: Write> Write for FailAfter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("disk full"));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_failed_state_write_keeps_the_previous_state() {
        let dir = temp_dir("atomic");
        let mut repo = PopperRepo::init("tester").unwrap();
        save(&repo, &dir).unwrap();
        let head = repo.vcs.head_commit();
        repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
        repo.commit("add experiment").unwrap();
        let state_file = dir.join(".popper/state");
        for n in [0, 10, 100, 1000] {
            let err = replace_file(&state_file, |file| {
                write_state(&repo.vcs.state_view(), &mut FailAfter { inner: file, left: n })
            });
            assert!(err.unwrap_err().contains("disk full"));
            let loaded = load(&dir, "tester").unwrap();
            assert_eq!(loaded.vcs.head_commit(), head);
            let left: Vec<_> = fs::read_dir(dir.join(".popper")).unwrap().map(|e| e.unwrap().file_name()).collect();
            assert_eq!(left, ["state"], "the temporary file is removed");
        }
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
}
