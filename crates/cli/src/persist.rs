//! On-disk persistence for a Popper repository.
//!
//! The working tree lives as real files in the repository directory (so
//! researchers edit them with their own tools); history, index and refs
//! live in one append-only log at `.popper/state`:
//!
//! ```text
//! POPPER-STATE v2
//! object <id> <len>\n<body>\n    a stored object; <id> is its SHA-256
//! table <id> <len>\n<fields>\n   the index or the tags, as fields
//! refs <id> <len>\n<fields>\n    clock, head, branches and the tables
//! ```
//!
//! Every record's `<id>` is the SHA-256 of its body. A field is
//! `<tag> <len>\n<body>\n`, as in the v1 format, which still loads.
//!
//! Persisting costs what a command touched. `load` reads record headers
//! only, takes the last complete `refs` record and the tables it names,
//! and hands the repository each object's position: an object is read,
//! and checked against its id, on first use. `save` writes the worktree
//! files the command changed, then appends the objects stored since
//! load, any table that changed and one `refs` record, and syncs the
//! file once. An append cut short leaves a torn tail that the next
//! `load` ignores and the next `save` truncates. A repository that was
//! not loaded from this very file as it still is (a new one, a v1 file,
//! another directory, a file another process saved to since) is written
//! whole to a temporary file renamed over it. Saves in one directory
//! take turns on a lock of its `.popper` directory.

use popper_core::PopperRepo;
use popper_vcs::{
    repo::{LoggedObject, ObjectLog, Refs, RepoState},
    ObjectId, Repository,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC_V1: &[u8] = b"POPPER-STATE v1\n";
const MAGIC: &[u8] = b"POPPER-STATE v2\n";

/// The longest header accepted, newline included. The longest written
/// is `object <64 hex digits> <20 digits>\n`, 93 bytes.
const MAX_HEADER: u64 = 96;

/// Why a `.popper/state` stream did not decode.
#[derive(Debug)]
enum StateError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The stream does not start with a known magic line.
    BadMagic,
    /// The stream ends inside a field header, or the header runs on
    /// without a newline.
    TruncatedHeader,
    /// A header that is not `<tag> <decimal length>`, or, in a v2 log,
    /// `<kind> <lowercase hex id> <decimal length>`.
    BadHeader(String),
    /// A field's length runs past the end of the stream.
    TruncatedBody(String),
    /// A field's or record's body is not followed by a newline.
    MissingTerminator(String),
    /// A text field that does not parse.
    BadField(String),
    /// A field tag or record kind this version does not know.
    UnknownField(String),
    /// A v2 log without one complete `refs` record.
    NoRefs,
    /// A `refs` or `table` record, at this offset, whose body does not
    /// hash to its id.
    Checksum(&'static str, u64),
    /// The `refs` record names a table the log does not hold before it.
    MissingTable(String),
    /// The record at this offset runs past the end of the file, but
    /// what follows it is complete: a damaged length, not a torn append.
    Overrun(u64),
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
            StateError::NoRefs => write!(f, "no complete refs record"),
            StateError::Checksum(kind, at) => write!(f, "the {kind} record at byte {at} does not match its id"),
            StateError::MissingTable(id) => write!(f, "the refs name table {id}, which the log does not hold"),
            StateError::Overrun(at) => {
                write!(f, "the record at byte {at} runs past the end of the file over complete records")
            }
        }
    }
}

impl From<io::Error> for StateError {
    fn from(e: io::Error) -> Self {
        StateError::Io(e)
    }
}

/// An empty state for the decoders to fill.
fn empty_state() -> RepoState {
    RepoState {
        objects: Vec::new(),
        worktree: Vec::new(),
        index: Vec::new(),
        branches: Vec::new(),
        tags: Vec::new(),
        head: None,
        clock: 0,
    }
}

/// Read a stream of `size` bytes of `<tag> <len>\n<body>\n` fields,
/// handing each tag and body to `visit`. A length is trusted only as
/// far as the bytes the stream still holds.
fn read_fields(
    mut input: impl BufRead,
    size: u64,
    mut visit: impl FnMut(&str, Vec<u8>) -> Result<(), StateError>,
) -> Result<(), StateError> {
    let mut remaining = size;
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
        visit(tag, body)?;
    }
    Ok(())
}

/// Apply one text field (`clock`, `head`, `branch`, `tag`, `index`) to
/// `state`.
fn apply_field(state: &mut RepoState, tag: &str, body: Vec<u8>) -> Result<(), StateError> {
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
    Ok(())
}

/// What a v2 log holds as of its last complete `refs` record.
struct Scan {
    /// The objects logged before that record, in file order.
    objects: Vec<LoggedObject>,
    /// Its clock, head and branches, and the index and tags of the
    /// tables it names. No objects.
    state: RepoState,
    /// The ids of the tables it names.
    tables: HashSet<ObjectId>,
    /// The length of the file scanned, torn tail included.
    size: u64,
    /// Where it ends: where the next append goes.
    end: u64,
}

/// What a state file decodes to.
enum Decoded {
    /// A v1 file: every object read.
    V1(RepoState),
    /// A v2 log: objects by position only.
    V2(Scan),
}

/// Decode a state stream of `size` bytes, v1 or v2.
fn decode<R: Read + Seek>(input: &mut BufReader<R>, size: u64) -> Result<Decoded, StateError> {
    let mut magic = [0u8; MAGIC.len()];
    input.read_exact(&mut magic).map_err(|_| StateError::BadMagic)?;
    if magic == MAGIC {
        return scan_log(input, size).map(Decoded::V2);
    }
    if magic != MAGIC_V1 {
        return Err(StateError::BadMagic);
    }
    let mut state = empty_state();
    read_fields(input, size.saturating_sub(MAGIC_V1.len() as u64), |tag, body| match tag {
        "object" => {
            state.objects.push(body);
            Ok(())
        }
        _ => apply_field(&mut state, tag, body),
    })?;
    Ok(Decoded::V1(state))
}

/// A v2 record header: `<kind> <lowercase hex id> <decimal length>`.
fn parse_header(header: &[u8]) -> Result<(&str, ObjectId, u64), StateError> {
    let bad = || StateError::BadHeader(String::from_utf8_lossy(header).into_owned());
    let text = std::str::from_utf8(header).map_err(|_| bad())?;
    let mut parts = text.split(' ');
    let (Some(kind), Some(hex), Some(len), None) = (parts.next(), parts.next(), parts.next(), parts.next()) else {
        return Err(bad());
    };
    let lower_hex = |s: &str| s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    let id = Some(hex).filter(|h| lower_hex(h)).and_then(ObjectId::from_hex).ok_or_else(bad)?;
    let len = Some(len)
        .filter(|l| !l.is_empty() && l.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|l| l.parse().ok())
        .ok_or_else(bad)?;
    Ok((kind, id, len))
}

/// Scan the records of a v2 log of `size` bytes, the magic line already
/// read: headers only, skipping object bodies. A record that runs past
/// the end of the file is a torn append, and it and anything after the
/// last complete `refs` record are ignored, but only if no complete
/// `refs` record follows it and it is not itself a `refs` record that
/// fills the file: an append ends with its one `refs` record, so bytes
/// that hold one whole are not an unfinished append.
fn scan_log<R: Read + Seek>(input: &mut BufReader<R>, size: u64) -> Result<Scan, StateError> {
    let mut pos = MAGIC.len() as u64;
    let mut objects = Vec::new();
    let mut tables = HashMap::new();
    // (id, body offset, body length, objects before it, end)
    let mut last_refs = None;
    let mut header = Vec::new();
    loop {
        header.clear();
        let read = input.by_ref().take(MAX_HEADER).read_until(b'\n', &mut header)? as u64;
        if read == 0 {
            break;
        }
        if header.pop() != Some(b'\n') {
            if read < MAX_HEADER {
                break; // the file ends inside the header
            }
            return Err(StateError::TruncatedHeader);
        }
        let (kind, id, len) = parse_header(&header)?;
        let at = pos + read;
        let Some(end) = at.checked_add(len).and_then(|e| e.checked_add(1)).filter(|&e| e <= size) else {
            if refs_record_after(input, pos, size)? || (kind == "refs" && refs_body_fills(input, id, at, size)?) {
                return Err(StateError::Overrun(pos));
            }
            break; // the file ends inside the body
        };
        input.seek_relative(i64::try_from(len).map_err(|_| StateError::TruncatedBody(kind.to_string()))?)?;
        let mut terminator = [0u8];
        input.read_exact(&mut terminator)?;
        if terminator != *b"\n" {
            return Err(StateError::MissingTerminator(kind.to_string()));
        }
        match kind {
            "object" => objects.push(LoggedObject { id, at, len }),
            // The first copy of a table precedes any refs record naming it.
            "table" => {
                tables.entry(id).or_insert((at, len));
            }
            "refs" => last_refs = Some((id, at, len, objects.len(), end)),
            other => return Err(StateError::UnknownField(other.to_string())),
        }
        pos = end;
    }
    let (refs_id, refs_at, refs_len, logged, end) = last_refs.ok_or(StateError::NoRefs)?;
    objects.truncate(logged);
    let mut state = empty_state();
    let mut named = Vec::new();
    let body = read_record(input, "refs", refs_id, refs_at, refs_len)?;
    read_fields(&body[..], refs_len, |tag, body| match tag {
        "table" => {
            let hex = String::from_utf8(body).map_err(|_| StateError::BadField("table".into()))?;
            named.push(ObjectId::from_hex(&hex).ok_or(StateError::BadField("table".into()))?);
            Ok(())
        }
        _ => apply_field(&mut state, tag, body),
    })?;
    for id in &named {
        let &(at, len) = tables.get(id).filter(|(at, _)| *at < refs_at).ok_or_else(|| StateError::MissingTable(id.to_hex()))?;
        let body = read_record(input, "table", *id, at, len)?;
        read_fields(&body[..], len, |tag, body| apply_field(&mut state, tag, body))?;
    }
    Ok(Scan { objects, state, tables: named.into_iter().collect(), size, end })
}

/// Does a complete `refs` record start past byte `from`: a `refs`
/// header after a newline whose body fits in the file and hashes to its
/// id? Read in chunks, so no allocation is sized by the file.
fn refs_record_after<R: Read + Seek>(input: &mut BufReader<R>, from: u64, size: u64) -> Result<bool, StateError> {
    const NEEDLE: &[u8] = b"\nrefs ";
    let mut chunk = Vec::new();
    let mut at = from;
    loop {
        input.seek(SeekFrom::Start(at))?;
        chunk.clear();
        input.by_ref().take(1 << 16).read_to_end(&mut chunk)?;
        if chunk.len() < NEEDLE.len() {
            return Ok(false);
        }
        for (i, _) in chunk.windows(NEEDLE.len()).enumerate().filter(|(_, w)| *w == NEEDLE) {
            if is_refs_record(input, at + i as u64 + 1, size)? {
                return Ok(true);
            }
        }
        // The next chunk starts where a needle cut by this one begins.
        at += (chunk.len() - NEEDLE.len() + 1) as u64;
    }
}

/// Does a complete `refs` record start at byte `at`?
fn is_refs_record<R: Read + Seek>(input: &mut BufReader<R>, at: u64, size: u64) -> Result<bool, StateError> {
    input.seek(SeekFrom::Start(at))?;
    let mut header = Vec::new();
    let read = input.by_ref().take(MAX_HEADER).read_until(b'\n', &mut header)? as u64;
    if header.pop() != Some(b'\n') {
        return Ok(false);
    }
    let Ok(("refs", id, len)) = parse_header(&header) else { return Ok(false) };
    let body = at + read;
    if body.checked_add(len).and_then(|e| e.checked_add(1)).is_none_or(|e| e > size) {
        return Ok(false);
    }
    matches_id(read_record(input, "refs", id, body, len))
}

/// Do the bytes from `at` to the file's last byte, its newline, hash to
/// the `refs` record `id` whose body starts at `at`?
fn refs_body_fills<R: Read + Seek>(input: &mut BufReader<R>, id: ObjectId, at: u64, size: u64) -> Result<bool, StateError> {
    if at >= size {
        return Ok(false);
    }
    matches_id(read_record(input, "refs", id, at, size - 1 - at))
}

/// A record read: its body matched its id, did not, or could not be read.
fn matches_id(read: Result<Vec<u8>, StateError>) -> Result<bool, StateError> {
    match read {
        Ok(_) => Ok(true),
        Err(StateError::Checksum(..)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// The body of the record at `at`, checked against its `id`.
fn read_record<R: Read + Seek>(
    input: &mut BufReader<R>,
    kind: &'static str,
    id: ObjectId,
    at: u64,
    len: u64,
) -> Result<Vec<u8>, StateError> {
    input.seek(SeekFrom::Start(at))?;
    let mut body = Vec::new();
    input.by_ref().take(len).read_to_end(&mut body)?;
    if ObjectId::for_bytes(&body) != id {
        return Err(StateError::Checksum(kind, at));
    }
    Ok(body)
}

/// One field: `<tag> <len>\n<body>\n`.
fn field(out: &mut Vec<u8>, tag: &str, body: &[u8]) {
    out.extend_from_slice(format!("{tag} {}\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out.push(b'\n');
}

/// One record: `<kind> <id> <len>\n<body>\n`.
fn record(out: &mut impl Write, kind: &str, id: ObjectId, body: &[u8]) -> io::Result<()> {
    writeln!(out, "{kind} {id} {}", body.len())?;
    out.write_all(body)?;
    out.write_all(b"\n")
}

/// Write `objects`, the tables of `refs` that `log` does not hold, and
/// the `refs` record naming them.
fn write_records(
    out: &mut impl Write,
    objects: &[(ObjectId, &[u8])],
    refs: &Refs,
    log: Option<&ObjectLog>,
) -> io::Result<()> {
    for (id, bytes) in objects {
        record(out, "object", *id, bytes)?;
    }
    let table = |tag: &str, entries: &[(&str, ObjectId)]| {
        let mut body = Vec::new();
        for (name, id) in entries {
            field(&mut body, tag, format!("{} {name}", id.to_hex()).as_bytes());
        }
        (!body.is_empty()).then(|| (ObjectId::for_bytes(&body), body))
    };
    let mut body = Vec::new();
    field(&mut body, "clock", refs.clock.to_string().as_bytes());
    if let Some(h) = refs.head {
        field(&mut body, "head", h.as_bytes());
    }
    for (name, id) in &refs.branches {
        field(&mut body, "branch", format!("{} {name}", id.to_hex()).as_bytes());
    }
    for (id, table) in [table("index", &refs.index), table("tag", &refs.tags)].into_iter().flatten() {
        if !log.is_some_and(|log| log.holds_record(id)) {
            record(out, "table", id, &table)?;
        }
        field(&mut body, "table", id.to_hex().as_bytes());
    }
    record(out, "refs", ObjectId::for_bytes(&body), &body)
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
    // One state write at a time: the check that the file is as loaded
    // and the append that relies on it must not interleave with another
    // process's save. The lock goes when `_lock` drops.
    let _lock = File::open(&popper_dir)
        .and_then(|d| d.lock().map(|()| d))
        .map_err(|e| format!("lock {popper_dir:?}: {e}"))?;
    let target = popper_dir.join("state");
    let vcs = &repo.vcs;
    match vcs.object_log().filter(|log| appendable(log, &target)) {
        Some(log) => append_file(&target, log.end(), |file| {
            let mut out = BufWriter::new(file);
            write_records(&mut out, &vcs.unlogged_objects(), &vcs.refs(), Some(log))?;
            out.flush()
        }),
        None => {
            let objects = vcs.verified_objects().map_err(|e| format!("write {target:?}: {e}"))?;
            replace_file(&target, |file| {
                let mut out = BufWriter::new(file);
                out.write_all(MAGIC)?;
                write_records(&mut out, &objects, &vcs.refs(), None)?;
                out.flush()
            })
        }
    }
}

/// Can a save append to `target`? Only if it is the file `log` was
/// loaded from and has kept the length it had then. A save by another
/// process since then makes this one rewrite the file whole: its update
/// is lost, but no record it wrote is cut and no reader that loaded it
/// finds its objects gone.
#[cfg(unix)]
fn appendable(log: &ObjectLog, target: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (log.file().metadata(), fs::metadata(target)) {
        (Ok(a), Ok(b)) => a.dev() == b.dev() && a.ino() == b.ino() && b.len() == log.size(),
        _ => false,
    }
}

#[cfg(not(unix))]
fn appendable(_log: &ObjectLog, _target: &Path) -> bool {
    false
}

fn write_file(full: &Path, contents: &[u8]) -> Result<(), String> {
    if let Some(parent) = full.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
    }
    fs::write(full, contents).map_err(|e| format!("write {full:?}: {e}"))
}

/// Append what `write` writes to `target` at byte `end`, dropping any
/// torn tail past it, and sync the file once. On error the file is cut
/// back to `end`, as it was.
fn append_file(target: &Path, end: u64, write: impl FnOnce(&File) -> io::Result<()>) -> Result<(), String> {
    let file = fs::OpenOptions::new().write(true).open(target).map_err(|e| format!("write {target:?}: {e}"))?;
    let appended = file
        .set_len(end)
        .and_then(|()| (&file).seek(SeekFrom::Start(end)))
        .and_then(|_| write(&file))
        .and_then(|()| file.sync_data());
    appended.map_err(|e| {
        file.set_len(end).ok();
        format!("write {target:?}: {e}")
    })
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
    let mut input = BufReader::new(&file);
    let decoded = decode(&mut input, size).map_err(|e| format!("read {state_file:?}: {e}"))?;
    drop(input);
    let worktree = read_worktree(dir)?;
    let vcs = match decoded {
        Decoded::V1(state) => Repository::import_state(RepoState { worktree, ..state }),
        Decoded::V2(scan) => Repository::import_log(
            ObjectLog::new(file, scan.end, scan.size, scan.tables),
            scan.objects,
            RepoState { worktree, ..scan.state },
        ),
    }
    .map_err(|e| format!("read {state_file:?}: {e}"))?;
    let tracked_on_disk = vcs
        .refs()
        .index
        .iter()
        .map(|(path, _)| *path)
        .filter(|path| vcs.read_file(path).is_some())
        .map(str::to_string)
        .collect::<BTreeSet<_>>();
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
    use popper_vcs::Object;
    use std::io::Cursor;

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

    /// The whole v2 log of a repository.
    fn encode(repo: &Repository) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        write_records(&mut out, &repo.verified_objects().unwrap(), &repo.refs(), None).unwrap();
        out
    }

    fn decode_bytes(bytes: &[u8]) -> Result<Decoded, StateError> {
        decode(&mut BufReader::new(Cursor::new(bytes)), bytes.len() as u64)
    }

    fn decode_v1(bytes: &[u8]) -> Result<RepoState, StateError> {
        match decode_bytes(bytes)? {
            Decoded::V1(state) => Ok(state),
            Decoded::V2(_) => panic!("a v1 stream decoded as v2"),
        }
    }

    fn scan(bytes: &[u8]) -> Result<Scan, StateError> {
        match decode_bytes(bytes)? {
            Decoded::V2(scan) => Ok(scan),
            Decoded::V1(_) => panic!("a v2 stream decoded as v1"),
        }
    }

    /// A state with what the log holds of `repo`, objects in id order.
    fn logged_state(bytes: &[u8]) -> RepoState {
        let scan = scan(bytes).unwrap();
        let mut state = scan.state;
        state.objects = scan
            .objects
            .iter()
            .map(|o| bytes[o.at as usize..(o.at + o.len) as usize].to_vec())
            .collect();
        state
    }

    /// `repo`'s exported state without its worktree, objects in id order.
    fn exported(repo: &Repository) -> RepoState {
        let mut state = repo.export_state();
        state.worktree.clear();
        state.objects.sort_by_key(|bytes| ObjectId::for_bytes(bytes));
        state
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode_bytes(b"not magic"), Err(StateError::BadMagic)));
        assert!(matches!(decode_bytes(b"POPPER-STATE v3\n"), Err(StateError::BadMagic)));
        let truncated = one_field("object 8\n", b"abc\n");
        assert!(matches!(decode_v1(&truncated), Err(StateError::TruncatedBody(tag)) if tag == "object"));
        assert!(matches!(scan(MAGIC), Err(StateError::NoRefs)));
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
        assert_eq!(logged_state(&bytes), exported(&repo.vcs));
        assert_eq!(scan(&bytes).unwrap().end, bytes.len() as u64);
    }

    /// A v1 state stream of one field with the given header and body.
    fn one_field(header: &str, body: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC_V1.to_vec();
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn a_hostile_length_is_a_truncated_body_not_a_panic() {
        for len in [u64::MAX, u64::MAX - 1, 1 << 40, 4] {
            let bytes = one_field(&format!("object {len}\n"), b"abc\n");
            let err = decode_v1(&bytes).unwrap_err();
            assert!(matches!(&err, StateError::TruncatedBody(tag) if tag == "object"), "{len}: {err}");
        }
        // The stream itself ends early while the stated size says more.
        let bytes = one_field("object 8\n", b"abc");
        let mut input = BufReader::new(Cursor::new(&bytes[..]));
        assert!(matches!(decode(&mut input, 1 << 20), Err(StateError::TruncatedBody(_))));
        // In a v2 log a length past the end is a torn append: the state
        // is the last complete refs record before it.
        let clean = encode(&Repository::init());
        for len in [u64::MAX, u64::MAX - 1, 1 << 40, 4] {
            let mut bytes = clean.clone();
            bytes.extend_from_slice(format!("object {} {len}\nabc\n", ObjectId([0; 32])).as_bytes());
            assert_eq!(scan(&bytes).unwrap().end, clean.len() as u64, "{len}");
        }
    }

    #[test]
    fn malformed_fields_are_typed_errors() {
        let missing_terminator = one_field("clock 1\n", b"7X\n");
        assert!(matches!(decode_v1(&missing_terminator), Err(StateError::MissingTerminator(tag)) if tag == "clock"));
        let not_a_number = one_field("clock x1\n", b"7\n");
        assert!(matches!(decode_v1(&not_a_number), Err(StateError::BadHeader(h)) if h == "clock x1"));
        let no_space = one_field("clock\n", b"");
        assert!(matches!(decode_v1(&no_space), Err(StateError::BadHeader(_))));
        let endless_header = one_field(&"x".repeat(100), b"");
        assert!(matches!(decode_v1(&endless_header), Err(StateError::TruncatedHeader)));
        let unknown = one_field("colour 3\n", b"red\n");
        assert!(matches!(decode_v1(&unknown), Err(StateError::UnknownField(tag)) if tag == "colour"));
        let bad_clock = one_field("clock 2\n", b"x7\n");
        assert!(matches!(decode_v1(&bad_clock), Err(StateError::BadField(tag)) if tag == "clock"));
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        let clean = encode(&Repository::init());
        let with = |tail: &str| [clean.as_slice(), tail.as_bytes()].concat();
        let id = ObjectId::for_bytes(b"x");
        assert!(matches!(scan(&with(&format!("colour {id} 1\nx\n"))), Err(StateError::UnknownField(k)) if k == "colour"));
        assert!(matches!(scan(&with(&format!("object {id} 1\nxy"))), Err(StateError::MissingTerminator(_))));
        let upper = id.to_hex().to_uppercase();
        assert!(matches!(scan(&with(&format!("object {upper} 1\nx\n"))), Err(StateError::BadHeader(_))));
        assert!(matches!(scan(&with(&format!("object {id} +1\nx\n"))), Err(StateError::BadHeader(_))));
        assert!(matches!(scan(&with(&format!("object {id}\nx\n"))), Err(StateError::BadHeader(_))));
        assert!(matches!(scan(&with(&"x".repeat(200))), Err(StateError::TruncatedHeader)));
        // A refs record whose body does not hash to its id.
        let mut refs = Vec::new();
        field(&mut refs, "clock", b"1");
        let wrong = with(&format!("refs {id} {}\n{}\n", refs.len(), String::from_utf8(refs.clone()).unwrap()));
        assert!(matches!(scan(&wrong), Err(StateError::Checksum("refs", _))));
        // A refs record naming a table the log does not hold.
        let mut refs = Vec::new();
        field(&mut refs, "table", id.to_hex().as_bytes());
        let named = with(&format!("refs {} {}\n{}\n", ObjectId::for_bytes(&refs), refs.len(), String::from_utf8(refs).unwrap()));
        assert!(matches!(scan(&named), Err(StateError::MissingTable(t)) if t == id.to_hex()));
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
        save(&PopperRepo::init("tester").unwrap(), &dir).unwrap();
        let mut repo = load(&dir, "tester").unwrap();
        let head = repo.vcs.head_commit();
        repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
        repo.commit("add experiment").unwrap();
        let state_file = dir.join(".popper/state");
        let before = fs::read(&state_file).unwrap();
        let log = repo.vcs.object_log().unwrap();
        for n in [0, 10, 100, 1000] {
            let err = append_file(&state_file, log.end(), |file| {
                let objects = repo.vcs.unlogged_objects();
                write_records(&mut FailAfter { inner: file, left: n }, &objects, &repo.vcs.refs(), Some(log))
            });
            assert!(err.unwrap_err().contains("disk full"));
            let loaded = load(&dir, "tester").unwrap();
            assert_eq!(loaded.vcs.head_commit(), head);
            assert_eq!(fs::read(&state_file).unwrap(), before, "the failed append is cut off");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_append_loads_the_previous_refs_and_the_next_save_drops_it() {
        let dir = temp_dir("torn");
        save(&PopperRepo::init("tester").unwrap(), &dir).unwrap();
        let state_file = dir.join(".popper/state");
        let first = fs::read(&state_file).unwrap();
        let mut repo = load(&dir, "tester").unwrap();
        let head = repo.vcs.head_commit();
        repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
        repo.commit("add experiment").unwrap();
        save(&repo, &dir).unwrap();
        let second = fs::read(&state_file).unwrap();
        assert_eq!(second[..first.len()], first[..], "a save appends");
        for cut in first.len()..second.len() {
            fs::write(&state_file, &second[..cut]).unwrap();
            let loaded = load(&dir, "tester").unwrap();
            assert_eq!(loaded.vcs.head_commit(), head, "torn at {cut}");
            assert_eq!(loaded.vcs.object_log().unwrap().end(), first.len() as u64);
        }
        // The next save drops the torn tail and appends whole records.
        let cut = (first.len() + second.len()) / 2;
        fs::write(&state_file, &second[..cut]).unwrap();
        let mut repo = load(&dir, "tester").unwrap();
        repo.write("experiments/e/vars.pml", "runner: synthetic\n").unwrap();
        repo.commit("add experiment").unwrap();
        save(&repo, &dir).unwrap();
        assert_eq!(fs::read(&state_file).unwrap(), second);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_byte_in_the_last_refs_record_is_an_error_not_a_rollback() {
        let dir = temp_dir("refs-flip");
        save(&PopperRepo::init("tester").unwrap(), &dir).unwrap();
        let mut repo = load(&dir, "tester").unwrap();
        repo.write("notes.txt", "n\n").unwrap();
        repo.commit("notes").unwrap();
        save(&repo, &dir).unwrap();
        let state_file = dir.join(".popper/state");
        let clean = fs::read(&state_file).unwrap();
        let refs = clean[..clean.len() - 1].iter().rposition(|&b| b == b'\n').unwrap();
        let start = clean[..refs].windows(6).rposition(|w| w == b"\nrefs ").unwrap() + 1;
        for at in start..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            fs::write(&state_file, &bytes).unwrap();
            let err = load(&dir, "tester").err();
            assert!(err.as_ref().is_some_and(|e| e.contains(".popper/state")), "flip at {at}: {err:?}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The header offsets and lengths of the records of a v2 log.
    fn record_headers(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut headers = Vec::new();
        let mut pos = MAGIC.len();
        while pos < bytes.len() {
            let nl = pos + bytes[pos..].iter().position(|&b| b == b'\n').unwrap();
            let len: usize = std::str::from_utf8(&bytes[pos..nl]).unwrap().rsplit(' ').next().unwrap().parse().unwrap();
            headers.push((pos, nl - pos));
            pos = nl + 1 + len + 1;
        }
        headers
    }

    #[test]
    fn a_raised_length_in_any_record_is_an_error_not_a_torn_tail() {
        let dir = temp_dir("raised");
        let mut repo = PopperRepo::init("tester").unwrap();
        repo.write("data/x.csv", "a,b\n1,2\n").unwrap();
        repo.commit("data").unwrap();
        save(&repo, &dir).unwrap();
        let mut repo = load(&dir, "tester").unwrap();
        repo.write("notes.txt", "n\n").unwrap();
        repo.commit("notes").unwrap();
        save(&repo, &dir).unwrap();
        let state_file = dir.join(".popper/state");
        let clean = fs::read(&state_file).unwrap();
        let headers = record_headers(&clean);
        assert!(headers.len() > 6, "two saves of objects, tables and refs");
        for (at, len) in headers {
            // The record's length, raised past the end of the file.
            let header = std::str::from_utf8(&clean[at..at + len]).unwrap();
            let (head, _) = header.rsplit_once(' ').unwrap();
            let bytes = [&clean[..at], format!("{head} {}", clean.len()).as_bytes(), &clean[at + len..]].concat();
            fs::write(&state_file, &bytes).unwrap();
            let err = load(&dir, "tester").err();
            assert!(
                err.as_ref().is_some_and(|e| e.contains(".popper/state") && e.contains("runs past the end")),
                "raised at {at}: {err:?}"
            );
            assert_eq!(fs::read(&state_file).unwrap(), bytes, "the file is left as it was");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_after_another_process_saved_rewrites_the_file_whole() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_dir("stale");
        save(&PopperRepo::init("tester").unwrap(), &dir).unwrap();
        let (mut first, mut second) = (load(&dir, "tester").unwrap(), load(&dir, "tester").unwrap());
        first.write("a.txt", "a\n").unwrap();
        let a = first.commit("a").unwrap();
        save(&first, &dir).unwrap();
        let reader = load(&dir, "tester").unwrap();
        let state_file = dir.join(".popper/state");
        let inode = fs::metadata(&state_file).unwrap().ino();
        // `second` loaded before `first` appended: appending at the end
        // it loaded would cut `first`'s records from under `reader`.
        second.write("b.txt", "b\n").unwrap();
        let b = second.commit("b").unwrap();
        save(&second, &dir).unwrap();
        assert_ne!(fs::metadata(&state_file).unwrap().ino(), inode, "written whole and renamed");
        let loaded = load(&dir, "tester").unwrap();
        assert_eq!(loaded.vcs.head_commit(), Some(b));
        assert!(loaded.vcs.verified_objects().is_ok(), "every object in the new file is whole");
        assert_eq!(reader.vcs.snapshot_of(a).unwrap()["a.txt"], b"a\n", "a reader keeps what it loaded");
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
    fn a_save_with_the_same_index_appends_only_its_refs_record() {
        let dir = temp_dir("growth");
        let mut repo = PopperRepo::init("tester").unwrap();
        for i in 0..50 {
            repo.write(&format!("experiments/e{i}/vars.pml"), "runner: synthetic\n").unwrap();
            repo.vcs.tag(&format!("memo/{i:064}"), None).unwrap();
        }
        repo.commit("fifty").unwrap();
        save(&repo, &dir).unwrap();
        let state_file = dir.join(".popper/state");
        let size = || fs::metadata(&state_file).unwrap().len();
        let before = size();
        save(&load(&dir, "tester").unwrap(), &dir).unwrap();
        let grown = size() - before;
        assert!(grown < 400, "an unchanged save appended {grown} bytes");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_v1_state_is_rewritten_as_v2_on_its_first_save() {
        let dir = temp_dir("v1");
        let mut repo = PopperRepo::init("tester").unwrap();
        repo.write("notes.txt", "n\n").unwrap();
        repo.commit("notes").unwrap();
        save(&repo, &dir).unwrap();
        // The same state as the v1 encoder wrote it.
        let state = repo.vcs.export_state();
        let mut v1 = MAGIC_V1.to_vec();
        field(&mut v1, "clock", state.clock.to_string().as_bytes());
        field(&mut v1, "head", state.head.as_deref().unwrap().as_bytes());
        for (tag, refs) in [("branch", &state.branches), ("tag", &state.tags), ("index", &state.index)] {
            for (name, hex) in refs {
                field(&mut v1, tag, format!("{hex} {name}").as_bytes());
            }
        }
        for object in &state.objects {
            field(&mut v1, "object", object);
        }
        let state_file = dir.join(".popper/state");
        fs::write(&state_file, &v1).unwrap();
        let loaded = load(&dir, "tester").unwrap();
        assert!(loaded.vcs.object_log().is_none());
        save(&loaded, &dir).unwrap();
        let v2 = fs::read(&state_file).unwrap();
        assert!(v2.starts_with(MAGIC));
        assert_eq!(logged_state(&v2), exported(&repo.vcs));
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

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Raw bytes, or a real v1 or v2 state with bytes flipped, cut
        /// or inserted, behind either magic line.
        fn state_bytes() -> BoxedStrategy<Vec<u8>> {
            let mut repo = PopperRepo::init("t").unwrap();
            repo.vcs.tag("v1", None).unwrap();
            let v2 = encode(&repo.vcs);
            let v1 = [MAGIC_V1, &v2[MAGIC.len()..]].concat();
            prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..256),
                proptest::collection::vec(any::<u8>(), 0..256).prop_map(|tail| [MAGIC, &tail].concat()),
                proptest::collection::vec(any::<u8>(), 0..256).prop_map(|tail| [MAGIC_V1, &tail].concat()),
                (any::<bool>(), any::<usize>(), any::<u8>(), any::<usize>()).prop_map(move |(old, at, flip, cut)| {
                    let mut bytes = if old { v1.clone() } else { v2.clone() };
                    let at = at % bytes.len();
                    bytes[at] ^= flip;
                    bytes.truncate(bytes.len() - cut % 64);
                    bytes
                }),
            ]
            .boxed()
        }

        proptest! {
            /// Any input decodes or gives a typed error: no panic, and no
            /// allocation sized by a length the input states.
            #[test]
            fn any_bytes_decode_or_give_a_typed_error(bytes in state_bytes()) {
                if let Ok(Decoded::V2(scan)) = decode_bytes(&bytes) {
                    prop_assert!(scan.end <= bytes.len() as u64);
                    for o in &scan.objects {
                        prop_assert!(o.at + o.len < scan.end);
                    }
                }
            }

            /// What the v2 writer writes, the reader reads back.
            #[test]
            fn a_v2_log_round_trips(
                files in proptest::collection::btree_map("[a-c]{1,2}/[a-c]{1,3}", proptest::collection::vec(any::<u8>(), 0..40), 1..6),
                tags in proptest::collection::vec("[a-z/\n ]{1,12}", 0..4),
                branch in "[a-z ]{1,8}",
            ) {
                let mut repo = Repository::init();
                for (path, contents) in &files {
                    repo.write_file(path, contents.clone()).unwrap();
                }
                repo.stage(".").unwrap();
                repo.commit("p", "prop").unwrap();
                for tag in &tags {
                    repo.tag(tag, None).unwrap();
                }
                repo.create_branch(&branch).unwrap();
                let bytes = encode(&repo);
                prop_assert_eq!(logged_state(&bytes), exported(&repo));
            }
        }
    }
}
