//! A repository on disk: history, index and refs as one append-only
//! log, the file the CLI keeps at `.popper/state`.
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
//! Persisting costs what a command touched. [`load`] reads record
//! headers only, takes the last complete `refs` record and the tables it
//! names, and leaves each object where it lies: an object is read, and
//! checked against its id, on first use. [`save`] appends the objects
//! stored since load, any table that changed and one `refs` record, and
//! syncs the file once. An append cut short leaves a torn tail that the
//! next `load` ignores and the next `save` truncates. A repository that
//! was not loaded from this very file as it still is (a new one, a v1
//! file, another path, a file another process saved to since) is written
//! whole to a temporary file renamed over it. Saves to one file must take
//! turns; the caller holds the lock.

use crate::object::ObjectId;
use crate::repo::{Repository, Stored};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};

const MAGIC_V1: &[u8] = b"POPPER-STATE v1\n";
const MAGIC: &[u8] = b"POPPER-STATE v2\n";

/// The longest header accepted, newline included. The longest written
/// is `object <64 hex digits> <20 digits>\n`, 93 bytes.
const MAX_HEADER: u64 = 96;

/// Why a state file did not load.
#[derive(Debug)]
pub enum StateError {
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

impl std::error::Error for StateError {}

impl From<io::Error> for StateError {
    fn from(e: io::Error) -> Self {
        StateError::Io(e)
    }
}

/// The v2 log a repository was loaded from: where its logged objects
/// lie, and what a save may append to.
#[derive(Debug)]
pub(crate) struct Log {
    file: File,
    /// Where the complete records end: where an append goes.
    end: u64,
    /// The file's length when it was read, torn tail included.
    size: u64,
    /// The tables the last `refs` record names.
    tables: HashSet<ObjectId>,
}

impl Log {
    /// `len` bytes at `at`, as they are on disk: not checked against
    /// any id.
    #[cfg(unix)]
    pub(crate) fn read(&self, at: u64, len: u64) -> io::Result<Vec<u8>> {
        let mut buf = vec![0; usize::try_from(len).map_err(io::Error::other)?];
        std::os::unix::fs::FileExt::read_exact_at(&self.file, &mut buf, at)?;
        Ok(buf)
    }

    #[cfg(not(unix))]
    pub(crate) fn read(&self, at: u64, _len: u64) -> io::Result<Vec<u8>> {
        Err(io::Error::other(format!("no positioned reads on this platform ({at})")))
    }

    /// Is `target` the file this log was read from, with the length it
    /// had then? A save by another process since then makes this one
    /// rewrite the file whole: its update is lost, but no record it
    /// wrote is cut and no reader that loaded it finds its objects gone.
    #[cfg(unix)]
    fn is_as_loaded(&self, target: &Path) -> bool {
        use std::os::unix::fs::MetadataExt;
        match (self.file.metadata(), fs::metadata(target)) {
            (Ok(a), Ok(b)) => a.dev() == b.dev() && a.ino() == b.ino() && b.len() == self.size,
            _ => false,
        }
    }

    #[cfg(not(unix))]
    fn is_as_loaded(&self, _target: &Path) -> bool {
        false
    }
}

/// Load the repository that the state file `file` holds, with
/// `worktree` as its working tree. A v2 log stays open: its objects are
/// read from it on first use.
pub fn load(file: File, worktree: Vec<(String, Vec<u8>)>) -> Result<Repository, StateError> {
    let size = file.metadata()?.len();
    let mut repo = decode(file, size)?;
    repo.worktree = worktree.into_iter().collect();
    Ok(repo)
}

/// Decode `file`, `size` bytes of it, v1 or v2.
fn decode(file: File, size: u64) -> Result<Repository, StateError> {
    let mut repo = Repository::default();
    let mut input = BufReader::new(&file);
    let mut magic = [0u8; MAGIC.len()];
    input.read_exact(&mut magic).map_err(|_| StateError::BadMagic)?;
    if magic == MAGIC {
        let (end, tables) = scan_log(&mut input, size, &mut repo)?;
        drop(input);
        repo.log = Some(Arc::new(Log { file, end, size, tables }));
    } else if magic == MAGIC_V1 {
        read_fields(input, size.saturating_sub(MAGIC_V1.len() as u64), |tag, body| match tag {
            "object" => {
                repo.objects.insert(ObjectId::for_bytes(&body), Stored::Held(body));
                Ok(())
            }
            _ => apply_field(&mut repo, tag, body),
        })?;
    } else {
        return Err(StateError::BadMagic);
    }
    Ok(repo)
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
/// `repo`.
fn apply_field(repo: &mut Repository, tag: &str, body: Vec<u8>) -> Result<(), StateError> {
    let bad = || StateError::BadField(tag.to_string());
    let body = String::from_utf8(body).map_err(|_| bad())?;
    let refs = match tag {
        "clock" => {
            repo.clock = body.parse().map_err(|_| bad())?;
            return Ok(());
        }
        "head" => {
            repo.head = Some(body);
            return Ok(());
        }
        "branch" => &mut repo.branches,
        "tag" => &mut repo.tags,
        "index" => &mut repo.index,
        other => return Err(StateError::UnknownField(other.to_string())),
    };
    let (hex, name) = body.split_once(' ').ok_or_else(bad)?;
    refs.insert(name.to_string(), ObjectId::from_hex(hex).ok_or_else(bad)?);
    Ok(())
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

/// Scan the records of a v2 log of `size` bytes into `repo`, the magic
/// line already read: headers only, skipping object bodies, which `repo`
/// gets as logged objects. Returns where the records end and the tables
/// the last `refs` record names. A record that runs past the end of the
/// file is a torn append, and it and anything after the last complete
/// `refs` record are ignored, but only if no complete `refs` record
/// follows it and it is not itself a `refs` record that fills the file:
/// an append ends with its one `refs` record, so bytes that hold one
/// whole are not an unfinished append.
fn scan_log<R: Read + Seek>(
    input: &mut BufReader<R>,
    size: u64,
    repo: &mut Repository,
) -> Result<(u64, HashSet<ObjectId>), StateError> {
    let mut pos = MAGIC.len() as u64;
    // (id, body offset, body length)
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
            "object" => objects.push((id, at, len)),
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
    // Of two copies of one object the later wins.
    for &(id, at, len) in &objects[..logged] {
        repo.objects.insert(id, Stored::Logged { at, len, read: OnceLock::new() });
    }
    let mut named = Vec::new();
    let body = read_record(input, "refs", refs_id, refs_at, refs_len)?;
    read_fields(&body[..], refs_len, |tag, body| match tag {
        "table" => {
            let hex = String::from_utf8(body).map_err(|_| StateError::BadField("table".into()))?;
            named.push(ObjectId::from_hex(&hex).ok_or(StateError::BadField("table".into()))?);
            Ok(())
        }
        _ => apply_field(repo, tag, body),
    })?;
    for id in &named {
        let &(at, len) = tables.get(id).filter(|(at, _)| *at < refs_at).ok_or_else(|| StateError::MissingTable(id.to_hex()))?;
        let body = read_record(input, "table", *id, at, len)?;
        read_fields(&body[..], len, |tag, body| apply_field(repo, tag, body))?;
    }
    Ok((end, named.into_iter().collect()))
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

/// Save `repo` to the state file `target`: appended to the log it was
/// loaded from if `target` is that file as it was loaded, else written
/// whole.
pub fn save(repo: &Repository, target: &Path) -> io::Result<()> {
    match repo.log.as_deref().filter(|log| log.is_as_loaded(target)) {
        Some(log) => append(target, log.end, |file| {
            let mut out = BufWriter::new(file);
            write_records(&mut out, &unlogged(repo), repo, &log.tables)?;
            out.flush()
        }),
        None => {
            let objects = verified(repo).map_err(io::Error::other)?;
            replace(target, |file| {
                let mut out = BufWriter::new(file);
                out.write_all(MAGIC)?;
                write_records(&mut out, &objects, repo, &HashSet::new())?;
                out.flush()
            })
        }
    }
}

/// Every stored object with its verified serialization, in id order:
/// the first object that fails its id is the error.
fn verified(repo: &Repository) -> Result<Vec<(ObjectId, &[u8])>, crate::VcsError> {
    let mut ids: Vec<ObjectId> = repo.objects.keys().copied().collect();
    ids.sort_unstable();
    ids.into_iter().map(|id| Ok((id, repo.raw(id)?))).collect()
}

/// The objects stored since load, in id order: those not in the log.
fn unlogged(repo: &Repository) -> Vec<(ObjectId, &[u8])> {
    let mut held: Vec<(ObjectId, &[u8])> = repo
        .objects
        .iter()
        .filter_map(|(id, stored)| match stored {
            Stored::Held(bytes) => Some((*id, bytes.as_slice())),
            Stored::Logged { .. } => None,
        })
        .collect();
    held.sort_unstable_by_key(|(id, _)| *id);
    held
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

/// Write `objects`, the tables of `repo` not among `logged`, and the
/// `refs` record naming them.
fn write_records(
    out: &mut impl Write,
    objects: &[(ObjectId, &[u8])],
    repo: &Repository,
    logged: &HashSet<ObjectId>,
) -> io::Result<()> {
    for (id, bytes) in objects {
        record(out, "object", *id, bytes)?;
    }
    let table = |tag: &str, entries: &BTreeMap<String, ObjectId>| {
        let mut body = Vec::new();
        for (name, id) in entries {
            field(&mut body, tag, format!("{id} {name}").as_bytes());
        }
        (!body.is_empty()).then(|| (ObjectId::for_bytes(&body), body))
    };
    let mut body = Vec::new();
    field(&mut body, "clock", repo.clock.to_string().as_bytes());
    if let Some(h) = &repo.head {
        field(&mut body, "head", h.as_bytes());
    }
    for (name, id) in &repo.branches {
        field(&mut body, "branch", format!("{id} {name}").as_bytes());
    }
    for (id, table) in [table("index", &repo.index), table("tag", &repo.tags)].into_iter().flatten() {
        if !logged.contains(&id) {
            record(out, "table", id, &table)?;
        }
        field(&mut body, "table", id.to_hex().as_bytes());
    }
    record(out, "refs", ObjectId::for_bytes(&body), &body)
}

/// Append what `write` writes to `target` at byte `end`, dropping any
/// torn tail past it, and sync the file once. On error the file is cut
/// back to `end`, as it was.
fn append(target: &Path, end: u64, write: impl FnOnce(&File) -> io::Result<()>) -> io::Result<()> {
    let file = fs::OpenOptions::new().write(true).open(target)?;
    let appended = file
        .set_len(end)
        .and_then(|()| (&file).seek(SeekFrom::Start(end)))
        .and_then(|_| write(&file))
        .and_then(|()| file.sync_data());
    appended.inspect_err(|_| {
        file.set_len(end).ok();
    })
}

/// Replace `target` with what `write` puts into a sibling temporary
/// file, synced to disk before it is renamed over `target`, so `target`
/// holds the old contents or the new ones, never a prefix. On error the
/// temporary file is removed and `target` keeps its old contents.
fn replace(target: &Path, write: impl FnOnce(&File) -> io::Result<()>) -> io::Result<()> {
    let mut tmp_name = target.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = target.with_file_name(tmp_name);
    let written = File::create(&tmp)
        .and_then(|file| {
            write(&file)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, target));
    written.inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })?;
    // Make the rename itself durable.
    match target.parent() {
        Some(parent) => File::open(parent).and_then(|d| d.sync_all()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;
    use crate::repo::RepoState;
    use crate::VcsError;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A new path under the temporary directory.
    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("popper-vcs-state-{tag}-{}-{n}", std::process::id()))
    }

    /// A state file in a new temporary directory.
    fn state_file(tag: &str) -> PathBuf {
        let dir = temp_path(tag);
        fs::create_dir_all(&dir).unwrap();
        dir.join("state")
    }

    /// An open file that holds `bytes`, its path already removed.
    fn file_of(bytes: &[u8]) -> File {
        let path = temp_path("bytes");
        fs::write(&path, bytes).unwrap();
        let file = File::open(&path).unwrap();
        fs::remove_file(&path).ok();
        file
    }

    fn load_path(path: &Path) -> Result<Repository, StateError> {
        load(File::open(path)?, Vec::new())
    }

    /// Write `files`, stage every worktree file and commit.
    fn commit(repo: &mut Repository, files: &[(&str, &str)], message: &str) -> ObjectId {
        for (path, contents) in files {
            repo.write_file(path, *contents).unwrap();
        }
        repo.stage(".").unwrap();
        repo.commit("tester", message).unwrap()
    }

    /// A repository with one commit, as a new Popper repository has.
    fn init() -> Repository {
        let mut repo = Repository::init();
        commit(&mut repo, &[("README.md", "# paper\n"), ("paper/paper.md", "# Title\n")], "popper init");
        repo
    }

    /// Where the complete records of the log `repo` was loaded from end.
    fn end(repo: &Repository) -> u64 {
        repo.log.as_ref().expect("loaded from a v2 log").end
    }

    /// The whole v2 log of a repository.
    fn encode(repo: &Repository) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        write_records(&mut out, &verified(repo).unwrap(), repo, &HashSet::new()).unwrap();
        out
    }

    fn decode_bytes(bytes: &[u8]) -> Result<Repository, StateError> {
        decode(file_of(bytes), bytes.len() as u64)
    }

    fn decode_v1(bytes: &[u8]) -> Result<Repository, StateError> {
        let repo = decode_bytes(bytes)?;
        assert!(repo.log.is_none(), "a v1 stream decoded as v2");
        Ok(repo)
    }

    fn scan(bytes: &[u8]) -> Result<Repository, StateError> {
        let repo = decode_bytes(bytes)?;
        assert!(repo.log.is_some(), "a v2 stream decoded as v1");
        Ok(repo)
    }

    /// A state with what the log holds, objects in id order.
    fn logged_state(bytes: &[u8]) -> RepoState {
        exported(&scan(bytes).unwrap())
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
        let mut repo = init();
        repo.tag("v1", None).unwrap();
        repo.create_branch("feature").unwrap();
        repo.write_file("data/blob.bin", vec![0u8, 0xff, b'\n', 0x0a]).unwrap();
        repo.stage(".").unwrap();
        repo.commit("tester", "binary").unwrap();
        let bytes = encode(&repo);
        assert!(bytes.starts_with(MAGIC));
        assert_eq!(logged_state(&bytes), exported(&repo));
        assert_eq!(end(&scan(&bytes).unwrap()), bytes.len() as u64);
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
        assert!(matches!(decode(file_of(&bytes), 1 << 20), Err(StateError::TruncatedBody(_))));
        // In a v2 log a length past the end is a torn append: the state
        // is the last complete refs record before it.
        let clean = encode(&Repository::init());
        for len in [u64::MAX, u64::MAX - 1, 1 << 40, 4] {
            let mut bytes = clean.clone();
            bytes.extend_from_slice(format!("object {} {len}\nabc\n", ObjectId([0; 32])).as_bytes());
            assert_eq!(end(&scan(&bytes).unwrap()), clean.len() as u64, "{len}");
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
        let state_file = state_file("atomic");
        save(&init(), &state_file).unwrap();
        let mut repo = load_path(&state_file).unwrap();
        let head = repo.head_commit();
        commit(&mut repo, &[("experiments/e/vars.pml", "runner: synthetic\n")], "add experiment");
        let before = fs::read(&state_file).unwrap();
        let log = repo.log.as_deref().unwrap();
        for n in [0, 10, 100, 1000] {
            let err = append(&state_file, log.end, |file| {
                write_records(&mut FailAfter { inner: file, left: n }, &unlogged(&repo), &repo, &log.tables)
            });
            assert!(err.unwrap_err().to_string().contains("disk full"));
            let loaded = load_path(&state_file).unwrap();
            assert_eq!(loaded.head_commit(), head);
            assert_eq!(fs::read(&state_file).unwrap(), before, "the failed append is cut off");
        }
    }

    #[test]
    fn a_torn_append_loads_the_previous_refs_and_the_next_save_drops_it() {
        let state_file = state_file("torn");
        save(&init(), &state_file).unwrap();
        let first = fs::read(&state_file).unwrap();
        let mut repo = load_path(&state_file).unwrap();
        let head = repo.head_commit();
        commit(&mut repo, &[("experiments/e/vars.pml", "runner: synthetic\n")], "add experiment");
        save(&repo, &state_file).unwrap();
        let second = fs::read(&state_file).unwrap();
        assert_eq!(second[..first.len()], first[..], "a save appends");
        for cut in first.len()..second.len() {
            fs::write(&state_file, &second[..cut]).unwrap();
            let loaded = load_path(&state_file).unwrap();
            assert_eq!(loaded.head_commit(), head, "torn at {cut}");
            assert_eq!(end(&loaded), first.len() as u64);
        }
        // The next save drops the torn tail and appends whole records.
        let cut = (first.len() + second.len()) / 2;
        fs::write(&state_file, &second[..cut]).unwrap();
        let mut repo = load_path(&state_file).unwrap();
        commit(&mut repo, &[("experiments/e/vars.pml", "runner: synthetic\n")], "add experiment");
        save(&repo, &state_file).unwrap();
        assert_eq!(fs::read(&state_file).unwrap(), second);
    }

    #[test]
    fn a_flipped_byte_in_the_last_refs_record_is_an_error_not_a_rollback() {
        let state_file = state_file("refs-flip");
        save(&init(), &state_file).unwrap();
        let mut repo = load_path(&state_file).unwrap();
        commit(&mut repo, &[("notes.txt", "n\n")], "notes");
        save(&repo, &state_file).unwrap();
        let clean = fs::read(&state_file).unwrap();
        let refs = clean[..clean.len() - 1].iter().rposition(|&b| b == b'\n').unwrap();
        let start = clean[..refs].windows(6).rposition(|w| w == b"\nrefs ").unwrap() + 1;
        for at in start..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            fs::write(&state_file, &bytes).unwrap();
            let err = load_path(&state_file).err();
            assert!(err.is_some(), "flip at {at}: {err:?}");
        }
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
        let state_file = state_file("raised");
        let mut repo = init();
        commit(&mut repo, &[("data/x.csv", "a,b\n1,2\n")], "data");
        save(&repo, &state_file).unwrap();
        let mut repo = load_path(&state_file).unwrap();
        commit(&mut repo, &[("notes.txt", "n\n")], "notes");
        save(&repo, &state_file).unwrap();
        let clean = fs::read(&state_file).unwrap();
        let headers = record_headers(&clean);
        assert!(headers.len() > 6, "two saves of objects, tables and refs");
        for (at, len) in headers {
            // The record's length, raised past the end of the file.
            let header = std::str::from_utf8(&clean[at..at + len]).unwrap();
            let (head, _) = header.rsplit_once(' ').unwrap();
            let bytes = [&clean[..at], format!("{head} {}", clean.len()).as_bytes(), &clean[at + len..]].concat();
            fs::write(&state_file, &bytes).unwrap();
            let err = load_path(&state_file).err();
            assert!(
                err.as_ref().is_some_and(|e| matches!(e, StateError::Overrun(_)) && e.to_string().contains("runs past the end")),
                "raised at {at}: {err:?}"
            );
            assert_eq!(fs::read(&state_file).unwrap(), bytes, "the file is left as it was");
        }
    }

    #[test]
    fn a_save_after_another_process_saved_rewrites_the_file_whole() {
        use std::os::unix::fs::MetadataExt;
        let state_file = state_file("stale");
        save(&init(), &state_file).unwrap();
        let (mut first, mut second) = (load_path(&state_file).unwrap(), load_path(&state_file).unwrap());
        let a = commit(&mut first, &[("a.txt", "a\n")], "a");
        save(&first, &state_file).unwrap();
        let reader = load_path(&state_file).unwrap();
        let inode = fs::metadata(&state_file).unwrap().ino();
        // `second` loaded before `first` appended: appending at the end
        // it loaded would cut `first`'s records from under `reader`.
        let b = commit(&mut second, &[("b.txt", "b\n")], "b");
        save(&second, &state_file).unwrap();
        assert_ne!(fs::metadata(&state_file).unwrap().ino(), inode, "written whole and renamed");
        let loaded = load_path(&state_file).unwrap();
        assert_eq!(loaded.head_commit(), Some(b));
        assert!(verified(&loaded).is_ok(), "every object in the new file is whole");
        assert_eq!(reader.snapshot_of(a).unwrap()["a.txt"], b"a\n", "a reader keeps what it loaded");
    }

    #[test]
    fn a_save_with_the_same_index_appends_only_its_refs_record() {
        let state_file = state_file("growth");
        let mut repo = init();
        for i in 0..50 {
            repo.write_file(&format!("experiments/e{i}/vars.pml"), "runner: synthetic\n").unwrap();
            repo.tag(&format!("memo/{i:064}"), None).unwrap();
        }
        commit(&mut repo, &[], "fifty");
        save(&repo, &state_file).unwrap();
        let size = || fs::metadata(&state_file).unwrap().len();
        let before = size();
        save(&load_path(&state_file).unwrap(), &state_file).unwrap();
        let grown = size() - before;
        assert!(grown < 400, "an unchanged save appended {grown} bytes");
    }

    #[test]
    fn a_v1_state_is_rewritten_as_v2_on_its_first_save() {
        let state_file = state_file("v1");
        let mut repo = init();
        commit(&mut repo, &[("notes.txt", "n\n")], "notes");
        // The same state as the v1 encoder wrote it.
        let state = repo.export_state();
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
        fs::write(&state_file, &v1).unwrap();
        let loaded = load_path(&state_file).unwrap();
        assert!(loaded.log.is_none());
        save(&loaded, &state_file).unwrap();
        let v2 = fs::read(&state_file).unwrap();
        assert!(v2.starts_with(MAGIC));
        assert_eq!(logged_state(&v2), exported(&repo));
    }

    /// `repo` saved whole and loaded back with its worktree, `corrupt`
    /// applied to the file's bytes in between.
    fn into_log(tag: &str, repo: &Repository, corrupt: impl FnOnce(&mut Vec<u8>)) -> Repository {
        let state_file = state_file(tag);
        save(repo, &state_file).unwrap();
        let mut bytes = fs::read(&state_file).unwrap();
        corrupt(&mut bytes);
        fs::write(&state_file, &bytes).unwrap();
        let worktree = repo.worktree.iter().map(|(p, b)| (p.clone(), b.clone())).collect();
        load(File::open(&state_file).unwrap(), worktree).unwrap()
    }

    /// Flip the first byte of the first copy of `needle` in `bytes`.
    fn flip(bytes: &mut [u8], needle: &[u8]) {
        let at = bytes.windows(needle.len()).position(|w| w == needle).unwrap();
        bytes[at] ^= 0x20;
    }

    #[test]
    fn a_logged_object_is_hashed_on_first_use() {
        let mut r = init();
        let c1 = r.head_commit().unwrap();
        let c2 = commit(&mut r, &[("README.md", "# v2\n")], "second");
        let logged = into_log("clean", &r, |_| {});
        assert_eq!(logged.log(c2).unwrap(), r.log(c2).unwrap());
        assert_eq!(logged.snapshot_of(c1).unwrap(), r.snapshot_of(c1).unwrap());
        assert!(unlogged(&logged).is_empty());
        // One flipped byte in the blob of the first README.
        let readme = r.put(&Object::Blob(b"# paper\n".to_vec()));
        let flipped = into_log("flipped", &r, |bytes| flip(bytes, b"# paper\n"));
        assert!(matches!(flipped.get(readme), Err(VcsError::Corrupt(_))));
        assert!(flipped.snapshot_of(c1).is_err());
        assert_eq!(flipped.snapshot_of(c2).unwrap(), r.snapshot_of(c2).unwrap());
        assert!(verified(&flipped).is_err());
        assert_eq!(flipped.export_state().objects.len(), r.object_count() - 1, "the export leaves it out");
    }

    #[test]
    fn restaging_over_the_log_adds_no_object() {
        let r = init();
        let c1 = r.head_commit().unwrap();
        let mut logged = into_log("restage", &r, |_| {});
        logged.stage(".").unwrap();
        let c2 = logged.commit("t", "again").unwrap();
        assert_eq!(logged.commit_info(c1).unwrap().tree, logged.commit_info(c2).unwrap().tree);
        let new: Vec<ObjectId> = unlogged(&logged).iter().map(|(id, _)| *id).collect();
        assert_eq!(new, [c2], "only the commit object is new");
    }

    #[test]
    fn put_replaces_a_logged_copy_that_does_not_hash_to_its_id() {
        let mut r = Repository::init();
        r.write_file("a.txt", "alpha").unwrap();
        r.stage("a.txt").unwrap();
        let blob = r.put(&Object::Blob(b"alpha".to_vec()));
        let mut logged = into_log("replace", &r, |bytes| flip(bytes, b"alpha"));
        logged.stage(".").unwrap();
        let c = logged.commit("t", "first").unwrap();
        assert_eq!(logged.get(blob).unwrap(), Object::Blob(b"alpha".to_vec()));
        assert_eq!(logged.snapshot_of(c).unwrap()["a.txt"], b"alpha");
        let new: Vec<ObjectId> = unlogged(&logged).iter().map(|(id, _)| *id).collect();
        assert!(new.contains(&blob), "the good copy is to be logged again");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Raw bytes, or a real v1 or v2 state with bytes flipped, cut
        /// or inserted, behind either magic line.
        fn state_bytes() -> BoxedStrategy<Vec<u8>> {
            let mut repo = init();
            repo.tag("v1", None).unwrap();
            let v2 = encode(&repo);
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
                if let Ok(repo) = decode_bytes(&bytes) {
                    if let Some(log) = &repo.log {
                        prop_assert!(log.end <= bytes.len() as u64);
                        for stored in repo.objects.values() {
                            if let Stored::Logged { at, len, .. } = stored {
                                prop_assert!(at + len < log.end);
                            }
                        }
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
