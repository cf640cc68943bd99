//! An in-memory repository: object store, index, refs and history.
//!
//! The working tree is a sorted map from slash-separated paths to byte
//! contents; `write_file`/`stage`/`commit` mirror the git workflow the
//! paper assumes researchers follow ("version-control systems give
//! authors, reviewers and readers access to the same code base").
//!
//! A file loaded from disk may stay unread: the caller vouches that its
//! bytes are those of a stored blob ([`Repository::load_unread`]), and
//! the repository reads that blob, verified, only when someone asks for
//! the bytes. Staging, comparing and diffing go by blob id, so a command
//! pays for the bytes it changes, not for the whole tree.

use crate::diff;
use crate::object::{Commit, Object, ObjectId, TreeEntry};
use crate::state::Log;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors from repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcsError {
    /// Referenced an object that is not in the store.
    MissingObject(ObjectId),
    /// Referenced a branch/tag that does not exist.
    UnknownRef(String),
    /// A path was invalid (empty, absolute, `..`, or embedded NUL/newline).
    BadPath(String),
    /// Attempted an operation that needs staged changes with none staged.
    NothingStaged,
    /// An object failed to decode, or had the wrong type.
    Corrupt(String),
}

impl fmt::Display for VcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcsError::MissingObject(id) => write!(f, "missing object {}", id.short()),
            VcsError::UnknownRef(r) => write!(f, "unknown ref '{r}'"),
            VcsError::BadPath(p) => write!(f, "invalid path '{p}'"),
            VcsError::NothingStaged => write!(f, "nothing staged to commit"),
            VcsError::Corrupt(m) => write!(f, "corrupt object: {m}"),
        }
    }
}

impl std::error::Error for VcsError {}

/// A change between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change {
    /// Path exists only in the new snapshot.
    Added(String),
    /// Path exists only in the old snapshot.
    Removed(String),
    /// Path exists in both with different content.
    Modified(String),
}

impl Change {
    /// The path the change refers to.
    pub fn path(&self) -> &str {
        match self {
            Change::Added(p) | Change::Removed(p) | Change::Modified(p) => p,
        }
    }
}

/// One object of the store.
#[derive(Debug, Clone)]
pub(crate) enum Stored {
    /// Bytes that hash to the object's id: `put`, `import_state` or a
    /// v1 load computed the id from them. Not in the repository's log.
    Held(Vec<u8>),
    /// A serialization in the log, read and hashed on first use; the
    /// cell keeps the verified bytes or why they failed.
    Logged { at: u64, len: u64, read: OnceLock<Result<Vec<u8>, String>> },
}

impl Stored {
    /// Can a `put` of the object this is stored under keep this copy?
    /// A held copy hashed to the id; a logged one is kept if it is
    /// verified, or if `matches` finds its unverified bytes to be the
    /// object's, which verifies it without hashing.
    fn keeps(&self, log: &Option<Arc<Log>>, matches: impl FnOnce(&[u8]) -> bool) -> bool {
        match self {
            Stored::Held(_) => true,
            Stored::Logged { at, len, read } => match read.get() {
                Some(verified) => verified.is_ok(),
                None => match read_logged(log, *at, *len) {
                    Ok(logged) if matches(&logged) => read.set(Ok(logged)).is_ok(),
                    _ => false,
                },
            },
        }
    }
}

/// Store the blob holding `contents` in `objects` and return its id.
/// The id is hashed in place; only a blob the store lacks, or holds a
/// bad logged copy of, is serialized, in one copy. It takes the store's
/// fields rather than the repository so that `stage` can pass bytes
/// borrowed from the working tree.
fn put_blob(objects: &mut HashMap<ObjectId, Stored>, log: &Option<Arc<Log>>, contents: &[u8]) -> ObjectId {
    let id = Object::blob_id(contents);
    if !objects.get(&id).is_some_and(|stored| stored.keeps(log, |logged| Object::is_blob_of(logged, contents))) {
        objects.insert(id, Stored::Held(Object::blob_serialization(contents)));
    }
    id
}

/// What the file system reports of a working-tree file: enough to tell,
/// without reading it, that the file has not changed since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStamp {
    /// Length in bytes.
    pub size: u64,
    /// Last modification, in nanoseconds since the Unix epoch.
    pub mtime_ns: i128,
    /// Last status change, in nanoseconds since the Unix epoch.
    pub ctime_ns: i128,
    /// Inode number.
    pub ino: u64,
}

/// One working-tree file.
#[derive(Debug, Clone)]
enum WorkFile {
    /// Bytes the repository holds, with the id of their blob once
    /// `stage` or `write_files` stored or matched it, and the stamp the
    /// file had on disk if these are the bytes loaded from it.
    Held { bytes: Vec<u8>, blob: Option<ObjectId>, stamp: Option<FileStamp> },
    /// A file on disk, unchanged since it had `stamp`, whose bytes are
    /// those of the stored blob `blob`: read from the store on first use.
    Unread { blob: ObjectId, stamp: FileStamp },
}

impl WorkFile {
    /// The id of the blob holding the file's bytes, if known unhashed.
    fn blob(&self) -> Option<ObjectId> {
        match self {
            WorkFile::Held { blob, .. } => *blob,
            WorkFile::Unread { blob, .. } => Some(*blob),
        }
    }

    fn stamp(&self) -> Option<FileStamp> {
        match self {
            WorkFile::Held { stamp, .. } => *stamp,
            WorkFile::Unread { stamp, .. } => Some(*stamp),
        }
    }
}

/// An in-memory content-addressed repository.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    pub(crate) objects: HashMap<ObjectId, Stored>,
    /// The log that `Logged` objects lie in.
    pub(crate) log: Option<Arc<Log>>,
    /// Working tree: path -> contents.
    worktree: BTreeMap<String, WorkFile>,
    /// Staging index: path -> blob id (a snapshot of stage-time content).
    pub(crate) index: BTreeMap<String, ObjectId>,
    pub(crate) branches: BTreeMap<String, ObjectId>,
    pub(crate) tags: BTreeMap<String, ObjectId>,
    pub(crate) head: Option<String>,
    /// Monotonic logical clock for commit timestamps.
    pub(crate) clock: u64,
    /// Working-tree paths whose bytes changed since `init`,
    /// `import_state` or a load: all a save has to write back.
    changed: BTreeSet<String>,
}

impl Repository {
    /// An empty repository with `main` as the current (unborn) branch.
    pub fn init() -> Self {
        Repository { head: Some("main".into()), ..Default::default() }
    }

    // -- object store -------------------------------------------------

    /// Store an object, returning its ID. Idempotent. A logged copy
    /// whose bytes differ from the object's is replaced.
    pub fn put(&mut self, obj: &Object) -> ObjectId {
        if let Object::Blob(contents) = obj {
            return put_blob(&mut self.objects, &self.log, contents);
        }
        let bytes = obj.serialize();
        let id = ObjectId::for_bytes(&bytes);
        if !self.objects.get(&id).is_some_and(|stored| stored.keeps(&self.log, |logged| logged == bytes)) {
            self.objects.insert(id, Stored::Held(bytes));
        }
        id
    }

    /// Load and decode an object.
    pub fn get(&self, id: ObjectId) -> Result<Object, VcsError> {
        Object::deserialize(self.raw(id)?).map_err(VcsError::Corrupt)
    }

    /// An object's stored serialization. A logged one is read and
    /// hashed on its first use, so no bytes leave the store that do not
    /// hash to their id.
    pub(crate) fn raw(&self, id: ObjectId) -> Result<&[u8], VcsError> {
        match self.objects.get(&id).ok_or(VcsError::MissingObject(id))? {
            Stored::Held(bytes) => Ok(bytes),
            Stored::Logged { at, len, read } => read
                .get_or_init(|| {
                    let bytes = read_logged(&self.log, *at, *len)?;
                    if ObjectId::for_bytes(&bytes) == id {
                        Ok(bytes)
                    } else {
                        Err(format!("object {} does not match its id", id.short()))
                    }
                })
                .as_deref()
                .map_err(|e| VcsError::Corrupt(e.clone())),
        }
    }

    /// Does the stored object `id` serialize the blob of `contents`? A
    /// logged copy is compared as it is on disk, unverified: a mismatch
    /// makes the caller put the blob again, and a match keeps an id
    /// whose bytes `raw` verifies on their next read.
    fn holds_blob_of(&self, id: ObjectId, contents: &[u8]) -> bool {
        match self.objects.get(&id) {
            None => false,
            Some(Stored::Held(bytes)) => Object::is_blob_of(bytes, contents),
            Some(Stored::Logged { at, len, read }) => match read.get() {
                Some(verified) => verified.as_ref().is_ok_and(|bytes| Object::is_blob_of(bytes, contents)),
                None => {
                    *len == Object::blob_len(contents.len()) as u64
                        && read_logged(&self.log, *at, *len).is_ok_and(|bytes| Object::is_blob_of(&bytes, contents))
                }
            },
        }
    }

    /// The length of the stored serialization of `id`, without reading it.
    fn stored_len(&self, id: ObjectId) -> Option<u64> {
        match self.objects.get(&id)? {
            Stored::Held(bytes) => Some(bytes.len() as u64),
            Stored::Logged { len, .. } => Some(*len),
        }
    }

    /// The contents of the blob `id`, borrowed from the verified store.
    fn blob_contents(&self, id: ObjectId) -> Result<&[u8], VcsError> {
        Object::blob_contents(self.raw(id)?).ok_or_else(|| VcsError::Corrupt(format!("object {} is not a blob", id.short())))
    }

    /// Number of objects stored.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    // -- working tree ---------------------------------------------------

    /// Write (create or overwrite) a file in the working tree.
    pub fn write_file(&mut self, path: &str, contents: impl Into<Vec<u8>>) -> Result<(), VcsError> {
        validate_path(path)?;
        self.set_file(path, contents.into());
        Ok(())
    }

    /// Put `contents` at `path`, marking the path changed unless it
    /// already held exactly these bytes.
    fn set_file(&mut self, path: &str, contents: Vec<u8>) {
        if self.file_equals(path, &contents) {
            return;
        }
        let file = WorkFile::Held { bytes: contents, blob: None, stamp: None };
        match self.worktree.get_mut(path) {
            Some(old) => *old = file,
            None => {
                self.worktree.insert(path.to_string(), file);
            }
        }
        self.mark_changed(path);
    }

    /// Does the working tree hold exactly `contents` at `path`? An
    /// unread file is compared by length and blob id, its bytes unread.
    pub fn file_equals(&self, path: &str, contents: &[u8]) -> bool {
        match self.worktree.get(path) {
            None => false,
            Some(WorkFile::Held { bytes, .. }) => bytes == contents,
            Some(WorkFile::Unread { blob, .. }) => {
                self.stored_len(*blob) == Some(Object::blob_len(contents.len()) as u64)
                    && Object::blob_id(contents) == *blob
            }
        }
    }

    /// Put a file as read from disk into the working tree, with the
    /// stamp it had before it was read: not a change to write back.
    pub fn load_file(&mut self, path: &str, contents: Vec<u8>, stamp: Option<FileStamp>) {
        self.worktree.insert(path.to_string(), WorkFile::Held { bytes: contents, blob: None, stamp });
    }

    /// Put a file that is on disk, unchanged since it had `stamp`, into
    /// the working tree without reading it: the caller vouches that its
    /// bytes are those of the blob `blob`. False, and nothing done, if
    /// the store lacks that blob.
    pub fn load_unread(&mut self, path: &str, blob: ObjectId, stamp: FileStamp) -> bool {
        let stored = self.objects.contains_key(&blob);
        if stored {
            self.worktree.insert(path.to_string(), WorkFile::Unread { blob, stamp });
        }
        stored
    }

    fn mark_changed(&mut self, path: &str) {
        if !self.changed.contains(path) {
            self.changed.insert(path.to_string());
        }
    }

    /// Read a file from the working tree; an unread one is read from
    /// its blob on first use.
    ///
    /// # Panics
    ///
    /// If the file is unread and its stored blob fails its id, which
    /// [`Repository::try_read_file`] returns as an error.
    pub fn read_file(&self, path: &str) -> Option<&[u8]> {
        self.try_read_file(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    /// Read a file from the working tree, `Ok(None)` if there is none.
    /// An unread file is read from its blob, checked against the blob's
    /// id, on first use: a damaged blob is [`VcsError::Corrupt`], never
    /// a missing file or other bytes.
    pub fn try_read_file(&self, path: &str) -> Result<Option<&[u8]>, VcsError> {
        match self.worktree.get(path) {
            None => Ok(None),
            Some(WorkFile::Held { bytes, .. }) => Ok(Some(bytes)),
            Some(WorkFile::Unread { blob, .. }) => self.blob_contents(*blob).map(Some),
        }
    }

    /// Is there a working-tree file at `path`? Reads nothing.
    pub fn has_file(&self, path: &str) -> bool {
        self.worktree.contains_key(path)
    }

    /// The id of the blob holding the working-tree file at `path`, if
    /// it is known without hashing: the file is unread, or staged or
    /// written in a batch since its bytes last changed.
    pub fn known_blob(&self, path: &str) -> Option<ObjectId> {
        self.worktree.get(path)?.blob()
    }

    /// The id of the blob holding the working-tree file at `path`,
    /// hashing nothing: its [`Repository::known_blob`], or else the staged
    /// blob if one byte compare finds that the file holds exactly its
    /// bytes. A file read at load and left alone since is clean this way.
    pub fn clean_blob(&self, path: &str) -> Option<ObjectId> {
        let file = self.worktree.get(path)?;
        file.blob().or_else(|| {
            let WorkFile::Held { bytes, .. } = file else { return None };
            let staged = *self.index.get(path)?;
            self.holds_blob_of(staged, bytes).then_some(staged)
        })
    }

    /// The stamp the file at `path` had on disk when it was loaded, if
    /// its bytes have not changed since.
    pub fn stamp(&self, path: &str) -> Option<FileStamp> {
        self.worktree.get(path)?.stamp()
    }

    /// Delete a file from the working tree; true if it existed.
    pub fn remove_file(&mut self, path: &str) -> bool {
        let existed = self.worktree.remove(path).is_some();
        if existed {
            self.mark_changed(path);
        }
        existed
    }

    /// All working-tree paths.
    pub fn files(&self) -> impl Iterator<Item = &str> {
        self.worktree.keys().map(String::as_str)
    }

    /// Staged paths, in path order.
    pub fn staged(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Working-tree paths written with different bytes, removed, or
    /// replaced by a checkout since the repository was created or
    /// imported, in path order. A path here may no longer exist.
    pub fn changed_files(&self) -> impl Iterator<Item = &str> {
        self.changed.iter().map(String::as_str)
    }

    // -- staging and committing ------------------------------------------

    /// Stage one path (must exist in the working tree) or, with `"."`,
    /// every working-tree file.
    pub fn stage(&mut self, path: &str) -> Result<(), VcsError> {
        if path == "." {
            let paths: Vec<String> = self.worktree.keys().cloned().collect();
            for p in paths {
                self.stage(&p)?;
            }
            return Ok(());
        }
        let id = match self.worktree.get(path).ok_or_else(|| VcsError::BadPath(path.to_string()))? {
            // A known blob is this file's: an unread file is staged
            // without reading either copy.
            WorkFile::Unread { blob, .. } | WorkFile::Held { blob: Some(blob), .. } => *blob,
            WorkFile::Held { bytes, blob: None, .. } => match self.index.get(path) {
                // A staged blob whose bytes equal the file's is already
                // this file's blob: nothing to clone, serialize or hash.
                Some(id) if self.holds_blob_of(*id, bytes) => *id,
                _ => put_blob(&mut self.objects, &self.log, bytes),
            },
        };
        if let Some(WorkFile::Held { blob, .. }) = self.worktree.get_mut(path) {
            *blob = Some(id);
        }
        if self.index.get(path) != Some(&id) {
            self.index.insert(path.to_string(), id);
        }
        Ok(())
    }

    /// Write and stage a batch of files in one pass. Equivalent to
    /// `write_file` + `stage` per entry but validates every path before
    /// touching the tree, so a bad path leaves both the working tree
    /// and the index unchanged — the all-or-nothing contract batched
    /// artifact commits (the CI farm's tenant repos) rely on.
    pub fn write_files(
        &mut self,
        files: impl IntoIterator<Item = (String, Vec<u8>)>,
    ) -> Result<(), VcsError> {
        let files: Vec<(String, Vec<u8>)> = files.into_iter().collect();
        for (path, _) in &files {
            validate_path(path)?;
        }
        for (path, contents) in files {
            let id = put_blob(&mut self.objects, &self.log, &contents);
            self.set_file(&path, contents);
            if let Some(WorkFile::Held { blob, .. }) = self.worktree.get_mut(&path) {
                *blob = Some(id);
            }
            self.index.insert(path, id);
        }
        Ok(())
    }

    /// Unstage a path; true if it was staged.
    #[cfg(test)]
    fn unstage(&mut self, path: &str) -> bool {
        self.index.remove(path).is_some()
    }

    /// Commit the staged snapshot onto the current branch. The index
    /// fully describes the snapshot (paths absent from the index are
    /// absent from the commit).
    pub fn commit(&mut self, author: &str, message: &str) -> Result<ObjectId, VcsError> {
        let parents = self.head_commit().into_iter().collect();
        self.commit_with_parents(author, message, parents)
    }

    /// Build (and store) the tree object hierarchy for the current index.
    fn write_tree(&mut self) -> Result<ObjectId, VcsError> {
        // Nested path components -> tree. Build bottom-up via recursion
        // over a directory map.
        #[derive(Default)]
        struct Dir {
            files: BTreeMap<String, ObjectId>,
            dirs: BTreeMap<String, Dir>,
        }
        let mut root = Dir::default();
        for (path, id) in &self.index {
            let mut cur = &mut root;
            let mut parts = path.split('/').peekable();
            while let Some(part) = parts.next() {
                if parts.peek().is_none() {
                    cur.files.insert(part.to_string(), *id);
                } else {
                    cur = cur.dirs.entry(part.to_string()).or_default();
                }
            }
        }
        fn build(repo: &mut Repository, dir: &Dir) -> ObjectId {
            let mut entries: Vec<TreeEntry> = Vec::new();
            for (name, sub) in &dir.dirs {
                let id = build(repo, sub);
                entries.push(TreeEntry { name: name.clone(), id, is_tree: true });
            }
            for (name, id) in &dir.files {
                entries.push(TreeEntry { name: name.clone(), id: *id, is_tree: false });
            }
            entries.sort_by(|a, b| a.name.cmp(&b.name));
            repo.put(&Object::Tree(entries))
        }
        Ok(build(self, &root))
    }

    // -- refs --------------------------------------------------------------

    /// The current branch name.
    pub fn current_branch(&self) -> Option<&str> {
        self.head.as_deref()
    }

    /// The commit the current branch points at (None before first commit).
    pub fn head_commit(&self) -> Option<ObjectId> {
        self.head.as_ref().and_then(|b| self.branches.get(b).copied())
    }

    /// Create a branch at the current HEAD commit and switch to it.
    pub fn create_branch(&mut self, name: &str) -> Result<(), VcsError> {
        if let Some(head) = self.head_commit() {
            self.branches.insert(name.to_string(), head);
        }
        self.head = Some(name.to_string());
        Ok(())
    }

    /// Switch HEAD to an existing branch and materialize its snapshot
    /// into the working tree and index.
    pub fn checkout(&mut self, name: &str) -> Result<(), VcsError> {
        let tracer = popper_trace::current();
        let _span = tracer.span("vcs", "vcs/repo", format!("checkout {name}"));
        let target = *self.branches.get(name).ok_or_else(|| VcsError::UnknownRef(name.to_string()))?;
        let snapshot = self.snapshot_of(target)?;
        self.replace_worktree(snapshot);
        self.head = Some(name.to_string());
        Ok(())
    }

    /// Make `snapshot` the working tree and index, marking every path
    /// it adds, drops or changes.
    fn replace_worktree(&mut self, snapshot: BTreeMap<String, Vec<u8>>) {
        let mut old = std::mem::take(&mut self.worktree);
        self.index.clear();
        for (path, contents) in snapshot {
            let id = put_blob(&mut self.objects, &self.log, &contents);
            let file = match old.remove(&path) {
                Some(WorkFile::Unread { blob, stamp }) if blob == id => WorkFile::Unread { blob, stamp },
                Some(WorkFile::Held { bytes, stamp, .. }) if bytes == contents => {
                    WorkFile::Held { bytes, blob: Some(id), stamp }
                }
                _ => {
                    self.mark_changed(&path);
                    WorkFile::Held { bytes: contents, blob: Some(id), stamp: None }
                }
            };
            self.index.insert(path.clone(), id);
            self.worktree.insert(path, file);
        }
        for path in old.keys() {
            self.mark_changed(path);
        }
    }

    /// Tag a commit (defaults to HEAD).
    pub fn tag(&mut self, name: &str, commit: Option<ObjectId>) -> Result<(), VcsError> {
        let target = match commit {
            Some(c) => c,
            None => self.head_commit().ok_or_else(|| VcsError::UnknownRef("HEAD".into()))?,
        };
        self.tags.insert(name.to_string(), target);
        Ok(())
    }

    /// Resolve a ref name: branch, tag, full hex commit id, or a unique
    /// hex prefix of at least 4 characters (what `log` prints).
    pub fn resolve(&self, name: &str) -> Result<ObjectId, VcsError> {
        if let Some(id) = self.branches.get(name).or_else(|| self.tags.get(name)) {
            return Ok(*id);
        }
        if let Some(id) = ObjectId::from_hex(name) {
            if self.objects.contains_key(&id) {
                return Ok(id);
            }
        }
        if name.len() >= 4 && name.len() < 64 && name.chars().all(|c| c.is_ascii_hexdigit()) {
            let mut matches = self
                .objects
                .keys()
                .filter(|id| id.to_hex().starts_with(name) && self.commit_info(**id).is_ok());
            if let Some(first) = matches.next() {
                if matches.next().is_some() {
                    return Err(VcsError::UnknownRef(format!("ambiguous commit prefix '{name}'")));
                }
                return Ok(*first);
            }
        }
        Err(VcsError::UnknownRef(name.to_string()))
    }

    /// Read one file out of a commit's tree without materializing the
    /// whole snapshot. `Ok(None)` when the path is absent.
    pub fn file_at(&self, commit: ObjectId, path: &str) -> Result<Option<Vec<u8>>, VcsError> {
        self.blob_at(commit, path)?.map(|id| self.blob(id)).transpose()
    }

    /// The id of the blob at `path` in a commit's tree, `Ok(None)` when
    /// the path is absent. Reads trees only.
    pub fn blob_at(&self, commit: ObjectId, path: &str) -> Result<Option<ObjectId>, VcsError> {
        let mut tree = self.commit_info(commit)?.tree;
        let mut parts = path.split('/').filter(|p| !p.is_empty()).peekable();
        while let Some(part) = parts.next() {
            let entries = self.tree_entries(tree)?;
            let Some(entry) = entries.iter().find(|e| e.name == part) else {
                return Ok(None);
            };
            match (parts.peek().is_some(), entry.is_tree) {
                (true, true) => tree = entry.id,
                (false, false) => return Ok(Some(entry.id)),
                _ => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Branch names.
    pub fn branches(&self) -> impl Iterator<Item = &str> {
        self.branches.keys().map(String::as_str)
    }

    // -- history -------------------------------------------------------

    /// The commit metadata for an id.
    pub fn commit_info(&self, id: ObjectId) -> Result<Commit, VcsError> {
        match self.get(id)? {
            Object::Commit(c) => Ok(c),
            other => Err(VcsError::Corrupt(format!("expected commit, found {}", other.type_name()))),
        }
    }

    /// First-parent log from a commit back to the root.
    pub fn log(&self, from: ObjectId) -> Result<Vec<(ObjectId, Commit)>, VcsError> {
        let mut out = Vec::new();
        let mut cur = Some(from);
        while let Some(id) = cur {
            let c = self.commit_info(id)?;
            cur = c.parents.first().copied();
            out.push((id, c));
        }
        Ok(out)
    }

    /// The full path->contents snapshot of a commit.
    pub fn snapshot_of(&self, commit: ObjectId) -> Result<BTreeMap<String, Vec<u8>>, VcsError> {
        self.tree_blobs(commit)?.into_iter().map(|(path, id)| Ok((path, self.blob(id)?))).collect()
    }

    /// The path -> blob id map of a commit's tree. Reads trees only.
    fn tree_blobs(&self, commit: ObjectId) -> Result<BTreeMap<String, ObjectId>, VcsError> {
        let mut out = BTreeMap::new();
        self.walk_tree(self.commit_info(commit)?.tree, "", &mut out)?;
        Ok(out)
    }

    fn walk_tree(&self, tree: ObjectId, prefix: &str, out: &mut BTreeMap<String, ObjectId>) -> Result<(), VcsError> {
        for e in self.tree_entries(tree)? {
            let path = join(prefix, &e.name);
            if e.is_tree {
                self.walk_tree(e.id, &path, out)?;
            } else {
                out.insert(path, e.id);
            }
        }
        Ok(())
    }

    fn tree_entries(&self, tree: ObjectId) -> Result<Vec<TreeEntry>, VcsError> {
        match self.get(tree)? {
            Object::Tree(entries) => Ok(entries),
            other => Err(VcsError::Corrupt(format!("expected tree, found {}", other.type_name()))),
        }
    }

    fn blob(&self, id: ObjectId) -> Result<Vec<u8>, VcsError> {
        match self.get(id)? {
            Object::Blob(data) => Ok(data),
            other => Err(VcsError::Corrupt(format!("expected blob, found {}", other.type_name()))),
        }
    }

    /// Changes between two commits' snapshots, by blob id: a subtree
    /// with one id on both sides is not descended into, and no blob is
    /// read.
    pub fn changes(&self, old: ObjectId, new: ObjectId) -> Result<Vec<Change>, VcsError> {
        let mut out = Vec::new();
        self.diff_trees(Some(self.commit_info(old)?.tree), Some(self.commit_info(new)?.tree), "", &mut out)?;
        out.sort_by(|x, y| x.path().cmp(y.path()));
        Ok(out)
    }

    /// Push the changes from tree `old` to tree `new` (`None`: empty)
    /// under `prefix` onto `out`.
    fn diff_trees(
        &self,
        old: Option<ObjectId>,
        new: Option<ObjectId>,
        prefix: &str,
        out: &mut Vec<Change>,
    ) -> Result<(), VcsError> {
        if old == new {
            return Ok(());
        }
        let mut names: BTreeMap<String, [Option<TreeEntry>; 2]> = BTreeMap::new();
        for (side, tree) in [old, new].into_iter().enumerate() {
            for entry in tree.map(|t| self.tree_entries(t)).transpose()?.unwrap_or_default() {
                let name = entry.name.clone();
                names.entry(name).or_default()[side] = Some(entry);
            }
        }
        for (name, [a, b]) in names {
            let path = join(prefix, &name);
            let of_kind = |e: &Option<TreeEntry>, tree: bool| e.as_ref().filter(|e| e.is_tree == tree).map(|e| e.id);
            self.diff_trees(of_kind(&a, true), of_kind(&b, true), &path, out)?;
            match (of_kind(&a, false), of_kind(&b, false)) {
                (Some(x), Some(y)) if x != y => out.push(Change::Modified(path)),
                (Some(_), None) => out.push(Change::Removed(path)),
                (None, Some(_)) => out.push(Change::Added(path)),
                _ => {}
            }
        }
        Ok(())
    }

    /// Working-tree status relative to HEAD: what changed since the last
    /// commit (or everything, on an unborn branch). Compared by blob id
    /// where the file's is known; a file called clean is checked
    /// against its HEAD blob as `raw` reads and verifies it, so a
    /// damaged blob is an error, never a clean file.
    pub fn status(&self) -> Result<Vec<Change>, VcsError> {
        let head = match self.head_commit() {
            Some(h) => self.tree_blobs(h)?,
            None => BTreeMap::new(),
        };
        let mut out = Vec::new();
        for (path, file) in &self.worktree {
            let Some(&id) = head.get(path) else {
                out.push(Change::Added(path.clone()));
                continue;
            };
            let clean = match file {
                WorkFile::Held { bytes, blob: None, .. } => {
                    self.stored_len(id) == Some(Object::blob_len(bytes.len()) as u64)
                        && Object::is_blob_of(self.raw(id)?, bytes)
                }
                known => known.blob() == Some(id) && self.raw(id).map(|_| true)?,
            };
            if !clean {
                out.push(Change::Modified(path.clone()));
            }
        }
        out.extend(head.into_keys().filter(|p| !self.worktree.contains_key(p)).map(Change::Removed));
        out.sort_by(|x, y| x.path().cmp(y.path()));
        Ok(out)
    }

    /// Unified diff of one file between a commit and the working tree.
    pub fn diff_file(&self, commit: ObjectId, path: &str) -> Result<String, VcsError> {
        let old = self.file_at(commit, path)?.map(|b| String::from_utf8_lossy(&b).into_owned()).unwrap_or_default();
        let new = self.try_read_file(path)?.map(|b| String::from_utf8_lossy(b).into_owned()).unwrap_or_default();
        Ok(diff::unified(&format!("a/{path}"), &format!("b/{path}"), &old, &new, 3))
    }

    /// Force a branch to point at a commit (plumbing for merges).
    pub fn force_branch(&mut self, name: &str, commit: ObjectId) {
        self.branches.insert(name.to_string(), commit);
    }

    /// Replace the working tree and index with the given snapshot
    /// (plumbing for merges; does not touch refs).
    pub fn materialize(&mut self, snapshot: &BTreeMap<String, Vec<u8>>) -> Result<(), VcsError> {
        for path in snapshot.keys() {
            validate_path(path)?;
        }
        self.replace_worktree(snapshot.clone());
        Ok(())
    }

    /// Commit the staged snapshot with explicit parents (merge commits).
    pub fn commit_with_parents(
        &mut self,
        author: &str,
        message: &str,
        parents: Vec<ObjectId>,
    ) -> Result<ObjectId, VcsError> {
        let tracer = popper_trace::current();
        let _span = tracer.span("vcs", "vcs/repo", format!("commit ({} path(s))", self.index.len()));
        if self.index.is_empty() {
            return Err(VcsError::NothingStaged);
        }
        let tree = self.write_tree()?;
        self.clock += 1;
        let commit = Commit {
            tree,
            parents,
            author: author.to_string(),
            message: message.to_string(),
            timestamp: self.clock,
        };
        let id = self.put(&Object::Commit(commit));
        let branch = self.head.clone().ok_or_else(|| VcsError::UnknownRef("HEAD".into()))?;
        self.branches.insert(branch, id);
        Ok(id)
    }

    /// The best common ancestor of two commits (first found by BFS depth;
    /// deterministic because parents are visited in order).
    pub fn merge_base(&self, a: ObjectId, b: ObjectId) -> Result<Option<ObjectId>, VcsError> {
        let ancestors_a = self.ancestors(a)?;
        // BFS from b; the first commit also reachable from a is the base.
        let mut queue = VecDeque::from([b]);
        let mut seen = HashSet::new();
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            if ancestors_a.contains(&id) {
                return Ok(Some(id));
            }
            for p in self.commit_info(id)?.parents {
                queue.push_back(p);
            }
        }
        Ok(None)
    }

    fn ancestors(&self, from: ObjectId) -> Result<HashSet<ObjectId>, VcsError> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([from]);
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            for p in self.commit_info(id)?.parents {
                queue.push_back(p);
            }
        }
        Ok(seen)
    }
}

/// A serializable snapshot of a repository's full state, used by the
/// CLI to persist history under `.popper/` between invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct RepoState {
    /// Raw object bytes (content-addressed; ids recomputed on import).
    pub objects: Vec<Vec<u8>>,
    /// Working tree files.
    pub worktree: Vec<(String, Vec<u8>)>,
    /// Index entries as (path, object hex).
    pub index: Vec<(String, String)>,
    /// Branches as (name, commit hex).
    pub branches: Vec<(String, String)>,
    /// Tags as (name, commit hex).
    pub tags: Vec<(String, String)>,
    /// Current branch.
    pub head: Option<String>,
    /// Logical clock.
    pub clock: u64,
}

impl Repository {
    /// Export the full repository state. Every logged object and unread
    /// file is read; an object whose bytes do not hash to its id is left
    /// out, and so is an unread file whose blob that is.
    pub fn export_state(&self) -> RepoState {
        let hex = |refs: &BTreeMap<String, ObjectId>| -> Vec<(String, String)> {
            refs.iter().map(|(name, id)| (name.clone(), id.to_hex())).collect()
        };
        RepoState {
            objects: self.objects.keys().filter_map(|id| self.raw(*id).ok()).map(<[u8]>::to_vec).collect(),
            worktree: self
                .worktree
                .keys()
                .filter_map(|p| Some((p.clone(), self.try_read_file(p).ok()??.to_vec())))
                .collect(),
            index: hex(&self.index),
            branches: hex(&self.branches),
            tags: hex(&self.tags),
            head: self.head.clone(),
            clock: self.clock,
        }
    }

    /// Rebuild a repository from exported state. Object ids are
    /// recomputed from content, so corruption is detected by reference
    /// resolution failing later rather than silently accepted.
    pub fn import_state(state: RepoState) -> Result<Repository, VcsError> {
        let mut repo = Repository { head: state.head, clock: state.clock, ..Default::default() };
        for bytes in state.objects {
            let id = ObjectId::for_bytes(&bytes);
            repo.objects.insert(id, Stored::Held(bytes));
        }
        for (path, contents) in state.worktree {
            repo.load_file(&path, contents, None);
        }
        let hex = |s: &str| ObjectId::from_hex(s).ok_or_else(|| VcsError::Corrupt(format!("bad id '{s}'")));
        for (path, id) in state.index {
            repo.index.insert(path, hex(&id)?);
        }
        for (name, id) in state.branches {
            repo.branches.insert(name, hex(&id)?);
        }
        for (name, id) in state.tags {
            repo.tags.insert(name, hex(&id)?);
        }
        Ok(repo)
    }
}

/// A logged serialization as it is on disk, unverified.
fn read_logged(log: &Option<Arc<Log>>, at: u64, len: u64) -> Result<Vec<u8>, String> {
    let log = log.as_ref().ok_or("a logged object without a log")?;
    log.read(at, len).map_err(|e| format!("read object at byte {at}: {e}"))
}

/// `prefix/name`, or `name` at the root.
fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}/{name}")
    }
}

/// Structural diff between two path->contents maps.
pub fn diff_snapshots(
    a: &BTreeMap<String, Vec<u8>>,
    b: &BTreeMap<String, Vec<u8>>,
) -> Vec<Change> {
    let mut out = Vec::new();
    for (path, contents) in b {
        match a.get(path) {
            None => out.push(Change::Added(path.clone())),
            Some(old) if old != contents => out.push(Change::Modified(path.clone())),
            _ => {}
        }
    }
    for path in a.keys() {
        if !b.contains_key(path) {
            out.push(Change::Removed(path.clone()));
        }
    }
    out.sort_by(|x, y| x.path().cmp(y.path()));
    out
}

fn validate_path(path: &str) -> Result<(), VcsError> {
    let bad = path.is_empty()
        || path.starts_with('/')
        || path.ends_with('/')
        || path.split('/').any(|seg| seg.is_empty() || seg == "." || seg == "..")
        || path.contains(['\0', '\n']);
    if bad {
        Err(VcsError::BadPath(path.to_string()))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_with_commit() -> (Repository, ObjectId) {
        let mut r = Repository::init();
        r.write_file("README.md", "# paper\n").unwrap();
        r.write_file("experiments/gassyfs/run.sh", "./run\n").unwrap();
        r.stage(".").unwrap();
        let c = r.commit("tester <t@t>", "initial").unwrap();
        (r, c)
    }

    #[test]
    fn commit_and_log() {
        let (mut r, c1) = repo_with_commit();
        r.write_file("paper/paper.tex", "\\documentclass{}").unwrap();
        r.stage(".").unwrap();
        let c2 = r.commit("tester <t@t>", "add paper").unwrap();
        let log = r.log(c2).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, c2);
        assert_eq!(log[1].0, c1);
        assert_eq!(log[0].1.message, "add paper");
        assert!(log[0].1.timestamp > log[1].1.timestamp);
    }

    #[test]
    fn empty_commit_rejected() {
        let mut r = Repository::init();
        assert_eq!(r.commit("a", "m"), Err(VcsError::NothingStaged));
    }

    #[test]
    fn write_files_batch_stages_all_or_nothing() {
        let (mut r, _) = repo_with_commit();
        r.write_files([
            ("results/a.csv".to_string(), b"x,y\n1,2\n".to_vec()),
            ("results/b.csv".to_string(), b"x,y\n3,4\n".to_vec()),
        ])
        .unwrap();
        let c = r.commit("tester <t@t>", "batch artifacts").unwrap();
        let snap = r.snapshot_of(c).unwrap();
        assert_eq!(snap["results/a.csv"], b"x,y\n1,2\n");
        assert_eq!(snap["results/b.csv"], b"x,y\n3,4\n");
        // One bad path poisons the whole batch: nothing lands.
        let before = r.object_count();
        let err = r.write_files([
            ("ok.txt".to_string(), b"fine".to_vec()),
            ("../escape".to_string(), b"nope".to_vec()),
        ]);
        assert!(err.is_err());
        assert!(r.read_file("ok.txt").is_none(), "partial batch must not land");
        assert_eq!(r.object_count(), before);
        // The equivalence with write_file + stage holds per entry.
        let mut a = Repository::init();
        a.write_files([("f.txt".to_string(), b"v".to_vec())]).unwrap();
        let mut b = Repository::init();
        b.write_file("f.txt", b"v".to_vec()).unwrap();
        b.stage("f.txt").unwrap();
        assert_eq!(
            a.commit("t", "m").is_ok(),
            b.commit("t", "m").is_ok()
        );
    }

    #[test]
    fn snapshot_round_trip() {
        let (r, c) = repo_with_commit();
        let snap = r.snapshot_of(c).unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["README.md"], b"# paper\n");
        assert_eq!(snap["experiments/gassyfs/run.sh"], b"./run\n");
    }

    #[test]
    fn resolve_accepts_unique_commit_prefix() {
        let (r, c) = repo_with_commit();
        let hex = c.to_hex();
        assert_eq!(r.resolve(&hex).unwrap(), c);
        assert_eq!(r.resolve(&hex[..10]).unwrap(), c);
        assert_eq!(r.resolve(&hex[..4]).unwrap(), c);
        assert!(r.resolve(&hex[..3]).is_err(), "prefixes shorter than 4 are rejected");
        assert!(r.resolve("zzzz").is_err());
    }

    #[test]
    fn file_at_reads_without_checkout() {
        let (mut r, c1) = repo_with_commit();
        r.write_file("experiments/gassyfs/run.sh", "./run --fast\n").unwrap();
        r.stage(".").unwrap();
        let c2 = r.commit("tester <t@t>", "tweak run").unwrap();
        assert_eq!(r.file_at(c1, "experiments/gassyfs/run.sh").unwrap().unwrap(), b"./run\n");
        assert_eq!(
            r.file_at(c2, "experiments/gassyfs/run.sh").unwrap().unwrap(),
            b"./run --fast\n"
        );
        assert_eq!(r.file_at(c1, "experiments/gassyfs/nope.sh").unwrap(), None);
        assert_eq!(r.file_at(c1, "experiments").unwrap(), None, "a directory is not a file");
        assert_eq!(r.file_at(c1, "nope/deep/path").unwrap(), None);
    }

    #[test]
    fn identical_snapshots_share_tree() {
        // Content addressing: committing identical content twice stores
        // no new tree/blob objects.
        let (mut r, c1) = repo_with_commit();
        let before = r.object_count();
        r.stage(".").unwrap();
        let c2 = r.commit("t", "no-op snapshot").unwrap();
        assert_eq!(r.commit_info(c1).unwrap().tree, r.commit_info(c2).unwrap().tree);
        // Only the new commit object was added.
        assert_eq!(r.object_count(), before + 1);
    }

    #[test]
    fn status_reports_worktree_changes() {
        let (mut r, _) = repo_with_commit();
        assert!(r.status().unwrap().is_empty());
        r.write_file("README.md", "# changed\n").unwrap();
        r.write_file("new.txt", "x").unwrap();
        r.remove_file("experiments/gassyfs/run.sh");
        let mut status = r.status().unwrap();
        status.sort_by(|a, b| a.path().cmp(b.path()));
        assert_eq!(
            status,
            vec![
                Change::Modified("README.md".into()),
                Change::Removed("experiments/gassyfs/run.sh".into()),
                Change::Added("new.txt".into()),
            ]
        );
    }

    #[test]
    fn branch_and_checkout_restores_snapshot() {
        let (mut r, _) = repo_with_commit();
        r.create_branch("feature").unwrap();
        r.write_file("README.md", "# feature work\n").unwrap();
        r.stage(".").unwrap();
        r.commit("t", "feature change").unwrap();
        r.checkout("main").unwrap();
        assert_eq!(r.read_file("README.md").unwrap(), b"# paper\n");
        r.checkout("feature").unwrap();
        assert_eq!(r.read_file("README.md").unwrap(), b"# feature work\n");
    }

    #[test]
    fn changes_between_commits() {
        let (mut r, c1) = repo_with_commit();
        r.write_file("README.md", "# v2\n").unwrap();
        r.remove_file("experiments/gassyfs/run.sh");
        r.unstage("experiments/gassyfs/run.sh");
        r.write_file("data.csv", "a,b\n").unwrap();
        r.stage(".").unwrap();
        let c2 = r.commit("t", "v2").unwrap();
        let changes = r.changes(c1, c2).unwrap();
        assert_eq!(
            changes,
            vec![
                Change::Modified("README.md".into()),
                Change::Added("data.csv".into()),
                Change::Removed("experiments/gassyfs/run.sh".into()),
            ]
        );
    }

    #[test]
    fn diff_file_output() {
        let (mut r, c1) = repo_with_commit();
        r.write_file("README.md", "# paper\nnew line\n").unwrap();
        let d = r.diff_file(c1, "README.md").unwrap();
        assert!(d.contains("+new line"));
        assert!(d.contains("--- a/README.md"));
    }

    #[test]
    fn merge_base_of_diverged_branches() {
        let (mut r, c1) = repo_with_commit();
        r.create_branch("b1").unwrap();
        r.write_file("one.txt", "1").unwrap();
        r.stage(".").unwrap();
        let cb1 = r.commit("t", "on b1").unwrap();
        r.checkout("main").unwrap();
        r.write_file("two.txt", "2").unwrap();
        r.stage(".").unwrap();
        let cmain = r.commit("t", "on main").unwrap();
        assert_eq!(r.merge_base(cb1, cmain).unwrap(), Some(c1));
        assert_eq!(r.merge_base(cb1, cb1).unwrap(), Some(cb1));
        assert_eq!(r.merge_base(c1, cmain).unwrap(), Some(c1));
    }

    #[test]
    fn resolve_refs() {
        let (mut r, c1) = repo_with_commit();
        r.tag("v1.0", None).unwrap();
        assert_eq!(r.resolve("main").unwrap(), c1);
        assert_eq!(r.resolve("v1.0").unwrap(), c1);
        assert_eq!(r.resolve(&c1.to_hex()).unwrap(), c1);
        assert!(matches!(r.resolve("nope"), Err(VcsError::UnknownRef(_))));
    }

    #[test]
    fn path_validation() {
        let mut r = Repository::init();
        for bad in ["", "/abs", "a//b", "a/../b", "trailing/", "nul\0byte", "nl\nbyte", "."] {
            assert!(r.write_file(bad, "x").is_err(), "should reject {bad:?}");
        }
        for good in ["a", "a/b/c", "with space/f.txt", "exp-1/vars.pml"] {
            assert!(r.write_file(good, "x").is_ok(), "should accept {good:?}");
        }
    }

    #[test]
    fn stage_unknown_path_fails() {
        let mut r = Repository::init();
        assert!(r.stage("missing").is_err());
    }

    #[test]
    fn staging_is_a_snapshot() {
        // Content staged, then modified in the worktree: the commit holds
        // the staged version.
        let mut r = Repository::init();
        r.write_file("f", "staged").unwrap();
        r.stage("f").unwrap();
        r.write_file("f", "modified-after-stage").unwrap();
        let c = r.commit("t", "m").unwrap();
        assert_eq!(r.snapshot_of(c).unwrap()["f"], b"staged");
    }

    fn changed(r: &Repository) -> Vec<&str> {
        r.changed_files().collect()
    }

    #[test]
    fn only_writes_with_different_bytes_mark_a_path_changed() {
        let (r, _) = repo_with_commit();
        let mut r = Repository::import_state(r.export_state()).unwrap();
        assert!(changed(&r).is_empty(), "an import starts clean");
        r.write_file("README.md", "# paper\n").unwrap();
        r.write_files([("experiments/gassyfs/run.sh".to_string(), b"./run\n".to_vec())]).unwrap();
        assert!(changed(&r).is_empty(), "identical bytes change nothing");
        r.write_file("README.md", "# v2\n").unwrap();
        r.write_files([("new.csv".to_string(), b"a\n".to_vec())]).unwrap();
        r.remove_file("experiments/gassyfs/run.sh");
        assert!(!r.remove_file("never-there"));
        assert_eq!(changed(&r), ["README.md", "experiments/gassyfs/run.sh", "new.csv"]);
    }

    #[test]
    fn checkout_marks_the_paths_that_differ_between_trees() {
        let (mut r, _) = repo_with_commit();
        r.create_branch("feature").unwrap();
        r.write_file("README.md", "# feature\n").unwrap();
        r.write_file("feature.txt", "f").unwrap();
        r.stage(".").unwrap();
        r.commit("t", "feature work").unwrap();
        let mut r = Repository::import_state(r.export_state()).unwrap();
        r.checkout("main").unwrap();
        assert_eq!(changed(&r), ["README.md", "feature.txt"]);
        assert_eq!(r.read_file("README.md").unwrap(), b"# paper\n");
        let snapshot = r.snapshot_of(r.head_commit().unwrap()).unwrap();
        let mut r = Repository::import_state(r.export_state()).unwrap();
        r.materialize(&snapshot).unwrap();
        assert!(changed(&r).is_empty(), "materializing the worktree's own snapshot changes nothing");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Commit/snapshot round trip for arbitrary small file sets.
            #[test]
            fn snapshot_round_trip_any(files in proptest::collection::btree_map(
                "[a-z]{1,6}(/[a-z]{1,6}){0,2}",
                proptest::collection::vec(any::<u8>(), 0..64),
                1..10,
            )) {
                // Filter out path-prefix conflicts (a file "a" and "a/b").
                let paths: Vec<&String> = files.keys().collect();
                let conflict = paths.iter().any(|p| {
                    paths.iter().any(|q| q.len() > p.len() && q.starts_with(*p) && q.as_bytes()[p.len()] == b'/')
                });
                prop_assume!(!conflict);
                let mut r = Repository::init();
                for (path, data) in &files {
                    r.write_file(path, data.clone()).unwrap();
                }
                r.stage(".").unwrap();
                let c = r.commit("p", "prop").unwrap();
                prop_assert_eq!(r.snapshot_of(c).unwrap(), files);
            }

            /// `changes` by blob id says what comparing the two whole
            /// snapshots says, either way round, a path that is a file on
            /// one side and a directory on the other included.
            #[test]
            fn changes_by_id_match_the_snapshot_diff(
                a in proptest::collection::btree_map("[a-c](/[a-c]){0,2}", proptest::collection::vec(0u8..3, 0..3), 1..8),
                b in proptest::collection::btree_map("[a-c](/[a-c]){0,2}", proptest::collection::vec(0u8..3, 0..3), 1..8),
            ) {
                let no_conflict = |files: &BTreeMap<String, Vec<u8>>| {
                    files.keys().all(|p| !files.keys().any(|q| q.len() > p.len() && q.starts_with(p.as_str()) && q.as_bytes()[p.len()] == b'/'))
                };
                prop_assume!(no_conflict(&a) && no_conflict(&b));
                let mut r = Repository::init();
                let mut commit = |files: &BTreeMap<String, Vec<u8>>| {
                    r.materialize(files).unwrap();
                    r.stage(".").unwrap();
                    r.commit("p", "prop").unwrap()
                };
                let (ca, cb) = (commit(&a), commit(&b));
                let (sa, sb) = (r.snapshot_of(ca).unwrap(), r.snapshot_of(cb).unwrap());
                prop_assert_eq!(r.changes(ca, cb).unwrap(), diff_snapshots(&sa, &sb));
                prop_assert_eq!(r.changes(cb, ca).unwrap(), diff_snapshots(&sb, &sa));
            }

            /// diff_snapshots is empty iff the snapshots are equal.
            #[test]
            fn diff_snapshots_iff_equal(
                a in proptest::collection::btree_map("[a-c]{1,2}", proptest::collection::vec(any::<u8>(), 0..4), 0..5),
                b in proptest::collection::btree_map("[a-c]{1,2}", proptest::collection::vec(any::<u8>(), 0..4), 0..5),
            ) {
                let changes = diff_snapshots(&a, &b);
                prop_assert_eq!(changes.is_empty(), a == b);
            }
        }
    }
}

#[cfg(test)]
mod state_tests {
    use super::*;

    #[test]
    fn export_import_round_trip() {
        let mut r = Repository::init();
        r.write_file("a.txt", "alpha").unwrap();
        r.write_file("dir/b.txt", "beta").unwrap();
        r.stage(".").unwrap();
        let c1 = r.commit("t", "first").unwrap();
        r.tag("v1", None).unwrap();
        r.create_branch("feature").unwrap();
        r.write_file("a.txt", "alpha2").unwrap();
        r.stage(".").unwrap();
        let c2 = r.commit("t", "second").unwrap();

        let state = r.export_state();
        let restored = Repository::import_state(state).unwrap();
        assert_eq!(restored.current_branch(), Some("feature"));
        assert_eq!(restored.head_commit(), Some(c2));
        assert_eq!(restored.resolve("v1").unwrap(), c1);
        assert_eq!(restored.read_file("a.txt").unwrap(), b"alpha2");
        assert_eq!(restored.log(c2).unwrap().len(), 2);
        assert_eq!(restored.snapshot_of(c1).unwrap()["dir/b.txt"], b"beta");
        // Further commits work (clock preserved: timestamps keep rising).
        let mut restored = restored;
        restored.write_file("c.txt", "gamma").unwrap();
        restored.stage(".").unwrap();
        let c3 = restored.commit("t", "third").unwrap();
        let log = restored.log(c3).unwrap();
        assert!(log[0].1.timestamp > log[1].1.timestamp);
    }

    /// The worktree bytes of `path` in an exported state.
    fn worktree_entry<'a>(state: &'a mut RepoState, path: &str) -> &'a mut Vec<u8> {
        &mut state.worktree.iter_mut().find(|(p, _)| p == path).expect("path in worktree").1
    }

    #[test]
    fn restaging_unchanged_files_adds_no_object_and_keeps_the_tree() {
        let mut r = Repository::init();
        r.write_file("a.txt", "alpha").unwrap();
        r.write_file("dir/b.txt", "beta").unwrap();
        r.stage(".").unwrap();
        let c1 = r.commit("t", "first").unwrap();
        let mut r = Repository::import_state(r.export_state()).unwrap();
        let before = r.object_count();
        r.stage(".").unwrap();
        r.stage("a.txt").unwrap();
        assert_eq!(r.object_count(), before, "no blob re-stored");
        let c2 = r.commit("t", "again").unwrap();
        assert_eq!(r.object_count(), before + 1, "only the commit object is new");
        assert_eq!(r.commit_info(c1).unwrap().tree, r.commit_info(c2).unwrap().tree);
    }

    #[test]
    fn a_same_length_edit_made_behind_the_repo_is_restaged() {
        // An edit to the loaded state itself (as a file edited on disk
        // between two commands): nothing marks the path changed, and
        // the length matches the staged blob, so only the bytes differ.
        let mut r = Repository::init();
        r.write_file("results.csv", "x,y\n1,2\n").unwrap();
        r.stage(".").unwrap();
        let c1 = r.commit("t", "first").unwrap();
        let mut state = r.export_state();
        *worktree_entry(&mut state, "results.csv") = b"x,y\n1,3\n".to_vec();
        let mut r = Repository::import_state(state).unwrap();
        r.stage(".").unwrap();
        let c2 = r.commit("t", "edit").unwrap();
        assert_ne!(r.commit_info(c1).unwrap().tree, r.commit_info(c2).unwrap().tree);
        assert_eq!(r.snapshot_of(c2).unwrap()["results.csv"], b"x,y\n1,3\n");
        assert_eq!(r.snapshot_of(c1).unwrap()["results.csv"], b"x,y\n1,2\n");
    }

    #[test]
    fn an_index_entry_without_its_object_is_hashed_again() {
        let mut r = Repository::init();
        r.write_file("a.txt", "alpha").unwrap();
        r.stage("a.txt").unwrap();
        let blob = r.put(&Object::Blob(b"alpha".to_vec()));
        let mut state = r.export_state();
        let before = state.objects.len();
        state.objects.retain(|bytes| ObjectId::for_bytes(bytes) != blob);
        assert_eq!(state.objects.len(), before - 1);
        let mut r = Repository::import_state(state).unwrap();
        assert!(matches!(r.get(blob), Err(VcsError::MissingObject(_))));
        r.stage(".").unwrap();
        let c = r.commit("t", "first").unwrap();
        assert_eq!(r.get(blob).unwrap(), Object::Blob(b"alpha".to_vec()));
        assert_eq!(r.snapshot_of(c).unwrap()["a.txt"], b"alpha");
    }

    #[test]
    fn a_staged_new_file_is_the_blob_put_stores_in_one_exact_copy() {
        let contents = b"{\"traceEvents\":[]}\n".repeat(1000);
        let mut put = Repository::init();
        let id = put.put(&Object::Blob(contents.clone()));
        let mut staged = Repository::init();
        staged.write_file("t.json", contents.clone()).unwrap();
        staged.stage("t.json").unwrap();
        let mut batch = Repository::init();
        batch.write_files([("t.json".to_string(), contents.clone())]).unwrap();
        let mut checked_out = batch.clone();
        checked_out.commit("t", "trace").unwrap();
        checked_out.create_branch("copy").unwrap();
        checked_out.checkout("copy").unwrap();
        for r in [&put, &staged, &batch, &checked_out] {
            assert_eq!(r.raw(id).unwrap(), Object::Blob(contents.clone()).serialize());
            let Stored::Held(bytes) = &r.objects[&id] else { panic!("a put blob is held") };
            assert_eq!(bytes.capacity(), bytes.len());
        }
        for r in [&staged, &batch, &checked_out] {
            assert_eq!(r.index["t.json"], id);
        }
    }

    #[test]
    fn a_file_read_at_load_is_clean_only_while_it_holds_its_staged_bytes() {
        let mut r = Repository::init();
        r.write_file("a.txt", "alpha").unwrap();
        r.stage("a.txt").unwrap();
        let staged = r.index["a.txt"];
        let mut r = Repository::import_state(r.export_state()).unwrap();
        assert_eq!(r.known_blob("a.txt"), None);
        assert_eq!(r.clean_blob("a.txt"), Some(staged));
        r.write_file("a.txt", "alphb").unwrap();
        assert_eq!(r.clean_blob("a.txt"), None);
        r.write_file("b.txt", "beta").unwrap();
        assert_eq!(r.clean_blob("b.txt"), None, "an unstaged file");
    }

    #[test]
    fn import_rejects_bad_ids() {
        let r = Repository::init();
        let mut state = r.export_state();
        state.branches.push(("bad".into(), "zz".into()));
        assert!(Repository::import_state(state).is_err());
    }
}
