//! The VFS metadata layer: inodes, directories, extents.
//!
//! File *contents* live in the page store ([`crate::gasnet`]); the VFS
//! tracks which pages belong to which inode. Operations mirror the
//! POSIX subset GassyFS exposes through FUSE: create, open-for-append,
//! read, truncate, unlink, mkdir, readdir, rename, stat.

use std::collections::BTreeMap;
use std::fmt;

/// Inode number.
pub type Ino = u64;

/// Page identifier within the page store.
pub type PageId = u64;

/// Errors from VFS operations (the errno analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component not found.
    NotFound(String),
    /// Path already exists.
    Exists(String),
    /// Operated on a directory where a file was expected (or vice versa).
    WrongType(String),
    /// Invalid path syntax.
    BadPath(String),
    /// The page store refused an allocation (out of aggregate memory).
    NoSpace,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "ENOENT: {p}"),
            FsError::Exists(p) => write!(f, "EEXIST: {p}"),
            FsError::WrongType(p) => write!(f, "EISDIR/ENOTDIR: {p}"),
            FsError::BadPath(p) => write!(f, "EINVAL: {p}"),
            FsError::NoSpace => write!(f, "ENOSPC"),
        }
    }
}

impl std::error::Error for FsError {}

/// What an inode is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A regular file: size in bytes plus its page extents in order.
    File {
        /// Logical size in bytes.
        size: u64,
        /// The file's pages, in offset order.
        pages: Vec<PageId>,
    },
    /// A directory: name → child inode.
    Dir {
        /// Directory entries.
        entries: BTreeMap<String, Ino>,
    },
}

/// File metadata returned by [`Vfs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Is this a directory?
    pub is_dir: bool,
    /// Number of pages backing the file.
    pub pages: usize,
}

/// The in-memory namespace.
#[derive(Debug, Clone)]
pub struct Vfs {
    nodes: BTreeMap<Ino, Node>,
    next_ino: Ino,
}

const ROOT: Ino = 1;

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// A namespace containing only `/`.
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(ROOT, Node::Dir { entries: BTreeMap::new() });
        Vfs { nodes, next_ino: 2 }
    }

    fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::BadPath(path.to_string()));
        }
        let parts: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        if parts.iter().any(|p| *p == "." || *p == "..") {
            return Err(FsError::BadPath(path.to_string()));
        }
        Ok(parts)
    }

    fn lookup(&self, path: &str) -> Result<Ino, FsError> {
        let mut cur = ROOT;
        for part in Self::split_path(path)? {
            match self.nodes.get(&cur) {
                Some(Node::Dir { entries }) => {
                    cur = *entries.get(part).ok_or_else(|| FsError::NotFound(path.to_string()))?;
                }
                _ => return Err(FsError::WrongType(path.to_string())),
            }
        }
        Ok(cur)
    }

    fn parent_of<'a>(&self, path: &'a str) -> Result<(Ino, &'a str), FsError> {
        let parts = Self::split_path(path)?;
        let (name, dirs) = parts.split_last().ok_or_else(|| FsError::BadPath(path.to_string()))?;
        let mut cur = ROOT;
        for part in dirs {
            match self.nodes.get(&cur) {
                Some(Node::Dir { entries }) => {
                    cur = *entries.get(*part).ok_or_else(|| FsError::NotFound(path.to_string()))?;
                }
                _ => return Err(FsError::WrongType(path.to_string())),
            }
        }
        match self.nodes.get(&cur) {
            Some(Node::Dir { .. }) => Ok((cur, name)),
            _ => Err(FsError::WrongType(path.to_string())),
        }
    }

    /// Create a directory. Parents must exist.
    pub fn mkdir(&mut self, path: &str) -> Result<Ino, FsError> {
        let (parent, name) = self.parent_of(path)?;
        let ino = self.next_ino;
        match self.nodes.get_mut(&parent) {
            Some(Node::Dir { entries }) => {
                if entries.contains_key(name) {
                    return Err(FsError::Exists(path.to_string()));
                }
                entries.insert(name.to_string(), ino);
            }
            _ => unreachable!("parent_of returns dirs"),
        }
        self.nodes.insert(ino, Node::Dir { entries: BTreeMap::new() });
        self.next_ino += 1;
        Ok(ino)
    }

    /// Create all missing directories along `path`.
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), FsError> {
        let parts = Self::split_path(path)?;
        let mut so_far = String::new();
        for part in parts {
            so_far.push('/');
            so_far.push_str(part);
            match self.mkdir(&so_far) {
                Ok(_) | Err(FsError::Exists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Create an empty regular file.
    pub fn create(&mut self, path: &str) -> Result<Ino, FsError> {
        let (parent, name) = self.parent_of(path)?;
        let ino = self.next_ino;
        match self.nodes.get_mut(&parent) {
            Some(Node::Dir { entries }) => {
                if entries.contains_key(name) {
                    return Err(FsError::Exists(path.to_string()));
                }
                entries.insert(name.to_string(), ino);
            }
            _ => unreachable!(),
        }
        self.nodes.insert(ino, Node::File { size: 0, pages: Vec::new() });
        self.next_ino += 1;
        Ok(ino)
    }

    /// Stat a path.
    pub fn stat(&self, path: &str) -> Result<Stat, FsError> {
        let ino = self.lookup(path)?;
        Ok(match &self.nodes[&ino] {
            Node::File { size, pages } => Stat { ino, size: *size, is_dir: false, pages: pages.len() },
            Node::Dir { .. } => Stat { ino, size: 0, is_dir: true, pages: 0 },
        })
    }

    /// Resolve a file's inode (error for directories).
    pub fn file_ino(&self, path: &str) -> Result<Ino, FsError> {
        let ino = self.lookup(path)?;
        match &self.nodes[&ino] {
            Node::File { .. } => Ok(ino),
            Node::Dir { .. } => Err(FsError::WrongType(path.to_string())),
        }
    }

    /// The pages of a file, in order.
    pub fn pages(&self, ino: Ino) -> &[PageId] {
        match &self.nodes[&ino] {
            Node::File { pages, .. } => pages,
            Node::Dir { .. } => &[],
        }
    }

    /// Append pages to a file and grow its size.
    pub fn append_pages(&mut self, ino: Ino, new_pages: &[PageId], bytes: u64) {
        match self.nodes.get_mut(&ino) {
            Some(Node::File { size, pages }) => {
                pages.extend_from_slice(new_pages);
                *size += bytes;
            }
            _ => panic!("append_pages on non-file inode"),
        }
    }

    /// Truncate a file to zero, returning the pages to free.
    pub fn truncate(&mut self, ino: Ino) -> Vec<PageId> {
        match self.nodes.get_mut(&ino) {
            Some(Node::File { size, pages }) => {
                *size = 0;
                std::mem::take(pages)
            }
            _ => panic!("truncate on non-file inode"),
        }
    }

    /// Remove a file; returns its pages for freeing.
    pub fn unlink(&mut self, path: &str) -> Result<Vec<PageId>, FsError> {
        let (parent, name) = self.parent_of(path)?;
        let ino = match self.nodes.get(&parent) {
            Some(Node::Dir { entries }) => {
                *entries.get(name).ok_or_else(|| FsError::NotFound(path.to_string()))?
            }
            _ => unreachable!(),
        };
        match self.nodes.get(&ino) {
            Some(Node::File { .. }) => {}
            _ => return Err(FsError::WrongType(path.to_string())),
        }
        if let Some(Node::Dir { entries }) = self.nodes.get_mut(&parent) {
            entries.remove(name);
        }
        match self.nodes.remove(&ino) {
            Some(Node::File { pages, .. }) => Ok(pages),
            _ => unreachable!(),
        }
    }

    /// Rename a file or directory (same-namespace move).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        let ino = self.lookup(from)?;
        let (to_parent, to_name) = self.parent_of(to)?;
        match self.nodes.get(&to_parent) {
            Some(Node::Dir { entries }) if entries.contains_key(to_name) => {
                return Err(FsError::Exists(to.to_string()))
            }
            _ => {}
        }
        let (from_parent, from_name) = self.parent_of(from)?;
        if let Some(Node::Dir { entries }) = self.nodes.get_mut(&from_parent) {
            entries.remove(from_name);
        }
        if let Some(Node::Dir { entries }) = self.nodes.get_mut(&to_parent) {
            entries.insert(to_name.to_string(), ino);
        }
        Ok(())
    }

    /// Directory listing (names only, sorted).
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let ino = self.lookup(path)?;
        match &self.nodes[&ino] {
            Node::Dir { entries } => Ok(entries.keys().cloned().collect()),
            Node::File { .. } => Err(FsError::WrongType(path.to_string())),
        }
    }

    /// Every file path in the namespace, with inode (depth-first,
    /// sorted) — used by checkpointing.
    pub fn walk_files(&self) -> Vec<(String, Ino)> {
        let mut out = Vec::new();
        self.walk(ROOT, String::new(), &mut out);
        out
    }

    fn walk(&self, dir: Ino, prefix: String, out: &mut Vec<(String, Ino)>) {
        if let Node::Dir { entries } = &self.nodes[&dir] {
            for (name, ino) in entries {
                let path = format!("{prefix}/{name}");
                match &self.nodes[ino] {
                    Node::File { .. } => out.push((path, *ino)),
                    Node::Dir { .. } => self.walk(*ino, path, out),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkdir_create_stat() {
        let mut v = Vfs::new();
        v.mkdir("/src").unwrap();
        v.create("/src/main.c").unwrap();
        let st = v.stat("/src/main.c").unwrap();
        assert!(!st.is_dir);
        assert_eq!(st.size, 0);
        assert!(v.stat("/src").unwrap().is_dir);
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut v = Vfs::new();
        v.mkdir_p("/a/b/c").unwrap();
        v.mkdir_p("/a/b/c").unwrap();
        v.mkdir_p("/a/b/d").unwrap();
        assert_eq!(v.readdir("/a/b").unwrap(), vec!["c", "d"]);
    }

    #[test]
    fn lookup_errors() {
        let mut v = Vfs::new();
        v.create("/f").unwrap();
        assert!(matches!(v.stat("/missing"), Err(FsError::NotFound(_))));
        assert!(matches!(v.stat("relative"), Err(FsError::BadPath(_))));
        assert!(matches!(v.stat("/a/../b"), Err(FsError::BadPath(_))));
        assert!(matches!(v.mkdir("/f/sub"), Err(FsError::WrongType(_))));
        assert!(matches!(v.create("/f"), Err(FsError::Exists(_))));
        assert!(matches!(v.file_ino("/"), Err(FsError::WrongType(_))));
    }

    #[test]
    fn pages_and_truncate() {
        let mut v = Vfs::new();
        let ino = v.create("/data").unwrap();
        v.append_pages(ino, &[10, 11, 12], 3 * 4096);
        assert_eq!(v.pages(ino), &[10, 11, 12]);
        assert_eq!(v.stat("/data").unwrap().size, 3 * 4096);
        let freed = v.truncate(ino);
        assert_eq!(freed, vec![10, 11, 12]);
        assert_eq!(v.stat("/data").unwrap().size, 0);
    }

    #[test]
    fn unlink_returns_pages() {
        let mut v = Vfs::new();
        let ino = v.create("/obj.o").unwrap();
        v.append_pages(ino, &[7], 100);
        let freed = v.unlink("/obj.o").unwrap();
        assert_eq!(freed, vec![7]);
        assert!(matches!(v.stat("/obj.o"), Err(FsError::NotFound(_))));
        // Unlinking a dir is a type error.
        v.mkdir("/d").unwrap();
        assert!(matches!(v.unlink("/d"), Err(FsError::WrongType(_))));
    }

    #[test]
    fn rename_moves_entries() {
        let mut v = Vfs::new();
        v.mkdir_p("/build").unwrap();
        let ino = v.create("/tmp_out").unwrap();
        v.append_pages(ino, &[1], 10);
        v.rename("/tmp_out", "/build/out").unwrap();
        assert!(matches!(v.stat("/tmp_out"), Err(FsError::NotFound(_))));
        assert_eq!(v.stat("/build/out").unwrap().size, 10);
        // Destination collision.
        v.create("/tmp2").unwrap();
        assert!(matches!(v.rename("/tmp2", "/build/out"), Err(FsError::Exists(_))));
    }

    #[test]
    fn walk_files_lists_all() {
        let mut v = Vfs::new();
        v.mkdir_p("/src/lib").unwrap();
        v.create("/src/main.c").unwrap();
        v.create("/src/lib/util.c").unwrap();
        v.create("/README").unwrap();
        let files: Vec<String> = v.walk_files().into_iter().map(|(p, _)| p).collect();
        assert_eq!(files, vec!["/README", "/src/lib/util.c", "/src/main.c"]);
    }
}
