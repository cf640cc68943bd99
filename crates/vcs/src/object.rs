//! The object model: blobs, trees and commits.
//!
//! Like git, every object has a canonical byte serialization prefixed
//! with a type header, and its [`ObjectId`] is the SHA-256 of those
//! bytes. Identical content therefore always has an identical ID — the
//! "immutable piece of information" property Popper requires of every
//! asset.

use crate::sha256;
use std::fmt;

/// A 32-byte content address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub [u8; 32]);

impl ObjectId {
    /// The ID of the given canonical bytes.
    pub fn for_bytes(bytes: &[u8]) -> ObjectId {
        ObjectId(sha256::digest(bytes))
    }

    /// Full lowercase hex.
    pub fn to_hex(self) -> String {
        sha256::to_hex(&self.0)
    }

    /// Abbreviated hex (first 10 chars), for logs.
    pub fn short(self) -> String {
        self.to_hex()[..10].to_string()
    }

    /// Parse a 64-char hex string.
    pub fn from_hex(s: &str) -> Option<ObjectId> {
        let bytes = sha256::from_hex(s)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(ObjectId(arr))
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({})", self.short())
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// One entry of a tree: a named child that is either a blob or a subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeEntry {
    /// Entry name (one path segment; no `/`).
    pub name: String,
    /// Child object.
    pub id: ObjectId,
    /// True if the child is a subtree, false for a blob.
    pub is_tree: bool,
}

/// Commit metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// Root tree of the committed snapshot.
    pub tree: ObjectId,
    /// Parent commits (0 for the root commit, 2+ for merges).
    pub parents: Vec<ObjectId>,
    /// Author string, `Name <email>` by convention.
    pub author: String,
    /// Commit message.
    pub message: String,
    /// Logical timestamp (seconds); the caller supplies it so that
    /// histories are deterministic in tests and simulations.
    pub timestamp: u64,
}

/// A decoded object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Object {
    /// Raw file contents.
    Blob(Vec<u8>),
    /// A directory: entries sorted by name.
    Tree(Vec<TreeEntry>),
    /// A commit.
    Commit(Commit),
}

impl Object {
    /// Canonical serialization. The format is length-prefixed and
    /// unambiguous:
    ///
    /// ```text
    /// blob <len>\0<bytes>
    /// tree <len>\0(<kind> <hex> <name-len> <name>\n)*
    /// commit <len>\0tree <hex>\n(parent <hex>\n)*author <..>\nts <..>\n\n<message>
    /// ```
    pub fn serialize(&self) -> Vec<u8> {
        let body = self.body_bytes();
        let mut out = Vec::with_capacity(HEADER_MAX + body.len());
        write_header(&mut out, self.type_name(), body.len()).expect("writing to a Vec cannot fail");
        out.extend_from_slice(&body);
        out
    }

    /// Is `stored` the serialization of the blob holding exactly
    /// `contents`? A length check and a byte compare: nothing is copied,
    /// serialized or hashed.
    pub fn is_blob_of(stored: &[u8], contents: &[u8]) -> bool {
        let mut header = [0u8; HEADER_MAX];
        let mut rest = &mut header[..];
        write_header(&mut rest, "blob", contents.len()).expect("a blob header fits HEADER_MAX");
        let header_len = HEADER_MAX - rest.len();
        stored.len() == header_len + contents.len()
            && stored[..header_len] == header[..header_len]
            && stored[header_len..] == *contents
    }

    /// The length of the blob serialization holding `len` bytes.
    pub(crate) fn blob_len(len: usize) -> usize {
        "blob \0".len() + len.to_string().len() + len
    }

    fn body_bytes(&self) -> Vec<u8> {
        match self {
            Object::Blob(data) => data.clone(),
            Object::Tree(entries) => {
                debug_assert!(
                    entries.windows(2).all(|w| w[0].name < w[1].name),
                    "tree entries must be sorted and unique"
                );
                let mut out = Vec::new();
                for e in entries {
                    let kind = if e.is_tree { "tree" } else { "blob" };
                    out.extend_from_slice(
                        format!("{kind} {} {} {}\n", e.id.to_hex(), e.name.len(), e.name).as_bytes(),
                    );
                }
                out
            }
            Object::Commit(c) => {
                let mut out = String::new();
                out.push_str(&format!("tree {}\n", c.tree.to_hex()));
                for p in &c.parents {
                    out.push_str(&format!("parent {}\n", p.to_hex()));
                }
                out.push_str(&format!("author {}\n", c.author));
                out.push_str(&format!("ts {}\n", c.timestamp));
                out.push('\n');
                out.push_str(&c.message);
                out.into_bytes()
            }
        }
    }

    /// Decode a canonical serialization.
    pub fn deserialize(bytes: &[u8]) -> Result<Object, String> {
        let nul = bytes.iter().position(|&b| b == 0).ok_or("missing header terminator")?;
        let header = std::str::from_utf8(&bytes[..nul]).map_err(|_| "bad header encoding")?;
        let (ty, len_s) = header.split_once(' ').ok_or("bad header")?;
        let len: usize = len_s.parse().map_err(|_| "bad length")?;
        let body = &bytes[nul + 1..];
        if body.len() != len {
            return Err(format!("length mismatch: header {len}, body {}", body.len()));
        }
        match ty {
            "blob" => Ok(Object::Blob(body.to_vec())),
            "tree" => {
                let text = std::str::from_utf8(body).map_err(|_| "bad tree encoding")?;
                let mut entries = Vec::new();
                for line in text.lines() {
                    let mut parts = line.splitn(4, ' ');
                    let kind = parts.next().ok_or("bad tree entry")?;
                    let hex = parts.next().ok_or("bad tree entry")?;
                    let _name_len = parts.next().ok_or("bad tree entry")?;
                    let name = parts.next().ok_or("bad tree entry")?;
                    entries.push(TreeEntry {
                        name: name.to_string(),
                        id: ObjectId::from_hex(hex).ok_or("bad tree entry id")?,
                        is_tree: kind == "tree",
                    });
                }
                Ok(Object::Tree(entries))
            }
            "commit" => {
                let text = std::str::from_utf8(body).map_err(|_| "bad commit encoding")?;
                let (headers, message) = text.split_once("\n\n").ok_or("commit missing message separator")?;
                let mut tree = None;
                let mut parents = Vec::new();
                let mut author = String::new();
                let mut timestamp = 0u64;
                for line in headers.lines() {
                    let (k, v) = line.split_once(' ').ok_or("bad commit header line")?;
                    match k {
                        "tree" => tree = Some(ObjectId::from_hex(v).ok_or("bad tree id")?),
                        "parent" => parents.push(ObjectId::from_hex(v).ok_or("bad parent id")?),
                        "author" => author = v.to_string(),
                        "ts" => timestamp = v.parse().map_err(|_| "bad timestamp")?,
                        _ => return Err(format!("unknown commit header '{k}'")),
                    }
                }
                Ok(Object::Commit(Commit {
                    tree: tree.ok_or("commit missing tree")?,
                    parents,
                    author,
                    message: message.to_string(),
                    timestamp,
                }))
            }
            other => Err(format!("unknown object type '{other}'")),
        }
    }

    /// The object's content address.
    pub fn id(&self) -> ObjectId {
        ObjectId::for_bytes(&self.serialize())
    }

    /// Type name used in the serialization header.
    pub fn type_name(&self) -> &'static str {
        match self {
            Object::Blob(_) => "blob",
            Object::Tree(_) => "tree",
            Object::Commit(_) => "commit",
        }
    }
}

/// An upper bound on a serialization header: the longest type name, a
/// space, 20 digits of length and the NUL.
const HEADER_MAX: usize = 32;

/// Write the `<type> <len>\0` header that starts every serialization.
fn write_header(out: &mut impl std::io::Write, type_name: &str, len: usize) -> std::io::Result<()> {
    write!(out, "{type_name} {len}\0")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(s: &str) -> Object {
        Object::Blob(s.as_bytes().to_vec())
    }

    #[test]
    fn identical_content_identical_id() {
        assert_eq!(blob("hello").id(), blob("hello").id());
        assert_ne!(blob("hello").id(), blob("hello!").id());
    }

    #[test]
    fn blob_and_tree_with_same_bytes_differ() {
        // The type header prevents cross-type collisions.
        let b = Object::Blob(Vec::new());
        let t = Object::Tree(Vec::new());
        assert_ne!(b.id(), t.id());
    }

    #[test]
    fn blob_round_trip() {
        let b = Object::Blob(vec![0, 1, 2, 255, 0, 42]);
        let ser = b.serialize();
        assert_eq!(Object::deserialize(&ser).unwrap(), b);
    }

    #[test]
    fn a_blob_serialization_is_recognised_only_for_its_own_bytes() {
        let stored = blob("alpha").serialize();
        assert!(Object::is_blob_of(&stored, b"alpha"));
        assert!(!Object::is_blob_of(&stored, b"alphb"), "same length, other bytes");
        assert!(!Object::is_blob_of(&stored, b"alph"));
        assert!(!Object::is_blob_of(&stored, b"alpha!"));
        assert!(Object::is_blob_of(&blob("").serialize(), b""));
        assert!(!Object::is_blob_of(&Object::Tree(vec![]).serialize(), b""));
        let big = vec![7u8; 12_345];
        assert!(Object::is_blob_of(&Object::Blob(big.clone()).serialize(), &big));
        for len in [0, 9, 10, 12_345] {
            assert_eq!(Object::blob_len(len), Object::Blob(vec![1; len]).serialize().len());
        }
    }

    #[test]
    fn tree_round_trip() {
        let t = Object::Tree(vec![
            TreeEntry { name: "a.txt".into(), id: blob("a").id(), is_tree: false },
            TreeEntry { name: "dir".into(), id: Object::Tree(vec![]).id(), is_tree: true },
            TreeEntry { name: "name with spaces".into(), id: blob("s").id(), is_tree: false },
        ]);
        assert_eq!(Object::deserialize(&t.serialize()).unwrap(), t);
    }

    #[test]
    fn commit_round_trip() {
        let c = Object::Commit(Commit {
            tree: Object::Tree(vec![]).id(),
            parents: vec![blob("p1").id(), blob("p2").id()],
            author: "Ivo Jimenez <ivo@ucsc.edu>".into(),
            message: "Popperize torpor experiment\n\nWith a body.\n".into(),
            timestamp: 1_480_000_000,
        });
        assert_eq!(Object::deserialize(&c.serialize()).unwrap(), c);
    }

    #[test]
    fn commit_without_parents_round_trip() {
        let c = Object::Commit(Commit {
            tree: Object::Tree(vec![]).id(),
            parents: vec![],
            author: "a".into(),
            message: String::new(),
            timestamp: 0,
        });
        assert_eq!(Object::deserialize(&c.serialize()).unwrap(), c);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(Object::deserialize(b"").is_err());
        assert!(Object::deserialize(b"blob x\0").is_err());
        assert!(Object::deserialize(b"blob 5\0ab").is_err());
        assert!(Object::deserialize(b"mystery 0\0").is_err());
    }

    #[test]
    fn hex_ids_round_trip() {
        let id = blob("x").id();
        assert_eq!(ObjectId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(id.short().len(), 10);
        assert!(ObjectId::from_hex("abcd").is_none());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn blob_round_trip_any(data in proptest::collection::vec(any::<u8>(), 0..512)) {
                let b = Object::Blob(data);
                prop_assert_eq!(Object::deserialize(&b.serialize()).unwrap(), b);
            }

            #[test]
            fn tree_round_trip_any(names in proptest::collection::btree_set("[a-zA-Z0-9 ._-]{1,12}", 0..8)) {
                let entries: Vec<TreeEntry> = names
                    .into_iter()
                    .enumerate()
                    .map(|(i, name)| TreeEntry {
                        name,
                        id: Object::Blob(vec![i as u8]).id(),
                        is_tree: i % 2 == 0,
                    })
                    .collect();
                let t = Object::Tree(entries);
                prop_assert_eq!(Object::deserialize(&t.serialize()).unwrap(), t);
            }
        }
    }
}
