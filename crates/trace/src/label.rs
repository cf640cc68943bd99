//! Interned labels: the tracks and names of trace events.
//!
//! A recording holds hundreds of thousands of events but only a few
//! dozen distinct tracks and names. A [`TraceSink`](crate::TraceSink)
//! interns each track or name the first time it is recorded, and every
//! later event carries a shared handle to the same text: recording
//! allocates nothing per event once its labels exist, and the drain and
//! the exporters do their per-text work once per distinct label rather
//! than once per event.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A track or event name: a cheap shared handle to immutable text.
///
/// Equality, order and hash are those of the text, so two handles with
/// the same text are equal whether or not they share an allocation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

impl Label {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Label {
        Label(Arc::from(text))
    }
}

impl From<String> for Label {
    fn from(text: String) -> Label {
        Label(Arc::from(text))
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

/// The tracks `<prefix>0`, `<prefix>1`, …, each formatted the first time
/// it is asked for: a per-node or per-rank layer names an event's track
/// without a `format!` per event.
#[derive(Debug, Clone)]
pub struct NumberedTracks {
    prefix: &'static str,
    names: Vec<String>,
}

impl NumberedTracks {
    /// No tracks formatted yet.
    pub const fn new(prefix: &'static str) -> NumberedTracks {
        NumberedTracks { prefix, names: Vec::new() }
    }

    /// The track of number `n`.
    pub fn get(&mut self, n: usize) -> &str {
        while self.names.len() <= n {
            let next = format!("{}{}", self.prefix, self.names.len());
            self.names.push(next);
        }
        &self.names[n]
    }
}

/// A word-at-a-time multiplicative hasher (the rotate-xor-multiply step
/// of rustc's FxHash). Recording hashes the text of two labels per
/// event, and the exporters a label's text or a span id per event. These
/// are keys of the program's own recordings, not keys an outsider
/// picks, so SipHash's resistance to chosen keys buys nothing here.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Whole words, then a half word, then single bytes: the tail is
    /// never copied into a buffer first, which cut a ~15-byte label's
    /// lookup to about a third.
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*word)));
            bytes = rest;
        }
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A hash map on [`FxHasher`].
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A hash set on [`FxHasher`].
pub(crate) type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Distinct labels numbered in the order they were first interned.
#[derive(Default)]
pub(crate) struct Interner {
    labels: Vec<Label>,
    ids: FxMap<Label, u32>,
}

impl Interner {
    /// The number of `text`, interning it on first sight.
    pub(crate) fn id(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = u32::try_from(self.labels.len()).expect("fewer than 2^32 distinct labels");
        let label = Label::from(text);
        self.labels.push(label.clone());
        self.ids.insert(label, id);
        id
    }

    /// The shared handle of `text`.
    pub(crate) fn intern(&mut self, text: &str) -> Label {
        let id = self.id(text);
        self.labels[id as usize].clone()
    }

    /// Every label, indexed by its number.
    pub(crate) fn labels(&self) -> &[Label] {
        &self.labels
    }
}

/// The rank of each of `texts`, which are distinct, in sorted order.
pub(crate) fn ranks<T: Ord>(texts: &[T]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..texts.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| texts[a as usize].cmp(&texts[b as usize]));
    let mut rank = vec![0; texts.len()];
    for (r, &i) in (0..).zip(&order) {
        rank[i as usize] = r;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_one_handle_per_text() {
        let mut interner = Interner::default();
        let a = interner.intern("sim/net/node1");
        let b = interner.intern(&format!("sim/net/node{}", 1));
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(interner.id("other"), 1);
        assert_eq!(interner.labels().len(), 2);
    }

    #[test]
    fn equal_text_in_distinct_handles_is_equal() {
        let (a, b, c) = (Label::from("x"), Label::from("x".to_string()), Label::from("y"));
        assert!(!std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
        assert!(a < c);
        assert_eq!(a, "x");
    }

    #[test]
    fn numbered_tracks_format_each_number_once() {
        let mut tracks = NumberedTracks::new("mpi/rank");
        assert_eq!(tracks.get(2), "mpi/rank2");
        let first = tracks.get(0).as_ptr();
        assert_eq!(tracks.get(0).as_ptr(), first);
        assert_eq!(tracks.get(10), "mpi/rank10");
    }

    #[test]
    fn ranks_follow_text_order() {
        assert_eq!(ranks(&["b", "a", "c"]), [1, 0, 2]);
        assert_eq!(ranks::<&str>(&[]), Vec::<u32>::new());
    }
}
