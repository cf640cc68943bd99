//! A content-addressed, deduplicating chunk store.
//!
//! Blobs are split by the content-defined chunker and stored chunk by
//! chunk under their SHA-256. Putting a blob returns a [`Manifest`] — the
//! small "reference" artifact that lives inside the Popper repository
//! while the bytes stay in the store (or a remote it models).

use crate::chunker::{chunk, ChunkerConfig};
use popper_vcs::sha256;
use std::collections::HashMap;
use std::fmt;

/// Content address of one chunk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub [u8; 32]);

impl ChunkId {
    /// Hash `data` into its chunk id.
    pub fn of(data: &[u8]) -> ChunkId {
        ChunkId(sha256::digest(data))
    }

    /// Full hex form.
    pub fn to_hex(self) -> String {
        sha256::to_hex(&self.0)
    }

    /// Parse a 64-char hex string.
    pub fn from_hex(s: &str) -> Option<ChunkId> {
        let v = sha256::from_hex(s)?;
        Some(ChunkId(v.try_into().ok()?))
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkId({})", &self.to_hex()[..10])
    }
}

/// The recipe for reassembling one blob from chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Chunk ids with their lengths, in order.
    pub chunks: Vec<(ChunkId, u32)>,
    /// Total blob length.
    pub total_len: u64,
    /// SHA-256 of the whole blob — the identifier a Popper repository
    /// references the dataset by.
    pub blob_hash: [u8; 32],
}

impl Manifest {
    /// Hex of the whole-blob hash.
    pub fn blob_hex(&self) -> String {
        sha256::to_hex(&self.blob_hash)
    }

    /// Serialize to a small text descriptor (one line per chunk).
    pub fn to_text(&self) -> String {
        let mut out = format!("manifest v1\nblob {} {}\n", self.blob_hex(), self.total_len);
        for (id, len) in &self.chunks {
            out.push_str(&format!("chunk {} {len}\n", id.to_hex()));
        }
        out
    }

    /// Parse the text descriptor.
    pub fn from_text(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines();
        if lines.next() != Some("manifest v1") {
            return Err("bad manifest magic".into());
        }
        let blob_line = lines.next().ok_or("missing blob line")?;
        let mut parts = blob_line.split(' ');
        if parts.next() != Some("blob") {
            return Err("missing blob header".into());
        }
        let blob_hash: [u8; 32] = sha256::from_hex(parts.next().ok_or("missing blob hash")?)
            .ok_or("bad blob hash")?
            .try_into()
            .map_err(|_| "bad blob hash length")?;
        let total_len: u64 = parts.next().ok_or("missing length")?.parse().map_err(|_| "bad length")?;
        let mut chunks = Vec::new();
        for line in lines {
            let mut parts = line.split(' ');
            if parts.next() != Some("chunk") {
                return Err(format!("bad chunk line '{line}'"));
            }
            let id = ChunkId::from_hex(parts.next().ok_or("missing chunk id")?).ok_or("bad chunk id")?;
            let len: u32 = parts.next().ok_or("missing chunk len")?.parse().map_err(|_| "bad chunk len")?;
            chunks.push((id, len));
        }
        let sum: u64 = chunks.iter().map(|(_, l)| *l as u64).sum();
        if sum != total_len {
            return Err(format!("chunk lengths sum to {sum}, manifest says {total_len}"));
        }
        Ok(Manifest { chunks, total_len, blob_hash })
    }
}

/// Store statistics, for dedup reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Unique chunks held.
    pub unique_chunks: usize,
    /// Bytes held (after dedup).
    pub stored_bytes: u64,
    /// Bytes ingested (before dedup).
    pub ingested_bytes: u64,
}

impl StoreStats {
    /// `ingested / stored`; 1.0 means no dedup.
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.ingested_bytes as f64 / self.stored_bytes as f64
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chunk(s), {} B stored / {} B ingested (dedup {:.2}x)",
            self.unique_chunks,
            self.stored_bytes,
            self.ingested_bytes,
            self.dedup_ratio()
        )
    }
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A chunk named by a manifest is not present.
    MissingChunk(String),
    /// Reassembled bytes did not hash to the manifest's blob hash.
    IntegrityFailure { expected: String, actual: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::MissingChunk(id) => write!(f, "missing chunk {id}"),
            StoreError::IntegrityFailure { expected, actual } => {
                write!(f, "integrity failure: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// The deduplicating chunk store.
#[derive(Debug, Clone, Default)]
pub struct ChunkStore {
    chunks: HashMap<ChunkId, Box<[u8]>>,
    config: ChunkerConfig,
    ingested: u64,
}

impl ChunkStore {
    /// A store with default chunking parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store with custom chunking parameters.
    #[cfg(test)]
    fn with_config(config: ChunkerConfig) -> Result<Self, String> {
        Ok(ChunkStore { chunks: HashMap::new(), config: config.validated()?, ingested: 0 })
    }

    /// Ingest a blob; returns its manifest. Chunks already present are
    /// not stored again.
    pub fn put(&mut self, data: &[u8]) -> Manifest {
        let tracer = popper_trace::current();
        let _span = tracer.span("store", "store/chunks", format!("put {}B", data.len()));
        self.ingested += data.len() as u64;
        // One pass over the pieces feeds both the per-chunk ids and the
        // whole-blob incremental hash — the blob is never re-walked.
        let mut blob_hasher = sha256::Sha256::new();
        let mut chunks = Vec::new();
        for piece in chunk(data, &self.config) {
            blob_hasher.update(piece);
            let id = ChunkId::of(piece);
            self.chunks.entry(id).or_insert_with(|| piece.into());
            chunks.push((id, piece.len() as u32));
        }
        Manifest { chunks, total_len: data.len() as u64, blob_hash: blob_hasher.finalize() }
    }

    /// Ingest a batch of blobs in one call; returns their manifests in
    /// order. A caller multiplexing many producers over one shared
    /// store (the CI farm) amortizes its lock acquisition over the
    /// whole batch instead of serializing on the object layer blob by
    /// blob.
    pub fn put_batch<'a>(&mut self, blobs: impl IntoIterator<Item = &'a [u8]>) -> Vec<Manifest> {
        blobs.into_iter().map(|b| self.put(b)).collect()
    }

    /// Reassemble a blob from its manifest, verifying whole-blob
    /// integrity.
    pub fn get(&self, manifest: &Manifest) -> Result<Vec<u8>, StoreError> {
        let tracer = popper_trace::current();
        let _span = tracer.span(
            "store",
            "store/chunks",
            format!("get {} chunk(s), {}B", manifest.chunks.len(), manifest.total_len),
        );
        let mut out = Vec::with_capacity(manifest.total_len as usize);
        let mut blob_hasher = sha256::Sha256::new();
        for (id, _len) in &manifest.chunks {
            let piece = self
                .chunks
                .get(id)
                .ok_or_else(|| StoreError::MissingChunk(id.to_hex()))?;
            blob_hasher.update(piece);
            out.extend_from_slice(piece);
        }
        let actual = blob_hasher.finalize();
        if actual != manifest.blob_hash {
            return Err(StoreError::IntegrityFailure {
                expected: sha256::to_hex(&manifest.blob_hash),
                actual: sha256::to_hex(&actual),
            });
        }
        Ok(out)
    }

    /// Does the store hold every chunk of `manifest`?
    #[cfg(test)]
    fn has_all(&self, manifest: &Manifest) -> bool {
        manifest.chunks.iter().all(|(id, _)| self.chunks.contains_key(id))
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            unique_chunks: self.chunks.len(),
            stored_bytes: self.chunks.values().map(|c| c.len() as u64).sum(),
            ingested_bytes: self.ingested,
        }
    }

    /// Drop a chunk (corruption injection for tests).
    #[cfg(test)]
    fn corrupt_drop(&mut self, id: ChunkId) -> bool {
        self.chunks.remove(&id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::rng::Rng;

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| (rng.next_u64() >> 56) as u8).collect()
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = ChunkStore::new();
        let data = random_bytes(200_000, 1);
        let m = s.put(&data);
        assert_eq!(s.get(&m).unwrap(), data);
        assert_eq!(m.total_len, data.len() as u64);
    }

    #[test]
    fn single_pass_blob_hash_matches_oneshot() {
        let mut s = ChunkStore::new();
        let data = random_bytes(150_000, 11);
        let m = s.put(&data);
        assert_eq!(m.blob_hash, sha256::digest(&data));
    }

    #[test]
    fn empty_blob() {
        let mut s = ChunkStore::new();
        let m = s.put(&[]);
        assert_eq!(m.chunks.len(), 0);
        assert_eq!(s.get(&m).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn identical_blobs_fully_dedup() {
        let mut s = ChunkStore::new();
        let data = random_bytes(100_000, 2);
        let m1 = s.put(&data);
        let before = s.stats();
        let m2 = s.put(&data);
        let after = s.stats();
        assert_eq!(m1, m2);
        assert_eq!(before.unique_chunks, after.unique_chunks);
        assert_eq!(before.stored_bytes, after.stored_bytes);
        assert!(after.dedup_ratio() > 1.9);
    }

    #[test]
    fn similar_blobs_mostly_dedup() {
        let mut s = ChunkStore::new();
        let mut data = random_bytes(500_000, 3);
        s.put(&data);
        let stored_v1 = s.stats().stored_bytes;
        data[100] ^= 1; // one-byte revision
        s.put(&data);
        let growth = s.stats().stored_bytes - stored_v1;
        assert!(
            growth < 200_000,
            "one-byte edit should add few chunks, added {growth} bytes"
        );
    }

    #[test]
    fn put_batch_matches_sequential_puts_and_dedups() {
        let a = random_bytes(80_000, 21);
        let b = random_bytes(80_000, 22);
        let mut seq = ChunkStore::new();
        let expected = vec![seq.put(&a), seq.put(&b), seq.put(&a)];
        let mut batched = ChunkStore::new();
        let got = batched.put_batch([a.as_slice(), b.as_slice(), a.as_slice()]);
        assert_eq!(got, expected);
        assert_eq!(batched.stats(), seq.stats());
        assert!(batched.stats().dedup_ratio() > 1.4, "{}", batched.stats());
        // Display renders the dedup summary the CLI prints.
        let line = batched.stats().to_string();
        assert!(line.contains("dedup"), "{line}");
        assert!(line.contains("chunk(s)"), "{line}");
    }

    #[test]
    fn missing_chunk_detected() {
        let mut s = ChunkStore::new();
        let data = random_bytes(100_000, 4);
        let m = s.put(&data);
        assert!(s.has_all(&m));
        assert!(s.corrupt_drop(m.chunks[0].0));
        assert!(!s.has_all(&m));
        assert!(matches!(s.get(&m), Err(StoreError::MissingChunk(_))));
    }

    #[test]
    fn integrity_failure_detected() {
        let mut s = ChunkStore::new();
        let data = random_bytes(50_000, 5);
        let mut m = s.put(&data);
        // Tamper with the manifest's blob hash.
        m.blob_hash[0] ^= 0xff;
        assert!(matches!(s.get(&m), Err(StoreError::IntegrityFailure { .. })));
    }

    #[test]
    fn manifest_text_round_trip() {
        let mut s = ChunkStore::new();
        let data = random_bytes(123_456, 6);
        let m = s.put(&data);
        let text = m.to_text();
        assert_eq!(Manifest::from_text(&text).unwrap(), m);
    }

    #[test]
    fn manifest_text_rejects_corruption() {
        let mut s = ChunkStore::new();
        let m = s.put(&random_bytes(10_000, 7));
        let text = m.to_text();
        assert!(Manifest::from_text(&text.replace("manifest v1", "manifest v9")).is_err());
        // Drop one chunk line: length check fires.
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.len() > 3 {
            lines.remove(3);
            assert!(Manifest::from_text(&lines.join("\n")).is_err());
        }
        assert!(Manifest::from_text("").is_err());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn round_trip_any(data in proptest::collection::vec(any::<u8>(), 0..30_000)) {
                let mut s = ChunkStore::with_config(
                    crate::chunker::ChunkerConfig { min: 64, avg: 256, max: 1024 }
                ).unwrap();
                let m = s.put(&data);
                prop_assert_eq!(s.get(&m).unwrap(), data);
                let text = m.to_text();
                prop_assert_eq!(Manifest::from_text(&text).unwrap(), m);
            }
        }
    }
}

impl ChunkStore {
    /// Garbage-collect chunks not referenced by any of `live` manifests.
    /// Returns `(chunks dropped, bytes reclaimed)`.
    pub fn gc(&mut self, live: &[&Manifest]) -> (usize, u64) {
        let keep: std::collections::HashSet<ChunkId> =
            live.iter().flat_map(|m| m.chunks.iter().map(|(id, _)| *id)).collect();
        let before = self.chunks.len();
        let mut reclaimed = 0u64;
        self.chunks.retain(|id, data| {
            if keep.contains(id) {
                true
            } else {
                reclaimed += data.len() as u64;
                false
            }
        });
        (before - self.chunks.len(), reclaimed)
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;

    #[test]
    fn gc_keeps_live_chunks_only() {
        let mut s = ChunkStore::new();
        let keep_data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let drop_data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
        let keep = s.put(&keep_data);
        let dropme = s.put(&drop_data);
        let (dropped, reclaimed) = s.gc(&[&keep]);
        assert!(dropped > 0);
        assert!(reclaimed > 0);
        assert_eq!(s.get(&keep).unwrap(), keep_data);
        assert!(s.get(&dropme).is_err());
        // GC with everything live is a no-op.
        assert_eq!(s.gc(&[&keep]), (0, 0));
    }

    #[test]
    fn gc_respects_shared_chunks() {
        let mut s = ChunkStore::new();
        let mut a_data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let _a = s.put(&a_data);
        a_data[100] ^= 1;
        let b = s.put(&a_data); // shares most chunks with a
        let (_, _) = s.gc(&[&b]);
        // b must still fully reassemble even though a was collected.
        assert_eq!(s.get(&b).unwrap(), a_data);
    }
}
