//! Content-defined chunking with a gear rolling hash.
//!
//! A fixed pseudo-random gear table drives the classic FastCDC-style
//! boundary test: the hash is `h = (h << 1) + GEAR[byte]`, and a chunk
//! ends when `h & MASK == 0` (once the minimum size is reached) or at the
//! maximum size. Because the hash depends only on a sliding window of
//! recent bytes, editing a dataset moves boundaries only near the edit —
//! the property that makes dataset revisions cheap to store.

/// Default minimum chunk size (bytes).
pub const MIN_CHUNK: usize = 2 * 1024;
/// Default target (average) chunk size; must be a power of two.
pub const AVG_CHUNK: usize = 8 * 1024;
/// Default maximum chunk size.
pub const MAX_CHUNK: usize = 64 * 1024;

/// Chunking parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// No boundary before this many bytes.
    pub min: usize,
    /// Average chunk size; the boundary mask is `avg - 1`.
    pub avg: usize,
    /// Hard cut at this many bytes.
    pub max: usize,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        ChunkerConfig { min: MIN_CHUNK, avg: AVG_CHUNK, max: MAX_CHUNK }
    }
}

impl ChunkerConfig {
    /// Validate invariants: `0 < min <= avg <= max`, `avg` a power of two.
    pub fn validated(self) -> Result<Self, String> {
        if self.min == 0 || self.min > self.avg || self.avg > self.max {
            return Err(format!("invalid chunker config {self:?}"));
        }
        if !self.avg.is_power_of_two() {
            return Err("avg chunk size must be a power of two".into());
        }
        Ok(self)
    }
}

/// The fixed gear table (deterministic: derived from SplitMix64 with a
/// pinned seed so chunk boundaries are stable across builds).
fn gear_table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u64; 256];
        let mut state: u64 = 0x9e3779b97f4a7c15;
        for slot in t.iter_mut() {
            // SplitMix64 step.
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            *slot = z ^ (z >> 31);
        }
        t
    })
}

/// Split `data` into content-defined chunks. The concatenation of the
/// returned slices is exactly `data`; every chunk length is in
/// `[min, max]` except possibly the final chunk (which may be shorter
/// than `min`).
pub fn chunk<'a>(data: &'a [u8], cfg: &ChunkerConfig) -> Vec<&'a [u8]> {
    let cfg = cfg.validated().expect("valid chunker config");
    let gear = gear_table();
    let mask = (cfg.avg - 1) as u64;
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut h: u64 = 0;
    let mut i = 0usize;
    while i < data.len() {
        h = (h << 1).wrapping_add(gear[data[i] as usize]);
        let len = i - start + 1;
        let boundary = (len >= cfg.min && (h & mask) == 0) || len >= cfg.max;
        if boundary {
            chunks.push(&data[start..=i]);
            start = i + 1;
            h = 0;
        }
        i += 1;
    }
    if start < data.len() {
        chunks.push(&data[start..]);
    }
    chunks
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
    fn concatenation_is_identity() {
        let data = random_bytes(200_000, 1);
        let chunks = chunk(&data, &ChunkerConfig::default());
        let rebuilt: Vec<u8> = chunks.concat();
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        let data = random_bytes(300_000, 2);
        let cfg = ChunkerConfig::default();
        let chunks = chunk(&data, &cfg);
        assert!(chunks.len() > 10);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= cfg.max, "chunk {i} too large");
            if i + 1 != chunks.len() {
                assert!(c.len() >= cfg.min, "chunk {i} too small: {}", c.len());
            }
        }
    }

    #[test]
    fn average_size_near_target() {
        let data = random_bytes(2_000_000, 3);
        let cfg = ChunkerConfig::default();
        let chunks = chunk(&data, &cfg);
        let avg = data.len() / chunks.len();
        // Expected mean is avg + min (geometric after the min); accept a
        // generous band.
        assert!(avg > cfg.avg / 2 && avg < cfg.avg * 3, "avg {avg}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cfg = ChunkerConfig::default();
        assert!(chunk(&[], &cfg).is_empty());
        let tiny = vec![7u8; 10];
        let chunks = chunk(&tiny, &cfg);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], &tiny[..]);
    }

    #[test]
    fn deterministic() {
        let data = random_bytes(100_000, 4);
        let a = chunk(&data, &ChunkerConfig::default());
        let b = chunk(&data, &ChunkerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn local_edit_preserves_most_chunks() {
        // The content-defined property: changing one byte in the middle
        // changes only the chunks near the edit.
        let mut data = random_bytes(500_000, 5);
        let original: Vec<Vec<u8>> = chunk(&data, &ChunkerConfig::default()).iter().map(|c| c.to_vec()).collect();
        data[250_000] ^= 0xff;
        let edited: Vec<Vec<u8>> = chunk(&data, &ChunkerConfig::default()).iter().map(|c| c.to_vec()).collect();
        let orig_set: std::collections::HashSet<&[u8]> = original.iter().map(|c| c.as_slice()).collect();
        let shared = edited.iter().filter(|c| orig_set.contains(c.as_slice())).count();
        let ratio = shared as f64 / edited.len() as f64;
        assert!(ratio > 0.9, "only {ratio:.2} of chunks shared after one-byte edit");
    }

    #[test]
    fn prepend_shifts_only_leading_chunks() {
        // A fixed-size chunker would lose every boundary after a prepend;
        // CDC must keep most of them.
        let data = random_bytes(500_000, 6);
        let original: std::collections::HashSet<Vec<u8>> =
            chunk(&data, &ChunkerConfig::default()).iter().map(|c| c.to_vec()).collect();
        let mut shifted = vec![0xAAu8; 17];
        shifted.extend_from_slice(&data);
        let new_chunks = chunk(&shifted, &ChunkerConfig::default());
        let shared = new_chunks.iter().filter(|c| original.contains(**c)).count();
        let ratio = shared as f64 / new_chunks.len() as f64;
        assert!(ratio > 0.9, "only {ratio:.2} of chunks survived a prepend");
    }

    #[test]
    fn config_validation() {
        assert!(ChunkerConfig { min: 0, avg: 8, max: 16 }.validated().is_err());
        assert!(ChunkerConfig { min: 4, avg: 7, max: 16 }.validated().is_err()); // not pow2
        assert!(ChunkerConfig { min: 32, avg: 8, max: 16 }.validated().is_err());
        assert!(ChunkerConfig { min: 4, avg: 8, max: 4 }.validated().is_err());
        assert!(ChunkerConfig { min: 4, avg: 8, max: 16 }.validated().is_ok());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn identity_and_bounds(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
                let cfg = ChunkerConfig { min: 64, avg: 256, max: 1024 };
                let chunks = chunk(&data, &cfg);
                prop_assert_eq!(chunks.concat(), data.clone());
                for (i, c) in chunks.iter().enumerate() {
                    prop_assert!(c.len() <= cfg.max);
                    if i + 1 != chunks.len() {
                        prop_assert!(c.len() >= cfg.min);
                    }
                }
            }
        }
    }
}
