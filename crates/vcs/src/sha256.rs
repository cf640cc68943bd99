//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Content addressing is the foundation of both the VCS and the dataset
//! store; a hash that differs across platforms or library versions would
//! silently break every stored reference, so we own the implementation
//! and pin it with the official test vectors.
//!
//! The block compression has two kernels. `compress_portable` runs
//! everywhere and is the reference; on x86_64 CPUs with the SHA
//! extensions, [`Sha256::new`] picks the SHA-NI kernel instead. Both
//! produce the same digests bit for bit, which the tests check.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block compression kernel: folds every 64-byte block of `blocks`
/// (whose length is a multiple of 64) into `state`, in order.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The fastest kernel this CPU supports.
fn kernel() -> Compress {
    #[cfg(target_arch = "x86_64")]
    if let Some(k) = shani::kernel() {
        return k;
    }
    compress_portable
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
    compress: Compress,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(kernel())
    }

    fn with_kernel(compress: Compress) -> Self {
        Sha256 { state: H0, buffer: [0u8; 64], buffered: 0, total_len: 0, compress }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            (self.compress)(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Every whole block goes to the kernel in one call, straight from
        // the caller's slice.
        let (blocks, rest) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            (self.compress)(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, 8-byte big-endian bit length. It fills
        // the last block, or spills into a second one when fewer than 9
        // bytes of the buffered block are free.
        let n = self.buffered;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        (self.compress)(&mut self.state, &tail[..len]);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Absorb everything `reader` yields, in fixed-size chunks, and
    /// return the number of bytes consumed. Large artifact files can be
    /// keyed without ever holding them fully in memory.
    pub fn update_from(&mut self, reader: &mut impl std::io::Read) -> std::io::Result<u64> {
        let mut buf = [0u8; 8192];
        let mut consumed = 0u64;
        loop {
            let n = reader.read(&mut buf)?;
            if n == 0 {
                return Ok(consumed);
            }
            self.update(&buf[..n]);
            consumed += n as u64;
        }
    }
}

/// The portable kernel: FIPS 180-4 §6.2.2 in plain integer arithmetic.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64), "kernel input must be whole blocks");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel (Intel SHA extensions, x86_64 only).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{Compress, K};
    use std::arch::x86_64::*;

    /// The SHA-NI kernel, if this CPU has the SHA extensions and SSE4.1.
    pub(super) fn kernel() -> Option<Compress> {
        if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            Some(compress_checked)
        } else {
            None
        }
    }

    /// Only ever handed out by [`kernel`], after the feature check.
    fn compress_checked(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `kernel` returns this function only when the running
        // CPU reports both `sha` and `sse4.1`, the features `compress` is
        // compiled for (`sse4.1` implies the SSSE3 and SSE2 it also uses).
        unsafe { compress(state, blocks) }
    }

    /// The SHA-NI kernel. Safe to call only where `sha` and `sse4.1` are
    /// known to be present, which [`kernel`] checks.
    #[target_feature(enable = "sha,sse4.1")]
    fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(64), "kernel input must be whole blocks");
        // Byte order swap of each 32-bit lane (the message is big-endian).
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let s = |i: usize| state[i] as i32;
        // The rounds instruction wants the state as ABEF and CDGH lanes.
        let dcba = _mm_set_epi32(s(3), s(2), s(1), s(0));
        let hgfe = _mm_set_epi32(s(7), s(6), s(5), s(4));
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        // Four rounds on `abef` and `cdgh`: `$w` holds the next four
        // schedule words and `$i` indexes the first of their constants.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                let k = _mm_set_epi32(K[$i + 3] as i32, K[$i + 2] as i32, K[$i + 1] as i32, K[$i] as i32);
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // Schedule words i..i+3 into `$w0` (which held i-16..i-13) from
        // the twelve after it, then run their four rounds.
        macro_rules! schedule_rounds4 {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
                $w0 = _mm_sha256msg2_epu32(t, $w3);
                rounds4!($w0, $i);
            }};
        }

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is exactly 64 bytes, so the four 16-byte
            // loads stay inside it; `loadu` has no alignment requirement.
            let [mut w0, mut w1, mut w2, mut w3] = unsafe {
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            }
            .map(|w| _mm_shuffle_epi8(w, bswap));
            rounds4!(w0, 0);
            rounds4!(w1, 4);
            rounds4!(w2, 8);
            rounds4!(w3, 12);
            schedule_rounds4!(w0, w1, w2, w3, 16);
            schedule_rounds4!(w1, w2, w3, w0, 20);
            schedule_rounds4!(w2, w3, w0, w1, 24);
            schedule_rounds4!(w3, w0, w1, w2, 28);
            schedule_rounds4!(w0, w1, w2, w3, 32);
            schedule_rounds4!(w1, w2, w3, w0, 36);
            schedule_rounds4!(w2, w3, w0, w1, 40);
            schedule_rounds4!(w3, w0, w1, w2, 44);
            schedule_rounds4!(w0, w1, w2, w3, 48);
            schedule_rounds4!(w1, w2, w3, w0, 52);
            schedule_rounds4!(w2, w3, w0, w1, 56);
            schedule_rounds4!(w3, w0, w1, w2, 60);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgef, 0) as u32,
            _mm_extract_epi32(hgef, 1) as u32,
            _mm_extract_epi32(hgef, 2) as u32,
            _mm_extract_epi32(hgef, 3) as u32,
        ];
    }
}

/// One-shot digest of `data`.
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Streaming digest of a reader: hashes in fixed-size chunks so the
/// input never has to be resident in memory at once.
pub fn digest_reader(reader: &mut impl std::io::Read) -> std::io::Result<[u8; DIGEST_LEN]> {
    let mut h = Sha256::new();
    h.update_from(reader)?;
    Ok(h.finalize())
}

/// Lowercase hex encoding of a byte slice.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Decode lowercase/uppercase hex; `None` on bad input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(data: &[u8]) -> String {
        to_hex(&digest(data))
    }

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn nist_empty() {
        assert_eq!(hex_digest(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn nist_abc() {
        assert_eq!(hex_digest(b"abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_eq!(
            hex_digest(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex_digest(&data), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }

    /// Digest `data` with one specific kernel, split into `update` calls
    /// at each of `cuts` (byte offsets, taken in order, clamped).
    fn digest_with(kernel: Compress, data: &[u8], cuts: &[usize]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_kernel(kernel);
        let mut at = 0;
        for &cut in cuts {
            let cut = cut.clamp(at, data.len());
            h.update(&data[at..cut]);
            at = cut;
        }
        h.update(&data[at..]);
        h.finalize()
    }

    /// The SHA-NI kernel, or `None` (with a note on stderr) on a CPU
    /// without it.
    fn shani_kernel() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = shani::kernel() {
            return Some(k);
        }
        eprintln!("SHA-NI leg skipped: this CPU has no SHA extensions");
        None
    }

    #[test]
    fn nist_vectors_on_each_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        let kernels = std::iter::once(("portable", compress_portable as Compress))
            .chain(shani_kernel().map(|k| ("sha-ni", k)));
        for (name, kernel) in kernels {
            for (data, want) in vectors {
                assert_eq!(to_hex(&digest_with(kernel, data, &[])), want, "{name}, {} bytes", data.len());
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = digest(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 7, 63, 64, 65, 127, 400] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn reader_digest_equals_oneshot() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let mut slice = &data[..];
        assert_eq!(digest_reader(&mut slice).unwrap(), digest(&data));
        assert_eq!(digest_reader(&mut std::io::empty()).unwrap(), digest(b""));
    }

    #[test]
    fn update_from_reports_bytes_consumed_and_composes() {
        let (a, b) = (vec![7u8; 10_000], vec![9u8; 3]);
        let mut h = Sha256::new();
        assert_eq!(h.update_from(&mut &a[..]).unwrap(), 10_000);
        assert_eq!(h.update_from(&mut &b[..]).unwrap(), 3);
        let whole: Vec<u8> = a.iter().chain(&b).copied().collect();
        assert_eq!(h.finalize(), digest(&whole));
    }

    #[test]
    fn hex_round_trip() {
        let d = digest(b"roundtrip");
        let h = to_hex(&d);
        assert_eq!(from_hex(&h).unwrap(), d.to_vec());
        assert_eq!(h.len(), 64);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(from_hex("abc").is_none()); // odd length
        assert!(from_hex("zz").is_none()); // bad digit
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn incremental_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
                let split = split.min(data.len());
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                prop_assert_eq!(h.finalize(), digest(&data));
            }

            #[test]
            fn kernels_agree(data in proptest::collection::vec(any::<u8>(), 0..4096),
                             cuts in proptest::collection::vec(0usize..4096, 0..4)) {
                let mut cuts = cuts;
                cuts.sort_unstable();
                let portable = digest_with(compress_portable, &data, &cuts);
                prop_assert_eq!(portable, digest_with(compress_portable, &data, &[]));
                if let Some(shani) = shani_kernel() {
                    prop_assert_eq!(digest_with(shani, &data, &cuts), portable);
                }
            }

            #[test]
            fn distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..128),
                                                b in proptest::collection::vec(any::<u8>(), 0..128)) {
                prop_assume!(a != b);
                prop_assert_ne!(digest(&a), digest(&b));
            }

            #[test]
            fn hex_round_trip_any(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                prop_assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
            }
        }
    }
}
