//! The workspace's one seeded generator.
//!
//! [`Rng`] is xoshiro256++ (Blackman and Vigna) seeded from a `u64`
//! through [`splitmix64`]. The seeded streams draw from it: gremlin
//! fault schedules, MPI noise phases, the compile-git plan, synthetic
//! jitter and reanalysis noise. It holds only what those callers use:
//! raw 64-bit draws, a unit `f64`, and integer and `f64` ranges built
//! on a bounded draw and that `f64`. A change to any stream shows in
//! the byte pins of the artifacts it feeds.

use crate::fault::splitmix64;
use std::ops::Range;

/// A seeded xoshiro256++ generator.
#[derive(Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: state word `k` is
    /// `splitmix64(seed + k·0x9E3779B97F4A7C15)`, so no seed leaves the
    /// all-zero state.
    pub fn new(seed: u64) -> Rng {
        let word = |k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        Rng { s: [word(0), word(1), word(2), word(3)] }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[0, bound)`, `bound > 0`, without modulo
    /// bias (Lemire's multiply-and-reject).
    fn below(&mut self, bound: u64) -> u64 {
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of one draw.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `range`; panics when it is empty.
    pub fn range<T: Uniform>(&mut self, range: Range<T>) -> T {
        T::draw(self, range)
    }
}

/// The types [`Rng::range`] draws.
pub trait Uniform: Sized {
    /// A uniform draw from the non-empty `range`.
    fn draw(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(rng: &mut Rng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "Rng::range: empty range");
                range.start + rng.below((range.end - range.start) as u64) as $t
            }
        }
    )*};
}
uniform_int!(u32, u64, usize);

impl Uniform for f64 {
    fn draw(rng: &mut Rng, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "Rng::range: empty range");
        range.start + (range.end - range.start) * rng.f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_42_draws_its_pinned_stream() {
        let mut rng = Rng::new(42);
        let raw: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(raw, [15021278609987233951, 5881210131331364753, 18149643915985481100]);
        assert_eq!(rng.range(0..10u64), 7);
        assert_eq!(rng.f64(), 0.793504489691729);
        assert_eq!(rng.range(-2.0..3.0), 0.940492332337798);
        assert_eq!(rng.range(5usize..8), 5);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(a.next_u64(), Rng::new(43).next_u64());
    }

    #[test]
    fn ranges_respect_their_bounds_and_hit_every_value() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            assert!((10..20).contains(&rng.range(10u64..20)));
            assert!((-2.0..3.0).contains(&rng.range(-2.0..3.0)));
            seen[rng.range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_are_uniformish() {
        let mut rng = Rng::new(7);
        let n = 10_000;
        let mean = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
