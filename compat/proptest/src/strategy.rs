//! Strategy trait and combinators: deterministic value generators.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// A generator of test values. Unlike real proptest there is no value
/// tree or shrinking; `generate` produces one value from the RNG.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> BoxedStrategy<O>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        O: 'static,
        F: Fn(Self::Value) -> O + 'static,
    {
        BoxedStrategy::from_fn(move |rng| f(self.generate(rng)))
    }

    /// Generate a value, then use it to pick a dependent strategy.
    fn prop_flat_map<S, F>(self, f: F) -> BoxedStrategy<S::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy + 'static,
        S::Value: 'static,
        F: Fn(Self::Value) -> S + 'static,
    {
        BoxedStrategy::from_fn(move |rng| f(self.generate(rng)).generate(rng))
    }

    /// Keep only values passing `pred` (bounded retries, then last value).
    fn prop_filter<F>(self, _whence: &'static str, pred: F) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(&Self::Value) -> bool + 'static,
    {
        BoxedStrategy::from_fn(move |rng| {
            for _ in 0..64 {
                let v = self.generate(rng);
                if pred(&v) {
                    return v;
                }
            }
            self.generate(rng)
        })
    }

    /// Build recursive structures: `self` is the leaf strategy, and `f`
    /// lifts an inner strategy into one that may nest it. `depth` bounds
    /// the nesting.
    fn prop_recursive<F, S>(self, depth: u32, _desired_size: u32, _branch: u32, f: F) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let deeper = f(current).boxed();
            // Bias toward leaves so generated sizes stay tame.
            current = union_weighted(vec![(2, leaf.clone()), (1, deeper)]);
        }
        current
    }

    /// Type-erase into a cloneable boxed strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy::from_fn(move |rng| self.generate(rng))
    }
}

/// A type-erased, cloneable strategy.
pub struct BoxedStrategy<T>(Arc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> BoxedStrategy<T> {
    pub(crate) fn from_fn(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        BoxedStrategy(Arc::new(f))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Uniform choice among strategies of the same value type (`prop_oneof!`).
pub fn union<T: 'static>(arms: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    BoxedStrategy::from_fn(move |rng| {
        let i = (0..arms.len()).generate(rng);
        arms[i].generate(rng)
    })
}

/// Weighted choice among strategies.
pub fn union_weighted<T: 'static>(arms: Vec<(u32, BoxedStrategy<T>)>) -> BoxedStrategy<T> {
    let total: u32 = arms.iter().map(|(w, _)| *w).sum();
    assert!(total > 0, "weighted union needs positive total weight");
    BoxedStrategy::from_fn(move |rng| {
        let mut pick = (0..total).generate(rng);
        for (w, s) in &arms {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!()
    })
}

/// A strategy producing exactly one (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Integers take the top bits of one draw (16- and 32-bit ones the top
/// 32, truncated).
macro_rules! arbitrary_from_bits {
    ($($t:ty: $shift:expr),+) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                (rng.next_u64() >> $shift) as $t
            }
        })+
    };
}
arbitrary_from_bits!(u8: 56, u16: 32, u32: 32, i32: 32, u64: 0, i64: 0, usize: 0);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}
/// Uniform in `[0, 1)` from the top 24 bits.
impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}
/// Uniform in `[0, 1)` from the top 53 bits.
impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Marker strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// The canonical strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range");
                    match u64::try_from(hi as i128 - lo as i128 + 1) {
                        Ok(span) => lo.wrapping_add(rng.below(span) as $t),
                        // The whole 64-bit domain: raw bits are uniform.
                        Err(_) => rng.next_u64() as $t,
                    }
                }
            }
        )+
    };
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),+) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    self.start + (self.end - self.start) * <$t>::arbitrary(rng)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range");
                    lo + (hi - lo) * <$t>::arbitrary(rng)
                }
            }
        )+
    };
}
float_range_strategy!(f32, f64);

/// String strategies are regex-subset patterns (see [`crate::string`]).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        crate::string::generate(self, rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+
    };
}
tuple_strategy!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// `Option<T>` from `Option<S>`-shaped building blocks.
pub fn option_of<S>(inner: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: 'static,
{
    BoxedStrategy::from_fn(move |rng| {
        if rng.coin(0.75) {
            Some(inner.generate(rng))
        } else {
            None
        }
    })
}
