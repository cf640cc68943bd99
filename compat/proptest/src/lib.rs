//! Offline stand-in for the `proptest` crate surface this workspace uses.
//!
//! A strategy here is simply a deterministic generator over a seeded RNG
//! (`BoxedStrategy<T>` wraps `Arc<dyn Fn(&mut TestRng) -> T>`); the
//! `proptest!` macro runs each property over a fixed number of generated
//! cases and panics with the offending inputs on failure. There is no
//! shrinking — failing inputs are reported as generated — but the
//! generator set (ranges, regex-subset strings, collections, tuples,
//! `prop_oneof!`, `prop_map`, `prop_recursive`) matches what the test
//! suites need, and runs are reproducible: each property's seed is a
//! function of its module path and name, mixed with a base seed that is
//! fixed unless `PROPTEST_SEED` overrides it, and a falsified property
//! names the `PROPTEST_SEED` that replays it.

pub mod strategy;
pub mod string;

pub use strategy::{any, BoxedStrategy, Just, Strategy};

/// Collection strategies (`vec`, `btree_map`, `btree_set`).
pub mod collection {
    use crate::strategy::{BoxedStrategy, Strategy};
    use crate::test_runner::TestRng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;

    /// The size bounds of a generated collection.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            if self.hi - self.lo <= 1 {
                self.lo
            } else {
                (self.lo..self.hi).generate(rng)
            }
        }
    }

    /// A strategy for `Vec`s whose elements come from `element`.
    pub fn vec<S>(element: S, size: impl Into<SizeRange>) -> BoxedStrategy<Vec<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: 'static,
    {
        let size = size.into();
        BoxedStrategy::from_fn(move |rng| {
            let n = size.sample(rng);
            (0..n).map(|_| element.generate(rng)).collect()
        })
    }

    /// A strategy for `BTreeMap`s. The size bound is an upper bound:
    /// duplicate generated keys collapse, as in real proptest.
    pub fn btree_map<K, V>(
        keys: K,
        values: V,
        size: impl Into<SizeRange>,
    ) -> BoxedStrategy<BTreeMap<K::Value, V::Value>>
    where
        K: Strategy + 'static,
        V: Strategy + 'static,
        K::Value: Ord + 'static,
        V::Value: 'static,
    {
        let size = size.into();
        BoxedStrategy::from_fn(move |rng| {
            let n = size.sample(rng);
            (0..n).map(|_| (keys.generate(rng), values.generate(rng))).collect()
        })
    }

    /// A strategy for `BTreeSet`s (duplicates collapse).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BoxedStrategy<BTreeSet<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: Ord + 'static,
    {
        let size = size.into();
        BoxedStrategy::from_fn(move |rng| {
            let n = size.sample(rng);
            (0..n).map(|_| element.generate(rng)).collect()
        })
    }
}

/// The runner: case loop, rejection handling, error plumbing.
pub mod test_runner {
    use crate::strategy::Strategy;
    use std::fmt;

    /// Number of generated cases per property.
    pub const CASES: u32 = 64;

    /// The RNG driving generation. Deterministic per run.
    ///
    /// xoshiro256++ seeded and drawn exactly as the workspace's
    /// `popper_sim::rng::Rng`, a private copy because this crate may
    /// not depend on the workspace.
    pub struct TestRng {
        s: [u64; 4],
    }

    /// The base seed: `PROPTEST_SEED` if set to a number, else fixed.
    pub fn base_seed() -> u64 {
        std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5eed_cafe_f00d)
    }

    /// The salt of the property `name` in module `module`: the same in
    /// every run of every build.
    pub fn property_salt(module: &str, name: &str) -> u64 {
        // FNV-1a over "module::name".
        [module, "::", name]
            .iter()
            .flat_map(|part| part.bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    impl TestRng {
        /// A deterministically seeded RNG (override with `PROPTEST_SEED`).
        pub fn deterministic(salt: u64) -> Self {
            // State word k is splitmix64(seed + (k + 1)·γ).
            let seed = base_seed() ^ salt;
            let word = |k: u64| {
                let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            TestRng { s: [word(0), word(1), word(2), word(3)] }
        }

        /// The next 64 uniformly random bits.
        pub(crate) fn next_u64(&mut self) -> u64 {
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

        /// A uniform draw from `[0, bound)` without modulo bias (Lemire).
        pub(crate) fn below(&mut self, bound: u64) -> u64 {
            loop {
                let m = u128::from(self.next_u64()) * u128::from(bound);
                let lo = m as u64;
                if lo >= bound || lo >= bound.wrapping_neg() % bound {
                    return (m >> 64) as u64;
                }
            }
        }

        /// A coin that lands true with probability `p`.
        pub(crate) fn coin(&mut self, p: f64) -> bool {
            <f64 as crate::strategy::Arbitrary>::arbitrary(self) < p
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// Assumption failed; the case is skipped, not failed.
        Reject(String),
        /// Assertion failed; the property is falsified.
        Fail(String),
    }

    impl TestCaseError {
        /// An assertion failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A skipped case (failed `prop_assume!`).
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Reject(m) => write!(f, "case rejected: {m}"),
                TestCaseError::Fail(m) => write!(f, "case failed: {m}"),
            }
        }
    }

    /// A falsified property (the whole run failed).
    #[derive(Debug, Clone)]
    pub struct TestError(pub String);

    impl fmt::Display for TestError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Explicit runner for code that drives properties outside the
    /// `proptest!` macro.
    #[derive(Default)]
    pub struct TestRunner {
        _private: (),
    }

    impl TestRunner {
        /// Run `test` over generated values of `strategy`.
        pub fn run<S: Strategy>(
            &mut self,
            strategy: &S,
            test: impl Fn(S::Value) -> Result<(), TestCaseError>,
        ) -> Result<(), TestError> {
            let mut rng = TestRng::deterministic(0x9e3779b97f4a7c15);
            let mut accepted = 0u32;
            let mut attempts = 0u32;
            while accepted < CASES {
                attempts += 1;
                if attempts > CASES * 16 {
                    // Give up quietly like proptest's rejection cap.
                    return Ok(());
                }
                let value = strategy.generate(&mut rng);
                match test(value) {
                    Ok(()) => accepted += 1,
                    Err(TestCaseError::Reject(_)) => continue,
                    Err(TestCaseError::Fail(msg)) => return Err(TestError(msg)),
                }
            }
            Ok(())
        }
    }
}

/// Everything a test module pulls in with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Assert inside a property; failure falsifies the case, carrying the
/// formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Assert two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?} at {}:{}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r,
                file!(),
                line!()
            )));
        }
    }};
}

/// Assert two values differ inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?} at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            )));
        }
    }};
}

/// Skip cases violating a precondition (does not count as failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::union(vec![$($crate::strategy::Strategy::boxed($arm)),+])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                // Salt the RNG with the property's path so sibling
                // properties explore different streams, and every run
                // the same ones.
                let salt = $crate::test_runner::property_salt(module_path!(), stringify!($name));
                let mut rng = $crate::test_runner::TestRng::deterministic(salt);
                let mut accepted = 0u32;
                let mut attempts = 0u32;
                while accepted < $crate::test_runner::CASES {
                    attempts += 1;
                    if attempts > $crate::test_runner::CASES * 16 {
                        break; // rejection cap; treat as vacuous pass
                    }
                    $(let $arg = $crate::strategy::Strategy::generate(&{ $strat }, &mut rng);)+
                    let dbg = format!(concat!($(stringify!($arg), " = {:?}; "),+), $(&$arg),+);
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::test_runner::TestCaseError::Reject(_)) => continue,
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property '{}' falsified: {}\n  inputs: {}\n  replay: PROPTEST_SEED={}",
                                stringify!($name),
                                msg,
                                dbg,
                                $crate::test_runner::base_seed(),
                            );
                        }
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, f in -1.5f64..2.5, n in 1usize..=4) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-1.5..2.5).contains(&f));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn collections_and_tuples(v in crate::collection::vec((0u8..10, any::<bool>()), 0..6)) {
            prop_assert!(v.len() < 6);
            for (n, _) in &v {
                prop_assert!(*n < 10);
            }
        }

        #[test]
        fn assume_skips_not_fails(a in 0u8..4, b in 0u8..4) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn strings_match_their_class(s in "[a-c]{2,5}") {
            prop_assert!(s.chars().count() >= 2 && s.chars().count() <= 5, "{s:?}");
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
        }
    }

    /// Set in the child runs of `two_runs_draw_the_same_first_case`.
    const PRINT_FIRST: &str = "PROPTEST_SHIM_PRINT_FIRST_CASE";

    /// Whether `first_case_printer` printed its first case.
    static PRINTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    proptest! {
        /// Prints its first case when `PRINT_FIRST` is set.
        #[test]
        fn first_case_printer(x in 0u64..u64::MAX) {
            prop_assert!(x < u64::MAX);
            if std::env::var_os(PRINT_FIRST).is_some() && !PRINTED.swap(true, std::sync::atomic::Ordering::Relaxed) {
                println!("first case: {x}");
            }
        }
    }

    #[test]
    fn two_runs_draw_the_same_first_case() {
        // The same test binary run twice: anything address-dependent in
        // a property's seed (the binary is loaded at a new address each
        // run) draws two different first cases.
        let run = || {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", "tests::first_case_printer", "--nocapture", "--test-threads=1"])
                .env(PRINT_FIRST, "1")
                .output()
                .unwrap();
            let stdout = String::from_utf8(out.stdout).unwrap();
            stdout.split("first case: ").nth(1).and_then(|rest| rest.split_whitespace().next()).map(str::to_string)
        };
        let first = run();
        assert!(first.is_some());
        assert_eq!(run(), first);
    }

    #[test]
    fn a_falsified_property_names_the_seed_that_replays_it() {
        proptest! {
            fn always_false(x in 0u8..4) {
                prop_assert!(x > 10);
            }
        }
        let err = std::panic::catch_unwind(always_false).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains(&format!("replay: PROPTEST_SEED={}", crate::test_runner::base_seed())), "{msg}");
    }

    #[test]
    fn oneof_map_and_recursive_compose() {
        #[derive(Debug, Clone, PartialEq)]
        enum V {
            N(bool),
            L(Vec<V>),
        }
        let leaf = any::<bool>().prop_map(V::N);
        let tree = leaf.prop_recursive(3, 16, 4, |inner| {
            crate::collection::vec(inner, 0..4).prop_map(V::L)
        });
        let mut rng = crate::test_runner::TestRng::deterministic(1);
        let mut saw_leaf = false;
        let mut saw_list = false;
        for _ in 0..64 {
            match tree.generate(&mut rng) {
                V::N(_) => saw_leaf = true,
                V::L(_) => saw_list = true,
            }
        }
        assert!(saw_leaf && saw_list);
    }

    /// The first draws of a fixed salt through every generator path
    /// (full-domain values, integer, inclusive and float ranges, the
    /// coin flip behind `option_of`, string classes): property cases
    /// stay the same across changes to the generator underneath.
    /// Assumes `PROPTEST_SEED` is unset.
    #[test]
    fn first_draws_of_a_fixed_salt_are_pinned() {
        let mut rng = crate::test_runner::TestRng::deterministic(0x5a17);
        let draws = format!(
            "{:?}",
            (
                (any::<u64>(), any::<u32>(), any::<u16>(), any::<u8>(), any::<usize>()).generate(&mut rng),
                (any::<bool>(), any::<i32>(), any::<i64>(), any::<f32>(), any::<f64>()).generate(&mut rng),
                (0u64..u64::MAX, -5i8..=5, 0u64..=u64::MAX, 3usize..9, -40i64..-2).generate(&mut rng),
                (-1.5f64..2.5, 0.0f32..=1.0, crate::strategy::option_of(0u8..4), "[a-c]{2,5}", "\\PC{3}")
                    .generate(&mut rng),
            )
        );
        assert_eq!(
            draws,
            "((7512438541446944354, 1871821498, 38253, 99, 331630949272009960), \
             (false, -1737119565, -390252638885058892, 0.32663894, 0.5108329111970642), \
             (10139075369167665786, 1, 13087520751694279497, 3, -9), \
             (-0.950021150875568, 0.5526858, None, \"ab\", \"∑λ¿\"))"
        );
    }

    #[test]
    fn explicit_runner_reports_failures() {
        use crate::test_runner::{TestCaseError, TestRunner};
        let mut runner = TestRunner::default();
        assert!(runner.run(&(0u8..10), |_| Ok(())).is_ok());
        let err = runner
            .run(&(0u8..10), |v| {
                if v < 10 {
                    Err(TestCaseError::fail("always fails"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.0.contains("always fails"));
    }
}
