//! Local stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace-internal
//! crate implements the slice of proptest's API our property tests use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_flat_map`/`prop_recursive`,
//! range/tuple/`Just` strategies, `collection::vec`, `prop_oneof!`, and the
//! `proptest!`/`prop_assert*`/`prop_assume!` macros.
//!
//! Semantics vs. real proptest: generation is random (deterministic seed
//! derived from the test name, overridable with `PROPTEST_SEED`), rejects
//! from `prop_assume!` retry without consuming a case, and failures panic
//! with the seed and case number. There is **no shrinking** — failures
//! report the raw generated case, which our tests already format into
//! their assertion messages.

/// Deterministic splitmix64 generator used for all case generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn seed_from_u64(seed: u64) -> TestRng {
        TestRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Why a single test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// A `prop_assert*` failed: the property is violated.
    Fail(String),
    /// A `prop_assume!` rejected the inputs: retry with fresh ones.
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Per-block configuration; `#![proptest_config(...)]` in `proptest!`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
    /// Give up if this many `prop_assume!` rejects pile up across the run.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            max_global_rejects: cases.saturating_mul(50).max(1000),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig::with_cases(256)
    }
}

pub mod strategy {
    use super::TestRng;
    use std::rc::Rc;

    /// A generator of values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no intermediate `ValueTree`; a
    /// strategy directly produces values (no shrinking).
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { base: self, f }
        }

        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { base: self, f }
        }

        /// Recursive strategies: `self` generates leaves, `branch` builds
        /// one level given a strategy for the level below. `depth` bounds
        /// recursion; `_desired_size`/`_expected_branch` are accepted for
        /// API compatibility but unused (sizes are bounded by `depth`).
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            branch: F,
        ) -> Recursive<Self::Value>
        where
            Self: Sized + 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2 + 'static,
        {
            Recursive {
                leaf: self.boxed(),
                branch: Rc::new(move |inner| branch(inner).boxed()),
                depth,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Type-erased, cheaply clonable strategy handle.
    pub struct BoxedStrategy<V>(Rc<dyn Strategy<Value = V>>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.base.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S, F, S2> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    pub struct Recursive<V> {
        pub(crate) leaf: BoxedStrategy<V>,
        pub(crate) branch: Rc<dyn Fn(BoxedStrategy<V>) -> BoxedStrategy<V>>,
        pub(crate) depth: u32,
    }

    impl<V> Clone for Recursive<V> {
        fn clone(&self) -> Self {
            Recursive {
                leaf: self.leaf.clone(),
                branch: Rc::clone(&self.branch),
                depth: self.depth,
            }
        }
    }

    impl<V: 'static> Strategy for Recursive<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            // At depth 0 always take a leaf; otherwise branch half the time
            // so expression sizes stay bounded but deep nests still occur.
            if self.depth == 0 || rng.below(2) == 0 {
                self.leaf.generate(rng)
            } else {
                let child = Recursive {
                    leaf: self.leaf.clone(),
                    branch: Rc::clone(&self.branch),
                    depth: self.depth - 1,
                }
                .boxed();
                (self.branch)(child).generate(rng)
            }
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        pub options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            assert!(
                !self.options.is_empty(),
                "prop_oneof! needs at least one arm"
            );
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    // ------------------------------------------------------ range strategies

    macro_rules! int_ranges {
        ($($t:ty),*) => {
            $(
                impl Strategy for ::std::ops::Range<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        assert!(self.start < self.end, "empty range strategy");
                        let span = (self.end as i128 - self.start as i128) as u64;
                        (self.start as i128 + rng.below(span) as i128) as $t
                    }
                }
                impl Strategy for ::std::ops::RangeInclusive<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        assert!(self.start() <= self.end(), "empty range strategy");
                        let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                        (*self.start() as i128 + rng.below(span) as i128) as $t
                    }
                }
            )*
        };
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_ranges {
        ($($t:ty),*) => {
            $(
                impl Strategy for ::std::ops::Range<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        assert!(self.start < self.end, "empty range strategy");
                        let u = rng.unit_f64();
                        (self.start as f64 + u * (self.end as f64 - self.start as f64)) as $t
                    }
                }
            )*
        };
    }
    float_ranges!(f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)*) = self;
                    ($($name.generate(rng),)*)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Element-count specification for [`vec()`]: an exact count or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.min + rng.below((self.size.max - self.size.min) as u64) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector whose elements come from
    /// `elem` and whose length comes from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Drives the cases for one `proptest!` test. Public for macro use.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let seed = match std::env::var("PROPTEST_SEED") {
        Ok(s) => s
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad PROPTEST_SEED '{s}'")),
        // Stable per-test default so failures reproduce across runs.
        Err(_) => name.bytes().fold(0xA076_1D64_78BD_642Fu64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
        }),
    };
    let mut rng = TestRng::seed_from_u64(seed);
    let mut rejects = 0u32;
    let mut done = 0u32;
    while done < config.cases {
        match case(&mut rng) {
            Ok(()) => done += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                assert!(
                    rejects <= config.max_global_rejects,
                    "{name}: too many prop_assume! rejects ({rejects}) — \
                     strategy rarely satisfies the assumption"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{name}: property failed at case {done} (seed {seed}, \
                     rerun with PROPTEST_SEED={seed}): {msg}"
                );
            }
        }
    }
}

/// Erased strategy handle re-exported at the crate root like real proptest.
pub use strategy::BoxedStrategy;

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError, TestRng,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union {
            options: vec![ $( $crate::strategy::Strategy::boxed($strat) ),+ ],
        }
    };
}

/// The test-block macro: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run_cases(&__config, stringify!($name), |__rng| {
                $(
                    let $arg =
                        $crate::strategy::Strategy::generate(&($strat), __rng);
                )*
                let __body = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                };
                __body()
            });
        }
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        let s = (0usize..5, -3i32..=3, 0.0f64..1.0);
        for _ in 0..500 {
            let (a, b, c) = s.generate(&mut rng);
            assert!(a < 5 && (-3..=3).contains(&b) && (0.0..1.0).contains(&c));
        }
    }

    #[test]
    fn vec_respects_exact_and_ranged_sizes() {
        let mut rng = TestRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(collection::vec(0u32..9, 4).generate(&mut rng).len(), 4);
            let n = collection::vec(0u32..9, 2..5).generate(&mut rng).len();
            assert!((2..5).contains(&n));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug, PartialEq)]
        enum Tree {
            Leaf(i32),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0i32..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 4, |inner| {
                collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut rng = TestRng::seed_from_u64(3);
        let mut saw_node = false;
        for _ in 0..200 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 3);
            saw_node |= matches!(t, Tree::Node(_));
        }
        assert!(saw_node, "never generated a branch");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn macro_plumbing_works(x in 0usize..100, y in prop_oneof![Just(1u32), Just(2u32)]) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(y, y, "y {} should equal itself", y);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics_with_seed() {
        crate::run_cases(&ProptestConfig::with_cases(10), "doomed", |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
