//! A minimal, deterministic, dependency-free stand-in for the
//! `proptest` crate, so the workspace's property tests build and run
//! with no network/registry access.
//!
//! It implements exactly the surface our tests use: integer-range and
//! tuple strategies, [`Just`], `prop_map`, `prop_oneof!`,
//! `prop::collection::vec`, the `proptest!` macro with
//! `proptest_config`, and the `prop_assert!`/`prop_assert_eq!`
//! macros. Unlike real proptest there is **no shrinking** and no
//! persisted failure seeds: every test function draws its cases from
//! a `SplitMix64`-style generator seeded from the test name and
//! case index, so failures are reproducible run-to-run and a failing
//! case prints its inputs directly.

use std::fmt::Debug;
use std::ops::Range;

/// Deterministic case generator (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator for case `case` of the test named `name`. The seed
    /// is a stable hash of both, so cases are independent and every
    /// run draws the same sequence.
    pub(crate) fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`. `n` must be non-zero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "TestRng::below(0)");
        self.next_u64() % n
    }
}

/// A generator of test-case values. Object-safe; combinators live
/// behind `Self: Sized` bounds so `Box<dyn Strategy<Value = T>>`
/// works (needed by `prop_oneof!`).
pub trait Strategy {
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between type-erased alternatives; built by
/// `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union over `arms`; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),+) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + (rng.below(span) as $ty)
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the tuple's type parameters double as its binding names")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// `prop::collection` — sized collections of generated elements.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy for `Vec`s whose length is drawn from `size` and
    /// whose elements come from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, size }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let n = self.size.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Namespace mirror of real proptest's `prop::` path.
pub mod prop {
    pub use crate::collection;
}

/// Runner configuration; only the case count is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases each test function runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Drives one test function: `cases` deterministic draws, panicking
/// with the case's rendered inputs on the first failure. Used by the
/// expansion of `proptest!`.
pub fn run_cases<F>(name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> (String, Result<(), String>),
{
    for i in 0..config.cases {
        let mut rng = TestRng::for_case(name, i);
        let (inputs, outcome) = case(&mut rng);
        if let Err(msg) = outcome {
            panic!(
                "proptest case {i}/{} of `{name}` failed: {msg}\ninputs:\n{inputs}",
                config.cases
            );
        }
    }
}

/// Renders one named input for the failure report.
pub fn render_input<T: Debug>(name: &str, value: &T) -> String {
    format!("  {name} = {value:?}\n")
}

/// The prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Uniform choice between strategies that share a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts inside a `proptest!` body; failure aborts the case and
/// reports its inputs rather than unwinding mid-generation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!("assertion failed: `{:?}` != `{:?}`", l, r));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                l,
                r,
                format!($($fmt)+)
            ));
        }
    }};
}

/// Declares property tests. Mirrors real proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn my_prop(x in 0u8..10, v in prop::collection::vec(0u8..4, 1..5)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: one test function per
/// recursion step. The user-written `#[test]` attribute is captured
/// in `$meta` and re-emitted on the generated zero-argument function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            $crate::run_cases(stringify!($name), &config, |rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                let mut inputs = String::new();
                $(inputs.push_str(&$crate::render_input(stringify!($arg), &$arg));)+
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    #[allow(unreachable_code, reason = "a body that always returns early makes this `Ok(())` unreachable")]
                    Ok(())
                })();
                (inputs, outcome)
            });
        }
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u8..7), &mut rng);
            assert!((3..7).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The full macro surface: tuples, oneof, vec, map, assertions.
        #[test]
        fn macro_surface(
            pair in (0u16..10, 1u64..5).prop_map(|(a, b)| (a, b)),
            choice in prop_oneof![Just(0u8), 1u8..4, (4u8..9).prop_map(|x| x)],
            items in prop::collection::vec(0u32..100, 1..20),
        ) {
            prop_assert!(pair.0 < 10, "a out of range: {}", pair.0);
            prop_assert!(pair.1 >= 1 && pair.1 < 5);
            prop_assert!(choice < 9);
            prop_assert!(!items.is_empty() && items.len() < 20);
            let sum: u64 = items.iter().map(|&x| x as u64).sum();
            prop_assert_eq!(sum, items.iter().fold(0u64, |a, &b| a + b as u64));
        }
    }

    #[test]
    #[should_panic(expected = "inputs:")]
    fn failing_case_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
