//! Offline mini property-testing framework with a `proptest`-shaped API.
//!
//! The registry is unreachable in this build environment, so this crate
//! reimplements the subset of `proptest` the workspace's property tests
//! use: the [`proptest!`] macro (`pat in strategy` arguments plus an
//! optional `#![proptest_config(..)]`), [`Strategy`] with `prop_map`,
//! numeric range strategies, tuples, [`collection::vec`],
//! [`option::of`], and the `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking** — a failing case panics with the generated inputs
//!   baked into the panic message via the normal assert formatting.
//! * **Deterministic seeding** — case `k` of test `t` derives its RNG
//!   seed from `hash(t) ⊕ k`, so failures reproduce without a persistence
//!   file.

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Run configuration: how many random cases each property executes.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The RNG handed to strategies by the [`proptest!`] runner.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds case `case` of the test named `name` reproducibly.
    pub fn deterministic(case: u64, name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(i32, u32, i64, u64, usize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy!((A)(A, B)(A, B, C)(A, B, C, D));

/// Always generates a clone of the wrapped value (`proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice among same-valued strategies, built by [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
}

impl<T> Union<T> {
    /// A union over `(weight, strategy)` arms. Weights must not all be
    /// zero.
    pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
        assert!(
            arms.iter().any(|(w, _)| *w > 0),
            "prop_oneof! needs a positive weight"
        );
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u32 = self.arms.iter().map(|(w, _)| w).sum();
        let mut r = rng.gen_range(0..total);
        for (w, strat) in &self.arms {
            if r < *w {
                return strat.generate(rng);
            }
            r -= w;
        }
        unreachable!("weights sum covers the draw")
    }
}

/// Weighted (`w => strategy`) or uniform choice among strategies
/// producing the same value type (`proptest::prop_oneof!`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, Box::new($strat) as Box<dyn $crate::Strategy<Value = _>>)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Generates `Vec`s of `element` values with a length drawn from
    /// `size` (a `usize` for fixed length, or a range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// A length specification for [`collection::vec`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn sample(self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.lo..=self.hi_inclusive)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// `Option` strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Generates `None` about a quarter of the time, `Some(inner)`
    /// otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property, reporting the formatted message
/// on failure. (No shrinking: this panics immediately.)
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*); };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `config.cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (@impl $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut __rng =
                        $crate::TestRng::deterministic(case as u64, stringify!($name));
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn mapped_tuples_compose(p in (0..10, 0..10).prop_map(|(a, b)| a + b)) {
            prop_assert!((0..19).contains(&p));
        }

        #[test]
        fn vecs_respect_size_bounds(
            v in prop::collection::vec(-1.0f32..1.0, 3..=7),
            o in prop::option::of(1u32..4),
        ) {
            prop_assert!((3..=7).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
            if let Some(x) = o {
                prop_assert!((1..4).contains(&x));
            }
        }
    }

    #[test]
    fn cases_are_reproducible() {
        let s = 0u64..1000;
        let a: Vec<u64> = (0..5)
            .map(|c| Strategy::generate(&s, &mut crate::TestRng::deterministic(c, "t")))
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| Strategy::generate(&s, &mut crate::TestRng::deterministic(c, "t")))
            .collect();
        assert_eq!(a, b);
    }
}
