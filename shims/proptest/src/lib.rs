//! Offline stand-in for `proptest`: the strategy combinators and macros
//! pfmm's property tests use, without crates.io access.
//!
//! Supported surface: numeric range strategies (`lo..hi`, `lo..=hi`),
//! tuple strategies, `prop::collection::vec`, `prop_map`/`prop_flat_map`,
//! the `proptest!` macro with an optional `#![proptest_config(..)]`
//! header, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from the real crate, by design: cases are generated from a
//! deterministic per-index seed (reproducible across runs and platforms)
//! and failures are reported with their case index but are **not shrunk**.
//! For this workspace's tests — tolerance checks over random point clouds
//! — shrinking adds little; determinism matters more.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-case random source handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// The next 64 uniform bits.
    pub fn bits(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform integer in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0.random_below(n)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.random()
    }
}

/// A failed property within a test case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build a failure from a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

/// Configuration block accepted by `#![proptest_config(..)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Accepted for compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// Drive `case` for every configured case index (called by `proptest!`).
///
/// # Panics
/// Panics with the case index and message on the first failing case.
pub fn run_cases(
    config: ProptestConfig,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    for i in 0..config.cases {
        // Derive the case seed from the index so every case is
        // independently reproducible.
        let mut rng = TestRng(StdRng::seed_from_u64(
            0xC0FFEE ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
        ));
        if let Err(e) = case(&mut rng) {
            panic!("proptest case {i}/{} failed: {}", config.cases, e.0);
        }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from a strategy built from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty => $wide:ty),+ $(,)?) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u128;
                let off = if span <= u64::MAX as u128 {
                    rng.below(span as u64) as u128
                } else {
                    // u128 spans: modulo fold of 128 random bits (bias
                    // < 2⁻⁶⁴, irrelevant for tests).
                    (((rng.bits() as u128) << 64) | rng.bits() as u128) % span
                };
                ((self.start as $wide).wrapping_add(off as $wide)) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u128 + 1;
                let off = if span <= u64::MAX as u128 {
                    rng.below(span as u64) as u128
                } else {
                    (((rng.bits() as u128) << 64) | rng.bits() as u128) % span
                };
                ((lo as $wide).wrapping_add(off as $wide)) as $t
            }
        }
    )+};
}

int_range_strategy!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, u128 => u128, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, i128 => u128, isize => usize,
);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Inclusive length bounds for [`vec()`].
    #[derive(Copy, Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for vectors of `element` values with lengths in `size`.
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
            let n = self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything the tests import with `use proptest::prelude::*`.

    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestCaseError};

    pub mod prop {
        //! The `prop::` namespace of the real crate.
        pub use crate::collection;
    }
}

/// Assert inside a `proptest!` body; failure fails the case (no panic
/// until the runner reports it with its case index).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($lhs), stringify!($rhs), l, r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{@fns ($cfg) $($rest)*}
    };
    (@fns ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strategies = ($(($strat),)+);
                $crate::run_cases($cfg, move |rng| {
                    let ($($arg,)+) = $crate::Strategy::generate(&strategies, rng);
                    let out: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    out
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!{@fns ($crate::ProptestConfig::default()) $($rest)*}
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        crate::run_cases(
            ProptestConfig {
                cases: 200,
                ..ProptestConfig::default()
            },
            |rng| {
                let v = (0u32..7).generate(rng);
                prop_assert!(v < 7, "u32 range: {v}");
                let f = (-2.0f64..3.0).generate(rng);
                prop_assert!((-2.0..3.0).contains(&f), "f64 range: {f}");
                let i = (-100i64..100).generate(rng);
                prop_assert!((-100..100).contains(&i), "i64 range: {i}");
                let u = (1u128 << 90..1u128 << 91).generate(rng);
                prop_assert!((1u128 << 90..1u128 << 91).contains(&u), "u128 range");
                let q = (3usize..=3).generate(rng);
                prop_assert_eq!(q, 3);
                Ok(())
            },
        );
    }

    #[test]
    fn vec_and_map_compose() {
        crate::run_cases(
            ProptestConfig {
                cases: 50,
                ..ProptestConfig::default()
            },
            |rng| {
                let s = prop::collection::vec((0.0f64..1.0, 0u32..10), 2..5).prop_map(|v| v.len());
                let n = s.generate(rng);
                prop_assert!((2..5).contains(&n), "vec length {n}");
                Ok(())
            },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The macro itself: generated args are in range, asserts work.
        #[test]
        fn macro_generates_cases(a in 1usize..10, b in 0.0f64..1.0) {
            prop_assert!((1..10).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
            if a == 100 {
                return Ok(()); // exercise early return type-checking
            }
            prop_assert_eq!(a, a);
            prop_assert_ne!(a + 1, a);
        }
    }

    proptest! {
        /// Default-config form (no inner attribute).
        #[test]
        fn macro_default_config(x in 0u64..5) {
            prop_assert!(x < 5);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_case_panics_with_index() {
        crate::run_cases(
            ProptestConfig {
                cases: 5,
                ..ProptestConfig::default()
            },
            |rng| {
                let v = (0u32..10).generate(rng);
                prop_assert!(v > 100, "always fails: {v}");
                Ok(())
            },
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let mut vals = Vec::new();
            crate::run_cases(
                ProptestConfig {
                    cases: 10,
                    ..ProptestConfig::default()
                },
                |rng| {
                    vals.push((0u64..1000).generate(rng));
                    Ok(())
                },
            );
            vals
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn flat_map_dependent_generation() {
        crate::run_cases(
            ProptestConfig {
                cases: 30,
                ..ProptestConfig::default()
            },
            |rng| {
                let s = (1usize..=4, 1usize..=4).prop_flat_map(|(r, c)| {
                    prop::collection::vec(-1.0f64..1.0, r * c).prop_map(move |d| (r, c, d))
                });
                let (r, c, d) = s.generate(rng);
                prop_assert_eq!(d.len(), r * c);
                Ok(())
            },
        );
    }

    #[test]
    fn just_clones() {
        crate::run_cases(
            ProptestConfig {
                cases: 3,
                ..ProptestConfig::default()
            },
            |rng| {
                let v = Just(vec![1, 2]).generate(rng);
                prop_assert_eq!(v, vec![1, 2]);
                Ok(())
            },
        );
    }
}
