//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small subset of the proptest API its test
//! suites actually use: [`strategy::Strategy`] with `prop_map` /
//! `prop_flat_map`, integer-range and tuple strategies,
//! [`collection::vec`], [`prop_oneof!`], [`strategy::Just`],
//! [`strategy::any`], and the [`proptest!`] / `prop_assert*` /
//! `prop_assume!` macros.
//!
//! Generation is deterministic: every test function derives its RNG
//! seed from its own name (override with `PROPTEST_SEED`), so failures
//! reproduce without a persistence file. There is no shrinking — a
//! failing case reports the case number, and re-running replays it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Anything usable as a `vec` size: an exact length or a range.
    pub trait SizeRange {
        /// Picks a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.below(self.end.saturating_sub(self.start).max(1) as u64) as usize + self.start
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let span = self.end().saturating_sub(*self.start()) + 1;
            rng.below(span as u64) as usize + self.start()
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// `proptest::collection::vec`: a vector of `size` elements.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The `proptest::prelude` re-exports.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines deterministic property tests.
///
/// Supports the `proptest!` forms used in this workspace: an optional
/// `#![proptest_config(...)]` header followed by `#[test]` functions
/// whose arguments are drawn from strategies via `pat in strategy`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let __ran = (|| -> bool { $body true })();
                    let _ = (__case, __ran);
                }
            }
        )*
    };
}

/// `prop_assume!`: skips the current case when the condition is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return false;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return false;
        }
    };
}

/// `prop_assert!`: asserts within a property test body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `prop_assert_eq!`: equality assertion within a property test body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `prop_assert_ne!`: inequality assertion within a property test body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// `prop_oneof!`: picks uniformly among the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
