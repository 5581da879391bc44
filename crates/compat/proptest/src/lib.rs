//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! Implements the strategy combinators and the `proptest!` macro surface
//! this workspace's property tests use (see `crates/compat/README.md` for
//! why these shims exist). Differences from the real crate:
//!
//! - **no shrinking** — a failing case reports its inputs (via the panic
//!   message) but is not minimized;
//! - **deterministic seeding** — cases derive from a fixed seed (override
//!   with `PROPTEST_SEED`) so CI failures reproduce locally;
//! - `PROPTEST_CASES` overrides the per-test case count.
//!
//! Each generated input is drawn independently; the strategy algebra
//! (`prop_map`, `prop_flat_map`, `prop_shuffle`, tuples, ranges,
//! `collection::vec`, `option::of`, `any`) matches proptest semantics.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// `proptest::collection` — strategies for collections.
pub mod collection {
    use crate::strategy::{Strategy, TestRng};

    /// Admissible size specifications for [`vec`]: an exact length or a
    /// half-open/inclusive range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::option` — strategies for `Option`.
pub mod option {
    use crate::strategy::{Strategy, TestRng};

    /// Strategy producing `Option`s of an inner strategy's values.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `None` or `Some(inner)` with equal probability.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// The common import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a `proptest!` body, failing the current case
/// (not aborting the process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)+)
        );
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `config.cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner = $crate::test_runner::TestRunner::new($cfg);
                let cases = runner.cases();
                for case in 0..cases {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), runner.rng_mut());)+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("proptest case {}/{} failed: {}", case + 1, cases, e);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, Vec<bool>)> {
        (1usize..8).prop_flat_map(|n| (Just(n), crate::collection::vec(any::<bool>(), n)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(n in 3usize..10, m in 0u32..=4) {
            prop_assert!((3..10).contains(&n));
            prop_assert!(m <= 4);
        }

        #[test]
        fn flat_map_links_sizes((n, v) in arb_pair()) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn option_and_early_return(o in crate::option::of(0u32..3)) {
            if o.is_none() { return Ok(()); }
            prop_assert!(o.unwrap() < 3);
        }

        #[test]
        fn shuffle_preserves_elements(mut v in Just(vec![1u8, 2, 3, 4]).prop_shuffle()) {
            v.sort_unstable();
            prop_assert_eq!(v, vec![1u8, 2, 3, 4]);
        }
    }

    #[test]
    fn new_tree_and_current() {
        let mut runner = crate::test_runner::TestRunner::default();
        let tree = (0u64..100).new_tree(&mut runner).unwrap();
        let v = crate::strategy::ValueTree::current(&tree);
        assert!(v < 100);
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    // The nested `#[test]` is macro-expansion fallout: `proptest!` normally
    // appears at module scope; here it is deliberately nested so the outer
    // test can invoke the generated function.
    #[allow(unnameable_test_items)]
    fn failing_case_panics_with_context() {
        proptest! {
            #[test]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
