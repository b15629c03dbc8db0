//! Offline drop-in replacement for the subset of the [`proptest`] API this
//! workspace uses.
//!
//! The build container has no registry access, so the real `proptest`
//! crate cannot be resolved even for `cargo build --offline`. This crate
//! is aliased to the `proptest` name in the workspace manifest and keeps
//! the property-test sources compiling unchanged: the [`proptest!`] macro,
//! [`Strategy`] with `prop_map`/`prop_recursive`/`boxed`, range and tuple
//! strategies, `prop::collection::vec`, `prop::sample::select`,
//! [`prop_oneof!`], [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`]
//! and [`ProptestConfig`].
//!
//! Differences from upstream, by design:
//!
//! * **No automatic shrinking.** A failing case panics with the generated
//!   inputs in the assertion message (via the usual `assert!` formatting);
//!   it is not minimized first. Consumers that minimize failing inputs
//!   themselves can build on the [`shrink`] candidate generators and
//!   greedy driver instead.
//! * **Deterministic seeding.** Each test derives its RNG seed from its
//!   module path and name, so failures reproduce exactly across runs.
//! * **Simple rejection handling.** `prop_assume!` discards the case; a
//!   bounded number of extra attempts replaces upstream's global rejection
//!   bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Runner configuration (mirror of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases each property must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` successful cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases — smaller than upstream's 256; the suite favours fast
    /// offline runs and every consumer can raise it per block.
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single generated case did not complete.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was discarded by [`prop_assume!`].
    Reject,
}

/// The per-test deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name via FNV-1a, so each property
    /// gets a distinct but reproducible stream.
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: hash }
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, span)`.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample an empty range");
        self.next_u64() % span
    }
}

/// A generator of test inputs (mirror of `proptest::strategy::Strategy`,
/// without shrinking).
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (values become cheaply clonable closures).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let inner = self;
        BoxedStrategy(Rc::new(move |rng| inner.generate(rng)))
    }

    /// Builds recursive structures: level 0 generates from `self` (the
    /// leaf strategy); each deeper level feeds the previous level to
    /// `recurse` and mixes leaves back in 50/50 so average size stays
    /// bounded. `_desired_size` and `_expected_branch_size` are accepted
    /// for signature compatibility and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let deeper = recurse(current).boxed();
            let mix_leaf = leaf.clone();
            current = BoxedStrategy(Rc::new(move |rng| {
                if rng.next_u64() & 1 == 0 {
                    mix_leaf.generate(rng)
                } else {
                    deeper.generate(rng)
                }
            }));
        }
        current
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// Uniform choice among same-valued strategies ([`prop_oneof!`] backend).
pub fn one_of<T: 'static>(options: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
    assert!(!options.is_empty(), "prop_oneof! needs at least one strategy");
    BoxedStrategy(Rc::new(move |rng| {
        let pick = rng.below(options.len() as u64) as usize;
        options[pick].generate(rng)
    }))
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + i128::from(rng.below(span))) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample an empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + i128::from(rng.below(span + 1))) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// The `prop::` namespace (mirror of `proptest::prelude::prop`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Generates `Vec`s of `element` with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "cannot sample an empty length range");
            VecStrategy { element, size }
        }

        /// The strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start) as u64;
                let len = self.size.start + rng.below(span.max(1)) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling from explicit value sets.
    pub mod sample {
        use super::super::{Strategy, TestRng};

        /// Uniform choice from `options`.
        ///
        /// # Panics
        ///
        /// Panics at generation time if `options` is empty.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            Select { options }
        }

        /// The strategy returned by [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                assert!(!self.options.is_empty(), "cannot select from no options");
                self.options[rng.below(self.options.len() as u64) as usize].clone()
            }
        }
    }
}

/// Integrated shrinking primitives.
///
/// The [`proptest!`] runner itself deliberately does not shrink (failing
/// cases panic with their inputs), but consumers that minimize failing
/// inputs themselves — notably the rtfuzz reducer — share these
/// candidate generators and the greedy [`minimize`](shrink::minimize)
/// driver instead of re-inventing them.
pub mod shrink {
    /// Candidate replacements for an integer, most aggressive first:
    /// `min` itself, then values binary-searching up from `min` toward
    /// `v` (`v - Δ/2`, `v - Δ/4`, …, `v - 1`). Returns an empty vector
    /// when `v` is already minimal.
    ///
    /// ```
    /// assert_eq!(proptest_lite::shrink::int_toward(12, 0), [0, 6, 9, 11]);
    /// assert_eq!(proptest_lite::shrink::int_toward(3, 3), []);
    /// ```
    pub fn int_toward(v: u64, min: u64) -> Vec<u64> {
        if v <= min {
            return Vec::new();
        }
        let mut out = vec![min];
        let mut delta = (v - min) / 2;
        while delta > 0 {
            let candidate = v - delta;
            if candidate != *out.last().expect("seeded with min") {
                out.push(candidate);
            }
            delta /= 2;
        }
        out
    }

    /// Candidate replacements shrinking toward zero — [`int_toward`] with
    /// `min = 0`.
    pub fn int_toward_zero(v: u64) -> Vec<u64> {
        int_toward(v, 0)
    }

    /// Subsequence candidates for a vector, most aggressive first: drop
    /// contiguous chunks of half the length, then quarters, …, down to
    /// single-element removals. Candidates that would leave fewer than
    /// `min_len` elements are not produced, and the input order of the
    /// surviving elements is preserved.
    pub fn subsequences<T: Clone>(v: &[T], min_len: usize) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        if v.len() <= min_len {
            return out;
        }
        let mut chunk = v.len() / 2;
        while chunk >= 1 {
            for start in (0..v.len()).step_by(chunk) {
                let end = (start + chunk).min(v.len());
                if v.len() - (end - start) < min_len {
                    continue;
                }
                let mut candidate = Vec::with_capacity(v.len() - (end - start));
                candidate.extend_from_slice(&v[..start]);
                candidate.extend_from_slice(&v[end..]);
                out.push(candidate);
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        out
    }

    /// Greedy fixpoint minimizer: repeatedly asks `candidates` for
    /// smaller variants of the current value and accepts the first one
    /// `keep` approves (for a fuzz reducer: "still fails the oracle"),
    /// until no candidate is accepted or `max_steps` acceptances have
    /// happened. Returns the minimized value and the number of accepted
    /// shrink steps.
    ///
    /// Termination is the caller's contract: every accepted candidate
    /// must be strictly smaller under whatever measure `candidates`
    /// shrinks, which all generators in this module guarantee.
    pub fn minimize<T, C, K>(
        mut current: T,
        max_steps: usize,
        candidates: C,
        mut keep: K,
    ) -> (T, usize)
    where
        C: Fn(&T) -> Vec<T>,
        K: FnMut(&T) -> bool,
    {
        let mut steps = 0;
        'outer: while steps < max_steps {
            for candidate in candidates(&current) {
                if keep(&candidate) {
                    current = candidate;
                    steps += 1;
                    continue 'outer;
                }
            }
            break;
        }
        (current, steps)
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::shrink;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, BoxedStrategy,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Asserts a property holds for the current case (panics on failure; this
/// shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { ::std::assert!($($tokens)*) };
}

/// Asserts two expressions are equal for the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { ::std::assert_eq!($($tokens)*) };
}

/// Discards the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among the given same-valued strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng =
                    $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                let mut passed = 0u32;
                let mut attempts = 0u32;
                let max_attempts = config.cases.saturating_mul(20).max(20);
                while passed < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "property `{}` rejected too many cases ({} attempts for {} passes)",
                        stringify!($name),
                        attempts,
                        passed,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    // An immediately-called closure gives `$body` a `?`/
                    // early-return boundary, like upstream proptest.
                    #[allow(clippy::redundant_closure_call)]
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        let strat = (0u32..=5, 1u32..=8, 2u32..=6);
        for _ in 0..200 {
            let (a, b, c) = strat.generate(&mut rng);
            assert!(a <= 5 && (1..=8).contains(&b) && (2..=6).contains(&c));
        }
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        let mut rng = TestRng::from_name("vecs");
        let strat = prop::collection::vec(0u64..256, 1..30);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((1..30).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 256));
        }
    }

    #[test]
    fn select_only_yields_options() {
        let mut rng = TestRng::from_name("select");
        let strat = prop::sample::select(vec!["a", "b", "c"]);
        for _ in 0..50 {
            assert!(["a", "b", "c"].contains(&strat.generate(&mut rng)));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => {
                    assert!(*v < 16, "leaves come from the 0..16 strategy");
                    1
                }
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u8..16).prop_map(Tree::Leaf).prop_recursive(3, 24, 4, |inner| {
            prop::collection::vec(inner, 1..4).prop_map(Tree::Node)
        });
        let mut rng = TestRng::from_name("recursive");
        for _ in 0..100 {
            // Depth 3 recursion + the vec wrapper bounds total depth by 4.
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    #[test]
    fn seeding_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro wires strategies, assumptions and assertions.
        #[test]
        fn macro_end_to_end(x in 0u32..100, v in prop::collection::vec(0u8..10, 0..5)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert!(v.len() < 5);
            prop_assert!(v.iter().all(|b| *b < 10));
        }
    }

    proptest! {
        /// Default config applies when no attribute is given.
        #[test]
        fn macro_without_config(flag in prop_oneof![0u8..1, 1u8..2]) {
            prop_assert!(flag <= 1);
        }
    }

    #[test]
    fn int_candidates_shrink_strictly_and_lead_with_min() {
        assert_eq!(shrink::int_toward_zero(12), [0, 6, 9, 11]);
        assert_eq!(shrink::int_toward(12, 4), [4, 8, 10, 11]);
        assert_eq!(shrink::int_toward(5, 4), [4]);
        assert!(shrink::int_toward(4, 4).is_empty());
        assert!(shrink::int_toward_zero(0).is_empty());
        for v in 1u64..200 {
            let candidates = shrink::int_toward_zero(v);
            assert_eq!(candidates[0], 0);
            assert!(candidates.iter().all(|c| *c < v), "{v}: {candidates:?}");
            assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{v}: {candidates:?}");
        }
    }

    #[test]
    fn subsequences_preserve_order_and_min_len() {
        let v = [1, 2, 3, 4];
        let candidates = shrink::subsequences(&v, 1);
        // Most aggressive first: halves before single removals.
        assert_eq!(candidates[0], vec![3, 4]);
        assert_eq!(candidates[1], vec![1, 2]);
        for c in &candidates {
            assert!(c.len() < v.len() && !c.is_empty());
            assert!(c.windows(2).all(|w| w[0] < w[1]), "order broken: {c:?}");
        }
        // Single removals are all present.
        for drop in 0..v.len() {
            let expect: Vec<i32> = v.iter().copied().filter(|x| *x != v[drop]).collect();
            assert!(candidates.contains(&expect), "missing {expect:?}");
        }
        assert!(shrink::subsequences(&v, 4).is_empty());
        assert!(shrink::subsequences(&v, 5).is_empty());
    }

    #[test]
    fn minimize_reaches_a_fixpoint() {
        // Minimize an integer that must stay >= 17: the greedy driver
        // should land exactly on 17.
        let (min, steps) =
            shrink::minimize(1000u64, 64, |v| shrink::int_toward_zero(*v), |v| *v >= 17);
        assert_eq!(min, 17);
        assert!(steps > 0);
        // A budget of zero steps returns the input untouched.
        let (same, steps) =
            shrink::minimize(1000u64, 0, |v| shrink::int_toward_zero(*v), |v| *v >= 17);
        assert_eq!((same, steps), (1000, 0));
    }
}
