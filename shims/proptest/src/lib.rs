//! Minimal API-compatible stand-in for `proptest` (the build container
//! has no registry access). Implements the subset the workspace's tests
//! use: the [`proptest!`] macro with `#![proptest_config(..)]`,
//! [`Strategy`](strategy::Strategy) with `prop_map`, range and tuple strategies,
//! [`prop_oneof!`], `prop::collection::vec`, and the `prop_assert*`
//! macros.
//!
//! Differences from the real crate: generation is driven by a
//! deterministic per-test splitmix64 stream (reproducible across runs
//! and machines, overridable with `PROPTEST_SHIM_SEED`), and failures
//! are reported with the full generated inputs but are **not shrunk**.

use std::fmt;
use std::ops::Range;

pub mod test_runner {
    /// Run-count configuration (the only knob the shim honours).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic splitmix64 stream, seeded from the test name and
    /// case index so every test function explores an independent,
    /// reproducible sequence.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_case(test_name: &str, case: u64) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
            for b in test_name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SHIM_SEED") {
                if let Ok(s) = s.parse::<u64>() {
                    seed ^= s;
                }
            }
            TestRng {
                state: seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Prints the generated inputs of the in-flight case if the test
    /// body panics, standing in for proptest's failure persistence.
    pub struct CaseGuard {
        desc: String,
    }

    impl CaseGuard {
        pub fn new(test_name: &str, case: u64, inputs: String) -> Self {
            CaseGuard {
                desc: format!(
                    "proptest-shim: {} failed at case #{} with inputs:\n{}",
                    test_name, case, inputs
                ),
            }
        }
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("{}", self.desc);
            }
        }
    }
}

pub mod strategy {
    use super::*;
    use crate::test_runner::TestRng;

    /// A value generator. Unlike real proptest there is no value tree /
    /// shrinking; `generate` produces the final value directly.
    pub trait Strategy {
        type Value: fmt::Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: fmt::Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe mirror of [`Strategy`] so heterogeneous strategies
    /// can be unified behind [`BoxedStrategy`] (what `prop_oneof!` needs).
    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

    impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone + fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        O: fmt::Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T: fmt::Debug> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T: fmt::Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(
                        self.start < self.end,
                        "empty range strategy {}..{}", self.start, self.end
                    );
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty float range strategy");
                    let u = rng.next_f64() as $t;
                    self.start + u * (self.end - self.start)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    impl Strategy for Range<char> {
        type Value = char;
        fn generate(&self, rng: &mut TestRng) -> char {
            let (lo, hi) = (self.start as u32, self.end as u32);
            assert!(lo < hi, "empty char range strategy");
            loop {
                let v = lo + rng.below((hi - lo) as u64) as u32;
                if let Some(c) = char::from_u32(v) {
                    return c;
                }
            }
        }
    }

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

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// `Vec` strategy: length drawn from `size`, elements from `elem`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop::` namespace the prelude conventionally provides
    /// (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice between strategies producing the same value type.
/// (Weighted arms from real proptest are not supported.)
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// The test-definition macro. Each
/// `fn name(arg in strategy, ...) { body }` expands to a zero-argument
/// test that runs `body` against `config.cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases as u64 {
                    let mut rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    let mut inputs = String::new();
                    $(
                        let value =
                            $crate::strategy::Strategy::generate(&($strat), &mut rng);
                        inputs.push_str(&format!(
                            "  {} = {:?}\n", stringify!($arg), &value
                        ));
                        let $arg = value;
                    )*
                    let _case_guard = $crate::test_runner::CaseGuard::new(
                        stringify!($name), case, inputs,
                    );
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Pick {
        Small(usize),
        Pair(usize, i64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 3usize..17, b in -5i64..5, x in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-5..5).contains(&b));
            prop_assert!((0.25..0.75).contains(&x));
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(0u64..10, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn oneof_and_map_compose(
            p in prop_oneof![
                (0usize..4).prop_map(Pick::Small),
                (0usize..4, -3i64..3).prop_map(|(a, b)| Pick::Pair(a, b)),
            ]
        ) {
            match p {
                Pick::Small(a) => prop_assert!(a < 4),
                Pick::Pair(a, b) => {
                    prop_assert!(a < 4);
                    prop_assert!((-3..3).contains(&b));
                }
            }
        }

        #[test]
        fn mut_bindings_work(mut v in prop::collection::vec(-50i64..50, 1..20)) {
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn determinism_same_name_same_stream() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = crate::collection::vec(0u64..1000, 5..50);
        let a = s.generate(&mut TestRng::for_case("t", 7));
        let b = s.generate(&mut TestRng::for_case("t", 7));
        assert_eq!(a, b);
    }
}
