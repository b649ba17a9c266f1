//! Offline stand-in for `proptest` (see `crates/shims/README.md`).
//!
//! The `proptest!` macro here expands each property into a plain `#[test]`
//! that samples its arguments from a deterministic RNG (seeded from the
//! test name) for `ProptestConfig::cases` iterations. There is no
//! shrinking. A failing case panics with the ordinary assert message plus
//! the property's name, the case index and the seed; setting
//! `PROPTEST_CASE=<index>` runs only that case of each property (the
//! earlier cases are still sampled, unrun, so case `k` sees the same
//! arguments as in the full run):
//!
//! ```text
//! PROPTEST_CASE=17 cargo test --test property_tests crc_roundtrip
//! ```

#![forbid(unsafe_code)]

use std::panic::{self, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Per-property configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The environment variable that selects the one case to replay.
pub const REPLAY_VAR: &str = "PROPTEST_CASE";

/// Deterministic per-test RNG.
pub struct TestRng(SmallRng);

impl TestRng {
    /// Seeds from the test name, so each property gets a stable stream.
    pub fn new(name: &str) -> Self {
        TestRng(SmallRng::seed_from_u64(seed_of(name)))
    }
}

/// A property's RNG seed: the FNV-1a hash of its full name.
pub fn seed_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The case index [`REPLAY_VAR`] selects, if it is set.
pub fn replay_case() -> Option<u32> {
    let text = std::env::var(REPLAY_VAR).ok()?;
    Some(
        text.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{REPLAY_VAR}={text:?} is not a case index")),
    )
}

/// Runs property `name`: draws each case's arguments with `sample` from
/// the property's RNG and checks them with `check`. With `replay =
/// Some(k)` only case `k` is checked. A failing case re-panics with its
/// original message followed by the name, case index and seed.
pub fn run_property<A>(
    name: &str,
    config: &ProptestConfig,
    replay: Option<u32>,
    mut sample: impl FnMut(&mut TestRng) -> A,
    mut check: impl FnMut(A),
) {
    let mut rng = TestRng::new(name);
    let cases = replay.map_or(config.cases, |k| k + 1);
    for case in 0..cases {
        let args = sample(&mut rng);
        if replay.is_some_and(|k| k != case) {
            continue;
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| check(args))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            panic!(
                "{msg}\nproptest: property `{name}` failed at case {case} \
                 (seed {:#018x}); run only this case with {REPLAY_VAR}={case}",
                seed_of(name)
            );
        }
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The produced type.
    type Value;
    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.start..self.end)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(*self.start()..=*self.end())
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(*self.start()..=*self.end())
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// Full-range strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// Any value of a primitive type (uniform over the full range).
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_any {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_any!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with a length range.
    pub struct VecStrategy<S> {
        elem: S,
        len: std::ops::Range<usize>,
    }

    /// `proptest::collection::vec(strategy, len_range)`.
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.len.start >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.start..self.len.end)
            };
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Assert within a property (plain `assert!` here — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert-eq within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares properties as seeded-loop `#[test]`s.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_property(
                concat!(module_path!(), "::", stringify!($name)),
                &config,
                $crate::replay_case(),
                |rng| ($($crate::Strategy::sample(&($strat), rng),)*),
                |($($arg,)*)| $body,
            );
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{run_property, seed_of, TestRng};
    use rand::RngCore;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs a property whose case fails when its draw is 7, returning the
    /// draws checked and the failure message.
    fn forced_failure(replay: Option<u32>) -> (Vec<u64>, String) {
        let mut checked = Vec::new();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run_property(
                "shim::forced",
                &ProptestConfig::with_cases(64),
                replay,
                |rng: &mut TestRng| rng.next_u64() % 8,
                |x| {
                    checked.push(x);
                    assert_ne!(x, 7, "drew a seven");
                },
            )
        }))
        .expect_err("some case of 64 draws a seven");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        (checked, msg)
    }

    #[test]
    fn a_failure_names_its_case_and_replays_alone() {
        let (checked, msg) = forced_failure(None);
        let case = checked.len() - 1;
        assert_eq!(checked[case], 7);
        let seed = format!("{:#018x}", seed_of("shim::forced"));
        for part in [
            "drew a seven",
            "property `shim::forced`",
            &format!("failed at case {case} "),
            &seed,
            &format!("PROPTEST_CASE={case}"),
        ] {
            assert!(msg.contains(part), "{part:?} missing from {msg:?}");
        }
        // Replaying the case checks it alone, with the same draw.
        let (replayed, again) = forced_failure(Some(case as u32));
        assert_eq!(replayed, vec![7]);
        assert_eq!(again, msg);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respected(x in 3usize..10, y in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }
    }

    proptest! {
        #[test]
        fn default_config_works(b in any::<bool>()) {
            prop_assert_eq!(b as u8 & 1, b as u8);
        }
    }
}
