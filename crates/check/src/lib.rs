//! # tauhls-check — a minimal deterministic property-testing harness
//!
//! The workspace's property tests used to run on `proptest`; in offline
//! build environments that dependency is unavailable, so this crate
//! provides the small subset the tests actually need:
//!
//! * [`forall`] runs a property closure over `cases` deterministic random
//!   cases, each with its own [`Gen`] (seeded from a per-case SplitMix64
//!   derivation, so a failure reproduces from the printed case index);
//! * [`Gen`] wraps the workspace `StdRng` with the generator combinators
//!   the tests use (ranges, vectors, probability-weighted booleans).
//!
//! Failures re-panic with the case number and derived seed attached, so a
//! failing property can be replayed in isolation with [`replay`].
//!
//! # Examples
//!
//! ```
//! tauhls_check::forall("addition_commutes", 64, |g| {
//!     let a = g.i64(-1000..1000);
//!     let b = g.i64(-1000..1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault_gen;

pub use fault_gen::{
    arbitrary_elastic_spec, arbitrary_fault, arbitrary_plan, arbitrary_skew_fault,
    arbitrary_skew_plan,
};

use rand::rngs::StdRng;
use rand::{splitmix64_mix, Rng, SampleRange, SeedableRng, StandardSample};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A deterministic case generator handed to property closures.
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// Builds a generator from an explicit seed (see [`replay`]).
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Direct access to the underlying RNG (for APIs taking `impl Rng`).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// A uniform `usize` from a range.
    pub fn usize(&mut self, range: impl SampleRange<usize>) -> usize {
        self.rng.random_range(range)
    }

    /// A uniform `u64` from a range.
    pub fn u64(&mut self, range: impl SampleRange<u64>) -> u64 {
        self.rng.random_range(range)
    }

    /// A uniform `i64` from a range.
    pub fn i64(&mut self, range: impl SampleRange<i64>) -> i64 {
        self.rng.random_range(range)
    }

    /// A uniform `u8` from a range.
    pub fn u8(&mut self, range: impl SampleRange<u8>) -> u8 {
        self.rng.random_range(range)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.random()
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng.random_bool(p)
    }

    /// A full-domain value of any sampleable type.
    pub fn any<T: StandardSample>(&mut self) -> T {
        self.rng.random()
    }

    /// A vector of `len` items produced by `f`.
    pub fn vec<T>(&mut self, len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }

    /// One element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.rng.random_range(0..items.len())]
    }
}

/// Derives the per-case seed for `(property name, case index)`.
///
/// The property name participates so distinct properties in one test
/// binary explore different spaces.
pub fn case_seed(name: &str, case: u64) -> u64 {
    let h = tauhls_dfg::Fnv64::of(name.as_bytes());
    splitmix64_mix(splitmix64_mix(h) ^ case)
}

/// Runs `prop` over `cases` deterministic random cases.
///
/// # Panics
///
/// Re-panics with the failing case index and seed attached when the
/// property fails.
pub fn forall(name: &str, cases: u64, prop: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen::from_seed(seed);
            prop(&mut g);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property `{name}` failed at case {case}/{cases} \
                 (replay with tauhls_check::replay({seed:#x}, ...))"
            );
            resume_unwind(payload);
        }
    }
}

/// Replays a single property case from a seed printed by [`forall`].
pub fn replay(seed: u64, prop: impl Fn(&mut Gen)) {
    let mut g = Gen::from_seed(seed);
    prop(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forall_runs_all_cases() {
        let n = std::cell::Cell::new(0u64);
        forall("count", 10, |g| {
            let _ = g.usize(0..5);
            n.set(n.get() + 1);
        });
        assert_eq!(n.get(), 10);
    }

    #[test]
    fn cases_are_deterministic_but_distinct() {
        let a = case_seed("p", 0);
        let b = case_seed("p", 1);
        let c = case_seed("q", 0);
        assert_eq!(a, case_seed("p", 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut g1 = Gen::from_seed(a);
        let mut g2 = Gen::from_seed(a);
        assert_eq!(g1.u64(0..1000), g2.u64(0..1000));
    }

    #[test]
    #[should_panic(expected = "forced failure")]
    fn failures_propagate() {
        forall("failing", 5, |g| {
            let v = g.usize(0..10);
            assert!(v < 100, "impossible");
            if v < 100 {
                panic!("forced failure");
            }
        });
    }

    #[test]
    fn vec_and_choose() {
        let mut g = Gen::from_seed(1);
        let v = g.vec(8, |g| g.i64(0..100));
        assert_eq!(v.len(), 8);
        let picked = *g.choose(&v);
        assert!(v.contains(&picked));
    }
}
