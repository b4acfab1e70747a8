//! Approximate completion predictors.
//!
//! The exact completion function of a unit can be expensive to realize as
//! logic (for the ripple adder it must trace the longest *exercised* carry
//! chain). A practical generator may instead use a cheaper **conservative**
//! predicate: it may claim "long" for some operand pairs that are actually
//! short (losing a little `P`), but must never claim "short" for a pair
//! that is long — a false-short would latch a wrong result. This module
//! implements such a predictor for carry-chain adders and quantifies the
//! `P` it gives away.

use crate::units::{FunctionalUnit, RippleCarryAdder};
use rand::Rng;

/// A conservative completion predictor for a ripple-carry adder: predicts
/// short iff the operands contain **no propagate run of length ≥ k**
/// (regardless of whether a carry actually enters the run).
///
/// Any exercised carry chain travels only through propagate positions, so
/// `longest chain ≤ longest propagate run`: the predicate can only err on
/// the safe side. The logic is much cheaper than the exact chain trace —
/// `w − k + 1` AND(k) gates and a NOR — at the price of pessimism when a
/// long propagate run exists but no carry enters it.
#[derive(Clone, Copy, Debug)]
pub struct ConservativeAdderPredictor {
    width: u32,
    run_limit: u32,
}

impl ConservativeAdderPredictor {
    /// Predicts short iff every propagate run is shorter than `run_limit`
    /// (so the exercised chain is at most `run_limit - 1 + 1` positions,
    /// fitting a short threshold of `run_limit + 2` gate levels on the
    /// matching [`RippleCarryAdder`]).
    ///
    /// # Panics
    ///
    /// Panics if `run_limit` is 0 or `width` is 0 or greater than 64.
    pub fn new(width: u32, run_limit: u32) -> Self {
        assert!((1..=64).contains(&width));
        assert!(run_limit >= 1);
        ConservativeAdderPredictor { width, run_limit }
    }

    /// The short-delay threshold (gate levels) this predictor guarantees
    /// on a ripple adder: chain ≤ run_limit ⇒ delay ≤ run_limit + 2.
    pub fn guaranteed_levels(&self) -> u32 {
        self.run_limit + 2
    }

    /// The conservative prediction for one operand pair.
    pub fn predict_short(&self, a: u64, b: u64) -> bool {
        let mask = if self.width >= 64 {
            !0
        } else {
            (1u64 << self.width) - 1
        };
        let p = (a ^ b) & mask;
        let mut run = 0u32;
        for i in 0..self.width {
            if p >> i & 1 == 1 {
                run += 1;
                if run >= self.run_limit {
                    return false;
                }
            } else {
                run = 0;
            }
        }
        true
    }
}

/// Measures the `P` lost to conservatism: returns
/// `(p_exact, p_conservative)` over `samples` uniform operand pairs, where
/// the exact predictor answers "delay ≤ guaranteed_levels".
pub fn conservatism_gap(
    adder: &RippleCarryAdder,
    predictor: &ConservativeAdderPredictor,
    samples: usize,
    rng: &mut impl Rng,
) -> (f64, f64) {
    assert!(samples > 0);
    let mask = if adder.width() >= 64 {
        !0u64
    } else {
        (1u64 << adder.width()) - 1
    };
    let mut exact = 0usize;
    let mut conservative = 0usize;
    for _ in 0..samples {
        let a = rng.random::<u64>() & mask;
        let b = rng.random::<u64>() & mask;
        if adder.delay_levels(a, b) <= predictor.guaranteed_levels() {
            exact += 1;
        }
        if predictor.predict_short(a, b) {
            conservative += 1;
        }
    }
    (
        exact as f64 / samples as f64,
        conservative as f64 / samples as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conservative_predictor_is_sound_exhaustively() {
        let adder = RippleCarryAdder::new(8);
        for k in 1..8 {
            let pred = ConservativeAdderPredictor::new(8, k);
            for a in 0..256u64 {
                for b in 0..256u64 {
                    let sound = !pred.predict_short(a, b)
                        || adder.delay_levels(a, b) <= pred.guaranteed_levels();
                    assert!(sound, "k={k} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn conservative_p_below_exact_p() {
        let adder = RippleCarryAdder::new(16);
        let pred = ConservativeAdderPredictor::new(16, 6);
        let mut rng = StdRng::seed_from_u64(1);
        let (p_exact, p_cons) = conservatism_gap(&adder, &pred, 20_000, &mut rng);
        assert!(p_cons <= p_exact + 1e-9);
        // The gap exists but is not catastrophic at this threshold.
        assert!(p_cons > 0.3, "conservative P collapsed: {p_cons}");
        assert!(
            p_exact - p_cons < 0.4,
            "gap too large: {p_exact} - {p_cons}"
        );
    }

    #[test]
    fn run_limit_one_rejects_any_propagate() {
        let pred = ConservativeAdderPredictor::new(8, 1);
        assert!(pred.predict_short(0b1010, 0b1010)); // p = 0 everywhere
        assert!(!pred.predict_short(0b0001, 0b0010)); // one propagate bit
    }

    #[test]
    fn wider_run_limit_is_less_pessimistic() {
        let mut rng = StdRng::seed_from_u64(2);
        let adder = RippleCarryAdder::new(16);
        let tight = ConservativeAdderPredictor::new(16, 3);
        let loose = ConservativeAdderPredictor::new(16, 8);
        let (_, p_tight) = conservatism_gap(&adder, &tight, 8000, &mut rng);
        let (_, p_loose) = conservatism_gap(&adder, &loose, 8000, &mut rng);
        assert!(p_tight < p_loose);
    }
}
