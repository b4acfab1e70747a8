//! # tauhls-logic — two-level boolean logic substrate
//!
//! Boolean-function machinery backing the FSM synthesis and area analysis
//! of the `tauhls` workspace (a reproduction of *"Distributed Synchronous
//! Control Units for Dataflow Graphs under Allocation of Telescopic
//! Arithmetic Units"*, DATE 2003):
//!
//! * [`Cube`] / [`Cover`] — product terms and sum-of-products covers with
//!   the unate-recursive tautology/containment tests.
//! * [`TruthTable`] — explicit incompletely-specified functions.
//! * [`minimize_exact`] — prime generation by iterated consensus over
//!   cubes ([`primes_of_cubes`]) plus exact or greedy covering.
//! * [`minimize_heuristic`] — espresso-style EXPAND/IRREDUNDANT loop that
//!   scales to wide (e.g. one-hot encoded) controller logic.
//! * [`Expr`] — guard expressions lowered to covers.
//! * [`AreaModel`] — gate-equivalent area costing of synthesized blocks.
//!
//! # Examples
//!
//! Minimize a full adder's carry output and cost it:
//!
//! ```
//! use tauhls_logic::{minimize_exact, AreaModel, TruthTable};
//!
//! let carry = TruthTable::from_fn(3, |m| Some(m.count_ones() >= 2));
//! let cover = minimize_exact(&carry);
//! assert_eq!(cover.len(), 3); // ab + bc + ca
//!
//! let report = AreaModel::default().area(&[cover], 0);
//! assert!(report.combinational > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod area;
mod cover;
mod cube;
mod espresso;
mod expr;
mod qm;
mod truth;

pub use area::{AreaModel, AreaReport};
pub use cover::Cover;
pub use cube::{Cube, MAX_VARS};
pub use espresso::minimize_heuristic;
pub use expr::Expr;
pub use qm::{minimize_exact, prime_implicants, primes_of_cubes};
pub use truth::{Tri, TruthTable};

/// Minimizes a cover choosing the right engine for its width: exact
/// minimization when the function has at most `exact_limit` variables,
/// the heuristic EXPAND/IRREDUNDANT loop otherwise.
///
/// This is the entry point the FSM synthesizer uses, with a limit of 11
/// state bits plus inputs: binary- and Gray-encoded controllers, and
/// one-hot controllers that fit in 11 variables, take the exact path;
/// wider one-hot controllers go through the heuristic. The exact path
/// generates primes straight from the `onset` and `dcset` cubes; the only
/// minterms it enumerates are the on-set's, which the covering step needs.
///
/// # Examples
///
/// ```
/// use tauhls_logic::{minimize_auto, Cover};
/// let f = Cover::parse_pcn(3, &["110", "111", "011"]).unwrap();
/// let r = minimize_auto(&f, &Cover::empty(3), 12);
/// assert!(r.literal_count() < f.literal_count());
/// ```
pub fn minimize_auto(onset: &Cover, dcset: &Cover, exact_limit: usize) -> Cover {
    let n = onset.num_vars();
    if n <= exact_limit && n <= 16 {
        let on_dc = onset.cubes().iter().chain(dcset.cubes()).copied();
        qm::minimize_cubes(n, on_dc, &onset.onset_minterms())
    } else {
        minimize_heuristic(onset, dcset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_picks_exact_for_narrow() {
        let f = Cover::parse_pcn(2, &["11", "10"]).unwrap();
        let r = minimize_auto(&f, &Cover::empty(2), 12);
        assert_eq!(r.len(), 1);
        assert_eq!(r.literal_count(), 1);
    }

    #[test]
    fn auto_heuristic_for_wide() {
        // 20 variables forces the heuristic path (limit 12).
        let f = Cover::parse_pcn(20, &["11------------------", "10------------------"]).unwrap();
        let r = minimize_auto(&f, &Cover::empty(20), 12);
        assert_eq!(r.len(), 1);
        assert_eq!(r.literal_count(), 1);
    }
}
