//! Exact two-level minimization: prime generation by iterated consensus
//! over the on-set ∪ dc-set cubes, followed by unate covering (essential
//! extraction + branch-and-bound with a greedy fallback for large
//! instances).

use crate::cover::Cover;
use crate::cube::Cube;
use crate::truth::{Tri, TruthTable};
use std::collections::HashSet;

/// Upper bound on `primes.len() * onset.len()` beyond which the covering
/// step falls back from branch-and-bound to the greedy heuristic.
const EXACT_COVER_BUDGET: usize = 200_000;

/// Minimizes an incompletely-specified function to a (near-)minimum
/// sum-of-products cover.
///
/// Prime implicants are generated exactly over the on-set ∪ dc-set (see
/// [`primes_of_cubes`]). The covering problem is then solved exactly by
/// branch-and-bound when small, or greedily otherwise; in both cases every
/// returned cube is a prime implicant and the cover implements the function.
///
/// # Examples
///
/// ```
/// use tauhls_logic::{minimize_exact, TruthTable};
/// // f = majority of 3 inputs
/// let t = TruthTable::from_fn(3, |m| Some(m.count_ones() >= 2));
/// let c = minimize_exact(&t);
/// assert_eq!(c.len(), 3); // ab + bc + ac
/// assert!(t.is_implemented_by(&c));
/// ```
pub fn minimize_exact(table: &TruthTable) -> Cover {
    let n = table.num_vars();
    let care_or_dc = (0..1u64 << n)
        .filter(|&m| table.get(m) != Tri::Off)
        .map(|m| Cube::minterm(n, m));
    minimize_cubes(n, care_or_dc, &table.onset())
}

/// Minimizes the `n`-variable function whose on-set ∪ dc-set is the union
/// of `cubes` and whose on-set minterms are `onset` (ascending).
pub(crate) fn minimize_cubes(
    n: usize,
    cubes: impl IntoIterator<Item = Cube>,
    onset: &[u64],
) -> Cover {
    if onset.is_empty() {
        return Cover::empty(n);
    }
    select_cover(n, &primes_of_cubes(cubes), onset)
}

/// Generates all prime implicants of the `n`-variable function whose
/// on∪dc set is `minterms`, sorted.
pub fn prime_implicants(n: usize, minterms: &[u64]) -> Vec<Cube> {
    primes_of_cubes(minterms.iter().map(|&m| Cube::minterm(n, m)))
}

/// Generates all prime implicants of the function covered by `cubes` (its
/// on-set ∪ dc-set), sorted.
///
/// Iterated consensus with single-cube absorption: a cube set in which no
/// cube contains another, and which contains every consensus term of its
/// members within one of them, is exactly the set of primes. A worklist
/// pairs each added cube once against the set, so the cost follows the
/// cubes and primes of the function, not the size of its minterm space.
///
/// # Examples
///
/// ```
/// use tauhls_logic::{primes_of_cubes, Cube};
/// // x0·x1 + x0'·x2 has the consensus prime x1·x2.
/// let f = [
///     Cube::from_literals(&[(0, true), (1, true)]),
///     Cube::from_literals(&[(0, false), (2, true)]),
/// ];
/// assert_eq!(primes_of_cubes(f).len(), 3);
/// ```
pub fn primes_of_cubes(cubes: impl IntoIterator<Item = Cube>) -> Vec<Cube> {
    /// Adds `c` unless a member covers it, dropping the members it covers.
    fn add(set: &mut Vec<Cube>, work: &mut Vec<Cube>, c: Cube) {
        if set.iter().any(|s| s.covers(&c)) {
            return;
        }
        set.retain(|s| !c.covers(s));
        set.push(c);
        work.push(c);
    }

    // A cube leaves `set` only for one that covers it, so it never returns
    // and enters `work` at most once.
    let mut set = Vec::new();
    let mut work = Vec::new();
    for c in cubes {
        add(&mut set, &mut work, c);
    }
    while let Some(c) = work.pop() {
        // A cube absorbed since it was queued needs no pairing: every
        // consensus term it has lies within the absorbing cube or within
        // that cube's consensus with the same partner.
        if !set.contains(&c) {
            continue;
        }
        let terms: Vec<Cube> = set.iter().filter_map(|s| c.consensus(s)).collect();
        for t in terms {
            add(&mut set, &mut work, t);
        }
    }
    set.sort_unstable();
    set
}

/// Solves the prime-implicant covering problem for `onset`.
fn select_cover(n: usize, primes: &[Cube], onset: &[u64]) -> Cover {
    // Build the coverage matrix.
    let mut covering: Vec<Vec<usize>> = Vec::with_capacity(onset.len()); // minterm -> prime indices
    for &m in onset {
        let rows: Vec<usize> = primes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.covers_minterm(m).then_some(i))
            .collect();
        debug_assert!(!rows.is_empty(), "minterm {m} uncovered by any prime");
        covering.push(rows);
    }

    let mut chosen: Vec<usize> = Vec::new();
    let mut covered = vec![false; onset.len()];

    // Essential primes: sole cover of some minterm.
    loop {
        let mut changed = false;
        for (mi, rows) in covering.iter().enumerate() {
            if covered[mi] {
                continue;
            }
            let alive: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|p| !chosen.contains(p))
                .collect();
            if alive.len() == 1 {
                let p = alive[0];
                chosen.push(p);
                for (mj, v) in covered.iter_mut().enumerate() {
                    if primes[p].covers_minterm(onset[mj]) {
                        *v = true;
                    }
                }
                changed = true;
            } else if rows.iter().any(|p| chosen.contains(p)) {
                covered[mi] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let remaining: Vec<usize> = (0..onset.len()).filter(|&i| !covered[i]).collect();
    if !remaining.is_empty() {
        let extra = if primes.len() * remaining.len() <= EXACT_COVER_BUDGET && primes.len() <= 64 {
            cover_branch_bound(primes, onset, &remaining)
        } else {
            cover_greedy(primes, onset, &remaining)
        };
        chosen.extend(extra);
    }

    chosen.sort_unstable();
    chosen.dedup();
    Cover::from_cubes(n, chosen.into_iter().map(|i| primes[i]))
}

/// Greedy covering: repeatedly pick the prime covering the most uncovered
/// minterms (ties broken toward fewer literals).
fn cover_greedy(primes: &[Cube], onset: &[u64], remaining: &[usize]) -> Vec<usize> {
    let mut need: HashSet<usize> = remaining.iter().copied().collect();
    let mut out = Vec::new();
    while !need.is_empty() {
        let best = primes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let gain = need
                    .iter()
                    .filter(|&&mi| p.covers_minterm(onset[mi]))
                    .count();
                (gain, std::cmp::Reverse(p.literal_count()), i)
            })
            .max()
            .map(|(_, _, i)| i)
            .expect("nonempty primes");
        let gain: Vec<usize> = need
            .iter()
            .copied()
            .filter(|&mi| primes[best].covers_minterm(onset[mi]))
            .collect();
        assert!(!gain.is_empty(), "greedy covering stalled");
        for mi in gain {
            need.remove(&mi);
        }
        out.push(best);
    }
    out
}

/// Exact minimum-cardinality covering by branch-and-bound (cost = cube
/// count, tie-broken by literal count through the search order).
fn cover_branch_bound(primes: &[Cube], onset: &[u64], remaining: &[usize]) -> Vec<usize> {
    struct Ctx<'a> {
        primes: &'a [Cube],
        onset: &'a [u64],
        best: Vec<usize>,
    }
    fn recurse(ctx: &mut Ctx<'_>, need: &[usize], chosen: &mut Vec<usize>) {
        if chosen.len() + 1 >= ctx.best.len() && !ctx.best.is_empty() && !need.is_empty() {
            return; // cannot beat the incumbent
        }
        if need.is_empty() {
            if ctx.best.is_empty() || chosen.len() < ctx.best.len() {
                ctx.best = chosen.clone();
            }
            return;
        }
        // Branch on the hardest minterm (fewest candidate primes).
        let &target = need
            .iter()
            .min_by_key(|&&mi| {
                ctx.primes
                    .iter()
                    .filter(|p| p.covers_minterm(ctx.onset[mi]))
                    .count()
            })
            .expect("nonempty need");
        let mut candidates: Vec<usize> = ctx
            .primes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.covers_minterm(ctx.onset[target]).then_some(i))
            .collect();
        // Prefer primes covering more of the needed minterms.
        candidates.sort_by_key(|&i| {
            std::cmp::Reverse(
                need.iter()
                    .filter(|&&mi| ctx.primes[i].covers_minterm(ctx.onset[mi]))
                    .count(),
            )
        });
        for i in candidates {
            let rest: Vec<usize> = need
                .iter()
                .copied()
                .filter(|&mi| !ctx.primes[i].covers_minterm(ctx.onset[mi]))
                .collect();
            chosen.push(i);
            recurse(ctx, &rest, chosen);
            chosen.pop();
        }
    }

    let greedy = cover_greedy(primes, onset, remaining);
    let mut ctx = Ctx {
        primes,
        onset,
        best: greedy,
    };
    let mut chosen = Vec::new();
    recurse(&mut ctx, remaining, &mut chosen);
    ctx.best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_constant_functions() {
        let f0 = TruthTable::from_fn(3, |_| Some(false));
        assert!(minimize_exact(&f0).is_empty());
        let f1 = TruthTable::from_fn(3, |_| Some(true));
        let c = minimize_exact(&f1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.literal_count(), 0);
    }

    #[test]
    fn minimize_xor_stays_two_cubes() {
        let t = TruthTable::from_fn(2, |m| Some(m.count_ones() == 1));
        let c = minimize_exact(&t);
        assert_eq!(c.len(), 2);
        assert_eq!(c.literal_count(), 4);
        assert!(t.is_implemented_by(&c));
    }

    #[test]
    fn minimize_majority3() {
        let t = TruthTable::from_fn(3, |m| Some(m.count_ones() >= 2));
        let c = minimize_exact(&t);
        assert_eq!(c.len(), 3);
        assert_eq!(c.literal_count(), 6);
        assert!(t.is_implemented_by(&c));
    }

    #[test]
    fn dontcares_reduce_cost() {
        // f(abc): on = {7}, dc = {3,5,6} -> picking dc as 1 lets two-literal
        // or even single-literal cubes... primes over {3,5,6,7}:
        // 3=011,5=101,6=110,7=111 -> merges: 3-7 => -11, 5-7 => 1-1, 6-7 => 11-
        let t = TruthTable::from_sets(3, &[7], &[3, 5, 6]);
        let c = minimize_exact(&t);
        assert_eq!(c.len(), 1);
        assert_eq!(c.literal_count(), 2);
        assert!(t.is_implemented_by(&c));
    }

    #[test]
    fn classic_qm_example() {
        // Standard textbook instance: on = {4,8,10,11,12,15}, dc = {9,14}
        // (variables x3 x2 x1 x0 with x3 = MSB = bit 3).
        let t = TruthTable::from_sets(4, &[4, 8, 10, 11, 12, 15], &[9, 14]);
        let c = minimize_exact(&t);
        assert!(t.is_implemented_by(&c));
        // Known minimum: 3 cubes, e.g. x3x1' + x2x1'x0' + x3x1x0 variants
        // wait — canonical answer is BD' + AB' + AC (3 cubes, 7 literals)
        // under MSB-first labelling; we assert cost only.
        assert_eq!(c.len(), 3);
        assert!(c.literal_count() <= 8);
    }

    #[test]
    fn prime_generation_finds_maximal_cubes() {
        // f = x0 (on every odd minterm of 3 vars)
        let primes = prime_implicants(3, &[1, 3, 5, 7]);
        assert_eq!(primes, vec![Cube::from_literals(&[(0, true)])]);
    }

    #[test]
    fn every_prime_is_maximal() {
        let minterms = [0u64, 1, 2, 5, 6, 7, 8, 9, 10, 14];
        let primes = prime_implicants(4, &minterms);
        for (i, p) in primes.iter().enumerate() {
            for (j, q) in primes.iter().enumerate() {
                if i != j {
                    assert!(!q.covers(p), "{p:?} not maximal (inside {q:?})");
                }
            }
            // Every prime stays within on ∪ dc.
            for m in p.minterms(4) {
                assert!(minterms.contains(&m));
            }
        }
    }
}
