//! The minterm Quine–McCluskey prime generator, kept as the oracle for the
//! cube-based one: start from the minterms of the on-set ∪ dc-set, merge
//! adjacent cubes level by level, and keep every cube that never merged.
//! Each cube looks its partners up by hash (flip one zero literal to one),
//! so a level costs its size times the width instead of all pairs.

use std::collections::HashSet;
use tauhls_logic::Cube;

/// All prime implicants of the `n`-variable function whose on-set ∪
/// dc-set is `minterms`, sorted.
pub fn qm_primes(n: usize, minterms: &[u64]) -> Vec<Cube> {
    let mut level: HashSet<Cube> = minterms.iter().map(|&m| Cube::minterm(n, m)).collect();
    let mut primes = Vec::new();
    while !level.is_empty() {
        let mut merged = HashSet::new();
        let mut next = HashSet::new();
        for c in &level {
            for v in 0..n {
                let bit = 1u64 << v;
                if c.mask() & bit == 0 || c.val() & bit != 0 {
                    continue;
                }
                let partner = Cube::new(c.mask(), c.val() | bit);
                if level.contains(&partner) {
                    merged.insert(*c);
                    merged.insert(partner);
                    next.insert(c.raise(v));
                }
            }
        }
        // A cube of dimension k is prime iff no implicant of dimension
        // k + 1 contains it, i.e. iff it has no partner in its level.
        primes.extend(level.iter().filter(|c| !merged.contains(c)));
        level = next;
    }
    primes.sort_unstable();
    primes
}
