//! Covers: sums of product terms (two-level SOP representations).

use crate::cube::Cube;
use std::fmt;

/// A sum-of-products representation of a single-output boolean function
/// over `num_vars` variables.
///
/// # Examples
///
/// ```
/// use tauhls_logic::{Cover, Cube};
/// let mut f = Cover::empty(3);
/// f.push(Cube::parse_pcn("1--").unwrap()); // x0
/// f.push(Cube::parse_pcn("-11").unwrap()); // x1·x2
/// assert!(f.evaluate(0b001)); // x0 = 1
/// assert!(f.evaluate(0b110)); // x1 = x2 = 1
/// assert!(!f.evaluate(0b010));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Cover {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The constant-false function over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn empty(n: usize) -> Self {
        assert!(n <= crate::cube::MAX_VARS);
        Cover {
            num_vars: n,
            cubes: Vec::new(),
        }
    }

    /// The constant-true function over `n` variables.
    pub fn tautology_cover(n: usize) -> Self {
        let mut c = Cover::empty(n);
        c.push(Cube::universe());
        c
    }

    /// Builds a cover from a list of cubes.
    pub fn from_cubes(n: usize, cubes: impl IntoIterator<Item = Cube>) -> Self {
        let mut c = Cover::empty(n);
        for cube in cubes {
            c.push(cube);
        }
        c
    }

    /// Parses a cover from positional-cube strings (one per product term).
    ///
    /// Returns `None` if any row fails to parse or has the wrong width.
    pub fn parse_pcn(n: usize, rows: &[&str]) -> Option<Self> {
        let mut c = Cover::empty(n);
        for r in rows {
            if r.len() != n {
                return None;
            }
            c.push(Cube::parse_pcn(r)?);
        }
        Some(c)
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The product terms.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of product terms.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True iff the cover has no product terms (constant false).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Appends a product term.
    ///
    /// # Panics
    ///
    /// Panics if the cube uses a variable `>= num_vars`.
    pub fn push(&mut self, cube: Cube) {
        let space = if self.num_vars == 64 {
            !0u64
        } else {
            (1u64 << self.num_vars) - 1
        };
        assert!(
            cube.mask() & !space == 0,
            "cube uses variables outside the {}-variable space",
            self.num_vars
        );
        self.cubes.push(cube);
    }

    /// Evaluates the function at minterm `m`.
    pub fn evaluate(&self, m: u64) -> bool {
        self.cubes.iter().any(|c| c.covers_minterm(m))
    }

    /// Total number of literals over all product terms (the primary
    /// combinational-area proxy).
    pub fn literal_count(&self) -> u32 {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Disjunction with another cover over the same variables.
    ///
    /// # Panics
    ///
    /// Panics on mismatched variable counts.
    pub fn or(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars);
        let mut c = self.clone();
        c.cubes.extend_from_slice(&other.cubes);
        c
    }

    /// Conjunction with another cover (pairwise cube intersections).
    ///
    /// # Panics
    ///
    /// Panics on mismatched variable counts.
    pub fn and(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars);
        let mut out = Cover::empty(self.num_vars);
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.intersect(b) {
                    out.cubes.push(c);
                }
            }
        }
        out
    }

    /// Removes product terms single-cube-contained in another term of the
    /// cover. Cheap cleanup; not a full irredundancy pass.
    pub fn remove_contained(&mut self) {
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        'outer: for (i, c) in cubes.iter().enumerate() {
            for (j, d) in cubes.iter().enumerate() {
                if i != j && d.covers(c) && (!c.covers(d) || j < i) {
                    continue 'outer;
                }
            }
            kept.push(*c);
        }
        self.cubes = kept;
    }

    /// Shannon cofactor with respect to a single literal: the function with
    /// variable `v` fixed to `pol`, expressed over the same variable space
    /// (variable `v` no longer appears).
    pub fn cofactor_literal(&self, v: usize, pol: bool) -> Cover {
        let mut out = Cover::empty(self.num_vars);
        for c in &self.cubes {
            match c.literal(v) {
                Some(p) if p != pol => {} // conflicting term vanishes
                _ => out.cubes.push(c.raise(v)),
            }
        }
        out
    }

    /// Cofactor with respect to a cube `q` (the cover restricted to the
    /// subspace where `q` holds, with `q`'s variables raised).
    pub fn cofactor_cube(&self, q: &Cube) -> Cover {
        let mut out = Cover::empty(self.num_vars);
        'next: for c in &self.cubes {
            let mut r = *c;
            for v in 0..self.num_vars {
                if let Some(pq) = q.literal(v) {
                    match r.literal(v) {
                        Some(pc) if pc != pq => continue 'next,
                        _ => r = r.raise(v),
                    }
                }
            }
            out.cubes.push(r);
        }
        out
    }

    /// True iff the cover evaluates to 1 for *every* minterm (tautology).
    ///
    /// Uses recursive Shannon expansion on the most-bound variable — the
    /// standard unate-recursive paradigm — so it does not enumerate the
    /// minterm space.
    pub fn is_tautology(&self) -> bool {
        // Fast outs.
        if self.cubes.iter().any(|c| c.literal_count() == 0) {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        // Unate reduction: for a cover unate in v (say, only positive
        // occurrences), F(v=0) <= F(v=1) pointwise, so F is a tautology iff
        // the cofactor at the *weak* polarity (v = 0) is.
        let mut pos = 0u64;
        let mut neg = 0u64;
        for c in &self.cubes {
            pos |= c.mask() & c.val();
            neg |= c.mask() & !c.val();
        }
        let used = pos | neg;
        let unate_pos = pos & !neg;
        let unate_neg = neg & !pos;
        if unate_pos != 0 {
            let v = unate_pos.trailing_zeros() as usize;
            return self.cofactor_literal(v, false).is_tautology();
        }
        if unate_neg != 0 {
            let v = unate_neg.trailing_zeros() as usize;
            return self.cofactor_literal(v, true).is_tautology();
        }
        // Binate: split on the most frequently used binate variable.
        let mut best = usize::MAX;
        let mut best_cnt = 0u32;
        for v in 0..self.num_vars {
            if used & (1 << v) != 0 {
                let cnt = self.cubes.iter().filter(|c| c.literal(v).is_some()).count() as u32;
                if cnt > best_cnt {
                    best_cnt = cnt;
                    best = v;
                }
            }
        }
        debug_assert!(best != usize::MAX);
        self.cofactor_literal(best, false).is_tautology()
            && self.cofactor_literal(best, true).is_tautology()
    }

    /// True iff every minterm of `cube` is covered by this cover.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        self.cofactor_cube(cube).is_tautology()
    }

    /// True iff the two covers denote the same function.
    pub fn equivalent(&self, other: &Cover) -> bool {
        assert_eq!(self.num_vars, other.num_vars);
        self.cubes.iter().all(|c| other.covers_cube(c))
            && other.cubes.iter().all(|c| self.covers_cube(c))
    }

    /// The complement cover, computed by the unate-recursive paradigm:
    /// `¬F = x'·¬F|x=0 + x·¬F|x=1` on a most-bound splitting variable,
    /// with tautology/empty short-circuits. No minterm enumeration.
    ///
    /// # Examples
    ///
    /// ```
    /// use tauhls_logic::Cover;
    /// let f = Cover::parse_pcn(3, &["11-", "--1"]).unwrap();
    /// let g = f.complement();
    /// for m in 0..8 {
    ///     assert_eq!(g.evaluate(m), !f.evaluate(m));
    /// }
    /// ```
    pub fn complement(&self) -> Cover {
        let n = self.num_vars;
        if self.cubes.is_empty() {
            return Cover::tautology_cover(n);
        }
        if self.cubes.iter().any(|c| c.literal_count() == 0) {
            return Cover::empty(n);
        }
        // Single-cube fast path: De Morgan.
        if self.cubes.len() == 1 {
            let cube = self.cubes[0];
            let mut out = Cover::empty(n);
            for v in 0..n {
                if let Some(pol) = cube.literal(v) {
                    out.push(Cube::from_literals(&[(v, !pol)]));
                }
            }
            return out;
        }
        // Split on the most frequently used variable.
        let mut best = 0usize;
        let mut best_cnt = 0usize;
        for v in 0..n {
            let cnt = self.cubes.iter().filter(|c| c.literal(v).is_some()).count();
            if cnt > best_cnt {
                best_cnt = cnt;
                best = v;
            }
        }
        let f0 = self.cofactor_literal(best, false).complement();
        let f1 = self.cofactor_literal(best, true).complement();
        let mut out = Cover::empty(n);
        for c in f0.cubes() {
            out.push(c.with_literal(best, false));
        }
        for c in f1.cubes() {
            out.push(c.with_literal(best, true));
        }
        out.remove_contained();
        out
    }

    /// Enumerates the on-set, ascending, by marking every cube's minterms.
    /// Only sensible for small `n`.
    pub fn onset_minterms(&self) -> Vec<u64> {
        assert!(self.num_vars <= 24, "onset enumeration limited to 24 vars");
        let mut on = vec![false; 1 << self.num_vars];
        for c in &self.cubes {
            for m in c.minterms(self.num_vars) {
                on[m as usize] = true;
            }
        }
        (0..1u64 << self.num_vars)
            .filter(|&m| on[m as usize])
            .collect()
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cover({} vars, {} cubes):",
            self.num_vars,
            self.cubes.len()
        )?;
        for c in &self.cubes {
            writeln!(f, "  {}", c.to_pcn_string(self.num_vars))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2() -> Cover {
        Cover::parse_pcn(2, &["10", "01"]).unwrap()
    }

    #[test]
    fn evaluate_xor() {
        let f = xor2();
        assert!(!f.evaluate(0b00));
        assert!(f.evaluate(0b01));
        assert!(f.evaluate(0b10));
        assert!(!f.evaluate(0b11));
        assert_eq!(f.literal_count(), 4);
    }

    #[test]
    fn tautology_detection() {
        assert!(Cover::tautology_cover(4).is_tautology());
        assert!(!xor2().is_tautology());
        // x + x' is a tautology.
        let f = Cover::parse_pcn(1, &["1", "0"]).unwrap();
        assert!(f.is_tautology());
        // Three-variable tautology needing recursion: a + a'b + a'b'.
        let g = Cover::parse_pcn(3, &["1--", "01-", "00-"]).unwrap();
        assert!(g.is_tautology());
        // Drop one term -> not a tautology.
        let h = Cover::parse_pcn(3, &["1--", "01-"]).unwrap();
        assert!(!h.is_tautology());
        assert!(!Cover::empty(3).is_tautology());
    }

    #[test]
    fn covers_cube_and_equivalence() {
        let f = Cover::parse_pcn(3, &["1--", "-1-"]).unwrap();
        assert!(f.covers_cube(&Cube::parse_pcn("11-").unwrap()));
        assert!(f.covers_cube(&Cube::parse_pcn("10-").unwrap()));
        assert!(!f.covers_cube(&Cube::parse_pcn("00-").unwrap()));
        let g = Cover::parse_pcn(3, &["-1-", "1--", "11-"]).unwrap();
        assert!(f.equivalent(&g));
        let h = Cover::parse_pcn(3, &["-1-"]).unwrap();
        assert!(!f.equivalent(&h));
    }

    #[test]
    fn and_or_match_semantics() {
        let a = Cover::parse_pcn(3, &["1--"]).unwrap();
        let b = Cover::parse_pcn(3, &["-1-", "--1"]).unwrap();
        let and = a.and(&b);
        let or = a.or(&b);
        for m in 0..8u64 {
            assert_eq!(and.evaluate(m), a.evaluate(m) && b.evaluate(m));
            assert_eq!(or.evaluate(m), a.evaluate(m) || b.evaluate(m));
        }
    }

    #[test]
    fn cofactor_literal_semantics() {
        let f = Cover::parse_pcn(3, &["10-", "0-1"]).unwrap();
        let f0 = f.cofactor_literal(0, false);
        let f1 = f.cofactor_literal(0, true);
        for m in 0..8u64 {
            // Cofactor ignores bit 0 of m by construction.
            assert_eq!(f0.evaluate(m & !1), f.evaluate(m & !1));
            assert_eq!(f1.evaluate(m | 1), f.evaluate(m | 1));
        }
    }

    #[test]
    fn remove_contained_keeps_function() {
        let mut f = Cover::parse_pcn(3, &["1--", "11-", "111", "0-0"]).unwrap();
        let orig = f.clone();
        f.remove_contained();
        assert_eq!(f.len(), 2);
        assert!(f.equivalent(&orig));
    }

    #[test]
    fn remove_contained_handles_duplicates() {
        let mut f = Cover::parse_pcn(2, &["1-", "1-"]).unwrap();
        f.remove_contained();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn onset_enumeration() {
        let f = xor2();
        assert_eq!(f.onset_minterms(), vec![1, 2]);
    }

    #[test]
    fn complement_correct_on_random_covers() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            let n = rng.random_range(1..=6usize);
            let cubes = rng.random_range(0..6usize);
            let mut f = Cover::empty(n);
            for _ in 0..cubes {
                let mask = rng.random_range(0..1u64 << n);
                let val = rng.random_range(0..1u64 << n);
                f.push(Cube::new(mask, val));
            }
            let g = f.complement();
            for m in 0..1u64 << n {
                assert_eq!(g.evaluate(m), !f.evaluate(m), "n={n} m={m:#b}");
            }
            // Double complement preserves the function.
            let h = g.complement();
            assert!(h.equivalent(&f));
        }
    }

    #[test]
    fn complement_edge_cases() {
        assert!(Cover::empty(4).complement().is_tautology());
        assert!(Cover::tautology_cover(4).complement().is_empty());
        let single = Cover::parse_pcn(3, &["10-"]).unwrap();
        let c = single.complement();
        assert_eq!(c.len(), 2); // x0' + x1
        for m in 0..8u64 {
            assert_eq!(c.evaluate(m), !single.evaluate(m));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_rejects_wide_cube() {
        let mut f = Cover::empty(2);
        f.push(Cube::from_literals(&[(5, true)]));
    }
}
