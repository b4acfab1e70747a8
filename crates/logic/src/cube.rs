//! Cubes: products of literals over up to 64 boolean variables.
//!
//! A [`Cube`] represents a product term in positional-cube style using two
//! bit masks: `mask` marks the *care* variables (those appearing as a
//! literal) and `val` gives the required polarity of each care variable.
//! Variables outside `mask` are don't-cares within the cube.

use std::fmt;

/// Maximum number of variables representable in a [`Cube`].
pub const MAX_VARS: usize = 64;

/// A product term over boolean variables `x0..x{n-1}`.
///
/// # Examples
///
/// ```
/// use tauhls_logic::Cube;
/// // x0 AND NOT x2 over any width >= 3
/// let c = Cube::from_literals(&[(0, true), (2, false)]);
/// assert!(c.covers_minterm(0b001));
/// assert!(c.covers_minterm(0b011));
/// assert!(!c.covers_minterm(0b101));
/// assert_eq!(c.literal_count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    mask: u64,
    val: u64,
}

impl Cube {
    /// The universal cube (true for every minterm): no literals at all.
    pub const fn universe() -> Self {
        Cube { mask: 0, val: 0 }
    }

    /// Creates a cube from raw care-mask and value bits.
    ///
    /// Bits of `val` outside `mask` are ignored (normalized to 0).
    pub const fn new(mask: u64, val: u64) -> Self {
        Cube {
            mask,
            val: val & mask,
        }
    }

    /// Creates a cube that covers exactly one minterm of an `n`-variable space.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn minterm(n: usize, m: u64) -> Self {
        assert!(n <= MAX_VARS, "minterm space wider than {MAX_VARS} vars");
        let mask = if n == MAX_VARS { !0 } else { (1u64 << n) - 1 };
        Cube {
            mask,
            val: m & mask,
        }
    }

    /// Builds a cube from `(variable index, polarity)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is `>= 64` or if the same variable appears
    /// with both polarities (an empty product is almost always a bug here;
    /// use [`Cover::empty`](crate::Cover::empty) for the constant-false
    /// function instead).
    pub fn from_literals(lits: &[(usize, bool)]) -> Self {
        let mut c = Cube::universe();
        for &(v, pol) in lits {
            assert!(v < MAX_VARS, "variable index {v} out of range");
            let bit = 1u64 << v;
            if c.mask & bit != 0 {
                assert_eq!(
                    c.val & bit != 0,
                    pol,
                    "variable {v} used with both polarities"
                );
            }
            c.mask |= bit;
            if pol {
                c.val |= bit;
            }
        }
        c
    }

    /// The care mask: bit `i` set iff variable `i` appears as a literal.
    pub const fn mask(&self) -> u64 {
        self.mask
    }

    /// The polarity bits for care variables (0 outside the mask).
    pub const fn val(&self) -> u64 {
        self.val
    }

    /// Number of literals in the product term.
    pub const fn literal_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Returns the polarity of variable `v`, or `None` if `v` is a don't-care.
    pub fn literal(&self, v: usize) -> Option<bool> {
        if self.mask & (1 << v) != 0 {
            Some(self.val & (1 << v) != 0)
        } else {
            None
        }
    }

    /// True iff the minterm `m` (bit `i` = value of variable `i`) satisfies
    /// this product term.
    pub const fn covers_minterm(&self, m: u64) -> bool {
        m & self.mask == self.val
    }

    /// True iff every minterm of `other` is also a minterm of `self`.
    pub const fn covers(&self, other: &Cube) -> bool {
        // `self`'s literals must be a subset of `other`'s and agree in value.
        self.mask & other.mask == self.mask && other.val & self.mask == self.val
    }

    /// Intersection of two cubes, or `None` if they are disjoint.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let conflict = (self.val ^ other.val) & self.mask & other.mask;
        if conflict != 0 {
            return None;
        }
        Some(Cube {
            mask: self.mask | other.mask,
            val: self.val | other.val,
        })
    }

    /// The number of variables on which the cubes have opposite polarities.
    ///
    /// Two cubes at distance 1 have a [consensus](Cube::consensus).
    pub const fn distance(&self, other: &Cube) -> u32 {
        ((self.val ^ other.val) & self.mask & other.mask).count_ones()
    }

    /// The consensus of two cubes at distance 1: every literal of both
    /// except the one variable on which they disagree (`x·a + x'·b` implies
    /// `a·b`). Returns `None` at any other distance.
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        let conflict = (self.val ^ other.val) & self.mask & other.mask;
        if conflict.count_ones() != 1 {
            return None;
        }
        let mask = (self.mask | other.mask) & !conflict;
        Some(Cube {
            mask,
            val: (self.val | other.val) & mask,
        })
    }

    /// Removes variable `v` from the product (raises it to don't-care).
    pub fn raise(&self, v: usize) -> Cube {
        let bit = 1u64 << v;
        Cube {
            mask: self.mask & !bit,
            val: self.val & !bit,
        }
    }

    /// Adds or overwrites the literal for variable `v`.
    pub fn with_literal(&self, v: usize, pol: bool) -> Cube {
        let bit = 1u64 << v;
        Cube {
            mask: self.mask | bit,
            val: if pol { self.val | bit } else { self.val & !bit },
        }
    }

    /// Iterates over all minterms of this cube within an `n`-variable space.
    ///
    /// Intended for small `n` (exhaustive algorithms); the iterator yields
    /// `2^(n - literals)` values.
    pub fn minterms(&self, n: usize) -> impl Iterator<Item = u64> + '_ {
        let space = if n == MAX_VARS {
            !0u64
        } else {
            (1u64 << n) - 1
        };
        let free = space & !self.mask;
        // Enumerate subsets of `free` via the standard (x - free) & free trick.
        let mut sub = Some(0u64);
        let val = self.val;
        std::iter::from_fn(move || {
            let s = sub?;
            sub = if s == free {
                None
            } else {
                Some((s.wrapping_sub(free)) & free)
            };
            Some(val | s)
        })
    }

    /// Renders the cube as a positional string over `n` variables,
    /// e.g. `"1-0"` for `x0·x2'` with `n = 3` (variable 0 leftmost).
    pub fn to_pcn_string(&self, n: usize) -> String {
        (0..n)
            .map(|v| match self.literal(v) {
                Some(true) => '1',
                Some(false) => '0',
                None => '-',
            })
            .collect()
    }

    /// Parses a positional-cube string such as `"1-0"`.
    ///
    /// Returns `None` on characters other than `0`, `1`, `-` or on length
    /// greater than [`MAX_VARS`].
    pub fn parse_pcn(s: &str) -> Option<Cube> {
        if s.len() > MAX_VARS {
            return None;
        }
        let mut c = Cube::universe();
        for (v, ch) in s.chars().enumerate() {
            match ch {
                '1' => c = c.with_literal(v, true),
                '0' => c = c.with_literal(v, false),
                '-' => {}
                _ => return None,
            }
        }
        Some(c)
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask == 0 {
            return write!(f, "Cube(1)");
        }
        write!(f, "Cube(")?;
        let mut first = true;
        for v in 0..MAX_VARS {
            if let Some(pol) = self.literal(v) {
                if !first {
                    write!(f, "·")?;
                }
                first = false;
                write!(f, "x{v}{}", if pol { "" } else { "'" })?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_covers_everything() {
        let u = Cube::universe();
        for m in 0..16 {
            assert!(u.covers_minterm(m));
        }
        assert_eq!(u.literal_count(), 0);
    }

    #[test]
    fn minterm_cube_covers_only_itself() {
        let c = Cube::minterm(4, 0b1010);
        assert!(c.covers_minterm(0b1010));
        for m in 0..16 {
            if m != 0b1010 {
                assert!(!c.covers_minterm(m), "covered {m:04b}");
            }
        }
    }

    #[test]
    fn from_literals_roundtrip() {
        let c = Cube::from_literals(&[(1, true), (3, false)]);
        assert_eq!(c.literal(1), Some(true));
        assert_eq!(c.literal(3), Some(false));
        assert_eq!(c.literal(0), None);
        assert_eq!(c.literal_count(), 2);
    }

    #[test]
    #[should_panic(expected = "both polarities")]
    fn conflicting_literals_panic() {
        let _ = Cube::from_literals(&[(1, true), (1, false)]);
    }

    #[test]
    fn covers_relation() {
        let big = Cube::from_literals(&[(0, true)]);
        let small = Cube::from_literals(&[(0, true), (1, false)]);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.covers(&big));
    }

    #[test]
    fn intersect_and_disjoint() {
        let a = Cube::from_literals(&[(0, true)]);
        let b = Cube::from_literals(&[(1, false)]);
        let c = a.intersect(&b).unwrap();
        assert_eq!(c, Cube::from_literals(&[(0, true), (1, false)]));
        let d = Cube::from_literals(&[(0, false)]);
        assert!(a.intersect(&d).is_none());
    }

    #[test]
    fn consensus_drops_the_conflicting_variable() {
        // Adjacent cubes merge: 10-1 + 11-1 = 1--1.
        let a = Cube::parse_pcn("10-1").unwrap();
        let b = Cube::parse_pcn("11-1").unwrap();
        assert_eq!(a.consensus(&b), Some(Cube::parse_pcn("1--1").unwrap()));
        // Different masks keep the union of the other literals:
        // x0·x1' + x0'·x2 implies x1'·x2.
        let c = Cube::parse_pcn("10--").unwrap();
        let d = Cube::parse_pcn("0-1-").unwrap();
        assert_eq!(c.consensus(&d), Some(Cube::parse_pcn("-01-").unwrap()));
        // Distance 0 and distance 2 have no consensus.
        assert!(a.consensus(&a).is_none());
        assert!(a.consensus(&Cube::parse_pcn("01-0").unwrap()).is_none());
    }

    #[test]
    fn minterm_enumeration_matches_count() {
        let c = Cube::parse_pcn("1--0").unwrap();
        let ms: Vec<u64> = c.minterms(4).collect();
        assert_eq!(ms.len(), 1 << (4 - c.literal_count()));
        for m in &ms {
            assert!(c.covers_minterm(*m));
        }
        // all distinct
        let mut s = ms.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), ms.len());
    }

    #[test]
    fn pcn_string_roundtrip() {
        for s in ["1-0", "----", "1111", "0"] {
            let c = Cube::parse_pcn(s).unwrap();
            assert_eq!(c.to_pcn_string(s.len()), s);
        }
        assert!(Cube::parse_pcn("10x").is_none());
    }

    #[test]
    fn distance_counts_conflicts() {
        let a = Cube::parse_pcn("110").unwrap();
        let b = Cube::parse_pcn("001").unwrap();
        assert_eq!(a.distance(&b), 3);
        assert_eq!(a.distance(&a), 0);
    }

    #[test]
    fn raise_removes_literal() {
        let a = Cube::parse_pcn("101").unwrap();
        assert_eq!(a.raise(1), Cube::parse_pcn("1-1").unwrap());
        assert_eq!(a.raise(1).raise(0).raise(2), Cube::universe());
    }
}
