//! Boolean guard expressions over indexed variables.
//!
//! Controller transitions are guarded by small boolean expressions over
//! completion signals (e.g. `C_M1' · C_PO(3)`). [`Expr`] is the AST used to
//! build those guards; it can be evaluated directly or lowered to a
//! sum-of-products [`Cover`] for synthesis.

use crate::cover::Cover;
use crate::cube::Cube;
use std::fmt;

/// A boolean expression over variables `x0, x1, ...`.
///
/// # Examples
///
/// ```
/// use tauhls_logic::Expr;
/// let g = Expr::var(0).and(Expr::var(1).not());
/// assert!(g.evaluate(|v| v == 0));
/// assert!(!g.evaluate(|_| true));
/// let cover = g.to_cover(2);
/// assert!(cover.evaluate(0b01));
/// assert!(!cover.evaluate(0b11));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Constant true or false.
    Const(bool),
    /// The variable with the given index.
    Var(usize),
    /// Negation.
    Not(Box<Expr>),
    /// Conjunction of all children (true when empty).
    And(Vec<Expr>),
    /// Disjunction of all children (false when empty).
    Or(Vec<Expr>),
}

impl Expr {
    /// The constant-true expression.
    pub const fn truth() -> Self {
        Expr::Const(true)
    }

    /// The constant-false expression.
    pub const fn falsity() -> Self {
        Expr::Const(false)
    }

    /// The variable `x{index}`.
    pub const fn var(index: usize) -> Self {
        Expr::Var(index)
    }

    /// Logical negation (with light simplification of constants and
    /// double negation).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            Expr::Const(b) => Expr::Const(!b),
            Expr::Not(e) => *e,
            e => Expr::Not(Box::new(e)),
        }
    }

    /// Logical conjunction (flattens nested conjunctions, folds constants).
    pub fn and(self, rhs: Expr) -> Self {
        match (self, rhs) {
            (Expr::Const(false), _) | (_, Expr::Const(false)) => Expr::Const(false),
            (Expr::Const(true), e) | (e, Expr::Const(true)) => e,
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), e) => {
                a.push(e);
                Expr::And(a)
            }
            (e, Expr::And(mut b)) => {
                b.insert(0, e);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// Logical disjunction (flattens nested disjunctions, folds constants).
    pub fn or(self, rhs: Expr) -> Self {
        match (self, rhs) {
            (Expr::Const(true), _) | (_, Expr::Const(true)) => Expr::Const(true),
            (Expr::Const(false), e) | (e, Expr::Const(false)) => e,
            (Expr::Or(mut a), Expr::Or(b)) => {
                a.extend(b);
                Expr::Or(a)
            }
            (Expr::Or(mut a), e) => {
                a.push(e);
                Expr::Or(a)
            }
            (e, Expr::Or(mut b)) => {
                b.insert(0, e);
                Expr::Or(b)
            }
            (a, b) => Expr::Or(vec![a, b]),
        }
    }

    /// Conjunction over an iterator of expressions.
    pub fn all(exprs: impl IntoIterator<Item = Expr>) -> Self {
        exprs.into_iter().fold(Expr::truth(), |acc, e| acc.and(e))
    }

    /// Disjunction over an iterator of expressions.
    pub fn any(exprs: impl IntoIterator<Item = Expr>) -> Self {
        exprs.into_iter().fold(Expr::falsity(), |acc, e| acc.or(e))
    }

    /// Evaluates under an assignment given as a predicate on variable index.
    pub fn evaluate(&self, assign: impl Fn(usize) -> bool + Copy) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(v) => assign(*v),
            Expr::Not(e) => !e.evaluate(assign),
            Expr::And(es) => es.iter().all(|e| e.evaluate(assign)),
            Expr::Or(es) => es.iter().any(|e| e.evaluate(assign)),
        }
    }

    /// The set of variable indices appearing in the expression.
    pub fn variables(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => out.push(*v),
            Expr::Not(e) => e.collect_vars(out),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
        }
    }

    /// Lowers the expression to a sum-of-products cover over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if the expression uses a variable `>= n`.
    pub fn to_cover(&self, n: usize) -> Cover {
        match self {
            Expr::Const(true) => Cover::tautology_cover(n),
            Expr::Const(false) => Cover::empty(n),
            Expr::Var(v) => Cover::from_cubes(n, [Cube::from_literals(&[(*v, true)])]),
            Expr::Not(e) => complement(&e.to_cover(n)),
            Expr::And(es) => {
                let mut acc = Cover::tautology_cover(n);
                for e in es {
                    acc = acc.and(&e.to_cover(n));
                    acc.remove_contained();
                }
                acc
            }
            Expr::Or(es) => {
                let mut acc = Cover::empty(n);
                for e in es {
                    acc = acc.or(&e.to_cover(n));
                }
                acc.remove_contained();
                acc
            }
        }
    }
}

/// Complements a cover by De Morgan expansion (product of complemented
/// cubes). Exponential in the worst case but guards are tiny.
fn complement(c: &Cover) -> Cover {
    let n = c.num_vars();
    let mut acc = Cover::tautology_cover(n);
    for cube in c.cubes() {
        // Complement of a single cube: sum of negated literals.
        let mut comp = Cover::empty(n);
        for v in 0..n {
            if let Some(pol) = cube.literal(v) {
                comp.push(Cube::from_literals(&[(v, !pol)]));
            }
        }
        if cube.literal_count() == 0 {
            return Cover::empty(n); // complement of tautology
        }
        acc = acc.and(&comp);
        acc.remove_contained();
    }
    acc
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(b) => write!(f, "{}", if *b { "1" } else { "0" }),
            Expr::Var(v) => write!(f, "x{v}"),
            Expr::Not(e) => write!(f, "({:?})'", e),
            Expr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    write!(f, "{e:?}")?;
                }
                write!(f, ")")
            }
            Expr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{e:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        assert_eq!(Expr::truth().and(Expr::var(3)), Expr::var(3));
        assert_eq!(Expr::falsity().and(Expr::var(3)), Expr::falsity());
        assert_eq!(Expr::falsity().or(Expr::var(3)), Expr::var(3));
        assert_eq!(Expr::truth().or(Expr::var(3)), Expr::truth());
        assert_eq!(Expr::var(1).not().not(), Expr::var(1));
    }

    #[test]
    fn cover_matches_evaluation() {
        let exprs = [
            Expr::var(0).and(Expr::var(1)).or(Expr::var(2).not()),
            Expr::all([Expr::var(0), Expr::var(1).not(), Expr::var(2)]),
            Expr::any([Expr::var(0).not(), Expr::var(2)]).not(),
            Expr::var(0)
                .and(Expr::var(1))
                .not()
                .or(Expr::var(2).and(Expr::var(0).not())),
        ];
        for e in &exprs {
            let c = e.to_cover(3);
            for m in 0..8u64 {
                assert_eq!(
                    c.evaluate(m),
                    e.evaluate(|v| m & (1 << v) != 0),
                    "mismatch for {e:?} at {m:#b}"
                );
            }
        }
    }

    #[test]
    fn variables_collected_sorted_unique() {
        let e = Expr::var(3).and(Expr::var(1)).or(Expr::var(3).not());
        assert_eq!(e.variables(), vec![1, 3]);
    }

    #[test]
    fn all_and_any_empty() {
        assert_eq!(Expr::all([]), Expr::truth());
        assert_eq!(Expr::any([]), Expr::falsity());
    }

    #[test]
    fn complement_of_tautology_is_empty() {
        let e = Expr::truth().not();
        assert!(e.to_cover(3).is_empty());
    }
}
