//! Completion models: how a simulated TAU decides short vs long.

use rand::Rng;
use tauhls_datapath::{ArrayMultiplier, RippleCarryAdder, RippleCarrySubtractor, Tau};
use tauhls_dfg::OpKind;

/// Telescopic datapath instances per operation kind, used by the
/// operand-driven completion model.
#[derive(Clone, Debug)]
pub struct TauLibrary {
    /// Telescoped multiplier (used for [`OpKind::Mul`]).
    pub mul: Option<Tau<ArrayMultiplier>>,
    /// Telescoped adder (used for [`OpKind::Add`]).
    pub add: Option<Tau<RippleCarryAdder>>,
    /// Telescoped subtractor (used for [`OpKind::Sub`] / [`OpKind::Lt`]).
    pub sub: Option<Tau<RippleCarrySubtractor>>,
    /// Operand width used to mask values before delay evaluation.
    pub width: u32,
}

impl TauLibrary {
    /// The paper-style configuration: only the multiplier is telescopic.
    /// `short_levels` is the multiplier's SD threshold in gate levels.
    pub fn multiplier_only(width: u32, short_levels: u32) -> Self {
        TauLibrary {
            mul: Some(Tau::new(ArrayMultiplier::new(width), short_levels)),
            add: None,
            sub: None,
            width,
        }
    }

    /// The completion signal for an operation executing on a telescopic
    /// unit, or `None` if the kind is not telescoped in this library.
    pub fn completion(&self, kind: OpKind, a: i64, b: i64) -> Option<bool> {
        let mask = if self.width >= 64 {
            !0u64
        } else {
            (1u64 << self.width) - 1
        };
        let (au, bu) = (a as u64 & mask, b as u64 & mask);
        match kind {
            OpKind::Mul => self.mul.as_ref().map(|t| t.completion(au, bu)),
            OpKind::Add => self.add.as_ref().map(|t| t.completion(au, bu)),
            OpKind::Sub | OpKind::Lt => self.sub.as_ref().map(|t| t.completion(au, bu)),
        }
    }
}

/// How completion signals are produced during simulation.
#[derive(Clone, Debug)]
pub enum CompletionModel {
    /// Every telescopic operation completes short with probability `p`,
    /// independently (the paper's analytic sweep parameter).
    Bernoulli {
        /// Short-completion probability in `[0, 1]`.
        p: f64,
    },
    /// Every operation completes short — the best case.
    AlwaysShort,
    /// Every operation needs the long delay — the worst case.
    AlwaysLong,
    /// A fixed outcome per operation (indexed by [`tauhls_dfg::OpId`]) —
    /// used to drive two controller styles with *identical* completion
    /// draws for a fair (coupled) latency comparison.
    Table(Vec<bool>),
    /// Completion computed from actual operand values through bit-level
    /// telescopic units.
    OperandDriven(TauLibrary),
}

impl CompletionModel {
    /// Draws a per-operation completion table for [`CompletionModel::Table`].
    pub fn draw_table(num_ops: usize, p: f64, rng: &mut impl Rng) -> Self {
        CompletionModel::Table((0..num_ops).map(|_| rng.random_bool(p)).collect())
    }

    /// Validates the model against a DFG of `num_ops` operations.
    ///
    /// A [`CompletionModel::Table`] shorter than the op-id universe would
    /// panic on the first out-of-range draw (sparse ids, or a user-built
    /// table), breaking the crate's panic-free contract; the simulators
    /// surface this as [`crate::SimError::InvalidConfig`] at entry
    /// instead. So is a [`CompletionModel::Bernoulli`] `p` outside
    /// `[0, 1]` (NaN included), which the first draw would panic on.
    pub fn validate(&self, num_ops: usize) -> Result<(), String> {
        match self {
            CompletionModel::Table(t) if t.len() < num_ops => Err(format!(
                "completion table has {} entries but the DFG has {num_ops} operations",
                t.len()
            )),
            CompletionModel::Bernoulli { p } if !(0.0..=1.0).contains(p) => {
                Err(format!("Bernoulli P = {p} is outside [0, 1]"))
            }
            _ => Ok(()),
        }
    }

    /// Checks a swept `P` list before anything draws from it: every value
    /// must be a probability (see [`CompletionModel::validate`]).
    pub(crate) fn check_p_values(p_values: &[f64]) -> Result<(), crate::SimError> {
        p_values
            .iter()
            .try_for_each(|&p| CompletionModel::Bernoulli { p }.validate(0))
            .map_err(crate::SimError::InvalidConfig)
    }

    /// Draws/computes the completion signal for one telescopic operation.
    ///
    /// `op` identifies the operation (used by the table model); `a`/`b` are
    /// the operand values (used only by the operand-driven model).
    pub fn completion(
        &self,
        op: tauhls_dfg::OpId,
        kind: OpKind,
        a: i64,
        b: i64,
        rng: &mut impl Rng,
    ) -> bool {
        self.fixed_completion(op, kind, a, b)
            .unwrap_or_else(|p| rng.random_bool(p))
    }

    /// The completion signal of a model that draws nothing, or `Err(p)`:
    /// the probability a [`CompletionModel::Bernoulli`] model draws it
    /// with.
    pub(crate) fn fixed_completion(
        &self,
        op: tauhls_dfg::OpId,
        kind: OpKind,
        a: i64,
        b: i64,
    ) -> Result<bool, f64> {
        match self {
            CompletionModel::Bernoulli { p } => Err(*p),
            CompletionModel::AlwaysShort => Ok(true),
            CompletionModel::AlwaysLong => Ok(false),
            CompletionModel::Table(t) => Ok(t[op.0]),
            CompletionModel::OperandDriven(lib) => {
                // A kind without a telescopic instance behaves fixed-delay
                // (always completes in its single cycle).
                Ok(lib.completion(kind, a, b).unwrap_or(true))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_rate_close_to_p() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = CompletionModel::Bernoulli { p: 0.7 };
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| m.completion(tauhls_dfg::OpId(0), OpKind::Mul, 0, 0, &mut rng))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(CompletionModel::AlwaysShort.completion(
            tauhls_dfg::OpId(0),
            OpKind::Mul,
            9,
            9,
            &mut rng
        ));
        assert!(!CompletionModel::AlwaysLong.completion(
            tauhls_dfg::OpId(0),
            OpKind::Mul,
            9,
            9,
            &mut rng
        ));
    }

    #[test]
    fn operand_driven_tracks_magnitude() {
        let mut rng = StdRng::seed_from_u64(3);
        let lib = TauLibrary::multiplier_only(16, 20);
        let m = CompletionModel::OperandDriven(lib);
        assert!(m.completion(tauhls_dfg::OpId(0), OpKind::Mul, 3, 5, &mut rng));
        assert!(!m.completion(tauhls_dfg::OpId(0), OpKind::Mul, 0x7FFF, 0x7FFF, &mut rng));
        // Adds are fixed-delay in the multiplier-only library.
        assert!(m.completion(tauhls_dfg::OpId(0), OpKind::Add, 0x7FFF, 0x7FFF, &mut rng));
    }

    #[test]
    fn negative_operands_masked() {
        let mut rng = StdRng::seed_from_u64(4);
        let lib = TauLibrary::multiplier_only(16, 20);
        let m = CompletionModel::OperandDriven(lib);
        // -1 masks to 0xFFFF: a full-width operand, long delay.
        assert!(!m.completion(tauhls_dfg::OpId(0), OpKind::Mul, -1, -1, &mut rng));
    }
}
