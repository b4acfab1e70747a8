//! Gate-equivalent area model for synthesized two-level logic.
//!
//! The paper's Table 1 reports control-unit area split into combinational
//! and sequential parts. Absolute μm² for a 2003 cell library are not
//! reproducible, so we use the standard *gate-equivalent* (GE) proxy:
//! a two-level implementation is costed from its AND-plane literals, its
//! OR-plane inputs, and shared input inverters, while the sequential part
//! is a fixed cost per flip-flop. Relative comparisons between controller
//! styles — which is what Table 1 argues — are preserved.

use crate::cover::Cover;

/// Cost coefficients (in gate equivalents) for the area model.
///
/// The defaults approximate a conventional standard-cell library where a
/// 2-input NAND is 1 GE and a scannable D flip-flop is ~22 GE — chosen so
/// that magnitudes land in the same range as the paper's Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaModel {
    /// Cost per AND-plane input (one literal of one product term).
    pub and_per_input: f64,
    /// Cost per OR-plane input (one product term of one output).
    pub or_per_input: f64,
    /// Cost of one input inverter (complemented literals share one
    /// inverter per variable across the whole block).
    pub inverter: f64,
    /// Cost of one D flip-flop.
    pub flip_flop: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            and_per_input: 2.0,
            or_per_input: 2.0,
            inverter: 1.0,
            flip_flop: 22.0,
        }
    }
}

/// Area report for one synthesized block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaReport {
    /// Combinational gate-equivalents (AND/OR planes + inverters).
    pub combinational: f64,
    /// Sequential gate-equivalents (flip-flops).
    pub sequential: f64,
    /// Number of flip-flops.
    pub flip_flops: usize,
    /// Total literals over all output covers.
    pub literals: u32,
    /// Total product terms over all output covers.
    pub cubes: usize,
}

impl AreaReport {
    /// Total area (combinational + sequential).
    pub fn total(&self) -> f64 {
        self.combinational + self.sequential
    }
}

impl AreaModel {
    /// Costs a multi-output two-level block given one minimized cover per
    /// output, plus `flip_flops` state bits.
    ///
    /// Input inverters are shared: each variable that appears complemented
    /// in *any* cube of *any* output contributes one inverter. Product terms
    /// are **not** shared between outputs (conservative, like PLA row
    /// duplication after single-output minimization).
    ///
    /// # Panics
    ///
    /// Panics if the covers disagree on variable count.
    pub fn area(&self, outputs: &[Cover], flip_flops: usize) -> AreaReport {
        let mut literals = 0u32;
        let mut cubes = 0usize;
        let mut and_inputs = 0u64;
        let mut or_inputs = 0u64;
        let mut neg_vars = 0u64; // bitmask of variables needing an inverter

        if let Some(first) = outputs.first() {
            for o in outputs {
                assert_eq!(o.num_vars(), first.num_vars(), "mixed variable counts");
            }
        }
        for cover in outputs {
            cubes += cover.len();
            literals += cover.literal_count();
            if cover.len() > 1 {
                or_inputs += cover.len() as u64;
            }
            for cube in cover.cubes() {
                if cube.literal_count() > 1 {
                    and_inputs += u64::from(cube.literal_count());
                }
                neg_vars |= cube.mask() & !cube.val();
            }
        }
        let combinational = self.and_per_input * and_inputs as f64
            + self.or_per_input * or_inputs as f64
            + self.inverter * neg_vars.count_ones() as f64;
        AreaReport {
            combinational,
            sequential: self.flip_flop * flip_flops as f64,
            flip_flops,
            literals,
            cubes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Cover;

    #[test]
    fn empty_block_costs_only_ffs() {
        let m = AreaModel::default();
        let r = m.area(&[], 3);
        assert_eq!(r.combinational, 0.0);
        assert_eq!(r.sequential, 66.0);
        assert_eq!(r.flip_flops, 3);
        assert_eq!(r.total(), 66.0);
    }

    #[test]
    fn single_literal_output_needs_no_gates() {
        let m = AreaModel::default();
        let f = Cover::parse_pcn(2, &["1-"]).unwrap();
        let r = m.area(&[f], 0);
        // One cube, one positive literal: no AND, no OR, no inverter.
        assert_eq!(r.combinational, 0.0);
        assert_eq!(r.literals, 1);
    }

    #[test]
    fn xor_costs_two_ands_one_or_two_inverters() {
        let m = AreaModel::default();
        let f = Cover::parse_pcn(2, &["10", "01"]).unwrap();
        let r = m.area(&[f], 0);
        // AND inputs: 2+2 = 4 -> 8; OR inputs: 2 -> 4; inverters: x0', x1' -> 2.
        assert_eq!(r.combinational, 8.0 + 4.0 + 2.0);
        assert_eq!(r.cubes, 2);
    }

    #[test]
    fn inverters_shared_across_outputs() {
        let m = AreaModel::default();
        let f = Cover::parse_pcn(2, &["0-"]).unwrap();
        let g = Cover::parse_pcn(2, &["01"]).unwrap();
        let r = m.area(&[f.clone(), g], 0);
        // x0' needed by both outputs, x1 positive: exactly 1 inverter.
        // f: single negative literal (no AND); g: 2-input AND (4).
        assert_eq!(r.combinational, 4.0 + 1.0);
        let solo = m.area(&[f], 0);
        assert_eq!(solo.combinational, 1.0);
    }
}
