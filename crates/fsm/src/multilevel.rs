//! Multi-level telescopic controllers — the paper's §6 generalization.
//!
//! A two-level TAU chooses between `SD` and `LD`. Nothing in Algorithm 1
//! is specific to two levels: a unit with delay thresholds
//! `t_1 < t_2 < ... < t_L = LD` exposes one completion signal per
//! intermediate level (`C`, `C2`, ..., `C{L-1}`), and the controller gains
//! one extension state per level (`S`, `S'`, `S''`, ...). The final level
//! completes unconditionally, exactly like `S'` in the two-level case.
//! The delay-level count is therefore an argument of the one Algorithm-1
//! generator, [`unit_controller_levels`](crate::unit_controller_levels):
//! 1 for a fixed-delay unit, 2 for the paper's TAUs, more here.

/// The completion input name for delay level `level` (1-based) of a unit:
/// level 1 is the classic `C_M1`, deeper levels are `C2_M1`, `C3_M1`, ...
pub fn level_completion(unit_name: &str, level: u32) -> String {
    if level <= 1 {
        format!("C_{unit_name}")
    } else {
        format!("C{level}_{unit_name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{unit_controller, unit_controller_levels, DistributedControlUnit};
    use crate::machine::Fsm;
    use crate::minimize::equivalent_behaviour;
    use tauhls_dfg::benchmarks::fig3_dfg;
    use tauhls_dfg::OpId;
    use tauhls_sched::{Allocation, BoundDfg, UnitId};

    fn fig3_bound() -> BoundDfg {
        BoundDfg::bind_explicit(
            &fig3_dfg(),
            &Allocation::paper(2, 2, 0),
            vec![
                vec![OpId(0), OpId(1)],
                vec![OpId(6), OpId(4), OpId(8)],
                vec![OpId(3), OpId(2)],
                vec![OpId(7), OpId(5)],
            ],
        )
        .unwrap()
    }

    /// Three levels on fig3's first multiplier.
    fn three_level(bound: &BoundDfg) -> Fsm {
        unit_controller_levels(bound, UnitId(0), 3, false)
    }

    #[test]
    fn two_levels_reduce_to_algorithm_one() {
        let bound = fig3_bound();
        let classic = unit_controller(&bound, UnitId(0));
        let multi = unit_controller_levels(&bound, UnitId(0), 2, false);
        multi.check().unwrap();
        assert_eq!(format!("{classic:?}"), format!("{multi:?}"));
        // The two-level bank is the distributed control unit itself.
        assert_eq!(
            format!("{:?}", DistributedControlUnit::generate(&bound)),
            format!(
                "{:?}",
                DistributedControlUnit::generate_multilevel(&bound, 2)
            )
        );
        assert!(equivalent_behaviour(&classic, &multi));
        assert_eq!(three_level(&bound).name(), "D-FSM-M1x3");
    }

    #[test]
    fn three_levels_add_one_extension_state_per_op() {
        let bound = fig3_bound();
        let multi = three_level(&bound);
        multi.check().unwrap();
        // Per op: S, S', S''; plus R1 -> 2*3 + 1 = 7 states.
        assert_eq!(multi.num_states(), 7);
        assert!(multi.state_by_name("S0''").is_some());
        assert!(multi.input_by_name("C_M1").is_some());
        assert!(multi.input_by_name("C2_M1").is_some());
        assert!(multi.input_by_name("C3_M1").is_none()); // final level is unconditional
    }

    #[test]
    fn three_level_walkthrough() {
        let bound = fig3_bound();
        let fsm = three_level(&bound);
        let s0 = fsm.state_by_name("S0").unwrap();
        let c1 = fsm.input_by_name("C_M1").unwrap();
        let c2 = fsm.input_by_name("C2_M1").unwrap();
        let c_po3 = fsm.input_by_name("C_CO(3)").unwrap();
        // Miss level 1, hit level 2, predecessors ready: complete in the
        // second cycle and advance to S1.
        let (s, outs) = fsm.step(s0, |_| false);
        assert_eq!(fsm.state_name(s), "S0'");
        assert_eq!(outs.len(), 1); // OF only
        let (s, outs) = fsm.step(s, |v| v == c2 || v == c_po3);
        assert_eq!(fsm.state_name(s), "S1");
        assert!(outs.len() >= 2); // completing outputs
                                  // Miss both intermediate levels: the final stage is unconditional.
        let (s, _) = fsm.step(s0, |_| false);
        let (s, _) = fsm.step(s, |_| false);
        assert_eq!(fsm.state_name(s), "S0''");
        let (s, outs) = fsm.step(s, |v| v == c_po3);
        assert_eq!(fsm.state_name(s), "S1");
        assert!(!outs.is_empty());
        // C1 short-cut still works.
        let (s, _) = fsm.step(s0, |v| v == c1 || v == c_po3);
        assert_eq!(fsm.state_name(s), "S1");
    }

    #[test]
    fn level_signal_names() {
        assert_eq!(level_completion("M1", 1), "C_M1");
        assert_eq!(level_completion("M1", 2), "C2_M1");
        assert_eq!(level_completion("M2", 3), "C3_M2");
    }
}
