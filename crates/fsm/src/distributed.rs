//! Algorithm 1: derivation of an arithmetic unit controller FSM from a
//! scheduled-and-bound DFG (paper §4.2, Fig 5/6), and the distributed
//! global control unit as the set of all unit controllers (Fig 7).

use crate::machine::{Fsm, StateId};
use crate::multilevel::level_completion;
use tauhls_logic::Expr;
use tauhls_sched::{BoundDfg, UnitId};

/// Signal-name helpers shared by generation, composition and simulation.
pub mod signals {
    use tauhls_dfg::OpId;

    /// The completion input of a telescopic unit, e.g. `C_M1`.
    pub fn unit_completion(unit_name: &str) -> String {
        format!("C_{unit_name}")
    }

    /// The completion signal of an operation, e.g. `C_CO(3)` — an output of
    /// the producing controller and an input (`C_PO`) of consumers.
    pub fn op_completion(op: OpId) -> String {
        format!("C_CO({})", op.0)
    }

    /// The operand-fetch output of an operation, e.g. `OF3`.
    pub fn operand_fetch(op: OpId) -> String {
        format!("OF{}", op.0)
    }

    /// The register-enable output of an operation, e.g. `RE3`.
    pub fn register_enable(op: OpId) -> String {
        format!("RE{}", op.0)
    }
}

/// Generates the arithmetic unit controller for one unit of a bound DFG
/// (Algorithm 1 for TAUs; the reduced form without `S_i'` states for
/// fixed-delay units).
///
/// States follow the paper's naming: `S{op}` (execute, short half),
/// `S{op}'` (long-delay extension, TAUs only), `R{op}` (ready-wait, only
/// when the operation has cross-unit direct predecessors). The controller
/// cycles through its operation sequence and wraps around for repetitive
/// DFG execution.
///
/// # Panics
///
/// Panics if the unit has no bound operations (an unused unit needs no
/// controller).
pub fn unit_controller(bound: &BoundDfg, unit: UnitId) -> Fsm {
    unit_controller_opts(bound, unit, false)
}

/// Like [`unit_controller`], but `single_shot = true` generates a
/// one-iteration controller ending in an absorbing `DONE` state instead of
/// wrapping around. The single-shot variants are what the centralized
/// product (CENT-FSM, Fig 4a) is built from, so its state count reflects
/// one DFG iteration rather than the phase drift of independently looping
/// components.
///
/// # Panics
///
/// Panics if the unit has no bound operations.
pub fn unit_controller_opts(bound: &BoundDfg, unit: UnitId, single_shot: bool) -> Fsm {
    let levels = if bound.allocation().units()[unit.0].telescopic {
        2
    } else {
        1
    };
    unit_controller_levels(bound, unit, levels, single_shot)
}

/// Algorithm 1 for a unit with `levels` delay levels: 1 for a fixed-delay
/// unit, 2 for a TAU (`SD`/`LD`), more for the paper's §6 multi-level
/// TAUs (see the `multilevel` module).
///
/// Each operation gets one stage state per level, `S{op}`, `S{op}'`,
/// `S{op}''`, ...; level `l < levels` completes when its completion input
/// ([`level_completion`]) is high, the last level unconditionally. Ready
/// states, the cross-unit completion protocol and `single_shot` are as in
/// [`unit_controller_opts`]. Machines with more than two levels are named
/// `D-FSM-{unit}x{levels}`.
///
/// # Panics
///
/// Panics if the unit has no bound operations, if `levels` is 0, or if a
/// fixed-delay unit is given more than one level.
pub fn unit_controller_levels(
    bound: &BoundDfg,
    unit: UnitId,
    levels: u32,
    single_shot: bool,
) -> Fsm {
    let seq = bound.sequence(unit);
    assert!(!seq.is_empty(), "unit has no bound operations");
    let udesc = &bound.allocation().units()[unit.0];
    assert!(levels >= 1, "a unit has at least one delay level");
    assert!(
        levels == 1 || udesc.telescopic,
        "multi-level controllers are for TAUs"
    );
    let uname = udesc.display_name();

    let mut fsm = Fsm::new(if levels > 2 {
        format!("D-FSM-{uname}x{levels}")
    } else {
        format!("D-FSM-{uname}")
    });

    // States: one stage state per level and op, R_i when the op has preds.
    let n = seq.len();
    let stage: Vec<Vec<StateId>> = seq
        .iter()
        .map(|&op| {
            (0..levels as usize)
                .map(|l| fsm.add_state(format!("S{}{}", op.0, "'".repeat(l))))
                .collect()
        })
        .collect();
    let r_state: Vec<Option<StateId>> = seq
        .iter()
        .map(|&op| {
            let waits = !bound.cross_unit_preds(op).is_empty();
            waits.then(|| fsm.add_state(format!("R{}", op.0)))
        })
        .collect();

    // Inputs: one completion signal per level but the last, plus C_PO
    // signals.
    let c_level: Vec<usize> = (1..levels)
        .map(|l| fsm.add_input(level_completion(&uname, l)))
        .collect();
    let pred_guard: Vec<Expr> = seq
        .iter()
        .map(|&op| {
            Expr::all(
                bound
                    .cross_unit_preds(op)
                    .into_iter()
                    .map(|p| Expr::var(fsm.add_input(signals::op_completion(p)))),
            )
        })
        .collect();

    // Outputs.
    let of: Vec<usize> = seq
        .iter()
        .map(|&op| fsm.add_output(signals::operand_fetch(op)))
        .collect();
    let re: Vec<usize> = seq
        .iter()
        .map(|&op| fsm.add_output(signals::register_enable(op)))
        .collect();
    let cco: Vec<usize> = seq
        .iter()
        .map(|&op| fsm.add_output(signals::op_completion(op)))
        .collect();

    let done_state = single_shot.then(|| fsm.add_state("DONE"));

    for i in 0..n {
        let next = (i + 1) % n;
        // Single-shot controllers route the last completion into DONE.
        let (pn, target_s, target_r) = match done_state {
            Some(done) if i == n - 1 => (Expr::truth(), done, None),
            _ => (pred_guard[next].clone(), stage[next][0], r_state[next]),
        };
        let completing = vec![of[i], re[i], cco[i]];
        for (l, &here) in stage[i].iter().enumerate() {
            // The op completes in this stage when its level's signal is
            // high; the last level always completes.
            let done = c_level.get(l).map_or_else(Expr::truth, |&c| Expr::var(c));
            match target_r {
                // Next op starts unconditionally once we finish.
                None => fsm.add_transition(here, target_s, done.clone(), completing.clone()),
                Some(r) => {
                    fsm.add_transition(
                        here,
                        target_s,
                        done.clone().and(pn.clone()),
                        completing.clone(),
                    );
                    fsm.add_transition(
                        here,
                        r,
                        done.clone().and(pn.clone().not()),
                        completing.clone(),
                    );
                }
            }
            if let Some(&longer) = stage[i].get(l + 1) {
                fsm.add_transition(here, longer, done.not(), vec![of[i]]);
            }
        }
    }
    // Ready-state wait loops (one pair per R state).
    for i in 0..n {
        if let Some(r) = r_state[i] {
            let pg = pred_guard[i].clone();
            fsm.add_transition(r, stage[i][0], pg.clone(), vec![]);
            fsm.add_transition(r, r, pg.not(), vec![]);
        }
    }
    if let Some(done) = done_state {
        fsm.add_transition(done, done, Expr::truth(), vec![]);
    }

    // Initial state: wait for the first op's predecessors if it has any.
    fsm.set_initial(r_state[0].unwrap_or(stage[0][0]));
    fsm
}

/// The distributed global control unit: one controller per used unit.
#[derive(Clone, Debug)]
pub struct DistributedControlUnit {
    controllers: Vec<(UnitId, Fsm)>,
}

impl DistributedControlUnit {
    /// Generates controllers for every unit with at least one bound
    /// operation, then removes completion outputs no other controller
    /// consumes (the paper's communication-signal optimization, Fig 7).
    pub fn generate(bound: &BoundDfg) -> Self {
        let mut controllers = Vec::new();
        for (i, _) in bound.allocation().units().iter().enumerate() {
            let unit = UnitId(i);
            if !bound.sequence(unit).is_empty() {
                controllers.push((unit, unit_controller(bound, unit)));
            }
        }
        let mut cu = DistributedControlUnit { controllers };
        cu.optimize_signals();
        cu
    }

    /// Like [`DistributedControlUnit::generate`], but telescopic units get
    /// multi-level controllers with the given number of delay levels
    /// (paper §6 generalization; `levels = 2` is identical to `generate`).
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn generate_multilevel(bound: &BoundDfg, levels: u32) -> Self {
        assert!(levels >= 2);
        let units = bound.allocation().units();
        let mut controllers = Vec::new();
        for (i, desc) in units.iter().enumerate() {
            let unit = UnitId(i);
            if !bound.sequence(unit).is_empty() {
                let unit_levels = if desc.telescopic { levels } else { 1 };
                let fsm = unit_controller_levels(bound, unit, unit_levels, false);
                controllers.push((unit, fsm));
            }
        }
        let mut cu = DistributedControlUnit { controllers };
        cu.optimize_signals();
        cu
    }

    /// A control unit over the given controllers, as they are: no
    /// completion-signal optimization, no checks. For controllers built
    /// by hand, e.g. to exercise how a simulator treats a malformed one.
    pub fn from_controllers(controllers: Vec<(UnitId, Fsm)>) -> Self {
        DistributedControlUnit { controllers }
    }

    /// The per-unit controllers.
    pub fn controllers(&self) -> &[(UnitId, Fsm)] {
        &self.controllers
    }

    /// The controller of a specific unit, if it exists.
    pub fn controller(&self, unit: UnitId) -> Option<&Fsm> {
        self.controllers
            .iter()
            .find(|(u, _)| *u == unit)
            .map(|(_, f)| f)
    }

    /// Removes `C_CO` outputs that no sibling controller reads.
    fn optimize_signals(&mut self) {
        let mut fsms: Vec<Fsm> = self.controllers.iter().map(|(_, f)| f.clone()).collect();
        optimize_dead_completions(&mut fsms);
        for ((_, slot), fsm) in self.controllers.iter_mut().zip(fsms) {
            *slot = fsm;
        }
    }

    /// Total state count over all controllers.
    pub fn total_states(&self) -> usize {
        self.controllers.iter().map(|(_, f)| f.num_states()).sum()
    }

    /// The cross-controller completion-signal wiring: for each connection,
    /// `(producer unit, signal name, consumer unit)`.
    pub fn signal_wiring(&self) -> Vec<(UnitId, String, UnitId)> {
        let mut out = Vec::new();
        for (cu, consumer) in &self.controllers {
            for name in consumer.inputs() {
                if !name.starts_with("C_CO(") {
                    continue;
                }
                for (pu, producer) in &self.controllers {
                    if producer.output_by_name(name).is_some() {
                        out.push((*pu, name.clone(), *cu));
                    }
                }
            }
        }
        out
    }
}

/// Removes from each controller every `C_CO` output that no controller in
/// the set consumes (the paper's §4.2 communication-signal optimization,
/// e.g. `C_CO(0)` in Fig 7). Exposed for alternative composition flows
/// such as the centralized product.
pub fn optimize_dead_completions(controllers: &mut [Fsm]) {
    use std::collections::HashSet;
    let consumed: HashSet<String> = controllers
        .iter()
        .flat_map(|f| f.inputs().iter().cloned())
        .collect();
    for fsm in controllers.iter_mut() {
        let dead: Vec<usize> = fsm
            .outputs()
            .iter()
            .enumerate()
            .filter_map(|(i, name)| {
                (name.starts_with("C_CO(") && !consumed.contains(name)).then_some(i)
            })
            .collect();
        if !dead.is_empty() {
            *fsm = remove_outputs(fsm, &dead);
        }
    }
}

/// Rebuilds an FSM with the given output indices removed.
fn remove_outputs(fsm: &Fsm, dead: &[usize]) -> Fsm {
    let mut out = Fsm::new(fsm.name().to_string());
    for s in 0..fsm.num_states() {
        out.add_state(fsm.state_name(crate::machine::StateId(s)).to_string());
    }
    for name in fsm.inputs() {
        out.add_input(name.clone());
    }
    let mut remap = vec![None; fsm.outputs().len()];
    for (i, name) in fsm.outputs().iter().enumerate() {
        if !dead.contains(&i) {
            remap[i] = Some(out.add_output(name.clone()));
        }
    }
    for t in fsm.transitions() {
        let outs: Vec<usize> = t.outputs.iter().filter_map(|&o| remap[o]).collect();
        out.add_transition(t.from, t.to, t.guard.clone(), outs);
    }
    out.set_initial(fsm.initial());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::{diffeq, fig3_dfg};
    use tauhls_dfg::OpId;
    use tauhls_sched::Allocation;

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

    #[test]
    fn fig6_m1_controller_structure() {
        // The paper's Fig 6: controller for TAU multiplier M1 bound with
        // (O0, O1): states S0, S0', S1, S1', R1 and exactly 10 transitions.
        let bound = fig3_bound();
        let fsm = unit_controller(&bound, UnitId(0));
        fsm.check().unwrap();
        assert_eq!(fsm.num_states(), 5);
        assert_eq!(fsm.transitions().len(), 10);
        for name in ["S0", "S0'", "S1", "S1'", "R1"] {
            assert!(fsm.state_by_name(name).is_some(), "missing state {name}");
        }
        // Inputs: own completion + C_PO(3).
        assert!(fsm.input_by_name("C_M1").is_some());
        assert!(fsm.input_by_name("C_CO(3)").is_some());
        assert_eq!(fsm.inputs().len(), 2);
        // Initial state is S0 (O0 has no predecessors).
        assert_eq!(fsm.state_name(fsm.initial()), "S0");
    }

    #[test]
    fn fig6_m1_behaviour_follows_paper_walkthrough() {
        let bound = fig3_bound();
        let fsm = unit_controller(&bound, UnitId(0));
        let s0 = fsm.state_by_name("S0").unwrap();
        let c_m1 = fsm.input_by_name("C_M1").unwrap();
        let c_po3 = fsm.input_by_name("C_CO(3)").unwrap();
        let of0 = fsm.output_by_name("OF0").unwrap();
        let re0 = fsm.output_by_name("RE0").unwrap();

        // In S0 with C_M1 short and O3 already done: straight to S1,
        // asserting OF0 RE0 C_CO(0).
        let (next, outs) = fsm.step(s0, |v| v == c_m1 || v == c_po3);
        assert_eq!(fsm.state_name(next), "S1");
        assert!(outs.contains(&of0) && outs.contains(&re0));

        // In S0 with C_M1 short but O3 pending: complete O0, wait in R1.
        let (next, outs) = fsm.step(s0, |v| v == c_m1);
        assert_eq!(fsm.state_name(next), "R1");
        assert!(outs.contains(&re0));

        // In S0 with C_M1 long: go to the extension state, fetch only.
        let (next, outs) = fsm.step(s0, |_| false);
        assert_eq!(fsm.state_name(next), "S0'");
        assert_eq!(outs, vec![of0]);

        // R1 waits for C_PO(3) and emits nothing.
        let r1 = fsm.state_by_name("R1").unwrap();
        let (next, outs) = fsm.step(r1, |_| false);
        assert_eq!(next, r1);
        assert!(outs.is_empty());
        let (next, _) = fsm.step(r1, |v| v == c_po3);
        assert_eq!(fsm.state_name(next), "S1");
    }

    #[test]
    fn non_tau_controller_has_no_extension_states() {
        let bound = fig3_bound();
        // A1 runs (O3, O2): O3 has no preds, O2 has cross-unit preds O1, O4.
        let fsm = unit_controller(&bound, UnitId(2));
        fsm.check().unwrap();
        assert!(fsm.state_by_name("S3").is_some());
        assert!(fsm.state_by_name("S2").is_some());
        assert!(fsm.state_by_name("R2").is_some());
        assert!(fsm.state_by_name("S3'").is_none());
        assert_eq!(fsm.num_states(), 3);
        // No own completion input (fixed delay).
        assert!(fsm.input_by_name("C_A1").is_none());
        assert!(fsm.input_by_name("C_CO(1)").is_some());
        assert!(fsm.input_by_name("C_CO(4)").is_some());
    }

    #[test]
    fn distributed_unit_optimizes_dead_completions() {
        let bound = fig3_bound();
        let cu = DistributedControlUnit::generate(&bound);
        assert_eq!(cu.controllers().len(), 4);
        // C_CO(0) is consumed by nobody (O0's only successor O1 shares M1),
        // so it must be optimized away — the paper's example in §4.2.
        let m1 = cu.controller(UnitId(0)).unwrap();
        assert!(m1.output_by_name("C_CO(0)").is_none());
        // C_CO(3) is consumed by both M1 (O1) and M2 (O4): kept on A1.
        let a1 = cu.controller(UnitId(2)).unwrap();
        assert!(a1.output_by_name("C_CO(3)").is_some());
        // Every controller still checks out.
        for (_, f) in cu.controllers() {
            f.check().unwrap();
        }
    }

    #[test]
    fn fig7_wiring() {
        let bound = fig3_bound();
        let cu = DistributedControlUnit::generate(&bound);
        let wiring = cu.signal_wiring();
        // A1 produces C_CO(3) for M1 and M2.
        assert!(wiring
            .iter()
            .any(|(p, s, c)| *p == UnitId(2) && s == "C_CO(3)" && *c == UnitId(0)));
        assert!(wiring
            .iter()
            .any(|(p, s, c)| *p == UnitId(2) && s == "C_CO(3)" && *c == UnitId(1)));
        // M2's O8 result feeds O5 on A2: C_CO(8) from M2 to A2.
        assert!(wiring
            .iter()
            .any(|(p, s, c)| *p == UnitId(1) && s == "C_CO(8)" && *c == UnitId(3)));
    }

    #[test]
    fn diffeq_distributed_controllers_check() {
        let bound = BoundDfg::bind(&diffeq(), &Allocation::paper(2, 1, 1));
        let cu = DistributedControlUnit::generate(&bound);
        assert_eq!(cu.controllers().len(), 4);
        for (_, f) in cu.controllers() {
            f.check().unwrap();
        }
        assert!(cu.total_states() >= 12);
    }

    #[test]
    fn single_op_tau_unit_loops() {
        use tauhls_dfg::DfgBuilder;
        let mut b = DfgBuilder::new("one");
        let x = b.input("x");
        let m = b.mul(x.into(), x.into());
        b.output("y", m);
        let g = b.build().unwrap();
        let bound = BoundDfg::bind(&g, &Allocation::paper(1, 0, 0));
        let fsm = unit_controller(&bound, UnitId(0));
        fsm.check().unwrap();
        assert_eq!(fsm.num_states(), 2); // S0, S0'
        let s0 = fsm.state_by_name("S0").unwrap();
        let (n1, _) = fsm.step(s0, |_| true);
        assert_eq!(n1, s0); // short completion wraps immediately
    }
}
