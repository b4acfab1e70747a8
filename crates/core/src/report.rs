//! Whole-system area reporting: controllers + functional units +
//! completion generators + datapath registers on one gate-equivalent
//! scale. The controller figures are read off the staged pipeline's
//! `logic` artifact, never re-synthesized here.

use crate::stages::SynthesizedLogic;
use std::fmt;
use tauhls_datapath::{ArrayMultiplier, RippleCarryAdder, RippleCarrySubtractor, UnitArea};
use tauhls_dfg::ResourceClass;
use tauhls_logic::AreaModel;
use tauhls_sched::allocate_registers;

/// Coarse gate-equivalent estimate for a completion signal generator of a
/// `width`-bit telescopic unit (leading-significance detection plus a
/// small threshold comparator; exact synthesis is available for small
/// widths via [`tauhls_datapath::CompletionGenerator`]).
pub fn completion_generator_estimate_ge(width: u32) -> f64 {
    10.0 * f64::from(width)
}

/// A full-system area breakdown for one synthesized design.
#[derive(Clone, Debug)]
pub struct SystemArea {
    /// Datapath operand width the estimate assumes.
    pub width: u32,
    /// Distributed-controller area: combinational GE.
    pub control_com: f64,
    /// Distributed-controller area: sequential GE.
    pub control_seq: f64,
    /// Functional-unit area (adders/subtractors/multipliers), GE.
    pub units: f64,
    /// Completion-signal generators of the telescopic units, GE.
    pub completion_generators: f64,
    /// Number of datapath result registers (left-edge allocation).
    pub register_count: usize,
    /// Register-file area (`register_count × width × FF`), GE.
    pub registers: f64,
}

impl SystemArea {
    /// Total system area in gate equivalents.
    pub fn total(&self) -> f64 {
        self.control_com
            + self.control_seq
            + self.units
            + self.completion_generators
            + self.registers
    }

    /// Fraction of the total spent on control (the overhead the paper's
    /// distributed style trades for latency).
    pub fn control_fraction(&self) -> f64 {
        (self.control_com + self.control_seq) / self.total()
    }
}

impl fmt::Display for SystemArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "system area ({}-bit datapath, GE):", self.width)?;
        writeln!(
            f,
            "  control        {:>10.0} (com {:.0} + seq {:.0})",
            self.control_com + self.control_seq,
            self.control_com,
            self.control_seq
        )?;
        writeln!(f, "  units          {:>10.0}", self.units)?;
        writeln!(f, "  completion gen {:>10.0}", self.completion_generators)?;
        writeln!(
            f,
            "  registers      {:>10.0} ({} x {} bits)",
            self.registers, self.register_count, self.width
        )?;
        writeln!(
            f,
            "  total          {:>10.0} (control fraction {:.1}%)",
            self.total(),
            self.control_fraction() * 100.0
        )
    }
}

/// Computes the system-area breakdown of a design from the gate-level
/// controllers of its staged `logic` artifact (the encoding and area model
/// the controllers were synthesized under), plus the functional units,
/// completion generators and registers at datapath `width`.
pub fn system_area_from_logic(
    logic: &SynthesizedLogic,
    model: &AreaModel,
    width: u32,
) -> SystemArea {
    let bound = logic.controls().design().bound();
    let mut control_com = 0.0;
    let mut control_seq = 0.0;
    for (_, syn) in logic.controllers() {
        control_com += syn.area().combinational;
        control_seq += syn.area().sequential;
    }
    let mut units = 0.0;
    let mut completion = 0.0;
    for u in bound.allocation().units() {
        let ge = match u.class {
            ResourceClass::Multiplier => ArrayMultiplier::new(width.min(32)).area_ge(),
            ResourceClass::Adder => RippleCarryAdder::new(width).area_ge(),
            ResourceClass::Subtractor => RippleCarrySubtractor::new(width).area_ge(),
        };
        units += ge;
        if u.telescopic {
            completion += completion_generator_estimate_ge(width);
        }
    }

    let regs = allocate_registers(bound);
    let registers = regs.num_registers() as f64 * f64::from(width) * model.flip_flop;

    SystemArea {
        width,
        control_com,
        control_seq,
        units,
        completion_generators: completion,
        register_count: regs.num_registers(),
        registers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{run_full, BindStrategy, PipelineTrace, SynthesisInput};
    use std::sync::Arc;
    use tauhls_dfg::benchmarks::diffeq;
    use tauhls_fsm::Encoding;
    use tauhls_sched::Allocation;

    fn diffeq_logic() -> Arc<SynthesizedLogic> {
        let input = SynthesisInput {
            dfg: diffeq(),
            allocation: Allocation::paper(2, 1, 1),
            strategy: BindStrategy::LeftEdge,
        };
        let model = AreaModel::default();
        let mut trace = PipelineTrace::default();
        let (logic, _) = run_full(&input, false, Encoding::Binary, &model, None, &mut trace)
            .expect("diffeq synthesizes");
        logic
    }

    #[test]
    fn diffeq_system_area_breakdown() {
        let a = system_area_from_logic(&diffeq_logic(), &AreaModel::default(), 16);
        assert!(a.total() > 0.0);
        // Two 16-bit array multipliers dominate everything else.
        assert!(a.units > a.control_com + a.control_seq);
        // Control is a minor fraction of the system — the paper's §5
        // "small additional area overhead" claim in system context.
        assert!(a.control_fraction() < 0.25, "{}", a.control_fraction());
        assert!(a.register_count >= 4);
        let rendered = a.to_string();
        assert!(rendered.contains("control fraction"));
    }

    #[test]
    fn wider_datapath_raises_everything_but_control() {
        let logic = diffeq_logic();
        let a16 = system_area_from_logic(&logic, &AreaModel::default(), 16);
        let a32 = system_area_from_logic(&logic, &AreaModel::default(), 32);
        assert_eq!(a16.control_com, a32.control_com);
        assert!(a32.units > a16.units);
        assert!(a32.registers > a16.registers);
        assert!(a32.control_fraction() < a16.control_fraction());
    }
}
