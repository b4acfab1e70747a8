//! RTL export: synthesize the distributed control unit for the paper's
//! Fig 3 example and emit it as Verilog-2001 — per-controller modules plus
//! a top module with the completion-signal wiring of Fig 7.
//!
//! Run with `cargo run --example rtl_export` (writes `control_unit.v`).

use tauhls::dfg::{benchmarks::fig3_dfg, OpId};
use tauhls::fsm::{control_unit_to_verilog, synthesize, DistributedControlUnit, Encoding};
use tauhls::logic::AreaModel;
use tauhls::sched::BoundDfg;
use tauhls::Allocation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Fig 3(c) binding.
    let bound = BoundDfg::bind_explicit(
        &fig3_dfg(),
        &Allocation::paper(2, 2, 0),
        vec![
            vec![OpId(0), OpId(1)],
            vec![OpId(6), OpId(4), OpId(8)],
            vec![OpId(3), OpId(2)],
            vec![OpId(7), OpId(5)],
        ],
    )?;
    let cu = DistributedControlUnit::generate(&bound);

    let model = AreaModel::default();
    let binary: Vec<_> = cu
        .controllers()
        .iter()
        .map(|(u, fsm)| (*u, synthesize(fsm, Encoding::Binary, &model)))
        .collect();
    println!("controller areas per encoding (GE total):");
    println!(
        "{:<10} {:>8} {:>8} {:>8}",
        "unit", "binary", "gray", "onehot"
    );
    for ((u, fsm), (_, syn)) in cu.controllers().iter().zip(&binary) {
        let name = bound.allocation().units()[u.0].display_name();
        let cost = |e| synthesize(fsm, e, &model).area().total();
        println!(
            "{:<10} {:>8.0} {:>8.0} {:>8.0}",
            name,
            syn.area().total(),
            cost(Encoding::Gray),
            cost(Encoding::OneHot)
        );
    }

    let verilog = control_unit_to_verilog(&binary);
    std::fs::write("control_unit.v", &verilog)?;
    println!(
        "\nwrote control_unit.v: {} modules, {} lines",
        verilog.matches("endmodule").count(),
        verilog.lines().count()
    );
    println!("top-level interface:");
    for line in verilog
        .split("module control_unit")
        .nth(1)
        .unwrap_or("")
        .lines()
        .take_while(|l| !l.contains(");"))
    {
        println!("  {line}");
    }
    Ok(())
}
