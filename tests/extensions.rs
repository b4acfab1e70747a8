//! Cross-crate integration tests for the beyond-the-paper subsystems:
//! RTL emission, register allocation, force-directed scheduling, chain
//! binding, multi-level controllers, and pipelined simulation — all driven
//! through the public facade on the paper benchmarks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tauhls::core::experiments::paper_benchmarks;
use tauhls::dfg::ResourceClass;
use tauhls::fsm::{
    control_unit_to_verilog, synthesize, unit_controller_levels, DistributedControlUnit, Encoding,
};
use tauhls::logic::AreaModel;
use tauhls::sched::{allocate_registers, fds_schedule, BoundDfg, UnitId};
use tauhls::sim::{simulate_pipelined_with, CompletionModel, ControlStyle, Engine, SimConfig};

/// One fault-free DIST run through the scalar engine.
fn dist_cycles(bound: &BoundDfg, dist: &Engine, model: CompletionModel, rng: &mut StdRng) -> usize {
    let run = dist.run_scalar(bound, &model, None, rng, &SimConfig::default(), 0);
    let r = run.expect("fault-free simulation");
    r.verify(bound)
        .unwrap_or_else(|e| panic!("{}: {e}", bound.dfg().name()));
    r.cycles
}

#[test]
fn rtl_emission_for_every_benchmark() {
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let cu = DistributedControlUnit::generate(&bound);
        let controllers: Vec<_> = cu
            .controllers()
            .iter()
            .map(|(u, fsm)| (*u, synthesize(fsm, Encoding::Binary, &AreaModel::default())))
            .collect();
        let v = control_unit_to_verilog(&controllers);
        // One module per controller plus the top.
        assert_eq!(
            v.matches("\nendmodule").count() + usize::from(v.starts_with("endmodule")),
            cu.controllers().len() + 1,
            "{name}"
        );
        // Every RE output of every op appears somewhere.
        for op in dfg.op_ids() {
            assert!(v.contains(&format!("re{}", op.0)), "{name}: re{}", op.0);
        }
        // The top module wires the internal completion signals.
        let top = v.split("module control_unit").nth(1).unwrap();
        assert!(
            top.contains("wire c_co_") || cu.signal_wiring().is_empty(),
            "{name}"
        );
    }
}

#[test]
fn register_allocation_for_every_benchmark() {
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let regs = allocate_registers(&bound);
        assert!(regs.verify(), "{name}");
        assert!(regs.num_registers() <= dfg.num_ops(), "{name}");
        assert!(regs.num_registers() >= 1, "{name}");
    }
}

#[test]
fn fds_matches_or_beats_paper_allocations() {
    // At the latency the paper's allocation achieves (best case), FDS must
    // find an allocation no larger in the multiplier class.
    let mut rng = StdRng::seed_from_u64(1);
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let dist = Engine::generate(&bound, ControlStyle::Distributed);
        let best = dist_cycles(&bound, &dist, CompletionModel::AlwaysShort, &mut rng);
        let s = fds_schedule(&dfg, best);
        assert!(s.verify(&dfg), "{name}");
        let implied = s.implied_allocation(&dfg);
        let muls = implied
            .get(&ResourceClass::Multiplier)
            .copied()
            .unwrap_or(0);
        assert!(
            muls <= alloc.count(ResourceClass::Multiplier) + 1,
            "{name}: FDS implied {muls} multipliers"
        );
    }
}

#[test]
fn chain_binding_simulates_equivalently() {
    // Chain-bound designs must execute legally and compute the same
    // values; latency may differ slightly from left-edge but stays within
    // the same best/worst envelope.
    let mut rng = StdRng::seed_from_u64(2);
    for (dfg, alloc, _) in paper_benchmarks() {
        let chains = BoundDfg::bind_chains(&dfg, &alloc);
        let dist = Engine::generate(&chains, ControlStyle::Distributed);
        for model in [CompletionModel::AlwaysShort, CompletionModel::AlwaysLong] {
            dist_cycles(&chains, &dist, model, &mut rng);
        }
    }
}

#[test]
fn multilevel_controllers_work_on_diffeq() {
    let (dfg, alloc, _) = paper_benchmarks().swap_remove(4);
    let bound = BoundDfg::bind(&dfg, &alloc);
    // Per-unit generation for the telescopic units.
    for u in 0..bound.allocation().units().len() {
        let unit = UnitId(u);
        if bound.sequence(unit).is_empty() || !bound.allocation().units()[u].telescopic {
            continue;
        }
        for levels in 2..=4 {
            let fsm = unit_controller_levels(&bound, unit, levels, false);
            fsm.check().unwrap();
            // 1 exec + (levels-1) extension states per op, plus R states.
            let ops = bound.sequence(unit).len();
            assert!(fsm.num_states() >= ops * levels as usize);
        }
    }
    // Whole-design multilevel simulation.
    let dist3 = Engine::Dist(DistributedControlUnit::generate_multilevel(&bound, 3));
    let mut rng = StdRng::seed_from_u64(3);
    dist_cycles(
        &bound,
        &dist3,
        CompletionModel::Bernoulli { p: 0.5 },
        &mut rng,
    );
}

#[test]
fn pipelined_throughput_across_benchmarks() {
    let mut rng = StdRng::seed_from_u64(4);
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let dist = Engine::generate(&bound, ControlStyle::Distributed);
        let cu = dist.dist_bank().expect("DIST has a bank");
        let single = dist_cycles(&bound, &dist, CompletionModel::AlwaysShort, &mut rng);
        let (short, fault_free) = (CompletionModel::AlwaysShort, SimConfig::default());
        let piped = simulate_pipelined_with(&bound, cu, &short, 10, &mut rng, &fault_free)
            .expect("fault-free simulation");
        assert!(
            piped.initiation_interval() <= single as f64 + 1e-9,
            "{name}: II {} vs latency {}",
            piped.initiation_interval(),
            single
        );
        // The bottleneck unit's op count lower-bounds the II.
        let bottleneck = bound.sequences().iter().map(Vec::len).max().unwrap_or(1);
        assert!(
            piped.initiation_interval() >= bottleneck as f64 - 1e-9,
            "{name}: II {} below bottleneck {bottleneck}",
            piped.initiation_interval()
        );
    }
}
