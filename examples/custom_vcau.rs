//! Beyond multipliers: the paper's §6 notes the method "can be applied to
//! other types of VCAUs without special modification". This example
//! telescopes the *adder* class as well (carry-chain completion on a
//! ripple-carry adder) and shows the same Algorithm-1 controllers handle
//! a fully variable-latency datapath.
//!
//! Run with `cargo run --example custom_vcau`.

use rand::SeedableRng;
use tauhls::datapath::{measure_p, OperandDistribution, RippleCarryAdder, Tau};
use tauhls::dfg::benchmarks::ewf;
use tauhls::dfg::ResourceClass;
use tauhls::fsm::DistributedControlUnit;
use tauhls::sim::{CompletionModel, Engine, SimConfig, TauLibrary};
use tauhls::{Allocation, Synthesis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const WIDTH: u32 = 16;

    // A ripple-carry adder telescoped at 8 of 18 levels: most operand
    // pairs have short carry chains, so P is high even on uniform data.
    let tau_add = Tau::new(RippleCarryAdder::new(WIDTH), 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let p_add = measure_p(&tau_add, OperandDistribution::Uniform, 20_000, &mut rng);
    println!(
        "telescopic adder: SD {} / LD {} levels, measured P = {p_add:.3}",
        tau_add.short_levels(),
        tau_add.long_levels()
    );

    // Telescope BOTH classes on the elliptic-wave-filter benchmark.
    let alloc = Allocation::new()
        .with_units(ResourceClass::Multiplier, 2)
        .with_units(ResourceClass::Adder, 3)
        .telescopic(ResourceClass::Multiplier)
        .telescopic(ResourceClass::Adder);
    let design = Synthesis::new(ewf()).allocation(alloc).run()?;
    let cu = DistributedControlUnit::generate(design.bound());
    println!(
        "\nEWF with telescopic × and +: {} controllers, {} total states",
        cu.controllers().len(),
        cu.total_states()
    );
    for (u, fsm) in cu.controllers() {
        let name = design.bound().allocation().units()[u.0].display_name();
        println!(
            "  {name}: {} ops, {} states (S' extension states present: {})",
            design.bound().sequence(*u).len(),
            fsm.num_states(),
            fsm.inputs().iter().any(|i| i == &format!("C_{name}"))
        );
    }

    // Operand-driven run with both unit kinds variable-latency.
    let lib = TauLibrary {
        mul: Some(Tau::new(tauhls::datapath::ArrayMultiplier::new(WIDTH), 20)),
        add: Some(tau_add),
        sub: None,
        width: WIDTH,
    };
    let model = CompletionModel::OperandDriven(lib);
    let inputs: Vec<i64> = (0..design.bound().dfg().num_inputs() as i64)
        .map(|i| (i * 37 + 11) % 200)
        .collect();
    let dist = Engine::Dist(cu);
    let mut run = |model: &CompletionModel, inputs: Option<&[i64]>| {
        (dist.run_scalar(
            design.bound(),
            model,
            inputs,
            &mut rng,
            &SimConfig::default(),
            0,
        ))
        .expect("fault-free simulation")
    };
    let r = run(&model, Some(&inputs));
    r.verify(design.bound()).expect("legal execution");
    println!(
        "\noperand-driven run: {} cycles ({:.0} ns); every dependence honoured",
        r.cycles,
        r.latency_ns(design.timing().clock_ns())
    );

    // Bernoulli extremes for reference.
    let best = run(&CompletionModel::AlwaysShort, None);
    let worst = run(&CompletionModel::AlwaysLong, None);
    println!("best {} / worst {} cycles", best.cycles, worst.cycles);
    Ok(())
}
