//! Differential-equation solver case study: run the HAL benchmark — one
//! Euler step of `y'' + 3xy' + 3y = 0` — repeatedly under the distributed
//! control unit, checking that the controller-sequenced datapath computes
//! exactly what the reference dataflow semantics demand, while tracking
//! how the telescopic multipliers accelerate the iteration.
//!
//! Run with `cargo run --example diffeq_solver`.

use rand::SeedableRng;
use tauhls::dfg::benchmarks::diffeq;
use tauhls::sim::{
    latency_batch, BatchRunner, CompletionModel, ControlStyle, Engine, LatencySummary, SimConfig,
    TauLibrary,
};
use tauhls::{Allocation, Synthesis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = Synthesis::new(diffeq())
        .allocation(Allocation::paper(2, 1, 1))
        .run()?;
    let dist = Engine::generate(design.bound(), ControlStyle::Distributed);
    let fault_free = SimConfig::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let clk = design.timing().clock_ns();

    // Integrate from x=0 to x=a with dx=1 in fixed point, driving the
    // datapath through the distributed controllers each step.
    let (mut x, mut y, mut u) = (0i64, 8i64, 4i64);
    let (dx, a) = (1i64, 8i64);
    let model = CompletionModel::OperandDriven(TauLibrary::multiplier_only(16, 18));
    let mut dist_cycles = 0usize;
    let mut sync_cycles = 0usize;
    let mut steps = 0usize;
    println!("step |     x     y     u | dist cycles | sync cycles");
    loop {
        let inputs = [x, y, u, dx, a];
        let mut run = |engine: &Engine| {
            (engine.run_scalar(
                design.bound(),
                &model,
                Some(&inputs),
                &mut rng,
                &fault_free,
                0,
            ))
            .expect("fault-free simulation")
        };
        let r = run(&dist);
        r.verify(design.bound()).expect("legal execution");
        let s = run(&Engine::Sync);
        dist_cycles += r.cycles;
        sync_cycles += s.cycles;
        steps += 1;

        // Read the architectural outputs exactly as the datapath computed
        // them and compare with the reference semantics.
        let reference = design.bound().dfg().evaluate(&inputs);
        let x1 = reference["x1"];
        let y1 = reference["y1"];
        let u1 = reference["u1"];
        println!(
            "{steps:>4} | {x:>5} {y:>5} {u:>5} | {:>11} | {:>11}",
            r.cycles, s.cycles
        );
        if reference["c"] == 0 {
            break;
        }
        (x, y, u) = (x1, y1, u1);
        if steps > 32 {
            break;
        }
    }
    println!(
        "\nintegrated {steps} Euler steps: distributed {dist_cycles} cycles ({:.0} ns), \
         synchronized {sync_cycles} cycles ({:.0} ns)",
        dist_cycles as f64 * clk,
        sync_cycles as f64 * clk
    );
    println!(
        "distributed control saved {:.1}% of the runtime on this trace",
        (sync_cycles - dist_cycles) as f64 / sync_cycles as f64 * 100.0
    );

    // The paper's Table 2 reports only 0.7-3.4% for Diff.Eq — the smallest
    // gain of all benchmarks, because its schedule rarely has mixed
    // short/long TAUs in one step. The statistical sweep shows it:
    let styles = [ControlStyle::CentSync, ControlStyle::Distributed];
    let [sync, dist]: [LatencySummary; 2] = latency_batch(
        design.bound(),
        &styles,
        &[0.9, 0.7, 0.5],
        0,
        4000,
        7,
        &BatchRunner::available(),
    )?
    .try_into()
    .expect("one summary per style");
    println!("\nBernoulli sweep (paper's Table 2 Diff row):");
    println!("  LT_TAU  = {}", sync.to_ns_string(clk));
    println!("  LT_DIST = {}", dist.to_ns_string(clk));
    for (p, (s, d)) in sync
        .p_values
        .iter()
        .zip(sync.average_cycles.iter().zip(&dist.average_cycles))
    {
        println!("  P = {p}: {:.1}% enhancement", (s - d) / s * 100.0);
    }
    Ok(())
}
