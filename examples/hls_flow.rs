//! A miniature HLS flow built from the future-work pieces of §6: parse a
//! dataflow graph from its text format, run force-directed scheduling at
//! several latency budgets to see the implied allocations, then explore
//! the allocation space and print the latency/area Pareto frontier under
//! distributed telescopic control — `design_space` at one scenario (binary
//! encoding, one `P`, synchronous clocks), every area read off the staged
//! pipeline.
//!
//! Run with `cargo run --release --example hls_flow`.

use tauhls::core::explore::{design_space, SweepParams};
use tauhls::dfg::{parse_dfg, ResourceClass};
use tauhls::fsm::Encoding;
use tauhls::sched::fds_schedule;
use tauhls::sim::BatchRunner;

const SOURCE: &str = "\
# r = (a*x + y) * (b*z * a) + correction chain
dfg example
input a
input x
input y
input b
input z
op m1 = mul a x
op s1 = add m1 y
op m2 = mul b z
op m3 = mul m2 a
op m4 = mul s1 m3
op s2 = add m4 17
op c1 = lt s2 y
output r s2
output flag c1
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dfg = parse_dfg(SOURCE)?;
    println!(
        "parsed '{}': {} ops ({} mult-class)",
        dfg.name(),
        dfg.num_ops(),
        dfg.ops_of_class(ResourceClass::Multiplier).len()
    );

    // 1. Time-constrained scheduling: what does each latency budget cost?
    println!("\nforce-directed scheduling:");
    println!("{:>8} {:>6} {:>6} {:>6}", "latency", "muls", "adds", "subs");
    for budget in 5..=8 {
        let s = fds_schedule(&dfg, budget);
        assert!(s.verify(&dfg));
        let a = s.implied_allocation(&dfg);
        println!(
            "{:>8} {:>6} {:>6} {:>6}",
            budget,
            a.get(&ResourceClass::Multiplier).copied().unwrap_or(0),
            a.get(&ResourceClass::Adder).copied().unwrap_or(0),
            a.get(&ResourceClass::Subtractor).copied().unwrap_or(0),
        );
    }

    // 2. Allocation exploration with measured telescopic latency.
    println!("\nallocation space (P = 0.7, distributed control):");
    println!(
        "{:>5} {:>5} {:>5} {:>10} {:>10} {:>7}",
        "muls", "adds", "subs", "cycles", "area GE", "pareto"
    );
    let (points, _) = design_space(
        &dfg,
        &SweepParams {
            max_muls: 4,
            max_adds: 2,
            max_subs: 1,
            encodings: vec![Encoding::Binary],
            p_values: vec![0.7],
            sd_ld: vec![0.75],
            skew: vec![0],
            trials: 600,
            width: 16,
            seed: 2003,
        },
        &BatchRunner::available(),
        None,
    )?;
    for p in &points {
        println!(
            "{:>5} {:>5} {:>5} {:>10.2} {:>10.0} {:>7}",
            p.muls,
            p.adds,
            p.subs,
            p.avg_cycles,
            p.area_ge,
            if p.pareto { "*" } else { "" }
        );
    }
    println!("\n(*) = on the latency/area Pareto frontier.");
    Ok(())
}
