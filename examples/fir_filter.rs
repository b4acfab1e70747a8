//! FIR filter case study: drive the distributed control unit with
//! *operand-driven* completion — the telescopic multipliers decide short
//! vs long from the actual sample magnitudes flowing through a 5-tap FIR
//! filter, exactly the effect Benini et al. built TAUs for.
//!
//! Run with `cargo run --example fir_filter`.

use rand::{Rng, SeedableRng};
use tauhls::datapath::{measure_p, ArrayMultiplier, OperandDistribution, Tau};
use tauhls::dfg::benchmarks::fir5;
use tauhls::sim::{CompletionModel, ControlStyle, Engine, SimConfig, TauLibrary};
use tauhls::{Allocation, Synthesis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const WIDTH: u32 = 16;
    const SHORT_LEVELS: u32 = 16;

    // Characterize the telescoped multiplier on different signal profiles.
    let tau = Tau::new(ArrayMultiplier::new(WIDTH), SHORT_LEVELS);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    println!(
        "16-bit telescopic multiplier, SD = {SHORT_LEVELS} of {} levels",
        tau.long_levels()
    );
    for (name, dist) in [
        ("uniform full-scale", OperandDistribution::Uniform),
        (
            "8-bit audio-like",
            OperandDistribution::SmallMagnitude { bits: 8 },
        ),
        ("log-uniform", OperandDistribution::LogUniform),
    ] {
        let p = measure_p(&tau, dist, 20_000, &mut rng);
        println!("  measured P on {name:<20}: {p:.3}");
    }

    // Synthesize the FIR5 design under the paper's allocation.
    let design = Synthesis::new(fir5())
        .allocation(Allocation::paper(2, 1, 0))
        .run()?;
    let dist = Engine::generate(design.bound(), ControlStyle::Distributed);
    let fault_free = SimConfig::default();
    let model = CompletionModel::OperandDriven(TauLibrary::multiplier_only(WIDTH, SHORT_LEVELS));

    // Stream blocks of samples through the filter and measure latency.
    let clk = design.timing().clock_ns();
    let coeffs: Vec<i64> = vec![3, 9, 21, 9, 3]; // small fixed-point taps
    for (profile, max_mag) in [("quiet passage", 120i64), ("loud passage", 28_000i64)] {
        // Unsigned sample magnitudes: a negative value sign-extends to a
        // full-width two's-complement pattern, which the array multiplier
        // delay model rightly treats as a long operand.
        let mut total_cycles = 0usize;
        let mut total_busy = 0usize;
        let blocks = 200;
        for _ in 0..blocks {
            let mut inputs: Vec<i64> = (0..5).map(|_| rng.random_range(0..=max_mag)).collect();
            inputs.extend(coeffs.iter());
            let r = (dist.run_scalar(
                design.bound(),
                &model,
                Some(&inputs),
                &mut rng,
                &fault_free,
                0,
            ))
            .expect("fault-free simulation");
            r.verify(design.bound()).expect("legal execution");
            total_cycles += r.cycles;
            total_busy += r.unit_busy_cycles.iter().sum::<usize>();
        }
        let avg = total_cycles as f64 / blocks as f64;
        println!(
            "\n{profile}: mean latency {:.2} cycles = {:.1} ns per output sample",
            avg,
            avg * clk
        );
        println!(
            "  mean unit busy-cycles per sample: {:.2}",
            total_busy as f64 / blocks as f64
        );
    }
    println!("\nSmall samples keep every multiplication short: the filter runs at");
    println!("the best-case schedule; full-scale samples degrade toward worst case.");
    Ok(())
}
