//! Beyond the paper: pipelined (overlapped-iteration) throughput of the
//! wrap-around distributed controllers — steady-state initiation interval
//! vs single-iteration latency, plus write-after-read hazard counts that
//! quantify the result-buffering a pipelined datapath would need.
use rand::SeedableRng;
use tauhls_core::experiments::paper_benchmarks;
use tauhls_sched::BoundDfg;
use tauhls_sim::{simulate_pipelined_with, CompletionModel, ControlStyle, Engine, SimConfig};

fn main() {
    let p = 0.7;
    let iters = 24;
    println!("Pipelined distributed control (P = {p}, {iters} iterations)");
    println!(
        "{:<12} {:>9} {:>10} {:>12}",
        "DFG", "latency", "II", "WAR hazards"
    );
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let dist = Engine::generate(&bound, ControlStyle::Distributed);
        let cu = dist.dist_bank().expect("DIST has a bank");
        let (model, fault_free) = (CompletionModel::Bernoulli { p }, SimConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let single = (dist.run_scalar(&bound, &model, None, &mut rng, &fault_free, 0))
            .expect("fault-free simulation");
        let piped = simulate_pipelined_with(&bound, cu, &model, iters, &mut rng, &fault_free)
            .expect("fault-free simulation");
        println!(
            "{:<12} {:>9} {:>10.2} {:>12}",
            name,
            single.cycles,
            piped.initiation_interval(),
            piped.war_hazards.len()
        );
    }
    println!("\nII < latency: iterations overlap on idle units. Nonzero WAR counts");
    println!("show where a pipelined datapath needs double-buffered result registers.");
}
