//! Table 2 companion bench: cycle-accurate simulation throughput per
//! benchmark and per controller style, the coupled pair measurement that
//! generates the table's average cells, and the batch engine's thread
//! scaling (results stay bit-identical while wall clock shrinks).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tauhls_bench::{black_box, Bench};
use tauhls_core::experiments::paper_benchmarks;
use tauhls_sched::BoundDfg;
use tauhls_sim::{latency_batch, BatchRunner, CompletionModel, ControlStyle, Engine, SimConfig};

fn main() {
    let bench = Bench::from_args().sample_size(5);

    let model = CompletionModel::Bernoulli { p: 0.7 };
    let fault_free = SimConfig::default();
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        for (label, style) in [
            ("dist", ControlStyle::Distributed),
            ("cent", ControlStyle::Cent),
            ("sync", ControlStyle::CentSync),
        ] {
            let engine = Engine::generate(&bound, style);
            let mut rng = StdRng::seed_from_u64(1);
            bench.run(&format!("table2/simulate/{label}/{name}"), || {
                black_box(
                    engine
                        .run_scalar(black_box(&bound), &model, None, &mut rng, &fault_free, 0)
                        .expect("fault-free simulation"),
                );
            });
        }
    }

    let (dfg, alloc, _) = paper_benchmarks().swap_remove(4); // diffeq
    let bound = BoundDfg::bind(&dfg, &alloc);
    let pair = [ControlStyle::CentSync, ControlStyle::Distributed];
    let serial = BatchRunner::serial();
    bench.run("table2/cells/diffeq_pair_100_trials", || {
        black_box(
            latency_batch(
                black_box(&bound),
                &pair,
                &[0.9, 0.7, 0.5],
                0,
                100,
                2,
                &serial,
            )
            .expect("fault-free simulation"),
        );
    });

    // Batch engine thread scaling: same result, less wall clock.
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchRunner::new(threads);
        bench.run(
            &format!("table2/batch/diffeq_pair_1k_trials/t{threads}"),
            || {
                black_box(
                    latency_batch(
                        black_box(&bound),
                        &pair,
                        &[0.9, 0.7, 0.5],
                        0,
                        1000,
                        2,
                        &runner,
                    )
                    .expect("fault-free simulation"),
                );
            },
        );
    }
}
