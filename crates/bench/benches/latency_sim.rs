//! Table 2 companion bench: cycle-accurate simulation throughput per
//! benchmark and per controller style, the coupled pair measurement that
//! generates the table's average cells, and the batch engine's thread
//! scaling (results stay bit-identical while wall clock shrinks).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tauhls_bench::{black_box, Bench};
use tauhls_core::experiments::paper_benchmarks;
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::BoundDfg;
use tauhls_sim::{
    latency_batch, simulate_cent, simulate_cent_sync, simulate_distributed, BatchRunner,
    CentControlUnit, CompletionModel, ControlStyle,
};

fn main() {
    let bench = Bench::from_args().sample_size(5);

    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(1);
        bench.run(&format!("table2/simulate/dist/{name}"), || {
            black_box(
                simulate_distributed(
                    black_box(&bound),
                    &cu,
                    &CompletionModel::Bernoulli { p: 0.7 },
                    None,
                    &mut rng,
                )
                .expect("fault-free simulation"),
            );
        });
        let cent_cu = CentControlUnit::without_product(&bound);
        let mut rng = StdRng::seed_from_u64(1);
        bench.run(&format!("table2/simulate/cent/{name}"), || {
            black_box(
                simulate_cent(
                    black_box(&bound),
                    &cent_cu,
                    &CompletionModel::Bernoulli { p: 0.7 },
                    None,
                    &mut rng,
                )
                .expect("fault-free simulation"),
            );
        });
        let mut rng = StdRng::seed_from_u64(1);
        bench.run(&format!("table2/simulate/sync/{name}"), || {
            black_box(
                simulate_cent_sync(
                    black_box(&bound),
                    &CompletionModel::Bernoulli { p: 0.7 },
                    None,
                    &mut rng,
                )
                .expect("fault-free simulation"),
            );
        });
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
