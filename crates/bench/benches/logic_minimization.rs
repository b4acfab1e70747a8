//! Ablation bench (DESIGN.md decision 4): exact minimization vs the
//! espresso-style heuristic, in runtime and result quality, on functions
//! shaped like controller next-state logic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tauhls_bench::{black_box, Bench};
use tauhls_logic::{minimize_exact, minimize_heuristic, Cover, TruthTable};

fn random_table(n: usize, density: f64, seed: u64) -> TruthTable {
    let mut rng = StdRng::seed_from_u64(seed);
    TruthTable::from_fn(n, |_| Some(rng.random_bool(density)))
}

fn main() {
    let bench = Bench::from_args().sample_size(5);

    for n in [6usize, 8, 10] {
        let t = random_table(n, 0.3, n as u64);
        let canon = t.canonical_cover();
        bench.run(&format!("logic/engines/qm_exact/{n}"), || {
            black_box(minimize_exact(black_box(&t)));
        });
        bench.run(&format!("logic/engines/heuristic/{n}"), || {
            black_box(minimize_heuristic(
                black_box(&canon),
                &Cover::empty(canon.num_vars()),
            ));
        });
    }

    // Not a timing bench per se: report literal-count quality once, then
    // time the combined auto engine.
    for n in [6usize, 8] {
        let t = random_table(n, 0.3, 100 + n as u64);
        let exact = minimize_exact(&t);
        let heur = minimize_heuristic(&t.canonical_cover(), &Cover::empty(n));
        eprintln!(
            "quality n={n}: exact {} cubes/{} literals, heuristic {} cubes/{} literals",
            exact.len(),
            exact.literal_count(),
            heur.len(),
            heur.literal_count()
        );
    }
    let t = random_table(9, 0.25, 9);
    let canon = t.canonical_cover();
    bench.run("logic/auto/minimize_auto_9vars", || {
        black_box(tauhls_logic::minimize_auto(
            black_box(&canon),
            &Cover::empty(9),
            11,
        ));
    });
}
