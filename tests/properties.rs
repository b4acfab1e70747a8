//! Property-based integration tests over random dataflow graphs: the
//! whole flow must stay legal, the paper's dominance claims must hold for
//! arbitrary graphs, allocations and completion patterns, and the batch
//! engine must agree with its single-threaded oracle bit-for-bit.

use tauhls::dfg::{random_dfg, RandomDfgParams};
use tauhls::fsm::DistributedControlUnit;
use tauhls::sched::{reachability, BoundDfg, DependencyGraph, ListSchedule};
use tauhls::sim::{
    latency_batch, BatchRunner, CompletionModel, ControlStyle, CycleStats, Engine, SimConfig,
    SimJob,
};
use tauhls::Allocation;
use tauhls_check::{forall, Gen};

/// Draws the shared parameter tuple: (num_ops, muls, adds, subs).
fn draw_params(g: &mut Gen) -> (usize, usize, usize, usize) {
    (g.usize(4..28), g.usize(1..4), g.usize(1..3), g.usize(1..3))
}

fn draw_dfg(g: &mut Gen, num_ops: usize, kind_weights: [u32; 4]) -> tauhls::dfg::Dfg {
    random_dfg(
        g.rng(),
        &RandomDfgParams {
            num_ops,
            kind_weights,
            ..Default::default()
        },
    )
}

#[test]
fn schedule_and_binding_always_legal() {
    forall("schedule_and_binding_always_legal", 48, |gen| {
        let (ops, muls, adds, subs) = draw_params(gen);
        let g = draw_dfg(gen, ops, [2, 1, 3, 1]);
        let alloc = Allocation::paper(muls, adds, subs);
        let s = ListSchedule::run(&g, &alloc);
        assert!(s.verify(&g, &alloc));
        let b = BoundDfg::bind(&g, &alloc);
        // Sequences partition the ops and respect classes.
        let total: usize = b.sequences().iter().map(Vec::len).sum();
        assert_eq!(total, g.num_ops());
        // Schedule arcs never contradict data dependences.
        for (x, y) in b.schedule_arcs() {
            assert!(!b.precedes(*y, *x));
        }
    });
}

#[test]
fn clique_cover_bounds() {
    forall("clique_cover_bounds", 48, |gen| {
        let (ops, _, _, _) = draw_params(gen);
        let g = draw_dfg(gen, ops, [2, 1, 3, 1]);
        let reach = reachability(&g);
        for class in tauhls::dfg::ResourceClass::ALL {
            let dep = DependencyGraph::for_class(&g, class, &reach);
            if dep.nodes().is_empty() {
                continue;
            }
            let exact = dep.min_clique_cover();
            let greedy = dep.greedy_clique_cover();
            // Exact is optimal, greedy is a valid partition.
            assert!(exact.len() <= greedy.len());
            for chain in exact.iter().chain(&greedy) {
                for w in chain.windows(2) {
                    assert!(dep.dependent(w[0], w[1]));
                }
            }
        }
    });
}

#[test]
fn simulation_legal_and_dist_dominates() {
    forall("simulation_legal_and_dist_dominates", 48, |gen| {
        let (ops, muls, adds, subs) = draw_params(gen);
        let g = draw_dfg(gen, ops, [2, 1, 3, 1]);
        let alloc = Allocation::paper(muls, adds, subs);
        let bound = BoundDfg::bind(&g, &alloc);
        let cu = DistributedControlUnit::generate(&bound);
        for (_, fsm) in cu.controllers() {
            assert!(fsm.check().is_ok());
        }
        let (dist, fault_free) = (Engine::Dist(cu), SimConfig::default());
        // Coupled completion draws: distributed dominates per trial.
        for p in [1.0, 0.5, 0.0] {
            let table = CompletionModel::draw_table(g.num_ops(), p, gen.rng());
            let d = (dist.run_scalar(&bound, &table, None, gen.rng(), &fault_free, 0))
                .expect("fault-free simulation");
            assert!(d.verify(&bound).is_ok(), "{:?}", d.verify(&bound));
            let s = (Engine::Sync.run_scalar(&bound, &table, None, gen.rng(), &fault_free, 0))
                .expect("fault-free simulation");
            assert!(
                d.cycles <= s.cycles,
                "distributed {} > sync {}",
                d.cycles,
                s.cycles
            );
        }
    });
}

#[test]
fn latency_bounded_by_extremes() {
    forall("latency_bounded_by_extremes", 48, |gen| {
        let (ops, muls, adds, subs) = draw_params(gen);
        let g = draw_dfg(gen, ops, [3, 1, 2, 0]);
        let alloc = Allocation::paper(muls, adds, subs);
        let bound = BoundDfg::bind(&g, &alloc);
        let dist = Engine::generate(&bound, ControlStyle::Distributed);
        let mut cycles = |model| {
            (dist.run_scalar(&bound, &model, None, gen.rng(), &SimConfig::default(), 0))
                .expect("fault-free simulation")
                .cycles
        };
        let best = cycles(CompletionModel::AlwaysShort);
        let worst = cycles(CompletionModel::AlwaysLong);
        assert!(best <= worst);
        let mid = cycles(CompletionModel::Bernoulli { p: 0.5 });
        assert!(best <= mid && mid <= worst);
        // Worst case is at most best + one extension per TAU op.
        let tau_ops = g.ops_of_class(tauhls::dfg::ResourceClass::Multiplier).len();
        assert!(worst <= best + tau_ops);
    });
}

#[test]
fn batch_engine_matches_serial_oracle_on_random_dfgs() {
    // The tentpole guarantee, as a property: for arbitrary graphs and
    // allocations, fanning trials over threads changes nothing — both the
    // coupled pair harness and the plain summary are bit-identical to the
    // threads = 1 oracle, and the distributed style still dominates.
    forall("batch_engine_matches_serial_oracle", 12, |gen| {
        let (ops, muls, adds, subs) = draw_params(gen);
        let g = draw_dfg(gen, ops, [2, 1, 3, 1]);
        let bound = BoundDfg::bind(&g, &Allocation::paper(muls, adds, subs));
        let seed = gen.u64(0..1 << 48);
        let trials = gen.u64(1..200);
        let ps = [0.9, 0.5];
        let styles = [ControlStyle::CentSync, ControlStyle::Distributed];
        let serial = latency_batch(
            &bound,
            &styles,
            &ps,
            0,
            trials,
            seed,
            &BatchRunner::serial(),
        )
        .expect("fault-free simulation");
        for threads in [2usize, 8] {
            let parallel = latency_batch(
                &bound,
                &styles,
                &ps,
                0,
                trials,
                seed,
                &BatchRunner::new(threads),
            )
            .expect("fault-free simulation");
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        let (sync, dist) = (&serial[0], &serial[1]);
        for (s, d) in sync.average_cycles.iter().zip(&dist.average_cycles) {
            assert!(d <= s, "dist {d} > sync {s}");
        }
        let model = CompletionModel::Bernoulli { p: 0.7 };
        let job = SimJob::new(&bound, ControlStyle::CentSync, &model).trials(trials);
        assert_eq!(
            job.run(seed, &BatchRunner::serial())
                .expect("fault-free simulation"),
            job.run(seed, &BatchRunner::new(3).with_chunk_size(5))
                .expect("fault-free simulation")
        );
    });
}

#[test]
fn merged_stats_equal_single_pass_exactly() {
    // Mergeability invariant behind the parallel reduction: splitting a
    // sample stream at arbitrary points and merging the partial
    // accumulators reproduces the single-pass accumulator exactly —
    // integer-exact equality, not tolerance.
    forall("merged_stats_equal_single_pass", 64, |gen| {
        let len = gen.usize(1..400);
        let samples = gen.vec(len, |g| g.usize(0..10_000));
        let mut single = CycleStats::new();
        for &s in &samples {
            single.record(s);
        }
        let pieces = gen.usize(1..8);
        let mut merged = CycleStats::new();
        let chunk = len.div_ceil(pieces);
        for part in samples.chunks(chunk) {
            let mut acc = CycleStats::new();
            part.iter().for_each(|&s| acc.record(s));
            merged.merge(&acc);
        }
        assert_eq!(single, merged);
        assert_eq!(single.count, len as u64);
        if let Some(&mx) = samples.iter().max() {
            assert_eq!(single.max, mx);
        }
        // Variance is non-negative and mean sits within [min, max].
        assert!(single.variance() >= -1e-9);
        assert!(single.min as f64 <= single.mean() && single.mean() <= single.max as f64);
    });
}

#[test]
fn elastic_zero_bisimulates_dist_and_skew_never_wins() {
    use tauhls::sim::ElasticSpec;
    use tauhls_check::arbitrary_elastic_spec;

    forall(
        "elastic_zero_bisimulates_dist_and_skew_never_wins",
        48,
        |gen| {
            let (ops, muls, adds, subs) = draw_params(gen);
            let g = draw_dfg(gen, ops, [2, 1, 3, 1]);
            let alloc = Allocation::paper(muls, adds, subs);
            let bound = BoundDfg::bind(&g, &alloc);
            let skew_seed = gen.usize(0..1 << 30) as u64;
            let spec = arbitrary_elastic_spec(gen, 3);
            let [dist, zero, elastic] = [
                ControlStyle::Distributed,
                ControlStyle::Elastic(ElasticSpec::zero()),
                ControlStyle::Elastic(spec),
            ]
            .map(|style| Engine::generate(&bound, style));
            let fault_free = SimConfig::default();
            for p in [1.0, 0.5, 0.0] {
                let table = CompletionModel::draw_table(g.num_ops(), p, gen.rng());
                let mut run = |engine: &Engine| {
                    (engine.run_scalar(&bound, &table, None, gen.rng(), &fault_free, skew_seed))
                        .expect("fault-free simulation")
                };
                let d = run(&dist);
                // Degenerate GALS spec: bit-identical to the synchronous
                // distributed engine, whatever the skew seed says.
                let z = run(&zero);
                assert_eq!(d.cycles, z.cycles, "zero-spec elastic diverged");
                assert_eq!(d.completion_cycle, z.completion_cycle);
                assert_eq!(d.values, z.values);
                // Arbitrary spec: stalls and handshake latency only ever
                // delay — the synchronous run is a per-trial lower bound —
                // and the datapath values are untouched.
                let e = run(&elastic);
                assert!(
                    e.cycles >= d.cycles,
                    "elastic {} beat dist {} under {spec:?}",
                    e.cycles,
                    d.cycles
                );
                assert_eq!(d.values, e.values, "clocking changed computed values");
            }
        },
    );
}
