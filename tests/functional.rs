//! Functional correctness across the full stack: the datapath sequenced
//! by the generated controllers must compute exactly what the dataflow
//! semantics specify, under every completion model, and the bit-level
//! telescopic units must agree with the synthesized completion generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tauhls::datapath::{
    ArrayMultiplier, CompletionGenerator, FunctionalUnit, RippleCarryAdder, RippleCarrySubtractor,
    Tau,
};
use tauhls::dfg::benchmarks;
use tauhls::sim::{CompletionModel, ControlStyle, Engine, SimConfig, TauLibrary};
use tauhls::{Allocation, Synthesis};

#[test]
fn datapath_results_match_reference_semantics() {
    let mut rng = StdRng::seed_from_u64(5);
    let design = Synthesis::new(benchmarks::diffeq())
        .allocation(Allocation::paper(2, 1, 1))
        .run()
        .unwrap();
    let dist = Engine::generate(design.bound(), ControlStyle::Distributed);
    let fault_free = SimConfig::default();
    for _ in 0..20 {
        let inputs: Vec<i64> = (0..5).map(|_| rng.random_range(-1000..1000)).collect();
        let model = CompletionModel::OperandDriven(TauLibrary::multiplier_only(16, 20));
        let r = (dist.run_scalar(
            design.bound(),
            &model,
            Some(&inputs),
            &mut rng,
            &fault_free,
            0,
        ))
        .expect("fault-free simulation");
        r.verify(design.bound()).unwrap();
        // Architectural outputs equal the reference evaluation.
        let reference = design.bound().dfg().evaluate(&inputs);
        for (name, op) in design.bound().dfg().outputs() {
            assert_eq!(r.values[op.0], reference[name], "output {name}");
        }
        // Completion cycles define a valid execution order for the values:
        // every op completed after its operands were available.
        for v in design.bound().dfg().op_ids() {
            for p in design.bound().dfg().preds(v) {
                assert!(r.completion_cycle[p.0] < r.start_cycle[v.0]);
            }
        }
    }
}

#[test]
fn bitlevel_units_match_integer_semantics() {
    let mut rng = StdRng::seed_from_u64(6);
    let add = RippleCarryAdder::new(16);
    let sub = RippleCarrySubtractor::new(16);
    let mul = ArrayMultiplier::new(16);
    for _ in 0..2000 {
        let a: u64 = rng.random::<u64>() & 0xFFFF;
        let b: u64 = rng.random::<u64>() & 0xFFFF;
        assert_eq!(add.compute(a, b), (a + b) & 0xFFFF);
        assert_eq!(sub.compute(a, b), a.wrapping_sub(b) & 0xFFFF);
        assert_eq!(mul.compute(a, b), (a * b) & 0xFFFF);
        // Signed comparison through the subtractor.
        let sa = (a as i16) as i64;
        let sb = (b as i16) as i64;
        assert_eq!(sub.less_than(a, b), sa < sb, "{sa} < {sb}");
        // Delays never exceed the worst case.
        assert!(add.delay_levels(a, b) <= add.worst_delay_levels());
        assert!(mul.delay_levels(a, b) <= mul.worst_delay_levels());
    }
}

#[test]
fn synthesized_completion_generator_equals_oracle() {
    // Paper §2.1's automatic generator: for every 4-bit unit and every
    // threshold, the minimized two-level circuit must agree with the
    // delay-model oracle on the entire operand space.
    let add = RippleCarryAdder::new(4);
    let mul = ArrayMultiplier::new(4);
    for k in 1..add.worst_delay_levels() {
        let gen = CompletionGenerator::synthesize(&add, k);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(gen.predict(a, b), add.delay_levels(a, b) <= k);
            }
        }
    }
    for k in 1..mul.worst_delay_levels() {
        let gen = CompletionGenerator::synthesize(&mul, k);
        let tau = Tau::new(mul, k);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(gen.predict(a, b), tau.completion(a, b));
            }
        }
    }
}

#[test]
fn all_benchmarks_compute_correctly_under_all_models() {
    let mut rng = StdRng::seed_from_u64(7);
    for (dfg, alloc, _) in tauhls::core::experiments::paper_benchmarks() {
        let n_inputs = dfg.num_inputs();
        let design = Synthesis::new(dfg).allocation(alloc).run().unwrap();
        let dist = Engine::generate(design.bound(), ControlStyle::Distributed);
        let inputs: Vec<i64> = (0..n_inputs).map(|_| rng.random_range(-50..50)).collect();
        for model in [
            CompletionModel::AlwaysShort,
            CompletionModel::AlwaysLong,
            CompletionModel::Bernoulli { p: 0.5 },
            CompletionModel::OperandDriven(TauLibrary::multiplier_only(16, 18)),
        ] {
            let fault_free = SimConfig::default();
            let r = (dist.run_scalar(
                design.bound(),
                &model,
                Some(&inputs),
                &mut rng,
                &fault_free,
                0,
            ))
            .expect("fault-free simulation");
            r.verify(design.bound()).unwrap();
            let reference = design.bound().dfg().evaluate(&inputs);
            for (name, op) in design.bound().dfg().outputs() {
                assert_eq!(r.values[op.0], reference[name]);
            }
        }
    }
}
