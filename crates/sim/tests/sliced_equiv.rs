//! Differential property suite: the bit-sliced engine against the scalar
//! oracle.
//!
//! Random DFGs (via `tauhls-dfg`'s generator), random allocations, random
//! fault plans (via `tauhls-check`), every control style, and trial
//! counts spanning partial last slabs. Two layers of comparison:
//!
//! * **job level** — `SimJob::run` (sliced default, parallel, random
//!   chunk size) against `SimJob::run_scalar` (scalar oracle, serial):
//!   reduced statistics and first-error outcomes must be byte-identical;
//! * **lane level** — `SlicedSim` lanes against `Engine::run_scalar` on
//!   the same per-trial RNG streams: every `Done` lane must equal the
//!   scalar `SimResult` exactly (per-op cycles, busy counters, values),
//!   while `Fallback` lanes are sound by construction (the batch layer
//!   re-runs them through the very oracle we compare against).

use tauhls_check::{arbitrary_plan, forall, Gen};
use tauhls_dfg::{random_dfg, RandomDfgParams};
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    elastic_trial_skew_seed, trial_rng, BatchRunner, CompletionModel, ControlStyle, ElasticSpec,
    Engine, LaneConfigs, LaneModels, LaneOutcome, SimConfig, SimJob, SlicedSim,
};

/// A random bound design: 3..=14 ops over Add/Sub/Mul with a random
/// shape, bound to a random paper-style allocation (telescopic
/// multipliers).
fn arbitrary_bound(g: &mut Gen) -> BoundDfg {
    let params = RandomDfgParams {
        num_ops: g.usize(3..=14),
        num_inputs: g.usize(1..=4),
        internal_edge_prob: g.unit_f64(),
        kind_weights: [3, 1, 3, 0],
    };
    let dfg = random_dfg(g.rng(), &params);
    let alloc = Allocation::paper(g.usize(1..=2), g.usize(1..=2), g.usize(1..=2));
    BoundDfg::bind(&dfg, &alloc)
}

/// A random single- or multi-fault config (or fault-free, 30% of the
/// time) sized to the design.
fn arbitrary_config(g: &mut Gen, bound: &BoundDfg, num_controllers: usize) -> SimConfig {
    if g.bool(0.3) {
        SimConfig::default()
    } else {
        let num_ops = bound.dfg().num_ops();
        SimConfig::with_faults(arbitrary_plan(
            g,
            num_ops,
            num_controllers,
            2 * num_ops + 4,
            3,
        ))
    }
}

#[test]
fn sliced_jobs_match_scalar_oracle_on_random_designs() {
    forall("sliced-equiv-jobs", 50, |g| {
        let bound = arbitrary_bound(g);
        let cu = DistributedControlUnit::generate(&bound);
        let config = arbitrary_config(g, &bound, cu.controllers().len());
        let trials = g.u64(1..=257);
        let model = CompletionModel::Bernoulli { p: g.unit_f64() };
        let seed = g.u64(0..1_000_000);
        // A random chunk size forces slabs that straddle lane boundaries.
        let chunk = g.u64(1..=96);
        for style in [
            ControlStyle::Distributed,
            ControlStyle::Cent,
            ControlStyle::CentSync,
        ] {
            let job = SimJob::new(&bound, style, &model)
                .trials(trials)
                .config(&config);
            let scalar = job.run_scalar(seed, &BatchRunner::serial());
            let sliced = job.run(seed, &BatchRunner::new(4).with_chunk_size(chunk));
            assert_eq!(
                scalar, sliced,
                "style {style:?}, trials {trials}, chunk {chunk}, config {config:?}"
            );
        }
    });
}

#[test]
fn sliced_lanes_match_scalar_results_exactly() {
    forall("sliced-equiv-lanes", 60, |g| {
        let bound = arbitrary_bound(g);
        let cu = DistributedControlUnit::generate(&bound);
        let config = arbitrary_config(g, &bound, cu.controllers().len());
        let lanes = g.usize(1..=64);
        let model = CompletionModel::Bernoulli { p: g.unit_f64() };
        let seed = g.u64(0..1_000_000);
        let models = LaneModels::Shared(&model);
        let cfgs = LaneConfigs::Shared(&config);

        let fault_free = config == SimConfig::default();
        let styles = [
            ControlStyle::Distributed,
            ControlStyle::CentSync,
            ControlStyle::Cent,
            ControlStyle::Elastic(ElasticSpec::default()),
        ];
        for (job, style) in (0u64..).zip(styles) {
            let engine = Engine::generate(&bound, style);
            let mut rngs: Vec<_> = (0..lanes).map(|t| trial_rng(seed, job, t as u64)).collect();
            let skews: Vec<_> = (0..lanes as u64)
                .map(|t| elastic_trial_skew_seed(seed, job, t))
                .collect();
            let out = SlicedSim::new(&bound, &engine).run(&skews, &models, &cfgs, &mut rngs);
            for (t, lane) in out.iter().enumerate() {
                match lane {
                    LaneOutcome::Done(r) => {
                        let mut srng = trial_rng(seed, job, t as u64);
                        let scalar =
                            engine.run_scalar(&bound, &model, None, &mut srng, &config, skews[t]);
                        assert_eq!(Ok(r), scalar.as_ref(), "{style:?} lane {t}, {config:?}");
                    }
                    LaneOutcome::Fallback => {
                        assert!(!fault_free, "fault-free {style:?} lane {t} fell back");
                    }
                }
            }
        }
    });
}
