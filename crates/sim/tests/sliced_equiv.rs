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
//!   scalar `SimResult` exactly (per-op cycles, busy counters, values)
//!   and every `Failed` lane the scalar `SimError`, diagnostics included.
//!   No lane of a generated design falls back: its controllers follow
//!   the state-name convention and its models are valid.

use tauhls_check::{
    arbitrary_elastic_spec, arbitrary_fault, arbitrary_plan, arbitrary_skew_plan, forall, Gen,
};
use tauhls_dfg::{random_dfg, OpId, RandomDfgParams};
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    elastic_trial_skew_seed, trial_rng, BatchRunner, CompletionModel, ControlStyle, CycleStats,
    Engine, Fault, FaultKind, FaultPlan, LaneBuilder, LaneConfigs, LaneInput, LaneModels,
    LaneOutcome, SimConfig, SimJob, SlabDriver, SlicedSim,
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

/// Lane models for `lanes` lanes: one shared Bernoulli model, or (half
/// the time) a per-lane mix of completion tables and Bernoulli lanes, so
/// one word holds lanes that read a fixed table and lanes that draw.
fn arbitrary_lane_models(g: &mut Gen, num_ops: usize, lanes: usize) -> Vec<CompletionModel> {
    if g.bool(0.5) {
        return vec![CompletionModel::Bernoulli { p: g.unit_f64() }];
    }
    (0..lanes)
        .map(|_| {
            let p = g.unit_f64();
            if g.bool(0.5) {
                CompletionModel::draw_table(num_ops, p, g.rng())
            } else {
                CompletionModel::Bernoulli { p }
            }
        })
        .collect()
}

#[test]
fn sliced_lanes_match_scalar_results_exactly() {
    forall("sliced-equiv-lanes", 60, |g| {
        let bound = arbitrary_bound(g);
        let cu = DistributedControlUnit::generate(&bound);
        let config = arbitrary_config(g, &bound, cu.controllers().len());
        let lanes = g.usize(1..=64);
        let lane_models = arbitrary_lane_models(g, bound.dfg().num_ops(), lanes);
        let model = |t: usize| &lane_models[t % lane_models.len()];
        let seed = g.u64(0..1_000_000);
        let models = match lane_models.as_slice() {
            [shared] => LaneModels::Shared(shared),
            per_lane => LaneModels::PerLane(per_lane),
        };
        let cfgs = LaneConfigs::Shared(&config);

        let fault_free = config == SimConfig::default();
        let styles = [
            ControlStyle::Distributed,
            ControlStyle::CentSync,
            ControlStyle::Cent,
            ControlStyle::Elastic(arbitrary_elastic_spec(g, 3)),
        ];
        for (job, style) in (0u64..).zip(styles) {
            let engine = Engine::generate(&bound, style);
            let mut rngs: Vec<_> = (0..lanes).map(|t| trial_rng(seed, job, t as u64)).collect();
            let skews: Vec<_> = (0..lanes as u64)
                .map(|t| elastic_trial_skew_seed(seed, job, t))
                .collect();
            let mut out = Vec::new();
            SlicedSim::new(&bound, &engine).run(&skews, &models, &cfgs, &mut rngs, &mut out);
            for (t, lane) in out.iter().enumerate() {
                let mut srng = trial_rng(seed, job, t as u64);
                let scalar =
                    engine.run_scalar(&bound, model(t), None, &mut srng, &config, skews[t]);
                assert_eq!(
                    lane.result(),
                    Some(scalar.as_ref()),
                    "{style:?} lane {t}, {config:?}"
                );
                if fault_free {
                    assert!(matches!(lane, LaneOutcome::Done(_)), "{style:?} lane {t}");
                }
            }
        }
    });
}

/// The fault kinds a resilience sweep injects, one kind per sweep row.
const FAULT_KINDS: [&str; 6] = [
    "stuck_short",
    "stuck_long",
    "drop_pulse",
    "spurious_pulse",
    "delay_latch",
    "flip_state",
];

/// Per-lane configs drawn like a resilience sweep's: lane `t` carries one
/// fault of kind `t % 6`, drawn by rejection from `arbitrary_fault` over
/// the sweep's injection window; every seventh lane instead carries an
/// [`arbitrary_config`] (multi-fault, or fault-free).
fn sweep_configs(
    g: &mut Gen,
    bound: &BoundDfg,
    num_controllers: usize,
    lanes: usize,
) -> Vec<SimConfig> {
    let num_ops = bound.dfg().num_ops();
    (0..lanes)
        .map(|t| {
            if t % 7 == 6 {
                return arbitrary_config(g, bound, num_controllers);
            }
            let fault = loop {
                let f = arbitrary_fault(g, num_ops, num_controllers, 2 * num_ops + 4);
                if f.kind.tag() == FAULT_KINDS[t % FAULT_KINDS.len()] {
                    break f;
                }
            };
            SimConfig::with_faults(FaultPlan::single(fault.at_cycle, fault.kind))
        })
        .collect()
}

#[test]
fn sliced_lane_errors_match_scalar() {
    forall("sliced-lane-errors", 60, |g| {
        let bound = arbitrary_bound(g);
        let cu = DistributedControlUnit::generate(&bound);
        let lanes = g.usize(1..=64);
        let configs = sweep_configs(g, &bound, cu.controllers().len(), lanes);
        let model = CompletionModel::Bernoulli { p: g.unit_f64() };
        let seed = g.u64(0..1_000_000);
        let styles = [
            ControlStyle::Distributed,
            ControlStyle::Cent,
            ControlStyle::Elastic(arbitrary_elastic_spec(g, 2)),
        ];
        let scalar = |engine: &Engine, job: u64, t: u64| {
            let mut rng = trial_rng(seed, job, t);
            let skew = elastic_trial_skew_seed(seed, job, t);
            engine.run_scalar(&bound, &model, None, &mut rng, &configs[t as usize], skew)
        };

        // DIST and ELASTIC lane by lane, on the engine itself.
        for style in [styles[0], styles[2]] {
            let engine = Engine::generate(&bound, style);
            let mut rngs: Vec<_> = (0..lanes).map(|t| trial_rng(seed, 0, t as u64)).collect();
            let skews: Vec<_> = (0..lanes as u64)
                .map(|t| elastic_trial_skew_seed(seed, 0, t))
                .collect();
            let mut out = Vec::new();
            SlicedSim::new(&bound, &engine).run(
                &skews,
                &LaneModels::Shared(&model),
                &LaneConfigs::PerLane(&configs),
                &mut rngs,
                &mut out,
            );
            for (t, lane) in out.iter().enumerate() {
                let want = scalar(&engine, 0, t as u64);
                let config = &configs[t];
                assert_eq!(
                    lane.result(),
                    Some(want.as_ref()),
                    "{style:?} lane {t}, {config:?}"
                );
            }
        }

        // DIST, CENT and ELASTIC through one driver: CENT reads DIST's pass.
        let driver = SlabDriver::new(&bound, &styles);
        let builder = LaneBuilder {
            rng: &|t| trial_rng(seed, 1, t),
            model: LaneInput::Shared(&model),
            config: LaneInput::PerLane(&|t, _| configs[t as usize].clone()),
            skew_seed: &|t| elastic_trial_skew_seed(seed, 1, t),
        };
        let runner = BatchRunner::serial();
        driver.run::<CycleStats, _>(lanes as u64, &runner, &builder, |_, t, config, results| {
            for ((engine, style), &got) in driver.engines().iter().zip(styles).zip(results) {
                let want = scalar(engine, 1, t);
                assert_eq!(want.as_ref(), got, "{style:?} trial {t}, {config:?}");
            }
        });
        // Every cell came from the sliced engine: CENT reads DIST's pass
        // and relabels its diagnoses, and nothing reran scalar.
        let paths = driver.paths();
        assert_eq!(paths.cells(), lanes as u64 * styles.len() as u64);
        assert_eq!(paths.reruns(), 0, "{paths:?}");
    });
}

/// One lane's config for the fault-index check: fault-free, a generated
/// multi-fault plan (half the time with clock-skew excursions appended),
/// or one of the hand-built shapes an index must keep exact — a stuck-short
/// then a stuck-long fault on one op (the later one wins once both are
/// active), two latch delays on one op, or one fault naming an op or
/// controller the design lacks.
fn index_config(g: &mut Gen, num_ops: usize, num_controllers: usize) -> SimConfig {
    let max_cycle = 2 * num_ops + 4;
    let op = OpId(g.usize(0..num_ops));
    let at = |g: &mut Gen| g.usize(1..=max_cycle);
    let plan = match g.usize(0..6) {
        0 => return SimConfig::default(),
        1 => {
            let mut plan = FaultPlan::single(at(g), FaultKind::StuckAtShort { op });
            let kind = FaultKind::StuckAtLong { op };
            plan.push(Fault {
                at_cycle: at(g),
                kind,
            });
            plan
        }
        2 => {
            let delay = g.usize(1..=4);
            let mut plan = FaultPlan::single(at(g), FaultKind::DelayLatch { op, delay });
            let kind = FaultKind::DelayLatch {
                op,
                delay: g.usize(1..=4),
            };
            plan.push(Fault {
                at_cycle: at(g),
                kind,
            });
            plan
        }
        3 => {
            let op = OpId(num_ops + g.usize(0..3));
            let controller = num_controllers + g.usize(0..3);
            let kind = match g.usize(0..6) {
                0 => FaultKind::StuckAtShort { op },
                1 => FaultKind::StuckAtLong { op },
                2 => FaultKind::DropPulse { op },
                3 => FaultKind::SpuriousPulse { op },
                4 => FaultKind::FlipState { controller, bit: 0 },
                _ => FaultKind::ClockSkew {
                    controller,
                    stall: 2,
                },
            };
            FaultPlan::single(at(g), kind)
        }
        _ => {
            let mut plan = arbitrary_plan(g, num_ops, num_controllers, max_cycle, 3);
            if g.bool(0.5) {
                let skew = arbitrary_skew_plan(g, num_controllers, max_cycle, 3, 2);
                for &fault in skew.faults() {
                    plan.push(fault);
                }
            }
            plan
        }
    };
    SimConfig::with_faults(plan)
}

#[test]
fn sliced_fault_index_matches_scalar() {
    forall("sliced-fault-index", 60, |g| {
        let bound = arbitrary_bound(g);
        let cu = DistributedControlUnit::generate(&bound);
        let num_ops = bound.dfg().num_ops();
        let lanes = g.usize(1..=64);
        let configs: Vec<_> = (0..lanes)
            .map(|_| index_config(g, num_ops, cu.controllers().len()))
            .collect();
        // One drawn table per lane, the shape of a resilience sweep.
        let p = g.unit_f64();
        let models: Vec<_> = (0..lanes)
            .map(|_| CompletionModel::draw_table(num_ops, p, g.rng()))
            .collect();
        let seed = g.u64(0..1_000_000);
        let styles = [
            ControlStyle::Distributed,
            ControlStyle::CentSync,
            ControlStyle::Cent,
            ControlStyle::Elastic(arbitrary_elastic_spec(g, 3)),
        ];
        let scalar = |engine: &Engine, job: u64, t: u64| {
            let mut rng = trial_rng(seed, job, t);
            let skew = elastic_trial_skew_seed(seed, job, t);
            let (model, config) = (&models[t as usize], &configs[t as usize]);
            engine.run_scalar(&bound, model, None, &mut rng, config, skew)
        };

        // Every style lane by lane, on the engine itself.
        for (job, style) in (0u64..).zip(styles) {
            let engine = Engine::generate(&bound, style);
            let mut rngs: Vec<_> = (0..lanes).map(|t| trial_rng(seed, job, t as u64)).collect();
            let skews: Vec<_> = (0..lanes as u64)
                .map(|t| elastic_trial_skew_seed(seed, job, t))
                .collect();
            let mut out = Vec::new();
            SlicedSim::new(&bound, &engine).run(
                &skews,
                &LaneModels::PerLane(&models),
                &LaneConfigs::PerLane(&configs),
                &mut rngs,
                &mut out,
            );
            for (t, lane) in out.iter().enumerate() {
                let want = scalar(&engine, job, t as u64);
                let config = &configs[t];
                assert_eq!(
                    lane.result(),
                    Some(want.as_ref()),
                    "{style:?} lane {t}, {config:?}"
                );
            }
        }

        // DIST, CENT and ELASTIC through one driver.
        let driven = [styles[0], styles[2], styles[3]];
        let driver = SlabDriver::new(&bound, &driven);
        let builder = LaneBuilder {
            rng: &|t| trial_rng(seed, 9, t),
            model: LaneInput::PerLane(&|t, _| models[t as usize].clone()),
            config: LaneInput::PerLane(&|t, _| configs[t as usize].clone()),
            skew_seed: &|t| elastic_trial_skew_seed(seed, 9, t),
        };
        let runner = BatchRunner::serial();
        driver.run::<CycleStats, _>(lanes as u64, &runner, &builder, |_, t, config, results| {
            for ((engine, style), &got) in driver.engines().iter().zip(driven).zip(results) {
                let want = scalar(engine, 9, t);
                assert_eq!(want.as_ref(), got, "{style:?} trial {t}, {config:?}");
            }
        });
        let paths = driver.paths();
        assert_eq!(paths.cells(), lanes as u64 * driven.len() as u64);
        assert_eq!(paths.reruns(), 0, "{paths:?}");
    });
}
