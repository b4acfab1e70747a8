//! Fault-injection conformance suite.
//!
//! Establishes the two halves of the resilience contract:
//!
//! 1. **Inertness** — a `FaultPlan` that never fires reproduces the
//!    fault-free run of every engine bit for bit (same `SimResult`, same
//!    RNG stream consumption).
//! 2. **Detectability** — for every fault kind there exists an injection
//!    (found by a deterministic sweep over ops and cycles) that the engine
//!    detects and reports as a structured `SimError` with diagnostics,
//!    and the detection is bit-identical across 1, 2 and 8 threads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tauhls_dfg::benchmarks::fir5;
use tauhls_dfg::OpId;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    simulate_pipelined_with, BatchRunner, CompletionModel, ControlStyle, ElasticSpec, Engine,
    Fault, FaultKind, FaultPlan, SimConfig, SimError, SimJob, Watchdog,
};

fn fir5_setup() -> (BoundDfg, Engine) {
    let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
    let dist = Engine::generate(&bound, ControlStyle::Distributed);
    (bound, dist)
}

#[test]
fn unfired_plan_is_bit_identical_to_fault_free_runs() {
    // A plan whose only fault lies past the end of every run switches on
    // the faulty paths (post-run check, stretched watchdog) but must
    // change nothing: same results, same RNG stream consumption.
    // (The pipelined engine checks its iteration protocol only under
    // faults, and fault-free overlap may break it, so it is not inert.)
    let (bound, _) = fir5_setup();
    let clean = SimConfig::default();
    let late = SimConfig::with_faults(FaultPlan::single(
        10_000,
        FaultKind::DropPulse { op: OpId(0) },
    ));
    let styles = [
        ControlStyle::Distributed,
        ControlStyle::Cent,
        ControlStyle::CentSync,
        ControlStyle::Elastic(ElasticSpec::default()),
    ];
    for model in [
        CompletionModel::AlwaysShort,
        CompletionModel::AlwaysLong,
        CompletionModel::Bernoulli { p: 0.6 },
    ] {
        for seed in 0..20 {
            for style in styles {
                let engine = Engine::generate(&bound, style);
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut r2 = StdRng::seed_from_u64(seed);
                // Two runs each: the RNG streams must stay aligned too.
                for _ in 0..2 {
                    assert_eq!(
                        engine.run_scalar(&bound, &model, None, &mut r1, &clean, seed),
                        engine.run_scalar(&bound, &model, None, &mut r2, &late, seed),
                        "{style:?} diverged at seed {seed}"
                    );
                }
            }
        }
    }
}

/// Sweeps injection sites until the engine reports an error for `kind`,
/// returning the first detection. Deterministic: ops and cycles are
/// enumerated in order with a fixed seed per site.
fn first_detection(
    bound: &BoundDfg,
    dist: &Engine,
    make: impl Fn(OpId, usize) -> FaultKind,
) -> (FaultPlan, SimError) {
    let n = bound.dfg().num_ops();
    for op in 0..n {
        for cycle in 1..=12 {
            let plan = FaultPlan::single(cycle, make(OpId(op), cycle));
            let cfg = SimConfig::with_faults(plan.clone());
            let mut rng = StdRng::seed_from_u64(2003);
            if let Err(e) = dist.run_scalar(
                bound,
                &CompletionModel::Bernoulli { p: 0.5 },
                None,
                &mut rng,
                &cfg,
                0,
            ) {
                return (plan, e);
            }
        }
    }
    panic!("no injection site detected for this fault kind");
}

#[test]
fn stuck_at_long_starves_consumers_into_deadlock() {
    let (bound, dist) = fir5_setup();
    let (_, err) = first_detection(&bound, &dist, |op, _| FaultKind::StuckAtLong { op });
    let SimError::Deadlock(diag) = &err else {
        panic!("expected deadlock, got {err}");
    };
    assert!(!diag.outstanding.is_empty());
    assert!(!diag.controllers.is_empty());
    assert!(err.detected_cycle().is_some());
}

#[test]
fn stuck_at_short_is_detected_as_desync() {
    let (bound, dist) = fir5_setup();
    let (_, err) = first_detection(&bound, &dist, |op, _| FaultKind::StuckAtShort { op });
    assert!(matches!(err, SimError::Desync(_)), "got {err}");
}

#[test]
fn dropped_pulse_is_detected() {
    let (bound, dist) = fir5_setup();
    let (_, err) = first_detection(&bound, &dist, |op, _| FaultKind::DropPulse { op });
    assert!(
        matches!(err, SimError::Deadlock(_) | SimError::Desync(_)),
        "got {err}"
    );
}

#[test]
fn spurious_pulse_is_detected() {
    let (bound, dist) = fir5_setup();
    let (_, err) = first_detection(&bound, &dist, |op, _| FaultKind::SpuriousPulse { op });
    assert!(matches!(err, SimError::Desync(_)), "got {err}");
}

#[test]
fn delayed_latch_is_detected() {
    let (bound, dist) = fir5_setup();
    let (_, err) = first_detection(&bound, &dist, |op, _| FaultKind::DelayLatch {
        op,
        delay: 3,
    });
    assert!(matches!(err, SimError::Desync(_)), "got {err}");
}

#[test]
fn state_register_flip_is_detected() {
    let (bound, dist) = fir5_setup();
    let n = bound.dfg().num_ops();
    let controllers = dist
        .dist_bank()
        .expect("DIST has a bank")
        .controllers()
        .len();
    for controller in 0..controllers {
        for bit in 0..4u32 {
            for cycle in 1..=12 {
                let plan = FaultPlan::single(cycle, FaultKind::FlipState { controller, bit });
                let cfg = SimConfig::with_faults(plan);
                let mut rng = StdRng::seed_from_u64(7);
                if let Err(e) = dist.run_scalar(
                    &bound,
                    &CompletionModel::Bernoulli { p: 0.5 },
                    None,
                    &mut rng,
                    &cfg,
                    0,
                ) {
                    assert!(
                        matches!(e, SimError::Deadlock(_) | SimError::Desync(_)),
                        "got {e}"
                    );
                    return;
                }
            }
        }
    }
    panic!("no state flip detected on any controller/bit/cycle in a {n}-op DFG");
}

#[test]
fn detection_is_bit_identical_across_thread_counts() {
    let (bound, _) = fir5_setup();
    // Every trial injects the same stuck-at-long fault; the job must fail
    // with the *same* earliest-trial error regardless of parallelism.
    let cfg = SimConfig::with_faults(FaultPlan::single(2, FaultKind::StuckAtLong { op: OpId(0) }));
    let model = CompletionModel::Bernoulli { p: 0.5 };
    let job = SimJob::new(&bound, ControlStyle::Distributed, &model)
        .trials(64)
        .config(&cfg);
    let reference = job.run(11, &BatchRunner::serial()).unwrap_err();
    for threads in [2usize, 8] {
        let err = job.run(11, &BatchRunner::new(threads)).unwrap_err();
        assert_eq!(reference, err, "threads = {threads}");
    }
    assert!(matches!(reference, SimError::Deadlock(_)));
}

#[test]
fn diagnostics_carry_a_usable_snapshot() {
    let (bound, dist) = fir5_setup();
    let cfg = SimConfig::with_faults(FaultPlan::single(1, FaultKind::StuckAtLong { op: OpId(0) }));
    let mut rng = StdRng::seed_from_u64(0);
    let err = dist
        .run_scalar(
            &bound,
            &CompletionModel::AlwaysShort,
            None,
            &mut rng,
            &cfg,
            0,
        )
        .unwrap_err();
    let diag = err.diagnostics().expect("deadlock carries diagnostics");
    assert_eq!(diag.done.len(), bound.dfg().num_ops());
    let cu = dist.dist_bank().expect("DIST has a bank");
    assert_eq!(diag.controllers.len(), cu.controllers().len());
    // Snapshot states decode as real controller states.
    for c in &diag.controllers {
        assert!(
            c.state.starts_with('S') || c.state.starts_with('R'),
            "unexpected snapshot state {}",
            c.state
        );
    }
    // The rendered error names the cycle and at least one controller.
    let text = err.to_string();
    assert!(text.contains("cycle"));
    assert!(text.contains("D-FSM") || text.contains('='));
}

#[test]
fn watchdog_budget_is_configurable() {
    let (bound, dist) = fir5_setup();
    // A tiny fixed budget trips immediately even on a healthy run.
    let cfg = SimConfig {
        faults: FaultPlan::empty(),
        watchdog: Watchdog::Cycles(1),
    };
    let mut rng = StdRng::seed_from_u64(0);
    let err = dist
        .run_scalar(
            &bound,
            &CompletionModel::AlwaysShort,
            None,
            &mut rng,
            &cfg,
            0,
        )
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock(_)));
    // A generous one lets the same run finish.
    let cfg = SimConfig {
        faults: FaultPlan::empty(),
        watchdog: Watchdog::Cycles(10_000),
    };
    let mut rng = StdRng::seed_from_u64(0);
    dist.run_scalar(
        &bound,
        &CompletionModel::AlwaysShort,
        None,
        &mut rng,
        &cfg,
        0,
    )
    .unwrap();
}

#[test]
fn multi_fault_plans_compose() {
    let (bound, dist) = fir5_setup();
    let mut plan = FaultPlan::empty();
    plan.push(Fault {
        at_cycle: 2,
        kind: FaultKind::DropPulse { op: OpId(1) },
    });
    plan.push(Fault {
        at_cycle: 4,
        kind: FaultKind::StuckAtLong { op: OpId(3) },
    });
    assert_eq!(plan.faults().len(), 2);
    let cfg = SimConfig::with_faults(plan);
    let mut rng = StdRng::seed_from_u64(5);
    // Outcome may be any structured error (or survival) — but never a panic.
    let _ = dist.run_scalar(
        &bound,
        &CompletionModel::Bernoulli { p: 0.5 },
        None,
        &mut rng,
        &cfg,
        0,
    );
}

#[test]
fn centsync_detects_masked_extension() {
    // Stuck-at-short on a TAU op under an all-long model: the step latches
    // at the base half while the true computation needs the extension.
    // Needs a step whose only TAU op is the faulty one (otherwise a
    // healthy sibling extends the step and masks the fault) — fir5's odd
    // multiplication count over two units provides one.
    let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
    let n = bound.dfg().num_ops();
    for op in 0..n {
        for cycle in 1..=12 {
            let cfg = SimConfig::with_faults(FaultPlan::single(
                cycle,
                FaultKind::StuckAtShort { op: OpId(op) },
            ));
            let mut rng = StdRng::seed_from_u64(1);
            let long = CompletionModel::AlwaysLong;
            if let Err(e) = Engine::Sync.run_scalar(&bound, &long, None, &mut rng, &cfg, 0) {
                assert!(matches!(e, SimError::Desync(_)), "got {e}");
                return;
            }
        }
    }
    panic!("no centsync stuck-at-short detection found");
}

#[test]
fn pipelined_detects_stuck_at_long_deadlock() {
    let (bound, dist) = fir5_setup();
    let n = bound.dfg().num_ops();
    for op in 0..n {
        let cfg = SimConfig::with_faults(FaultPlan::single(
            1,
            FaultKind::StuckAtLong { op: OpId(op) },
        ));
        let mut rng = StdRng::seed_from_u64(3);
        if let Err(e) = simulate_pipelined_with(
            &bound,
            dist.dist_bank().expect("DIST has a bank"),
            &CompletionModel::Bernoulli { p: 0.5 },
            4,
            &mut rng,
            &cfg,
        ) {
            assert!(
                matches!(e, SimError::Deadlock(_) | SimError::Desync(_)),
                "got {e}"
            );
            return;
        }
    }
    panic!("no pipelined stuck-at-long detection found");
}
