//! Cycle-accurate simulation of the distributed control unit: every
//! arithmetic unit controller is stepped as a synchronous FSM, completion
//! signals propagate combinationally within the cycle, and consumers latch
//! (`done` flags) so a completion pulse is never lost.
//!
//! The engine is panic-free: abnormal conditions (deadlock, controller
//! desynchronization, malformed controllers) come back as [`SimError`]
//! values with a [`Diagnostics`](crate::Diagnostics) snapshot. A
//! [`SimConfig`] threads through the cycle loop, letting a
//! [`FaultPlan`](crate::FaultPlan) perturb the completion-signal fabric;
//! with the default (empty) config the sampling order, RNG stream and
//! results are identical to the fault-free engine.
//!
//! [`run_single_iter`] is the one single-iteration body: DIST runs it
//! directly, CENT with composite diagnostics, and ELASTIC with
//! clock-gating hooks (see [`crate::Engine`]).

use crate::error::{ControllerSnapshot, SimError};
use crate::fault::SimConfig;
use crate::kernel::{
    self, single_iter_diagnostics, CompletionFabric, DiagMode, FsmBank, FsmStyle, PulseHooks,
    SingleIterHooks,
};
use crate::model::CompletionModel;
use crate::result::SimResult;
use rand::Rng;
use tauhls_dfg::{OpId, Operand};
use tauhls_fsm::{DistributedControlUnit, Fsm, StateId};
use tauhls_sched::BoundDfg;

/// What a controller state means for its unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Executing op at the given telescopic stage (0 = the first, shortest
    /// attempt; stage `k` is the state with `k` primes). The unit's
    /// stage-completion signal is sampled in every non-final stage.
    Exec(OpId, u32),
    /// Waiting for predecessors of the op.
    Ready(OpId),
}

/// Decodes the `S{op}('...)` / `R{op}` state-name convention; `None` when
/// the name does not follow it (a controller-generation bug, reported as
/// [`SimError::UnknownState`] by the simulators).
pub(crate) fn parse_phase(name: &str) -> Option<Phase> {
    if let Some(rest) = name.strip_prefix('S') {
        let stage = rest.chars().rev().take_while(|&c| c == '\'').count() as u32;
        let core = &rest[..rest.len() - stage as usize];
        Some(Phase::Exec(OpId(core.parse().ok()?), stage))
    } else if let Some(rest) = name.strip_prefix('R') {
        Some(Phase::Ready(OpId(rest.parse().ok()?)))
    } else {
        None
    }
}

/// The snapshot of unit `unit`'s controller `f`, latched in `st`, for a
/// [`Diagnostics`](crate::Diagnostics) record: the state's name, or
/// `<invalid:N>` for a state id out of range.
pub(crate) fn controller_snapshot(unit: usize, f: &Fsm, st: StateId) -> ControllerSnapshot {
    ControllerSnapshot {
        unit,
        fsm: f.name().to_string(),
        state: f
            .state_name_opt(st)
            .map(str::to_string)
            .unwrap_or_else(|| format!("<invalid:{}>", st.0)),
    }
}

/// Precomputes the `(lhs, rhs)` operand values of every operation from
/// the primary-input assignment — exactly the values the legacy engine's
/// operand closure produced, consumed only by operand-driven models.
pub(crate) fn operand_values(
    bound: &BoundDfg,
    input_vals: &[i64],
    values: &[i64],
) -> Vec<(i64, i64)> {
    let dfg = bound.dfg();
    let operand = |o: Operand| -> i64 {
        match o {
            Operand::Input(i) => input_vals[i.0],
            Operand::Const(c) => c,
            Operand::Op(p) => values[p.0],
        }
    };
    dfg.op_ids()
        .map(|op| {
            let node = dfg.op(op);
            (operand(node.lhs), operand(node.rhs))
        })
        .collect()
}

/// Runs one iteration of the bound DFG on the distributed controller bank
/// `cu`: the one body behind DIST, CENT and ELASTIC, reached through
/// [`Engine::run_scalar`](crate::Engine::run_scalar).
///
/// The styles differ only in how diagnostics name the controllers
/// (`diag`), the watchdog `budget`, and the hooks that wrap the
/// single-iteration bookkeeping (`hooks`: the identity for DIST and CENT,
/// the clock-gating wrapper for ELASTIC), so the synchronous styles pay
/// no clock-gating branch.
///
/// `inputs` are the DFG's primary input values (defaults to zeros), used
/// both for the reference results and for operand-driven completion.
/// Faults are applied *after* every completion-model draw, so the RNG
/// stream is independent of the plan: an empty plan reproduces the
/// fault-free run bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_single_iter<'a, H>(
    bound: &'a BoundDfg,
    cu: &'a DistributedControlUnit,
    model: &CompletionModel,
    inputs: Option<&[i64]>,
    rng: &mut impl Rng,
    config: &SimConfig,
    diag: DiagMode,
    budget: usize,
    hooks: impl FnOnce(SingleIterHooks<'a>) -> H,
) -> Result<SimResult, SimError>
where
    H: PulseHooks + Into<SingleIterHooks<'a>>,
{
    let dfg = bound.dfg();
    model
        .validate(dfg.num_ops())
        .map_err(SimError::InvalidConfig)?;
    let zeros = vec![0i64; dfg.num_inputs()];
    let input_vals = inputs.unwrap_or(&zeros);
    let values = dfg.evaluate_all(input_vals);

    let mut fabric = CompletionFabric::new(dfg.num_ops());
    let inner = SingleIterHooks::new(bound, operand_values(bound, input_vals, &values), diag);
    let mut style = FsmStyle {
        bank: FsmBank::new(cu, bound.allocation().units().len()),
        hooks: hooks(inner),
        dfg,
        model,
    };
    let cycle = kernel::run(&mut style, &mut fabric, rng, config, budget)?;

    let FsmStyle { bank, hooks, .. } = style;
    let SingleIterHooks {
        completion_cycle,
        start_cycle,
        unit_busy,
        diag,
        ..
    } = hooks.into();
    let result = SimResult {
        cycles: cycle,
        completion_cycle,
        start_cycle,
        unit_busy_cycles: unit_busy,
        values,
    };
    // A faulty run that terminates may still have latched results out of
    // order (e.g. a spurious pulse "completing" an op before it started);
    // the post-run legality check turns that into a detection. Fault-free
    // runs skip it so the plain API keeps its historical cost and callers
    // remain free to `verify` themselves.
    if !config.faults.is_empty() {
        if let Err(msg) = result.verify(bound) {
            return Err(SimError::Desync(single_iter_diagnostics(
                &diag,
                &bank,
                &fabric,
                cycle,
                format!("post-run invariant violated: {msg}"),
            )));
        }
    }
    Ok(result)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Engine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tauhls_dfg::benchmarks::{diffeq, fig3_dfg, fir3, fir5};
    use tauhls_sched::Allocation;

    /// One fault-free DIST run of `cu` through the scalar engine.
    pub(crate) fn dist_run(
        bound: &BoundDfg,
        cu: &DistributedControlUnit,
        model: &CompletionModel,
        inputs: Option<&[i64]>,
        rng: &mut impl Rng,
    ) -> Result<SimResult, SimError> {
        Engine::Dist(cu.clone()).run_scalar(bound, model, inputs, rng, &SimConfig::default(), 0)
    }

    fn sim(
        g: &tauhls_dfg::Dfg,
        alloc: &Allocation,
        model: &CompletionModel,
        seed: u64,
    ) -> (BoundDfg, SimResult) {
        let bound = BoundDfg::bind(g, alloc);
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(seed);
        let r = dist_run(&bound, &cu, model, None, &mut rng).expect("fault-free run");
        (bound, r)
    }

    #[test]
    fn fir3_best_and_worst_cycles_match_paper() {
        // Paper Table 2, 3rd FIR row: best 45 ns = 3 cycles,
        // worst 75 ns = 5 cycles at a 15 ns clock.
        let (b, best) = sim(
            &fir3(),
            &Allocation::paper(2, 1, 0),
            &CompletionModel::AlwaysShort,
            0,
        );
        assert_eq!(best.cycles, 3);
        best.verify(&b).unwrap();
        let (b, worst) = sim(
            &fir3(),
            &Allocation::paper(2, 1, 0),
            &CompletionModel::AlwaysLong,
            0,
        );
        assert_eq!(worst.cycles, 5);
        worst.verify(&b).unwrap();
        assert!((best.latency_ns(15.0) - 45.0).abs() < 1e-9);
        assert!((worst.latency_ns(15.0) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn fir5_best_case() {
        let (b, best) = sim(
            &fir5(),
            &Allocation::paper(2, 1, 0),
            &CompletionModel::AlwaysShort,
            0,
        );
        assert_eq!(best.cycles, 5); // paper: 75 ns
        best.verify(&b).unwrap();
    }

    #[test]
    fn diffeq_best_case_is_four_cycles() {
        // Paper: Diff best = 60 ns = 4 cycles.
        let (b, best) = sim(
            &diffeq(),
            &Allocation::paper(2, 1, 1),
            &CompletionModel::AlwaysShort,
            0,
        );
        assert_eq!(best.cycles, 4);
        best.verify(&b).unwrap();
    }

    #[test]
    fn bernoulli_latency_between_extremes_and_legal() {
        let alloc = Allocation::paper(2, 1, 1);
        let g = diffeq();
        let (b, best) = sim(&g, &alloc, &CompletionModel::AlwaysShort, 1);
        let (_, worst) = sim(&g, &alloc, &CompletionModel::AlwaysLong, 1);
        for seed in 0..30 {
            let (_, r) = sim(&g, &alloc, &CompletionModel::Bernoulli { p: 0.7 }, seed);
            assert!(r.cycles >= best.cycles && r.cycles <= worst.cycles);
            r.verify(&b).unwrap();
        }
    }

    #[test]
    fn fig3_paper_binding_simulates_legally() {
        use tauhls_dfg::OpId;
        let g = fig3_dfg();
        let alloc = Allocation::paper(2, 2, 0);
        let bound = BoundDfg::bind_explicit(
            &g,
            &alloc,
            vec![
                vec![OpId(0), OpId(1)],
                vec![OpId(6), OpId(4), OpId(8)],
                vec![OpId(3), OpId(2)],
                vec![OpId(7), OpId(5)],
            ],
        )
        .unwrap();
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(9);
        for model in [
            CompletionModel::AlwaysShort,
            CompletionModel::AlwaysLong,
            CompletionModel::Bernoulli { p: 0.5 },
        ] {
            let r = dist_run(&bound, &cu, &model, None, &mut rng).unwrap();
            r.verify(&bound).unwrap();
        }
    }

    #[test]
    fn operand_driven_small_inputs_run_fast() {
        use crate::model::TauLibrary;
        let g = fir5();
        let alloc = Allocation::paper(2, 1, 0);
        let bound = BoundDfg::bind(&g, &alloc);
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(5);
        let lib = CompletionModel::OperandDriven(TauLibrary::multiplier_only(16, 20));
        // Small-magnitude inputs: all mults short -> best case.
        let small: Vec<i64> = (1..=10).collect();
        let r = dist_run(&bound, &cu, &lib, Some(&small), &mut rng).unwrap();
        assert_eq!(r.cycles, 5);
        // Large-magnitude inputs: all mults long -> worst case.
        let big: Vec<i64> = (0..10).map(|i| 0x7000 + i * 0x111).collect();
        let r2 = dist_run(&bound, &cu, &lib, Some(&big), &mut rng).unwrap();
        assert!(r2.cycles > r.cycles);
        r2.verify(&bound).unwrap();
    }

    #[test]
    fn utilization_and_busy_accounting() {
        let (b, r) = sim(
            &fir3(),
            &Allocation::paper(2, 1, 0),
            &CompletionModel::AlwaysShort,
            0,
        );
        // M1 runs 2 mults, M2 runs 1, A1 runs 2 adds over 3 cycles.
        let total_busy: usize = r.unit_busy_cycles.iter().sum();
        assert_eq!(total_busy, b.dfg().num_ops()); // all short: 1 cycle/op
        assert!(r.utilization(0) > 0.0);
    }

    #[test]
    fn multilevel_controllers_simulate_and_bound_latency() {
        // Three-level TAU multipliers on FIR5: best case unchanged, worst
        // case gains one extra cycle per multiplication wave.
        let g = fir5();
        let alloc = Allocation::paper(2, 1, 0);
        let bound = BoundDfg::bind(&g, &alloc);
        let cu2 = DistributedControlUnit::generate(&bound);
        let cu3 = DistributedControlUnit::generate_multilevel(&bound, 3);
        for (_, f) in cu3.controllers() {
            f.check().unwrap();
        }
        let mut rng = StdRng::seed_from_u64(1);
        let best2 = dist_run(&bound, &cu2, &CompletionModel::AlwaysShort, None, &mut rng).unwrap();
        let best3 = dist_run(&bound, &cu3, &CompletionModel::AlwaysShort, None, &mut rng).unwrap();
        assert_eq!(best2.cycles, best3.cycles);
        let worst2 = dist_run(&bound, &cu2, &CompletionModel::AlwaysLong, None, &mut rng).unwrap();
        let worst3 = dist_run(&bound, &cu3, &CompletionModel::AlwaysLong, None, &mut rng).unwrap();
        assert!(
            worst3.cycles > worst2.cycles,
            "{} vs {}",
            worst3.cycles,
            worst2.cycles
        );
        // Mid-probability runs are legal and bracketed.
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = dist_run(
                &bound,
                &cu3,
                &CompletionModel::Bernoulli { p: 0.6 },
                None,
                &mut rng,
            )
            .unwrap();
            r.verify(&bound).unwrap();
            assert!(r.cycles >= best3.cycles && r.cycles <= worst3.cycles);
        }
    }

    #[test]
    fn multilevel_two_equals_classic_latency() {
        let g = diffeq();
        let alloc = Allocation::paper(2, 1, 1);
        let bound = BoundDfg::bind(&g, &alloc);
        let cu2 = DistributedControlUnit::generate(&bound);
        let cu2b = DistributedControlUnit::generate_multilevel(&bound, 2);
        for p in [1.0, 0.0, 0.5] {
            let mut rng = StdRng::seed_from_u64(11);
            let table = CompletionModel::draw_table(g.num_ops(), p, &mut rng);
            let mut r1 = StdRng::seed_from_u64(0);
            let mut r2 = StdRng::seed_from_u64(0);
            let a = dist_run(&bound, &cu2, &table, None, &mut r1).unwrap();
            let b = dist_run(&bound, &cu2b, &table, None, &mut r2).unwrap();
            assert_eq!(a.cycles, b.cycles, "p={p}");
        }
    }

    #[test]
    fn random_dfgs_simulate_legally_across_models() {
        use tauhls_dfg::{random_dfg, RandomDfgParams};
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..15 {
            let g = random_dfg(
                &mut rng,
                &RandomDfgParams {
                    num_ops: 18,
                    kind_weights: [2, 1, 3, 0],
                    ..Default::default()
                },
            );
            let alloc = Allocation::paper(2, 1, 1);
            let bound = BoundDfg::bind(&g, &alloc);
            let cu = DistributedControlUnit::generate(&bound);
            let r = dist_run(
                &bound,
                &cu,
                &CompletionModel::Bernoulli { p: 0.6 },
                None,
                &mut rng,
            )
            .unwrap();
            r.verify(&bound).unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
    }
    #[test]
    fn short_table_is_invalid_config() {
        // Regression: a user-built table shorter than the DFG used to
        // panic on `t[op.0]` deep in the cycle loop; it must surface as
        // InvalidConfig at entry instead.
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(0);
        let err = dist_run(
            &bound,
            &cu,
            &CompletionModel::Table(vec![true]),
            None,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }
}
