//! The ELASTIC (GALS) controller style: the distributed control unit with
//! every per-unit controller on its own local clock.
//!
//! Local clocks are modeled against a common fabric cycle: within every
//! skew window of `skew_bound + 1` fabric cycles, each controller's clock
//! stalls for a seed-driven prefix of `0..=skew_bound` cycles and ticks on
//! the rest, so every clock ticks at least once per window (bounded skew,
//! as in gradient/PALS clocking). A controller whose clock does not tick
//! is completely frozen for the fabric cycle: no phase decode, no
//! completion draw, no busy accounting, no transition.
//!
//! Completions cross clock domains through a handshake: a result latched
//! at fabric cycle `t` becomes visible to *other* controllers' `C_CO`
//! inputs at `t + sync_latency` (two-flop-style synchronizer latency,
//! measured in fabric cycles). With `sync_latency > 0` the same-cycle
//! combinational pulse chaining of the synchronous styles is cut — every
//! cross-controller completion transfer is latched.
//!
//! Setting both knobs to zero ([`ElasticSpec::zero`]) collapses the style
//! back to a single clock domain: the run is then bisimilar to the
//! distributed style cycle for cycle (asserted by tests here and by the
//! dedicated bisimulation suite).
//!
//! Skew schedules are drawn from a dedicated seed — never from the trial
//! RNG — so an elastic leg riding alongside synchronous legs leaves their
//! RNG streams untouched, exactly like the fault overlays.

use crate::batch::derive_seed;
use crate::distributed::run_single_iter;
use crate::error::SimError;
use crate::fault::{FaultPlan, SimConfig};
use crate::kernel::{
    ClockFabric, CompletionFabric, DiagMode, ElasticSpec, FsmBank, OpSet, PulseHooks,
    SingleIterHooks,
};
use crate::model::CompletionModel;
use crate::result::SimResult;
use rand::Rng;
use tauhls_dfg::{Dfg, OpId};
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::BoundDfg;

/// Salt xored into the base seed before deriving per-trial skew seeds, so
/// the skew stream is unrelated to the completion-draw stream of the same
/// `(base_seed, job_id, trial)` coordinates.
pub const ELASTIC_SKEW_SALT: u64 = 0x656C_6173_7469_6373;

/// Derives the skew-schedule seed for one trial of one job — the elastic
/// counterpart of [`derive_seed`], on its own salted stream.
pub fn elastic_trial_skew_seed(base_seed: u64, job_id: u64, trial: u64) -> u64 {
    derive_seed(base_seed ^ ELASTIC_SKEW_SALT, job_id, trial)
}

/// The watchdog budget of an elastic run: the synchronous budget stretched
/// by the worst-case clock-stall factor (`period`) plus one handshake
/// latency per completion transfer. Collapses to the synchronous budget at
/// [`ElasticSpec::zero`], so the zero-spec bisimulation covers the
/// watchdog too.
pub(crate) fn elastic_budget(config: &SimConfig, n: usize, spec: &ElasticSpec) -> usize {
    config.budget(n, 1) * spec.period() as usize + spec.sync_latency as usize * (n + 1)
}

/// [`PulseHooks`] of the elastic style: the single-iteration hooks wrapped
/// with a [`ClockFabric`] that gates controller ticks and delays
/// cross-domain completion visibility.
pub(crate) struct ElasticHooks<'a> {
    inner: SingleIterHooks<'a>,
    clock: ClockFabric,
}

impl PulseHooks for ElasticHooks<'_> {
    fn exec(
        &mut self,
        fabric: &CompletionFabric,
        dfg: &Dfg,
        op: OpId,
        stage: u32,
        cycle: usize,
        faulty: bool,
    ) -> Result<(), String> {
        self.inner.exec(fabric, dfg, op, stage, cycle, faulty)
    }

    fn operands(&self, op: OpId) -> (i64, i64) {
        self.inner.operands(op)
    }

    fn busy(&mut self, fabric: &CompletionFabric, op: OpId, unit: usize) {
        self.inner.busy(fabric, op, unit);
    }

    fn cco(
        &self,
        fabric: &CompletionFabric,
        pulses: &OpSet,
        p: usize,
        cur: OpId,
        cycle: usize,
    ) -> bool {
        if self.clock.combinational() {
            // Zero handshake latency: synchronous semantics (latched done
            // or a same-cycle pulse), the degenerate one-domain case.
            self.inner.cco(fabric, pulses, p, cur, cycle)
        } else {
            // Cross-domain transfer is latched: a completion is seen only
            // once its handshake has crossed, never combinationally.
            self.clock.done_visible(p, cycle)
        }
    }

    fn ticks(&self, ctrl: usize, cycle: usize, faults: &FaultPlan) -> bool {
        self.clock.ticks(ctrl, cycle) && !faults.clock_stalled(ctrl, cycle)
    }

    fn skip_latch(&self, fabric: &CompletionFabric, op: OpId) -> bool {
        self.inner.skip_latch(fabric, op)
    }

    fn latch(&mut self, fabric: &mut CompletionFabric, op: OpId, at: usize) {
        // Capture freshness before the inner latch flips the done bit:
        // only a *first* latch starts the handshake (re-latches of an
        // already-done op must not move the visibility point).
        let fresh = !fabric.done().contains(op);
        self.inner.latch(fabric, op, at);
        if fresh {
            self.clock.on_latch(op, at);
        }
    }

    fn running(&self, fabric: &CompletionFabric) -> bool {
        self.inner.running(fabric)
    }

    fn diagnostics(
        &self,
        bank: &FsmBank,
        fabric: &CompletionFabric,
        cycle: usize,
        reason: String,
    ) -> Box<crate::error::Diagnostics> {
        self.inner.diagnostics(bank, fabric, cycle, reason)
    }
}

impl<'a> From<ElasticHooks<'a>> for SingleIterHooks<'a> {
    fn from(hooks: ElasticHooks<'a>) -> Self {
        hooks.inner
    }
}

/// Runs one ELASTIC iteration of the bound DFG on the distributed
/// controller bank `cu`, with every controller on its own local clock
/// from `clock`: [`ClockFabric::elastic`] for a seeded schedule, or
/// [`ClockFabric::elastic_saturated`] for the worst schedule in the
/// spec's space. This is DIST's single-iteration body under the
/// clock-gating hooks and the stretched [`elastic_budget`].
///
/// The trial `rng` is consumed exactly as the distributed style consumes
/// it, so elastic and distributed legs can ride the same trial stream.
/// All six synchronous fault kinds compose with the clocking model, and
/// the `ClockSkew` kind — inert in the synchronous engines — freezes the
/// targeted controller for its stall span here.
pub(crate) fn run_elastic(
    bound: &BoundDfg,
    cu: &DistributedControlUnit,
    model: &CompletionModel,
    inputs: Option<&[i64]>,
    rng: &mut impl Rng,
    config: &SimConfig,
    clock: ClockFabric,
) -> Result<SimResult, SimError> {
    let budget = elastic_budget(config, bound.dfg().num_ops(), clock.spec());
    let hooks = |inner| ElasticHooks { inner, clock };
    run_single_iter(
        bound,
        cu,
        model,
        inputs,
        rng,
        config,
        DiagMode::PerUnit,
        budget,
        hooks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::tests::dist_run;
    use crate::fault::FaultKind;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use tauhls_dfg::benchmarks::{diffeq, fir3, fir5};
    use tauhls_sched::Allocation;

    /// One seeded ELASTIC run of `cu` under `cfg`.
    fn elastic(
        bound: &BoundDfg,
        cu: &DistributedControlUnit,
        model: &CompletionModel,
        rng: &mut StdRng,
        cfg: &SimConfig,
        spec: ElasticSpec,
        skew_seed: u64,
    ) -> Result<SimResult, SimError> {
        let clock = ClockFabric::elastic(bound.dfg().num_ops(), spec, skew_seed);
        run_elastic(bound, cu, model, None, rng, cfg, clock)
    }

    fn fir5_setup() -> (BoundDfg, DistributedControlUnit) {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        (bound, cu)
    }

    #[test]
    fn zero_spec_is_bisimilar_to_distributed() {
        // ELASTIC with skew bound 0 and sync latency 0 must reproduce the
        // distributed run in full: cycles, per-op start/completion cycles,
        // busy counters and values — for any model and any skew seed.
        for (g, alloc) in [
            (fir3(), Allocation::paper(2, 1, 0)),
            (fir5(), Allocation::paper(2, 1, 0)),
            (diffeq(), Allocation::paper(2, 1, 1)),
        ] {
            let bound = BoundDfg::bind(&g, &alloc);
            let cu = DistributedControlUnit::generate(&bound);
            for seed in 0..20u64 {
                let model = CompletionModel::Bernoulli { p: 0.6 };
                let cfg = SimConfig::default();
                let mut r1 = StdRng::seed_from_u64(seed);
                let dist = dist_run(&bound, &cu, &model, None, &mut r1).unwrap();
                let mut r2 = StdRng::seed_from_u64(seed);
                let elas = elastic(
                    &bound,
                    &cu,
                    &model,
                    &mut r2,
                    &cfg,
                    ElasticSpec::zero(),
                    seed.wrapping_mul(77), // the skew seed must be irrelevant
                )
                .unwrap();
                assert_eq!(dist, elas, "seed {seed}");
                // RNG streams stay aligned after the run too.
                assert_eq!(r1.next_u64(), r2.next_u64());
            }
        }
    }

    #[test]
    fn skewed_runs_are_legal_deterministic_and_never_faster() {
        let (bound, cu) = fir5_setup();
        let n = bound.dfg().num_ops();
        let cfg = SimConfig::default();
        for spec in [
            ElasticSpec::default(),
            ElasticSpec {
                skew_bound: 2,
                sync_latency: 1,
            },
            ElasticSpec {
                skew_bound: 0,
                sync_latency: 2,
            },
            ElasticSpec {
                skew_bound: 3,
                sync_latency: 0,
            },
        ] {
            for seed in 0..10u64 {
                // Coupled draw: the same completion table feeds both
                // styles, so the comparison is per-trial.
                let mut trng = StdRng::seed_from_u64(seed);
                let table = CompletionModel::draw_table(n, 0.5, &mut trng);
                let mut r1 = StdRng::seed_from_u64(1);
                let dist = dist_run(&bound, &cu, &table, None, &mut r1).unwrap();
                let mut r2 = StdRng::seed_from_u64(1);
                let skew_seed = derive_seed(3, 0, seed);
                let run = |rng: &mut StdRng| {
                    elastic(&bound, &cu, &table, rng, &cfg, spec, skew_seed).unwrap()
                };
                let elas = run(&mut r2);
                elas.verify(&bound).unwrap();
                assert!(
                    dist.cycles <= elas.cycles,
                    "elastic beat dist under {spec:?}: {} < {}",
                    elas.cycles,
                    dist.cycles
                );
                // Same seeds -> bit-identical rerun.
                let mut r3 = StdRng::seed_from_u64(1);
                assert_eq!(elas, run(&mut r3));
                let _ = trng.next_u64();
            }
        }
    }

    #[test]
    fn schedule_space_extremes_bracket_every_seeded_run() {
        // The latency-summary envelope runs the stall-free floor and the
        // saturated ceiling; stalls only ever delay events, so every
        // seeded schedule must land between the two for the same table.
        let (bound, cu) = fir5_setup();
        let n = bound.dfg().num_ops();
        let cfg = SimConfig::default();
        let spec = ElasticSpec {
            skew_bound: 3,
            sync_latency: 1,
        };
        let floor_spec = ElasticSpec {
            skew_bound: 0,
            ..spec
        };
        for seed in 0..10u64 {
            let mut trng = StdRng::seed_from_u64(seed);
            let table = CompletionModel::draw_table(n, 0.5, &mut trng);
            let mut r = StdRng::seed_from_u64(1);
            let floor = elastic(&bound, &cu, &table, &mut r, &cfg, floor_spec, 0).unwrap();
            let mut r = StdRng::seed_from_u64(1);
            let ceil = run_elastic(
                &bound,
                &cu,
                &table,
                None,
                &mut r,
                &cfg,
                ClockFabric::elastic_saturated(n, spec),
            )
            .unwrap();
            assert!(floor.cycles <= ceil.cycles);
            for skew_seed in 0..20u64 {
                let mut r = StdRng::seed_from_u64(1);
                let e = elastic(&bound, &cu, &table, &mut r, &cfg, spec, skew_seed).unwrap();
                assert!(
                    floor.cycles <= e.cycles && e.cycles <= ceil.cycles,
                    "seed {seed} skew {skew_seed}: {} outside [{}, {}]",
                    e.cycles,
                    floor.cycles,
                    ceil.cycles
                );
            }
        }
    }

    #[test]
    fn skew_seed_changes_schedules_but_not_legality() {
        let (bound, cu) = fir5_setup();
        let cfg = SimConfig::default();
        let spec = ElasticSpec {
            skew_bound: 3,
            sync_latency: 1,
        };
        let mut distinct = std::collections::HashSet::new();
        for skew_seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(5);
            let r = elastic(
                &bound,
                &cu,
                &CompletionModel::AlwaysShort,
                &mut rng,
                &cfg,
                spec,
                skew_seed,
            )
            .unwrap();
            r.verify(&bound).unwrap();
            distinct.insert(r.cycles);
        }
        // Different skew seeds must actually exercise different stall
        // schedules (not all collapse to one latency).
        assert!(distinct.len() > 1, "all skew seeds gave {distinct:?}");
    }

    #[test]
    fn clock_skew_fault_stretches_the_run_and_composes() {
        let (bound, cu) = fir5_setup();
        let spec = ElasticSpec {
            skew_bound: 1,
            sync_latency: 1,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let clean = elastic(
            &bound,
            &cu,
            &CompletionModel::AlwaysShort,
            &mut rng,
            &SimConfig::default(),
            spec,
            7,
        )
        .unwrap();
        // Freeze controller 0 for 5 cycles mid-run: the run must still
        // terminate legally (a frozen clock loses no completions) and can
        // only get slower.
        let cfg = SimConfig::with_faults(FaultPlan::single(
            2,
            FaultKind::ClockSkew {
                controller: 0,
                stall: 5,
            },
        ));
        let mut rng = StdRng::seed_from_u64(2);
        let stalled = elastic(
            &bound,
            &cu,
            &CompletionModel::AlwaysShort,
            &mut rng,
            &cfg,
            spec,
            7,
        )
        .unwrap();
        stalled.verify(&bound).unwrap();
        assert!(
            stalled.cycles >= clean.cycles,
            "{} < {}",
            stalled.cycles,
            clean.cycles
        );
    }

    #[test]
    fn synchronous_fault_kinds_compose_with_elastic_clocking() {
        use tauhls_dfg::OpId;
        let (bound, cu) = fir5_setup();
        let spec = ElasticSpec::default();
        let plans = [
            FaultPlan::single(1, FaultKind::StuckAtLong { op: OpId(0) }),
            FaultPlan::single(1, FaultKind::StuckAtShort { op: OpId(1) }),
            FaultPlan::single(2, FaultKind::DropPulse { op: OpId(2) }),
            FaultPlan::single(2, FaultKind::SpuriousPulse { op: OpId(3) }),
            FaultPlan::single(
                1,
                FaultKind::DelayLatch {
                    op: OpId(1),
                    delay: 2,
                },
            ),
            FaultPlan::single(
                2,
                FaultKind::FlipState {
                    controller: 0,
                    bit: 0,
                },
            ),
        ];
        for plan in plans {
            let cfg = SimConfig::with_faults(plan);
            let mut rng = StdRng::seed_from_u64(3);
            // Every kind must resolve to a structured verdict — a legal
            // (survived) run or a detection — never a panic.
            match elastic(
                &bound,
                &cu,
                &CompletionModel::Bernoulli { p: 0.5 },
                &mut rng,
                &cfg,
                spec,
                11,
            ) {
                Ok(r) => r.verify(&bound).unwrap(),
                Err(SimError::Deadlock(_) | SimError::Desync(_)) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }

    #[test]
    fn skew_seed_derivation_is_salted_and_collision_free() {
        // The skew stream must differ from the completion stream at the
        // same coordinates.
        assert_ne!(elastic_trial_skew_seed(7, 0, 3), derive_seed(7, 0, 3));
        let mut seeds: Vec<u64> = (0..10_000)
            .map(|t| elastic_trial_skew_seed(7, 0, t))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn elastic_budget_collapses_at_zero_spec() {
        let cfg = SimConfig::default();
        assert_eq!(
            elastic_budget(&cfg, 9, &ElasticSpec::zero()),
            cfg.budget(9, 1)
        );
        let spec = ElasticSpec {
            skew_bound: 2,
            sync_latency: 3,
        };
        assert_eq!(
            elastic_budget(&cfg, 9, &spec),
            cfg.budget(9, 1) * 3 + 3 * 10
        );
    }

    #[test]
    fn window_stall_ticks_at_least_once_per_window() {
        for seed in 0..50u64 {
            let spec = ElasticSpec {
                skew_bound: 3,
                sync_latency: 1,
            };
            let clock = ClockFabric::elastic(8, spec, seed);
            for ctrl in 0..6usize {
                for window in 0..20usize {
                    let period = spec.period() as usize;
                    let ticks: usize = (0..period)
                        .filter(|pos| clock.ticks(ctrl, 1 + window * period + pos))
                        .count();
                    assert!(ticks >= 1, "seed {seed} ctrl {ctrl} window {window}");
                }
            }
        }
    }
}
