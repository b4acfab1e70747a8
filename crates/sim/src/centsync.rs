//! Simulation of the synchronized centralized controller (TAUBM /
//! CENT-SYNC, Fig 4b): the step-walk semantics of the paper's `LT_TAU`.
//!
//! A time step with TAU operations spends its extension half unless
//! *every* active TAU completes short — the `P^n` synchronization penalty.
//!
//! Runs on the shared [`crate::kernel`] loop as a step-walk
//! [`ControlStyle`]: each `advance` consumes one TAUBM time step
//! (incrementing the cycle counter in place for the extension half), so the
//! engine inherits the kernel's watchdog — under [`crate::Watchdog::Auto`]
//! the budget always exceeds the `2n` step-walk bound and never trips.
//!
//! Fault support: the centralized controller has no completion-pulse
//! fabric and no distributed state registers, so only the signal-level
//! fault kinds apply — stuck-at completion predictors (a stuck-at-short
//! predictor that suppresses a needed step extension is detected as
//! [`SimError::Desync`]) and delayed result latches. Dropped/spurious
//! pulses and state flips are no-ops here by construction. Delayed latches
//! are applied inline to the latch cycle (the synchronized datapath has no
//! per-op pulse to defer), so the kernel's deferred queue stays empty.

use crate::error::{Diagnostics, SimError};
use crate::fault::SimConfig;
use crate::kernel::{self, CompletionFabric, ControlStyle};
use crate::model::CompletionModel;
use crate::result::SimResult;
use rand::Rng;
use tauhls_dfg::{OpId, TaubmDfg};
use tauhls_sched::BoundDfg;

/// A CENT-SYNC diagnostics snapshot: the single synchronized controller
/// has no per-unit states and no pulse fabric, so only the done flags
/// (ops whose completion cycle is set) are reported.
pub(crate) fn cent_sync_diag(
    cycle: usize,
    reason: String,
    completed: &[usize],
) -> Box<Diagnostics> {
    Box::new(Diagnostics {
        cycle,
        reason,
        controllers: Vec::new(), // single centralized FSM, not modelled per-unit
        done: completed.iter().map(|&c| c > 0).collect(),
        outstanding: completed
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| i)
            .collect(),
        pulses: Vec::new(),
    })
}

fn desync(cycle: usize, reason: String, completed: &[usize]) -> SimError {
    SimError::Desync(cent_sync_diag(cycle, reason, completed))
}

/// The synchronized step-walk as a kernel [`ControlStyle`]: one `advance`
/// call per TAUBM time step, with the extension half folded in as an
/// in-place cycle increment.
struct CentSyncStyle<'a> {
    bound: &'a BoundDfg,
    taubm: TaubmDfg,
    model: &'a CompletionModel,
    /// Precomputed `(lhs, rhs)` operand values per op id.
    operand_vals: Vec<(i64, i64)>,
    step_idx: usize,
    completion_cycle: Vec<usize>,
    start_cycle: Vec<usize>,
    unit_busy: Vec<usize>,
    // Per-step draw buffers, reused across steps.
    shorts: Vec<bool>,
    truths: Vec<bool>,
}

impl<R: Rng> ControlStyle<R> for CentSyncStyle<'_> {
    fn running(&self, _fabric: &CompletionFabric) -> bool {
        self.step_idx < self.taubm.steps().len()
    }

    fn latch(&mut self, _fabric: &mut CompletionFabric, _op: OpId, _at: usize) {
        // Latch delays are applied inline when the step ends; the kernel's
        // deferred queue is never populated for this style.
    }

    fn advance(
        &mut self,
        cycle: &mut usize,
        _fabric: &mut CompletionFabric,
        rng: &mut R,
        config: &SimConfig,
    ) -> Result<(), SimError> {
        let faults = &config.faults;
        let faulty = !faults.is_empty();
        let dfg = self.bound.dfg();
        let step = &self.taubm.steps()[self.step_idx];
        self.step_idx += 1;

        // `*cycle` is the base half T_i (the kernel pre-increments).
        for &o in &step.fixed_ops {
            self.start_cycle[o.0] = *cycle;
            self.completion_cycle[o.0] = *cycle;
            self.unit_busy[self.bound.unit_of(o).0] += 1;
        }
        if step.tau_ops.is_empty() {
            return Ok(());
        }
        let mut all_short = true;
        self.shorts.clear();
        self.truths.clear();
        for &o in &step.tau_ops {
            self.start_cycle[o.0] = *cycle;
            let node = dfg.op(o);
            let (lhs, rhs) = self.operand_vals[o.0];
            let truth = self.model.completion(o, node.kind, lhs, rhs, rng);
            let short = faults.stuck_completion(o, *cycle).unwrap_or(truth);
            self.shorts.push(short);
            self.truths.push(truth);
            all_short &= short;
        }
        if !all_short {
            *cycle += 1; // the extension half T_i'
        }
        // A stuck-at-short predictor that masks a long completion while no
        // sibling extends the step makes the synchronized latch capture an
        // unfinished result.
        if faulty && all_short {
            for (&o, &truth) in step.tau_ops.iter().zip(&self.truths) {
                if !truth {
                    return Err(desync(
                        *cycle,
                        format!(
                            "step latched {o} at the base half but its true completion was long"
                        ),
                        &self.completion_cycle,
                    ));
                }
            }
        }
        for (&o, &short) in step.tau_ops.iter().zip(&self.shorts) {
            // Synchronized: every TAU result latches when the step ends,
            // but a unit is *busy* only while actually computing — a short
            // operation whose step extends for a sibling sits idle in the
            // extension half (the idle time the paper's §1 points at).
            self.completion_cycle[o.0] = *cycle + faults.latch_delay(o, *cycle);
            self.unit_busy[self.bound.unit_of(o).0] += if short { 1 } else { 2 };
        }
        Ok(())
    }

    fn diagnostics(
        &self,
        cycle: usize,
        reason: String,
        _fabric: &CompletionFabric,
    ) -> Box<Diagnostics> {
        cent_sync_diag(cycle, reason, &self.completion_cycle)
    }
}

/// Runs one iteration under synchronized centralized control, using the
/// binding's list schedule for the time steps: the CENT-SYNC body behind
/// [`Engine::run_scalar`](crate::Engine::run_scalar).
///
/// `inputs` are the DFG's primary input values (defaults to zeros). Faults
/// are applied after the completion draws, so the RNG stream is
/// independent of the plan.
pub(crate) fn run_cent_sync(
    bound: &BoundDfg,
    model: &CompletionModel,
    inputs: Option<&[i64]>,
    rng: &mut impl Rng,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    let dfg = bound.dfg();
    model
        .validate(dfg.num_ops())
        .map_err(SimError::InvalidConfig)?;
    let taubm = TaubmDfg::derive(
        dfg,
        bound.schedule().step_of(),
        bound.allocation().tau_classes(),
    );
    let zeros = vec![0i64; dfg.num_inputs()];
    let input_vals = inputs.unwrap_or(&zeros);
    let values = dfg.evaluate_all(input_vals);
    let operand_vals = crate::distributed::operand_values(bound, input_vals, &values);

    let faulty = !config.faults.is_empty();
    let n = dfg.num_ops();
    let num_units = bound.allocation().units().len();
    let mut fabric = CompletionFabric::new(n);
    let mut style = CentSyncStyle {
        bound,
        taubm,
        model,
        operand_vals,
        step_idx: 0,
        completion_cycle: vec![0usize; n],
        start_cycle: vec![0usize; n],
        unit_busy: vec![0usize; num_units],
        shorts: Vec::new(),
        truths: Vec::new(),
    };
    let cycle = kernel::run(&mut style, &mut fabric, rng, config, config.budget(n, 1))?;
    let CentSyncStyle {
        completion_cycle,
        start_cycle,
        unit_busy,
        ..
    } = style;

    let total = cycle.max(completion_cycle.iter().copied().max().unwrap_or(0));
    let result = SimResult {
        cycles: total,
        completion_cycle,
        start_cycle,
        unit_busy_cycles: unit_busy,
        values,
    };
    if faulty {
        if let Err(msg) = result.verify(bound) {
            let completed = result.completion_cycle.clone();
            return Err(desync(
                total,
                format!("post-run invariant violated: {msg}"),
                &completed,
            ));
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::tests::dist_run;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tauhls_dfg::benchmarks::{diffeq, fir3, fir5};
    use tauhls_sched::Allocation;

    /// One fault-free CENT-SYNC run.
    fn sync_run(
        bound: &BoundDfg,
        model: &CompletionModel,
        rng: &mut StdRng,
    ) -> Result<SimResult, SimError> {
        run_cent_sync(bound, model, None, rng, &SimConfig::default())
    }

    #[test]
    fn extremes_match_taubm_bounds() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let taubm = TaubmDfg::derive(
            bound.dfg(),
            bound.schedule().step_of(),
            bound.allocation().tau_classes(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let best = sync_run(&bound, &CompletionModel::AlwaysShort, &mut rng).unwrap();
        let worst = sync_run(&bound, &CompletionModel::AlwaysLong, &mut rng).unwrap();
        assert_eq!(best.cycles, taubm.best_latency_cycles());
        assert_eq!(worst.cycles, taubm.worst_latency_cycles());
    }

    #[test]
    fn monte_carlo_matches_analytic_expectation() {
        let bound = BoundDfg::bind(&diffeq(), &Allocation::paper(2, 1, 1));
        let taubm = TaubmDfg::derive(
            bound.dfg(),
            bound.schedule().step_of(),
            bound.allocation().tau_classes(),
        );
        let p = 0.7;
        let analytic = taubm.expected_latency_cycles_sync(p);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 30_000;
        let total: usize = (0..trials)
            .map(|_| {
                sync_run(&bound, &CompletionModel::Bernoulli { p }, &mut rng)
                    .unwrap()
                    .cycles
            })
            .sum();
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - analytic).abs() < 0.05,
            "mean {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn sync_never_beats_distributed() {
        use tauhls_fsm::DistributedControlUnit;
        let alloc = Allocation::paper(2, 1, 0);
        let bound = BoundDfg::bind(&fir5(), &alloc);
        let cu = DistributedControlUnit::generate(&bound);
        for seed in 0..40 {
            // Same seed stream for both -> same completion draws per op
            // are NOT guaranteed (different sampling order), so compare
            // distributions via matched extremes and many-seed dominance
            // in expectation instead of per-seed equality.
            let mut rng1 = StdRng::seed_from_u64(seed);
            let mut rng2 = StdRng::seed_from_u64(seed + 1000);
            let d = dist_run(
                &bound,
                &cu,
                &CompletionModel::Bernoulli { p: 0.5 },
                None,
                &mut rng1,
            )
            .unwrap();
            let s = sync_run(&bound, &CompletionModel::Bernoulli { p: 0.5 }, &mut rng2).unwrap();
            // Hard bounds always hold.
            assert!(d.cycles >= 5 && d.cycles <= 8, "dist {}", d.cycles);
            assert!(s.cycles >= 5 && s.cycles <= 8, "sync {}", s.cycles);
        }
        // Deterministic dominance at the extremes.
        let mut rng = StdRng::seed_from_u64(0);
        let db = dist_run(&bound, &cu, &CompletionModel::AlwaysShort, None, &mut rng).unwrap();
        let sb = sync_run(&bound, &CompletionModel::AlwaysShort, &mut rng).unwrap();
        assert!(db.cycles <= sb.cycles);
        let dw = dist_run(&bound, &cu, &CompletionModel::AlwaysLong, None, &mut rng).unwrap();
        let sw = sync_run(&bound, &CompletionModel::AlwaysLong, &mut rng).unwrap();
        assert!(dw.cycles <= sw.cycles);
    }

    #[test]
    fn fir3_sync_latencies_match_paper_row() {
        // Paper 3rd FIR LT_TAU: best 45 ns (3 cycles), worst 75 ns (5).
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let mut rng = StdRng::seed_from_u64(0);
        let best = sync_run(&bound, &CompletionModel::AlwaysShort, &mut rng).unwrap();
        let worst = sync_run(&bound, &CompletionModel::AlwaysLong, &mut rng).unwrap();
        assert_eq!(best.cycles, 3);
        assert_eq!(worst.cycles, 5);
    }

    #[test]
    fn completion_cycles_respect_dependences() {
        let bound = BoundDfg::bind(&diffeq(), &Allocation::paper(2, 1, 1));
        let mut rng = StdRng::seed_from_u64(4);
        let r = sync_run(&bound, &CompletionModel::Bernoulli { p: 0.5 }, &mut rng).unwrap();
        for v in bound.dfg().op_ids() {
            for p in bound.dfg().preds(v) {
                assert!(r.completion_cycle[p.0] < r.start_cycle[v.0]);
            }
        }
    }
    #[test]
    fn short_table_is_invalid_config() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let mut rng = StdRng::seed_from_u64(0);
        let err = sync_run(&bound, &CompletionModel::Table(vec![true]), &mut rng).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }
}
