//! Pipelined (overlapped-iteration) simulation.
//!
//! The Algorithm-1 controllers wrap around for "repetitive execution of
//! the DFG": once a unit finishes its last operation it immediately starts
//! the next iteration's first one, so successive DFG iterations overlap in
//! the datapath. This module measures the steady-state **initiation
//! interval** of that mode and — because the paper's single-register-
//! per-result datapath can overwrite a value that a lagging consumer has
//! not fetched yet — detects **write-after-read hazards**, reporting how
//! much buffering pipelined operation would actually need.
//!
//! Completion signals are iteration-tagged: consumer instance `k` of an
//! operation waits for instance `k` of each cross-unit producer.

use crate::error::{Diagnostics, SimError};
use crate::fault::SimConfig;
use crate::kernel::{self, CompletionFabric, FsmBank, FsmStyle, OpSet, PulseHooks};
use crate::model::CompletionModel;
use rand::Rng;
use tauhls_dfg::{Dfg, OpId};
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::BoundDfg;

/// Result of a pipelined multi-iteration run.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelinedResult {
    /// Number of completed DFG iterations.
    pub iterations: usize,
    /// Cycle in which the last operation of each iteration completed.
    pub iteration_end_cycle: Vec<usize>,
    /// Total cycles simulated.
    pub total_cycles: usize,
    /// Write-after-read hazards: `(producer, iteration)` pairs where the
    /// producer's next-iteration result was latched before every consumer
    /// of the current iteration had started (i.e. fetched its operands).
    pub war_hazards: Vec<(OpId, usize)>,
}

impl PipelinedResult {
    /// Mean initiation interval in cycles over the steady-state iterations
    /// (first iteration excluded as pipeline fill).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two iterations were run.
    pub fn initiation_interval(&self) -> f64 {
        assert!(self.iterations >= 2, "need >= 2 iterations for II");
        let first = self.iteration_end_cycle[0];
        let last = *self.iteration_end_cycle.last().expect("nonempty");
        (last - first) as f64 / (self.iterations - 1) as f64
    }
}

/// The pipelined engine's [`PulseHooks`]: iteration-tagged completion
/// semantics (instance counts instead of done latches), WAR-hazard
/// bookkeeping on every latch, and producer-instance protocol checks.
struct PipelinedHooks<'a> {
    bound: &'a BoundDfg,
    iterations: usize,
    /// completions[op] = number of finished instances.
    completions: Vec<usize>,
    /// starts[op] = number of instances that have begun execution.
    starts: Vec<usize>,
    iteration_end_cycle: Vec<usize>,
    war_hazards: Vec<(OpId, usize)>,
}

impl PulseHooks for PipelinedHooks<'_> {
    fn exec(
        &mut self,
        _fabric: &CompletionFabric,
        dfg: &Dfg,
        op: OpId,
        stage: u32,
        _cycle: usize,
        faulty: bool,
    ) -> Result<(), String> {
        if stage == 0 && self.starts[op.0] == self.completions[op.0] {
            self.starts[op.0] += 1;
            // Iteration-tagged protocol invariant: instance k of `op`
            // needs instance k of every producer. Only enforced under
            // fault injection — the fault-free engine is byte-identical
            // to its historical self.
            if faulty {
                let k = self.starts[op.0];
                if let Some(p) = dfg.preds(op).iter().find(|p| self.completions[p.0] < k) {
                    return Err(format!(
                        "{op} started instance {k} before producer {p} finished it"
                    ));
                }
            }
        }
        Ok(())
    }

    fn operands(&self, _op: OpId) -> (i64, i64) {
        // Bernoulli-style models only; operand-driven completion would
        // need per-iteration input streams.
        (0, 0)
    }

    fn busy(&mut self, _fabric: &CompletionFabric, _op: OpId, _unit: usize) {}

    fn cco(
        &self,
        _fabric: &CompletionFabric,
        pulses: &OpSet,
        p: usize,
        cur: OpId,
        _cycle: usize,
    ) -> bool {
        // Iteration-tagged semantics: the consumer currently working
        // toward instance k of `cur` sees C_CO(p) high iff instance k of
        // p has completed, where k = completions[cur] + 1.
        let needed = self.completions[cur.0] + 1;
        self.completions[p] + usize::from(pulses.contains(OpId(p))) >= needed
    }

    fn skip_latch(&self, _fabric: &CompletionFabric, _op: OpId) -> bool {
        false
    }

    /// Records one completion-pulse latch: WAR hazard bookkeeping,
    /// instance count, and iteration-end accounting.
    fn latch(&mut self, _fabric: &mut CompletionFabric, op: OpId, at: usize) {
        // WAR hazard check: latching instance k+1 of `op` while some
        // consumer has not yet *started* instance k+1 of itself with
        // the old value — i.e. a consumer's start count is behind the
        // producer's completion count.
        let k = self.completions[op.0]; // finished instances before this one
        if k >= 1 && k < self.iterations {
            for c in self.bound.cross_unit_succs(op) {
                if self.starts[c.0] < k {
                    self.war_hazards.push((op, k));
                    break;
                }
            }
        }
        self.completions[op.0] += 1;
        let iter_done = self.completions[op.0];
        if iter_done <= self.iterations && self.completions.iter().all(|&c| c >= iter_done) {
            self.iteration_end_cycle[iter_done - 1] = at;
        }
    }

    fn running(&self, _fabric: &CompletionFabric) -> bool {
        self.completions.iter().any(|&c| c < self.iterations)
    }

    fn diagnostics(
        &self,
        bank: &FsmBank,
        fabric: &CompletionFabric,
        cycle: usize,
        reason: String,
    ) -> Box<Diagnostics> {
        Box::new(Diagnostics {
            cycle,
            reason,
            controllers: bank.snapshots(),
            done: self
                .completions
                .iter()
                .map(|&c| c >= self.iterations)
                .collect(),
            outstanding: self
                .completions
                .iter()
                .enumerate()
                .filter(|(_, &c)| c < self.iterations)
                .map(|(i, _)| i)
                .collect(),
            pulses: fabric.pulses().iter().map(|o| o.0).collect(),
        })
    }
}

/// Simulates `iterations` overlapped DFG iterations under the distributed
/// control unit, with Bernoulli-style completion (operand-driven models
/// would need per-iteration input streams and are not supported here).
///
/// Returns [`SimError::InvalidConfig`] when `iterations == 0` and
/// [`SimError::Deadlock`] should the controllers stall (a generation bug
/// in a fault-free run). As in the single-iteration engine, faults never
/// touch the RNG stream, so `SimConfig::default()` is the fault-free run.
pub fn simulate_pipelined_with(
    bound: &BoundDfg,
    cu: &DistributedControlUnit,
    model: &CompletionModel,
    iterations: usize,
    rng: &mut impl Rng,
    config: &SimConfig,
) -> Result<PipelinedResult, SimError> {
    if iterations == 0 {
        return Err(SimError::InvalidConfig(
            "pipelined simulation needs iterations >= 1".to_string(),
        ));
    }
    let dfg = bound.dfg();
    model
        .validate(dfg.num_ops())
        .map_err(SimError::InvalidConfig)?;
    let n = dfg.num_ops();
    let mut fabric = CompletionFabric::new(n);
    let bank = FsmBank::new(cu, bound.allocation().units().len());
    let hooks = PipelinedHooks {
        bound,
        iterations,
        completions: vec![0usize; n],
        starts: vec![0usize; n],
        iteration_end_cycle: vec![0usize; iterations],
        war_hazards: Vec::new(),
    };
    let mut style = FsmStyle {
        bank,
        hooks,
        dfg,
        model,
    };
    let cycle = kernel::run(
        &mut style,
        &mut fabric,
        rng,
        config,
        config.budget(n, iterations),
    )?;

    let PipelinedHooks {
        mut iteration_end_cycle,
        war_hazards,
        ..
    } = style.hooks;
    // Backfill iteration end cycles (an iteration "ends" when its last op
    // completes; the kernel loop records it when the minimum count rises).
    for i in 1..iterations {
        if iteration_end_cycle[i] == 0 {
            iteration_end_cycle[i] = iteration_end_cycle[i - 1];
        }
    }

    Ok(PipelinedResult {
        iterations,
        iteration_end_cycle,
        total_cycles: cycle,
        war_hazards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::tests::dist_run;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tauhls_dfg::benchmarks::{fir3, fir5};
    use tauhls_sched::Allocation;

    #[test]
    fn pipelined_ii_beats_back_to_back_latency() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(1);
        let single = dist_run(&bound, &cu, &CompletionModel::AlwaysShort, None, &mut rng).unwrap();
        let piped = simulate_pipelined_with(
            &bound,
            &cu,
            &CompletionModel::AlwaysShort,
            12,
            &mut rng,
            &SimConfig::default(),
        )
        .unwrap();
        // Overlap: the steady-state initiation interval is below the
        // single-iteration latency (units start iteration k+1 while the
        // accumulation tail of iteration k is still running).
        assert!(
            piped.initiation_interval() < single.cycles as f64,
            "II {} vs latency {}",
            piped.initiation_interval(),
            single.cycles
        );
        // Sanity: II is at least the bottleneck unit's work (3 mults).
        assert!(piped.initiation_interval() >= 3.0 - 1e-9);
    }

    #[test]
    fn pipelined_monotone_iteration_ends() {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(3);
        let piped = simulate_pipelined_with(
            &bound,
            &cu,
            &CompletionModel::Bernoulli { p: 0.7 },
            10,
            &mut rng,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(piped.iteration_end_cycle.len(), 10);
        for w in piped.iteration_end_cycle.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(
            piped.total_cycles,
            *piped.iteration_end_cycle.last().unwrap()
        );
    }

    #[test]
    fn war_hazards_detected_on_unbalanced_chains() {
        // fig2-style unbalanced graph: one chain runs ahead of the other,
        // so pipelined overlap may clobber the slow consumer's operand —
        // the hazard list tells the designer how much buffering is needed.
        use tauhls_dfg::benchmarks::fig2_dfg;
        let bound = BoundDfg::bind(&fig2_dfg(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(5);
        let piped = simulate_pipelined_with(
            &bound,
            &cu,
            &CompletionModel::Bernoulli { p: 0.5 },
            16,
            &mut rng,
            &SimConfig::default(),
        )
        .unwrap();
        // The run completes regardless; hazards are reported, not fatal.
        assert_eq!(piped.iterations, 16);
        // Hazard entries reference real ops and iterations.
        for (op, iter) in &piped.war_hazards {
            assert!(op.0 < bound.dfg().num_ops());
            assert!(*iter >= 1 && *iter < 16);
        }
    }

    #[test]
    fn zero_iterations_is_a_config_error() {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = StdRng::seed_from_u64(0);
        let err = simulate_pipelined_with(
            &bound,
            &cu,
            &CompletionModel::AlwaysShort,
            0,
            &mut rng,
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }
}
