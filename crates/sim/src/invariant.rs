//! Cross-simulator invariant checking.
//!
//! The paper's correctness argument (§4) is that the distributed
//! controllers, coordinating through completion signals alone, execute the
//! same dataflow tokens as a centralized controller would — just earlier.
//! This module makes that claim checkable:
//!
//! * **token conservation** — every operation fires exactly once per
//!   iteration: it starts, it completes, and completion does not precede
//!   start (the simulators latch a completion token at most once by
//!   construction, so a conserved run also has no duplicate fires);
//! * **lockstep equivalence** — a fault-free distributed run under a fixed
//!   completion table is legal, computes the same values as the
//!   centralized synchronized oracle under the *same* table, and never
//!   loses to it in latency.

use crate::batch::trial_rng;
use crate::fault::SimConfig;
use crate::latency::Engine;
use crate::model::CompletionModel;
use crate::result::SimResult;
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::BoundDfg;

/// Seed-space partition used by [`check_lockstep`]'s trial RNGs, chosen to
/// stay clear of the job ids sweeps hand to the batch engine.
const LOCKSTEP_JOB_ID: u64 = 0x70_6B_65_6E; // "tokn"

/// Checks token conservation on a completed run: every operation started
/// and completed exactly once, in that order.
pub fn check_token_conservation(result: &SimResult, bound: &BoundDfg) -> Result<(), String> {
    for v in bound.dfg().op_ids() {
        let (start, end) = (result.start_cycle[v.0], result.completion_cycle[v.0]);
        if end == 0 {
            return Err(format!("{v} never produced its completion token"));
        }
        if start == 0 {
            return Err(format!("{v} completed without ever starting"));
        }
        if start > end {
            return Err(format!(
                "{v} completed at cycle {end} before starting at cycle {start}"
            ));
        }
    }
    Ok(())
}

/// Runs `trials` coupled trials of the fault-free distributed engine
/// against the centralized synchronized oracle and checks, per trial:
/// token conservation, execution legality of both runs, value equivalence,
/// and latency dominance of the distributed controllers.
///
/// Deterministic in `(base_seed, trials)`; returns a description of the
/// first violated invariant.
pub fn check_lockstep(
    bound: &BoundDfg,
    cu: &DistributedControlUnit,
    p: f64,
    trials: u64,
    base_seed: u64,
) -> Result<(), String> {
    CompletionModel::check_p_values(&[p]).map_err(|e| e.to_string())?;
    let num_ops = bound.dfg().num_ops();
    let (dist_engine, fault_free) = (Engine::Dist(cu.clone()), SimConfig::default());
    for trial in 0..trials {
        let mut rng = trial_rng(base_seed, LOCKSTEP_JOB_ID, trial);
        let table = CompletionModel::draw_table(num_ops, p, &mut rng);
        let dist = (dist_engine.run_scalar(bound, &table, None, &mut rng, &fault_free, 0))
            .map_err(|e| format!("trial {trial}: distributed run failed: {e}"))?;
        let sync = (Engine::Sync.run_scalar(bound, &table, None, &mut rng, &fault_free, 0))
            .map_err(|e| format!("trial {trial}: centralized run failed: {e}"))?;
        check_token_conservation(&dist, bound)
            .map_err(|e| format!("trial {trial}: distributed: {e}"))?;
        dist.verify(bound)
            .map_err(|e| format!("trial {trial}: distributed run illegal: {e}"))?;
        sync.verify(bound)
            .map_err(|e| format!("trial {trial}: centralized run illegal: {e}"))?;
        if dist.values != sync.values {
            return Err(format!(
                "trial {trial}: distributed and centralized runs disagree on values"
            ));
        }
        if dist.cycles > sync.cycles {
            return Err(format!(
                "trial {trial}: distributed control lost lockstep dominance ({} > {} cycles)",
                dist.cycles, sync.cycles
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::tests::dist_run;
    use tauhls_dfg::benchmarks::{diffeq, fir5};
    use tauhls_sched::Allocation;

    #[test]
    fn paper_benchmarks_hold_the_invariants() {
        for (g, alloc) in [
            (fir5(), Allocation::paper(2, 1, 0)),
            (diffeq(), Allocation::paper(2, 1, 1)),
        ] {
            let bound = BoundDfg::bind(&g, &alloc);
            let cu = DistributedControlUnit::generate(&bound);
            check_lockstep(&bound, &cu, 0.5, 50, 99).unwrap();
        }
    }

    #[test]
    fn token_conservation_flags_broken_records() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        let mut rng = trial_rng(1, 0, 0);
        let mut run = dist_run(&bound, &cu, &CompletionModel::AlwaysShort, None, &mut rng).unwrap();
        check_token_conservation(&run, &bound).unwrap();
        // Break one field per case and restore it afterwards — no record
        // clones, and each check sees exactly one violation.
        let saved = std::mem::replace(&mut run.completion_cycle[2], 0);
        assert!(check_token_conservation(&run, &bound)
            .unwrap_err()
            .contains("never produced"));
        run.completion_cycle[2] = saved;
        let saved = std::mem::replace(&mut run.start_cycle[1], 0);
        assert!(check_token_conservation(&run, &bound)
            .unwrap_err()
            .contains("without ever starting"));
        run.start_cycle[1] = saved;
        run.start_cycle[0] = run.completion_cycle[0] + 1;
        assert!(check_token_conservation(&run, &bound)
            .unwrap_err()
            .contains("before starting"));
    }
}
