//! Simulation results: per-operation timing, unit utilization, and
//! correctness checks.

use tauhls_dfg::OpId;
use tauhls_sched::BoundDfg;

/// Outcome of simulating one DFG iteration under some control unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Total cycles until every operation completed (the latency).
    pub cycles: usize,
    /// 1-based cycle in which each operation's result was latched.
    pub completion_cycle: Vec<usize>,
    /// 1-based cycle in which each operation first occupied its unit.
    pub start_cycle: Vec<usize>,
    /// Busy cycles per unit (indexed like [`tauhls_sched::Allocation::units`]).
    pub unit_busy_cycles: Vec<usize>,
    /// Reference result value per operation.
    pub values: Vec<i64>,
}

impl SimResult {
    /// Latency in nanoseconds given the fast clock period.
    pub fn latency_ns(&self, clock_ns: f64) -> f64 {
        self.cycles as f64 * clock_ns
    }

    /// Utilization of a unit: busy cycles over total cycles.
    pub fn utilization(&self, unit: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.unit_busy_cycles[unit] as f64 / self.cycles as f64
        }
    }

    /// Verifies execution legality against the bound DFG:
    ///
    /// * every operation completed, no earlier than it started;
    /// * every data/schedule predecessor completed strictly before the
    ///   consumer started;
    /// * operations sharing a unit never overlap in time.
    ///
    /// Returns a description of the first violation, if any.
    pub fn verify(&self, bound: &BoundDfg) -> Result<(), String> {
        let dfg = bound.dfg();
        for v in dfg.op_ids() {
            if self.completion_cycle[v.0] == 0 {
                return Err(format!("{v} never completed"));
            }
            if self.start_cycle[v.0] == 0 || self.start_cycle[v.0] > self.completion_cycle[v.0] {
                return Err(format!("{v} has inconsistent start/completion"));
            }
            for p in dfg.preds(v) {
                if self.completion_cycle[p.0] >= self.start_cycle[v.0] {
                    return Err(format!(
                        "{v} started at {} before its producer {p} completed at {}",
                        self.start_cycle[v.0], self.completion_cycle[p.0]
                    ));
                }
            }
        }
        for (a, b) in bound.schedule_arcs() {
            if self.completion_cycle[a.0] >= self.start_cycle[b.0] {
                return Err(format!(
                    "schedule arc {a}->{b} violated ({} >= {})",
                    self.completion_cycle[a.0], self.start_cycle[b.0]
                ));
            }
        }
        for seq in bound.sequences() {
            for w in seq.windows(2) {
                let (a, b): (OpId, OpId) = (w[0], w[1]);
                if self.completion_cycle[a.0] >= self.start_cycle[b.0] {
                    return Err(format!(
                        "unit overlap: {a} completes at {} but {b} starts at {}",
                        self.completion_cycle[a.0], self.start_cycle[b.0]
                    ));
                }
            }
        }
        Ok(())
    }
}
