//! Unit-utilization analysis: the paper's §1 motivation is that the
//! distributed structure "minimizes the idle time of each component
//! arithmetic unit". This experiment quantifies it: mean busy fraction per
//! unit under distributed vs synchronized control, with coupled
//! completion draws.

use std::fmt;
use tauhls_sched::BoundDfg;
use tauhls_sim::{
    trial_rng, Accumulator, BatchRunner, CompletionModel, ControlStyle, CycleStats, Engine,
    SimConfig,
};

/// Utilization comparison for one benchmark.
#[derive(Clone, Debug)]
pub struct UtilizationRow {
    /// Benchmark name.
    pub name: String,
    /// Mean latency (cycles) under distributed / synchronized control.
    pub dist_cycles: f64,
    /// Synchronized mean latency in cycles.
    pub sync_cycles: f64,
    /// Mean busy fraction over all units, distributed.
    pub dist_utilization: f64,
    /// Mean busy fraction over all units, synchronized.
    pub sync_utilization: f64,
}

/// A utilization comparison across the paper benchmarks.
#[derive(Clone, Debug)]
pub struct UtilizationTable {
    /// One row per benchmark.
    pub rows: Vec<UtilizationRow>,
    /// The probed short probability.
    pub p: f64,
    /// Monte-Carlo trials.
    pub trials: usize,
}

/// Per-trial accumulator: exact cycle stats plus busy-fraction sums.
///
/// The `f64` sums are not associative, but the batch runner folds chunk
/// accumulators in chunk-index order, so the table is still bit-identical
/// for any thread count.
#[derive(Default)]
struct UtilAcc {
    dist: CycleStats,
    sync: CycleStats,
    dist_util: f64,
    sync_util: f64,
}

impl Accumulator for UtilAcc {
    fn empty() -> Self {
        UtilAcc::default()
    }
    fn fold(&mut self, other: Self) {
        self.dist.merge(&other.dist);
        self.sync.merge(&other.sync);
        self.dist_util += other.dist_util;
        self.sync_util += other.sync_util;
    }
}

/// Measures utilization for every paper benchmark at short-probability
/// `p` with `trials` coupled draws, fanned over `runner`'s workers (one
/// seed-space partition per benchmark).
///
/// # Panics
///
/// Panics if `trials == 0` or `p` is not a probability.
pub fn utilization_table(
    p: f64,
    trials: usize,
    seed: u64,
    runner: &BatchRunner,
) -> UtilizationTable {
    assert!(trials > 0 && (0.0..=1.0).contains(&p));
    let mut rows = Vec::new();
    for (job_id, (dfg, alloc, _)) in crate::experiments::paper_benchmarks()
        .into_iter()
        .enumerate()
    {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let engines = [ControlStyle::Distributed, ControlStyle::CentSync]
            .map(|style| Engine::generate(&bound, style));
        let controllers = engines[0]
            .dist_bank()
            .map_or(0, |cu| cu.controllers().len());
        let num_units = alloc.units().len();
        let util = |r: &tauhls_sim::SimResult| {
            (0..num_units)
                .filter(|&u| !bound.sequence(tauhls_sched::UnitId(u)).is_empty())
                .map(|u| r.utilization(u))
                .sum::<f64>()
                / controllers as f64
        };
        let fault_free = SimConfig::default();
        let acc: UtilAcc = runner.run(trials as u64, |trial, acc: &mut UtilAcc| {
            let mut rng = trial_rng(seed, job_id as u64, trial);
            let table = CompletionModel::draw_table(dfg.num_ops(), p, &mut rng);
            let [d, s] = engines.each_ref().map(|engine| {
                let run = engine.run_scalar(&bound, &table, None, &mut rng, &fault_free, 0);
                run.expect("fault-free simulation")
            });
            acc.dist.record(d.cycles);
            acc.sync.record(s.cycles);
            acc.dist_util += util(&d);
            acc.sync_util += util(&s);
        });
        let t = trials as f64;
        rows.push(UtilizationRow {
            name,
            dist_cycles: acc.dist.mean(),
            sync_cycles: acc.sync.mean(),
            dist_utilization: acc.dist_util / t,
            sync_utilization: acc.sync_util / t,
        });
    }
    UtilizationTable { rows, p, trials }
}

impl fmt::Display for UtilizationTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Unit utilization, distributed vs synchronized (P = {}, {} trials)",
            self.p, self.trials
        )?;
        writeln!(
            f,
            "{:<12} {:>10} {:>10} {:>11} {:>11}",
            "DFG", "dist cyc", "sync cyc", "dist util", "sync util"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>10.2} {:>10.2} {:>10.1}% {:>10.1}%",
                r.name,
                r.dist_cycles,
                r.sync_cycles,
                r.dist_utilization * 100.0,
                r.sync_utilization * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_utilization_never_lower() {
        let t = utilization_table(0.6, 200, 5, &BatchRunner::new(2));
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            // Shorter makespan with (at most) the same busy work means
            // busy *fraction* can only rise under distributed control.
            assert!(
                r.dist_utilization >= r.sync_utilization - 1e-9,
                "{}: {} < {}",
                r.name,
                r.dist_utilization,
                r.sync_utilization
            );
            assert!(r.dist_cycles <= r.sync_cycles);
            assert!(r.dist_utilization <= 1.0 + 1e-9);
        }
        let s = t.to_string();
        assert!(s.contains("dist util"));
    }
}
