//! Parameter sweeps beyond the paper's fixed `P ∈ {0.9, 0.7, 0.5}` grid:
//! full latency-vs-`P` curves and enhancement-vs-TAU-count series, used by
//! the `fig_sweeps` binary and the design-space example.
//!
//! All sweeps run on the deterministic batch engine: pass
//! [`BatchRunner::serial()`] for the single-threaded oracle or
//! [`BatchRunner::new(n)`](BatchRunner::new) to fan trials over `n`
//! workers — the output is bit-identical either way.

use tauhls_dfg::Dfg;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{derive_seed, latency_batch, BatchRunner, ControlStyle, LatencySummary};

/// One point of a latency-vs-`P` curve.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    /// The short-completion probability.
    pub p: f64,
    /// Mean synchronized latency (cycles).
    pub sync_cycles: f64,
    /// Mean distributed latency (cycles).
    pub dist_cycles: f64,
    /// Enhancement percentage.
    pub enhancement: f64,
}

/// Sweeps `P` over `[0, 1]` in `steps` increments for one bound design.
///
/// # Panics
///
/// Panics if `steps < 2` or `trials == 0`.
pub fn latency_curve(
    bound: &BoundDfg,
    steps: usize,
    trials: usize,
    seed: u64,
    runner: &BatchRunner,
) -> Vec<CurvePoint> {
    assert!(steps >= 2 && trials > 0);
    let ps: Vec<f64> = (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect();
    let [sync, dist] = sync_and_dist(bound, &ps, trials as u64, seed, runner);
    ps.iter()
        .enumerate()
        .map(|(i, &p)| {
            let s = sync.average_cycles[i];
            let d = dist.average_cycles[i];
            CurvePoint {
                p,
                sync_cycles: s,
                dist_cycles: d,
                enhancement: (s - d) / s * 100.0,
            }
        })
        .collect()
}

/// Coupled CENT-SYNC and DIST summaries of a fault-free design.
fn sync_and_dist(
    bound: &BoundDfg,
    ps: &[f64],
    trials: u64,
    seed: u64,
    runner: &BatchRunner,
) -> [LatencySummary; 2] {
    let styles = [ControlStyle::CentSync, ControlStyle::Distributed];
    latency_batch(bound, &styles, ps, 0, trials, seed, runner)
        .expect("fault-free simulation")
        .try_into()
        .expect("one summary per style")
}

/// One point of an enhancement-vs-allocation series.
#[derive(Clone, Debug)]
pub struct AllocationPoint {
    /// Number of TAU multipliers allocated.
    pub muls: usize,
    /// Mean enhancement (%) at the probed `P`.
    pub enhancement: f64,
    /// Mean distributed latency (cycles).
    pub dist_cycles: f64,
    /// Schedule arcs the binder had to insert.
    pub schedule_arcs: usize,
}

/// Sweeps the TAU-multiplier count for a graph, measuring the distributed
/// gain at a fixed `P` — quantifying the paper's "this problem becomes
/// serious \[as\] more and more TAUs are used" motivation.
///
/// # Panics
///
/// Panics if `mul_range` is empty or `trials == 0`.
#[allow(clippy::too_many_arguments)]
pub fn allocation_series(
    dfg: &Dfg,
    adds: usize,
    subs: usize,
    mul_range: std::ops::RangeInclusive<usize>,
    p: f64,
    trials: usize,
    seed: u64,
    runner: &BatchRunner,
) -> Vec<AllocationPoint> {
    assert!(trials > 0);
    let mut out = Vec::new();
    for muls in mul_range {
        let alloc = Allocation::paper(muls, adds, subs);
        if !alloc.covers(dfg) {
            continue;
        }
        let bound = BoundDfg::bind(dfg, &alloc);
        // Each allocation point gets its own seed-space partition, so the
        // series is independent of which points the coverage filter skips.
        let point_seed = derive_seed(seed, muls as u64, 0);
        let [sync, dist] = sync_and_dist(&bound, &[p], trials as u64, point_seed, runner);
        out.push(AllocationPoint {
            muls,
            enhancement: (sync.average_cycles[0] - dist.average_cycles[0]) / sync.average_cycles[0]
                * 100.0,
            dist_cycles: dist.average_cycles[0],
            schedule_arcs: bound.schedule_arcs().len(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::{ar_lattice4, fir5};

    #[test]
    fn curve_is_monotone_and_anchored() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let curve = latency_curve(&bound, 5, 500, 1, &BatchRunner::serial());
        assert_eq!(curve.len(), 5);
        // P = 1: both styles at best case, zero enhancement.
        let last = curve.last().unwrap();
        assert!((last.p - 1.0).abs() < 1e-12);
        assert!(last.enhancement.abs() < 1e-9);
        assert_eq!(last.sync_cycles, last.dist_cycles);
        // P = 0: both styles at worst case (deterministic).
        let first = &curve[0];
        assert!(first.sync_cycles >= first.dist_cycles);
        // Latency decreases with P for both styles.
        for w in curve.windows(2) {
            assert!(w[0].sync_cycles >= w[1].sync_cycles - 1e-9);
            assert!(w[0].dist_cycles >= w[1].dist_cycles - 1e-9);
        }
    }

    #[test]
    fn allocation_series_reports_arcs_and_gain() {
        let g = ar_lattice4();
        let pts = allocation_series(&g, 2, 0, 1..=4, 0.7, 300, 2, &BatchRunner::new(2));
        assert_eq!(pts.len(), 4);
        // One TAU: synchronized == distributed (the paper's base case).
        assert!(pts[0].enhancement.abs() < 0.8, "{}", pts[0].enhancement);
        // Fewer units need more serialization arcs.
        assert!(pts[0].schedule_arcs > pts[3].schedule_arcs);
        // More units shorten the schedule.
        assert!(pts[3].dist_cycles < pts[0].dist_cycles);
    }
}
