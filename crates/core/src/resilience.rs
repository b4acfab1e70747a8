//! Resilience sweeps: Monte-Carlo fault injection through the batch engine.
//!
//! The fault-injection layer in `tauhls-sim` turns completion-signal
//! failures into structured [`SimError`]s; this module measures how well
//! that detection works. For every fault kind it samples random fault
//! plans (seeded separately from the simulation streams, so plan shape
//! never perturbs the completion draws), runs each plan through the
//! distributed engine (plus the optional CENT and ELASTIC legs) on one
//! [`SlabDriver`], and classifies the outcome:
//!
//! * **detected** — the run ended in [`SimError::Deadlock`] or
//!   [`SimError::Desync`]; the *detection latency* is the gap between the
//!   injection cycle and the diagnosed cycle;
//! * **survived** — the run completed and passed its post-run invariants
//!   (e.g. a dropped pulse whose producer never actually pulsed at that
//!   cycle, or a fault scheduled after the graph drained).
//!
//! All counters are exact integers folded in chunk order, so the report —
//! including its JSON rendering — is bit-identical for any thread count.

use std::fmt;
use tauhls_check::{arbitrary_fault, Gen};
use tauhls_sched::BoundDfg;
use tauhls_sim::{
    derive_seed, elastic_trial_skew_seed, trial_rng, Accumulator, BatchRunner, CellPaths,
    CompletionModel, ControlStyle, ControlStyleSet, ElasticSpec, FaultPlan, LaneBuilder, LaneInput,
    SimConfig, SimError, SimResult, SlabDriver,
};

/// The fault-kind tags a sweep probes, in report order.
pub const FAULT_KINDS: [&str; 6] = [
    "stuck_short",
    "stuck_long",
    "drop_pulse",
    "spurious_pulse",
    "delay_latch",
    "flip_state",
];

/// Seed-space partition for the simulation streams (one job per kind).
const SIM_JOB_BASE: u64 = 0x7265_7369; // "resi"
/// Disjoint partition for the plan-generation streams.
const PLAN_JOB_BASE: u64 = 0x706C_616E; // "plan"

/// Which engine legs a resilience sweep runs, and the elastic clocking
/// it probes.
///
/// The distributed leg is mandatory — it is the engine under test and
/// every counter is classified against it. The CENT and ELASTIC legs are
/// optional cross-checks: skipping one zeroes its counters without
/// perturbing any other leg (all legs re-derive their streams from the
/// same `(seed, kind, trial)` coordinates and the table model consumes
/// no RNG at simulation time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilienceOptions {
    /// Engine legs to run; must contain [`ControlStyleSet::DIST`].
    pub styles: ControlStyleSet,
    /// Clock-domain spec for the ELASTIC leg (ignored when the leg is
    /// not selected).
    pub elastic: ElasticSpec,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            styles: ControlStyleSet::DIST | ControlStyleSet::CENT | ControlStyleSet::ELASTIC,
            elastic: ElasticSpec::default(),
        }
    }
}

/// Exact per-kind tallies; integer-only so folding — per-chunk on one
/// node or per-partition across nodes — is order-independent and exact.
///
/// These are the values a distributed partition puts on the wire: every
/// derived statistic in [`KindStats`] (rates, mean latency) is a pure
/// function of them, so a report rebuilt from merged counters renders to
/// the same bytes as a single-node sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Trials ending in a diagnosed deadlock.
    pub deadlock: u64,
    /// Trials ending in a diagnosed desynchronization.
    pub desync: u64,
    /// Trials that completed and passed the post-run invariants.
    pub survived: u64,
    /// Sum of detection latencies (injection → diagnosis) over trials
    /// that reported a detected cycle.
    pub latency_sum: u64,
    /// Number of trials contributing to [`KindCounters::latency_sum`].
    pub latency_samples: u64,
    /// Trials where the CENT engine classified identically to DIST.
    pub cent_agree: u64,
    /// ELASTIC-leg trials ending in a diagnosed deadlock.
    pub elastic_deadlock: u64,
    /// ELASTIC-leg trials ending in a diagnosed desynchronization.
    pub elastic_desync: u64,
    /// ELASTIC-leg trials that completed and passed the invariants.
    pub elastic_survived: u64,
    /// Sum of ELASTIC-leg detection latencies (fabric cycles).
    pub elastic_latency_sum: u64,
    /// Trials contributing to [`KindCounters::elastic_latency_sum`].
    pub elastic_latency_samples: u64,
}

/// One [`KindCounters`] field, as the place it is read from and written to.
pub(crate) type CounterField = fn(&mut KindCounters) -> &mut u64;

/// Every [`KindCounters`] field with its name in a partition partial, in
/// partial order. Folding, the partial's rendering and its parse all walk
/// this table, so a new counter is one field plus one row here.
pub(crate) const COUNTER_FIELDS: [(&str, CounterField); 11] = [
    ("deadlock", |c| &mut c.deadlock),
    ("desync", |c| &mut c.desync),
    ("survived", |c| &mut c.survived),
    ("latency_sum", |c| &mut c.latency_sum),
    ("latency_samples", |c| &mut c.latency_samples),
    ("cent_agree", |c| &mut c.cent_agree),
    ("elastic_deadlock", |c| &mut c.elastic_deadlock),
    ("elastic_desync", |c| &mut c.elastic_desync),
    ("elastic_survived", |c| &mut c.elastic_survived),
    ("elastic_latency_sum", |c| &mut c.elastic_latency_sum),
    ("elastic_latency_samples", |c| {
        &mut c.elastic_latency_samples
    }),
];

impl Accumulator for KindCounters {
    fn empty() -> Self {
        KindCounters::default()
    }
    fn fold(&mut self, mut other: Self) {
        for (_, field) in COUNTER_FIELDS {
            *field(self) += *field(&mut other);
        }
    }
}

/// Sweep results for one fault kind.
#[derive(Clone, Debug)]
pub struct KindStats {
    /// The fault-kind tag (see [`FAULT_KINDS`]).
    pub kind: String,
    /// Trials run for this kind.
    pub trials: u64,
    /// Trials ending in a diagnosed deadlock.
    pub detected_deadlock: u64,
    /// Trials ending in a diagnosed desynchronization.
    pub detected_desync: u64,
    /// Trials that completed and passed the post-run invariants.
    pub survived: u64,
    /// Mean cycles from injection to diagnosis, over detected trials
    /// (0 when nothing was detected).
    pub mean_detection_latency: f64,
    /// Trials where the centralized CENT engine, fed the same completion
    /// table and fault plan, classified the outcome identically to the
    /// distributed engine (same cycle count on survival, same error
    /// variant on detection) — a bisimulation cross-check on the fault
    /// path.
    pub cent_agreement: u64,
    /// ELASTIC-leg trials ending in a diagnosed deadlock (0 when the
    /// elastic leg was not selected).
    pub elastic_deadlock: u64,
    /// ELASTIC-leg trials ending in a diagnosed desynchronization.
    pub elastic_desync: u64,
    /// ELASTIC-leg trials that completed and passed the invariants.
    pub elastic_survived: u64,
    /// Mean fabric cycles from injection to diagnosis on the ELASTIC
    /// leg (0 when nothing was detected).
    pub elastic_mean_detection_latency: f64,
}

impl KindStats {
    /// Fraction of trials where the fault was caught as a structured error.
    pub fn detection_rate(&self) -> f64 {
        (self.detected_deadlock + self.detected_desync) as f64 / self.trials as f64
    }

    /// Fraction of trials the system rode through unharmed.
    pub fn survival_fraction(&self) -> f64 {
        self.survived as f64 / self.trials as f64
    }

    /// Fraction of trials where CENT and DIST agreed (see
    /// [`KindStats::cent_agreement`]).
    pub fn cent_agreement_rate(&self) -> f64 {
        self.cent_agreement as f64 / self.trials as f64
    }

    /// Fraction of ELASTIC-leg trials caught as a structured error.
    pub fn elastic_detection_rate(&self) -> f64 {
        (self.elastic_deadlock + self.elastic_desync) as f64 / self.trials as f64
    }

    /// Fraction of ELASTIC-leg trials the system rode through unharmed.
    pub fn elastic_survival_fraction(&self) -> f64 {
        self.elastic_survived as f64 / self.trials as f64
    }
}

/// A full resilience sweep over every fault kind for one bound design.
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Benchmark name.
    pub name: String,
    /// Short-completion probability of the completion draws.
    pub p: f64,
    /// Trials per fault kind.
    pub trials: u64,
    /// Base seed.
    pub seed: u64,
    /// One row per fault kind, in [`FAULT_KINDS`] order.
    pub rows: Vec<KindStats>,
}

/// Draws a fault of exactly the requested kind by rejection from the
/// shared [`arbitrary_fault`] distribution (deterministic in the `Gen`
/// stream; each round hits the target kind with probability 1/6).
fn draw_fault_of_kind(
    g: &mut Gen,
    tag: &str,
    num_ops: usize,
    num_controllers: usize,
    max_cycle: usize,
) -> tauhls_sim::Fault {
    loop {
        let f = arbitrary_fault(g, num_ops, num_controllers, max_cycle);
        if f.kind.tag() == tag {
            return f;
        }
    }
}

/// The fault config of trial `trial` of fault kind `kind_idx` (an index
/// into [`FAULT_KINDS`]) in a sweep seeded `seed` over a design of
/// `num_ops` ops and `num_controllers` controllers: one fault of that
/// kind, drawn from the trial's own plan stream.
///
/// # Panics
///
/// Panics if `kind_idx` is not an index into [`FAULT_KINDS`], or
/// `num_ops` or `num_controllers` is zero.
pub fn sweep_trial_config(
    seed: u64,
    kind_idx: usize,
    trial: u64,
    num_ops: usize,
    num_controllers: usize,
) -> SimConfig {
    let plan_seed = derive_seed(seed, PLAN_JOB_BASE + kind_idx as u64, trial);
    // Injection window: wide enough to hit every phase of a run (worst
    // case is ~best + one extension per TAU op <= 2n), narrow enough that
    // most faults land inside the run.
    let max_cycle = 2 * num_ops + 4;
    let fault = draw_fault_of_kind(
        &mut Gen::from_seed(plan_seed),
        FAULT_KINDS[kind_idx],
        num_ops,
        num_controllers,
        max_cycle,
    );
    SimConfig::with_faults(FaultPlan::single(fault.at_cycle, fault.kind))
}

/// Runs `trials` fault-injection trials per fault kind against the
/// distributed engine at short-probability `p`, fanned over `runner`'s
/// workers.
///
/// Every trial derives two independent streams from `(seed, kind, trial)`:
/// one generates the fault plan, the other the completion draws — so the
/// completion table a trial sees is independent of the fault injected
/// into it.
///
/// # Panics
///
/// Panics if `trials == 0` or `p` is not a probability.
pub fn resilience_sweep(
    bound: &BoundDfg,
    p: f64,
    trials: u64,
    seed: u64,
    runner: &BatchRunner,
) -> ResilienceReport {
    resilience_sweep_with(
        bound,
        p,
        trials,
        seed,
        &ResilienceOptions::default(),
        runner,
    )
}

/// [`resilience_sweep`] with explicit leg selection and elastic spec.
///
/// The distributed counters are invariant under the options: deselecting
/// CENT or ELASTIC only zeroes that leg's columns, and the elastic spec
/// only shapes the elastic columns.
///
/// # Panics
///
/// Panics if `trials == 0`, `p` is not a probability, or `opts.styles`
/// does not contain the distributed leg.
pub fn resilience_sweep_with(
    bound: &BoundDfg,
    p: f64,
    trials: u64,
    seed: u64,
    opts: &ResilienceOptions,
    runner: &BatchRunner,
) -> ResilienceReport {
    let counters =
        resilience_kind_counters_with(bound, p, trials, seed, 0..FAULT_KINDS.len(), opts, runner);
    report_from_counters(bound.dfg().name(), p, trials, seed, &counters)
}

/// Runs the fault-injection trials for a contiguous *range* of fault
/// kinds (global indices into [`FAULT_KINDS`]) and returns their raw
/// counters, one entry per kind in range order; the partition primitive
/// behind [`resilience_sweep_with`].
///
/// Because every trial is seeded from the global `(seed, kind, trial)`
/// coordinates, the counters a sub-range produces are identical to the
/// corresponding rows of a full sweep — this is the partition primitive a
/// distributed coordinator shards a resilience sweep on.
///
/// # Panics
///
/// Panics if `trials == 0`, `p` is not a probability, the range runs
/// past [`FAULT_KINDS`], or `opts.styles` does not contain the
/// distributed leg.
pub fn resilience_kind_counters_with(
    bound: &BoundDfg,
    p: f64,
    trials: u64,
    seed: u64,
    kinds: std::ops::Range<usize>,
    opts: &ResilienceOptions,
    runner: &BatchRunner,
) -> Vec<KindCounters> {
    resilience_kind_counters_with_paths(bound, p, trials, seed, kinds, opts, runner).0
}

/// [`resilience_kind_counters_with`], also returning how many of the
/// sweep's cells (one trial of one leg) the bit-sliced engine completed
/// or diagnosed and how many reran through the scalar engine.
///
/// # Panics
///
/// As [`resilience_kind_counters_with`].
pub fn resilience_kind_counters_with_paths(
    bound: &BoundDfg,
    p: f64,
    trials: u64,
    seed: u64,
    kinds: std::ops::Range<usize>,
    opts: &ResilienceOptions,
    runner: &BatchRunner,
) -> (Vec<KindCounters>, CellPaths) {
    assert!(trials > 0 && (0.0..=1.0).contains(&p));
    assert!(kinds.end <= FAULT_KINDS.len());
    assert!(
        opts.styles.contains(ControlStyleSet::DIST),
        "the distributed leg is the engine under test and cannot be deselected"
    );
    let mut styles = vec![ControlStyle::Distributed];
    if opts.styles.contains(ControlStyleSet::CENT) {
        styles.push(ControlStyle::Cent);
    }
    if opts.styles.contains(ControlStyleSet::ELASTIC) {
        styles.push(ControlStyle::Elastic(opts.elastic));
    }
    let driver = SlabDriver::new(bound, &styles);
    let num_ops = bound.dfg().num_ops();
    let num_controllers = driver.engines()[0]
        .dist_bank()
        .map_or(0, |cu| cu.controllers().len());
    let counters = kinds
        .map(|kind_idx| {
            let job = SIM_JOB_BASE + kind_idx as u64;
            let lanes = LaneBuilder {
                rng: &|trial| trial_rng(seed, job, trial),
                model: LaneInput::PerLane(&|_, rng| CompletionModel::draw_table(num_ops, p, rng)),
                config: LaneInput::PerLane(&|trial, _| {
                    sweep_trial_config(seed, kind_idx, trial, num_ops, num_controllers)
                }),
                skew_seed: &|trial| elastic_trial_skew_seed(seed, job, trial),
            };
            driver.run::<KindCounters, _>(trials, runner, &lanes, |acc, _, config, results| {
                let at_cycle = config.faults.faults().first().map_or(0, |f| f.at_cycle);
                acc.tally(false, results[0], at_cycle);
                for (style, &result) in styles.iter().zip(results) {
                    match style {
                        ControlStyle::Cent if cent_agrees(results[0], result) => {
                            acc.cent_agree += 1
                        }
                        ControlStyle::Elastic(_) => acc.tally(true, result, at_cycle),
                        _ => {}
                    }
                }
            })
        })
        .collect();
    (counters, driver.paths())
}

impl KindCounters {
    /// Classifies one leg's outcome on a trial whose fault was injected
    /// at `at_cycle`: survived, or detected as a deadlock or desync with
    /// its detection latency. `elastic` picks the ELASTIC leg's columns
    /// over the DIST ones.
    fn tally(&mut self, elastic: bool, outcome: Result<&SimResult, &SimError>, at_cycle: usize) {
        let [deadlock, desync, survived, latency_sum, latency_samples] = if elastic {
            [
                &mut self.elastic_deadlock,
                &mut self.elastic_desync,
                &mut self.elastic_survived,
                &mut self.elastic_latency_sum,
                &mut self.elastic_latency_samples,
            ]
        } else {
            [
                &mut self.deadlock,
                &mut self.desync,
                &mut self.survived,
                &mut self.latency_sum,
                &mut self.latency_samples,
            ]
        };
        match outcome {
            Ok(_) => *survived += 1,
            Err(err) => {
                if matches!(err, SimError::Deadlock(_)) {
                    *deadlock += 1;
                } else {
                    *desync += 1;
                }
                if let Some(cycle) = err.detected_cycle() {
                    *latency_sum += cycle.saturating_sub(at_cycle) as u64;
                    *latency_samples += 1;
                }
            }
        }
    }
}

/// Whether CENT classified a trial as DIST did: the same cycle count on
/// survival, the same error variant on detection.
fn cent_agrees(dist: Result<&SimResult, &SimError>, cent: Result<&SimResult, &SimError>) -> bool {
    match (dist, cent) {
        (Ok(d), Ok(c)) => d.cycles == c.cycles,
        (Err(d), Err(c)) => std::mem::discriminant(d) == std::mem::discriminant(c),
        _ => false,
    }
}

/// Rebuilds a full [`ResilienceReport`] from one [`KindCounters`] per
/// fault kind (in [`FAULT_KINDS`] order).
///
/// Every derived statistic (mean latency, and the rates computed by the
/// JSON rendering) is recomputed from the exact integer counters, so a
/// report assembled from distributed partials is field-for-field — and
/// byte-for-byte once rendered — identical to a local sweep.
///
/// # Panics
///
/// Panics if `counters` does not carry exactly one entry per fault kind.
pub fn report_from_counters(
    name: &str,
    p: f64,
    trials: u64,
    seed: u64,
    counters: &[KindCounters],
) -> ResilienceReport {
    assert_eq!(counters.len(), FAULT_KINDS.len(), "one entry per kind");
    let rows = FAULT_KINDS
        .iter()
        .zip(counters)
        .map(|(tag, acc)| KindStats {
            kind: tag.to_string(),
            trials,
            detected_deadlock: acc.deadlock,
            detected_desync: acc.desync,
            survived: acc.survived,
            mean_detection_latency: if acc.latency_samples == 0 {
                0.0
            } else {
                acc.latency_sum as f64 / acc.latency_samples as f64
            },
            cent_agreement: acc.cent_agree,
            elastic_deadlock: acc.elastic_deadlock,
            elastic_desync: acc.elastic_desync,
            elastic_survived: acc.elastic_survived,
            elastic_mean_detection_latency: if acc.elastic_latency_samples == 0 {
                0.0
            } else {
                acc.elastic_latency_sum as f64 / acc.elastic_latency_samples as f64
            },
        })
        .collect();
    ResilienceReport {
        name: name.to_string(),
        p,
        trials,
        seed,
        rows,
    }
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Resilience sweep for '{}' (P = {}, {} trials/kind, seed {})",
            self.name, self.p, self.trials, self.seed
        )?;
        writeln!(
            f,
            "{:<15} {:>9} {:>8} {:>9} {:>10} {:>12} {:>8} {:>10} {:>11}",
            "fault kind",
            "deadlock",
            "desync",
            "survived",
            "detect %",
            "latency (cy)",
            "cent %",
            "elas surv",
            "elas det %"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<15} {:>9} {:>8} {:>9} {:>9.1}% {:>12.2} {:>7.1}% {:>10} {:>10.1}%",
                r.kind,
                r.detected_deadlock,
                r.detected_desync,
                r.survived,
                r.detection_rate() * 100.0,
                r.mean_detection_latency,
                r.cent_agreement_rate() * 100.0,
                r.elastic_survived,
                r.elastic_detection_rate() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::fir5;
    use tauhls_sched::Allocation;
    use tauhls_sim::{ControlStyle, Engine};

    #[test]
    fn sweep_accounts_for_every_trial_and_detects_something() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let report = resilience_sweep(&bound, 0.5, 60, 2003, &BatchRunner::serial());
        assert_eq!(report.rows.len(), FAULT_KINDS.len());
        for r in &report.rows {
            assert_eq!(
                r.detected_deadlock + r.detected_desync + r.survived,
                r.trials,
                "{}: outcomes must partition the trials",
                r.kind
            );
            assert_eq!(
                r.elastic_deadlock + r.elastic_desync + r.elastic_survived,
                r.trials,
                "{}: elastic outcomes must partition the trials",
                r.kind
            );
        }
        // The persistent faults are reliably caught.
        let by_kind = |k: &str| report.rows.iter().find(|r| r.kind == k).unwrap();
        assert!(by_kind("stuck_long").detected_deadlock > 0);
        assert!(by_kind("stuck_short").detected_desync > 0);
        // The bisimilar CENT engine classifies every trial identically.
        for r in &report.rows {
            assert_eq!(r.cent_agreement, r.trials, "{}: CENT disagreed", r.kind);
        }
    }

    #[test]
    fn sweep_matches_scalar_reference() {
        // Re-derive every trial of every leg with the plain scalar engines
        // (no slicing, no batching) and demand identical counters. CENT
        // agreement comes from a real scalar CENT run of each trial, so
        // the sliced shortcut (CENT reads the DIST lanes) is checked
        // against an actual comparison.
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let (p, trials, seed) = (0.5, 70u64, 2003u64);
        let opts = ResilienceOptions::default();
        let all_kinds = 0..FAULT_KINDS.len();
        let runner = BatchRunner::new(4);
        let counters =
            resilience_kind_counters_with(&bound, p, trials, seed, all_kinds, &opts, &runner);
        let engines = [
            ControlStyle::Distributed,
            ControlStyle::Cent,
            ControlStyle::Elastic(opts.elastic),
        ]
        .map(|style| Engine::generate(&bound, style));
        let num_ops = bound.dfg().num_ops();
        let num_controllers = engines[0]
            .dist_bank()
            .expect("DIST bank")
            .controllers()
            .len();
        let max_cycle = 2 * num_ops + 4;
        for (kind_idx, tag) in FAULT_KINDS.iter().enumerate() {
            let job = SIM_JOB_BASE + kind_idx as u64;
            let mut expected = KindCounters::default();
            for trial in 0..trials {
                let plan_seed = derive_seed(seed, PLAN_JOB_BASE + kind_idx as u64, trial);
                let mut plan_gen = Gen::from_seed(plan_seed);
                let fault =
                    draw_fault_of_kind(&mut plan_gen, tag, num_ops, num_controllers, max_cycle);
                let cfg = SimConfig::with_faults(FaultPlan::single(fault.at_cycle, fault.kind));
                let mut rng = trial_rng(seed, job, trial);
                let table = CompletionModel::draw_table(num_ops, p, &mut rng);
                let skew = elastic_trial_skew_seed(seed, job, trial);
                let [dist, cent, elastic] = (engines.each_ref())
                    .map(|e| e.run_scalar(&bound, &table, None, &mut rng.clone(), &cfg, skew));
                let at = fault.at_cycle;
                expected.tally(false, dist.as_ref(), at);
                if cent_agrees(dist.as_ref(), cent.as_ref()) {
                    expected.cent_agree += 1;
                }
                expected.tally(true, elastic.as_ref(), at);
            }
            assert_eq!(counters[kind_idx], expected, "{tag}");
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let serial = resilience_sweep(&bound, 0.5, 48, 7, &BatchRunner::serial());
        for threads in [2usize, 8] {
            let parallel = resilience_sweep(&bound, 0.5, 48, 7, &BatchRunner::new(threads));
            for (a, b) in serial.rows.iter().zip(&parallel.rows) {
                assert_eq!(a.detected_deadlock, b.detected_deadlock);
                assert_eq!(a.detected_desync, b.detected_desync);
                assert_eq!(a.survived, b.survived);
                assert_eq!(a.mean_detection_latency, b.mean_detection_latency);
                assert_eq!(a.elastic_deadlock, b.elastic_deadlock);
                assert_eq!(a.elastic_desync, b.elastic_desync);
                assert_eq!(a.elastic_survived, b.elastic_survived);
                assert_eq!(
                    a.elastic_mean_detection_latency,
                    b.elastic_mean_detection_latency
                );
            }
        }
    }

    #[test]
    fn sweep_elastic_zero_spec_bisimulates_dist() {
        // At skew bound 0 and sync latency 0 the elastic kernel is
        // cycle-for-cycle the distributed kernel, so every elastic counter
        // must equal its distributed twin — fault classification included.
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let opts = ResilienceOptions {
            elastic: ElasticSpec::zero(),
            ..ResilienceOptions::default()
        };
        let report = resilience_sweep_with(&bound, 0.5, 48, 2003, &opts, &BatchRunner::new(3));
        for r in &report.rows {
            assert_eq!(r.elastic_deadlock, r.detected_deadlock, "{}", r.kind);
            assert_eq!(r.elastic_desync, r.detected_desync, "{}", r.kind);
            assert_eq!(r.elastic_survived, r.survived, "{}", r.kind);
            assert_eq!(
                r.elastic_mean_detection_latency, r.mean_detection_latency,
                "{}",
                r.kind
            );
        }
    }

    #[test]
    fn sweep_styles_gate_legs_without_perturbing_dist() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let full = resilience_sweep(&bound, 0.5, 40, 11, &BatchRunner::serial());
        let opts = ResilienceOptions {
            styles: ControlStyleSet::DIST,
            ..ResilienceOptions::default()
        };
        let dist_only = resilience_sweep_with(&bound, 0.5, 40, 11, &opts, &BatchRunner::serial());
        for (a, b) in full.rows.iter().zip(&dist_only.rows) {
            assert_eq!(a.detected_deadlock, b.detected_deadlock);
            assert_eq!(a.detected_desync, b.detected_desync);
            assert_eq!(a.survived, b.survived);
            assert_eq!(a.mean_detection_latency, b.mean_detection_latency);
            assert_eq!(b.cent_agreement, 0);
            assert_eq!(
                b.elastic_deadlock + b.elastic_desync + b.elastic_survived,
                0
            );
        }
    }
}
