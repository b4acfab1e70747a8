//! Deterministic parallel Monte-Carlo batch engine.
//!
//! The serial harnesses in [`crate::latency`] thread one RNG through every
//! trial, so their output depends on trial *order* and cannot be
//! parallelised without changing results. This module decouples trials
//! instead: every trial owns an RNG seeded from
//! `derive_seed(base_seed, job_id, trial_index)`, so the stream a trial
//! sees is a pure function of its coordinates. Work is then fanned over
//! [`std::thread::scope`] workers pulling fixed-size chunks off an atomic
//! queue, and per-chunk accumulators are folded **in chunk-index order**
//! after the join. The combination makes results bit-identical for any
//! thread count — `threads = 1` runs the very same chunking and folding
//! and serves as the reference oracle.
//!
//! Latency statistics use [`CycleStats`], whose sums are exact integers
//! (`u128`), so merging is associative and exact; the ordered fold then
//! extends the guarantee to accumulators with `f64` state as well.
//!
//! # Examples
//!
//! ```
//! use tauhls_sim::{BatchRunner, ControlStyle, SimJob, CompletionModel};
//! use tauhls_sched::{Allocation, BoundDfg};
//! use tauhls_dfg::benchmarks::fir5;
//!
//! let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
//! let model = CompletionModel::Bernoulli { p: 0.5 };
//! let job = SimJob::new(&bound, ControlStyle::Distributed, &model).trials(500);
//! let serial = job.run(42, &BatchRunner::serial()).unwrap();
//! let parallel = job.run(42, &BatchRunner::new(4)).unwrap();
//! assert_eq!(serial, parallel); // bit-identical, not just statistically close
//! ```

use crate::elastic::elastic_trial_skew_seed;
use crate::error::SimError;
use crate::fault::SimConfig;
use crate::latency::{ControlStyle, Engine, LatencySummary};
use crate::model::CompletionModel;
use crate::result::SimResult;
use crate::slab::{LaneBuilder, LaneInput, SlabDriver};
use rand::rngs::StdRng;
use rand::{splitmix64_mix, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tauhls_sched::BoundDfg;

/// A cooperative cancellation flag shared between a shutdown path and the
/// workers of a [`BatchRunner`].
///
/// Attach a clone to a runner with [`BatchRunner::with_cancel`]; once some
/// other thread calls [`CancelToken::cancel`], workers stop claiming new
/// chunks at the next chunk boundary and the batch APIs
/// ([`SimJob::run`], [`latency_batch`], …) return
/// [`SimError::Cancelled`] instead of partial statistics. This is the
/// drain hook a long-running service uses on shutdown: in-flight chunks
/// still finish (trials are never interrupted mid-simulation), but the
/// remaining work is abandoned promptly.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Flags of every ancestor token; cancelling any of them cancels this
    /// token too, while [`CancelToken::cancel`] on a child never touches
    /// its parents.
    parents: Vec<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parents.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A child token: cancelled when either it or any ancestor is
    /// cancelled, but cancelling the child leaves the parent untouched.
    ///
    /// This is the per-job hook a service layers on a global drain token:
    /// the watchdog cancels the parent to stop everything, while a
    /// `DELETE` on one job cancels only that job's child. The two causes
    /// stay distinguishable through [`CancelToken::is_self_cancelled`],
    /// which is how a job manager decides between "requeue on restart"
    /// (shutdown) and "user cancelled" (terminal).
    pub fn child(&self) -> CancelToken {
        let mut parents = self.parents.clone();
        parents.push(Arc::clone(&self.flag));
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parents,
        }
    }

    /// Requests cancellation of this token (and its children, but never
    /// its parents). Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested here or on any ancestor.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.parents.iter().any(|p| p.load(Ordering::SeqCst))
    }

    /// Whether this token itself was cancelled, as opposed to inheriting
    /// cancellation from an ancestor.
    pub fn is_self_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Derives the RNG seed for one trial of one job.
///
/// The derivation composes two SplitMix64 finalizer rounds, so nearby
/// `(base_seed, job_id, trial)` coordinates map to statistically unrelated
/// seeds. Every batch API routes its randomness through this function;
/// that is what makes results independent of scheduling.
pub fn derive_seed(base_seed: u64, job_id: u64, trial: u64) -> u64 {
    splitmix64_mix(splitmix64_mix(base_seed ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ trial)
}

/// The RNG a given trial observes: [`derive_seed`] fed to `StdRng`.
pub fn trial_rng(base_seed: u64, job_id: u64, trial: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(base_seed, job_id, trial))
}

/// Mergeable statistics over an integer-valued observable (cycle counts).
///
/// Sums are kept in `u128`, so [`CycleStats::merge`] is exact and
/// associative — the merged result of any partition of the trials equals
/// the single-pass result, making cross-thread reduction deterministic by
/// construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CycleStats {
    /// Number of recorded trials.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u128,
    /// Exact sum of squared observations.
    pub sum_sq: u128,
    /// Minimum observation (`usize::MAX` when empty).
    pub min: usize,
    /// Maximum observation (`0` when empty).
    pub max: usize,
}

impl CycleStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        CycleStats {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: usize::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, cycles: usize) {
        self.count += 1;
        self.sum += cycles as u128;
        self.sum_sq += (cycles as u128) * (cycles as u128);
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
    }

    /// Merges another accumulator into this one (exact).
    pub fn merge(&mut self, other: &CycleStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }

    /// Population variance (`NaN` when empty).
    pub fn variance(&self) -> f64 {
        let n = self.count as f64;
        let mean = self.mean();
        self.sum_sq as f64 / n - mean * mean
    }
}

impl Accumulator for CycleStats {
    fn empty() -> Self {
        CycleStats::new()
    }
    fn fold(&mut self, other: Self) {
        self.merge(&other);
    }
}

/// Per-chunk partial state the runner folds back together.
///
/// `fold` is applied to chunk results in ascending chunk-index order, so
/// implementations need not be commutative — only deterministic.
pub trait Accumulator: Send {
    /// The identity element a fresh chunk starts from.
    fn empty() -> Self;
    /// Absorbs the accumulator of the next chunk (in chunk order).
    fn fold(&mut self, other: Self);
}

impl<A: Accumulator, B: Accumulator> Accumulator for (A, B) {
    fn empty() -> Self {
        (A::empty(), B::empty())
    }
    fn fold(&mut self, other: Self) {
        self.0.fold(other.0);
        self.1.fold(other.1);
    }
}

/// One accumulator per slot (per controller style in [`latency_batch`]).
/// Folding merges slot by slot, growing to the longer side, so chunks may
/// start from the empty vector and size it on first use.
impl<A: Accumulator> Accumulator for Vec<A> {
    fn empty() -> Self {
        Vec::new()
    }
    fn fold(&mut self, other: Self) {
        if self.len() < other.len() {
            self.resize_with(other.len(), A::empty);
        }
        for (acc, part) in self.iter_mut().zip(other) {
            acc.fold(part);
        }
    }
}

/// Accumulator that keeps the [`SimError`] of the lowest-numbered failing
/// trial. Because the comparison is by trial index — not by arrival order —
/// the captured error is the same for any thread count or chunk size,
/// extending the engine's bit-identical guarantee to the error path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FirstError {
    err: Option<(u64, SimError)>,
}

impl FirstError {
    /// Records a failing trial, keeping the lowest trial index seen.
    pub fn record(&mut self, trial: u64, error: SimError) {
        match &self.err {
            Some((t, _)) if *t <= trial => {}
            _ => self.err = Some((trial, error)),
        }
    }

    /// The captured `(trial, error)`, if any trial failed.
    pub fn first(&self) -> Option<&(u64, SimError)> {
        self.err.as_ref()
    }

    /// `Err` with the earliest failing trial's error, `Ok` otherwise.
    pub fn into_result(self) -> Result<(), SimError> {
        match self.err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

impl Accumulator for FirstError {
    fn empty() -> Self {
        FirstError::default()
    }
    fn fold(&mut self, other: Self) {
        if let Some((trial, error)) = other.err {
            self.record(trial, error);
        }
    }
}

/// Fans trials over worker threads with deterministic reduction.
///
/// Trials are split into fixed-size chunks; workers claim chunks from an
/// atomic counter, run each trial with its own derived RNG, and keep one
/// accumulator per chunk. After the scope joins, chunk accumulators are
/// folded in chunk-index order. Because chunk boundaries depend only on
/// `(trials, chunk_size)` — never on thread count or scheduling — the
/// result is bit-identical for any `threads >= 1`.
#[derive(Clone, Debug)]
pub struct BatchRunner {
    threads: usize,
    chunk_size: u64,
    cancel: Option<CancelToken>,
}

/// Default number of trials a worker claims at a time.
pub const DEFAULT_CHUNK_SIZE: u64 = 64;

impl BatchRunner {
    /// A runner using `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            chunk_size: DEFAULT_CHUNK_SIZE,
            cancel: None,
        }
    }

    /// The single-threaded reference oracle (same chunking, same fold).
    pub fn serial() -> Self {
        BatchRunner::new(1)
    }

    /// A runner sized to the machine's available parallelism.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        BatchRunner::new(threads)
    }

    /// `Some(n)` → exactly `n` workers, `None` → all available cores: the
    /// one mapping every `--threads` front end (CLI and service) shares.
    pub fn sized(threads: Option<usize>) -> Self {
        match threads {
            Some(n) => BatchRunner::new(n),
            None => BatchRunner::available(),
        }
    }

    /// Overrides the chunk size. Results depend on the chunk size only
    /// through accumulators with non-associative (`f64`) state; exact
    /// accumulators such as [`CycleStats`] are invariant to it.
    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Attaches a cancellation token checked at every chunk boundary.
    ///
    /// Until the token fires, behaviour (and therefore every result) is
    /// identical to a runner without one.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether this runner's token (if any) has requested cancellation.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// `Err(SimError::Cancelled)` once the runner's token has fired.
    ///
    /// The batch APIs call this after every reduction so a cancelled run
    /// surfaces as a structured error instead of partial statistics.
    pub fn check_cancelled(&self) -> Result<(), SimError> {
        if self.is_cancelled() {
            Err(SimError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trials` trials of `trial_fn`, reducing into one accumulator.
    ///
    /// `trial_fn` receives the global trial index and the chunk's
    /// accumulator; it must derive any randomness from the trial index
    /// (see [`trial_rng`]) for the determinism guarantee to hold.
    pub fn run<A, F>(&self, trials: u64, trial_fn: F) -> A
    where
        A: Accumulator,
        F: Fn(u64, &mut A) + Sync,
    {
        self.run_chunked(
            trials,
            || (),
            |(), range, acc| {
                for trial in range {
                    trial_fn(trial, acc);
                }
            },
        )
    }

    /// Like [`BatchRunner::run`], but hands each worker a reusable scratch
    /// value (built once per worker by `make_worker`, reused across every
    /// chunk that worker claims) and whole chunk ranges instead of single
    /// trials. This is what lets the sliced engine keep its bit-plane
    /// buffers — and any other per-trial allocation — alive across chunks.
    ///
    /// Determinism contract: `chunk_fn` must derive all randomness from
    /// the trial indices in `range` and must not let the scratch value
    /// carry state between chunks that affects results; chunk boundaries
    /// depend only on `(trials, chunk_size)`, so results stay
    /// bit-identical for any thread count.
    pub fn run_chunked<A, W, M, F>(&self, trials: u64, make_worker: M, chunk_fn: F) -> A
    where
        A: Accumulator,
        M: Fn() -> W + Sync,
        F: Fn(&mut W, std::ops::Range<u64>, &mut A) + Sync,
    {
        if trials == 0 {
            return A::empty();
        }
        let chunk_size = self.chunk_size;
        let num_chunks = trials.div_ceil(chunk_size) as usize;
        let run_chunk = |worker: &mut W, chunk: usize| {
            let mut acc = A::empty();
            let start = chunk as u64 * chunk_size;
            let end = (start + chunk_size).min(trials);
            chunk_fn(worker, start..end, &mut acc);
            acc
        };

        let cancelled = || self.is_cancelled();
        let mut per_chunk: Vec<Option<A>> = (0..num_chunks).map(|_| None).collect();
        if self.threads == 1 || num_chunks == 1 {
            let mut worker = make_worker();
            for (chunk, slot) in per_chunk.iter_mut().enumerate() {
                if cancelled() {
                    break;
                }
                *slot = Some(run_chunk(&mut worker, chunk));
            }
        } else {
            let next = AtomicUsize::new(0);
            let workers = self.threads.min(num_chunks);
            let mut harvested: Vec<Vec<(usize, A)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut worker = make_worker();
                            let mut local = Vec::new();
                            loop {
                                if cancelled() {
                                    break;
                                }
                                let chunk = next.fetch_add(1, Ordering::Relaxed);
                                if chunk >= num_chunks {
                                    break;
                                }
                                local.push((chunk, run_chunk(&mut worker, chunk)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked"))
                    .collect()
            });
            for (chunk, acc) in harvested.iter_mut().flat_map(std::mem::take) {
                per_chunk[chunk] = Some(acc);
            }
        }

        let mut merged = A::empty();
        for slot in per_chunk.into_iter().flatten() {
            // Every chunk is claimed exactly once; a `None` slot can only
            // remain after cancellation, in which case the caller discards
            // the partial fold through `check_cancelled`.
            merged.fold(slot);
        }
        merged
    }
}

/// One Monte-Carlo job: a bound DFG simulated under one control style and
/// one completion model for a number of trials.
///
/// The `job_id` partitions the seed space: two jobs sharing a `base_seed`
/// but differing in `job_id` draw unrelated streams, so a sweep can give
/// each swept point its own id and remain deterministic under any
/// evaluation order.
#[derive(Clone, Copy, Debug)]
pub struct SimJob<'a> {
    bound: &'a BoundDfg,
    style: ControlStyle,
    model: &'a CompletionModel,
    trials: u64,
    job_id: u64,
    config: Option<&'a SimConfig>,
}

impl<'a> SimJob<'a> {
    /// A job with 1 trial and `job_id` 0; tune with the builder methods.
    pub fn new(bound: &'a BoundDfg, style: ControlStyle, model: &'a CompletionModel) -> Self {
        SimJob {
            bound,
            style,
            model,
            trials: 1,
            job_id: 0,
            config: None,
        }
    }

    /// Sets the number of trials.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the job's seed-space partition id.
    pub fn job_id(mut self, job_id: u64) -> Self {
        self.job_id = job_id;
        self
    }

    /// Applies a fault/watchdog configuration to every trial.
    pub fn config(mut self, config: &'a SimConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Runs the job on `runner`, collecting cycle statistics, through the
    /// bit-sliced engine and the [`SlabDriver`]'s scalar fallback;
    /// bit-identical to [`SimJob::run_scalar`].
    ///
    /// When any trial fails, the error of the lowest-numbered failing
    /// trial is returned — deterministically, for any thread count (see
    /// [`FirstError`]).
    pub fn run(&self, base_seed: u64, runner: &BatchRunner) -> Result<CycleStats, SimError> {
        let default_config = SimConfig::default();
        let lanes = LaneBuilder {
            rng: &|trial| trial_rng(base_seed, self.job_id, trial),
            model: LaneInput::Shared(self.model),
            config: LaneInput::Shared(self.config.unwrap_or(&default_config)),
            skew_seed: &|trial| elastic_trial_skew_seed(base_seed, self.job_id, trial),
        };
        let driver = SlabDriver::new(self.bound, &[self.style]);
        let run = driver.run(
            self.trials,
            runner,
            &lanes,
            |(stats, errors), trial, _, results| {
                for &result in results {
                    record(stats, errors, trial, result);
                }
            },
        );
        finish(runner, run)
    }

    /// The scalar reference path: one trial at a time through the shared
    /// cycle kernel. Kept as the oracle the sliced default is checked
    /// against.
    pub fn run_scalar(&self, base_seed: u64, runner: &BatchRunner) -> Result<CycleStats, SimError> {
        let engine = Engine::generate(self.bound, self.style);
        let default_config = SimConfig::default();
        let config = self.config.unwrap_or(&default_config);
        let run = runner.run(self.trials, |trial, (stats, errors)| {
            let mut rng = trial_rng(base_seed, self.job_id, trial);
            let skew_seed = elastic_trial_skew_seed(base_seed, self.job_id, trial);
            let result =
                engine.run_scalar(self.bound, self.model, None, &mut rng, config, skew_seed);
            record(stats, errors, trial, result.as_ref());
        });
        finish(runner, run)
    }
}

/// Records one trial's result: its cycles, or its error.
fn record(
    stats: &mut CycleStats,
    errors: &mut FirstError,
    trial: u64,
    result: Result<&SimResult, &SimError>,
) {
    match result {
        Ok(r) => stats.record(r.cycles),
        Err(e) => errors.record(trial, e.clone()),
    }
}

/// The statistics of a finished run, unless it was cancelled or a trial
/// failed.
fn finish<S>(runner: &BatchRunner, (stats, errors): (S, FirstError)) -> Result<S, SimError> {
    runner.check_cancelled()?;
    errors.into_result()?;
    Ok(stats)
}

/// Measures one [`LatencySummary`] per requested style, in the order
/// requested, with **coupled** completion draws: every trial draws one
/// short/long table from its own trial RNG and feeds it to every style, so
/// the styles are compared trial for trial, free of sampling skew (the
/// paper's `LT_DIST <= LT_TAU` holds per trial, not merely in
/// expectation).
///
/// `p_values[i]` seeds its trials from job id `first_job + i`. A
/// contiguous sub-range of a larger sweep, run with its global offset,
/// therefore reproduces exactly the per-`P` averages of the full sweep;
/// this is the primitive a cluster coordinator partitions on. Best/worst
/// cells are deterministic extremes, identical in every partition.
///
/// Table models consume no RNG, and ELASTIC draws its skew schedule from
/// the salted [`elastic_trial_skew_seed`] stream, so each style's summary
/// is the same whichever other styles ride along. Trials run through one
/// [`SlabDriver`]. Per trial, DIST never loses to CENT-SYNC, CENT equals
/// DIST and ELASTIC never beats DIST; these orderings are debug-asserted
/// wherever both styles are present.
///
/// Returns [`SimError::InvalidConfig`] when `trials == 0` or a `P` is
/// outside `[0, 1]`, [`SimError::Cancelled`] when `runner`'s token fires, and otherwise the
/// error of the lowest-numbered failing trial.
pub fn latency_batch(
    bound: &BoundDfg,
    styles: &[ControlStyle],
    p_values: &[f64],
    first_job: u64,
    trials: u64,
    base_seed: u64,
    runner: &BatchRunner,
) -> Result<Vec<LatencySummary>, SimError> {
    if trials == 0 {
        return Err(SimError::InvalidConfig(
            "latency batch needs trials >= 1".to_string(),
        ));
    }
    CompletionModel::check_p_values(p_values)?;
    let driver = SlabDriver::new(bound, styles);
    let envelopes = driver
        .engines()
        .iter()
        .map(|e| e.envelope(bound))
        .collect::<Result<Vec<_>, _>>()?;
    let fault_free = SimConfig::default();
    let num_ops = bound.dfg().num_ops();
    let mut averages = vec![Vec::with_capacity(p_values.len()); styles.len()];
    for (i, &p) in p_values.iter().enumerate() {
        let job = first_job + i as u64;
        let lanes = LaneBuilder {
            rng: &|trial| trial_rng(base_seed, job, trial),
            model: LaneInput::PerLane(&|_, rng| CompletionModel::draw_table(num_ops, p, rng)),
            config: LaneInput::Shared(&fault_free),
            skew_seed: &|trial| elastic_trial_skew_seed(base_seed, job, trial),
        };
        let run = driver.run::<(Vec<CycleStats>, _), _>(
            trials,
            runner,
            &lanes,
            |(stats, errors), trial, _, results| {
                stats.resize_with(results.len(), CycleStats::new);
                for (s, &result) in stats.iter_mut().zip(results) {
                    record(s, errors, trial, result);
                }
                Engine::debug_check_coupled(driver.engines(), results);
            },
        );
        for (avg, s) in averages.iter_mut().zip(&finish(runner, run)?) {
            avg.push(s.mean());
        }
    }
    Ok(envelopes
        .into_iter()
        .zip(averages)
        .map(
            |((best_cycles, worst_cycles), average_cycles)| LatencySummary {
                best_cycles,
                average_cycles,
                worst_cycles,
                p_values: p_values.to_vec(),
            },
        )
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ElasticSpec;
    use tauhls_dfg::benchmarks::{fir3, fir5, iir2};
    use tauhls_sched::Allocation;

    fn fir5_bound() -> BoundDfg {
        BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0))
    }

    #[test]
    fn derive_seed_separates_coordinates() {
        let s = derive_seed(1, 2, 3);
        assert_eq!(s, derive_seed(1, 2, 3));
        assert_ne!(s, derive_seed(0, 2, 3));
        assert_ne!(s, derive_seed(1, 3, 3));
        assert_ne!(s, derive_seed(1, 2, 4));
        // A window of trial seeds stays collision-free.
        let mut seeds: Vec<u64> = (0..10_000).map(|t| derive_seed(7, 0, t)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000);
    }

    fn all_styles() -> Vec<ControlStyle> {
        vec![
            ControlStyle::CentSync,
            ControlStyle::Distributed,
            ControlStyle::Cent,
            ControlStyle::Elastic(ElasticSpec::default()),
        ]
    }

    #[test]
    fn every_style_subset_reproduces_the_all_styles_run() {
        let bound = fir5_bound();
        let ps = [0.9, 0.5];
        let runner = BatchRunner::new(2);
        let styles = all_styles();
        let all = latency_batch(&bound, &styles, &ps, 0, 150, 5, &runner).unwrap();
        // Each style's summary is independent of which others ride along,
        // and summaries come back in the order requested.
        for mask in 1u32..(1 << styles.len()) {
            let mut picked: Vec<usize> =
                (0..styles.len()).filter(|k| mask & (1 << k) != 0).collect();
            for _ in 0..2 {
                let subset: Vec<ControlStyle> = picked.iter().map(|&k| styles[k]).collect();
                let got = latency_batch(&bound, &subset, &ps, 0, 150, 5, &runner).unwrap();
                assert_eq!(got.len(), subset.len());
                for (summary, &k) in got.iter().zip(&picked) {
                    assert_eq!(summary, &all[k], "style {:?} in {subset:?}", styles[k]);
                }
                picked.reverse();
            }
        }
        let (sync, dist, cent, elas) = (&all[0], &all[1], &all[2], &all[3]);
        // CENT is cycle-identical to DIST (bisimulation), trial for trial.
        assert_eq!(cent, dist);
        // Coupled DIST dominates CENT-SYNC; elastic clocking only costs.
        for ((s, d), e) in sync
            .average_cycles
            .iter()
            .zip(&dist.average_cycles)
            .zip(&elas.average_cycles)
        {
            assert!(d <= s, "coupled dist {d} > sync {s}");
            assert!(d <= e, "elastic avg {e} < dist avg {d}");
        }
        assert!(dist.worst_cycles <= sync.worst_cycles);
        assert!(dist.worst_cycles <= elas.worst_cycles);
    }

    #[test]
    fn first_job_sub_ranges_reproduce_the_full_sweep() {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(1, 1, 0));
        let ps = [0.1, 0.35, 0.5, 0.75, 0.9];
        let runner = BatchRunner::new(2);
        let styles = all_styles();
        let full = latency_batch(&bound, &styles, &ps, 0, 40, 9, &runner).unwrap();
        for (lo, hi) in [(0usize, 2usize), (2, 5), (1, 4), (0, 5)] {
            let part =
                latency_batch(&bound, &styles, &ps[lo..hi], lo as u64, 40, 9, &runner).unwrap();
            for (piece, whole) in part.iter().zip(&full) {
                assert_eq!(piece.best_cycles, whole.best_cycles);
                assert_eq!(piece.worst_cycles, whole.worst_cycles);
                assert_eq!(piece.average_cycles, whole.average_cycles[lo..hi].to_vec());
                assert_eq!(piece.p_values, ps[lo..hi].to_vec());
            }
        }
    }

    #[test]
    fn latency_batch_is_thread_and_chunk_invariant() {
        let bound = fir5_bound();
        let ps = [0.9, 0.5];
        let styles = all_styles();
        let reference =
            latency_batch(&bound, &styles, &ps, 0, 300, 5, &BatchRunner::serial()).unwrap();
        for runner in [
            BatchRunner::new(2),
            BatchRunner::new(8),
            BatchRunner::new(2).with_chunk_size(17),
        ] {
            let got = latency_batch(&bound, &styles, &ps, 0, 300, 5, &runner).unwrap();
            assert_eq!(got, reference, "{runner:?}");
        }
    }

    #[test]
    fn fir5_distributed_beats_sync_on_average() {
        let ps = [0.9, 0.7, 0.5];
        let styles = [ControlStyle::CentSync, ControlStyle::Distributed];
        let [sync, dist]: [LatencySummary; 2] = latency_batch(
            &fir5_bound(),
            &styles,
            &ps,
            0,
            2000,
            1,
            &BatchRunner::new(2),
        )
        .unwrap()
        .try_into()
        .unwrap();
        assert_eq!(sync.best_cycles, dist.best_cycles);
        assert!(dist.worst_cycles <= sync.worst_cycles);
        for (s, d) in sync.average_cycles.iter().zip(&dist.average_cycles) {
            assert!(d <= s, "dist {d} > sync {s}");
        }
        let enh = crate::enhancement_percent(&sync, &dist);
        // The paper reports 4.9-13.2 % for FIR5; demand a visible gain.
        assert!(enh[2] > 2.0, "enhancement at P=0.5: {enh:?}");
        // Gap widens as P shrinks.
        assert!(enh[2] >= enh[0] - 0.5, "{enh:?}");
    }

    #[test]
    fn averages_monotone_in_p() {
        let bound = BoundDfg::bind(&iir2(), &Allocation::paper(2, 1, 0));
        let dist = [ControlStyle::Distributed];
        let s = &latency_batch(
            &bound,
            &dist,
            &[0.9, 0.7, 0.5],
            0,
            1500,
            2,
            &BatchRunner::new(2),
        )
        .unwrap()[0];
        assert!(s.average_cycles[0] <= s.average_cycles[1]);
        assert!(s.average_cycles[1] <= s.average_cycles[2]);
        assert!(s.best_cycles as f64 <= s.average_cycles[0]);
        assert!(s.average_cycles[2] <= s.worst_cycles as f64);
    }

    #[test]
    fn elastic_summary_runs_and_brackets() {
        let elastic = [ControlStyle::Elastic(ElasticSpec::default())];
        let s = &latency_batch(
            &fir5_bound(),
            &elastic,
            &[0.9, 0.5],
            0,
            200,
            6,
            &BatchRunner::new(2),
        )
        .unwrap()[0];
        assert!(s.best_cycles as f64 <= s.average_cycles[0]);
        assert!(s.average_cycles[1] <= s.worst_cycles as f64);
    }

    #[test]
    fn latency_batch_rejects_zero_trials() {
        let err = latency_batch(
            &fir5_bound(),
            &all_styles(),
            &[0.5],
            0,
            0,
            5,
            &BatchRunner::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn out_of_range_p_is_a_config_error_on_every_entry() {
        // The first draw from a P outside [0, 1] panics, so every entry
        // must reject it first: the sliced pass declines the lanes and
        // the scalar rerun reports InvalidConfig.
        let bound = fir5_bound();
        let serial = BatchRunner::serial();
        fn invalid<T>(r: Result<T, SimError>) -> bool {
            matches!(r, Err(SimError::InvalidConfig(_)))
        }
        for p in [1.5, -0.1, f64::NAN] {
            let model = CompletionModel::Bernoulli { p };
            for style in all_styles() {
                let job = SimJob::new(&bound, style, &model).trials(70);
                assert!(invalid(job.run(3, &serial)), "{style:?} p={p}");
                assert!(invalid(job.run_scalar(3, &serial)), "{style:?} p={p}");
            }
            let batch = latency_batch(&bound, &all_styles(), &[0.5, p], 0, 10, 5, &serial);
            assert!(invalid(batch), "p={p}");
        }
    }

    #[test]
    fn zero_spec_collapses_elastic_onto_dist() {
        let bound = fir5_bound();
        let styles = [
            ControlStyle::Distributed,
            ControlStyle::Elastic(ElasticSpec::zero()),
        ];
        let got = latency_batch(
            &bound,
            &styles,
            &[0.9, 0.5],
            0,
            300,
            7,
            &BatchRunner::new(4),
        )
        .unwrap();
        assert_eq!(got[0], got[1]);
    }

    #[test]
    fn cycle_stats_merge_is_exact() {
        let samples = [3usize, 5, 4, 4, 7, 3, 5, 6, 4, 5, 9, 3];
        let mut whole = CycleStats::new();
        for &s in &samples {
            whole.record(s);
        }
        for split in 1..samples.len() {
            let (a, b) = samples.split_at(split);
            let mut left = CycleStats::new();
            let mut right = CycleStats::new();
            a.iter().for_each(|&s| left.record(s));
            b.iter().for_each(|&s| right.record(s));
            left.merge(&right);
            assert_eq!(left, whole, "split at {split}");
        }
        assert_eq!(whole.min, 3);
        assert_eq!(whole.max, 9);
        assert_eq!(whole.count, 12);
    }

    #[test]
    fn runner_is_thread_count_invariant() {
        let bound = fir5_bound();
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let job = SimJob::new(&bound, ControlStyle::Distributed, &model).trials(300);
        let reference = job.run(11, &BatchRunner::serial()).unwrap();
        for threads in [2usize, 3, 8] {
            assert_eq!(reference, job.run(11, &BatchRunner::new(threads)).unwrap());
        }
        // Odd chunk sizes cover the ragged-final-chunk path.
        let ragged = job
            .run(11, &BatchRunner::new(4).with_chunk_size(7))
            .unwrap();
        assert_eq!(reference, ragged);
    }

    #[test]
    fn first_error_is_deterministic_by_trial_index() {
        use crate::error::SimError;
        let mut a = FirstError::default();
        a.record(9, SimError::InvalidConfig("nine".to_string()));
        a.record(3, SimError::InvalidConfig("three".to_string()));
        a.record(5, SimError::InvalidConfig("five".to_string()));
        assert_eq!(a.first().map(|(t, _)| *t), Some(3));
        // fold order must not matter: the lowest trial wins either way.
        let mut left = FirstError::default();
        left.record(7, SimError::InvalidConfig("seven".to_string()));
        let mut right = FirstError::default();
        right.record(2, SimError::InvalidConfig("two".to_string()));
        let mut folded = FirstError::empty();
        folded.fold(left.clone());
        folded.fold(right.clone());
        assert_eq!(folded.first().map(|(t, _)| *t), Some(2));
        let mut folded_rev = FirstError::empty();
        folded_rev.fold(right);
        folded_rev.fold(left);
        assert_eq!(folded, folded_rev);
        assert!(folded.into_result().is_err());
        assert!(FirstError::default().into_result().is_ok());
    }

    #[test]
    fn elastic_job_is_thread_and_engine_invariant() {
        let bound = fir5_bound();
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let style = ControlStyle::Elastic(ElasticSpec::default());
        for trials in [1u64, 63, 65, 300] {
            let job = SimJob::new(&bound, style, &model).trials(trials);
            let scalar = job.run_scalar(11, &BatchRunner::serial()).unwrap();
            for runner in [
                BatchRunner::serial(),
                BatchRunner::new(4),
                BatchRunner::new(4).with_chunk_size(10),
            ] {
                assert_eq!(scalar, job.run(11, &runner).unwrap(), "trials {trials}");
            }
        }
    }

    #[test]
    fn cent_job_matches_distributed_job() {
        let bound = fir5_bound();
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let dist = SimJob::new(&bound, ControlStyle::Distributed, &model)
            .trials(300)
            .run(11, &BatchRunner::new(4))
            .unwrap();
        let cent = SimJob::new(&bound, ControlStyle::Cent, &model)
            .trials(300)
            .run(11, &BatchRunner::new(4))
            .unwrap();
        assert_eq!(dist, cent);
    }

    #[test]
    fn summary_batch_brackets_extremes() {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(1, 1, 0));
        let dist = [ControlStyle::Distributed];
        let s = &latency_batch(
            &bound,
            &dist,
            &[0.9, 0.5, 0.1],
            0,
            500,
            3,
            &BatchRunner::new(2),
        )
        .unwrap()[0];
        assert!(s.best_cycles as f64 <= s.average_cycles[0]);
        assert!(s.average_cycles[0] <= s.average_cycles[1]);
        assert!(s.average_cycles[1] <= s.average_cycles[2]);
        assert!(s.average_cycles[2] <= s.worst_cycles as f64);
    }

    #[test]
    fn zero_trials_yield_empty_accumulator() {
        let runner = BatchRunner::new(4);
        let acc: CycleStats = runner.run(0, |_, _| unreachable!());
        assert_eq!(acc.count, 0);
    }

    #[test]
    fn pre_cancelled_runner_reports_cancellation() {
        let bound = fir5_bound();
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 4] {
            let runner = BatchRunner::new(threads).with_cancel(token.clone());
            // No chunk is ever claimed; the trial closure must not run.
            let acc: CycleStats = runner.run(100, |_, _| unreachable!());
            assert_eq!(acc.count, 0);
            let err = SimJob::new(&bound, ControlStyle::Distributed, &model)
                .trials(100)
                .run(3, &runner)
                .unwrap_err();
            assert_eq!(err, SimError::Cancelled);
            let err = latency_batch(&bound, &all_styles(), &[0.5], 0, 100, 3, &runner).unwrap_err();
            assert_eq!(err, SimError::Cancelled);
        }
    }

    #[test]
    fn mid_run_cancellation_stops_claiming_chunks() {
        let token = CancelToken::new();
        let runner = BatchRunner::new(1)
            .with_chunk_size(1)
            .with_cancel(token.clone());
        // Cancel from inside trial 4: later chunks must never start.
        let stats: CycleStats = runner.run(1_000, |trial, acc: &mut CycleStats| {
            assert!(trial <= 4, "chunk claimed after cancellation");
            if trial == 4 {
                token.cancel();
            }
            acc.record(trial as usize);
        });
        assert_eq!(stats.count, 5);
        assert_eq!(runner.check_cancelled(), Err(SimError::Cancelled));
    }

    #[test]
    fn uncancelled_token_leaves_results_bit_identical() {
        let bound = fir5_bound();
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let job = SimJob::new(&bound, ControlStyle::Distributed, &model).trials(300);
        let plain = job.run(11, &BatchRunner::new(4)).unwrap();
        let with_token = job
            .run(11, &BatchRunner::new(4).with_cancel(CancelToken::new()))
            .unwrap();
        assert_eq!(plain, with_token);
    }

    #[test]
    fn child_tokens_inherit_but_never_propagate_upward() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();

        // Cancelling a child is local: the parent stays live.
        child.cancel();
        assert!(child.is_cancelled());
        assert!(child.is_self_cancelled());
        assert!(!parent.is_cancelled());
        // ... but flows down to its own descendants.
        assert!(grandchild.is_cancelled());
        assert!(!grandchild.is_self_cancelled());

        // Cancelling the root reaches every descendant, and the cause
        // stays distinguishable from a local cancel.
        let other = parent.child();
        assert!(!other.is_cancelled());
        parent.cancel();
        assert!(other.is_cancelled());
        assert!(!other.is_self_cancelled());
    }

    #[test]
    fn sliced_job_matches_scalar_oracle_at_lane_boundaries() {
        let bound = fir5_bound();
        let model = CompletionModel::Bernoulli { p: 0.5 };
        for style in [
            ControlStyle::Distributed,
            ControlStyle::Cent,
            ControlStyle::CentSync,
        ] {
            for trials in [1u64, 63, 64, 65, 257] {
                let job = SimJob::new(&bound, style, &model).trials(trials);
                let scalar = job.run_scalar(11, &BatchRunner::serial()).unwrap();
                // The sliced default must reproduce the scalar oracle for
                // every lane width (ragged last slab included), chunk
                // size, and thread count.
                for runner in [
                    BatchRunner::serial(),
                    BatchRunner::new(4),
                    BatchRunner::new(4).with_chunk_size(10),
                    BatchRunner::serial().with_chunk_size(100),
                ] {
                    assert_eq!(
                        scalar,
                        job.run(11, &runner).unwrap(),
                        "style {style:?}, trials {trials}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliced_job_matches_scalar_oracle_under_faults() {
        use crate::fault::{FaultKind, FaultPlan};
        use tauhls_dfg::OpId;
        let bound = fir5_bound();
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let plans = [
            FaultPlan::single(1, FaultKind::StuckAtShort { op: OpId(1) }),
            FaultPlan::single(1, FaultKind::StuckAtLong { op: OpId(0) }),
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
            let config = SimConfig::with_faults(plan);
            for style in [ControlStyle::Distributed, ControlStyle::Cent] {
                let job = SimJob::new(&bound, style, &model)
                    .trials(65)
                    .config(&config);
                let scalar = job.run_scalar(11, &BatchRunner::serial());
                let sliced = job.run(11, &BatchRunner::new(4));
                assert_eq!(scalar, sliced, "style {style:?}, config {config:?}");
            }
        }
    }

    #[test]
    fn chunked_worker_is_reused_and_results_unchanged() {
        use std::sync::atomic::AtomicUsize;
        let runner = BatchRunner::serial().with_chunk_size(10);
        let built = AtomicUsize::new(0);
        let stats: CycleStats = runner.run_chunked(
            100,
            || {
                built.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::with_capacity(10)
            },
            |scratch, range, acc: &mut CycleStats| {
                // Scratch arrives dirty from the previous chunk; a
                // correct chunk body resets it before use.
                scratch.clear();
                scratch.extend(range.map(|t| t as usize));
                for &s in scratch.iter() {
                    acc.record(s);
                }
            },
        );
        // One worker (serial) means one scratch for all ten chunks.
        assert_eq!(built.load(Ordering::Relaxed), 1);
        let reference: CycleStats =
            runner.run(100, |t, acc: &mut CycleStats| acc.record(t as usize));
        assert_eq!(stats, reference);

        let built = AtomicUsize::new(0);
        let parallel: CycleStats = BatchRunner::new(4).with_chunk_size(10).run_chunked(
            100,
            || {
                built.fetch_add(1, Ordering::Relaxed);
            },
            |(), range, acc: &mut CycleStats| {
                for t in range {
                    acc.record(t as usize);
                }
            },
        );
        // At most one scratch per worker, never one per chunk.
        assert!(built.load(Ordering::Relaxed) <= 4);
        assert_eq!(parallel, reference);
    }

    #[test]
    fn mid_run_cancellation_stops_claiming_chunked_slabs() {
        let token = CancelToken::new();
        let runner = BatchRunner::new(1)
            .with_chunk_size(1)
            .with_cancel(token.clone());
        let stats: CycleStats = runner.run_chunked(
            1_000,
            || (),
            |(), range, acc: &mut CycleStats| {
                for trial in range {
                    assert!(trial <= 4, "chunk claimed after cancellation");
                    if trial == 4 {
                        token.cancel();
                    }
                    acc.record(trial as usize);
                }
            },
        );
        assert_eq!(stats.count, 5);
        assert_eq!(runner.check_cancelled(), Err(SimError::Cancelled));
    }
}
