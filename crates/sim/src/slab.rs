//! [`SlabDriver`]: the one loop behind every multi-trial run of the
//! bit-sliced engine, with scalar fallback for the lanes it declines.

use crate::batch::{Accumulator, BatchRunner};
use crate::error::SimError;
use crate::fault::SimConfig;
use crate::kernel::DiagMode;
use crate::latency::{ControlStyle, Engine};
use crate::model::CompletionModel;
use crate::result::SimResult;
use crate::sliced::{LaneConfigs, LaneModels, LaneOutcome, SlicedSim, LANES};
use rand::rngs::StdRng;
use std::sync::{Mutex, PoisonError};
use tauhls_sched::BoundDfg;

/// One input of a trial's lane: a value every lane shares, or one the
/// lane builder makes per trial.
pub enum LaneInput<'a, T> {
    /// Every lane reads this value.
    Shared(&'a T),
    /// Trial `t` reads `make(t, rng)`, where `rng` is the trial's RNG.
    /// The model is made before the config, and both before the lane
    /// simulates, so a model drawn from `rng` (a completion table) is
    /// part of the trial's stream.
    PerLane(&'a (dyn Fn(u64, &mut StdRng) -> T + Sync)),
}

/// How a [`SlabDriver`] builds the lane of one trial.
pub struct LaneBuilder<'a> {
    /// The trial's RNG.
    pub rng: &'a (dyn Fn(u64) -> StdRng + Sync),
    /// The trial's completion model.
    pub model: LaneInput<'a, CompletionModel>,
    /// The trial's fault/watchdog configuration.
    pub config: LaneInput<'a, SimConfig>,
    /// The trial's ELASTIC clock-schedule seed (other styles ignore it).
    pub skew_seed: &'a (dyn Fn(u64) -> u64 + Sync),
}

/// How many cells — one trial of one style — of a [`SlabDriver`]'s runs
/// took each path. Rerun cells are split by what the scalar rerun
/// reported, which names why the sliced engine declined the lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellPaths {
    /// Cells the sliced engine completed.
    pub sliced_done: u64,
    /// Cells the sliced engine diagnosed as a deadlock or desync.
    pub sliced_error: u64,
    /// Cells rerun scalar because the lane's model is an
    /// [`SimError::InvalidConfig`].
    pub rerun_invalid_config: u64,
    /// Cells rerun scalar because a controller state name falls outside
    /// the `S`/`R` convention ([`SimError::UnknownState`]).
    pub rerun_unknown_state: u64,
    /// Every other rerun: the lanes of a run the sliced engine declined
    /// whole, or of a diagnosis it could not reproduce.
    pub rerun_other: u64,
}

impl CellPaths {
    /// Every cell counted.
    pub fn cells(&self) -> u64 {
        self.sliced_done + self.sliced_error + self.reruns()
    }

    /// Cells rerun through the scalar engine, for any reason.
    pub fn reruns(&self) -> u64 {
        self.rerun_invalid_config + self.rerun_unknown_state + self.rerun_other
    }

    /// Counts one scalar rerun by what it reported.
    fn rerun(&mut self, result: &Result<SimResult, SimError>) {
        match result {
            Err(SimError::InvalidConfig(_)) => self.rerun_invalid_config += 1,
            Err(SimError::UnknownState { .. }) => self.rerun_unknown_state += 1,
            _ => self.rerun_other += 1,
        }
    }
}

impl std::ops::AddAssign for CellPaths {
    fn add_assign(&mut self, other: CellPaths) {
        self.sliced_done += other.sliced_done;
        self.sliced_error += other.sliced_error;
        self.rerun_invalid_config += other.rerun_invalid_config;
        self.rerun_unknown_state += other.rerun_unknown_state;
        self.rerun_other += other.rerun_other;
    }
}

/// One cell's result: read from a sliced pass, or owned — a scalar
/// rerun, or a pass's diagnosis relabelled for the cell's style.
enum Cell<'p> {
    Lane(Result<&'p SimResult, &'p SimError>),
    Owned(Result<SimResult, SimError>),
}

impl Cell<'_> {
    fn get(&self) -> Result<&SimResult, &SimError> {
        match self {
            Cell::Lane(r) => *r,
            Cell::Owned(r) => r.as_ref(),
        }
    }
}

/// Runs trials of a list of controller styles through the bit-sliced
/// engine, with scalar fallback.
///
/// Trials are cut into slabs of up to [`LANES`] lanes, each built once by
/// the caller's [`LaneBuilder`]. Per slab, one sliced pass runs per group
/// of styles that share lanes: DIST and CENT read one DIST pass
/// (bisimulation), CENT-SYNC runs its own, and ELASTIC one per distinct
/// spec. Every pass starts from fresh copies of the lanes' RNGs.
///
/// **Fallback contract.** Every cell's result — value or error,
/// diagnostics included — is the one a scalar run of the trial produces.
/// A lane the sliced engine completes or diagnoses
/// ([`LaneOutcome::Done`], [`LaneOutcome::Failed`]) is folded as it
/// stands; CENT reads DIST's pass, so its errors are DIST's with the
/// controllers relabelled as the one composite `CENT` snapshot. Only the
/// lanes the engine declines ([`LaneOutcome::Fallback`]: an
/// `InvalidConfig` model, an `UnknownState` name, or a declined run)
/// rerun through the style's scalar engine ([`Engine::run_scalar`]),
/// from the lane as its builder made it: a fresh copy of the builder's
/// RNG, never the RNG a sliced pass advanced, with the same model, config
/// and skew seed. [`SlabDriver::paths`] counts the cells of each path.
///
/// The fold sees each trial once, in trial order, with its config and one
/// result per style in style order. Chunks fold through
/// [`BatchRunner::run_chunked`], so the accumulator is the same for any
/// thread count.
pub struct SlabDriver<'a> {
    bound: &'a BoundDfg,
    engines: Vec<Engine>,
    /// Style `k` reads the sliced lanes of style `lanes_of[k]`, the first
    /// style sharing its pass.
    lanes_of: Vec<usize>,
    paths: Mutex<CellPaths>,
}

impl<'a> SlabDriver<'a> {
    /// A driver for `styles`, generating each style's controllers once.
    pub fn new(bound: &'a BoundDfg, styles: &[ControlStyle]) -> Self {
        let engines: Vec<Engine> = styles.iter().map(|&s| Engine::generate(bound, s)).collect();
        let lanes_of = (0..engines.len())
            .map(|k| {
                (0..k)
                    .find(|&j| engines[j].shares_lanes(&engines[k]))
                    .unwrap_or(k)
            })
            .collect();
        SlabDriver {
            bound,
            engines,
            lanes_of,
            paths: Mutex::default(),
        }
    }

    /// The styles' engines, in style order.
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// The paths the cells of every run so far took.
    pub fn paths(&self) -> CellPaths {
        *self.paths.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs trials `0..trials` on `runner` and folds each trial's results
    /// into the accumulator: `fold(acc, trial, config, results)`.
    pub fn run<A, F>(
        &self,
        trials: u64,
        runner: &BatchRunner,
        lanes: &LaneBuilder<'_>,
        fold: F,
    ) -> A
    where
        A: Accumulator,
        F: Fn(&mut A, u64, &SimConfig, &[Result<&SimResult, &SimError>]) + Sync,
    {
        let make_slab = || {
            // One CENT-SYNC simulator and one over the DIST bank that
            // DIST, CENT and every ELASTIC spec step, when a style needs it.
            // Bank passes diagnose per unit; each cell relabels for its
            // style.
            let sim_for = |bank: bool| {
                (self.engines.iter())
                    .find(|e| e.dist_bank().is_some() == bank)
                    .map(|e| {
                        let mut sim = SlicedSim::new(self.bound, e);
                        sim.diag = DiagMode::PerUnit;
                        sim
                    })
            };
            Slab {
                sync_sim: sim_for(false),
                bank_sim: sim_for(true),
                passes: vec![Vec::new(); self.engines.len()],
                ..Slab::default()
            }
        };
        runner.run_chunked(trials, make_slab, |w, range, acc| {
            let mut first = range.start;
            while first < range.end {
                w.fill(lanes, first..(first + LANES as u64).min(range.end));
                let models = match lanes.model {
                    LaneInput::Shared(m) => LaneModels::Shared(m),
                    LaneInput::PerLane(_) => LaneModels::PerLane(&w.models),
                };
                let configs = match lanes.config {
                    LaneInput::Shared(c) => LaneConfigs::Shared(c),
                    LaneInput::PerLane(_) => LaneConfigs::PerLane(&w.configs),
                };
                // One sliced pass per lane-sharing group, on its first style,
                // into the lanes that pass wrote last slab.
                for (k, engine) in self.engines.iter().enumerate() {
                    let sim = match (self.lanes_of[k] == k, engine.dist_bank()) {
                        (false, _) => None,
                        (true, Some(_)) => w.bank_sim.as_mut(),
                        (true, None) => w.sync_sim.as_mut(),
                    };
                    let Some(sim) = sim else { continue };
                    w.rngs.clone_from(&w.fresh);
                    sim.clock = engine.elastic_spec();
                    sim.run(&w.skews, &models, &configs, &mut w.rngs, &mut w.passes[k]);
                }
                // Per lane and style: the sliced outcome, or the scalar
                // rerun.
                let mut paths = CellPaths::default();
                let mut cells = Vec::with_capacity(w.fresh.len() * self.engines.len());
                for (lane, fresh) in w.fresh.iter().enumerate() {
                    for (k, engine) in self.engines.iter().enumerate() {
                        cells.push(match w.passes[self.lanes_of[k]].get(lane) {
                            Some(LaneOutcome::Done(r)) => {
                                paths.sliced_done += 1;
                                Cell::Lane(Ok(r))
                            }
                            Some(LaneOutcome::Failed(e)) => {
                                paths.sliced_error += 1;
                                match engine.diag_mode() {
                                    DiagMode::PerUnit => Cell::Lane(Err(e)),
                                    mode => Cell::Owned(Err(mode.relabel(e.clone()))),
                                }
                            }
                            _ => {
                                let result = engine.run_scalar(
                                    self.bound,
                                    models.model(lane),
                                    None,
                                    &mut fresh.clone(),
                                    configs.cfg(lane),
                                    w.skews[lane],
                                );
                                paths.rerun(&result);
                                Cell::Owned(result)
                            }
                        });
                    }
                }
                // Counts stay valid whatever a panicking holder left.
                *self.paths.lock().unwrap_or_else(PoisonError::into_inner) += paths;
                let mut results = Vec::with_capacity(self.engines.len());
                for (lane, row) in cells.chunks(self.engines.len().max(1)).enumerate() {
                    results.clear();
                    results.extend(row.iter().map(Cell::get));
                    fold(acc, first + lane as u64, configs.cfg(lane), &results);
                }
                first += w.fresh.len() as u64;
            }
        })
    }
}

/// Per-worker scratch of [`SlabDriver::run`], reused across chunks.
#[derive(Default)]
struct Slab<'s> {
    sync_sim: Option<SlicedSim<'s>>,
    bank_sim: Option<SlicedSim<'s>>,
    /// Per style, the lanes of its sliced pass (empty for a style that
    /// reads another style's pass), kept across slabs so each pass refills
    /// its results' vectors.
    passes: Vec<Vec<LaneOutcome>>,
    /// Each lane's RNG as its builder made it.
    fresh: Vec<StdRng>,
    /// The copies a sliced pass advances.
    rngs: Vec<StdRng>,
    /// Per-lane models and configs, when the builder makes them.
    models: Vec<CompletionModel>,
    configs: Vec<SimConfig>,
    skews: Vec<u64>,
}

impl Slab<'_> {
    /// Builds the lanes of `trials`.
    fn fill(&mut self, lanes: &LaneBuilder<'_>, trials: std::ops::Range<u64>) {
        self.fresh.clear();
        self.models.clear();
        self.configs.clear();
        self.skews.clear();
        for trial in trials {
            let mut rng = (lanes.rng)(trial);
            if let LaneInput::PerLane(make) = lanes.model {
                self.models.push(make(trial, &mut rng));
            }
            if let LaneInput::PerLane(make) = lanes.config {
                self.configs.push(make(trial, &mut rng));
            }
            self.skews.push((lanes.skew_seed)(trial));
            self.fresh.push(rng);
        }
    }
}
