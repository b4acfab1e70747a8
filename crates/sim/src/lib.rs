//! # tauhls-sim — cycle-accurate simulation of telescopic control units
//!
//! The evaluation substrate of the `tauhls` workspace (paper §5):
//!
//! * [`Engine`] — the one way to run one controller style
//!   ([`Engine::run_scalar`]): DIST steps every arithmetic-unit controller
//!   FSM cycle by cycle against the datapath, with combinational
//!   completion propagation and latched (`done`) completion flags; CENT
//!   and ELASTIC run the same single-iteration body with composite
//!   diagnostics or per-controller clocks; CENT-SYNC is the synchronized
//!   TAUBM step-walk (`LT_TAU`);
//! * [`simulate_pipelined_with`] — overlapped iterations of the DIST bank
//!   (initiation interval and write-after-read hazards);
//! * [`CompletionModel`] — Bernoulli(`P`), deterministic extremes, or
//!   operand-driven completion through `tauhls-datapath` bit-level units;
//! * [`latency_batch`] — the `[best][avg@P...][worst]` cells of Table 2
//!   for any list of control styles on **coupled** trials (one completion
//!   table per trial, fed to every style), one summary per style in
//!   request order; [`enhancement_percent`] adds the enhancement column;
//! * [`BatchRunner`] / [`SimJob`] — a deterministic parallel Monte-Carlo
//!   engine: per-trial RNGs derived from `(base_seed, job_id, trial)` and
//!   chunk-ordered reduction make results bit-identical for any thread
//!   count, with `threads = 1` as the reference oracle;
//! * [`SlicedSim`] — the bit-sliced twin of one [`Engine`], 64 trials per
//!   word, which reports the deadlocks and desyncs it detects itself;
//!   [`SlabDriver`] — the one slab loop behind the batch APIs, with
//!   scalar reruns (through [`Engine`]) of the lanes it declines;
//! * [`FaultPlan`] / [`SimConfig`] — deterministic completion-signal fault
//!   injection (stuck-at predictors, dropped/spurious pulses, delayed
//!   latches, state-register upsets), with abnormal runs classified as
//!   structured [`SimError`]s carrying per-controller diagnostics instead
//!   of panicking.
//!
//! # Examples
//!
//! Measure the FIR5 row of Table 2 (in cycles):
//!
//! ```
//! use tauhls_sim::{latency_batch, enhancement_percent, BatchRunner, ControlStyle};
//! use tauhls_sched::{Allocation, BoundDfg};
//! use tauhls_dfg::benchmarks::fir5;
//!
//! let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
//! let styles = [ControlStyle::CentSync, ControlStyle::Distributed];
//! let legs = latency_batch(&bound, &styles, &[0.9], 0, 200, 7, &BatchRunner::serial()).unwrap();
//! let (sync, dist) = (&legs[0], &legs[1]);
//! assert!(dist.average_cycles[0] <= sync.average_cycles[0]);
//! assert!(enhancement_percent(sync, dist)[0] >= 0.0);
//! ```
//!
//! Inject a stuck-at-long completion signal and observe the deadlock:
//!
//! ```
//! use tauhls_sim::{CompletionModel, ControlStyle, Engine, FaultKind, FaultPlan, SimConfig,
//!                  SimError};
//! use tauhls_sched::{Allocation, BoundDfg};
//! use tauhls_dfg::{benchmarks::fir5, OpId};
//! use rand::SeedableRng;
//!
//! let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
//! let dist = Engine::generate(&bound, ControlStyle::Distributed);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = SimConfig::with_faults(FaultPlan::single(1, FaultKind::StuckAtLong { op: OpId(0) }));
//! let err = dist
//!     .run_scalar(&bound, &CompletionModel::AlwaysShort, None, &mut rng, &cfg, 0)
//!     .unwrap_err();
//! assert!(matches!(err, SimError::Deadlock(_)));
//! ```
//!
//! CENT tracks every TAU exactly as the distributed bank does, so on the
//! same trial stream it reaches every result in the same cycle:
//!
//! ```
//! use tauhls_sim::{CompletionModel, ControlStyle, Engine, SimConfig};
//! use tauhls_sched::{Allocation, BoundDfg};
//! use tauhls_dfg::benchmarks::fir5;
//! use rand::SeedableRng;
//!
//! let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
//! let model = CompletionModel::Bernoulli { p: 0.5 };
//! let run = |style| {
//!     let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//!     Engine::generate(&bound, style)
//!         .run_scalar(&bound, &model, None, &mut rng, &SimConfig::default(), 0)
//!         .unwrap()
//! };
//! assert_eq!(run(ControlStyle::Cent), run(ControlStyle::Distributed));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod batch;
mod cent;
mod centsync;
mod distributed;
mod elastic;
mod error;
mod fault;
mod invariant;
pub mod kernel;
mod latency;
mod model;
mod pipeline;
mod result;
mod slab;
pub mod sliced;

pub use batch::{
    derive_seed, latency_batch, trial_rng, Accumulator, BatchRunner, CancelToken, CycleStats,
    FirstError, SimJob, DEFAULT_CHUNK_SIZE,
};
pub use cent::CENT_FSM_NAME;
pub use elastic::{elastic_trial_skew_seed, ELASTIC_SKEW_SALT};
pub use error::{ControllerSnapshot, Diagnostics, SimError};
pub use fault::{Fault, FaultKind, FaultPlan, SimConfig, Watchdog};
pub use invariant::{check_lockstep, check_token_conservation};
pub use kernel::{ClockFabric, ElasticSpec};
pub use latency::{enhancement_percent, ControlStyle, ControlStyleSet, Engine, LatencySummary};
pub use model::{CompletionModel, TauLibrary};
pub use pipeline::{simulate_pipelined_with, PipelinedResult};
pub use result::SimResult;
pub use slab::{CellPaths, LaneBuilder, LaneInput, SlabDriver};
pub use sliced::{LaneConfigs, LaneModels, LaneOutcome, SlicedSim, LANES};
