//! The end-to-end synthesis pipeline: DFG + allocation + timing →
//! scheduled/bound design → controllers and area reports.
//!
//! [`Synthesis::run`] is a thin driver over the staged pass pipeline in
//! [`crate::stages`]; use [`Synthesis::run_traced`] to also observe the
//! artifact-hash chain and per-stage wall times.

use std::sync::Arc;

use crate::stages::{self, BindStrategy, ControlUnits, PipelineTrace, SynthesisInput};
use tauhls_dfg::Dfg;
use tauhls_fsm::{synthesize, DistributedControlUnit, Encoding, Fsm, SynthesizedFsm};
use tauhls_logic::AreaModel;
use tauhls_sched::{Allocation, BoundDfg, UnitId};

/// Timing parameters of the telescopic system (paper Table 2 footer:
/// `SD(×) = 15 ns, LD(×) = 20 ns, FD(+,−) = 15 ns`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Short delay of the telescopic units — the fast clock period, ns.
    pub sd_ns: f64,
    /// Long (worst-case) delay of the telescopic units, ns.
    pub ld_ns: f64,
    /// Fixed delay of the non-telescopic units, ns.
    pub fd_ns: f64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            sd_ns: 15.0,
            ld_ns: 20.0,
            fd_ns: 15.0,
        }
    }
}

impl Timing {
    /// The system clock period: the slowest single-cycle path, i.e.
    /// `max(SD, FD)`.
    pub fn clock_ns(&self) -> f64 {
        self.sd_ns.max(self.fd_ns)
    }
}

/// Builder for a telescopic-controller synthesis run.
///
/// # Examples
///
/// ```
/// use tauhls_core::Synthesis;
/// use tauhls_dfg::benchmarks::fir3;
/// use tauhls_sched::Allocation;
///
/// let design = Synthesis::new(fir3())
///     .allocation(Allocation::paper(2, 1, 0))
///     .run()?;
/// assert_eq!(design.distributed().controllers().len(), 3);
/// # Ok::<(), tauhls_core::SynthesisError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Synthesis {
    dfg: Dfg,
    allocation: Allocation,
    timing: Timing,
    strategy: BindStrategy,
    build_centralized: bool,
}

/// Errors from [`Synthesis::run`].
#[derive(Clone, Debug, PartialEq)]
pub enum SynthesisError {
    /// The request is malformed before any pass can run (empty graph,
    /// self-contradictory configuration).
    InvalidConfig(String),
    /// The allocation lacks a unit for a used operation class.
    InsufficientAllocation,
    /// The explicit binding was rejected.
    Binding(tauhls_sched::BindError),
    /// A controller is wider than logic synthesis can represent: its
    /// state bits plus inputs exceed the cover variable limit.
    TooLarge {
        /// The controller, by name.
        what: String,
        /// The most variables a cover can hold.
        limit: usize,
        /// The variables the controller needs.
        got: usize,
    },
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::InvalidConfig(why) => write!(f, "invalid synthesis request: {why}"),
            SynthesisError::InsufficientAllocation => {
                write!(f, "allocation lacks a unit for a used operation class")
            }
            SynthesisError::Binding(e) => write!(f, "binding rejected: {e}"),
            SynthesisError::TooLarge { what, limit, got } => write!(
                f,
                "{what} is too large to synthesize: {got} state bits and inputs, limit {limit}"
            ),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl Synthesis {
    /// Starts a synthesis run for the given graph with the paper's default
    /// timing and an empty allocation (set one with
    /// [`Synthesis::allocation`]).
    pub fn new(dfg: Dfg) -> Self {
        Synthesis {
            dfg,
            allocation: Allocation::new(),
            timing: Timing::default(),
            strategy: BindStrategy::LeftEdge,
            build_centralized: false,
        }
    }

    /// Sets the resource allocation.
    pub fn allocation(mut self, alloc: Allocation) -> Self {
        self.allocation = alloc;
        self
    }

    /// Overrides the timing parameters.
    pub fn timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Selects the binding strategy (left-edge by default).
    pub fn strategy(mut self, strategy: BindStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Forces an explicit per-unit binding (paper-figure reproduction).
    pub fn explicit_binding(mut self, sequences: Vec<Vec<tauhls_dfg::OpId>>) -> Self {
        self.strategy = BindStrategy::Explicit(sequences);
        self
    }

    /// Also build the centralized product FSM (CENT-FSM). Off by default —
    /// its state count grows exponentially with concurrent TAUs.
    pub fn with_centralized(mut self) -> Self {
        self.build_centralized = true;
        self
    }

    /// Runs scheduling, binding, and controller generation.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] if the allocation cannot execute the
    /// graph or an explicit binding is inconsistent.
    pub fn run(self) -> Result<Design, SynthesisError> {
        self.run_traced().map(|(design, _)| design)
    }

    /// Like [`Synthesis::run`], returning the [`PipelineTrace`] alongside
    /// the design: the artifact-hash chain plus per-stage wall times.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] if the allocation cannot execute the
    /// graph or an explicit binding is inconsistent.
    pub fn run_traced(self) -> Result<(Design, PipelineTrace), SynthesisError> {
        let mut trace = PipelineTrace::default();
        let input = SynthesisInput {
            dfg: self.dfg,
            allocation: self.allocation,
            strategy: self.strategy,
        };
        let controls = stages::run_front(&input, self.build_centralized, None, &mut trace)?;
        Ok((
            Design {
                controls,
                timing: self.timing,
            },
            trace,
        ))
    }
}

/// A fully synthesized design: binding plus all generated controllers.
#[derive(Clone, Debug)]
pub struct Design {
    controls: Arc<ControlUnits>,
    timing: Timing,
}

impl Design {
    /// The scheduled-and-bound DFG.
    pub fn bound(&self) -> &BoundDfg {
        self.controls.design().bound()
    }

    /// The distributed control unit (the paper's proposal).
    pub fn distributed(&self) -> &DistributedControlUnit {
        self.controls.distributed()
    }

    /// The synchronized centralized controller (CENT-SYNC / TAUBM style).
    pub fn cent_sync(&self) -> &Fsm {
        self.controls.cent_sync()
    }

    /// The centralized product FSM, if requested via
    /// [`Synthesis::with_centralized`].
    pub fn centralized(&self) -> Option<&Fsm> {
        self.controls.centralized()
    }

    /// The timing parameters.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Synthesizes one distributed controller to gates.
    ///
    /// # Panics
    ///
    /// Panics if the unit has no controller.
    pub fn synthesize_controller(
        &self,
        unit: UnitId,
        encoding: Encoding,
        model: &AreaModel,
    ) -> SynthesizedFsm {
        let fsm = self
            .controls
            .distributed()
            .controller(unit)
            .expect("unit has a controller");
        synthesize(fsm, encoding, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::{diffeq, fir3};
    use tauhls_sim::{latency_batch, BatchRunner, ControlStyle};

    #[test]
    fn pipeline_runs_end_to_end() {
        let design = Synthesis::new(diffeq())
            .allocation(Allocation::paper(2, 1, 1))
            .run()
            .unwrap();
        assert_eq!(design.distributed().controllers().len(), 4);
        let dist = [ControlStyle::Distributed];
        let latency =
            |runner: &BatchRunner| latency_batch(design.bound(), &dist, &[0.9], 0, 50, 1, runner);
        let batched = latency(&BatchRunner::new(2)).unwrap();
        assert_eq!(batched[0].best_cycles, 4);
        assert_eq!(batched, latency(&BatchRunner::serial()).unwrap());
    }

    #[test]
    fn insufficient_allocation_rejected() {
        let err = Synthesis::new(diffeq())
            .allocation(Allocation::paper(2, 1, 0))
            .run()
            .unwrap_err();
        assert_eq!(err, SynthesisError::InsufficientAllocation);
    }

    #[test]
    fn zero_multipliers_with_multiply_ops_rejected_without_panic() {
        // fir3 is multiplication-heavy; an allocation with no multiplier
        // must fail as a typed error at entry, not a downstream panic.
        let err = Synthesis::new(fir3())
            .allocation(Allocation::paper(0, 1, 0))
            .run()
            .unwrap_err();
        assert_eq!(err, SynthesisError::InsufficientAllocation);
    }

    #[test]
    fn empty_graph_rejected_as_invalid_config() {
        let empty = tauhls_dfg::DfgBuilder::new("empty").build().unwrap();
        let err = Synthesis::new(empty)
            .allocation(Allocation::paper(1, 1, 1))
            .run()
            .unwrap_err();
        assert!(matches!(err, SynthesisError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn chains_strategy_matches_bind_chains() {
        use crate::stages::BindStrategy;
        let design = Synthesis::new(fir3())
            .allocation(Allocation::paper(2, 1, 0))
            .strategy(BindStrategy::Chains)
            .run()
            .unwrap();
        let direct = tauhls_sched::BoundDfg::bind_chains(&fir3(), &Allocation::paper(2, 1, 0));
        assert_eq!(design.bound().sequences(), direct.sequences());
        assert_eq!(design.bound().schedule_arcs(), direct.schedule_arcs());
    }

    #[test]
    fn traced_run_reports_four_front_stages() {
        let (design, trace) = Synthesis::new(fir3())
            .allocation(Allocation::paper(2, 1, 0))
            .run_traced()
            .unwrap();
        assert_eq!(design.distributed().controllers().len(), 3);
        let stages: Vec<_> = trace.records.iter().map(|r| r.stage).collect();
        assert_eq!(stages, ["canonicalize", "order", "bind", "controllers"]);
        assert!(trace.records.iter().all(|r| !r.cache_hit));
    }

    #[test]
    fn centralized_on_request() {
        let d = Synthesis::new(fir3())
            .allocation(Allocation::paper(2, 1, 0))
            .run()
            .unwrap();
        assert!(d.centralized().is_none());
        let d = Synthesis::new(fir3())
            .allocation(Allocation::paper(2, 1, 0))
            .with_centralized()
            .run()
            .unwrap();
        let c = d.centralized().unwrap();
        c.check().unwrap();
        assert!(c.num_states() > d.cent_sync().num_states());
    }

    #[test]
    fn timing_defaults_match_paper() {
        let t = Timing::default();
        assert_eq!(t.clock_ns(), 15.0);
        assert_eq!(t.ld_ns, 20.0);
    }
}
