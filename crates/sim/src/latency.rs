//! Latency statistics: best / average / worst summaries in cycles and
//! nanoseconds, in the format of the paper's Table 2.

use crate::cent::CENT_FSM_NAME;
use crate::centsync::run_cent_sync;
use crate::distributed::run_single_iter;
use crate::elastic::run_elastic;
use crate::error::SimError;
use crate::fault::SimConfig;
use crate::kernel::{ClockFabric, DiagMode, ElasticSpec};
use crate::model::CompletionModel;
use crate::result::SimResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::BoundDfg;

/// Best / average(s) / worst latency summary for one controller style.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    /// Best-case cycles (every TAU short).
    pub best_cycles: usize,
    /// Mean cycles per swept `P` value, in sweep order.
    pub average_cycles: Vec<f64>,
    /// Worst-case cycles (every TAU long).
    pub worst_cycles: usize,
    /// The swept `P` values.
    pub p_values: Vec<f64>,
}

impl LatencySummary {
    /// Renders the paper's `[best][avg...][worst]` cell in nanoseconds.
    pub fn to_ns_string(&self, clock_ns: f64) -> String {
        let avgs: Vec<String> = self
            .average_cycles
            .iter()
            .map(|c| format!("{:.1}", c * clock_ns))
            .collect();
        format!(
            "[{:.0}][{}][{:.0}]",
            self.best_cycles as f64 * clock_ns,
            avgs.join(", "),
            self.worst_cycles as f64 * clock_ns
        )
    }
}

/// Controller styles the latency harness can evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlStyle {
    /// The distributed control unit (paper's proposal, `LT_DIST`).
    Distributed,
    /// The centralized product controller tracking each TAU independently
    /// (`LT_CENT`; same latency as `LT_DIST` by bisimulation).
    Cent,
    /// The synchronized centralized TAUBM controller (`LT_TAU`).
    CentSync,
    /// The distributed control unit under elastic (GALS) clocking: local
    /// per-controller clocks with bounded skew and handshake-latched
    /// cross-domain completion transfer (`LT_ELAS`).
    Elastic(ElasticSpec),
}

/// A set of controller styles, with the one name↔style mapping every
/// front end (CLI flags, JobSpec parsing, table renderers) shares — so
/// adding a style is a one-site change.
///
/// Canonical names, in canonical order: `tau` (CENT-SYNC), `dist`,
/// `cent`, `elastic`. Parsing accepts the aliases listed on
/// [`ControlStyleSet::parse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControlStyleSet {
    bits: u8,
}

impl ControlStyleSet {
    /// The synchronized TAUBM style (`LT_TAU`).
    pub const TAU: ControlStyleSet = ControlStyleSet { bits: 1 };
    /// The distributed style (`LT_DIST`).
    pub const DIST: ControlStyleSet = ControlStyleSet { bits: 2 };
    /// The centralized product style (`LT_CENT`).
    pub const CENT: ControlStyleSet = ControlStyleSet { bits: 4 };
    /// The elastic (GALS) style (`LT_ELAS`).
    pub const ELASTIC: ControlStyleSet = ControlStyleSet { bits: 8 };

    /// The empty set.
    pub fn empty() -> Self {
        ControlStyleSet { bits: 0 }
    }

    /// Every style.
    pub fn all() -> Self {
        Self::TAU | Self::DIST | Self::CENT | Self::ELASTIC
    }

    /// True when every member of `other` is in `self`.
    pub fn contains(self, other: ControlStyleSet) -> bool {
        self.bits & other.bits == other.bits
    }

    /// True when no style is in the set.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// The flag a [`ControlStyle`] value belongs to.
    pub fn of(style: ControlStyle) -> Self {
        match style {
            ControlStyle::CentSync => Self::TAU,
            ControlStyle::Distributed => Self::DIST,
            ControlStyle::Cent => Self::CENT,
            ControlStyle::Elastic(_) => Self::ELASTIC,
        }
    }

    /// Parses one style name. Accepted (case-insensitive): `tau`,
    /// `cent_sync`, `centsync`, `sync` → TAU; `dist`, `distributed` →
    /// DIST; `cent`, `centralized` → CENT; `elastic`, `gals` → ELASTIC.
    pub fn parse_one(name: &str) -> Result<ControlStyleSet, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "tau" | "cent_sync" | "centsync" | "sync" => Ok(Self::TAU),
            "dist" | "distributed" => Ok(Self::DIST),
            "cent" | "centralized" => Ok(Self::CENT),
            "elastic" | "gals" => Ok(Self::ELASTIC),
            other => Err(format!(
                "unknown control style '{other}' (expected tau|dist|cent|elastic)"
            )),
        }
    }

    /// Parses a comma-separated style list (e.g. `dist,cent,elastic`).
    /// Rejects empty lists and unknown names.
    pub fn parse(list: &str) -> Result<ControlStyleSet, String> {
        let mut set = Self::empty();
        for name in list.split(',').filter(|s| !s.trim().is_empty()) {
            set = set | Self::parse_one(name)?;
        }
        if set.is_empty() {
            return Err("empty control-style list (expected tau|dist|cent|elastic)".to_string());
        }
        Ok(set)
    }

    /// The canonical names of the members, in canonical order.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (flag, name) in [
            (Self::TAU, "tau"),
            (Self::DIST, "dist"),
            (Self::CENT, "cent"),
            (Self::ELASTIC, "elastic"),
        ] {
            if self.contains(flag) {
                out.push(name);
            }
        }
        out
    }
}

impl std::ops::BitOr for ControlStyleSet {
    type Output = ControlStyleSet;
    fn bitor(self, rhs: ControlStyleSet) -> ControlStyleSet {
        ControlStyleSet {
            bits: self.bits | rhs.bits,
        }
    }
}

/// The generated machinery one [`ControlStyle`] needs, built once and
/// reused across trials.
///
/// This is the crate's per-style dispatch and its only public way to run
/// one style: it builds a style's controllers, runs one scalar trial
/// ([`Engine::run_scalar`], the oracle every sliced result is checked
/// against) and measures the best/worst envelope. The
/// [`SlabDriver`](crate::SlabDriver) and
/// [`SlicedSim::new`](crate::SlicedSim::new) add the style's sliced
/// handling. A caller with its own controllers (multi-level TAUs, say)
/// builds the variant directly, e.g. `Engine::Dist(cu)`.
pub enum Engine {
    /// DIST: the distributed controller bank.
    Dist(DistributedControlUnit),
    /// CENT: the DIST bank, diagnosed as one composite controller.
    Cent(DistributedControlUnit),
    /// CENT-SYNC: the synchronized TAUBM step walk (no FSMs).
    Sync,
    /// ELASTIC: the DIST bank under per-domain clocking.
    Elastic(DistributedControlUnit, ElasticSpec),
}

impl Engine {
    /// Generates the controllers `style` steps on `bound`.
    pub fn generate(bound: &BoundDfg, style: ControlStyle) -> Self {
        match style {
            ControlStyle::Distributed => Engine::Dist(DistributedControlUnit::generate(bound)),
            ControlStyle::Cent => Engine::Cent(DistributedControlUnit::generate(bound)),
            ControlStyle::CentSync => Engine::Sync,
            ControlStyle::Elastic(spec) => {
                Engine::Elastic(DistributedControlUnit::generate(bound), spec)
            }
        }
    }

    /// The distributed controller bank the style steps: CENT steps DIST's
    /// bank, and ELASTIC clocks the same bank per domain. `None` for
    /// CENT-SYNC, which needs no FSMs.
    pub fn dist_bank(&self) -> Option<&DistributedControlUnit> {
        match self {
            Engine::Dist(cu) | Engine::Cent(cu) | Engine::Elastic(cu, _) => Some(cu),
            Engine::Sync => None,
        }
    }

    /// Whether this style reads the same sliced lanes as `other`: DIST and
    /// CENT share one DIST run (bisimulation), ELASTIC styles share a run
    /// when their specs agree.
    pub(crate) fn shares_lanes(&self, other: &Engine) -> bool {
        match (self, other) {
            (Engine::Sync, Engine::Sync) => true,
            (Engine::Dist(_) | Engine::Cent(_), Engine::Dist(_) | Engine::Cent(_)) => true,
            (Engine::Elastic(_, a), Engine::Elastic(_, b)) => a == b,
            _ => false,
        }
    }

    /// How the style labels its diagnostics: CENT names one composite
    /// [`CENT_FSM_NAME`] controller, every other style its unit
    /// controllers.
    pub(crate) fn diag_mode(&self) -> DiagMode {
        match self {
            Engine::Cent(_) => DiagMode::Composite(CENT_FSM_NAME),
            _ => DiagMode::PerUnit,
        }
    }

    /// The ELASTIC clocking spec, `None` for the synchronous styles.
    pub(crate) fn elastic_spec(&self) -> Option<ElasticSpec> {
        match self {
            Engine::Elastic(_, spec) => Some(*spec),
            _ => None,
        }
    }

    /// Runs one iteration of `bound` as one scalar trial under `config`.
    ///
    /// `inputs` are the DFG's primary input values (zeros when `None`),
    /// used for the reference results and operand-driven completion. Only
    /// ELASTIC reads `skew_seed` (its per-trial clock schedule); it never
    /// draws the schedule from `rng`, so every style consumes the same RNG
    /// stream. Faults are applied after every completion-model draw, so an
    /// empty plan reproduces the fault-free run bit for bit. CENT returns
    /// DIST's results (bisimulation); only its diagnostics differ, naming
    /// one composite [`CENT_FSM_NAME`] controller.
    pub fn run_scalar(
        &self,
        bound: &BoundDfg,
        model: &CompletionModel,
        inputs: Option<&[i64]>,
        rng: &mut impl Rng,
        config: &SimConfig,
        skew_seed: u64,
    ) -> Result<SimResult, SimError> {
        let n = bound.dfg().num_ops();
        let cu = match self {
            Engine::Dist(cu) | Engine::Cent(cu) => cu,
            Engine::Sync => return run_cent_sync(bound, model, inputs, rng, config),
            Engine::Elastic(cu, spec) => {
                let clock = ClockFabric::elastic(n, *spec, skew_seed);
                return run_elastic(bound, cu, model, inputs, rng, config, clock);
            }
        };
        // DIST and CENT: the single-iteration body on plain hooks.
        let (diag, budget) = (self.diag_mode(), config.budget(n, 1));
        run_single_iter(bound, cu, model, inputs, rng, config, diag, budget, |h| h)
    }

    /// Best/worst cycles from the deterministic completion extremes.
    /// ELASTIC additionally pins the schedule-space extremes (the
    /// stall-free floor for best, the saturated ceiling for worst), so its
    /// envelope brackets the averages whatever skew seeds the trials draw.
    pub(crate) fn envelope(&self, bound: &BoundDfg) -> Result<(usize, usize), SimError> {
        let fault_free = SimConfig::default();
        // The deterministic models draw nothing, so any RNG will do.
        let mut rng = StdRng::seed_from_u64(0);
        let (short, long) = (CompletionModel::AlwaysShort, CompletionModel::AlwaysLong);
        Ok(match self {
            Engine::Elastic(cu, spec) => {
                let n = bound.dfg().num_ops();
                let stall_free = ElasticSpec {
                    skew_bound: 0,
                    ..*spec
                };
                let floor = ClockFabric::elastic(n, stall_free, 0);
                let ceiling = ClockFabric::elastic_saturated(n, *spec);
                let mut run = |model, clock| {
                    run_elastic(bound, cu, model, None, &mut rng, &fault_free, clock)
                };
                (run(&short, floor)?.cycles, run(&long, ceiling)?.cycles)
            }
            _ => {
                let mut run = |model| self.run_scalar(bound, model, None, &mut rng, &fault_free, 0);
                (run(&short)?.cycles, run(&long)?.cycles)
            }
        })
    }

    /// Debug-checks the orderings coupled fault-free trials guarantee,
    /// between whichever styles measured the trial: DIST never loses to
    /// CENT-SYNC, CENT equals DIST (bisimulation), and ELASTIC never beats
    /// DIST. `results[k]` is style `k`'s result on one trial.
    pub(crate) fn debug_check_coupled(
        engines: &[Engine],
        results: &[Result<&SimResult, &SimError>],
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let measured = || {
            engines
                .iter()
                .zip(results)
                .filter_map(|(e, r)| Some((e, r.ok()?.cycles)))
        };
        let Some(d) = measured().find_map(|(e, c)| matches!(e, Engine::Dist(_)).then_some(c))
        else {
            return;
        };
        for (engine, c) in measured() {
            match engine {
                Engine::Sync => {
                    debug_assert!(d <= c, "distributed lost a coupled trial: {d} > {c}")
                }
                Engine::Cent(_) => {
                    debug_assert_eq!(c, d, "CENT diverged from DIST on a coupled trial")
                }
                Engine::Elastic(..) => {
                    debug_assert!(d <= c, "elastic beat dist on a coupled trial: {c} < {d}")
                }
                Engine::Dist(_) => {}
            }
        }
    }
}

/// Percentage improvement of `dist` over `sync` per swept `P`
/// (the paper's "Performance Enhancement" column).
pub fn enhancement_percent(sync: &LatencySummary, dist: &LatencySummary) -> Vec<f64> {
    sync.average_cycles
        .iter()
        .zip(&dist.average_cycles)
        .map(|(s, d)| (s - d) / s * 100.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::fir5;
    use tauhls_sched::Allocation;

    #[test]
    fn style_set_parses_aliases_and_renders_canonical_names() {
        let set = ControlStyleSet::parse("dist,cent,elastic").unwrap();
        assert!(set.contains(ControlStyleSet::DIST));
        assert!(set.contains(ControlStyleSet::CENT));
        assert!(set.contains(ControlStyleSet::ELASTIC));
        assert!(!set.contains(ControlStyleSet::TAU));
        assert_eq!(set.names(), vec!["dist", "cent", "elastic"]);
        // Aliases, case-insensitivity, spacing.
        assert_eq!(
            ControlStyleSet::parse("CentSync, Distributed").unwrap(),
            ControlStyleSet::TAU | ControlStyleSet::DIST
        );
        assert_eq!(
            ControlStyleSet::parse("gals").unwrap(),
            ControlStyleSet::ELASTIC
        );
        assert_eq!(ControlStyleSet::all().names().len(), 4);
        // Unknown names and empty lists are rejected.
        assert!(ControlStyleSet::parse("dist,bogus").is_err());
        assert!(ControlStyleSet::parse("").is_err());
        assert!(ControlStyleSet::parse(" , ").is_err());
        // Style-value mapping covers the elastic variant.
        assert_eq!(
            ControlStyleSet::of(ControlStyle::Elastic(ElasticSpec::default())),
            ControlStyleSet::ELASTIC
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "distributed lost a coupled trial")]
    fn coupled_check_catches_dist_losing_to_sync() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let engines = [
            Engine::Sync,
            Engine::generate(&bound, ControlStyle::Distributed),
        ];
        let cycles = |cycles| SimResult {
            cycles,
            completion_cycle: Vec::new(),
            start_cycle: Vec::new(),
            unit_busy_cycles: Vec::new(),
            values: Vec::new(),
        };
        let (sync, dist) = (cycles(3), cycles(4));
        Engine::debug_check_coupled(&engines, &[Ok(&sync), Ok(&dist)]);
    }

    #[test]
    fn ns_rendering() {
        let s = LatencySummary {
            best_cycles: 3,
            average_cycles: vec![3.29, 3.81],
            worst_cycles: 5,
            p_values: vec![0.9, 0.5],
        };
        assert_eq!(s.to_ns_string(15.0), "[45][49.4, 57.1][75]");
    }
}
