//! Canonical job specifications shared by the CLI and the simulation
//! service.
//!
//! A [`JobSpec`] is the validated, fully-materialized form of a request
//! against one of the service endpoints (`simulate`, `table2`,
//! `resilience`, `synth`, `area`, `explore`). [`JobSpec::from_json`] is
//! the one parser, defaulter and validator: the service decodes request
//! bodies with it and the `tauhls` CLI translates its flags into the same
//! JSON, so both front ends accept exactly the same jobs. Parsing is
//! strict — unknown keys, duplicate keys, wrong types, and out-of-range
//! values are all rejected with one-line messages — and every optional
//! field is materialized to its default, so two
//! requests that mean the same job normalize to the same
//! [`JobSpec::canonical`] rendering regardless of field order, omitted
//! defaults, or numeric spelling (`[1]` vs `[1.0]`). That rendering,
//! serialized compactly, is the content-addressed [`JobSpec::cache_key`]:
//! equal keys imply byte-identical responses, because the batch engine is
//! bit-deterministic in `(spec, seed)`.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use tauhls_dfg::{benchmarks, dfg_to_wire, parse_wire_dfg, Dfg, DfgRegistry};
use tauhls_fsm::Encoding;
use tauhls_json::{Json, JsonRef};
use tauhls_logic::AreaModel;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    enhancement_percent, latency_batch, BatchRunner, ControlStyle, ControlStyleSet, ElasticSpec,
    LatencySummary, SimError,
};

use crate::explore::{SweepError, SweepParams};
use crate::partition::{self, Part};
use crate::resilience::{
    resilience_kind_counters_with, KindCounters, ResilienceOptions, FAULT_KINDS,
};
use crate::stages::{
    self, BindStrategy, PipelineTrace, Reports, StageCache, StageRecord, SynthesisInput,
    SynthesizedLogic,
};
use crate::SynthesisError;

/// Upper bound on Monte-Carlo trials a single job may request.
pub const MAX_TRIALS: u64 = 1_000_000;
/// Upper bound on the number of `P` values in one sweep.
pub const MAX_P_VALUES: usize = 16;
/// Upper bound on the byte length of an inline DFG description.
pub const MAX_DFG_TEXT: usize = 64 * 1024;
/// Upper bound on any one unit count (`muls`/`adds`/`subs`).
pub const MAX_UNITS: usize = 64;
/// Upper bound on the datapath width of an area estimate.
pub const MAX_WIDTH: u64 = 128;
/// Upper bound on a per-class unit maximum in an explore sweep.
pub const MAX_EXPLORE_UNITS: usize = 8;
/// Upper bound on the elastic skew bound and handshake latency a job may
/// request (the watchdog budget scales linearly with both).
pub const MAX_SKEW: u64 = 16;
/// Upper bound on swept SD/LD clock ratios in one explore job.
pub const MAX_RATIOS: usize = 8;
/// Upper bound on the full explore grid (allocations × encodings × `P`
/// values × ratios), enforced at parse time so a spec that parses is
/// guaranteed to finish in bounded work.
pub const MAX_EXPLORE_POINTS: usize = 4096;

/// The benchmark DFGs a job may name, in registry order (the canonical
/// [`benchmarks::NAMES`] registry).
pub const BENCHMARKS: [&str; 7] = benchmarks::NAMES;

/// The service endpoints a [`JobSpec`] can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// One DFG, three controller styles, a `P` sweep.
    Simulate,
    /// The paper's Table 2 over the built-in benchmark suite.
    Table2,
    /// Fault-injection sweep over every fault kind.
    Resilience,
    /// Staged controller synthesis: artifact-hash chain plus per-unit
    /// controller logic.
    Synth,
    /// Table-1-style controller area rows plus the full-system estimate.
    Area,
    /// Design-space exploration: allocation × encoding × SD/LD ratio ×
    /// completion probability, with the latency/area Pareto frontier.
    Explore,
}

/// One job kind: its endpoint, its name, the fields its spec takes and
/// which of them hold a list.
#[derive(Clone, Copy, Debug)]
pub struct Kind {
    /// The endpoint.
    pub endpoint: Endpoint,
    /// The path segment (`simulate` in `POST /v1/simulate`), also the
    /// `endpoint` of the canonical rendering.
    pub name: &'static str,
    /// The fields the spec takes, in the order its canonical rendering
    /// writes them; a spec gives at most one of `dfg` and `dfg_text`.
    pub fields: &'static [&'static str],
    /// The fields whose value is an array of swept values.
    pub lists: &'static [&'static str],
}

/// Every job kind, in [`Endpoint`] order. The service's routes and
/// metrics labels and the CLI's endpoint names and list flags read it.
pub const KINDS: [Kind; 6] = [
    Kind {
        endpoint: Endpoint::Simulate,
        name: "simulate",
        fields: &[
            "dfg",
            "dfg_text",
            "muls",
            "adds",
            "subs",
            "binding",
            "p",
            "trials",
            "seed",
            "skew",
            "sync_latency",
        ],
        lists: &["p"],
    },
    Kind {
        endpoint: Endpoint::Table2,
        name: "table2",
        fields: &["trials", "seed"],
        lists: &[],
    },
    Kind {
        endpoint: Endpoint::Resilience,
        name: "resilience",
        fields: &[
            "dfg",
            "dfg_text",
            "muls",
            "adds",
            "subs",
            "binding",
            "p",
            "trials",
            "seed",
            "styles",
            "skew",
            "sync_latency",
        ],
        lists: &[],
    },
    Kind {
        endpoint: Endpoint::Synth,
        name: "synth",
        fields: &[
            "dfg", "dfg_text", "muls", "adds", "subs", "binding", "encoding",
        ],
        lists: &[],
    },
    Kind {
        endpoint: Endpoint::Area,
        name: "area",
        fields: &[
            "dfg", "dfg_text", "muls", "adds", "subs", "binding", "encoding", "width",
        ],
        lists: &[],
    },
    Kind {
        endpoint: Endpoint::Explore,
        name: "explore",
        fields: &[
            "dfg",
            "dfg_text",
            "max_muls",
            "max_adds",
            "max_subs",
            "encodings",
            "p",
            "sd_ld",
            "skew",
            "trials",
            "width",
            "seed",
        ],
        lists: &["encodings", "p", "sd_ld", "skew"],
    },
];

// `Endpoint::kind` indexes `KINDS` by discriminant.
const _: () = {
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i].endpoint as usize == i);
        i += 1;
    }
};

impl Endpoint {
    /// The endpoint's row of [`KINDS`].
    pub fn kind(self) -> Kind {
        KINDS[self as usize]
    }

    /// The endpoint's path segment (`simulate` in `POST /v1/simulate`).
    pub fn as_str(self) -> &'static str {
        self.kind().name
    }

    /// Parses a path segment back into an endpoint.
    pub fn parse(s: &str) -> Option<Endpoint> {
        KINDS.iter().find(|k| k.name == s).map(|k| k.endpoint)
    }
}

pub(crate) fn encoding_name(encoding: Encoding) -> &'static str {
    match encoding {
        Encoding::Binary => "binary",
        Encoding::Gray => "gray",
        Encoding::OneHot => "onehot",
    }
}

pub(crate) fn parse_encoding(s: &str) -> Option<Encoding> {
    Some(match s {
        "binary" => Encoding::Binary,
        "gray" => Encoding::Gray,
        "onehot" => Encoding::OneHot,
        _ => return None,
    })
}

pub use tauhls_dfg::DfgSource;

/// A spec's canonical rendering: the endpoint it was read for, and every
/// field as its [`Fields`] reader accepted it, in read order, after the
/// `endpoint` name. It is written once, at parse time, so rendering a spec
/// never re-parses its graph.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Canonical(Endpoint, Json);

// Every float a reader accepts lies in a closed range, so none is NaN.
impl Eq for Canonical {}

/// A spec's graph as [`Fields::dfg`] reads it, before admission.
struct ReadDfg {
    source: DfgSource,
    graph: Dfg,
}

impl ReadDfg {
    /// The one admission check every synthesis-side spec passes: the
    /// graph must have operations and `alloc` must cover it. A spec runs
    /// it after reading all its other fields and holds what it returns,
    /// so a spec that parses is guaranteed to synthesize, simulate and
    /// fault-sweep, and its run binds the held graph once without
    /// resolving it again. Nothing binds here.
    fn admit(self, alloc: &Allocation) -> Result<(DfgSource, Arc<Dfg>), String> {
        if self.graph.num_ops() == 0 {
            return Err(format!("graph '{}' has no operations", self.graph.name()));
        }
        if !alloc.covers(&self.graph) {
            return Err("allocation lacks a unit for a used operation class".to_string());
        }
        Ok((self.source, Arc::new(self.graph)))
    }
}

/// Binds `graph` under the paper allocation of `muls`/`adds`/`subs` —
/// chain cover when `chains`, left-edge otherwise: the one bind a
/// simulation or fault-sweep run makes, on the graph its spec holds.
fn bind(graph: &Dfg, muls: usize, adds: usize, subs: usize, chains: bool) -> BoundDfg {
    let alloc = Allocation::paper(muls, adds, subs);
    if chains {
        BoundDfg::bind_chains(graph, &alloc)
    } else {
        BoundDfg::bind(graph, &alloc)
    }
}

/// Validated spec for `POST /v1/simulate`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulateSpec {
    /// The graph to bind and simulate.
    pub dfg: DfgSource,
    /// Telescopic multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// `true` → chain binding, `false` → left-edge (the default).
    pub chains: bool,
    /// Short-completion probabilities to sweep.
    pub p_values: Vec<f64>,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Base RNG seed (part of the cache key: same spec, same bytes).
    pub seed: u64,
    /// Clock-domain parameters of the `LT_ELAS` leg.
    pub elastic: ElasticSpec,
    /// `dfg`, resolved and admitted at parse time.
    pub(crate) graph: Arc<Dfg>,
    /// The canonical rendering.
    pub(crate) canonical: Canonical,
}

/// The latency legs in column order: each leg's key (`lt_tau` is the
/// `LT_TAU` column), its description and the controller style it
/// measures (ELASTIC at the given clock domains). The `/v1/simulate`
/// body, cluster partitions and their merge, Table 2 and the CLI
/// `simulate` printout all walk this table, so a new style is one row
/// here. The first two legs feed [`legs_enhancement`].
pub const SIMULATE_LEGS: [(&str, &str, LegStyle); 4] = [
    ("lt_tau", "synchronized", |_| ControlStyle::CentSync),
    ("lt_dist", "distributed", |_| ControlStyle::Distributed),
    ("lt_cent", "centralized", |_| ControlStyle::Cent),
    ("lt_elas", "elastic", ControlStyle::Elastic),
];

/// A leg's controller style, given the elastic parameters.
pub type LegStyle = fn(ElasticSpec) -> ControlStyle;

/// The [`SIMULATE_LEGS`] styles in table order, ELASTIC at `elastic`.
pub fn leg_styles(elastic: ElasticSpec) -> Vec<ControlStyle> {
    SIMULATE_LEGS
        .iter()
        .map(|(_, _, style)| style(elastic))
        .collect()
}

/// The paper's enhancement column, `LT_DIST` over `LT_TAU` per swept
/// `P`, from summaries in [`SIMULATE_LEGS`] order; empty without both.
pub fn legs_enhancement(legs: &[LatencySummary]) -> Vec<f64> {
    match legs {
        [tau, dist, ..] => enhancement_percent(tau, dist),
        _ => Vec::new(),
    }
}

impl SimulateSpec {
    /// Measures every [`SIMULATE_LEGS`] style on coupled trials over
    /// `p_values[range]`, each `P` seeded by its global index, so any
    /// partition of the sweep reproduces the whole run's numbers.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for a range beyond `p_values` or a sweep the
    /// batch engine rejects, [`JobError::Cancelled`] if `runner` was
    /// cancelled, and [`JobError::Failed`] for a failed simulation.
    pub fn measure_legs(
        &self,
        range: std::ops::Range<usize>,
        runner: &BatchRunner,
    ) -> Result<Vec<LatencySummary>, JobError> {
        let p_values = self
            .p_values
            .get(range.clone())
            .ok_or_else(|| JobError::Invalid("slice beyond p_values".to_string()))?;
        latency_batch(
            &bind(&self.graph, self.muls, self.adds, self.subs, self.chains),
            &leg_styles(self.elastic),
            p_values,
            range.start as u64,
            self.trials,
            self.seed,
            runner,
        )
        .map_err(JobError::from_sim)
    }
}

/// Validated spec for `POST /v1/table2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table2Spec {
    /// Monte-Carlo trials per benchmark row.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// The canonical rendering.
    pub(crate) canonical: Canonical,
}

/// Validated spec for `POST /v1/resilience`.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceSpec {
    /// The graph to bind and inject faults into.
    pub dfg: DfgSource,
    /// Telescopic multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// `true` → chain binding, `false` → left-edge (the default).
    pub chains: bool,
    /// Short-completion probability of the completion draws.
    pub p: f64,
    /// Trials per fault kind.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Engine legs to run; always contains the distributed leg.
    pub styles: ControlStyleSet,
    /// Clock-domain parameters of the elastic leg.
    pub elastic: ElasticSpec,
    /// `dfg`, resolved and admitted at parse time.
    pub(crate) graph: Arc<Dfg>,
    /// The canonical rendering.
    pub(crate) canonical: Canonical,
}

impl ResilienceSpec {
    /// The sweep options this spec describes — shared by whole-job
    /// execution and distributed partitions, so both run the same legs.
    pub fn options(&self) -> ResilienceOptions {
        ResilienceOptions {
            styles: self.styles,
            elastic: self.elastic,
        }
    }

    /// The raw counters of the [`FAULT_KINDS`] in `kinds`, each seeded by
    /// its global index, so any partition of the kinds reproduces the
    /// whole sweep's counters.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for a range beyond [`FAULT_KINDS`];
    /// [`JobError::Cancelled`] if `runner` was cancelled.
    pub(crate) fn kind_counters(
        &self,
        kinds: std::ops::Range<usize>,
        runner: &BatchRunner,
    ) -> Result<Vec<KindCounters>, JobError> {
        if kinds.end > FAULT_KINDS.len() {
            return Err(JobError::Invalid("slice beyond fault kinds".to_string()));
        }
        let counters = resilience_kind_counters_with(
            &bind(&self.graph, self.muls, self.adds, self.subs, self.chains),
            self.p,
            self.trials,
            self.seed,
            kinds,
            &self.options(),
            runner,
        );
        // The sweep folds whatever chunks ran; surface a cancellation
        // instead of returning (and caching) partial counters.
        runner.check_cancelled().map_err(JobError::from_sim)?;
        Ok(counters)
    }
}

/// Validated spec for `POST /v1/synth`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthSpec {
    /// The graph to synthesize controllers for.
    pub dfg: DfgSource,
    /// Telescopic multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// `true` → chain binding, `false` → left-edge (the default).
    pub chains: bool,
    /// The state encoding for logic synthesis.
    pub encoding: Encoding,
    /// `dfg`, resolved and admitted at parse time.
    pub(crate) graph: Arc<Dfg>,
    /// The canonical rendering (inside an [`AreaSpec`], the area spec's).
    pub(crate) canonical: Canonical,
}

impl SynthSpec {
    /// The staged-pipeline input this spec names.
    pub fn input(&self) -> SynthesisInput {
        SynthesisInput {
            dfg: Dfg::clone(&self.graph),
            allocation: Allocation::paper(self.muls, self.adds, self.subs),
            strategy: if self.chains {
                BindStrategy::Chains
            } else {
                BindStrategy::LeftEdge
            },
        }
    }

    /// Runs the six-stage pipeline under this spec's encoding: the `logic`
    /// artifact, the area report and the trace of the stages that ran.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for a design the pipeline rejects.
    pub fn synthesize(
        &self,
        stage_cache: Option<&StageCache>,
    ) -> Result<(Arc<SynthesizedLogic>, Arc<Reports>, PipelineTrace), JobError> {
        let mut trace = PipelineTrace::default();
        let (logic, reports) = stages::run_full(
            &self.input(),
            false,
            self.encoding,
            &AreaModel::default(),
            stage_cache,
            &mut trace,
        )
        .map_err(JobError::from_synthesis)?;
        Ok((logic, reports, trace))
    }
}

/// Validated spec for `POST /v1/area`: a synthesis spec plus the datapath
/// width of the system estimate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AreaSpec {
    /// The synthesis the estimate reads.
    pub synth: SynthSpec,
    /// Datapath operand width of the system estimate.
    pub width: u32,
}

/// Validated spec for `POST /v1/dfg/explore` (also reachable as
/// `POST /v1/explore`): sweep the allocation space of a graph crossed
/// with state encodings, SD/LD clock ratios, and short-completion
/// probabilities, and report the latency/area Pareto frontier.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreSpec {
    /// The graph whose design space is swept.
    pub dfg: DfgSource,
    /// Highest telescopic-multiplier count to consider.
    pub max_muls: usize,
    /// Highest adder count.
    pub max_adds: usize,
    /// Highest subtractor count.
    pub max_subs: usize,
    /// State encodings to sweep in the area estimate.
    pub encodings: Vec<Encoding>,
    /// Short-completion probabilities to sweep.
    pub p_values: Vec<f64>,
    /// SD/LD clock-period ratios to sweep; each in `[0.5, 1]` so a long
    /// operation still fits in at most two short cycles.
    pub sd_ld: Vec<f64>,
    /// Elastic skew bounds to sweep; `0` measures the synchronous
    /// distributed controllers, `s > 0` the elastic (GALS) controllers.
    pub skew: Vec<u64>,
    /// Monte-Carlo trials per allocation point.
    pub trials: u64,
    /// Datapath width for the area model.
    pub width: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// `dfg`, resolved and admitted at parse time.
    pub(crate) graph: Arc<Dfg>,
    /// The canonical rendering.
    pub(crate) canonical: Canonical,
}

impl ExploreSpec {
    /// The [`SweepParams`] this spec describes — the single source of
    /// truth shared by whole-job execution and distributed partitions, so
    /// both enumerate and seed the identical grid.
    pub fn sweep_params(&self) -> SweepParams {
        SweepParams {
            max_muls: self.max_muls,
            max_adds: self.max_adds,
            max_subs: self.max_subs,
            encodings: self.encodings.clone(),
            p_values: self.p_values.clone(),
            sd_ld: self.sd_ld.clone(),
            skew: self.skew.clone(),
            trials: self.trials,
            width: self.width,
            seed: self.seed,
        }
    }
}

/// One validated, canonicalized service job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// `POST /v1/simulate`.
    Simulate(SimulateSpec),
    /// `POST /v1/table2`.
    Table2(Table2Spec),
    /// `POST /v1/resilience`.
    Resilience(ResilienceSpec),
    /// `POST /v1/synth`.
    Synth(SynthSpec),
    /// `POST /v1/area`.
    Area(AreaSpec),
    /// `POST /v1/dfg/explore`.
    Explore(ExploreSpec),
}

/// Why a job could not be completed, pre-sorted into HTTP status classes.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The request itself was malformed (HTTP 400).
    Invalid(String),
    /// The job was cancelled before it finished, e.g. during a graceful
    /// drain (HTTP 503); no partial result is produced or cached.
    Cancelled,
    /// The simulation failed abnormally (HTTP 500).
    Failed(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Invalid(m) => write!(f, "invalid job spec: {m}"),
            JobError::Cancelled => write!(f, "job cancelled before completion"),
            JobError::Failed(m) => write!(f, "simulation failed: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    pub(crate) fn from_sim(err: SimError) -> JobError {
        match err {
            SimError::Cancelled => JobError::Cancelled,
            SimError::InvalidConfig(m) => JobError::Invalid(m),
            other => JobError::Failed(other.to_string()),
        }
    }

    pub(crate) fn from_synthesis(err: SynthesisError) -> JobError {
        // Every synthesis failure is a property of the request (bad graph,
        // bad allocation, bad binding), so they all map to HTTP 400.
        JobError::Invalid(err.to_string())
    }

    pub(crate) fn from_sweep(err: SweepError) -> JobError {
        match err {
            SweepError::Sim(err) => JobError::from_sim(err),
            SweepError::Synthesis(err) => JobError::from_synthesis(err),
        }
    }
}

// ---------------------------------------------------------------------------
// Strict field extraction
// ---------------------------------------------------------------------------

/// Strict reader over a parsed JSON object: every key must be one of the
/// kind's fields, no key may repeat, and each extractor enforces its
/// field's type and range. Each extractor also writes the value it
/// accepts, default or given, into the spec's canonical rendering, so the
/// rendering holds a kind's fields in the order its spec reads them.
///
/// Operates on borrowed [`JsonRef`] pairs so the service's hot request
/// path can decode a spec straight out of the request buffer without
/// per-field string allocations; owned [`Json`] documents go through the
/// [`JsonRef::from_owned`] bridge.
struct Fields<'a> {
    pairs: &'a [(Cow<'a, str>, JsonRef<'a>)],
    kind: Kind,
    /// The canonical rendering so far.
    canonical: Vec<(String, Json)>,
}

impl<'a> Fields<'a> {
    fn new(spec: &'a JsonRef<'a>, kind: Kind) -> Result<Fields<'a>, String> {
        let pairs = spec
            .as_object()
            .ok_or_else(|| "job spec must be a JSON object".to_string())?;
        for (i, (key, _)) in pairs.iter().enumerate() {
            if !kind.fields.contains(&key.as_ref()) {
                return Err(format!(
                    "unknown field '{key}' (allowed: {})",
                    kind.fields.join(", ")
                ));
            }
            if pairs[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate field '{key}'"));
            }
        }
        let mut canonical = Vec::with_capacity(kind.fields.len() + 1);
        canonical.push(("endpoint".to_string(), Json::from(kind.name)));
        Ok(Fields {
            pairs,
            kind,
            canonical,
        })
    }

    /// Writes `key`'s canonical `value` and returns `v`. A field the kind
    /// does not take is not written: a `synth` spec reads `width` as its
    /// default but does not carry it.
    fn keep<T>(&mut self, key: &str, value: Json, v: T) -> T {
        if self.kind.fields.contains(&key) {
            self.canonical.push((key.to_string(), value));
        }
        v
    }

    /// The canonical rendering of every field read.
    fn finish(self) -> Canonical {
        Canonical(self.kind.endpoint, Json::Object(self.canonical))
    }

    fn get(&self, key: &str) -> Option<&'a JsonRef<'a>> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64_in(&mut self, key: &str, default: u64, min: u64, max: u64) -> Result<u64, String> {
        let v = match self.get(key) {
            None => default,
            Some(j) => j
                .as_u64()
                .ok_or_else(|| format!("'{key}' must be a non-negative integer"))?,
        };
        if v < min || v > max {
            return Err(format!("'{key}' must be in {min}..={max}, got {v}"));
        }
        Ok(self.keep(key, Json::from(v), v))
    }

    fn usize_in(&mut self, key: &str, default: usize, max: usize) -> Result<usize, String> {
        Ok(self.u64_in(key, default as u64, 0, max as u64)? as usize)
    }

    fn seed(&mut self) -> Result<u64, String> {
        self.u64_in("seed", 2003, 0, u64::MAX)
    }

    fn probability(&mut self, key: &str, default: f64) -> Result<f64, String> {
        let v = match self.get(key) {
            None => default,
            Some(j) => j
                .as_f64()
                .ok_or_else(|| format!("'{key}' must be a number"))?,
        };
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("'{key}' must be a probability in [0, 1], got {v}"));
        }
        Ok(self.keep(key, Json::Float(v), v))
    }

    /// A swept list of numbers: 1..=`max` entries (`default` when
    /// absent), each in `lo..=hi`, none twice — a repeated coordinate
    /// would measure one design point twice.
    fn float_list(
        &mut self,
        key: &str,
        (what, entries): (&str, &str),
        default: &[f64],
        max: usize,
        (lo, hi): (f64, f64),
    ) -> Result<Vec<f64>, String> {
        let mut out = Vec::new();
        match self.get(key) {
            None => out.extend_from_slice(default),
            Some(j) => {
                let items = j
                    .as_array()
                    .ok_or_else(|| format!("'{key}' must be an array of {what}"))?;
                if items.is_empty() || items.len() > max {
                    return Err(format!("'{key}' must hold 1..={max} values"));
                }
                for item in items {
                    let v = item
                        .as_f64()
                        .ok_or_else(|| format!("'{key}' must be an array of numbers"))?;
                    if !(lo..=hi).contains(&v) {
                        return Err(format!(
                            "'{key}' {entries} must be in [{lo}, {hi}], got {v}"
                        ));
                    }
                    if out.contains(&v) {
                        return Err(format!("duplicate '{key}' value {v}"));
                    }
                    out.push(v);
                }
            }
        }
        Ok(self.keep(key, Json::floats(&out), out))
    }

    fn p_values(&mut self) -> Result<Vec<f64>, String> {
        let what = ("probabilities", "entries");
        self.float_list("p", what, &[0.9, 0.7, 0.5], MAX_P_VALUES, (0.0, 1.0))
    }

    fn encoding(&mut self) -> Result<Encoding, String> {
        let encoding = match self.get("encoding") {
            None => Encoding::Binary,
            Some(j) => j.as_str().and_then(parse_encoding).ok_or_else(|| {
                "'encoding' must be \"binary\", \"gray\", or \"onehot\"".to_string()
            })?,
        };
        Ok(self.keep("encoding", Json::from(encoding_name(encoding)), encoding))
    }

    fn encodings(&mut self) -> Result<Vec<Encoding>, String> {
        let mut out = Vec::new();
        match self.get("encodings") {
            None => out.push(Encoding::Binary),
            Some(j) => {
                let items = j
                    .as_array()
                    .ok_or_else(|| "'encodings' must be an array of encoding names".to_string())?;
                if items.is_empty() || items.len() > 3 {
                    return Err("'encodings' must hold 1..=3 names".to_string());
                }
                for item in items {
                    let enc = item.as_str().and_then(parse_encoding).ok_or_else(|| {
                        "'encodings' entries must be \"binary\", \"gray\", or \"onehot\""
                            .to_string()
                    })?;
                    if out.contains(&enc) {
                        return Err(format!("duplicate encoding '{}'", encoding_name(enc)));
                    }
                    out.push(enc);
                }
            }
        }
        let names = out.iter().map(|&e| Json::from(encoding_name(e)));
        Ok(self.keep("encodings", Json::array(names), out))
    }

    fn ratios(&mut self) -> Result<Vec<f64>, String> {
        // The default is the paper's operating point, SD = 15 ns against
        // LD = 20 ns. Below 1/2 a long operation no longer fits in two
        // short cycles, which breaks the telescopic timing model.
        let what = ("clock ratios", "ratios");
        self.float_list("sd_ld", what, &[0.75], MAX_RATIOS, (0.5, 1.0))
    }

    fn skew_list(&mut self) -> Result<Vec<u64>, String> {
        let mut out = Vec::new();
        match self.get("skew") {
            // Default: the synchronous clocking discipline only.
            None => out.push(0),
            Some(j) => {
                let items = j
                    .as_array()
                    .ok_or_else(|| "'skew' must be an array of skew bounds".to_string())?;
                if items.is_empty() || items.len() > MAX_RATIOS {
                    return Err(format!("'skew' must hold 1..={MAX_RATIOS} values"));
                }
                for item in items {
                    let v = item.as_u64().ok_or_else(|| {
                        "'skew' entries must be non-negative integers".to_string()
                    })?;
                    if v > MAX_SKEW {
                        return Err(format!("'skew' bounds must be at most {MAX_SKEW}, got {v}"));
                    }
                    if out.contains(&v) {
                        return Err(format!("duplicate skew bound {v}"));
                    }
                    out.push(v);
                }
            }
        }
        let bounds = out.iter().map(|&v| Json::from(v));
        Ok(self.keep("skew", Json::array(bounds), out))
    }

    fn elastic(&mut self) -> Result<ElasticSpec, String> {
        let d = ElasticSpec::default();
        Ok(ElasticSpec {
            skew_bound: self.u64_in("skew", u64::from(d.skew_bound), 0, MAX_SKEW)? as u32,
            sync_latency: self.u64_in("sync_latency", u64::from(d.sync_latency), 0, MAX_SKEW)?
                as u32,
        })
    }

    fn styles(&mut self) -> Result<ControlStyleSet, String> {
        let set = match self.get("styles").map(|j| (j.as_str(), j.as_array())) {
            None => ControlStyleSet::DIST | ControlStyleSet::CENT | ControlStyleSet::ELASTIC,
            Some((Some(s), _)) => ControlStyleSet::parse(s)?,
            Some((None, None)) => {
                return Err(
                    "'styles' must be a comma-separated string or an array of style names"
                        .to_string(),
                )
            }
            Some((None, Some(items))) => {
                let mut set = ControlStyleSet::empty();
                for item in items {
                    let name = item
                        .as_str()
                        .ok_or_else(|| "'styles' entries must be style names".to_string())?;
                    set = set | ControlStyleSet::parse_one(name)?;
                }
                if set.is_empty() {
                    return Err("'styles' must name at least one style".to_string());
                }
                set
            }
        };
        if set.contains(ControlStyleSet::TAU) {
            return Err("'styles' supports dist, cent, and elastic here".to_string());
        }
        if !set.contains(ControlStyleSet::DIST) {
            return Err("'styles' must include 'dist' (the engine under test)".to_string());
        }
        let names = set.names().into_iter().map(Json::from);
        Ok(self.keep("styles", Json::array(names), set))
    }

    fn binding(&mut self) -> Result<bool, String> {
        let chains = match self.get("binding").map(JsonRef::as_str) {
            None | Some(Some("left-edge")) => false,
            Some(Some("chains")) => true,
            Some(_) => return Err("'binding' must be \"left-edge\" or \"chains\"".to_string()),
        };
        let name = if chains { "chains" } else { "left-edge" };
        Ok(self.keep("binding", Json::from(name), chains))
    }

    /// The graph source and allocation every synthesis-side spec
    /// starts with: `dfg`, `muls`, `adds`, `subs` and `binding`, in that
    /// order.
    fn target(&mut self) -> Result<(ReadDfg, usize, usize, usize, bool), String> {
        Ok((
            self.dfg()?,
            self.usize_in("muls", 2, MAX_UNITS)?,
            self.usize_in("adds", 1, MAX_UNITS)?,
            self.usize_in("subs", 1, MAX_UNITS)?,
            self.binding()?,
        ))
    }

    /// An area spec: [`Fields::target`], `encoding` and `width`, then
    /// the admission check. A `synth` spec is its `synth` part: it cannot
    /// carry a `width`, so its width reads as the default and stays out
    /// of its rendering.
    fn area(mut self) -> Result<AreaSpec, String> {
        let (dfg, muls, adds, subs, chains) = self.target()?;
        let encoding = self.encoding()?;
        let width = self.u64_in("width", 16, 1, MAX_WIDTH)? as u32;
        let (dfg, graph) = dfg.admit(&Allocation::paper(muls, adds, subs))?;
        let synth = SynthSpec {
            dfg,
            graph,
            canonical: self.finish(),
            muls,
            adds,
            subs,
            chains,
            encoding,
        };
        Ok(AreaSpec { synth, width })
    }

    /// `dfg` or `dfg_text`, resolved against the built-in registry — the
    /// only one the service exposes. Every malformed graph, named, wire
    /// or text, is reported here, before any later field. The rendering
    /// holds a benchmark name, the canonical wire object or the graph
    /// text: a wire graph embedded as a JSON object (not a string) keeps
    /// the canonical spec self-describing and makes
    /// [`JobSpec::from_canonical`] re-validate it like a fresh request.
    fn dfg(&mut self) -> Result<ReadDfg, String> {
        let named = |name: &str| (DfgSource::Named(name.to_string()), "dfg", Json::from(name));
        let (source, key, value) = match (self.get("dfg"), self.get("dfg_text")) {
            (Some(_), Some(_)) => {
                return Err("give either 'dfg' or 'dfg_text', not both".to_string())
            }
            (Some(j), None) => {
                if let Some(name) = j.as_str() {
                    if DfgRegistry::builtin().get(name).is_none() {
                        return Err(format!(
                            "unknown benchmark '{name}' (one of: {})",
                            BENCHMARKS.join(", ")
                        ));
                    }
                    named(name)
                } else if j.as_object().is_some() {
                    // An inline wire-format graph. Validate it fully here
                    // and retain the *canonical* rendering, so every JSON
                    // spelling of the same graph shares one cache key and
                    // one job id. Byte offsets in the error refer to the
                    // compact rendering of the 'dfg' object.
                    let text = j.clone().into_owned().to_compact();
                    if text.len() > MAX_DFG_TEXT {
                        return Err(format!(
                            "'dfg' exceeds {MAX_DFG_TEXT} bytes ({} given)",
                            text.len()
                        ));
                    }
                    let graph = parse_wire_dfg(&text).map_err(|e| format!("dfg: {e}"))?;
                    let wire = dfg_to_wire(&graph);
                    (DfgSource::InlineWire(wire.to_compact()), "dfg", wire)
                } else {
                    return Err(
                        "'dfg' must be a benchmark name string or an inline graph object"
                            .to_string(),
                    );
                }
            }
            (None, Some(j)) => {
                let text = j
                    .as_str()
                    .ok_or_else(|| "'dfg_text' must be a string".to_string())?;
                if text.len() > MAX_DFG_TEXT {
                    return Err(format!(
                        "'dfg_text' exceeds {MAX_DFG_TEXT} bytes ({} given)",
                        text.len()
                    ));
                }
                let source = DfgSource::InlineText(text.to_string());
                (source, "dfg_text", Json::from(text))
            }
            (None, None) => named("fir5"),
        };
        // A wire graph is held as parsed from its canonical text, whose
        // node ids differ from the sent ones.
        let graph = source.resolve(DfgRegistry::builtin())?;
        Ok(self.keep(key, value, ReadDfg { source, graph }))
    }
}

impl JobSpec {
    /// Parses and fully validates a job spec for `endpoint`.
    ///
    /// Strict by design: unknown or duplicate fields, wrong types,
    /// out-of-range values, unknown benchmarks, unparsable inline DFGs,
    /// graphs with no operations and allocations that cannot cover the
    /// graph are all rejected here, so a spec that parses is guaranteed
    /// to run (absent cancellation). The graph is resolved once, here:
    /// a synthesis-side spec holds it, and running the spec binds it
    /// once and resolves nothing.
    pub fn from_json(endpoint: Endpoint, spec: &Json) -> Result<JobSpec, JobError> {
        let view = JsonRef::from_owned(spec);
        JobSpec::parse(endpoint, &view).map_err(JobError::Invalid)
    }

    /// [`JobSpec::from_json`] over a borrowed document — the zero-copy
    /// entry the service's request path uses: field names and string
    /// values are read in place from the request buffer and only the
    /// strings the spec retains (benchmark names, inline DFG text) are
    /// copied out.
    pub fn from_json_ref(endpoint: Endpoint, spec: &JsonRef<'_>) -> Result<JobSpec, JobError> {
        JobSpec::parse(endpoint, spec).map_err(JobError::Invalid)
    }

    /// Parses a [`JobSpec::canonical`] document back into a spec: the
    /// embedded `endpoint` field selects the variant and the remaining
    /// fields re-validate exactly like a fresh request. This is the
    /// re-entry point for durable job journals, which persist the
    /// canonical rendering; round-tripping preserves the cache key.
    pub fn from_canonical(doc: &Json) -> Result<JobSpec, JobError> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| JobError::Invalid("canonical spec must be a JSON object".to_string()))?;
        let endpoint = pairs
            .iter()
            .find(|(k, _)| k == "endpoint")
            .and_then(|(_, v)| v.as_str())
            .and_then(Endpoint::parse)
            .ok_or_else(|| {
                JobError::Invalid("canonical spec must name a known 'endpoint'".to_string())
            })?;
        let rest: Vec<(Cow<'_, str>, JsonRef<'_>)> = pairs
            .iter()
            .filter(|(k, _)| k != "endpoint")
            .map(|(k, v)| (Cow::Borrowed(k.as_str()), JsonRef::from_owned(v)))
            .collect();
        let view = JsonRef::Object(rest);
        JobSpec::parse(endpoint, &view).map_err(JobError::Invalid)
    }

    fn parse(endpoint: Endpoint, spec: &JsonRef<'_>) -> Result<JobSpec, String> {
        let mut f = Fields::new(spec, endpoint.kind())?;
        match endpoint {
            Endpoint::Simulate => {
                let (dfg, muls, adds, subs, chains) = f.target()?;
                let p_values = f.p_values()?;
                let trials = f.u64_in("trials", 2000, 1, MAX_TRIALS)?;
                let seed = f.seed()?;
                let elastic = f.elastic()?;
                let (dfg, graph) = dfg.admit(&Allocation::paper(muls, adds, subs))?;
                Ok(JobSpec::Simulate(SimulateSpec {
                    dfg,
                    graph,
                    canonical: f.finish(),
                    muls,
                    adds,
                    subs,
                    chains,
                    p_values,
                    trials,
                    seed,
                    elastic,
                }))
            }
            Endpoint::Table2 => Ok(JobSpec::Table2(Table2Spec {
                trials: f.u64_in("trials", 2000, 1, MAX_TRIALS)?,
                seed: f.seed()?,
                canonical: f.finish(),
            })),
            Endpoint::Resilience => {
                let (dfg, muls, adds, subs, chains) = f.target()?;
                let p = f.probability("p", 0.5)?;
                let trials = f.u64_in("trials", 2000, 1, MAX_TRIALS)?;
                let seed = f.seed()?;
                let styles = f.styles()?;
                let elastic = f.elastic()?;
                let (dfg, graph) = dfg.admit(&Allocation::paper(muls, adds, subs))?;
                Ok(JobSpec::Resilience(ResilienceSpec {
                    dfg,
                    graph,
                    canonical: f.finish(),
                    muls,
                    adds,
                    subs,
                    chains,
                    p,
                    trials,
                    seed,
                    styles,
                    elastic,
                }))
            }
            Endpoint::Synth => Ok(JobSpec::Synth(f.area()?.synth)),
            Endpoint::Area => Ok(JobSpec::Area(f.area()?)),
            Endpoint::Explore => {
                let dfg = f.dfg()?;
                let max_muls = f.usize_in("max_muls", 4, MAX_EXPLORE_UNITS)?;
                let max_adds = f.usize_in("max_adds", 2, MAX_EXPLORE_UNITS)?;
                let max_subs = f.usize_in("max_subs", 2, MAX_EXPLORE_UNITS)?;
                let encodings = f.encodings()?;
                let p_values = f.p_values()?;
                let sd_ld = f.ratios()?;
                let skew = f.skew_list()?;
                let trials = f.u64_in("trials", 400, 1, MAX_TRIALS)?;
                let width = f.u64_in("width", 16, 1, MAX_WIDTH)? as u32;
                let seed = f.seed()?;
                // The maximal allocation must cover the graph, so at least
                // one swept point is feasible.
                let (dfg, graph) = dfg.admit(&Allocation::paper(max_muls, max_adds, max_subs))?;
                let s = ExploreSpec {
                    dfg,
                    graph,
                    canonical: f.finish(),
                    max_muls,
                    max_adds,
                    max_subs,
                    encodings,
                    p_values,
                    sd_ld,
                    skew,
                    trials,
                    width,
                    seed,
                };
                let grid = s.max_muls.max(1)
                    * s.max_adds.max(1)
                    * s.max_subs.max(1)
                    * s.encodings.len()
                    * s.p_values.len()
                    * s.sd_ld.len()
                    * s.skew.len();
                if grid > MAX_EXPLORE_POINTS {
                    return Err(format!(
                        "explore grid of {grid} points exceeds {MAX_EXPLORE_POINTS} \
                         (shrink the unit maxima or the swept lists)"
                    ));
                }
                Ok(JobSpec::Explore(s))
            }
        }
    }

    /// The canonical rendering this spec's field readers wrote.
    fn held(&self) -> &Canonical {
        match self {
            JobSpec::Simulate(s) => &s.canonical,
            JobSpec::Table2(s) => &s.canonical,
            JobSpec::Resilience(s) => &s.canonical,
            JobSpec::Synth(s) => &s.canonical,
            JobSpec::Area(s) => &s.synth.canonical,
            JobSpec::Explore(s) => &s.canonical,
        }
    }

    /// The endpoint this spec targets.
    pub fn endpoint(&self) -> Endpoint {
        self.held().0
    }

    /// Monte-Carlo trials this job will run, its `trials` field
    /// (table2: per benchmark row; resilience: per fault kind; zero for
    /// the synthesis endpoints, which have none and run no simulation) —
    /// the unit of the service's trials-per-second gauge.
    pub fn trials(&self) -> u64 {
        self.held()
            .1
            .get("trials")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// The canonical rendering: every field materialized, in the order
    /// the spec's readers accept them, after the embedded endpoint — the
    /// value whose compact form is [`JobSpec::cache_key`].
    pub fn canonical(&self) -> Json {
        self.held().1.clone()
    }

    /// The content address of this job: the compact canonical rendering.
    /// Two specs with equal keys produce byte-identical responses, because
    /// every field feeding the simulation (seed included) is in the key
    /// and the batch engine is bit-deterministic.
    pub fn cache_key(&self) -> String {
        self.held().1.to_compact()
    }

    /// The content-derived job identifier: the FNV-1a 64-bit hash of
    /// [`JobSpec::cache_key`], as 16 lowercase hex digits. Resubmitting an
    /// identical spec therefore addresses the same job — submission is
    /// idempotent by construction — and the ID is stable across restarts,
    /// which is what lets a replayed journal reconnect status polls to
    /// recovered jobs.
    pub fn job_id(&self) -> String {
        let mut h = stages::Fnv64::new();
        h.write(self.cache_key().as_bytes());
        format!("{:016x}", h.finish())
    }

    /// Runs the job to its JSON response body on `runner`.
    ///
    /// A runner carrying a tripped [`tauhls_sim::CancelToken`] yields
    /// [`JobError::Cancelled`] — never a partial result — so a draining
    /// server cannot poison its cache.
    pub fn run(&self, runner: &BatchRunner) -> Result<Json, JobError> {
        self.run_with(runner, None).map(|(body, _)| body)
    }

    /// Like [`JobSpec::run`], threading an optional shared [`StageCache`]
    /// through the synthesis endpoints and returning the executed
    /// [`StageRecord`]s alongside the body (empty for the simulation
    /// endpoints).
    ///
    /// A single-node run is the one-part partition plan: this is
    /// [`partition::merge`] of [`partition::run_part`] over the whole unit
    /// axis, the same functions a cluster runs per partition, so a body is
    /// the same on one node and across any number of workers.
    ///
    /// The response body is a pure function of the spec — per-stage wall
    /// times live only in the records, so a stage-cache hit is
    /// byte-identical to the cold run and response caching stays sound.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::run`].
    pub fn run_with(
        &self,
        runner: &BatchRunner,
        stage_cache: Option<&StageCache>,
    ) -> Result<(Json, Vec<StageRecord>), JobError> {
        let whole = Part {
            index: 0,
            total: 1,
            lo: 0,
            hi: partition::unit_count(self),
        };
        let (partial, records) = partition::run_part(self, whole, runner, stage_cache)?;
        Ok((partition::merge(self, vec![partial])?, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_sim::CancelToken;

    fn parse(endpoint: Endpoint, text: &str) -> Result<JobSpec, JobError> {
        JobSpec::from_json(endpoint, &Json::parse(text).expect("well-formed test spec"))
    }

    #[test]
    fn canonicalization_erases_field_order_defaults_and_number_spelling() {
        let a = parse(Endpoint::Simulate, r#"{"trials":50,"p":[1],"seed":2003}"#).unwrap();
        let b = parse(Endpoint::Simulate, r#"{"p":[1.0],"trials":50}"#).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        // Defaults materialize into the key.
        assert!(a.cache_key().contains("\"dfg\":\"fir5\""));
        assert!(a.cache_key().contains("\"binding\":\"left-edge\""));
        // A differing seed is a different content address.
        let c = parse(Endpoint::Simulate, r#"{"p":[1.0],"trials":50,"seed":1}"#).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn empty_specs_materialize_paper_defaults() {
        let JobSpec::Simulate(s) = parse(Endpoint::Simulate, "{}").unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(s.dfg, DfgSource::Named("fir5".to_string()));
        assert_eq!((s.muls, s.adds, s.subs), (2, 1, 1));
        assert_eq!(s.p_values, vec![0.9, 0.7, 0.5]);
        assert_eq!((s.trials, s.seed), (2000, 2003));
        let JobSpec::Resilience(r) = parse(Endpoint::Resilience, "{}").unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(r.p, 0.5);
    }

    #[test]
    fn strict_parsing_rejects_malformed_specs() {
        let cases: &[(Endpoint, &str, &str)] = &[
            (Endpoint::Simulate, "[]", "must be a JSON object"),
            (Endpoint::Simulate, r#"{"wat":1}"#, "unknown field 'wat'"),
            (Endpoint::Table2, r#"{"p":[0.5]}"#, "unknown field 'p'"),
            (
                Endpoint::Simulate,
                r#"{"trials":1,"trials":2}"#,
                "duplicate field 'trials'",
            ),
            (Endpoint::Simulate, r#"{"trials":0}"#, "'trials' must be in"),
            (
                Endpoint::Simulate,
                r#"{"trials":1000001}"#,
                "'trials' must be in",
            ),
            (
                Endpoint::Simulate,
                r#"{"trials":-3}"#,
                "non-negative integer",
            ),
            (Endpoint::Simulate, r#"{"p":[]}"#, "'p' must hold"),
            (Endpoint::Simulate, r#"{"p":[1.5]}"#, "in [0, 1]"),
            (Endpoint::Simulate, r#"{"p":0.5}"#, "'p' must be an array"),
            (
                Endpoint::Resilience,
                r#"{"p":[0.5]}"#,
                "'p' must be a number",
            ),
            (Endpoint::Resilience, r#"{"p":-0.1}"#, "in [0, 1]"),
            (
                Endpoint::Simulate,
                r#"{"binding":"sideways"}"#,
                "'binding' must be",
            ),
            (Endpoint::Simulate, r#"{"dfg":"nope"}"#, "unknown benchmark"),
            (
                Endpoint::Simulate,
                r#"{"dfg":"fir5","dfg_text":"x"}"#,
                "not both",
            ),
            (Endpoint::Simulate, r#"{"dfg_text":"@#$"}"#, "dfg_text:"),
            // A malformed graph is reported before any later field, in
            // text form as in wire form.
            (
                Endpoint::Simulate,
                r#"{"dfg_text":"@#$","muls":65}"#,
                "dfg_text:",
            ),
            (
                Endpoint::Simulate,
                r#"{"dfg":{"nodes":7},"muls":65}"#,
                "dfg:",
            ),
            (Endpoint::Simulate, r#"{"muls":65}"#, "'muls' must be in"),
            (
                Endpoint::Simulate,
                r#"{"dfg":"fir5","subs":0,"adds":0}"#,
                "allocation lacks a unit",
            ),
            // A swept coordinate given twice would measure one point twice.
            (
                Endpoint::Simulate,
                r#"{"p":[0.5,0.5]}"#,
                "duplicate 'p' value 0.5",
            ),
            (
                Endpoint::Explore,
                r#"{"p":[1,0.5,1.0]}"#,
                "duplicate 'p' value 1",
            ),
            (
                Endpoint::Explore,
                r#"{"sd_ld":[0.75,0.75]}"#,
                "duplicate 'sd_ld' value 0.75",
            ),
        ];
        for (endpoint, text, needle) in cases {
            let err = parse(*endpoint, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
            assert!(!err.contains('\n'), "{text}: multi-line error {err:?}");
        }
    }

    #[test]
    fn simulate_runs_and_embeds_its_canonical_spec() {
        let spec = parse(Endpoint::Simulate, r#"{"trials":40,"p":[0.5],"seed":7}"#).unwrap();
        let body = spec.run(&BatchRunner::serial()).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        assert!(body.get("lt_tau").unwrap().get("best_cycles").is_some());
        assert_eq!(
            body.get("enhancement_percent")
                .unwrap()
                .as_array()
                .map(<[Json]>::len),
            Some(1)
        );
        // Same spec, same runner → byte-identical body (the cache-hit
        // guarantee, before any cache is involved).
        let again = spec.run(&BatchRunner::new(4)).unwrap();
        assert_eq!(body.to_compact(), again.to_compact());
    }

    #[test]
    fn inline_dfg_and_table2_and_resilience_run() {
        let axpy =
            "dfg axpy\ninput a\ninput x\ninput y\nop m = mul a x\nop r = add m y\noutput r r\n";
        let text = format!(
            r#"{{"dfg_text":"{}","trials":25,"p":[0.5]}}"#,
            axpy.replace('\n', "\\n")
        );
        let spec = parse(Endpoint::Simulate, &text).unwrap();
        assert!(spec.run(&BatchRunner::serial()).is_ok());

        let t2 = parse(Endpoint::Table2, r#"{"trials":20,"seed":3}"#).unwrap();
        let body = t2.run(&BatchRunner::serial()).unwrap();
        assert!(body.get("table2").unwrap().get("rows").is_some());

        let res = parse(Endpoint::Resilience, r#"{"trials":12,"seed":3}"#).unwrap();
        let body = res.run(&BatchRunner::serial()).unwrap();
        assert!(body.get("report").unwrap().get("rows").is_some());
    }

    #[test]
    fn synth_runs_deterministically_and_embeds_its_hash_chain() {
        let spec = parse(Endpoint::Synth, r#"{"dfg":"fir3","muls":2,"adds":1}"#).unwrap();
        let (body, records) = spec.run_with(&BatchRunner::serial(), None).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        let chain = body.get("stages").unwrap().as_array().unwrap();
        assert_eq!(chain.len(), crate::stages::STAGE_NAMES.len());
        for (entry, name) in chain.iter().zip(crate::stages::STAGE_NAMES) {
            assert_eq!(entry.get("stage").unwrap().as_str(), Some(name));
            assert_eq!(entry.get("hash").unwrap().as_str().map(str::len), Some(16));
        }
        assert_eq!(records.len(), crate::stages::STAGE_NAMES.len());
        let synth = body.get("synth").unwrap();
        assert_eq!(
            synth.get("controllers").unwrap().as_array().map(<[_]>::len),
            Some(3),
            "fir3 @ (2,1,0) binds three units"
        );
        assert!(synth.get("cent_sync").unwrap().get("states").is_some());
        // Byte-identical rerun: the cache-hit guarantee for /v1/synth.
        let (again, _) = spec.run_with(&BatchRunner::serial(), None).unwrap();
        assert_eq!(body.to_compact(), again.to_compact());
    }

    #[test]
    fn area_reports_rows_and_system_breakdown() {
        let spec = parse(Endpoint::Area, r#"{"dfg":"diffeq","subs":1,"width":32}"#).unwrap();
        let body = spec.run(&BatchRunner::serial()).unwrap();
        let rows = body.get("rows").unwrap().as_array().unwrap();
        assert!(rows.iter().any(|r| r
            .get("name")
            .unwrap()
            .as_str()
            .is_some_and(|n| n.starts_with("D-FSM-"))));
        let system = body.get("system").unwrap();
        assert_eq!(system.get("width").unwrap().as_u64(), Some(32));
        assert!(system.get("total").unwrap().as_f64().unwrap() > 0.0);
        let frac = system.get("control_fraction").unwrap().as_f64().unwrap();
        assert!((0.0..1.0).contains(&frac));
    }

    #[test]
    fn synth_cache_is_shared_and_reused_across_encodings() {
        let cache = StageCache::new(64);
        let runner = BatchRunner::serial();
        let base = parse(Endpoint::Synth, r#"{"dfg":"fir5"}"#).unwrap();
        let (cold_body, cold) = base.run_with(&runner, Some(&cache)).unwrap();
        assert!(cold.iter().all(|r| !r.cache_hit));
        // Same graph + allocation, different encoding: the front of the
        // pipeline is served from cache, only logic + report recompute.
        let gray = parse(Endpoint::Synth, r#"{"dfg":"fir5","encoding":"gray"}"#).unwrap();
        let (gray_body, warm) = gray.run_with(&runner, Some(&cache)).unwrap();
        let hits: Vec<&str> = warm
            .iter()
            .filter(|r| r.cache_hit)
            .map(|r| r.stage)
            .collect();
        assert_eq!(hits, ["canonicalize", "order", "bind", "controllers"]);
        assert_ne!(cold_body.to_compact(), gray_body.to_compact());
        // A cache-served replay is byte-identical to the cold run.
        let (replay, records) = base.run_with(&runner, Some(&cache)).unwrap();
        assert!(records.iter().all(|r| r.cache_hit));
        assert_eq!(cold_body.to_compact(), replay.to_compact());
    }

    #[test]
    fn synthesis_specs_reject_uncoverable_and_empty_graphs_at_parse_time() {
        let cases: &[(Endpoint, &str, &str)] = &[
            (
                Endpoint::Synth,
                r#"{"dfg":"fir5","muls":0}"#,
                "allocation lacks a unit",
            ),
            (
                Endpoint::Area,
                r#"{"dfg":"diffeq","subs":0}"#,
                "allocation lacks a unit",
            ),
            (
                Endpoint::Synth,
                r#"{"encoding":"sideways"}"#,
                "'encoding' must be",
            ),
            (Endpoint::Synth, r#"{"trials":5}"#, "unknown field 'trials'"),
            (Endpoint::Area, r#"{"width":0}"#, "'width' must be in"),
            (Endpoint::Area, r#"{"width":129}"#, "'width' must be in"),
            (
                Endpoint::Synth,
                r#"{"dfg_text":"dfg empty\ninput a\n"}"#,
                "has no operations",
            ),
            (
                Endpoint::Simulate,
                r#"{"dfg":"fir5","muls":0}"#,
                "allocation lacks a unit",
            ),
            (
                Endpoint::Resilience,
                r#"{"dfg":"diffeq","subs":0}"#,
                "allocation lacks a unit",
            ),
            (
                Endpoint::Simulate,
                r#"{"dfg_text":"dfg empty\ninput a\n"}"#,
                "has no operations",
            ),
            (
                Endpoint::Resilience,
                r#"{"dfg_text":"dfg empty\ninput a\n","trials":10}"#,
                "has no operations",
            ),
            (
                Endpoint::Area,
                r#"{"dfg_text":"dfg empty\ninput a\n"}"#,
                "has no operations",
            ),
            (
                Endpoint::Explore,
                r#"{"dfg_text":"dfg empty\ninput a\n"}"#,
                "has no operations",
            ),
        ];
        for (endpoint, text, needle) in cases {
            let err = parse(*endpoint, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
            assert!(!err.contains('\n'), "{text}: multi-line error {err:?}");
        }
    }

    #[test]
    fn synth_canonicalization_materializes_encoding_and_width() {
        let a = parse(Endpoint::Synth, "{}").unwrap();
        assert!(a.cache_key().contains("\"encoding\":\"binary\""));
        let b = parse(Endpoint::Area, "{}").unwrap();
        assert!(b.cache_key().contains("\"width\":16"));
        assert_eq!(a.trials() + b.trials(), 0);
        assert_eq!(a.endpoint(), Endpoint::Synth);
        assert_eq!(Endpoint::parse("area"), Some(Endpoint::Area));
    }

    #[test]
    fn canonical_rendering_round_trips_through_from_canonical() {
        let texts: &[(Endpoint, &str)] = &[
            (Endpoint::Simulate, r#"{"trials":50,"p":[1],"seed":9}"#),
            (Endpoint::Table2, r#"{"trials":20}"#),
            (Endpoint::Resilience, r#"{"p":0.25,"trials":8}"#),
            (Endpoint::Synth, r#"{"dfg":"fir3","encoding":"gray"}"#),
            (Endpoint::Area, r#"{"width":32}"#),
            (
                Endpoint::Explore,
                r#"{"dfg":"fir3","max_muls":2,"sd_ld":[0.75,1],"encodings":["gray"]}"#,
            ),
        ];
        for (endpoint, text) in texts {
            let spec = parse(*endpoint, text).unwrap();
            let back = JobSpec::from_canonical(&spec.canonical()).unwrap();
            assert_eq!(back, spec, "{text}");
            assert_eq!(back.cache_key(), spec.cache_key(), "{text}");
            assert_eq!(back.job_id(), spec.job_id(), "{text}");
        }
        // The ID is a pure function of the content address.
        let a = parse(Endpoint::Simulate, r#"{"trials":50,"p":[1.0]}"#).unwrap();
        let b = parse(Endpoint::Simulate, r#"{"p":[1],"trials":50}"#).unwrap();
        assert_eq!(a.job_id(), b.job_id());
        assert_eq!(a.job_id().len(), 16);
        let c = parse(Endpoint::Simulate, r#"{"trials":51,"p":[1]}"#).unwrap();
        assert_ne!(a.job_id(), c.job_id());
        // Hostile canonical documents fail cleanly.
        for bad in [
            "[]",
            "{}",
            r#"{"endpoint":"nope"}"#,
            r#"{"endpoint":"simulate","wat":1}"#,
        ] {
            assert!(JobSpec::from_canonical(&Json::parse(bad).unwrap()).is_err());
        }
    }

    #[test]
    fn borrowed_and_owned_parses_agree() {
        let text = r#"{"dfg":"ewf","trials":40,"p":[0.9,0.5],"seed":7}"#;
        let owned = parse(Endpoint::Simulate, text).unwrap();
        let doc = JsonRef::parse(text).unwrap();
        let borrowed = JobSpec::from_json_ref(Endpoint::Simulate, &doc).unwrap();
        assert_eq!(borrowed, owned);
        // Errors surface identically through both entries.
        let bad = JsonRef::parse(r#"{"wat":1}"#).unwrap();
        let err = JobSpec::from_json_ref(Endpoint::Simulate, &bad).unwrap_err();
        assert!(err.to_string().contains("unknown field 'wat'"));
    }

    #[test]
    fn cancelled_runner_yields_cancelled_not_partial_results() {
        let token = CancelToken::new();
        token.cancel();
        let runner = BatchRunner::serial().with_cancel(token);
        for (endpoint, text) in [
            (Endpoint::Simulate, r#"{"trials":40}"#),
            (Endpoint::Table2, r#"{"trials":20}"#),
            (Endpoint::Resilience, r#"{"trials":12}"#),
        ] {
            let spec = parse(endpoint, text).unwrap();
            assert_eq!(spec.run(&runner), Err(JobError::Cancelled), "{text}");
        }
        let explore = parse(Endpoint::Explore, r#"{"trials":10,"max_muls":2}"#).unwrap();
        assert_eq!(explore.run(&runner), Err(JobError::Cancelled));
    }

    /// AXPY as a wire-format graph object, compact.
    const AXPY_WIRE: &str = r#"{"nodes":[{"id":"a","op":"input"},{"id":"x","op":"input"},{"id":"y","op":"input"},{"id":"m","op":"mul"},{"id":"r","op":"add"}],"edges":[{"from":"a","to":"m"},{"from":"x","to":"m"},{"from":"m","to":"r"},{"from":"y","to":"r"}],"outputs":{"r":"r"},"params":{"name":"axpy"}}"#;

    #[test]
    fn inline_wire_dfg_parses_runs_and_canonicalizes() {
        let text = format!(r#"{{"dfg":{AXPY_WIRE},"trials":25,"p":[0.5]}}"#);
        let spec = parse(Endpoint::Simulate, &text).unwrap();
        let JobSpec::Simulate(s) = &spec else {
            panic!("wrong variant");
        };
        assert!(matches!(&s.dfg, DfgSource::InlineWire(_)));
        let body = spec.run(&BatchRunner::serial()).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        // The canonical spec embeds the graph as a JSON object, and the
        // journal re-entry path re-validates it to the same spec.
        assert!(spec.cache_key().contains("\"dfg\":{\"nodes\""));
        let back = JobSpec::from_canonical(&spec.canonical()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.job_id(), spec.job_id());
        // A different JSON spelling of the same graph — node-object keys
        // reordered — normalizes to the same content address and job id.
        let respelled =
            AXPY_WIRE.replace(r#"{"id":"a","op":"input"}"#, r#"{"op":"input","id":"a"}"#);
        assert_ne!(respelled, AXPY_WIRE);
        let other = parse(
            Endpoint::Simulate,
            &format!(r#"{{"dfg":{respelled},"trials":25,"p":[0.5]}}"#),
        )
        .unwrap();
        assert_eq!(other.cache_key(), spec.cache_key());
        assert_eq!(other.job_id(), spec.job_id());
        // The synthesis endpoints accept the same source.
        let synth = parse(Endpoint::Synth, &format!(r#"{{"dfg":{AXPY_WIRE}}}"#)).unwrap();
        assert!(synth.run_with(&BatchRunner::serial(), None).is_ok());
    }

    #[test]
    fn inline_wire_dfg_rejections() {
        let cases: &[(&str, &str)] = &[
            // Semantic wire errors surface with their byte offset.
            (r#"{"dfg":{"nodes":[]}}"#, "dfg: byte "),
            (
                r#"{"dfg":{"nodes":[{"id":"s","op":"add"}],"edges":[{"from":"s","to":"s"}],"outputs":{"o":"s"}}}"#,
                "dfg: byte ",
            ),
            // Wrong value type for 'dfg'.
            (
                r#"{"dfg":42}"#,
                "'dfg' must be a benchmark name string or an inline graph object",
            ),
            // Mutually exclusive with dfg_text, object or not.
            (
                &format!(r#"{{"dfg":{AXPY_WIRE},"dfg_text":"x"}}"#),
                "not both",
            ),
        ];
        for (text, needle) in cases {
            let err = parse(Endpoint::Simulate, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
        }
        // An inline graph still hits the allocation-coverage check.
        let err = parse(
            Endpoint::Synth,
            &format!(r#"{{"dfg":{AXPY_WIRE},"muls":0}}"#),
        )
        .expect_err("uncoverable")
        .to_string();
        assert!(err.contains("allocation lacks a unit"), "{err}");
    }

    #[test]
    fn explore_defaults_canonicalize_and_reject_bad_grids() {
        let JobSpec::Explore(s) = parse(Endpoint::Explore, "{}").unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!((s.max_muls, s.max_adds, s.max_subs), (4, 2, 2));
        assert_eq!(s.encodings, vec![Encoding::Binary]);
        assert_eq!(s.p_values, vec![0.9, 0.7, 0.5]);
        assert_eq!(s.sd_ld, vec![0.75]);
        assert_eq!((s.trials, s.width, s.seed), (400, 16, 2003));
        let key = JobSpec::Explore(s).cache_key();
        assert!(key.contains("\"endpoint\":\"explore\""));
        assert!(key.contains("\"sd_ld\":[0.75]"));
        assert!(key.contains("\"encodings\":[\"binary\"]"));

        let cases: &[(&str, &str)] = &[
            (r#"{"sd_ld":[0.4]}"#, "must be in [0.5, 1]"),
            (r#"{"sd_ld":[]}"#, "'sd_ld' must hold"),
            (r#"{"sd_ld":0.75}"#, "'sd_ld' must be an array"),
            (r#"{"encodings":["binary","binary"]}"#, "duplicate encoding"),
            (r#"{"encodings":[]}"#, "'encodings' must hold"),
            (
                r#"{"encodings":["sideways"]}"#,
                "'encodings' entries must be",
            ),
            (r#"{"max_muls":9}"#, "'max_muls' must be in"),
            (r#"{"dfg":"fir5","max_muls":0}"#, "allocation lacks a unit"),
            (
                r#"{"max_muls":8,"max_adds":8,"max_subs":8,"encodings":["binary","gray","onehot"],"sd_ld":[0.5,0.6,0.7,0.8]}"#,
                "exceeds 4096",
            ),
        ];
        for (text, needle) in cases {
            let err = parse(Endpoint::Explore, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
        }
    }

    #[test]
    fn explore_runs_thread_invariantly_with_a_consistent_frontier() {
        let text =
            r#"{"dfg":"fir3","max_muls":2,"max_adds":1,"trials":30,"p":[0.5],"sd_ld":[0.75,1.0]}"#;
        let spec = parse(Endpoint::Explore, text).unwrap();
        let (body, _) = spec.run_with(&BatchRunner::serial(), None).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        let points = body.get("points").unwrap().as_array().unwrap();
        // 2 allocations × 1 P × 1 encoding × 2 ratios.
        assert_eq!(points.len(), 4);
        let frontier = body.get("frontier").unwrap().as_array().unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier
            .iter()
            .all(|p| p.get("pareto").unwrap() == &Json::Bool(true)));
        // Bit-identical at any thread count — the durable-job replay and
        // crash-recovery guarantee for explore bodies.
        let (threaded, _) = spec.run_with(&BatchRunner::new(4), None).unwrap();
        assert_eq!(body.to_compact(), threaded.to_compact());
        // The stage cache accelerates the synthesis legs without changing
        // a byte.
        let cache = StageCache::new(64);
        let (cold, _) = spec.run_with(&BatchRunner::serial(), Some(&cache)).unwrap();
        let (warm, records) = spec.run_with(&BatchRunner::serial(), Some(&cache)).unwrap();
        assert_eq!(cold.to_compact(), warm.to_compact());
        assert_eq!(body.to_compact(), warm.to_compact());
        assert!(records.iter().all(|r| r.cache_hit));
    }

    /// Every row of the kind table: its name round-trips, `{}` parses
    /// (with a small `trials` where the kind takes one), the one-part
    /// plan runs and merges to `run`'s body, and the canonical rendering
    /// reads back to the same spec.
    #[test]
    fn every_kind_parses_runs_as_one_part_and_round_trips() {
        let runner = BatchRunner::serial();
        for kind in KINDS {
            assert_eq!(Endpoint::parse(kind.name), Some(kind.endpoint));
            assert_eq!(kind.endpoint.as_str(), kind.name);
            let text = if kind.fields.contains(&"trials") {
                r#"{"trials":8}"#
            } else {
                "{}"
            };
            let spec = parse(kind.endpoint, text).expect(kind.name);
            assert_eq!(spec.endpoint(), kind.endpoint);
            let plan = partition::plan(&spec, 1);
            assert_eq!(plan.len(), 1, "{}", kind.name);
            let (partial, _) = partition::run_part(&spec, plan[0], &runner, None).unwrap();
            let merged = partition::merge(&spec, vec![partial]).unwrap();
            let body = spec.run(&runner).unwrap();
            assert_eq!(merged.to_compact(), body.to_compact(), "{}", kind.name);
            let back = JobSpec::from_canonical(&spec.canonical()).unwrap();
            assert_eq!(back, spec, "{}", kind.name);
        }
    }

    /// A kind's canonical rendering carries every field the kind takes,
    /// in table order, and only the graph field the request gave: a field
    /// missing from it would let two different requests share one cache
    /// entry.
    #[test]
    fn canonical_keys_are_the_kind_fields() {
        let axpy = r#"{"dfg_text":"dfg axpy\ninput a\ninput x\ninput y\nop m = mul a x\nop r = add m y\noutput r r\n"}"#;
        for kind in KINDS {
            let texts: &[(&str, &str)] = if kind.fields.contains(&"dfg") {
                &[("dfg_text", "{}"), ("dfg", axpy)]
            } else {
                &[("", "{}")]
            };
            for (absent, text) in texts {
                let spec = parse(kind.endpoint, text).expect(text);
                let canonical = spec.canonical();
                let keys: Vec<&str> = canonical
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let fields = kind.fields.iter().filter(|f| *f != absent);
                let want: Vec<&str> = ["endpoint"].into_iter().chain(fields.copied()).collect();
                assert_eq!(keys, want, "{} {text}", kind.name);
            }
        }
    }

    /// Literal content addresses: the cache key and job id a spec gets
    /// are persisted by response caches and job journals, so they must
    /// not drift with how a spec is parsed or what it holds.
    #[test]
    fn cache_keys_and_job_ids_are_pinned() {
        let axpy_text = r#""dfg_text":"dfg axpy\ninput a\ninput x\ninput y\nop m = mul a x\nop r = add m y\noutput r r\n","muls":1,"adds":1,"subs":0"#;
        let respelled =
            AXPY_WIRE.replace(r#"{"id":"a","op":"input"}"#, r#"{"op":"input","id":"a"}"#);
        let specs: [(Endpoint, String); 11] = [
            (Endpoint::Simulate, "{}".into()),
            (Endpoint::Table2, "{}".into()),
            (Endpoint::Resilience, "{}".into()),
            (Endpoint::Synth, "{}".into()),
            (Endpoint::Area, "{}".into()),
            (Endpoint::Explore, "{}".into()),
            (
                Endpoint::Synth,
                format!(r#"{{{axpy_text},"encoding":"gray"}}"#),
            ),
            (
                Endpoint::Area,
                format!(r#"{{{axpy_text},"encoding":"gray","width":32}}"#),
            ),
            (
                Endpoint::Explore,
                format!(r#"{{"dfg":{AXPY_WIRE},"max_muls":2,"max_subs":0,"p":[0.5]}}"#),
            ),
            // The same explore job: other key order, another node-object
            // spelling and another number spelling.
            (
                Endpoint::Explore,
                format!(r#"{{"p":[0.5e0],"max_subs":0,"dfg":{respelled},"max_muls":2}}"#),
            ),
            (
                Endpoint::Resilience,
                r#"{"dfg":"diffeq","p":0.25,"trials":64,"styles":["elastic","dist"]}"#.into(),
            ),
        ];
        let pinned: [(&str, &str); 11] = [
            (
                r#"{"endpoint":"simulate","dfg":"fir5","muls":2,"adds":1,"subs":1,"binding":"left-edge","p":[0.9,0.7,0.5],"trials":2000,"seed":2003,"skew":1,"sync_latency":1}"#,
                "cfc5c56f037db151",
            ),
            (
                r#"{"endpoint":"table2","trials":2000,"seed":2003}"#,
                "07e2f21a2dc9d241",
            ),
            (
                r#"{"endpoint":"resilience","dfg":"fir5","muls":2,"adds":1,"subs":1,"binding":"left-edge","p":0.5,"trials":2000,"seed":2003,"styles":["dist","cent","elastic"],"skew":1,"sync_latency":1}"#,
                "a7c633e208248c1b",
            ),
            (
                r#"{"endpoint":"synth","dfg":"fir5","muls":2,"adds":1,"subs":1,"binding":"left-edge","encoding":"binary"}"#,
                "51291f34276f5f7d",
            ),
            (
                r#"{"endpoint":"area","dfg":"fir5","muls":2,"adds":1,"subs":1,"binding":"left-edge","encoding":"binary","width":16}"#,
                "d756e094354757c1",
            ),
            (
                r#"{"endpoint":"explore","dfg":"fir5","max_muls":4,"max_adds":2,"max_subs":2,"encodings":["binary"],"p":[0.9,0.7,0.5],"sd_ld":[0.75],"skew":[0],"trials":400,"width":16,"seed":2003}"#,
                "3d6f5ba87373d2ef",
            ),
            (
                r#"{"endpoint":"synth","dfg_text":"dfg axpy\ninput a\ninput x\ninput y\nop m = mul a x\nop r = add m y\noutput r r\n","muls":1,"adds":1,"subs":0,"binding":"left-edge","encoding":"gray"}"#,
                "b5c08544f022a25c",
            ),
            (
                r#"{"endpoint":"area","dfg_text":"dfg axpy\ninput a\ninput x\ninput y\nop m = mul a x\nop r = add m y\noutput r r\n","muls":1,"adds":1,"subs":0,"binding":"left-edge","encoding":"gray","width":32}"#,
                "f1a4059d3a5d5c94",
            ),
            (
                r#"{"endpoint":"explore","dfg":{"nodes":[{"id":"a","op":"input"},{"id":"x","op":"input"},{"id":"y","op":"input"},{"id":"n0","op":"mul"},{"id":"n1","op":"add"}],"edges":[{"from":"a","to":"n0","port":0},{"from":"x","to":"n0","port":1},{"from":"n0","to":"n1","port":0},{"from":"y","to":"n1","port":1}],"outputs":{"r":"n1"},"params":{"name":"axpy"}},"max_muls":2,"max_adds":2,"max_subs":0,"encodings":["binary"],"p":[0.5],"sd_ld":[0.75],"skew":[0],"trials":400,"width":16,"seed":2003}"#,
                "af08ea798cb37cce",
            ),
            (
                r#"{"endpoint":"explore","dfg":{"nodes":[{"id":"a","op":"input"},{"id":"x","op":"input"},{"id":"y","op":"input"},{"id":"n0","op":"mul"},{"id":"n1","op":"add"}],"edges":[{"from":"a","to":"n0","port":0},{"from":"x","to":"n0","port":1},{"from":"n0","to":"n1","port":0},{"from":"y","to":"n1","port":1}],"outputs":{"r":"n1"},"params":{"name":"axpy"}},"max_muls":2,"max_adds":2,"max_subs":0,"encodings":["binary"],"p":[0.5],"sd_ld":[0.75],"skew":[0],"trials":400,"width":16,"seed":2003}"#,
                "af08ea798cb37cce",
            ),
            (
                r#"{"endpoint":"resilience","dfg":"diffeq","muls":2,"adds":1,"subs":1,"binding":"left-edge","p":0.25,"trials":64,"seed":2003,"styles":["dist","elastic"],"skew":1,"sync_latency":1}"#,
                "5d0ad78117456160",
            ),
        ];
        for ((endpoint, text), (key, id)) in specs.iter().zip(pinned) {
            let spec = parse(*endpoint, text).expect(text);
            assert_eq!(spec.cache_key(), key, "{text}");
            assert_eq!(spec.job_id(), id, "{text}");
        }
    }
}
