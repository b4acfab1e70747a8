//! The staged synthesis pipeline: typed pass artifacts with deterministic
//! content hashes and a content-addressed stage cache.
//!
//! The paper's flow is inherently staged — DFG → ordering (Fig 3b) →
//! binding with schedule arcs (Fig 3c) → per-unit controller generation
//! (§4) → logic synthesis and area reports (Table 1). This module makes
//! each pass an explicit [`Stage`] over a typed artifact chain:
//!
//! | # | stage          | artifact             | content summarized in the hash |
//! |---|----------------|----------------------|--------------------------------|
//! | 1 | `canonicalize` | [`CanonicalDfg`]     | DFG, allocation, bind strategy |
//! | 2 | `order`        | [`OrderedDfg`]       | per-unit operation sequences   |
//! | 3 | `bind`         | [`BoundDesign`]      | schedule steps + schedule arcs |
//! | 4 | `controllers`  | [`ControlUnits`]     | D-FSMs, CENT-SYNC, opt. CENT   |
//! | 5 | `logic`        | [`SynthesizedLogic`] | encoded covers, FF counts, GE  |
//! | 6 | `report`       | [`Reports`]          | Table-1-style area rows        |
//!
//! Every artifact carries a 64-bit FNV-1a hash over a canonical byte
//! encoding of its content, chained with the producing stage's input hash
//! (the same content-addressing discipline as `jobspec::cache_key`). Equal
//! inputs therefore yield an identical artifact-hash chain on any thread
//! count and any machine, which makes stage outputs safe to reuse through
//! a [`StageCache`]: two synthesis requests that differ only in `encoding`
//! share every artifact up to [`ControlUnits`] and diverge at the `logic`
//! stage (prefix reuse).

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tauhls_dfg::{Dfg, OpId, Operand};
use tauhls_fsm::{
    cent_sync_fsm, combined_vars, synchronous_product, synthesize, DistributedControlUnit,
    Encoding, Fsm, SynthesizedFsm,
};
use tauhls_logic::{AreaModel, MAX_VARS};
use tauhls_sched::{chain_sequences, left_edge_sequences, Allocation, BoundDfg, UnitId};

use crate::pipeline::SynthesisError;

/// The stage names, in pipeline order (the `stage` label space used by
/// [`StageRecord`] and the serve-layer metrics).
pub const STAGE_NAMES: [&str; 6] = [
    "canonicalize",
    "order",
    "bind",
    "controllers",
    "logic",
    "report",
];

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

/// The content hasher every artifact hash, cache key and job id uses
/// (64-bit FNV-1a; defined beside the wire hash in `tauhls-dfg`).
pub use tauhls_dfg::Fnv64;

fn hash_operand(h: &mut Fnv64, o: Operand) {
    match o {
        Operand::Input(i) => {
            h.write(&[0]);
            h.write_usize(i.0);
        }
        Operand::Const(c) => {
            h.write(&[1]);
            h.write(&c.to_le_bytes());
        }
        Operand::Op(p) => {
            h.write(&[2]);
            h.write_usize(p.0);
        }
    }
}

fn hash_dfg(h: &mut Fnv64, dfg: &Dfg) {
    h.write_str(dfg.name());
    h.write_usize(dfg.num_inputs());
    for name in dfg.input_names() {
        h.write_str(name);
    }
    h.write_usize(dfg.num_ops());
    for op in dfg.ops() {
        h.write_str(op.kind.symbol());
        hash_operand(h, op.lhs);
        hash_operand(h, op.rhs);
    }
    h.write_usize(dfg.outputs().len());
    for (name, op) in dfg.outputs() {
        h.write_str(name);
        h.write_usize(op.0);
    }
}

fn hash_allocation(h: &mut Fnv64, alloc: &Allocation) {
    let units = alloc.units();
    h.write_usize(units.len());
    for u in units {
        h.write_str(u.class.short_name());
        h.write(&[u8::from(u.telescopic)]);
    }
}

fn hash_sequences(h: &mut Fnv64, sequences: &[Vec<OpId>]) {
    h.write_usize(sequences.len());
    for seq in sequences {
        h.write_usize(seq.len());
        for &o in seq {
            h.write_usize(o.0);
        }
    }
}

fn hash_fsm(h: &mut Fnv64, fsm: &Fsm) {
    h.write_str(fsm.name());
    h.write_usize(fsm.num_states());
    h.write_usize(fsm.initial().0);
    h.write_usize(fsm.inputs().len());
    for name in fsm.inputs() {
        h.write_str(name);
    }
    h.write_usize(fsm.outputs().len());
    for name in fsm.outputs() {
        h.write_str(name);
    }
    h.write_usize(fsm.transitions().len());
    for t in fsm.transitions() {
        h.write_usize(t.from.0);
        h.write_usize(t.to.0);
        // Guards are canonical expression trees; the Debug rendering is a
        // faithful serialization of that structure.
        h.write_str(&format!("{:?}", t.guard));
        h.write_usize(t.outputs.len());
        for &o in &t.outputs {
            h.write_usize(o);
        }
    }
}

fn hash_synthesized(h: &mut Fnv64, syn: &SynthesizedFsm) {
    h.write_str(syn.name());
    h.write_usize(syn.num_states());
    h.write_usize(syn.flip_flops());
    h.write_u64(syn.initial_code());
    let area = syn.area();
    h.write_u64(area.combinational.to_bits());
    h.write_u64(area.sequential.to_bits());
    h.write_usize(area.flip_flops);
    h.write_u64(u64::from(area.literals));
}

fn encoding_tag(encoding: Encoding) -> u8 {
    match encoding {
        Encoding::Binary => 0,
        Encoding::Gray => 1,
        Encoding::OneHot => 2,
    }
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// How operations are ordered onto unit instances (the pipeline's only
/// front-end degree of freedom besides the allocation itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindStrategy {
    /// List schedule + arc-avoiding left-edge assignment
    /// ([`BoundDfg::bind`]).
    LeftEdge,
    /// Minimum chain cover with least-loaded merging
    /// ([`BoundDfg::bind_chains`]).
    Chains,
    /// Explicit per-unit sequences, e.g. the paper's hand bindings
    /// ([`BoundDfg::bind_explicit`]).
    Explicit(Vec<Vec<OpId>>),
}

/// The validated synthesis request: stage 1's output and the root of the
/// artifact-hash chain.
#[derive(Clone, Debug)]
pub struct CanonicalDfg {
    dfg: Dfg,
    allocation: Allocation,
    strategy: BindStrategy,
    hash: u64,
}

impl CanonicalDfg {
    /// The dataflow graph.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The resource allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The binding strategy.
    pub fn strategy(&self) -> &BindStrategy {
        &self.strategy
    }

    /// The artifact content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Per-unit operation sequences (Fig 3b's chain structure): stage 2's
/// output, before schedule arcs are materialized.
#[derive(Clone, Debug)]
pub struct OrderedDfg {
    canonical: Arc<CanonicalDfg>,
    sequences: Vec<Vec<OpId>>,
    hash: u64,
}

impl OrderedDfg {
    /// The canonical request this ordering was derived from.
    pub fn canonical(&self) -> &Arc<CanonicalDfg> {
        &self.canonical
    }

    /// The per-unit execution orders, indexed by [`Allocation::units`].
    pub fn sequences(&self) -> &[Vec<OpId>] {
        &self.sequences
    }

    /// The artifact content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// The scheduled-and-bound design (Fig 3c): stage 3's output.
#[derive(Clone, Debug)]
pub struct BoundDesign {
    bound: BoundDfg,
    hash: u64,
}

impl BoundDesign {
    /// The bound DFG (schedule, unit assignment, schedule arcs).
    pub fn bound(&self) -> &BoundDfg {
        &self.bound
    }

    /// The artifact content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// All generated controllers (paper §4): stage 4's output.
#[derive(Clone, Debug)]
pub struct ControlUnits {
    design: Arc<BoundDesign>,
    distributed: DistributedControlUnit,
    cent_sync: Fsm,
    centralized: Option<Fsm>,
    hash: u64,
}

impl ControlUnits {
    /// The bound design the controllers were generated from.
    pub fn design(&self) -> &Arc<BoundDesign> {
        &self.design
    }

    /// The distributed control unit (the paper's proposal).
    pub fn distributed(&self) -> &DistributedControlUnit {
        &self.distributed
    }

    /// The synchronized centralized controller (CENT-SYNC / TAUBM style).
    pub fn cent_sync(&self) -> &Fsm {
        &self.cent_sync
    }

    /// The centralized product FSM, when requested.
    pub fn centralized(&self) -> Option<&Fsm> {
        self.centralized.as_ref()
    }

    /// The artifact content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Gate-level realizations of every controller under one encoding:
/// stage 5's output.
#[derive(Clone, Debug)]
pub struct SynthesizedLogic {
    controls: Arc<ControlUnits>,
    encoding: Encoding,
    controllers: Vec<(UnitId, SynthesizedFsm)>,
    cent_sync: SynthesizedFsm,
    centralized: Option<SynthesizedFsm>,
    hash: u64,
}

impl SynthesizedLogic {
    /// The symbolic controllers this logic realizes.
    pub fn controls(&self) -> &Arc<ControlUnits> {
        &self.controls
    }

    /// The state encoding used.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The synthesized distributed controllers, one per occupied unit.
    pub fn controllers(&self) -> &[(UnitId, SynthesizedFsm)] {
        &self.controllers
    }

    /// The synthesized CENT-SYNC controller.
    pub fn cent_sync(&self) -> &SynthesizedFsm {
        &self.cent_sync
    }

    /// The synthesized centralized product, when it was generated.
    pub fn centralized(&self) -> Option<&SynthesizedFsm> {
        self.centralized.as_ref()
    }

    /// The artifact content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// One Table-1-style area row.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRow {
    /// Controller name (CENT-FSM, CENT-SYNC-FSM, DIST-FSM, D-FSM-*).
    pub name: String,
    /// Input signal count.
    pub inputs: usize,
    /// Output signal count.
    pub outputs: usize,
    /// Symbolic state count.
    pub states: usize,
    /// Flip-flop count under the chosen encoding.
    pub flip_flops: usize,
    /// Combinational area (gate equivalents).
    pub area_combinational: f64,
    /// Sequential area (gate equivalents).
    pub area_sequential: f64,
}

/// The Table-1-style area report: stage 6's output and the end of the
/// artifact chain.
#[derive(Clone, Debug)]
pub struct Reports {
    rows: Vec<ReportRow>,
    hash: u64,
}

impl Reports {
    /// The area rows: CENT-FSM (when generated), CENT-SYNC-FSM, the
    /// aggregate DIST-FSM, then the component D-FSMs.
    pub fn rows(&self) -> &[ReportRow] {
        &self.rows
    }

    /// The artifact content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

// ---------------------------------------------------------------------------
// The Stage abstraction
// ---------------------------------------------------------------------------

/// One pass of the synthesis pipeline: a pure function from an input
/// artifact (plus the stage's own parameters) to an output artifact.
///
/// `input_hash` must absorb *everything* `apply` depends on — the upstream
/// artifact hash and any stage parameters — because it is the stage-cache
/// key: equal input hashes are contractually interchangeable outputs.
pub trait Stage {
    /// The consumed artifact (plus request parameters for the first stage).
    type Input;
    /// The produced artifact.
    type Output: Send + Sync + 'static;

    /// The stage's label in traces, metrics, and cache keys.
    fn name(&self) -> &'static str;

    /// Hash of the input artifact combined with the stage parameters.
    fn input_hash(&self, input: &Self::Input) -> u64;

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when the input is invalid for this
    /// stage (bad allocation, inconsistent explicit binding, ...).
    fn apply(&self, input: &Self::Input) -> Result<Self::Output, SynthesisError>;

    /// The produced artifact's content hash.
    fn output_hash(&self, output: &Self::Output) -> u64;
}

/// One executed (or cache-served) stage: the trace entry emitted by
/// [`run_stage`].
#[derive(Clone, Debug)]
pub struct StageRecord {
    /// Stage label (one of [`STAGE_NAMES`]).
    pub stage: &'static str,
    /// Hash of the stage's input artifact + parameters.
    pub input_hash: u64,
    /// Content hash of the produced artifact.
    pub output_hash: u64,
    /// Wall time spent (near zero on a stage-cache hit).
    pub wall: Duration,
    /// Whether the output came from a [`StageCache`].
    pub cache_hit: bool,
}

/// The ordered stage records of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineTrace {
    /// One record per executed stage, in execution order.
    pub records: Vec<StageRecord>,
}

impl PipelineTrace {
    /// The artifact-hash chain: `(stage, output_hash)` in stage order.
    pub fn hash_chain(&self) -> Vec<(&'static str, u64)> {
        self.records
            .iter()
            .map(|r| (r.stage, r.output_hash))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The stage cache
// ---------------------------------------------------------------------------

struct StageCacheEntry {
    value: Arc<dyn Any + Send + Sync>,
    output_hash: u64,
    stamp: u64,
}

struct StageCacheInner {
    map: HashMap<(&'static str, u64), StageCacheEntry>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

/// A content-addressed cache of stage outputs, keyed by
/// `(stage name, input hash)`.
///
/// Because stage input hashes absorb the full upstream artifact chain plus
/// stage parameters, a hit is interchangeable with recomputation. Entries
/// are evicted least-recently-used once `capacity` is exceeded. All
/// methods are `&self` and thread-safe; the cache is meant to be shared
/// across requests (the serve layer holds one per process).
pub struct StageCache {
    capacity: usize,
    inner: Mutex<StageCacheInner>,
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries())
            .finish()
    }
}

impl StageCache {
    /// Creates a cache holding at most `capacity` stage outputs
    /// (a zero capacity disables insertion entirely).
    pub fn new(capacity: usize) -> Self {
        StageCache {
            capacity,
            inner: Mutex::new(StageCacheInner {
                map: HashMap::new(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StageCacheInner> {
        // A poisoned stage cache only ever holds immutable finished
        // artifacts, so continuing with the data is sound.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a stage output, bumping its recency on a hit. Returns the
    /// artifact and its content hash.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        input_hash: u64,
    ) -> Option<(Arc<T>, u64)> {
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        match inner.map.get_mut(&(stage, input_hash)) {
            Some(entry) => {
                entry.stamp = stamp;
                let value = Arc::clone(&entry.value).downcast::<T>().ok()?;
                let output_hash = entry.output_hash;
                inner.hits += 1;
                Some((value, output_hash))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a stage output, evicting the least-recently-used entries
    /// when the capacity is exceeded.
    pub fn insert<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        input_hash: u64,
        value: Arc<T>,
        output_hash: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.map.insert(
            (stage, input_hash),
            StageCacheEntry {
                value,
                output_hash,
                stamp,
            },
        );
        while inner.map.len() > self.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            match oldest {
                Some(k) => inner.map.remove(&k),
                None => break,
            };
        }
    }

    /// Number of cached stage outputs.
    pub fn entries(&self) -> usize {
        self.lock().map.len()
    }

    /// Lifetime lookup hits.
    pub fn hit_count(&self) -> u64 {
        self.lock().hits
    }

    /// Lifetime lookup misses.
    pub fn miss_count(&self) -> u64 {
        self.lock().misses
    }
}

/// Drives one stage: consult `cache`, run `apply` on a miss, store the
/// output, and append a [`StageRecord`] to `trace`.
///
/// # Errors
///
/// Propagates the stage's [`SynthesisError`].
pub fn run_stage<S: Stage>(
    stage: &S,
    input: &S::Input,
    cache: Option<&StageCache>,
    trace: &mut PipelineTrace,
) -> Result<Arc<S::Output>, SynthesisError> {
    let input_hash = stage.input_hash(input);
    let start = Instant::now();
    if let Some(cache) = cache {
        if let Some((value, output_hash)) = cache.get::<S::Output>(stage.name(), input_hash) {
            trace.records.push(StageRecord {
                stage: stage.name(),
                input_hash,
                output_hash,
                wall: start.elapsed(),
                cache_hit: true,
            });
            return Ok(value);
        }
    }
    let output = stage.apply(input)?;
    let output_hash = stage.output_hash(&output);
    let value = Arc::new(output);
    if let Some(cache) = cache {
        cache.insert(stage.name(), input_hash, Arc::clone(&value), output_hash);
    }
    trace.records.push(StageRecord {
        stage: stage.name(),
        input_hash,
        output_hash,
        wall: start.elapsed(),
        cache_hit: false,
    });
    Ok(value)
}

// ---------------------------------------------------------------------------
// The concrete stages
// ---------------------------------------------------------------------------

/// The raw synthesis request consumed by [`Canonicalize`].
#[derive(Clone, Debug)]
pub struct SynthesisInput {
    /// The dataflow graph.
    pub dfg: Dfg,
    /// The resource allocation.
    pub allocation: Allocation,
    /// The binding strategy.
    pub strategy: BindStrategy,
}

/// Stage 1: validates the request and roots the artifact-hash chain.
#[derive(Clone, Copy, Debug)]
pub struct Canonicalize;

impl Stage for Canonicalize {
    type Input = SynthesisInput;
    type Output = CanonicalDfg;

    fn name(&self) -> &'static str {
        "canonicalize"
    }

    fn input_hash(&self, input: &SynthesisInput) -> u64 {
        let mut h = Fnv64::new();
        hash_dfg(&mut h, &input.dfg);
        hash_allocation(&mut h, &input.allocation);
        match &input.strategy {
            BindStrategy::LeftEdge => h.write(&[0]),
            BindStrategy::Chains => h.write(&[1]),
            BindStrategy::Explicit(seqs) => {
                h.write(&[2]);
                hash_sequences(&mut h, seqs);
            }
        }
        h.finish()
    }

    fn apply(&self, input: &SynthesisInput) -> Result<CanonicalDfg, SynthesisError> {
        if input.dfg.num_ops() == 0 {
            return Err(SynthesisError::InvalidConfig(format!(
                "graph '{}' has no operations to synthesize",
                input.dfg.name()
            )));
        }
        if !input.allocation.covers(&input.dfg) {
            return Err(SynthesisError::InsufficientAllocation);
        }
        let mut h = Fnv64::new();
        h.write_str("canonicalize");
        h.write_u64(self.input_hash(input));
        Ok(CanonicalDfg {
            dfg: input.dfg.clone(),
            allocation: input.allocation.clone(),
            strategy: input.strategy.clone(),
            hash: h.finish(),
        })
    }

    fn output_hash(&self, output: &CanonicalDfg) -> u64 {
        output.hash
    }
}

/// Stage 2: computes per-unit operation sequences under the strategy.
#[derive(Clone, Copy, Debug)]
pub struct Order;

impl Stage for Order {
    type Input = Arc<CanonicalDfg>;
    type Output = OrderedDfg;

    fn name(&self) -> &'static str {
        "order"
    }

    fn input_hash(&self, input: &Arc<CanonicalDfg>) -> u64 {
        input.hash
    }

    fn apply(&self, input: &Arc<CanonicalDfg>) -> Result<OrderedDfg, SynthesisError> {
        let sequences = match &input.strategy {
            BindStrategy::LeftEdge => left_edge_sequences(&input.dfg, &input.allocation),
            BindStrategy::Chains => chain_sequences(&input.dfg, &input.allocation),
            BindStrategy::Explicit(seqs) => seqs.clone(),
        };
        let mut h = Fnv64::new();
        h.write_str("order");
        h.write_u64(input.hash);
        hash_sequences(&mut h, &sequences);
        Ok(OrderedDfg {
            canonical: Arc::clone(input),
            sequences,
            hash: h.finish(),
        })
    }

    fn output_hash(&self, output: &OrderedDfg) -> u64 {
        output.hash
    }
}

/// Stage 3: materializes the binding — schedule arcs, combined
/// reachability, legality checks.
#[derive(Clone, Copy, Debug)]
pub struct Bind;

impl Stage for Bind {
    type Input = Arc<OrderedDfg>;
    type Output = BoundDesign;

    fn name(&self) -> &'static str {
        "bind"
    }

    fn input_hash(&self, input: &Arc<OrderedDfg>) -> u64 {
        input.hash
    }

    fn apply(&self, input: &Arc<OrderedDfg>) -> Result<BoundDesign, SynthesisError> {
        let canonical = input.canonical();
        let bound = BoundDfg::bind_explicit(
            &canonical.dfg,
            &canonical.allocation,
            input.sequences.clone(),
        )
        .map_err(SynthesisError::Binding)?;
        let mut h = Fnv64::new();
        h.write_str("bind");
        h.write_u64(input.hash);
        h.write_usize(bound.schedule_arcs().len());
        for &(a, b) in bound.schedule_arcs() {
            h.write_usize(a.0);
            h.write_usize(b.0);
        }
        for v in bound.dfg().op_ids() {
            h.write_usize(bound.schedule().step(v));
        }
        Ok(BoundDesign {
            bound,
            hash: h.finish(),
        })
    }

    fn output_hash(&self, output: &BoundDesign) -> u64 {
        output.hash
    }
}

/// Stage 4: generates the distributed D-FSMs, CENT-SYNC, and (optionally)
/// the centralized product FSM.
#[derive(Clone, Copy, Debug)]
pub struct GenerateControllers {
    /// Also build the CENT-FSM product (exponential in concurrent TAUs).
    pub centralized: bool,
}

impl Stage for GenerateControllers {
    type Input = Arc<BoundDesign>;
    type Output = ControlUnits;

    fn name(&self) -> &'static str {
        "controllers"
    }

    fn input_hash(&self, input: &Arc<BoundDesign>) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(input.hash);
        h.write(&[u8::from(self.centralized)]);
        h.finish()
    }

    fn apply(&self, input: &Arc<BoundDesign>) -> Result<ControlUnits, SynthesisError> {
        let bound = input.bound();
        let distributed = DistributedControlUnit::generate(bound);
        let cent_sync = cent_sync_fsm(bound);
        let centralized = self.centralized.then(|| {
            // Fig 4(a)-style CENT-FSM: synchronous product of *single-shot*
            // controllers (one DFG iteration, absorbing DONE) with state
            // minimization — the canonical centralized machine tracking
            // every TAU's completion independently.
            let mut fsms: Vec<Fsm> = (0..bound.allocation().units().len())
                .filter(|&u| !bound.sequence(UnitId(u)).is_empty())
                .map(|u| tauhls_fsm::unit_controller_opts(bound, UnitId(u), true))
                .collect();
            tauhls_fsm::optimize_dead_completions(&mut fsms);
            let refs: Vec<&Fsm> = fsms.iter().collect();
            let product = synchronous_product(&format!("CENT({})", bound.dfg().name()), &refs);
            tauhls_fsm::minimize_states(&product)
        });
        let mut h = Fnv64::new();
        h.write_str("controllers");
        h.write_u64(self.input_hash(input));
        h.write_usize(distributed.controllers().len());
        for (unit, fsm) in distributed.controllers() {
            h.write_usize(unit.0);
            hash_fsm(&mut h, fsm);
        }
        hash_fsm(&mut h, &cent_sync);
        match &centralized {
            Some(fsm) => {
                h.write(&[1]);
                hash_fsm(&mut h, fsm);
            }
            None => h.write(&[0]),
        }
        Ok(ControlUnits {
            design: Arc::clone(input),
            distributed,
            cent_sync,
            centralized,
            hash: h.finish(),
        })
    }

    fn output_hash(&self, output: &ControlUnits) -> u64 {
        output.hash
    }
}

/// Stage 5: synthesizes every controller to gates under one encoding.
#[derive(Clone, Copy, Debug)]
pub struct SynthesizeLogic {
    /// The state encoding.
    pub encoding: Encoding,
    /// The gate-equivalent cost model.
    pub model: AreaModel,
}

impl Stage for SynthesizeLogic {
    type Input = Arc<ControlUnits>;
    type Output = SynthesizedLogic;

    fn name(&self) -> &'static str {
        "logic"
    }

    fn input_hash(&self, input: &Arc<ControlUnits>) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(input.hash);
        h.write(&[encoding_tag(self.encoding)]);
        h.write_u64(self.model.and_per_input.to_bits());
        h.write_u64(self.model.or_per_input.to_bits());
        h.write_u64(self.model.inverter.to_bits());
        h.write_u64(self.model.flip_flop.to_bits());
        h.finish()
    }

    fn apply(&self, input: &Arc<ControlUnits>) -> Result<SynthesizedLogic, SynthesisError> {
        let fsms = input.distributed().controllers().iter().map(|(_, fsm)| fsm);
        for fsm in fsms.chain([input.cent_sync()]).chain(input.centralized()) {
            let got = combined_vars(fsm, self.encoding);
            if got > MAX_VARS {
                return Err(SynthesisError::TooLarge {
                    what: format!("controller {}", fsm.name()),
                    limit: MAX_VARS,
                    got,
                });
            }
        }
        let controllers: Vec<(UnitId, SynthesizedFsm)> = input
            .distributed()
            .controllers()
            .iter()
            .map(|(unit, fsm)| (*unit, synthesize(fsm, self.encoding, &self.model)))
            .collect();
        let cent_sync = synthesize(input.cent_sync(), self.encoding, &self.model);
        let centralized = input
            .centralized()
            .map(|fsm| synthesize(fsm, self.encoding, &self.model));
        let mut h = Fnv64::new();
        h.write_str("logic");
        h.write_u64(self.input_hash(input));
        h.write_usize(controllers.len());
        for (unit, syn) in &controllers {
            h.write_usize(unit.0);
            hash_synthesized(&mut h, syn);
        }
        hash_synthesized(&mut h, &cent_sync);
        match &centralized {
            Some(syn) => {
                h.write(&[1]);
                hash_synthesized(&mut h, syn);
            }
            None => h.write(&[0]),
        }
        Ok(SynthesizedLogic {
            controls: Arc::clone(input),
            encoding: self.encoding,
            controllers,
            cent_sync,
            centralized,
            hash: h.finish(),
        })
    }

    fn output_hash(&self, output: &SynthesizedLogic) -> u64 {
        output.hash
    }
}

/// Stage 6: folds the synthesized logic into Table-1-style area rows.
#[derive(Clone, Copy, Debug)]
pub struct Report;

impl Stage for Report {
    type Input = Arc<SynthesizedLogic>;
    type Output = Reports;

    fn name(&self) -> &'static str {
        "report"
    }

    fn input_hash(&self, input: &Arc<SynthesizedLogic>) -> u64 {
        input.hash
    }

    fn apply(&self, input: &Arc<SynthesizedLogic>) -> Result<Reports, SynthesisError> {
        let controls = input.controls();
        let mut rows = Vec::new();
        if let (Some(fsm), Some(syn)) = (controls.centralized(), input.centralized()) {
            rows.push(report_row("CENT-FSM", fsm, syn));
        }
        rows.push(report_row(
            "CENT-SYNC-FSM",
            controls.cent_sync(),
            input.cent_sync(),
        ));

        let units = controls.design().bound().allocation().units();
        let mut dist = ReportRow {
            name: "DIST-FSM".to_string(),
            inputs: 0,
            outputs: 0,
            states: 0,
            flip_flops: 0,
            area_combinational: 0.0,
            area_sequential: 0.0,
        };
        let mut component_rows = Vec::new();
        let mut in_names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut out_names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for ((unit, fsm), (_, syn)) in controls
            .distributed()
            .controllers()
            .iter()
            .zip(input.controllers())
        {
            let row = report_row(&format!("D-FSM-{}", units[unit.0].display_name()), fsm, syn);
            dist.states += row.states;
            dist.flip_flops += row.flip_flops;
            dist.area_combinational += row.area_combinational;
            dist.area_sequential += row.area_sequential;
            in_names.extend(fsm.inputs().iter().cloned());
            out_names.extend(fsm.outputs().iter().cloned());
            component_rows.push(row);
        }
        dist.inputs = in_names.len();
        dist.outputs = out_names.len();
        rows.push(dist);
        rows.extend(component_rows);

        let mut h = Fnv64::new();
        h.write_str("report");
        h.write_u64(input.hash);
        h.write_usize(rows.len());
        for row in &rows {
            h.write_str(&row.name);
            h.write_usize(row.inputs);
            h.write_usize(row.outputs);
            h.write_usize(row.states);
            h.write_usize(row.flip_flops);
            h.write_u64(row.area_combinational.to_bits());
            h.write_u64(row.area_sequential.to_bits());
        }
        Ok(Reports {
            rows,
            hash: h.finish(),
        })
    }

    fn output_hash(&self, output: &Reports) -> u64 {
        output.hash
    }
}

fn report_row(name: &str, fsm: &Fsm, syn: &SynthesizedFsm) -> ReportRow {
    ReportRow {
        name: name.to_string(),
        inputs: fsm.inputs().len(),
        outputs: fsm.outputs().len(),
        states: fsm.num_states(),
        flip_flops: syn.flip_flops(),
        area_combinational: syn.area().combinational,
        area_sequential: syn.area().sequential,
    }
}

// ---------------------------------------------------------------------------
// Full-chain driver
// ---------------------------------------------------------------------------

/// Runs the front half of the pipeline (stages 1–4), producing the
/// controllers every downstream consumer shares.
///
/// # Errors
///
/// Returns a [`SynthesisError`] if the request is invalid or the binding
/// is inconsistent.
pub fn run_front(
    input: &SynthesisInput,
    centralized: bool,
    cache: Option<&StageCache>,
    trace: &mut PipelineTrace,
) -> Result<Arc<ControlUnits>, SynthesisError> {
    let canonical = run_stage(&Canonicalize, input, cache, trace)?;
    let ordered = run_stage(&Order, &canonical, cache, trace)?;
    let bound = run_stage(&Bind, &ordered, cache, trace)?;
    run_stage(&GenerateControllers { centralized }, &bound, cache, trace)
}

/// Runs the complete six-stage pipeline, producing the area report and
/// the synthesized logic it summarizes.
///
/// # Errors
///
/// Returns a [`SynthesisError`] if the request is invalid or the binding
/// is inconsistent.
pub fn run_full(
    input: &SynthesisInput,
    centralized: bool,
    encoding: Encoding,
    model: &AreaModel,
    cache: Option<&StageCache>,
    trace: &mut PipelineTrace,
) -> Result<(Arc<SynthesizedLogic>, Arc<Reports>), SynthesisError> {
    let controls = run_front(input, centralized, cache, trace)?;
    run_back(&controls, encoding, model, cache, trace)
}

/// Runs the back half of the pipeline (stages 5–6) on the controllers of
/// [`run_front`], so one front serves every encoding.
///
/// # Errors
///
/// As [`run_full`].
pub fn run_back(
    controls: &Arc<ControlUnits>,
    encoding: Encoding,
    model: &AreaModel,
    cache: Option<&StageCache>,
    trace: &mut PipelineTrace,
) -> Result<(Arc<SynthesizedLogic>, Arc<Reports>), SynthesisError> {
    let logic = run_stage(
        &SynthesizeLogic {
            encoding,
            model: *model,
        },
        controls,
        cache,
        trace,
    )?;
    let reports = run_stage(&Report, &logic, cache, trace)?;
    Ok((logic, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::{diffeq, fir3};

    fn input(dfg: Dfg, alloc: Allocation) -> SynthesisInput {
        SynthesisInput {
            dfg,
            allocation: alloc,
            strategy: BindStrategy::LeftEdge,
        }
    }

    #[test]
    fn hash_chain_is_deterministic() {
        let run = || {
            let mut trace = PipelineTrace::default();
            run_full(
                &input(diffeq(), Allocation::paper(2, 1, 1)),
                false,
                Encoding::Binary,
                &AreaModel::default(),
                None,
                &mut trace,
            )
            .expect("synthesizes");
            trace.hash_chain()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert_eq!(
            a.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            STAGE_NAMES.to_vec()
        );
    }

    #[test]
    fn hashes_separate_different_requests() {
        let chain = |dfg: Dfg, alloc: Allocation, enc: Encoding| {
            let mut trace = PipelineTrace::default();
            run_full(
                &input(dfg, alloc),
                false,
                enc,
                &AreaModel::default(),
                None,
                &mut trace,
            )
            .expect("synthesizes");
            trace.hash_chain()
        };
        let base = chain(fir3(), Allocation::paper(2, 1, 0), Encoding::Binary);
        let other_alloc = chain(fir3(), Allocation::paper(1, 1, 0), Encoding::Binary);
        assert_ne!(base[0].1, other_alloc[0].1, "allocation must enter stage 1");
        let other_enc = chain(fir3(), Allocation::paper(2, 1, 0), Encoding::OneHot);
        // Encoding enters only at the logic stage: the first four artifact
        // hashes are shared, the last two diverge.
        assert_eq!(&base[..4], &other_enc[..4]);
        assert_ne!(base[4].1, other_enc[4].1);
        assert_ne!(base[5].1, other_enc[5].1);
    }

    #[test]
    fn stage_cache_prefix_reuse_across_encodings() {
        let cache = StageCache::new(64);
        let mut cold = PipelineTrace::default();
        run_full(
            &input(fir3(), Allocation::paper(2, 1, 0)),
            false,
            Encoding::Binary,
            &AreaModel::default(),
            Some(&cache),
            &mut cold,
        )
        .expect("synthesizes");
        assert!(cold.records.iter().all(|r| !r.cache_hit));

        // Same request, different encoding: stages 1-4 hit, 5-6 recompute.
        let mut warm = PipelineTrace::default();
        run_full(
            &input(fir3(), Allocation::paper(2, 1, 0)),
            false,
            Encoding::Gray,
            &AreaModel::default(),
            Some(&cache),
            &mut warm,
        )
        .expect("synthesizes");
        let hits: Vec<_> = warm
            .records
            .iter()
            .filter(|r| r.cache_hit)
            .map(|r| r.stage)
            .collect();
        assert_eq!(hits, ["canonicalize", "order", "bind", "controllers"]);
        // The shared prefix reproduces the cold run's exact hashes.
        for (c, w) in cold.records.iter().zip(&warm.records).take(4) {
            assert_eq!(c.output_hash, w.output_hash);
        }
        assert_ne!(cold.records[4].output_hash, warm.records[4].output_hash);

        // Replaying the cold request end-to-end is now all hits.
        let mut replay = PipelineTrace::default();
        run_full(
            &input(fir3(), Allocation::paper(2, 1, 0)),
            false,
            Encoding::Binary,
            &AreaModel::default(),
            Some(&cache),
            &mut replay,
        )
        .expect("synthesizes");
        assert!(replay.records.iter().all(|r| r.cache_hit));
        for (c, r) in cold.records.iter().zip(&replay.records) {
            assert_eq!(c.output_hash, r.output_hash);
        }
    }

    #[test]
    fn stage_cache_evicts_least_recently_used() {
        let cache = StageCache::new(2);
        cache.insert("canonicalize", 1, Arc::new(1u32), 10);
        cache.insert("canonicalize", 2, Arc::new(2u32), 20);
        // Touch key 1 so key 2 is the eviction victim.
        assert!(cache.get::<u32>("canonicalize", 1).is_some());
        cache.insert("canonicalize", 3, Arc::new(3u32), 30);
        assert_eq!(cache.entries(), 2);
        assert!(cache.get::<u32>("canonicalize", 2).is_none());
        assert!(cache.get::<u32>("canonicalize", 1).is_some());
        assert!(cache.get::<u32>("canonicalize", 3).is_some());
    }

    #[test]
    fn empty_graph_is_invalid_config() {
        let empty = tauhls_dfg::DfgBuilder::new("empty").build().expect("valid");
        let mut trace = PipelineTrace::default();
        let err = run_front(
            &input(empty, Allocation::paper(1, 1, 0)),
            false,
            None,
            &mut trace,
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("no operations"), "{err}");
    }

    #[test]
    fn over_wide_controller_is_too_large_not_a_panic() {
        // One adder runs a chain of 100 adds: 100 states, so one-hot needs
        // 100 state bits while binary needs 7.
        let mut text = String::from("dfg chain\ninput x\ninput y\nop c0 = add x y\n");
        for i in 1..100 {
            text += &format!("op c{i} = add c{} y\n", i - 1);
        }
        let chain = tauhls_dfg::parse_dfg(&(text + "output o c99\n")).expect("valid");
        let logic = |encoding| {
            let mut trace = PipelineTrace::default();
            let input = input(chain.clone(), Allocation::paper(1, 1, 0));
            run_full(
                &input,
                false,
                encoding,
                &AreaModel::default(),
                None,
                &mut trace,
            )
        };
        let err = logic(Encoding::OneHot).unwrap_err();
        assert_eq!(
            err,
            SynthesisError::TooLarge {
                what: "controller D-FSM-A1".to_string(),
                limit: MAX_VARS,
                got: 100,
            }
        );
        assert!(logic(Encoding::Binary).is_ok());
    }
}
