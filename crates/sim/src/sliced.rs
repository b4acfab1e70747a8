//! Bit-sliced execution: up to 64 Monte-Carlo trials per `u64` word.
//!
//! The scalar engines in this crate advance one trial at a time, paying
//! the full controller-stepping cost (transition filtering, guard
//! evaluation through string-keyed input closures, per-step output
//! clones) once per trial per cycle. This module transposes the data:
//! trial `t` of a batch lives in bit position `t` of every word, so one
//! word-wide guard evaluation advances up to [`LANES`] trials at once —
//! the same transposed-bit-plane trick used by bit-parallel fault
//! simulators.
//!
//! # Contract
//!
//! The sliced engine is **bit-identical to the scalar kernel, per lane**:
//! for every trial it produces exactly the outcome the scalar engine
//! would (same RNG stream, same fault overlay, same cycle accounting) —
//! a [`LaneOutcome::Done`] result, or a [`LaneOutcome::Failed`] deadlock
//! or desync whose [`crate::Diagnostics`] (cycle, reason, controller
//! states, done flags, outstanding ops, pulse wavefront) it builds from
//! its bit-planes in the cycle it detects the fault. Only three cases
//! report [`LaneOutcome::Fallback`], meaning the caller must re-run the
//! trial through the scalar engine: a model the scalar engine rejects as
//! `InvalidConfig`, a controller state name outside the `S`/`R`
//! convention (`UnknownState`), and the whole runs [`SlicedSim::run`]
//! declines. Fallback is always sound: the scalar re-run *is* the
//! oracle, so over-falling-back can cost speed but never correctness.
//!
//! # Layout
//!
//! * Completion state (`done`, `pulses`, `injected`, `next`) is one
//!   `u64` per op: bit `t` = trial `t`.
//! * Completion models are transposed once per run: every lane whose
//!   model draws nothing (a table, a fixed case, operand-driven units)
//!   reads one bit-plane per op, so sampling it is one AND; only
//!   Bernoulli lanes draw, one RNG call per lane and sample.
//! * Per-trial scalar quantities (`start_cycle`, `completion_cycle`,
//!   `unit_busy`) are stride-64 arrays indexed `op * 64 + t`.
//! * Controller state is an *occupancy list* per controller: `(state,
//!   lane mask)` groups, rebuilt each cycle from the transitions taken.
//!   Lanes sharing a state share one guard evaluation, over input words
//!   built once per controller and fixpoint round for all live lanes.
//! * The same-cycle pulse fixpoint is incremental. After round 0 it
//!   re-steps only the controllers with a `C_CO` input whose pulse word
//!   changed in the round before, and rebuilds the wavefront from every
//!   controller's kept result enables. Under latched visibility `C_CO`
//!   reads no pulses, so no controller re-steps.
//! * Operand values and data-predecessor lists are built once per
//!   [`SlicedSim`], and [`SlicedSim::run`] refills the vectors of the
//!   `Done` results its caller's outcome buffer holds, so a reused
//!   simulator and buffer allocate no result buffers per run.
//!
//! Faults are whole-word overlays with per-lane masks
//! ([`LaneConfigs`]), applied after the completion-model draws exactly
//! like the scalar kernel, so RNG streams stay plan-independent. Each
//! pass with a faulty lane starts by building a fault index: per op and
//! per controller, the lanes whose plan names it, by fault kind. A query
//! (stuck, drop, delay, spurious, flip, clock stall) then asks only those
//! lanes' plans, not every faulty lane's; the [`FaultPlan`] methods still
//! decide every answer. A fault-free pass builds nothing.

use crate::centsync::cent_sync_diag;
use crate::distributed::{controller_snapshot, operand_values, parse_phase, Phase};
use crate::error::{Diagnostics, SimError};
use crate::fault::{FaultKind, FaultPlan, SimConfig};
use crate::kernel::{ClockFabric, DiagMode, ElasticSpec};
use crate::latency::Engine;
use crate::model::CompletionModel;
use crate::result::SimResult;
use rand::rngs::StdRng;
use rand::Rng;
use tauhls_dfg::{Dfg, OpId, TaubmDfg};
use tauhls_fsm::{DistributedControlUnit, Fsm, FsmError, StateId};
use tauhls_logic::Expr;
use tauhls_sched::BoundDfg;

/// Maximum trials per sliced run: one per bit of a `u64`.
pub const LANES: usize = 64;

/// Outcome of one lane (trial) of a sliced single-iteration run.
#[derive(Clone, Debug, PartialEq)]
pub enum LaneOutcome {
    /// The lane completed; the result is bit-identical to the scalar
    /// engine's for the same trial RNG and config.
    Done(SimResult),
    /// The lane failed: the [`SimError::Deadlock`] or
    /// [`SimError::Desync`] the scalar engine reports for the same trial,
    /// diagnostics included, field for field.
    Failed(SimError),
    /// The sliced engine declined the lane: its model is one the scalar
    /// engine rejects as [`SimError::InvalidConfig`], a controller state
    /// name falls outside the `S`/`R` convention
    /// ([`SimError::UnknownState`]), or [`SlicedSim::run`] declined the
    /// whole run. Re-run the trial through the scalar engine.
    Fallback,
}

impl LaneOutcome {
    /// The lane's outcome as the scalar engine reports it; `None` when it
    /// fell back.
    pub fn result(&self) -> Option<Result<&SimResult, &SimError>> {
        match self {
            LaneOutcome::Done(r) => Some(Ok(r)),
            LaneOutcome::Failed(e) => Some(Err(e)),
            LaneOutcome::Fallback => None,
        }
    }
}

/// Completion models per lane: one shared model (the common batch case)
/// or one model per lane (coupled-table comparisons, resilience sweeps).
#[derive(Clone, Copy, Debug)]
pub enum LaneModels<'a> {
    /// Every lane draws from the same model.
    Shared(&'a CompletionModel),
    /// Lane `t` draws from `models[t]`; the slice length must equal the
    /// number of RNG lanes passed to the run.
    PerLane(&'a [CompletionModel]),
}

impl LaneModels<'_> {
    /// Lane `t`'s model.
    pub(crate) fn model(&self, t: usize) -> &CompletionModel {
        match self {
            LaneModels::Shared(m) => m,
            LaneModels::PerLane(ms) => &ms[t],
        }
    }

    /// Lanes whose model fails [`CompletionModel::validate`] (the scalar
    /// engine reports `InvalidConfig` for them — they fall back).
    fn invalid_mask(&self, num_ops: usize, lanes: usize) -> u64 {
        match self {
            LaneModels::Shared(m) => {
                if m.validate(num_ops).is_err() {
                    lane_mask(lanes)
                } else {
                    0
                }
            }
            LaneModels::PerLane(ms) => {
                let mut bad = 0u64;
                for (t, m) in ms.iter().enumerate().take(lanes) {
                    if m.validate(num_ops).is_err() {
                        bad |= 1u64 << t;
                    }
                }
                bad
            }
        }
    }
}

/// One pass's completion models, transposed: every lane whose model
/// draws nothing (a table, a fixed case, operand-driven units, all fixed
/// per op under zero inputs) reads one bit-plane per op, and only the
/// Bernoulli lanes draw from their RNG.
#[derive(Default)]
struct Draws {
    /// Per op: the completion bit of every lane whose model is fixed.
    planes: Vec<u64>,
    /// The lanes that draw, and each drawing lane's `P`.
    drawn: u64,
    p: Vec<f64>,
}

impl Draws {
    /// Transposes the models of the lanes in `valid` over `dfg`'s ops.
    fn fill(&mut self, models: &LaneModels<'_>, dfg: &Dfg, opvals: &[(i64, i64)], valid: u64) {
        reset_words(&mut self.planes, dfg.num_ops());
        self.p.clear();
        self.p.resize(LANES, 0.0);
        self.drawn = 0;
        if valid == 0 {
            return;
        }
        match models {
            LaneModels::Shared(m) => self.add(m, valid, dfg, opvals),
            LaneModels::PerLane(ms) => {
                for t in BitIter(valid) {
                    self.add(&ms[t], 1u64 << t, dfg, opvals);
                }
            }
        }
    }

    fn add(&mut self, model: &CompletionModel, lanes: u64, dfg: &Dfg, opvals: &[(i64, i64)]) {
        match model {
            CompletionModel::Bernoulli { p } => {
                self.drawn |= lanes;
                for t in BitIter(lanes) {
                    self.p[t] = *p;
                }
            }
            // One table per lane is the coupled comparison's hot case.
            CompletionModel::Table(table) => {
                for (plane, &short) in self.planes.iter_mut().zip(table) {
                    *plane |= lanes & u64::from(short).wrapping_neg();
                }
            }
            fixed => {
                for (op, plane) in self.planes.iter_mut().enumerate() {
                    let (lhs, rhs) = opvals[op];
                    let kind = dfg.op(OpId(op)).kind;
                    if fixed.fixed_completion(OpId(op), kind, lhs, rhs) == Ok(true) {
                        *plane |= lanes;
                    }
                }
            }
        }
    }

    /// The completion word of `op` over the lanes in `w`, drawing from
    /// each Bernoulli lane's RNG exactly where the scalar model would.
    fn word(&self, op: OpId, w: u64, rngs: &mut [StdRng]) -> u64 {
        let mut out = self.planes[op.0] & w;
        for t in BitIter(w & self.drawn) {
            if rngs[t].random_bool(self.p[t]) {
                out |= 1u64 << t;
            }
        }
        out
    }
}

/// Fault/watchdog configurations per lane: shared (typical batches) or
/// one [`SimConfig`] per lane (resilience sweeps injecting a different
/// plan into every trial).
#[derive(Clone, Copy, Debug)]
pub enum LaneConfigs<'a> {
    /// Every lane runs under the same configuration.
    Shared(&'a SimConfig),
    /// Lane `t` runs under `configs[t]`; the slice length must equal the
    /// number of RNG lanes.
    PerLane(&'a [SimConfig]),
}

impl LaneConfigs<'_> {
    /// Lane `t`'s configuration.
    pub(crate) fn cfg(&self, t: usize) -> &SimConfig {
        match self {
            LaneConfigs::Shared(c) => c,
            LaneConfigs::PerLane(cs) => &cs[t],
        }
    }

    /// Lanes with a non-empty fault plan.
    fn faulty_mask(&self, lanes: usize) -> u64 {
        match self {
            LaneConfigs::Shared(c) => {
                if c.faults.is_empty() {
                    0
                } else {
                    lane_mask(lanes)
                }
            }
            LaneConfigs::PerLane(cs) => {
                let mut m = 0u64;
                for (t, c) in cs.iter().enumerate().take(lanes) {
                    if !c.faults.is_empty() {
                        m |= 1u64 << t;
                    }
                }
                m
            }
        }
    }

    /// `(forced-short, forced-long)` lane masks for `op`'s completion
    /// signal at `cycle`, restricted to `w`.
    ///
    /// Every query asks only its candidate lanes `cand`, the
    /// [`FaultIndex`] lanes whose plan names the op or controller asked
    /// about; the [`FaultPlan`] methods decide.
    fn stuck_masks_at(&self, cand: u64, op: OpId, cycle: usize, w: u64) -> (u64, u64) {
        let fw = cand & w;
        if fw == 0 {
            return (0, 0);
        }
        match self {
            LaneConfigs::Shared(c) => match c.faults.stuck_completion(op, cycle) {
                Some(true) => (fw, 0),
                Some(false) => (0, fw),
                None => (0, 0),
            },
            LaneConfigs::PerLane(cs) => {
                let (mut s, mut l) = (0u64, 0u64);
                for t in BitIter(fw) {
                    match cs[t].faults.stuck_completion(op, cycle) {
                        Some(true) => s |= 1u64 << t,
                        Some(false) => l |= 1u64 << t,
                        None => {}
                    }
                }
                (s, l)
            }
        }
    }

    /// Lanes in `w` whose plan drops a pulse for `op` at `cycle`.
    fn drop_mask_at(&self, cand: u64, op: OpId, cycle: usize, w: u64) -> u64 {
        let fw = cand & w;
        if fw == 0 {
            return 0;
        }
        match self {
            LaneConfigs::Shared(c) => {
                if c.faults.drops_pulse(op, cycle) {
                    fw
                } else {
                    0
                }
            }
            LaneConfigs::PerLane(cs) => {
                let mut m = 0u64;
                for t in BitIter(fw) {
                    if cs[t].faults.drops_pulse(op, cycle) {
                        m |= 1u64 << t;
                    }
                }
                m
            }
        }
    }

    /// ORs spurious-pulse lane bits for `cycle` into `injected` (indexed
    /// by op), restricted to `w`. `buf` is a reusable query buffer.
    fn spurious_into(
        &self,
        cand: u64,
        cycle: usize,
        w: u64,
        buf: &mut Vec<OpId>,
        injected: &mut [u64],
    ) {
        let fw = cand & w;
        if fw == 0 {
            return;
        }
        match self {
            LaneConfigs::Shared(c) => {
                buf.clear();
                c.faults.spurious_at(cycle, buf);
                for &op in buf.iter() {
                    if op.0 < injected.len() {
                        injected[op.0] |= fw;
                    }
                }
            }
            LaneConfigs::PerLane(cs) => {
                for t in BitIter(fw) {
                    buf.clear();
                    cs[t].faults.spurious_at(cycle, buf);
                    for &op in buf.iter() {
                        if op.0 < injected.len() {
                            injected[op.0] |= 1u64 << t;
                        }
                    }
                }
            }
        }
    }

    /// Lanes in `w` whose plan freezes `controller`'s local clock at
    /// `cycle` (the `ClockSkew` kind — consulted by the elastic engine
    /// only, exactly like the scalar hooks).
    fn clock_stall_at(&self, cand: u64, controller: usize, cycle: usize, w: u64) -> u64 {
        let fw = cand & w;
        if fw == 0 {
            return 0;
        }
        match self {
            LaneConfigs::Shared(c) => {
                if c.faults.clock_stalled(controller, cycle) {
                    fw
                } else {
                    0
                }
            }
            LaneConfigs::PerLane(cs) => {
                let mut m = 0u64;
                for t in BitIter(fw) {
                    if cs[t].faults.clock_stalled(controller, cycle) {
                        m |= 1u64 << t;
                    }
                }
                m
            }
        }
    }

    /// Partitions `w` by latch delay for `op` at `cycle` into
    /// `(delay, lane mask)` groups (delay 0 latches immediately).
    fn latch_groups_at(
        &self,
        cand: u64,
        op: OpId,
        cycle: usize,
        w: u64,
        out: &mut Vec<(usize, u64)>,
    ) {
        out.clear();
        let fw = cand & w;
        if fw == 0 {
            if w != 0 {
                out.push((0, w));
            }
            return;
        }
        match self {
            LaneConfigs::Shared(c) => {
                out.push((c.faults.latch_delay(op, cycle), w));
            }
            LaneConfigs::PerLane(cs) => {
                if w & !fw != 0 {
                    out.push((0, w & !fw));
                }
                for t in BitIter(fw) {
                    let d = cs[t].faults.latch_delay(op, cycle);
                    if let Some(e) = out.iter_mut().find(|e| e.0 == d) {
                        e.1 |= 1u64 << t;
                    } else {
                        out.push((d, 1u64 << t));
                    }
                }
            }
        }
    }

    /// Partitions `w` by the state-register bit flipping in `controller`
    /// at `cycle` into `(bit, lane mask)` groups.
    fn flip_groups_at(
        &self,
        cand: u64,
        controller: usize,
        cycle: usize,
        w: u64,
        out: &mut Vec<(u32, u64)>,
    ) {
        out.clear();
        let fw = cand & w;
        if fw == 0 {
            return;
        }
        match self {
            LaneConfigs::Shared(c) => {
                if let Some(bit) = c.faults.flip_at(controller, cycle) {
                    out.push((bit, fw));
                }
            }
            LaneConfigs::PerLane(cs) => {
                for t in BitIter(fw) {
                    if let Some(bit) = cs[t].faults.flip_at(controller, cycle) {
                        if let Some(e) = out.iter_mut().find(|e| e.0 == bit) {
                            e.1 |= 1u64 << t;
                        } else {
                            out.push((bit, 1u64 << t));
                        }
                    }
                }
            }
        }
    }

    /// Per-lane single-iteration watchdog budgets for an `n`-op DFG.
    fn budgets(&self, n: usize, lanes: usize, out: &mut Vec<usize>) {
        out.clear();
        match self {
            LaneConfigs::Shared(c) => out.resize(lanes, c.budget(n, 1)),
            LaneConfigs::PerLane(cs) => {
                out.extend(cs.iter().take(lanes).map(|c| c.budget(n, 1)));
            }
        }
    }
}

/// One pass's fault plans indexed by what they name: per op and per
/// controller, the faulty lanes whose plan holds a fault of each kind
/// naming it. A fault query asks only these candidate lanes instead of
/// every faulty lane; the [`FaultPlan`] methods still decide each answer,
/// so plan order, one-shot faults and multi-fault plans stay exact. A
/// pass with no faulty lane builds nothing.
#[derive(Default)]
struct FaultIndex {
    /// Per op: lanes with a stuck-at, drop or latch-delay fault naming it.
    /// The last slot holds the faults naming an op outside the design.
    stuck: Vec<u64>,
    drop: Vec<u64>,
    delay: Vec<u64>,
    /// Per controller: lanes with a state flip or clock skew naming it
    /// (last slot as above).
    flip: Vec<u64>,
    skew: Vec<u64>,
    /// Lanes with any spurious pulse.
    spurious: u64,
}

impl FaultIndex {
    /// Indexes the plans of the `faulty` lanes over `n` ops and `nc`
    /// controllers.
    fn build(&mut self, configs: &LaneConfigs<'_>, faulty: u64, n: usize, nc: usize) {
        self.spurious = 0;
        for (plane, len) in [
            (&mut self.stuck, n),
            (&mut self.drop, n),
            (&mut self.delay, n),
            (&mut self.flip, nc),
            (&mut self.skew, nc),
        ] {
            plane.clear();
            if faulty != 0 {
                plane.resize(len + 1, 0);
            }
        }
        match configs {
            LaneConfigs::Shared(c) if faulty != 0 => self.add(&c.faults, faulty),
            LaneConfigs::Shared(_) => {}
            LaneConfigs::PerLane(cs) => {
                for t in BitIter(faulty) {
                    self.add(&cs[t].faults, 1u64 << t);
                }
            }
        }
    }

    fn add(&mut self, plan: &FaultPlan, lanes: u64) {
        for f in plan.faults() {
            let (plane, i) = match f.kind {
                FaultKind::StuckAtShort { op } | FaultKind::StuckAtLong { op } => {
                    (&mut self.stuck, op.0)
                }
                FaultKind::DropPulse { op } => (&mut self.drop, op.0),
                FaultKind::DelayLatch { op, .. } => (&mut self.delay, op.0),
                FaultKind::FlipState { controller, .. } => (&mut self.flip, controller),
                FaultKind::ClockSkew { controller, .. } => (&mut self.skew, controller),
                FaultKind::SpuriousPulse { .. } => {
                    self.spurious |= lanes;
                    continue;
                }
            };
            let slot = i.min(plane.len().saturating_sub(1));
            if let Some(w) = plane.get_mut(slot) {
                *w |= lanes;
            }
        }
    }
}

/// The candidate lanes of a [`FaultIndex`] plane for op or controller `i`
/// (none on a fault-free pass).
fn candidates(plane: &[u64], i: usize) -> u64 {
    let slot = i.min(plane.len().saturating_sub(1));
    plane.get(slot).copied().unwrap_or(0)
}

/// Mask with the low `lanes` bits set.
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// Iterator over the set bit positions of a word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let t = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(t)
        }
    }
}

/// Evaluates a guard over word-valued inputs: each variable is a 64-lane
/// word, logic ops become bitwise ops.
fn eval_word(e: &Expr, inputs: &[u64]) -> u64 {
    match e {
        Expr::Const(b) => {
            if *b {
                !0
            } else {
                0
            }
        }
        Expr::Var(v) => inputs[*v],
        Expr::Not(x) => !eval_word(x, inputs),
        Expr::And(xs) => xs.iter().fold(!0, |a, x| a & eval_word(x, inputs)),
        Expr::Or(xs) => xs.iter().fold(0, |a, x| a | eval_word(x, inputs)),
    }
}

/// What a controller input means, decoded once at compile time (the
/// scalar kernel re-parses the `C_CO(op)` name on every guard probe).
enum InKind {
    /// `C_CO(p)`: completion of op `p` as seen by this controller.
    Cco(usize),
    /// The controller's own unit-completion signal.
    Own,
}

/// A compiled transition: guard and outputs borrowed from the FSM, with
/// the `RE{op}` result-enable ids pre-parsed.
struct CTrans<'a> {
    to: usize,
    guard: &'a Expr,
    outs: &'a [usize],
    /// Parsed op ids of the `RE{op}` outputs among `outs`.
    res: Vec<usize>,
}

/// A compiled controller: per-state phases and transitions grouped by
/// source state (preserving the FSM's global transition order, which is
/// the order the scalar `try_step` scan observes).
struct CCtrl<'a> {
    unit: usize,
    /// The controller itself, for the names a diagnosis reports.
    fsm: &'a Fsm,
    inputs: Vec<InKind>,
    /// The ops of its `C_CO` inputs that exist in the DFG.
    cco: Vec<usize>,
    out_is_re: Vec<bool>,
    phases: Vec<Option<Phase>>,
    trans: Vec<Vec<CTrans<'a>>>,
    initial: usize,
}

/// Compiles the control unit's FSMs, or `None` when any construct falls
/// outside what the word engine models (malformed signal names, guards
/// over undeclared inputs). `None` sends every lane to scalar fallback,
/// which reproduces the scalar engine's behaviour — including its
/// documented panics on malformed generated controllers — exactly.
fn compile(cu: &DistributedControlUnit, num_ops: usize) -> Option<Vec<CCtrl<'_>>> {
    let mut out = Vec::with_capacity(cu.controllers().len());
    for (u, f) in cu.controllers() {
        let mut inputs = Vec::with_capacity(f.inputs().len());
        for name in f.inputs() {
            if let Some(rest) = name.strip_prefix("C_CO(") {
                inputs.push(InKind::Cco(rest.strip_suffix(')')?.parse().ok()?));
            } else {
                inputs.push(InKind::Own);
            }
        }
        let mut out_is_re = Vec::with_capacity(f.outputs().len());
        let mut re_op: Vec<Option<usize>> = Vec::with_capacity(f.outputs().len());
        for name in f.outputs() {
            out_is_re.push(name.starts_with("RE"));
            re_op.push(match name.strip_prefix("RE") {
                Some(rest) => Some(rest.parse().ok()?),
                None => None,
            });
        }
        let phases = (0..f.num_states())
            .map(|s| f.state_name_opt(StateId(s)).and_then(parse_phase))
            .collect();
        let mut trans: Vec<Vec<CTrans>> = (0..f.num_states()).map(|_| Vec::new()).collect();
        for t in f.transitions() {
            if t.guard.variables().iter().any(|&v| v >= f.inputs().len()) {
                return None;
            }
            // Transitions from an out-of-range state can never fire; the
            // target state may be anything (the scalar engine only
            // validates it when it is *entered*, and so do we).
            if let Some(bucket) = trans.get_mut(t.from.0) {
                bucket.push(CTrans {
                    to: t.to.0,
                    guard: &t.guard,
                    outs: &t.outputs,
                    res: t
                        .outputs
                        .iter()
                        .filter_map(|&o| re_op.get(o).copied().flatten())
                        .collect(),
                });
            }
        }
        let cco = (inputs.iter())
            .filter_map(|ik| match ik {
                InKind::Cco(p) if *p < num_ops => Some(*p),
                _ => None,
            })
            .collect();
        out.push(CCtrl {
            unit: u.0,
            fsm: f,
            inputs,
            cco,
            out_is_re,
            phases,
            trans,
            initial: f.initial().0,
        });
    }
    Some(out)
}

/// All engine buffers, held by [`SlicedSim`] so a worker reuses them
/// across chunks (the scratch/arena-reuse contract of the batch runner).
#[derive(Default)]
struct Scratch {
    draws: Draws,
    faults: FaultIndex,
    // Bit-planes indexed by op: bit `t` = trial `t`.
    done: Vec<u64>,
    pulses: Vec<u64>,
    injected: Vec<u64>,
    next: Vec<u64>,
    started: Vec<u64>,
    // Per-unit sampled completion words (and where faults contradicted
    // the model draw: `truth = completion ^ diverged`).
    unit_completion: Vec<u64>,
    unit_diverged: Vec<u64>,
    // Stride-64 per-trial values: index `op * 64 + t` / `unit * 64 + t`.
    completion_cycle: Vec<usize>,
    start_cycle: Vec<usize>,
    unit_busy: Vec<usize>,
    done_count: Vec<u32>,
    // Deferred result latches: `(due cycle, op, lane mask)`; all lanes in
    // one entry share the due cycle, so entries retire wholly, in
    // insertion order — each lane sees exactly its scalar deferred list.
    deferred: Vec<(usize, usize, u64)>,
    due: Vec<(usize, usize, u64)>,
    occupancy: Vec<Vec<(usize, u64)>>,
    // Per controller: `(state, lane mask)` groups that step this cycle.
    agenda: Vec<Vec<(usize, u64)>>,
    taken: Vec<Vec<(usize, usize, u64)>>,
    // Per controller: the `(op, lane mask)` result enables of its steps.
    re_out: Vec<Vec<(usize, u64)>>,
    input_words: Vec<u64>,
    ev: Vec<u64>,
    tev: Vec<u64>,
    lg: Vec<(usize, u64)>,
    flips: Vec<(u32, u64)>,
    budgets: Vec<usize>,
    fin_cycle: Vec<usize>,
    // Faulty lanes' control state when they finished (`ctrl * 64 + t`,
    // `usize::MAX` = none) and their last pulse wavefront: what the
    // post-run invariant's diagnosis reads.
    fin_states: Vec<usize>,
    fin_pulses: Vec<u64>,
    spur: Vec<OpId>,
    // Cent-sync per-lane cycle counters and per-step draw words.
    cyc: Vec<usize>,
    short_w: Vec<u64>,
    truth_w: Vec<u64>,
    // Elastic-mode planes: cross-domain completion visibility per op,
    // a `sync_latency`-deep ring of pending handshakes (`slot * n + op`),
    // per-controller tick words (`ctrl * period + pos`, rebuilt each skew
    // window), the tick word of the current cycle per controller, stall
    // bucketing scratch, and held `(state, lanes)` groups of controllers
    // whose local clock did not tick this cycle.
    visible: Vec<u64>,
    vis_ring: Vec<u64>,
    tick_masks: Vec<u64>,
    tick_now: Vec<u64>,
    stall_buckets: Vec<u64>,
    held: Vec<Vec<(usize, u64)>>,
}

fn reset_words(v: &mut Vec<u64>, len: usize) {
    v.clear();
    v.resize(len, 0);
}

fn reset_usize(v: &mut Vec<usize>, len: usize) {
    v.clear();
    v.resize(len, 0);
}

/// Single-iteration latch of `op` for the lanes in `m` at cycle `at`.
/// Takes the scratch fields it touches as separate slices (not `&mut
/// Scratch`) so callers can hold disjoint borrows of the rest. Returns
/// the freshly latched lanes (first latch only) — the elastic caller
/// starts the cross-domain handshake exactly for those.
#[allow(clippy::too_many_arguments)]
fn latch_single(
    op: usize,
    m: u64,
    at: usize,
    n: usize,
    done: &mut [u64],
    completion_cycle: &mut [usize],
    done_count: &mut [u32],
    lanes_incomplete: &mut u64,
) -> u64 {
    let upd = m & !done[op];
    done[op] |= upd;
    for t in BitIter(upd) {
        completion_cycle[op * 64 + t] = at;
        done_count[t] += 1;
        if done_count[t] as usize == n {
            *lanes_incomplete &= !(1u64 << t);
        }
    }
    upd
}

/// Lane `t`'s per-unit diagnostics at `cycle`, exactly as the scalar
/// bank snapshots them: controller `i` latched in `state(i)`, with the
/// lane's bits of the `done` and `pulses` planes. `None` when a
/// controller holds no state for the lane (the lane then falls back).
fn lane_diagnostics(
    ctrls: &[CCtrl<'_>],
    t: usize,
    cycle: usize,
    reason: String,
    state: impl Fn(usize) -> Option<usize>,
    done: &[u64],
    pulses: &[u64],
) -> Option<Box<Diagnostics>> {
    let bit = 1u64 << t;
    let controllers = (ctrls.iter().enumerate())
        .map(|(i, c)| Some(controller_snapshot(c.unit, c.fsm, StateId(state(i)?))))
        .collect::<Option<Vec<_>>>()?;
    let ops = |plane: &[u64], set: bool| -> Vec<usize> {
        (0..plane.len())
            .filter(|&op| (plane[op] & bit != 0) == set)
            .collect()
    };
    Some(Box::new(Diagnostics {
        cycle,
        reason,
        controllers,
        done: done.iter().map(|w| w & bit != 0).collect(),
        outstanding: ops(done, false),
        pulses: ops(pulses, true),
    }))
}

/// Records the scalar error of every lane in `lanes`, detected at
/// `cycle`: `variant` wrapping lane `t`'s diagnostics with `reason(t)`,
/// read from the controllers' occupancy and the `done` and `pulses`
/// planes as they stand.
fn diagnose(
    errors: &mut Vec<(usize, SimError)>,
    ctrls: &[CCtrl<'_>],
    scr: &Scratch,
    lanes: u64,
    cycle: usize,
    variant: fn(Box<Diagnostics>) -> SimError,
    reason: impl Fn(usize) -> String,
) {
    for t in BitIter(lanes) {
        let state = |i: usize| {
            let occ: &[(usize, u64)] = &scr.occupancy[i];
            occ.iter().find(|e| e.1 >> t & 1 != 0).map(|e| e.0)
        };
        let diag = lane_diagnostics(ctrls, t, cycle, reason(t), state, &scr.done, &scr.pulses);
        errors.extend(diag.map(|d| (t, variant(d))));
    }
}

/// The `C_CO(p)` word as a bank controller reads it: done or pulsing this
/// round, or, when cross-domain transfer is latched, only the
/// handshake-crossed `visible` plane, never pulses. An op outside the DFG
/// never completes.
fn cco_word(scr: &Scratch, p: usize, vis_latched: bool) -> u64 {
    match scr.done.get(p) {
        None => 0,
        Some(_) if vis_latched => scr.visible[p],
        Some(&done) => done | scr.pulses[p],
    }
}

/// The word-parallel single-iteration FSM cycle engine of the controller
/// bank (DIST, CENT and ELASTIC). Mirrors `kernel::run` +
/// `FsmStyle::advance` stage for stage. Returns the mask of lanes that
/// left the run early and, for each of them the engine diagnosed, the
/// per-unit [`SimError`] the scalar engine reports; the rest of the mask
/// falls back.
///
/// `elastic` carries the GALS clocking parameters and one skew seed per
/// lane; `None` is the synchronous (one-domain) case. With it set, each
/// controller's tick word gates sampling and transitions (held lanes keep
/// their state), and — when `sync_latency > 0` — `C_CO` reads switch from
/// the combinational `done | pulses` plane to the handshake-delayed
/// `visible` plane, exactly like the scalar `ElasticHooks`.
#[allow(clippy::too_many_arguments)]
fn fsm_engine(
    bound: &BoundDfg,
    ctrls: &[CCtrl<'_>],
    opvals: &[(i64, i64)],
    preds: &[Vec<OpId>],
    elastic: Option<(ElasticSpec, &[u64])>,
    models: &LaneModels<'_>,
    configs: &LaneConfigs<'_>,
    rngs: &mut [StdRng],
    scr: &mut Scratch,
) -> (u64, Vec<(usize, SimError)>) {
    let dfg = bound.dfg();
    let n = dfg.num_ops();
    let nu = bound.allocation().units().len();
    let nc = ctrls.len();
    let lanes = rngs.len();
    let all = lane_mask(lanes);
    // Elastic clocking parameters (identity values when synchronous).
    let period = elastic.map_or(1, |(s, _)| s.period() as usize);
    let lat = elastic.map_or(0, |(s, _)| s.sync_latency as usize);
    let skewed = period > 1;
    let vis_latched = lat > 0;

    let mut flagged = models.invalid_mask(n, lanes);
    scr.draws.fill(models, dfg, opvals, all & !flagged);
    let mut errors = Vec::new();
    let mut finished = 0u64;
    let faulty = configs.faulty_mask(lanes);
    scr.faults.build(configs, faulty, n, nc);
    configs.budgets(n, lanes, &mut scr.budgets);
    if elastic.is_some() {
        // The scalar `elastic_budget` stretch, applied per lane.
        for b in scr.budgets.iter_mut() {
            *b = *b * period + lat * (n + 1);
        }
    }
    let min_budget = scr.budgets.iter().copied().min().unwrap_or(0);

    reset_words(&mut scr.done, n);
    reset_words(&mut scr.pulses, n);
    reset_words(&mut scr.injected, n);
    reset_words(&mut scr.next, n);
    reset_words(&mut scr.started, n);
    reset_words(&mut scr.unit_completion, nu);
    reset_words(&mut scr.unit_diverged, nu);
    reset_usize(&mut scr.completion_cycle, n * 64);
    reset_usize(&mut scr.start_cycle, n * 64);
    reset_usize(&mut scr.unit_busy, nu * 64);
    scr.done_count.clear();
    scr.done_count.resize(lanes, 0);
    scr.deferred.clear();
    reset_usize(&mut scr.fin_cycle, lanes);
    if faulty != 0 {
        scr.fin_states.clear();
        scr.fin_states.resize(nc * 64, usize::MAX);
        reset_words(&mut scr.fin_pulses, n);
    }
    if elastic.is_some() {
        reset_words(&mut scr.visible, if vis_latched { n } else { 0 });
        reset_words(&mut scr.vis_ring, lat * n);
        reset_words(&mut scr.tick_masks, if skewed { nc * period } else { 0 });
        reset_words(&mut scr.tick_now, nc);
        scr.held.resize_with(nc, Vec::new);
        for h in scr.held.iter_mut() {
            h.clear();
        }
    }
    scr.occupancy.resize_with(nc, Vec::new);
    scr.agenda.resize_with(nc, Vec::new);
    scr.taken.resize_with(nc, Vec::new);
    scr.re_out.resize_with(nc, Vec::new);
    for (i, c) in ctrls.iter().enumerate() {
        scr.occupancy[i].clear();
        scr.occupancy[i].push((c.initial, all));
    }

    let mut lanes_incomplete = if n > 0 { all } else { 0 };
    let mut cycle = 0usize;
    loop {
        // Loop-top running check (the kernel's `while style.running`):
        // a lane stays running while its deferred latches are pending.
        let defm = scr.deferred.iter().fold(0u64, |a, e| a | e.2);
        let alive = all & !flagged & !finished;
        let still = (lanes_incomplete | defm) & alive;
        let newly = alive & !still;
        for t in BitIter(newly) {
            scr.fin_cycle[t] = cycle;
        }
        // A faulty lane's post-run invariant check may still fail; its
        // diagnosis reads the state the lane finished in, which commit
        // drops from the occupancy from here on.
        let snap = newly & faulty;
        if snap != 0 {
            for (i, occ) in scr.occupancy.iter().enumerate() {
                for &(st, m) in occ {
                    for t in BitIter(m & snap) {
                        scr.fin_states[i * 64 + t] = st;
                    }
                }
            }
            for (f, &p) in scr.fin_pulses.iter_mut().zip(&scr.pulses) {
                *f = (*f & !snap) | (p & snap);
            }
        }
        finished |= newly;
        if still == 0 {
            break;
        }
        cycle += 1;

        // Elastic: handshakes whose latency elapses this cycle become
        // visible (the `visible_at[op] <= cycle` check of the scalar
        // fabric, as a ring of word-planes).
        if vis_latched {
            let slot = (cycle % lat) * n;
            for op in 0..n {
                scr.visible[op] |= scr.vis_ring[slot + op];
                scr.vis_ring[slot + op] = 0;
            }
        }

        // Watchdog: a lane over budget is a scalar Deadlock, snapshotting
        // the previous cycle's wavefront (this cycle has not sampled).
        let mut adv = still;
        if cycle > min_budget {
            let mut over = 0u64;
            for t in BitIter(still) {
                if cycle > scr.budgets[t] {
                    over |= 1u64 << t;
                }
            }
            diagnose(
                &mut errors,
                ctrls,
                scr,
                over,
                cycle,
                SimError::Deadlock,
                |t| {
                    let budget = scr.budgets[t];
                    format!("no progress within the {budget}-cycle watchdog budget")
                },
            );
            flagged |= over;
            adv &= !over;
            if adv == 0 {
                continue;
            }
        }

        // Elastic: the per-controller tick words of this fabric cycle.
        // Stall schedules are redrawn once per skew window (the exact
        // `ClockFabric::window_stall` draw, per lane), then prefix-ORed
        // into one word per in-window position; `ClockSkew` fault stalls
        // are masked out on top, like the scalar `ElasticHooks::ticks`.
        if let Some((spec, skews)) = elastic {
            if skewed && (cycle - 1).is_multiple_of(period) {
                let window = (cycle - 1) / period;
                for i in 0..nc {
                    scr.stall_buckets.clear();
                    scr.stall_buckets.resize(period, 0);
                    for (t, &seed) in skews.iter().enumerate().take(lanes) {
                        let s = ClockFabric::window_stall(seed, i, window, spec.period()) as usize;
                        scr.stall_buckets[s] |= 1u64 << t;
                    }
                    let mut acc = 0u64;
                    for p in 0..period {
                        acc |= scr.stall_buckets[p];
                        scr.tick_masks[i * period + p] = acc;
                    }
                }
            }
            let pos = (cycle - 1) % period;
            for i in 0..nc {
                let base = if skewed {
                    scr.tick_masks[i * period + pos]
                } else {
                    all
                };
                scr.tick_now[i] =
                    base & !configs.clock_stall_at(candidates(&scr.faults.skew, i), i, cycle, all);
            }
        }

        // Deferred result latches coming due, in insertion order.
        if !scr.deferred.is_empty() {
            scr.due.clear();
            scr.deferred.retain(|&(at, op, m)| {
                if at <= cycle {
                    scr.due.push((at, op, m));
                    false
                } else {
                    true
                }
            });
            for di in 0..scr.due.len() {
                let (at, op, m) = scr.due[di];
                let m = m & adv;
                if m == 0 {
                    continue;
                }
                let upd = latch_single(
                    op,
                    m,
                    at,
                    n,
                    &mut scr.done,
                    &mut scr.completion_cycle,
                    &mut scr.done_count,
                    &mut lanes_incomplete,
                );
                if vis_latched && upd != 0 {
                    // Handshake from the latch cycle: a deferred latch
                    // already past its visibility point is visible now
                    // (the scalar `min(visible_at, at + latency)`).
                    let v = at + lat;
                    if v <= cycle {
                        scr.visible[op] |= upd;
                    } else {
                        scr.vis_ring[(v % lat) * n + op] |= upd;
                    }
                }
            }
        }

        // --- advance: completion sampling ---------------------------
        for w in scr.unit_completion.iter_mut() {
            *w = 0;
        }
        for w in scr.unit_diverged.iter_mut() {
            *w = 0;
        }
        let mut any_diverged = false;
        for (i, c) in ctrls.iter().enumerate() {
            scr.agenda[i].clear();
            if elastic.is_some() {
                scr.held[i].clear();
            }
            for gi in 0..scr.occupancy[i].len() {
                let (st, om) = scr.occupancy[i][gi];
                let mut w = om & adv;
                if elastic.is_some() {
                    // Lanes whose local clock does not tick are frozen for
                    // the cycle: no phase decode, no draw, no transition —
                    // they re-enter the occupancy unchanged at commit.
                    let hold = w & !scr.tick_now[i];
                    if hold != 0 {
                        scr.held[i].push((st, hold));
                        w &= scr.tick_now[i];
                    }
                }
                if w == 0 {
                    continue;
                }
                let phase = match c.phases.get(st).copied().flatten() {
                    Some(p) => p,
                    None => {
                        // An invalid state id (flip fallout) is a scalar
                        // Desync; a state name outside the S/R convention
                        // is an UnknownState, which falls back.
                        if st >= c.phases.len() {
                            diagnose(&mut errors, ctrls, scr, w, cycle, SimError::Desync, |_| {
                                let name = c.fsm.name();
                                format!("controller {name} latched invalid state id {st}")
                            });
                        }
                        flagged |= w;
                        adv &= !w;
                        continue;
                    }
                };
                if let Phase::Exec(op, stage) = phase {
                    // exec hook: start bookkeeping, producer-order check.
                    if stage == 0 {
                        let upd = w & !scr.started[op.0];
                        scr.started[op.0] |= upd;
                        for t in BitIter(upd) {
                            scr.start_cycle[op.0 * 64 + t] = cycle;
                        }
                    }
                    for &p in &preds[op.0] {
                        let viol = w & !scr.done[p.0];
                        if viol != 0 {
                            diagnose(
                                &mut errors,
                                ctrls,
                                scr,
                                viol,
                                cycle,
                                SimError::Desync,
                                |_| format!("{op} fired before its producer {p} completed"),
                            );
                            flagged |= viol;
                            adv &= !viol;
                            w &= !viol;
                        }
                    }
                    if w == 0 {
                        continue;
                    }
                    let truth = scr.draws.word(op, w, rngs);
                    let (s, l) =
                        configs.stuck_masks_at(candidates(&scr.faults.stuck, op.0), op, cycle, w);
                    let eff = (truth & !(s | l)) | s;
                    scr.unit_completion[c.unit] |= eff;
                    let div = (eff ^ truth) & w;
                    if div != 0 {
                        scr.unit_diverged[c.unit] |= div;
                        any_diverged = true;
                    }
                    let inc = w & !scr.done[op.0];
                    for t in BitIter(inc) {
                        scr.unit_busy[c.unit * 64 + t] += 1;
                    }
                }
                scr.agenda[i].push((st, w));
            }
        }

        // --- advance: pulse fixpoint --------------------------------
        // Round 0 steps every controller. A later round re-steps only the
        // controllers with a `C_CO` input whose pulse word changed in the
        // round before (none under latched visibility, where `C_CO` reads
        // `visible`); the others keep their steps and result enables, and
        // `next` is rebuilt from all of them.
        for w in scr.injected.iter_mut() {
            *w = 0;
        }
        let cand = scr.faults.spurious;
        configs.spurious_into(cand, cycle, adv, &mut scr.spur, &mut scr.injected);
        scr.pulses.copy_from_slice(&scr.injected);
        for round in 0..nc + 2 {
            for (i, c) in ctrls.iter().enumerate() {
                // After a round, `next` holds the pulses that round read.
                let (pulses, prev) = (&scr.pulses, &scr.next);
                let changed = |&p: &usize| (pulses[p] ^ prev[p]) & adv != 0;
                if round > 0 && (vis_latched || !c.cco.iter().any(changed)) {
                    continue;
                }
                scr.taken[i].clear();
                scr.re_out[i].clear();
                // Input words over every live lane (stuck overlays layered
                // on top of the style's completion semantics); each group
                // masks its own lanes out of the guards.
                scr.input_words.clear();
                for ik in &c.inputs {
                    let word = match ik {
                        InKind::Cco(p) => {
                            let cand = candidates(&scr.faults.stuck, *p);
                            let (s, l) = configs.stuck_masks_at(cand, OpId(*p), cycle, adv);
                            (cco_word(scr, *p, vis_latched) & !(s | l)) | s
                        }
                        InKind::Own => scr.unit_completion[c.unit],
                    };
                    scr.input_words.push(word);
                }
                for gi in 0..scr.agenda[i].len() {
                    let (st, gm) = scr.agenda[i][gi];
                    let w = gm & adv;
                    if w == 0 {
                        continue;
                    }
                    let trs = &c.trans[st];
                    scr.ev.clear();
                    let (mut any, mut ov) = (0u64, 0u64);
                    for tr in trs {
                        let e = eval_word(tr.guard, &scr.input_words) & w;
                        ov |= any & e;
                        any |= e;
                        scr.ev.push(e);
                    }
                    // >1 enabled: scalar Nondeterministic; 0 enabled:
                    // scalar Incomplete — both Desync "lost lockstep",
                    // snapshotting this round's input wavefront.
                    let bad = ov | (w & !any);
                    if bad != 0 {
                        diagnose(&mut errors, ctrls, scr, bad, cycle, SimError::Desync, |t| {
                            let e = if ov >> t & 1 != 0 {
                                FsmError::Nondeterministic(StateId(st))
                            } else {
                                FsmError::Incomplete(StateId(st))
                            };
                            format!("controller {} lost lockstep: {e}", c.fsm.name())
                        });
                        flagged |= bad;
                        adv &= !bad;
                    }
                    for (k, tr) in trs.iter().enumerate() {
                        let fw = scr.ev[k] & !bad;
                        if fw == 0 {
                            continue;
                        }
                        scr.taken[i].push((st, k, fw));
                        for &re in &tr.res {
                            if re < n {
                                let cand = candidates(&scr.faults.drop, re);
                                let dm = configs.drop_mask_at(cand, OpId(re), cycle, fw);
                                scr.re_out[i].push((re, fw & !dm));
                            }
                        }
                    }
                }
            }
            scr.next.copy_from_slice(&scr.injected);
            for &(re, m) in scr.re_out.iter().flatten() {
                scr.next[re] |= m;
            }
            let converged = (0..n).all(|op| (scr.next[op] ^ scr.pulses[op]) & adv == 0);
            if converged {
                break;
            }
            std::mem::swap(&mut scr.pulses, &mut scr.next);
        }

        // --- advance: premature-latch oracle ------------------------
        if any_diverged {
            for (i, c) in ctrls.iter().enumerate() {
                let uw = scr.unit_diverged[c.unit];
                if uw == 0 {
                    continue;
                }
                // Truth inputs: no stuck overlay, own completion is the
                // model's draw.
                scr.input_words.clear();
                for ik in &c.inputs {
                    let word = match ik {
                        InKind::Cco(p) => cco_word(scr, *p, vis_latched),
                        InKind::Own => scr.unit_completion[c.unit] ^ uw,
                    };
                    scr.input_words.push(word);
                }
                for gi in 0..scr.agenda[i].len() {
                    let (st, gm) = scr.agenda[i][gi];
                    let dm = gm & adv & uw;
                    if dm == 0 {
                        continue;
                    }
                    let trs = &c.trans[st];
                    scr.tev.clear();
                    let (mut any, mut ov) = (0u64, 0u64);
                    for tr in trs {
                        let e = eval_word(tr.guard, &scr.input_words) & dm;
                        ov |= any & e;
                        any |= e;
                        scr.tev.push(e);
                    }
                    // Lanes whose truth step errors are skipped silently
                    // (scalar: `Err(_) => continue`).
                    let valid = dm & any & !ov;
                    if valid == 0 {
                        continue;
                    }
                    for ti in 0..scr.taken[i].len() {
                        let (tst, ka, ma) = scr.taken[i][ti];
                        if tst != st {
                            continue;
                        }
                        let wa = ma & valid & adv;
                        if wa == 0 {
                            continue;
                        }
                        for (kb, &evb) in scr.tev.iter().enumerate() {
                            let wab = wa & evb;
                            if wab == 0 || ka == kb {
                                continue;
                            }
                            let a = &trs[ka];
                            let b = &trs[kb];
                            // Scalar: Desync naming the first result enable
                            // the taken transition asserts but the truth's
                            // would not.
                            let premature =
                                (a.outs.iter()).find(|&&o| c.out_is_re[o] && !b.outs.contains(&o));
                            if let Some(&o) = premature {
                                let (unit, re) = (c.unit, &c.fsm.outputs()[o]);
                                let reason = |_: usize| {
                                    format!(
                                        "unit {unit} latched {re} before its true completion \
                                         (stuck-at-short)"
                                    )
                                };
                                diagnose(
                                    &mut errors,
                                    ctrls,
                                    scr,
                                    wab,
                                    cycle,
                                    SimError::Desync,
                                    reason,
                                );
                                flagged |= wab;
                                adv &= !wab;
                            }
                        }
                    }
                }
            }
        }

        // --- advance: commit ----------------------------------------
        for (i, c) in ctrls.iter().enumerate() {
            let occ = &mut scr.occupancy[i];
            occ.clear();
            for &(st, k, m) in &scr.taken[i] {
                let w = m & adv;
                if w == 0 {
                    continue;
                }
                let to = c.trans[st][k].to;
                if let Some(e) = occ.iter_mut().find(|e| e.0 == to) {
                    e.1 |= w;
                } else {
                    occ.push((to, w));
                }
            }
            if elastic.is_some() {
                // Lanes frozen this cycle keep their state (the scalar
                // `steps.push((state, []))` of a non-ticking controller).
                // Merged before the flip transform below: a state-register
                // upset hits a frozen controller too.
                for hi in 0..scr.held[i].len() {
                    let (st, hm) = scr.held[i][hi];
                    let w = hm & adv;
                    if w == 0 {
                        continue;
                    }
                    if let Some(e) = occ.iter_mut().find(|e| e.0 == st) {
                        e.1 |= w;
                    } else {
                        occ.push((st, w));
                    }
                }
            }
        }
        for op in 0..n {
            // skip_latch: lanes already done do not latch again.
            let mut w = scr.pulses[op] & adv & !scr.done[op];
            if w == 0 {
                continue;
            }
            for e in &scr.deferred {
                if e.1 == op {
                    w &= !e.2;
                }
            }
            if w == 0 {
                continue;
            }
            let cand = candidates(&scr.faults.delay, op);
            configs.latch_groups_at(cand, OpId(op), cycle, w, &mut scr.lg);
            for li in 0..scr.lg.len() {
                let (delay, m) = scr.lg[li];
                if delay == 0 {
                    let upd = latch_single(
                        op,
                        m,
                        cycle,
                        n,
                        &mut scr.done,
                        &mut scr.completion_cycle,
                        &mut scr.done_count,
                        &mut lanes_incomplete,
                    );
                    if vis_latched && upd != 0 {
                        // Becomes visible at `cycle + lat`: the slot just
                        // promoted this cycle, due again exactly `lat`
                        // cycles from now.
                        scr.vis_ring[(cycle % lat) * n + op] |= upd;
                    }
                } else {
                    scr.deferred.push((cycle + delay, op, m));
                }
            }
        }
        // State-register upsets transform the occupancy the same way the
        // scalar kernel XORs the latched state id.
        if faulty & adv != 0 {
            for (i, _c) in ctrls.iter().enumerate() {
                let cand = candidates(&scr.faults.flip, i);
                configs.flip_groups_at(cand, i, cycle, adv, &mut scr.flips);
                if scr.flips.is_empty() {
                    continue;
                }
                for fi in 0..scr.flips.len() {
                    let (bit, fm) = scr.flips[fi];
                    let occ = &mut scr.occupancy[i];
                    let len = occ.len();
                    // Each lane flips exactly once: lanes merged into a
                    // later entry must not flip again when that entry is
                    // scanned (bit-0 flips land on adjacent state ids).
                    let mut flipped = 0u64;
                    for ei in 0..len {
                        let moved = occ[ei].1 & fm & !flipped;
                        if moved == 0 {
                            continue;
                        }
                        flipped |= moved;
                        occ[ei].1 &= !moved;
                        let to = occ[ei].0 ^ (1usize << bit);
                        if let Some(e) = occ.iter_mut().find(|e| e.0 == to) {
                            e.1 |= moved;
                        } else {
                            occ.push((to, moved));
                        }
                    }
                    occ.retain(|e| e.1 != 0);
                }
            }
        }
    }
    (flagged, errors)
}

/// Lane `t`'s column of a stride-64 plane of `rows` rows.
fn column(plane: &[usize], rows: usize, t: usize) -> impl Iterator<Item = usize> + '_ {
    (0..rows).map(move |i| plane[i * 64 + t])
}

/// Replaces `v`'s contents with `items`, keeping its capacity.
fn refill<T>(v: &mut Vec<T>, items: impl IntoIterator<Item = T>) {
    v.clear();
    v.extend(items);
}

/// Lane `t`'s completion cycles: what a CENT-SYNC diagnosis reads.
fn completed(scr: &Scratch, n: usize, t: usize) -> Vec<usize> {
    column(&scr.completion_cycle, n, t).collect()
}

/// The word-parallel synchronized step-walk (CENT-SYNC). Unlike the FSM
/// modes the step sequence is trial-independent, but the cycle counter is
/// per-lane: a lane only spends the extension half when one of its own
/// TAU draws comes back long. Returns the mask of lanes that left the run
/// early, with the scalar error of each (every one is diagnosed; only
/// invalid models fall back).
#[allow(clippy::too_many_arguments)]
fn cent_sync_engine(
    bound: &BoundDfg,
    taubm: &TaubmDfg,
    opvals: &[(i64, i64)],
    models: &LaneModels<'_>,
    configs: &LaneConfigs<'_>,
    rngs: &mut [StdRng],
    scr: &mut Scratch,
) -> (u64, Vec<(usize, SimError)>) {
    let dfg = bound.dfg();
    let n = dfg.num_ops();
    let nu = bound.allocation().units().len();
    let lanes = rngs.len();
    let all = lane_mask(lanes);
    let mut flagged = models.invalid_mask(n, lanes);
    scr.draws.fill(models, dfg, opvals, all & !flagged);
    let mut errors = Vec::new();
    let faulty = configs.faulty_mask(lanes);
    scr.faults.build(configs, faulty, n, 0);
    configs.budgets(n, lanes, &mut scr.budgets);
    reset_usize(&mut scr.completion_cycle, n * 64);
    reset_usize(&mut scr.start_cycle, n * 64);
    reset_usize(&mut scr.unit_busy, nu * 64);
    reset_usize(&mut scr.cyc, lanes);

    for step in taubm.steps() {
        let mut m = all & !flagged;
        if m == 0 {
            break;
        }
        // Kernel loop top: pre-increment the (per-lane) cycle counter and
        // trip the watchdog before the step body.
        for t in BitIter(m) {
            scr.cyc[t] += 1;
            let (cycle, budget) = (scr.cyc[t], scr.budgets[t]);
            if cycle > budget {
                let reason = format!("no progress within the {budget}-cycle watchdog budget");
                let diag = cent_sync_diag(cycle, reason, &completed(scr, n, t));
                errors.push((t, SimError::Deadlock(diag)));
                flagged |= 1u64 << t;
            }
        }
        m &= !flagged;
        if m == 0 {
            continue;
        }
        for &o in &step.fixed_ops {
            let u = bound.unit_of(o).0;
            for t in BitIter(m) {
                scr.start_cycle[o.0 * 64 + t] = scr.cyc[t];
                scr.completion_cycle[o.0 * 64 + t] = scr.cyc[t];
                scr.unit_busy[u * 64 + t] += 1;
            }
        }
        if step.tau_ops.is_empty() {
            continue;
        }
        scr.short_w.clear();
        scr.truth_w.clear();
        let mut all_short = !0u64;
        for &o in &step.tau_ops {
            for t in BitIter(m) {
                scr.start_cycle[o.0 * 64 + t] = scr.cyc[t];
            }
            let truth = scr.draws.word(o, m, rngs);
            let mut short = truth;
            for t in BitIter(candidates(&scr.faults.stuck, o.0) & m) {
                let bit = 1u64 << t;
                match configs.cfg(t).faults.stuck_completion(o, scr.cyc[t]) {
                    Some(true) => short |= bit,
                    Some(false) => short &= !bit,
                    None => {}
                }
            }
            scr.truth_w.push(truth);
            scr.short_w.push(short);
            all_short &= short | !m;
        }
        // Lanes with any long (effective) completion spend the extension
        // half.
        let ext = m & !all_short;
        for t in BitIter(ext) {
            scr.cyc[t] += 1;
        }
        // A stuck-at-short that masks a long completion while no sibling
        // extends the step: scalar Desync, detected before latching and
        // naming the first such op in step order.
        if faulty & m & all_short != 0 {
            let mut bad = 0u64;
            for (&o, &tw) in step.tau_ops.iter().zip(&scr.truth_w) {
                let first = faulty & m & all_short & !tw & !bad;
                for t in BitIter(first) {
                    let reason = format!(
                        "step latched {o} at the base half but its true completion was long"
                    );
                    let diag = cent_sync_diag(scr.cyc[t], reason, &completed(scr, n, t));
                    errors.push((t, SimError::Desync(diag)));
                }
                bad |= first;
            }
            flagged |= bad;
            m &= !bad;
            if m == 0 {
                continue;
            }
        }
        for (idx, &o) in step.tau_ops.iter().enumerate() {
            let u = bound.unit_of(o).0;
            let short = scr.short_w[idx];
            let delayed = candidates(&scr.faults.delay, o.0);
            for t in BitIter(m) {
                let bit = 1u64 << t;
                let d = if delayed & bit != 0 {
                    configs.cfg(t).faults.latch_delay(o, scr.cyc[t])
                } else {
                    0
                };
                scr.completion_cycle[o.0 * 64 + t] = scr.cyc[t] + d;
                scr.unit_busy[u * 64 + t] += if short & bit != 0 { 1 } else { 2 };
            }
        }
    }
    (flagged, errors)
}

/// Which scalar body this sliced simulator mirrors.
enum EngineMode<'a> {
    /// The single-iteration body over the distributed controller bank:
    /// DIST, CENT (whose product is bisimilar to its components) and
    /// ELASTIC (the bank under [`SlicedSim::clock`]). `None` when the
    /// controllers fall outside the compilable naming convention; every
    /// lane then falls back to scalar.
    Bank(Option<Vec<CCtrl<'a>>>),
    /// The CENT-SYNC step walk over the list schedule.
    CentSync(TaubmDfg),
}

/// A reusable bit-sliced simulator for one bound DFG + controller style.
///
/// Construct once per (binding, engine) and call [`SlicedSim::run`]
/// repeatedly — the scratch buffers are reused across calls, which is
/// what makes per-worker reuse in the batch runner allocation-free on the
/// steady state.
pub struct SlicedSim<'a> {
    bound: &'a BoundDfg,
    mode: EngineMode<'a>,
    /// Reference values, per-op operands under zero primary inputs, and
    /// per-op data predecessors.
    values: Vec<i64>,
    opvals: Vec<(i64, i64)>,
    preds: Vec<Vec<OpId>>,
    /// The ELASTIC spec clocking the bank's lanes; `None` runs them on one
    /// synchronous clock. The [`SlabDriver`](crate::SlabDriver) points its
    /// one bank simulator at each style's spec in turn.
    pub(crate) clock: Option<ElasticSpec>,
    /// How [`LaneOutcome::Failed`] diagnostics label the bank's
    /// controllers: the engine's own mode (CENT's composite controller),
    /// or per unit where the [`SlabDriver`](crate::SlabDriver) relabels
    /// one pass for several styles.
    pub(crate) diag: DiagMode,
    scr: Scratch,
}

impl<'a> SlicedSim<'a> {
    /// Sliced twin of `engine`'s [`Engine::run_scalar`] on `bound` with
    /// zero primary inputs. DIST, CENT and ELASTIC step the engine's
    /// [`Engine::dist_bank`], ELASTIC under its spec; CENT-SYNC, which
    /// has no bank, walks the list schedule.
    pub fn new(bound: &'a BoundDfg, engine: &'a Engine) -> Self {
        let dfg = bound.dfg();
        let zeros = vec![0i64; dfg.num_inputs()];
        let values = dfg.evaluate_all(&zeros);
        let opvals = operand_values(bound, &zeros, &values);
        let mode = match engine.dist_bank() {
            Some(cu) => EngineMode::Bank(compile(cu, dfg.num_ops())),
            None => EngineMode::CentSync(TaubmDfg::derive(
                dfg,
                bound.schedule().step_of(),
                bound.allocation().tau_classes(),
            )),
        };
        SlicedSim {
            bound,
            mode,
            values,
            opvals,
            preds: dfg.op_ids().map(|op| dfg.preds(op)).collect(),
            clock: engine.elastic_spec(),
            diag: engine.diag_mode(),
            scr: Scratch::default(),
        }
    }

    fn lanes_ok(models: &LaneModels<'_>, configs: &LaneConfigs<'_>, lanes: usize) -> bool {
        let m_ok = match models {
            LaneModels::PerLane(ms) => ms.len() >= lanes,
            LaneModels::Shared(_) => true,
        };
        let c_ok = match configs {
            LaneConfigs::PerLane(cs) => cs.len() >= lanes,
            LaneConfigs::Shared(_) => true,
        };
        m_ok && c_ok
    }

    /// Runs `rngs.len()` trials (one per bit lane, at most [`LANES`]) and
    /// writes one outcome per lane into `out`, replacing what it held.
    /// Lane `t` consumes `rngs[t]` exactly as the scalar engine would and,
    /// under ELASTIC, draws its clock schedule from `skew_seeds[t]` (the
    /// synchronous styles ignore the seeds). A [`LaneOutcome::Done`]
    /// result or [`LaneOutcome::Failed`] error is therefore the scalar
    /// run's outcome seeded the same way; [`LaneOutcome::Fallback`] lanes
    /// must be re-run scalar (with a fresh RNG). Every lane falls back
    /// when the run is declined: more than [`LANES`] lanes, fewer skew
    /// seeds (under ELASTIC), models or configs than lanes, or a
    /// controller bank outside the compilable naming convention.
    ///
    /// A `Done` lane refills the vectors of the result its slot of `out`
    /// held, so a caller that keeps `out` across runs allocates no result
    /// buffers on the steady state.
    pub fn run(
        &mut self,
        skew_seeds: &[u64],
        models: &LaneModels<'_>,
        configs: &LaneConfigs<'_>,
        rngs: &mut [StdRng],
        out: &mut Vec<LaneOutcome>,
    ) {
        let lanes = rngs.len();
        let seeds_ok = self.clock.is_none() || skew_seeds.len() >= lanes;
        let declined = lanes > LANES || !seeds_ok || !Self::lanes_ok(models, configs, lanes);
        if lanes == 0 || declined || matches!(self.mode, EngineMode::Bank(None)) {
            out.clear();
            out.resize(lanes, LaneOutcome::Fallback);
            return;
        }
        out.resize(lanes, LaneOutcome::Fallback);
        let faulty = configs.faulty_mask(lanes);
        let (flagged, errors) = match &self.mode {
            EngineMode::Bank(Some(ctrls)) => {
                let clock = self.clock.map(|spec| (spec, &skew_seeds[..lanes]));
                fsm_engine(
                    self.bound,
                    ctrls,
                    &self.opvals,
                    &self.preds,
                    clock,
                    models,
                    configs,
                    rngs,
                    &mut self.scr,
                )
            }
            EngineMode::Bank(None) => return,
            EngineMode::CentSync(taubm) => cent_sync_engine(
                self.bound,
                taubm,
                &self.opvals,
                models,
                configs,
                rngs,
                &mut self.scr,
            ),
        };
        self.collect(flagged, errors, faulty, out);
    }

    /// Transposes the engine scratch back into per-lane outcomes, one per
    /// slot of `out`: a flagged lane takes its diagnosed error or falls
    /// back, and a terminating faulty lane that latched out of order fails
    /// the scalar engines' post-run invariant check as a Desync.
    fn collect(
        &self,
        flagged: u64,
        mut errors: Vec<(usize, SimError)>,
        faulty: u64,
        out: &mut [LaneOutcome],
    ) {
        let scr = &self.scr;
        let n = self.bound.dfg().num_ops();
        let nu = self.bound.allocation().units().len();
        let failed = |e| LaneOutcome::Failed(self.diag.relabel(e));
        for (t, slot) in out.iter_mut().enumerate() {
            if flagged & (1u64 << t) != 0 {
                *slot = match errors.iter().position(|e| e.0 == t) {
                    Some(i) => failed(errors.swap_remove(i).1),
                    None => LaneOutcome::Fallback,
                };
                continue;
            }
            let mut r = match std::mem::replace(slot, LaneOutcome::Fallback) {
                LaneOutcome::Done(r) => r,
                _ => SimResult::default(),
            };
            refill(&mut r.completion_cycle, column(&scr.completion_cycle, n, t));
            refill(&mut r.start_cycle, column(&scr.start_cycle, n, t));
            refill(&mut r.unit_busy_cycles, column(&scr.unit_busy, nu, t));
            refill(&mut r.values, self.values.iter().copied());
            r.cycles = match self.mode {
                EngineMode::CentSync(_) => {
                    scr.cyc[t].max(r.completion_cycle.iter().copied().max().unwrap_or(0))
                }
                EngineMode::Bank(_) => scr.fin_cycle[t],
            };
            let violation = match faulty & (1u64 << t) {
                0 => None,
                _ => r.verify(self.bound).err(),
            };
            let Some(msg) = violation else {
                *slot = LaneOutcome::Done(r);
                continue;
            };
            let reason = format!("post-run invariant violated: {msg}");
            let diag = match &self.mode {
                EngineMode::CentSync(_) => {
                    Some(cent_sync_diag(r.cycles, reason, &r.completion_cycle))
                }
                EngineMode::Bank(ctrls) => ctrls.as_deref().and_then(|ctrls| {
                    let state =
                        |i: usize| Some(scr.fin_states[i * 64 + t]).filter(|&s| s != usize::MAX);
                    lane_diagnostics(
                        ctrls,
                        t,
                        r.cycles,
                        reason,
                        state,
                        &scr.done,
                        &scr.fin_pulses,
                    )
                }),
            };
            *slot = diag.map_or(LaneOutcome::Fallback, |d| failed(SimError::Desync(d)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, SimConfig, Watchdog};
    use crate::latency::ControlStyle;
    use rand::SeedableRng;
    use tauhls_dfg::benchmarks::{diffeq, fir3, fir5};
    use tauhls_sched::Allocation;

    fn rng_bank(seed: u64, lanes: usize) -> Vec<StdRng> {
        (0..lanes)
            .map(|t| StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37)))
            .collect()
    }

    /// One run of `sim` into a fresh outcome vector.
    fn run_once(
        sim: &mut SlicedSim<'_>,
        skews: &[u64],
        models: &LaneModels<'_>,
        configs: &LaneConfigs<'_>,
        rngs: &mut [StdRng],
    ) -> Vec<LaneOutcome> {
        let mut out = Vec::new();
        sim.run(skews, models, configs, rngs, &mut out);
        out
    }

    fn skew_bank(seed: u64, lanes: usize) -> Vec<u64> {
        (0..lanes)
            .map(|t| seed ^ (t as u64).wrapping_mul(0xD1B5_4A32))
            .collect()
    }

    /// Done and Failed lanes must equal the engine's scalar run on the
    /// same trial RNG and skew seed, diagnostics included; no lane of a
    /// valid model may fall back. With `require_done`, every lane must
    /// complete.
    fn assert_equiv(
        bound: &BoundDfg,
        engine: &Engine,
        model: &CompletionModel,
        config: &SimConfig,
        seed: u64,
        lanes: usize,
        require_done: bool,
    ) {
        let mut rngs = rng_bank(seed, lanes);
        let skews = skew_bank(seed.wrapping_mul(31), lanes);
        let out = run_once(
            &mut SlicedSim::new(bound, engine),
            &skews,
            &LaneModels::Shared(model),
            &LaneConfigs::Shared(config),
            &mut rngs,
        );
        assert_eq!(out.len(), lanes);
        for (t, lane) in out.iter().enumerate() {
            let mut srng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
            let scalar = engine.run_scalar(bound, model, None, &mut srng, config, skews[t]);
            match lane {
                LaneOutcome::Done(r) => assert_eq!(Ok(r), scalar.as_ref(), "lane {t} diverged"),
                LaneOutcome::Failed(e) => {
                    assert!(!require_done, "lane {t} failed: {e}");
                    assert_eq!(Err(e), scalar.as_ref(), "lane {t} diagnosed differently");
                }
                LaneOutcome::Fallback => panic!("lane {t} fell back: {scalar:?}"),
            }
        }
    }

    #[test]
    fn dist_matches_scalar_fault_free() {
        for g in [fir3(), fir5(), diffeq()] {
            let alloc = Allocation::paper(2, 1, 1);
            let bound = BoundDfg::bind(&g, &alloc);
            let engine = Engine::generate(&bound, ControlStyle::Distributed);
            for lanes in [1, 5, 64] {
                assert_equiv(
                    &bound,
                    &engine,
                    &CompletionModel::Bernoulli { p: 0.6 },
                    &SimConfig::default(),
                    7 + lanes as u64,
                    lanes,
                    true,
                );
            }
        }
    }

    #[test]
    fn dist_fault_free_lanes_never_fall_back() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let engine = Engine::generate(&bound, ControlStyle::Distributed);
        let mut rngs = rng_bank(11, 64);
        let out = run_once(
            &mut SlicedSim::new(&bound, &engine),
            &[],
            &LaneModels::Shared(&CompletionModel::Bernoulli { p: 0.5 }),
            &LaneConfigs::Shared(&SimConfig::default()),
            &mut rngs,
        );
        assert!(out.iter().all(|l| matches!(l, LaneOutcome::Done(_))));
    }

    #[test]
    fn dist_and_cent_match_scalar_under_faults() {
        // CENT steps DIST's bank, so its Done lanes equal DIST's and its
        // Failed lanes carry DIST's diagnosis under the one composite
        // controller the scalar CENT body renders.
        let bound = BoundDfg::bind(&diffeq(), &Allocation::paper(2, 1, 1));
        let plans = [
            FaultPlan::single(1, FaultKind::StuckAtShort { op: OpId(1) }),
            FaultPlan::single(2, FaultKind::StuckAtLong { op: OpId(2) }),
            FaultPlan::single(1, FaultKind::DropPulse { op: OpId(0) }),
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
        for style in [ControlStyle::Distributed, ControlStyle::Cent] {
            let engine = Engine::generate(&bound, style);
            for (i, plan) in plans.iter().enumerate() {
                let config = SimConfig::with_faults(plan.clone());
                let model = CompletionModel::Bernoulli { p: 0.6 };
                assert_equiv(&bound, &engine, &model, &config, 100 + i as u64, 17, false);
            }
        }
    }

    #[test]
    fn per_lane_configs_isolate_faults() {
        // Lane 3 carries a stuck-at fault, every other lane is clean: the
        // clean lanes must match their fault-free scalar twins exactly.
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let engine = Engine::generate(&bound, ControlStyle::Distributed);
        let lanes = 9;
        let mut configs = vec![SimConfig::default(); lanes];
        configs[3].faults = FaultPlan::single(1, FaultKind::StuckAtShort { op: OpId(0) });
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let mut rngs = rng_bank(42, lanes);
        let out = run_once(
            &mut SlicedSim::new(&bound, &engine),
            &[],
            &LaneModels::Shared(&model),
            &LaneConfigs::PerLane(&configs),
            &mut rngs,
        );
        for (t, lane) in out.iter().enumerate() {
            let mut srng = StdRng::seed_from_u64(42 ^ (t as u64).wrapping_mul(0x9E37));
            let scalar = engine.run_scalar(&bound, &model, None, &mut srng, &configs[t], 0);
            assert_eq!(lane.result(), Some(scalar.as_ref()), "lane {t}");
        }
    }

    #[test]
    fn cent_sync_matches_scalar() {
        for g in [fir3(), fir5(), diffeq()] {
            let bound = BoundDfg::bind(&g, &Allocation::paper(2, 1, 1));
            let model = CompletionModel::Bernoulli { p: 0.7 };
            let config = SimConfig::default();
            assert_equiv(&bound, &Engine::Sync, &model, &config, 5, 33, true);
        }
    }

    #[test]
    fn oversized_lane_count_falls_back() {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let engine = Engine::generate(&bound, ControlStyle::Distributed);
        let mut rngs = rng_bank(0, 65);
        let out = run_once(
            &mut SlicedSim::new(&bound, &engine),
            &[],
            &LaneModels::Shared(&CompletionModel::AlwaysShort),
            &LaneConfigs::Shared(&SimConfig::default()),
            &mut rngs,
        );
        assert_eq!(out.len(), 65);
        assert!(out.iter().all(|l| matches!(l, LaneOutcome::Fallback)));
    }

    #[test]
    fn invalid_model_lane_falls_back() {
        // A table shorter than the DFG and a P outside [0, 1] are scalar
        // InvalidConfigs; the sliced engine must route them to fallback,
        // not panic.
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let engine = Engine::generate(&bound, ControlStyle::Distributed);
        let models = vec![
            CompletionModel::AlwaysShort,
            CompletionModel::Table(vec![true]),
            CompletionModel::Bernoulli { p: f64::NAN },
        ];
        let mut rngs = rng_bank(0, 3);
        let out = run_once(
            &mut SlicedSim::new(&bound, &engine),
            &[],
            &LaneModels::PerLane(&models),
            &LaneConfigs::Shared(&SimConfig::default()),
            &mut rngs,
        );
        assert!(matches!(out[0], LaneOutcome::Done(_)));
        assert!(matches!(out[1], LaneOutcome::Fallback));
        assert!(matches!(out[2], LaneOutcome::Fallback));
    }

    #[test]
    fn elastic_matches_scalar_fault_free() {
        // Fault-free elastic lanes must never fall back (the differential
        // claim would be vacuous otherwise) and must equal the scalar
        // elastic engine bit for bit, across skew/latency combinations.
        let specs = [
            ElasticSpec::zero(),
            ElasticSpec::default(),
            ElasticSpec {
                skew_bound: 2,
                sync_latency: 0,
            },
            ElasticSpec {
                skew_bound: 0,
                sync_latency: 2,
            },
            ElasticSpec {
                skew_bound: 3,
                sync_latency: 2,
            },
        ];
        for g in [fir3(), fir5(), diffeq()] {
            let bound = BoundDfg::bind(&g, &Allocation::paper(2, 1, 1));
            for (i, spec) in specs.iter().enumerate() {
                let engine = Engine::generate(&bound, ControlStyle::Elastic(*spec));
                let model = CompletionModel::Bernoulli { p: 0.6 };
                let config = SimConfig::default();
                assert_equiv(&bound, &engine, &model, &config, 200 + i as u64, 64, true);
            }
        }
    }

    #[test]
    fn elastic_zero_spec_matches_dist_engine_bitwise() {
        // ELASTIC at the zero spec is the distributed engine: same lanes,
        // same words, regardless of skew seeds.
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let run = |style| {
            let engine = Engine::generate(&bound, style);
            run_once(
                &mut SlicedSim::new(&bound, &engine),
                &skew_bank(999, 64),
                &LaneModels::Shared(&model),
                &LaneConfigs::Shared(&SimConfig::default()),
                &mut rng_bank(13, 64),
            )
        };
        assert_eq!(
            run(ControlStyle::Distributed),
            run(ControlStyle::Elastic(ElasticSpec::zero()))
        );
    }

    #[test]
    fn elastic_matches_scalar_under_faults() {
        // All six synchronous kinds plus the elastic-only ClockSkew must
        // compose: Done and Failed lanes equal scalar.
        let bound = BoundDfg::bind(&diffeq(), &Allocation::paper(2, 1, 1));
        let spec = ElasticSpec {
            skew_bound: 1,
            sync_latency: 1,
        };
        let engine = Engine::generate(&bound, ControlStyle::Elastic(spec));
        let plans = [
            FaultPlan::single(1, FaultKind::StuckAtShort { op: OpId(1) }),
            FaultPlan::single(2, FaultKind::StuckAtLong { op: OpId(2) }),
            FaultPlan::single(1, FaultKind::DropPulse { op: OpId(0) }),
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
            FaultPlan::single(
                2,
                FaultKind::ClockSkew {
                    controller: 0,
                    stall: 4,
                },
            ),
        ];
        for (i, plan) in plans.iter().enumerate() {
            let config = SimConfig::with_faults(plan.clone());
            let model = CompletionModel::Bernoulli { p: 0.6 };
            assert_equiv(&bound, &engine, &model, &config, 300 + i as u64, 17, false);
        }
    }

    #[test]
    fn elastic_per_lane_clock_skew_isolates() {
        // Lane 2 carries a ClockSkew fault; every other lane is clean and
        // must match its fault-free scalar elastic twin exactly.
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let engine = Engine::generate(&bound, ControlStyle::Elastic(ElasticSpec::default()));
        let lanes = 7;
        let mut configs = vec![SimConfig::default(); lanes];
        configs[2].faults = FaultPlan::single(
            2,
            FaultKind::ClockSkew {
                controller: 0,
                stall: 3,
            },
        );
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let mut rngs = rng_bank(21, lanes);
        let skews = skew_bank(5, lanes);
        let out = run_once(
            &mut SlicedSim::new(&bound, &engine),
            &skews,
            &LaneModels::Shared(&model),
            &LaneConfigs::PerLane(&configs),
            &mut rngs,
        );
        for (t, lane) in out.iter().enumerate() {
            let mut srng = StdRng::seed_from_u64(21 ^ (t as u64).wrapping_mul(0x9E37));
            let scalar = engine.run_scalar(&bound, &model, None, &mut srng, &configs[t], skews[t]);
            assert_eq!(lane.result(), Some(scalar.as_ref()), "lane {t}");
        }
    }

    #[test]
    fn elastic_without_skew_seeds_falls_back() {
        // An ELASTIC lane needs its clock-schedule seed; DIST ignores them.
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let model = CompletionModel::AlwaysShort;
        let run = |style| {
            let engine = Engine::generate(&bound, style);
            run_once(
                &mut SlicedSim::new(&bound, &engine),
                &skew_bank(0, 3),
                &LaneModels::Shared(&model),
                &LaneConfigs::Shared(&SimConfig::default()),
                &mut rng_bank(0, 4),
            )
        };
        let elastic = run(ControlStyle::Elastic(ElasticSpec::default()));
        assert!(elastic.iter().all(|l| matches!(l, LaneOutcome::Fallback)));
        let dist = run(ControlStyle::Distributed);
        assert!(dist.iter().all(|l| matches!(l, LaneOutcome::Done(_))));
    }

    #[test]
    fn scratch_reuse_across_runs_is_stateless() {
        // Same simulator, three consecutive banks: later runs must not
        // observe state left by earlier ones.
        let bound = BoundDfg::bind(&diffeq(), &Allocation::paper(2, 1, 1));
        let engine = Engine::generate(&bound, ControlStyle::Distributed);
        let model = CompletionModel::Bernoulli { p: 0.6 };
        let mut sim = SlicedSim::new(&bound, &engine);
        let (mut baseline, mut out) = (Vec::new(), Vec::new());
        for round in 0..3 {
            let mut rngs = rng_bank(77, 13);
            sim.run(
                &[],
                &LaneModels::Shared(&model),
                &LaneConfigs::Shared(&SimConfig::default()),
                &mut rngs,
                &mut out,
            );
            if round == 0 {
                baseline = out.clone();
            } else {
                assert_eq!(out, baseline, "round {round} leaked scratch state");
            }
        }
    }

    #[test]
    fn one_simulator_reused_across_styles_lane_counts_and_faults() {
        // One bank simulator, as a slab worker holds it: DIST then
        // ELASTIC per step, lane counts shrinking and growing, fault-free
        // and faulty steps alternating, and a lane whose invalid model
        // falls back on the faulty steps. Every run must equal a fresh
        // simulator's, so no lane may read what an earlier run left.
        let spec = ElasticSpec {
            skew_bound: 2,
            sync_latency: 1,
        };
        let plans = [
            FaultPlan::single(1, FaultKind::StuckAtShort { op: OpId(1) }),
            FaultPlan::single(2, FaultKind::DropPulse { op: OpId(0) }),
            FaultPlan::single(2, FaultKind::SpuriousPulse { op: OpId(3) }),
            FaultPlan::single(
                2,
                FaultKind::FlipState {
                    controller: 0,
                    bit: 0,
                },
            ),
        ];
        for g in [fir3(), diffeq()] {
            let bound = BoundDfg::bind(&g, &Allocation::paper(2, 1, 1));
            let n = bound.dfg().num_ops();
            let engines = [
                Engine::generate(&bound, ControlStyle::Distributed),
                Engine::generate(&bound, ControlStyle::Elastic(spec)),
            ];
            let mut sim = SlicedSim::new(&bound, &engines[0]);
            let mut reused = Vec::new();
            for (step, lanes) in [64, 17, 1, 64].into_iter().enumerate() {
                let faulty = step % 2 == 1;
                let configs: Vec<SimConfig> = (0..lanes)
                    .map(|t| match (faulty, t % 5) {
                        (true, k) if k < plans.len() => SimConfig::with_faults(plans[k].clone()),
                        _ => SimConfig::default(),
                    })
                    .collect();
                let models: Vec<CompletionModel> = (0..lanes)
                    .map(|t| match t % 3 {
                        0 if faulty => CompletionModel::Table(Vec::new()),
                        1 => CompletionModel::Table((0..n).map(|o| (o + t) % 3 != 0).collect()),
                        _ => CompletionModel::Bernoulli { p: 0.6 },
                    })
                    .collect();
                for engine in &engines {
                    sim.clock = engine.elastic_spec();
                    let (skews, models, configs) = (
                        skew_bank(step as u64, lanes),
                        LaneModels::PerLane(&models),
                        LaneConfigs::PerLane(&configs),
                    );
                    let rngs = || rng_bank(40 + step as u64, lanes);
                    sim.run(&skews, &models, &configs, &mut rngs(), &mut reused);
                    let mut fresh_sim = SlicedSim::new(&bound, engine);
                    let fresh = run_once(&mut fresh_sim, &skews, &models, &configs, &mut rngs());
                    assert_eq!(reused, fresh, "{}: step {step}, {lanes} lanes", g.name());
                    assert_eq!(
                        (reused.iter())
                            .filter(|l| matches!(l, LaneOutcome::Fallback))
                            .count(),
                        if faulty { lanes.div_ceil(3) } else { 0 },
                        "{}: step {step}",
                        g.name()
                    );
                    let failed = (reused.iter()).any(|l| matches!(l, LaneOutcome::Failed(_)));
                    assert_eq!(failed, faulty, "{}: step {step}", g.name());
                }
            }
        }
    }

    #[test]
    fn pulse_chain_across_three_controllers_settles_in_one_cycle() {
        // A hand-built bank whose result enables chain through `C_CO`
        // inputs: unit 0 pulses RE0 unconditionally, unit 1 pulses RE1
        // when it sees C_CO(0), and unit 2 pulses RE2..RE4 when it sees
        // C_CO(1). The whole chain settles within cycle 1, which takes
        // the fixpoint three rounds before it converges.
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let n = bound.dfg().num_ops();
        let link = |unit: usize, op: usize, input: Option<usize>, res: &[usize]| {
            let mut f = Fsm::new(format!("D-FSM-chain{unit}"));
            let s = f.add_state(format!("R{op}"));
            let outs: Vec<usize> = res.iter().map(|r| f.add_output(format!("RE{r}"))).collect();
            match input {
                None => f.add_transition(s, s, Expr::Const(true), outs),
                Some(p) => {
                    let v = Expr::var(f.add_input(format!("C_CO({p})")));
                    f.add_transition(s, s, v.clone(), outs);
                    f.add_transition(s, s, v.not(), Vec::new());
                }
            }
            f.set_initial(s);
            (tauhls_sched::UnitId(unit), f)
        };
        let tail: Vec<usize> = (2..n).collect();
        let cu = DistributedControlUnit::from_controllers(vec![
            link(0, 0, None, &[0]),
            link(1, 1, Some(0), &[1]),
            link(2, 2, Some(1), &tail),
        ]);
        let model = CompletionModel::Bernoulli { p: 0.5 };
        let config = SimConfig::default();
        let skewed = ElasticSpec {
            skew_bound: 2,
            sync_latency: 0,
        };
        for engine in [
            Engine::Dist(cu.clone()),
            Engine::Elastic(cu.clone(), skewed),
        ] {
            assert_equiv(&bound, &engine, &model, &config, 9, 64, true);
        }
        let dist = Engine::Dist(cu);
        let out = run_once(
            &mut SlicedSim::new(&bound, &dist),
            &[],
            &LaneModels::Shared(&model),
            &LaneConfigs::Shared(&config),
            &mut rng_bank(9, 3),
        );
        for lane in &out {
            let Some(Ok(r)) = lane.result() else {
                panic!("chain lane did not complete: {lane:?}");
            };
            assert_eq!(r.completion_cycle, vec![1; n]);
            assert_eq!(r.cycles, 1);
        }
    }

    /// Runs `config` on 3 lanes of `engine` over fir3 (2 multipliers, 1
    /// adder) under `model`, and checks every lane is the scalar
    /// engine's error, field for field, with the given reason prefix and
    /// pulse wavefront.
    fn assert_site(
        engine: &Engine,
        model: &CompletionModel,
        config: &SimConfig,
        reason: &str,
        pulses: &[usize],
    ) {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let out = run_once(
            &mut SlicedSim::new(&bound, engine),
            &skew_bank(1, 3),
            &LaneModels::Shared(model),
            &LaneConfigs::Shared(config),
            &mut rng_bank(1, 3),
        );
        for (t, lane) in out.iter().enumerate() {
            let mut srng = StdRng::seed_from_u64(1 ^ (t as u64).wrapping_mul(0x9E37));
            let scalar = engine.run_scalar(&bound, model, None, &mut srng, config, 0);
            let LaneOutcome::Failed(err) = lane else {
                panic!("lane {t}: {lane:?}, scalar {scalar:?}");
            };
            assert_eq!(Err(err), scalar.as_ref(), "lane {t}");
            let diag = err.diagnostics().expect("deadlock or desync");
            assert!(diag.reason.starts_with(reason), "lane {t}: {}", diag.reason);
            assert_eq!(diag.pulses, pulses, "lane {t}");
        }
    }

    /// DIST and CENT (the composite relabelling) on fir3's bank.
    fn assert_bank_site(model: &CompletionModel, fault: FaultKind, reason: &str, pulses: &[usize]) {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let config = SimConfig::with_faults(FaultPlan::single(1, fault));
        for style in [ControlStyle::Distributed, ControlStyle::Cent] {
            assert_site(
                &Engine::generate(&bound, style),
                model,
                &config,
                reason,
                pulses,
            );
        }
    }

    #[test]
    fn watchdog_deadlock_carries_the_previous_cycles_pulses() {
        assert_bank_site(
            &CompletionModel::AlwaysShort,
            FaultKind::StuckAtLong { op: OpId(0) },
            "no progress within the 125-cycle watchdog budget",
            &[0, 1],
        );
    }

    #[test]
    fn invalid_state_id_is_a_desync() {
        assert_bank_site(
            &CompletionModel::AlwaysShort,
            FaultKind::FlipState {
                controller: 0,
                bit: 2,
            },
            "controller D-FSM-M1 latched invalid state id 6",
            &[0, 1],
        );
    }

    #[test]
    fn producer_order_violation_names_the_first_pending_producer() {
        assert_bank_site(
            &CompletionModel::AlwaysShort,
            FaultKind::DelayLatch {
                op: OpId(0),
                delay: 2,
            },
            "O3 fired before its producer O0 completed",
            &[0, 1],
        );
    }

    #[test]
    fn stuck_at_short_premature_latch_names_the_result_enable() {
        assert_bank_site(
            &CompletionModel::AlwaysLong,
            FaultKind::StuckAtShort { op: OpId(0) },
            "unit 0 latched RE0 before its true completion (stuck-at-short)",
            &[0],
        );
    }

    #[test]
    fn post_run_invariant_reads_the_state_a_lane_finished_in() {
        assert_bank_site(
            &CompletionModel::AlwaysShort,
            FaultKind::SpuriousPulse { op: OpId(2) },
            "post-run invariant violated: O2 has inconsistent start/completion",
            &[0, 1, 4],
        );
    }

    /// fir3's DIST bank with its first controller rebuilt: same states,
    /// inputs and outputs, transitions from `edit`.
    fn edited_bank(edit: impl Fn(&Fsm, &mut Fsm)) -> Engine {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let mut ctrls = DistributedControlUnit::generate(&bound)
            .controllers()
            .to_vec();
        let f = &ctrls[0].1;
        let mut g = Fsm::new(f.name());
        for s in 0..f.num_states() {
            g.add_state(f.state_name(StateId(s)));
        }
        for name in f.inputs() {
            g.add_input(name.clone());
        }
        for name in f.outputs() {
            g.add_output(name.clone());
        }
        g.set_initial(f.initial());
        edit(f, &mut g);
        ctrls[0].1 = g;
        Engine::Dist(DistributedControlUnit::from_controllers(ctrls))
    }

    #[test]
    fn lost_lockstep_reports_the_fsm_error() {
        let copy = |f: &Fsm, g: &mut Fsm, skip_initial: bool| {
            for t in f.transitions() {
                if !(skip_initial && t.from == f.initial()) {
                    g.add_transition(t.from, t.to, t.guard.clone(), t.outputs.clone());
                }
            }
        };
        let overlapping = edited_bank(|f, g| {
            copy(f, g, false);
            g.add_transition(f.initial(), f.initial(), Expr::Const(true), Vec::new());
        });
        let uncovered = edited_bank(|f, g| copy(f, g, true));
        let error: [fn(StateId) -> FsmError; 2] =
            [FsmError::Nondeterministic, FsmError::Incomplete];
        for (engine, error) in [overlapping, uncovered].into_iter().zip(error) {
            let initial = engine.dist_bank().expect("a DIST bank").controllers()[0]
                .1
                .initial();
            let reason = format!("controller D-FSM-M1 lost lockstep: {}", error(initial));
            let model = CompletionModel::AlwaysShort;
            assert_site(&engine, &model, &SimConfig::default(), &reason, &[]);
        }
    }

    #[test]
    fn cent_sync_sites_match_scalar() {
        let stuck_short = SimConfig::with_faults(FaultPlan::single(
            1,
            FaultKind::StuckAtShort { op: OpId(2) },
        ));
        let delayed = SimConfig::with_faults(FaultPlan::single(
            1,
            FaultKind::DelayLatch {
                op: OpId(0),
                delay: 2,
            },
        ));
        let starved = SimConfig {
            watchdog: Watchdog::Cycles(1),
            ..SimConfig::default()
        };
        let (short, long) = (CompletionModel::AlwaysShort, CompletionModel::AlwaysLong);
        for (model, config, reason) in [
            (&long, &stuck_short, "step latched O2 at the base half"),
            (
                &short,
                &delayed,
                "post-run invariant violated: O3 started at 2",
            ),
            (
                &long,
                &starved,
                "no progress within the 1-cycle watchdog budget",
            ),
        ] {
            assert_site(&Engine::Sync, model, config, reason, &[]);
        }
    }
}
