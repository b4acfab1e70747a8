//! The shared cycle-accurate simulation kernel.
//!
//! Every controller-style simulator in this crate (distributed, the
//! centralized product controller, the synchronized TAUBM step-walk, and
//! the pipelined multi-iteration engine) runs on the same substrate:
//!
//! * a [`CompletionFabric`] holding the completion-signal state — pulse
//!   wavefronts, done latches and fault-deferred result latches — as
//!   packed `u64` bitset words keyed by [`OpId`], preallocated once per
//!   run so the cycle loop performs no per-cycle heap allocation of its
//!   own (controller stepping still returns its asserted-output list as a
//!   `Vec`, owned by the `tauhls-fsm` crate);
//! * a [`ControlStyle`] trait: how a style decides it is still running,
//!   how it latches a completion, and how it advances one cycle;
//! * [`run`] — the kernel loop, which implements the middleware every
//!   engine used to duplicate exactly once, in a fixed order per cycle:
//!   watchdog check, fault-deferred result latches coming due, then the
//!   style's `advance` (which itself applies fault overlays *after* the
//!   completion-model draws, keeping RNG streams plan-independent).
//!
//! FSM-driven styles (distributed / centralized / pipelined) additionally
//! share `FsmStyle`: completion sampling, the combinational pulse
//! fixpoint, the premature-latch oracle, commit and state-register upsets
//! are implemented once, with the style-specific residue (what `C_CO(op)`
//! means, when to latch, how to snapshot diagnostics) behind the small
//! `PulseHooks` trait.

use crate::error::{ControllerSnapshot, Diagnostics, SimError};
use crate::fault::{FaultPlan, SimConfig};
use crate::model::CompletionModel;
use rand::{splitmix64_mix, Rng};
use tauhls_dfg::{Dfg, OpId};
use tauhls_fsm::{DistributedControlUnit, Fsm, StateId};
use tauhls_sched::BoundDfg;

/// A set of operation ids stored as packed 64-bit words.
///
/// Membership updates and queries are O(1); iteration is ascending by op
/// id (the order the legacy engines got from their sort-and-dedup pulse
/// vectors). Out-of-range ids are ignored on insert and absent on query,
/// so a hostile fault plan cannot push the fabric out of bounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpSet {
    words: Vec<u64>,
    len: usize,
}

impl OpSet {
    /// An empty set over the id universe `0..len`.
    pub fn new(len: usize) -> Self {
        OpSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts `op`; ids outside the universe are ignored.
    pub fn insert(&mut self, op: OpId) {
        if op.0 < self.len {
            self.words[op.0 / 64] |= 1u64 << (op.0 % 64);
        }
    }

    /// True when `op` is a member.
    pub fn contains(&self, op: OpId) -> bool {
        op.0 < self.len && self.words[op.0 / 64] & (1u64 << (op.0 % 64)) != 0
    }

    /// Overwrites `self` with the contents of `other` (same universe).
    pub fn copy_from(&mut self, other: &OpSet) {
        debug_assert_eq!(self.len, other.len);
        self.words.copy_from_slice(&other.words);
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = OpId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(OpId(wi * 64 + b))
                }
            })
        })
    }

    /// The ids of the universe *not* in the set, ascending — the
    /// set-difference `universe \ self`, walked word-by-word over the
    /// packed representation without materializing either side.
    pub fn complement(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = !w;
            std::iter::from_fn(move || loop {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = wi * 64 + b;
                if id < len {
                    return Some(id);
                }
            })
        })
    }
}

/// The completion-signal state shared by every controller style: pulse
/// wavefronts, done latches, and result latches deferred by `DelayLatch`
/// faults. All bitsets are allocated once, at [`CompletionFabric::new`].
#[derive(Clone, Debug)]
pub struct CompletionFabric {
    /// Ops whose single-iteration result has been latched (`done` flags).
    /// Multi-instance styles (pipelined) track instance counts themselves
    /// and leave this empty.
    pub(crate) done: OpSet,
    /// Member count of `done`, maintained incrementally.
    pub(crate) done_count: usize,
    /// The completion pulses asserted in the current cycle's fixpoint.
    pub(crate) pulses: OpSet,
    /// Fault-injected spurious pulses seeding the current wavefront.
    pub(crate) injected: OpSet,
    /// Scratch set for the next fixpoint round.
    pub(crate) scratch: OpSet,
    /// Reusable buffer for [`crate::FaultPlan::spurious_at`].
    pub(crate) spur_buf: Vec<OpId>,
    /// Result latches deferred by `DelayLatch` faults: `(due cycle, op)`,
    /// in insertion order.
    pub(crate) deferred: Vec<(usize, OpId)>,
}

impl CompletionFabric {
    /// A fabric for `num_ops` operations, with every bitset preallocated.
    pub fn new(num_ops: usize) -> Self {
        CompletionFabric {
            done: OpSet::new(num_ops),
            done_count: 0,
            pulses: OpSet::new(num_ops),
            injected: OpSet::new(num_ops),
            scratch: OpSet::new(num_ops),
            spur_buf: Vec::new(),
            deferred: Vec::new(),
        }
    }

    /// The done latches.
    pub fn done(&self) -> &OpSet {
        &self.done
    }

    /// The pulse wavefront of the most recent cycle.
    pub fn pulses(&self) -> &OpSet {
        &self.pulses
    }

    /// Latches `op` as done (idempotent; maintains the member count).
    pub fn mark_done(&mut self, op: OpId) {
        if !self.done.contains(op) {
            self.done.insert(op);
            self.done_count += 1;
        }
    }
}

/// Parameters of the ELASTIC (GALS) controller style: every control unit
/// runs on a local clock with seed-driven bounded skew, and completions
/// cross clock domains through a handshake with two-flop-style latency
/// measured in fabric cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ElasticSpec {
    /// Maximum stall cycles a local clock may insert within one skew
    /// window (the window is `skew_bound + 1` fabric cycles long, and
    /// every clock ticks at least once per window). Zero means every
    /// controller ticks every fabric cycle.
    pub skew_bound: u32,
    /// Handshake latency in fabric cycles before a latched completion
    /// becomes visible to *other* clock domains. Zero means combinational
    /// cross-domain visibility — the synchronous semantics.
    pub sync_latency: u32,
}

impl Default for ElasticSpec {
    fn default() -> Self {
        ElasticSpec {
            skew_bound: 1,
            sync_latency: 1,
        }
    }
}

impl ElasticSpec {
    /// The degenerate spec: no skew, no handshake latency. An elastic run
    /// under this spec is bisimilar to the distributed style cycle for
    /// cycle.
    pub fn zero() -> Self {
        ElasticSpec {
            skew_bound: 0,
            sync_latency: 0,
        }
    }

    /// The skew-window length in fabric cycles.
    pub fn period(&self) -> u32 {
        self.skew_bound + 1
    }
}

/// The clock-domain state of a run, alongside the [`CompletionFabric`]:
/// which controller local clocks tick on which fabric cycle, and when a
/// latched completion becomes visible across domains.
///
/// The synchronous styles (DIST / CENT / CENT-SYNC) are the degenerate
/// one-domain case: every controller ticks every cycle and visibility is
/// combinational, so for them the fabric is pure bookkeeping with no
/// behavioral effect.
#[derive(Clone, Debug)]
pub struct ClockFabric {
    spec: ElasticSpec,
    skew_seed: u64,
    synchronous: bool,
    saturated: bool,
    /// Per-op fabric cycle at which the latched completion becomes
    /// visible to other clock domains (`usize::MAX` = not latched yet).
    visible_at: Vec<usize>,
}

impl ClockFabric {
    /// The one-domain fabric of the synchronous styles: every controller
    /// ticks every cycle, cross-domain visibility is combinational.
    pub fn synchronous(num_ops: usize) -> Self {
        ClockFabric {
            spec: ElasticSpec::zero(),
            skew_seed: 0,
            synchronous: true,
            saturated: false,
            visible_at: vec![usize::MAX; num_ops],
        }
    }

    /// A multi-domain fabric: one local clock per controller, stall
    /// schedules drawn deterministically from `skew_seed`.
    pub fn elastic(num_ops: usize, spec: ElasticSpec, skew_seed: u64) -> Self {
        ClockFabric {
            spec,
            skew_seed,
            synchronous: false,
            saturated: false,
            visible_at: vec![usize::MAX; num_ops],
        }
    }

    /// The worst schedule in `spec`'s schedule space: every controller
    /// stalls the full `skew_bound` in every window, ticking only on the
    /// window's last cycle. Stalls delay events monotonically, so this
    /// fabric bounds every seeded schedule from above — it backs the
    /// schedule-independent `worst` cell of elastic latency summaries.
    pub fn elastic_saturated(num_ops: usize, spec: ElasticSpec) -> Self {
        ClockFabric {
            spec,
            skew_seed: 0,
            synchronous: false,
            saturated: true,
            visible_at: vec![usize::MAX; num_ops],
        }
    }

    /// The spec this fabric was built from.
    pub fn spec(&self) -> &ElasticSpec {
        &self.spec
    }

    /// The stall count (leading skipped ticks) of controller `ctrl` in
    /// skew window `window`: a deterministic draw in `0..period`, so each
    /// clock ticks at least once per window. Public so the bit-sliced
    /// engine reproduces the exact same schedule per lane.
    pub fn window_stall(skew_seed: u64, ctrl: usize, window: usize, period: u32) -> u32 {
        let mixed = splitmix64_mix(
            skew_seed
                ^ (ctrl as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (window as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        (mixed % u64::from(period.max(1))) as u32
    }

    /// True when controller `ctrl`'s local clock ticks at fabric cycle
    /// `cycle` (cycles are 1-based, as in the kernel loop).
    pub fn ticks(&self, ctrl: usize, cycle: usize) -> bool {
        if self.synchronous || self.spec.skew_bound == 0 {
            return true;
        }
        let period = self.spec.period() as usize;
        let window = cycle.saturating_sub(1) / period;
        let pos = (cycle.saturating_sub(1) % period) as u32;
        if self.saturated {
            return pos >= self.spec.skew_bound;
        }
        pos >= Self::window_stall(self.skew_seed, ctrl, window, self.spec.period())
    }

    /// True when cross-domain completion visibility is combinational
    /// (same-cycle), which is the synchronous semantics.
    pub fn combinational(&self) -> bool {
        self.synchronous || self.spec.sync_latency == 0
    }

    /// Records the handshake start for `op`'s completion, latched at
    /// fabric cycle `at`: it becomes visible at `at + sync_latency`.
    pub fn on_latch(&mut self, op: OpId, at: usize) {
        if let Some(slot) = self.visible_at.get_mut(op.0) {
            *slot = (*slot).min(at + self.spec.sync_latency as usize);
        }
    }

    /// True when `op`'s latched completion has crossed the handshake and
    /// is visible to other clock domains at fabric cycle `cycle`.
    pub fn done_visible(&self, op: usize, cycle: usize) -> bool {
        self.visible_at.get(op).is_some_and(|&v| v <= cycle)
    }
}

/// One controller style on the kernel: the style owns its per-op
/// bookkeeping (start/completion cycles, busy counters, instance counts)
/// and tells the kernel how to drive it cycle by cycle.
pub trait ControlStyle<R: Rng> {
    /// True while the run has outstanding work. The kernel stops — and
    /// reports the final cycle count — as soon as this goes false.
    fn running(&self, fabric: &CompletionFabric) -> bool;

    /// Latches the completion of `op` at cycle `at`. Called by the kernel
    /// when a fault-deferred result latch comes due.
    fn latch(&mut self, fabric: &mut CompletionFabric, op: OpId, at: usize);

    /// Advances one cycle: sample completions, propagate pulses, commit.
    /// `cycle` is the current cycle number; step-walk styles that consume
    /// an extension half-cycle increment it in place.
    fn advance(
        &mut self,
        cycle: &mut usize,
        fabric: &mut CompletionFabric,
        rng: &mut R,
        config: &SimConfig,
    ) -> Result<(), SimError>;

    /// Snapshots the style's view of the run for an error report.
    fn diagnostics(
        &self,
        cycle: usize,
        reason: String,
        fabric: &CompletionFabric,
    ) -> Box<Diagnostics>;
}

/// The kernel loop: runs `style` to completion and returns the final
/// cycle count.
///
/// Per cycle, in order: watchdog check (against `max_cycles`), deferred
/// result latches coming due, then the style's [`ControlStyle::advance`].
/// Note the watchdog diagnostics snapshot the *previous* cycle's pulse
/// wavefront — the current cycle never sampled.
pub fn run<R: Rng, S: ControlStyle<R>>(
    style: &mut S,
    fabric: &mut CompletionFabric,
    rng: &mut R,
    config: &SimConfig,
    max_cycles: usize,
) -> Result<usize, SimError> {
    let mut cycle = 0usize;
    while style.running(fabric) {
        cycle += 1;
        if cycle > max_cycles {
            return Err(SimError::Deadlock(style.diagnostics(
                cycle,
                format!("no progress within the {max_cycles}-cycle watchdog budget"),
                fabric,
            )));
        }

        // Deferred result latches that come due this cycle (kept in
        // insertion order: downstream hazard accounting depends on it).
        let mut deferred = std::mem::take(&mut fabric.deferred);
        deferred.retain(|&(at, op)| {
            if at <= cycle {
                style.latch(fabric, op, at);
                false
            } else {
                true
            }
        });
        fabric.deferred = deferred;

        style.advance(&mut cycle, fabric, rng, config)?;
    }
    Ok(cycle)
}

/// Decodes a `C_CO(op)` completion-signal input name.
fn parse_cco(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("C_CO(")?;
    Some(
        rest.strip_suffix(')')
            .and_then(|s| s.parse().ok())
            .expect("completion signal name"),
    )
}

/// The style-specific residue of an FSM-driven engine; everything else
/// (sampling order, fixpoint, premature-latch oracle, commit, upsets)
/// lives in [`FsmStyle::advance`].
pub(crate) trait PulseHooks {
    /// Per-`Exec`-phase bookkeeping before the completion draw (start
    /// cycles, instance counts, producer-order protocol checks). An
    /// `Err(reason)` becomes a [`SimError::Desync`].
    fn exec(
        &mut self,
        fabric: &CompletionFabric,
        dfg: &Dfg,
        op: OpId,
        stage: u32,
        cycle: usize,
        faulty: bool,
    ) -> Result<(), String>;

    /// Operand values fed to the completion model for `op`.
    fn operands(&self, op: OpId) -> (i64, i64);

    /// Busy-cycle accounting for the unit executing `op`.
    fn busy(&mut self, fabric: &CompletionFabric, op: OpId, unit: usize);

    /// The *true* value of the `C_CO(p)` input as seen by a controller
    /// currently working toward `cur`, given the pulse wavefront (stuck-at
    /// overrides are layered on top by the kernel). `cycle` is the current
    /// fabric cycle — the elastic style needs it to decide handshake
    /// visibility; synchronous styles ignore it.
    fn cco(
        &self,
        fabric: &CompletionFabric,
        pulses: &OpSet,
        p: usize,
        cur: OpId,
        cycle: usize,
    ) -> bool;

    /// Whether controller `ctrl`'s local clock ticks at fabric cycle
    /// `cycle`. A controller that does not tick is completely frozen for
    /// the cycle: no phase decode, no completion draw, no busy
    /// accounting, no transition. Synchronous styles always tick; the
    /// elastic style stalls controllers inside their skew window and
    /// under `ClockSkew` faults.
    fn ticks(&self, _ctrl: usize, _cycle: usize, _faults: &FaultPlan) -> bool {
        true
    }

    /// True when a pulse for `op` must not latch again (already done).
    fn skip_latch(&self, fabric: &CompletionFabric, op: OpId) -> bool;

    /// Latches the completion of `op` at cycle `at`.
    fn latch(&mut self, fabric: &mut CompletionFabric, op: OpId, at: usize);

    /// True while the style has outstanding work.
    fn running(&self, fabric: &CompletionFabric) -> bool;

    /// Error-report snapshot.
    fn diagnostics(
        &self,
        bank: &FsmBank,
        fabric: &CompletionFabric,
        cycle: usize,
        reason: String,
    ) -> Box<Diagnostics>;
}

/// The controller FSMs of a run plus every per-cycle scratch buffer the
/// legacy engines used to reallocate each cycle.
pub(crate) struct FsmBank<'a> {
    /// `(unit index, controller)` in generation order.
    pub(crate) fsms: Vec<(usize, &'a Fsm)>,
    /// Current state of each controller.
    pub(crate) states: Vec<StateId>,
    /// The last fixpoint round's `(next state, asserted outputs)`.
    steps: Vec<(StateId, Vec<usize>)>,
    /// The op each controller's current state refers to.
    cur_op: Vec<OpId>,
    /// Sampled (fault-overlaid) unit completion signals.
    unit_completion: Vec<bool>,
    /// Where a stuck-at override contradicted the model draw: the truth.
    diverged: Vec<Option<bool>>,
}

impl<'a> FsmBank<'a> {
    pub(crate) fn new(cu: &'a DistributedControlUnit, num_units: usize) -> Self {
        let fsms: Vec<(usize, &Fsm)> = cu.controllers().iter().map(|(u, f)| (u.0, f)).collect();
        let states: Vec<StateId> = fsms.iter().map(|(_, f)| f.initial()).collect();
        let n = fsms.len();
        FsmBank {
            fsms,
            states,
            steps: Vec::with_capacity(n),
            cur_op: vec![OpId(0); n],
            unit_completion: vec![false; num_units],
            diverged: vec![None; num_units],
        }
    }

    /// Per-controller state snapshots for a [`Diagnostics`] record.
    pub(crate) fn snapshots(&self) -> Vec<ControllerSnapshot> {
        (self.fsms.iter().zip(&self.states))
            .map(|(&(u, f), &st)| crate::distributed::controller_snapshot(u, f, st))
            .collect()
    }
}

/// An FSM-driven controller style on the kernel: the shared cycle body
/// (sampling → fixpoint → premature-latch oracle → commit → upsets) over
/// a [`FsmBank`], parameterized by [`PulseHooks`].
pub(crate) struct FsmStyle<'a, H> {
    pub(crate) bank: FsmBank<'a>,
    pub(crate) hooks: H,
    pub(crate) dfg: &'a Dfg,
    pub(crate) model: &'a CompletionModel,
}

impl<R: Rng, H: PulseHooks> ControlStyle<R> for FsmStyle<'_, H> {
    fn running(&self, fabric: &CompletionFabric) -> bool {
        self.hooks.running(fabric)
    }

    fn latch(&mut self, fabric: &mut CompletionFabric, op: OpId, at: usize) {
        self.hooks.latch(fabric, op, at);
    }

    fn diagnostics(
        &self,
        cycle: usize,
        reason: String,
        fabric: &CompletionFabric,
    ) -> Box<Diagnostics> {
        self.hooks.diagnostics(&self.bank, fabric, cycle, reason)
    }

    fn advance(
        &mut self,
        cycle: &mut usize,
        fabric: &mut CompletionFabric,
        rng: &mut R,
        config: &SimConfig,
    ) -> Result<(), SimError> {
        let FsmStyle {
            bank,
            hooks,
            dfg,
            model,
        } = self;
        let cycle = *cycle;
        let faults = &config.faults;
        let faulty = !faults.is_empty();

        // Completion sampling: units in an Exec phase draw the model once
        // (so the RNG stream only depends on controller states, never on
        // the fault plan), stuck-at overrides are layered on afterwards,
        // and `diverged` remembers any contradiction for the
        // premature-latch oracle below.
        bank.unit_completion.fill(false);
        bank.diverged.fill(None);
        for i in 0..bank.fsms.len() {
            // A controller whose local clock does not tick this fabric
            // cycle is completely frozen: it decodes no phase, draws no
            // completion, and holds its state through the fixpoint below.
            if !hooks.ticks(i, cycle, faults) {
                continue;
            }
            let (u, f) = bank.fsms[i];
            let st = bank.states[i];
            let name = match f.state_name_opt(st) {
                Some(name) => name,
                None => {
                    return Err(SimError::Desync(hooks.diagnostics(
                        bank,
                        fabric,
                        cycle,
                        format!("controller {} latched invalid state id {}", f.name(), st.0),
                    )))
                }
            };
            let phase = match crate::distributed::parse_phase(name) {
                Some(p) => p,
                None => {
                    return Err(SimError::UnknownState {
                        fsm: f.name().to_string(),
                        state: name.to_string(),
                    })
                }
            };
            use crate::distributed::Phase;
            bank.cur_op[i] = match phase {
                Phase::Exec(op, _) | Phase::Ready(op) => op,
            };
            if let Phase::Exec(op, stage) = phase {
                if let Err(reason) = hooks.exec(fabric, dfg, op, stage, cycle, faulty) {
                    return Err(SimError::Desync(
                        hooks.diagnostics(bank, fabric, cycle, reason),
                    ));
                }
                let node = dfg.op(op);
                let (lhs, rhs) = hooks.operands(op);
                let truth = model.completion(op, node.kind, lhs, rhs, rng);
                let eff = faults.stuck_completion(op, cycle).unwrap_or(truth);
                bank.unit_completion[u] = eff;
                if eff != truth {
                    bank.diverged[u] = Some(truth);
                }
                hooks.busy(fabric, op, u);
            }
        }

        // Fixpoint over same-cycle completion pulses (C_CO chains).
        // Spurious-pulse faults seed the wavefront; drop faults censor it.
        {
            let CompletionFabric {
                spur_buf,
                injected,
                pulses,
                ..
            } = &mut *fabric;
            spur_buf.clear();
            faults.spurious_at(cycle, spur_buf);
            injected.clear();
            for &op in spur_buf.iter() {
                injected.insert(op);
            }
            pulses.copy_from(injected);
        }
        for _round in 0..bank.fsms.len() + 2 {
            bank.steps.clear();
            {
                let CompletionFabric {
                    scratch, injected, ..
                } = &mut *fabric;
                scratch.copy_from(injected);
            }
            for i in 0..bank.fsms.len() {
                if !hooks.ticks(i, cycle, faults) {
                    bank.steps.push((bank.states[i], Vec::new()));
                    continue;
                }
                let (u, f) = bank.fsms[i];
                let st = bank.states[i];
                let cur = bank.cur_op[i];
                let h: &H = hooks;
                let fab: &CompletionFabric = fabric;
                let unit_completion = &bank.unit_completion;
                let step = f.try_step(st, |v| {
                    let name = &f.inputs()[v];
                    match parse_cco(name) {
                        Some(p) => match faults.stuck_completion(OpId(p), cycle) {
                            Some(forced) => forced,
                            None => h.cco(fab, &fab.pulses, p, cur, cycle),
                        },
                        // Own unit completion C_{name}.
                        None => unit_completion[u],
                    }
                });
                let (next, outs) = match step {
                    Ok(r) => r,
                    Err(e) => {
                        return Err(SimError::Desync(hooks.diagnostics(
                            bank,
                            fabric,
                            cycle,
                            format!("controller {} lost lockstep: {e}", f.name()),
                        )))
                    }
                };
                for &o in &outs {
                    if let Some(rest) = f.outputs()[o].strip_prefix("RE") {
                        let op = OpId(rest.parse::<usize>().expect("RE signal name"));
                        if !faults.drops_pulse(op, cycle) {
                            fabric.scratch.insert(op);
                        }
                    }
                }
                bank.steps.push((next, outs));
            }
            if fabric.scratch == fabric.pulses {
                break;
            }
            std::mem::swap(&mut fabric.pulses, &mut fabric.scratch);
        }

        // Premature-latch oracle: where a stuck-at override contradicted
        // the telescopic predictor, re-step the affected controller with
        // the *true* completion value. A result-enable pulse the override
        // emitted but the truth would not means the unit latched a result
        // that was not ready.
        if faulty {
            for i in 0..bank.fsms.len() {
                let (u, f) = bank.fsms[i];
                let st = bank.states[i];
                let Some(truth) = bank.diverged[u] else {
                    continue;
                };
                let cur = bank.cur_op[i];
                let h: &H = hooks;
                let fab: &CompletionFabric = fabric;
                let truth_step = f.try_step(st, |v| {
                    let name = &f.inputs()[v];
                    match parse_cco(name) {
                        Some(p) => h.cco(fab, &fab.pulses, p, cur, cycle),
                        None => truth,
                    }
                });
                let truth_outs = match truth_step {
                    Ok((_, outs)) => outs,
                    Err(_) => continue,
                };
                for &o in &bank.steps[i].1 {
                    if !truth_outs.contains(&o) && f.outputs()[o].starts_with("RE") {
                        return Err(SimError::Desync(hooks.diagnostics(
                            bank,
                            fabric,
                            cycle,
                            format!(
                                "unit {} latched {} before its true completion (stuck-at-short)",
                                u,
                                f.outputs()[o]
                            ),
                        )));
                    }
                }
            }
        }

        // Commit: advance states, latch completions (possibly deferred by
        // a DelayLatch fault), apply scheduled state-register upsets.
        for i in 0..bank.steps.len() {
            bank.states[i] = bank.steps[i].0;
        }
        let committed = std::mem::take(&mut fabric.pulses);
        for op in committed.iter() {
            if hooks.skip_latch(fabric, op) || fabric.deferred.iter().any(|&(_, d)| d == op) {
                continue;
            }
            let delay = faults.latch_delay(op, cycle);
            if delay == 0 {
                hooks.latch(fabric, op, cycle);
            } else {
                fabric.deferred.push((cycle + delay, op));
            }
        }
        fabric.pulses = committed;
        if faulty {
            for i in 0..bank.states.len() {
                if let Some(bit) = faults.flip_at(i, cycle) {
                    bank.states[i] = StateId(bank.states[i].0 ^ (1usize << bit));
                }
            }
        }
        Ok(())
    }
}

/// How a single-iteration FSM engine labels its diagnostics: one snapshot
/// per unit controller (distributed), or one composite snapshot naming
/// the product controller (centralized).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DiagMode {
    PerUnit,
    Composite(&'static str),
}

impl DiagMode {
    /// Labels per-unit controller snapshots for this mode. The composite
    /// snapshot's state is the component state names joined with `.` —
    /// the state name of the equivalent product controller.
    pub(crate) fn label(self, per_unit: Vec<ControllerSnapshot>) -> Vec<ControllerSnapshot> {
        match self {
            DiagMode::PerUnit => per_unit,
            DiagMode::Composite(name) => vec![ControllerSnapshot {
                unit: 0,
                fsm: name.to_string(),
                state: (per_unit.iter())
                    .map(|c| c.state.as_str())
                    .collect::<Vec<_>>()
                    .join("."),
            }],
        }
    }

    /// `err`, a per-unit diagnosis of the bank, with its controllers
    /// labelled for this mode.
    pub(crate) fn relabel(self, mut err: SimError) -> SimError {
        if let SimError::Deadlock(d) | SimError::Desync(d) = &mut err {
            d.controllers = self.label(std::mem::take(&mut d.controllers));
        }
        err
    }
}

/// Hooks for the single-iteration engines (distributed and centralized):
/// done latches live in the fabric, completion semantics are
/// latched-pulse (`done || pulse`), and busy cycles are counted per unit.
pub(crate) struct SingleIterHooks<'a> {
    pub(crate) bound: &'a BoundDfg,
    /// Precomputed operand values per op (model draws are RNG-neutral in
    /// the operands, so this is exactly the legacy closure's values).
    pub(crate) operand_values: Vec<(i64, i64)>,
    pub(crate) completion_cycle: Vec<usize>,
    pub(crate) start_cycle: Vec<usize>,
    pub(crate) unit_busy: Vec<usize>,
    pub(crate) diag: DiagMode,
}

impl<'a> SingleIterHooks<'a> {
    pub(crate) fn new(
        bound: &'a BoundDfg,
        operand_values: Vec<(i64, i64)>,
        diag: DiagMode,
    ) -> Self {
        let n = bound.dfg().num_ops();
        let num_units = bound.allocation().units().len();
        SingleIterHooks {
            bound,
            operand_values,
            completion_cycle: vec![0; n],
            start_cycle: vec![0; n],
            unit_busy: vec![0; num_units],
            diag,
        }
    }
}

/// Builds the single-iteration diagnostics snapshot (shared between the
/// hook impl and the entry functions' post-run invariant check).
pub(crate) fn single_iter_diagnostics(
    diag: &DiagMode,
    bank: &FsmBank,
    fabric: &CompletionFabric,
    cycle: usize,
    reason: String,
) -> Box<Diagnostics> {
    let n = fabric.done.len;
    Box::new(Diagnostics {
        cycle,
        reason,
        controllers: diag.label(bank.snapshots()),
        done: (0..n).map(|i| fabric.done.contains(OpId(i))).collect(),
        outstanding: fabric.done.complement().collect(),
        pulses: fabric.pulses.iter().map(|o| o.0).collect(),
    })
}

impl PulseHooks for SingleIterHooks<'_> {
    fn exec(
        &mut self,
        fabric: &CompletionFabric,
        dfg: &Dfg,
        op: OpId,
        stage: u32,
        cycle: usize,
        _faulty: bool,
    ) -> Result<(), String> {
        if stage == 0 && self.start_cycle[op.0] == 0 {
            self.start_cycle[op.0] = cycle;
        }
        // Protocol invariant: all predecessors latched their results
        // before a consumer occupies its unit. Faults (stuck-at-short
        // consumer reads, delayed latches, state flips) break exactly
        // this, so it is checked on every execution cycle, not just in
        // debug builds.
        if let Some(p) = dfg.preds(op).iter().find(|p| !fabric.done.contains(**p)) {
            return Err(format!("{op} fired before its producer {p} completed"));
        }
        Ok(())
    }

    fn operands(&self, op: OpId) -> (i64, i64) {
        self.operand_values[op.0]
    }

    fn busy(&mut self, fabric: &CompletionFabric, op: OpId, unit: usize) {
        // Wrap-around re-executions of already-done operations (the
        // controller loops for repetitive DFG execution, but we measure a
        // single iteration) are not busy work.
        if !fabric.done.contains(op) {
            self.unit_busy[unit] += 1;
        }
    }

    fn cco(
        &self,
        fabric: &CompletionFabric,
        pulses: &OpSet,
        p: usize,
        _cur: OpId,
        _cycle: usize,
    ) -> bool {
        fabric.done.contains(OpId(p)) || pulses.contains(OpId(p))
    }

    fn skip_latch(&self, fabric: &CompletionFabric, op: OpId) -> bool {
        fabric.done.contains(op)
    }

    fn latch(&mut self, fabric: &mut CompletionFabric, op: OpId, at: usize) {
        if !fabric.done.contains(op) {
            fabric.mark_done(op);
            self.completion_cycle[op.0] = at;
        }
    }

    fn running(&self, fabric: &CompletionFabric) -> bool {
        fabric.done_count < self.bound.dfg().num_ops() || !fabric.deferred.is_empty()
    }

    fn diagnostics(
        &self,
        bank: &FsmBank,
        fabric: &CompletionFabric,
        cycle: usize,
        reason: String,
    ) -> Box<Diagnostics> {
        single_iter_diagnostics(&self.diag, bank, fabric, cycle, reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opset_insert_contains_iter_ascending() {
        let mut s = OpSet::new(130);
        for id in [129, 0, 64, 63, 65, 0] {
            s.insert(OpId(id));
        }
        assert!(s.contains(OpId(0)) && s.contains(OpId(129)));
        assert!(!s.contains(OpId(1)));
        assert_eq!(s.count(), 5);
        let got: Vec<usize> = s.iter().map(|o| o.0).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 129]);
    }

    #[test]
    fn opset_ignores_out_of_range() {
        let mut s = OpSet::new(10);
        s.insert(OpId(10));
        s.insert(OpId(1000));
        assert_eq!(s.count(), 0);
        assert!(!s.contains(OpId(1000)));
    }

    #[test]
    fn opset_complement_walks_the_difference() {
        let mut s = OpSet::new(70);
        for id in [0, 2, 69] {
            s.insert(OpId(id));
        }
        let missing: Vec<usize> = s.complement().collect();
        assert_eq!(missing.len(), 67);
        assert_eq!(missing[0], 1);
        assert_eq!(missing[1], 3);
        assert_eq!(*missing.last().unwrap(), 68);
        // Full set -> empty complement, bounded by the universe.
        let mut full = OpSet::new(70);
        for id in 0..70 {
            full.insert(OpId(id));
        }
        assert_eq!(full.complement().count(), 0);
    }

    #[test]
    fn fabric_done_count_is_idempotent() {
        let mut f = CompletionFabric::new(8);
        f.mark_done(OpId(3));
        f.mark_done(OpId(3));
        assert_eq!(f.done_count, 1);
        assert!(f.done().contains(OpId(3)));
    }
}
