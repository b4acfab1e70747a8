//! Simulation of the centralized CENT controller (Fig 4a): one FSM — the
//! synchronous product of the per-unit controllers — that still tracks
//! every TAU's completion independently.
//!
//! Semantically the product is *bisimilar* to the distributed realization
//! (that is what a synchronous product is), so CENT reaches every result in
//! exactly the same cycle as DIST — the paper's `LT_DIST = LT_CENT`
//! observation. What changes is the implementation cost: the reachable
//! composite state count grows exponentially with the number of
//! concurrently active TAUs (see [`tauhls_fsm::synchronous_product`]),
//! which is the argument for distribution.
//!
//! The engine exploits the bisimulation: it steps the *component*
//! controllers through DIST's single-iteration body — identical to the
//! distributed engine, draw for draw — and reports diagnostics as a
//! single centralized FSM whose state is the composite tuple name
//! (`S1.R4.S7'` …), exactly what the explicit product machine would show.
//! Building the exponential product is therefore optional and only needed
//! when the caller wants the machine itself (state counts, codegen):
//! [`CentControlUnit::generate`] builds it when its external-input count is
//! enumerable, [`CentControlUnit::without_product`] skips it for hot
//! simulation paths.

use tauhls_fsm::{synchronous_product, DistributedControlUnit, Fsm};
use tauhls_sched::BoundDfg;

/// Name given to the centralized product machine and to the composite
/// controller snapshot in CENT diagnostics.
pub const CENT_FSM_NAME: &str = "CENT";

/// The product construction enumerates `2^k` input minterms per composite
/// state; mirrors `tauhls_fsm::product::MAX_EXTERNAL_INPUTS`.
const MAX_PRODUCT_INPUTS: usize = 16;

/// A centralized control unit: the per-unit component controllers plus,
/// optionally, their explicit synchronous product.
#[derive(Clone, Debug)]
pub struct CentControlUnit {
    cu: DistributedControlUnit,
    product: Option<Fsm>,
}

impl CentControlUnit {
    /// Generates the centralized controller for a bound DFG, building the
    /// explicit product machine when it is enumerable (at most 16 external
    /// inputs, i.e. telescopic-unit completion signals); otherwise the
    /// product is omitted and only simulation is available.
    pub fn generate(bound: &BoundDfg) -> Self {
        let cu = DistributedControlUnit::generate(bound);
        let product = build_product(&cu);
        CentControlUnit { cu, product }
    }

    /// Generates the centralized controller without building the explicit
    /// product machine — the cheap constructor for simulation-only use
    /// (e.g. Monte-Carlo batches), since the engine never needs it.
    pub fn without_product(bound: &BoundDfg) -> Self {
        CentControlUnit {
            cu: DistributedControlUnit::generate(bound),
            product: None,
        }
    }

    /// The component (per-unit) controllers the product is composed of.
    pub fn components(&self) -> &DistributedControlUnit {
        &self.cu
    }

    /// The explicit centralized product machine, if it was built.
    pub fn product(&self) -> Option<&Fsm> {
        self.product.as_ref()
    }
}

/// Builds the synchronous product of the component controllers, or `None`
/// when the external-input count exceeds the enumeration limit (the
/// underlying constructor would panic; this engine stays panic-free).
fn build_product(cu: &DistributedControlUnit) -> Option<Fsm> {
    let refs: Vec<&Fsm> = cu.controllers().iter().map(|(_, f)| f).collect();
    if refs.is_empty() {
        return None;
    }
    let mut produced: Vec<&str> = Vec::new();
    for f in &refs {
        for out in f.outputs() {
            produced.push(out.as_str());
        }
    }
    let mut external: Vec<&str> = Vec::new();
    for f in &refs {
        for inp in f.inputs() {
            if !produced.contains(&inp.as_str()) && !external.contains(&inp.as_str()) {
                external.push(inp.as_str());
            }
        }
    }
    if external.len() > MAX_PRODUCT_INPUTS {
        return None;
    }
    Some(synchronous_product(CENT_FSM_NAME, &refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, SimConfig};
    use crate::{CompletionModel, Engine, SimError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tauhls_dfg::benchmarks::{diffeq, fir3, fir5};
    use tauhls_dfg::OpId;
    use tauhls_sched::Allocation;

    #[test]
    fn cent_is_bit_identical_to_distributed() {
        for (g, alloc) in [
            (fir3(), Allocation::paper(2, 1, 0)),
            (fir5(), Allocation::paper(2, 1, 0)),
            (diffeq(), Allocation::paper(2, 1, 1)),
        ] {
            let bound = BoundDfg::bind(&g, &alloc);
            let dist = Engine::Dist(DistributedControlUnit::generate(&bound));
            let cent = Engine::Cent(CentControlUnit::without_product(&bound));
            let cfg = SimConfig::default();
            for seed in 0..20 {
                let model = CompletionModel::Bernoulli { p: 0.6 };
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut r2 = StdRng::seed_from_u64(seed);
                let d = (dist.run_scalar(&bound, &model, None, &mut r1, &cfg, 0))
                    .expect("fault-free dist");
                let c = (cent.run_scalar(&bound, &model, None, &mut r2, &cfg, 0))
                    .expect("fault-free cent");
                assert_eq!(d, c);
            }
        }
    }

    #[test]
    fn product_machine_matches_component_semantics() {
        // fir3 on 2 multipliers + 1 adder keeps the product small enough
        // to build; its reachable state count must be at least the number
        // of cycles the longest run walks through, and at least as large
        // as any single component.
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let cu = CentControlUnit::generate(&bound);
        let product = cu.product().expect("fir3 product is enumerable");
        assert_eq!(product.name(), CENT_FSM_NAME);
        let max_component = cu
            .components()
            .controllers()
            .iter()
            .map(|(_, f)| f.num_states())
            .max()
            .expect("controllers");
        assert!(product.num_states() >= max_component);
        // The composite initial state is the tuple of component initials.
        let init = product.state_name(product.initial());
        assert_eq!(init.split('.').count(), cu.components().controllers().len());
    }

    #[test]
    fn cent_diagnostics_show_one_composite_controller() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let cent = Engine::Cent(CentControlUnit::without_product(&bound));
        let components = cent.dist_bank().expect("CENT wraps a bank").controllers();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg =
            SimConfig::with_faults(FaultPlan::single(1, FaultKind::StuckAtLong { op: OpId(0) }));
        let err = cent
            .run_scalar(
                &bound,
                &CompletionModel::AlwaysShort,
                None,
                &mut rng,
                &cfg,
                0,
            )
            .expect_err("stuck-at-long deadlocks");
        let SimError::Deadlock(diag) = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(diag.controllers.len(), 1);
        assert_eq!(diag.controllers[0].fsm, CENT_FSM_NAME);
        // Composite state: one component state per controller, dot-joined.
        assert_eq!(
            diag.controllers[0].state.split('.').count(),
            components.len()
        );
    }

    #[test]
    fn short_table_is_invalid_config() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let cent = Engine::Cent(CentControlUnit::without_product(&bound));
        let mut rng = StdRng::seed_from_u64(0);
        let table = CompletionModel::Table(vec![true]);
        let err = (cent.run_scalar(&bound, &table, None, &mut rng, &SimConfig::default(), 0))
            .expect_err("short table rejected");
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }
}
