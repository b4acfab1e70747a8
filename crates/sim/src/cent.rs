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
//! The engine exploits the bisimulation: `Engine::Cent` holds the DIST
//! bank and steps the *component* controllers through DIST's
//! single-iteration body — identical to the distributed engine, draw for
//! draw — and reports diagnostics as a single centralized FSM whose state
//! is the composite tuple name (`S1.R4.S7'` …), exactly what the explicit
//! product machine would show. The engine never builds that machine; its
//! cost is `GenerateControllers { centralized: true }`'s minimized
//! single-shot product, what Table 1 reports.

/// Name given to the composite controller snapshot in CENT diagnostics.
pub const CENT_FSM_NAME: &str = "CENT";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, SimConfig};
    use crate::{CompletionModel, ControlStyle, Engine, SimError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tauhls_dfg::benchmarks::{diffeq, fir3, fir5};
    use tauhls_dfg::OpId;
    use tauhls_sched::{Allocation, BoundDfg};

    #[test]
    fn cent_is_bit_identical_to_distributed() {
        for (g, alloc) in [
            (fir3(), Allocation::paper(2, 1, 0)),
            (fir5(), Allocation::paper(2, 1, 0)),
            (diffeq(), Allocation::paper(2, 1, 1)),
        ] {
            let bound = BoundDfg::bind(&g, &alloc);
            let dist = Engine::generate(&bound, ControlStyle::Distributed);
            let cent = Engine::generate(&bound, ControlStyle::Cent);
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
    fn cent_diagnostics_show_one_composite_controller() {
        let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
        let cent = Engine::generate(&bound, ControlStyle::Cent);
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
        let cent = Engine::generate(&bound, ControlStyle::Cent);
        let mut rng = StdRng::seed_from_u64(0);
        let table = CompletionModel::Table(vec![true]);
        let err = (cent.run_scalar(&bound, &table, None, &mut rng, &SimConfig::default(), 0))
            .expect_err("short table rejected");
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }
}
