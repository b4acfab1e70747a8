//! # tauhls-fsm — controller generation for telescopic datapaths
//!
//! The controller-synthesis core of the `tauhls` workspace, implementing
//! the paper's §2.2 and §4:
//!
//! * [`Fsm`] — guarded Mealy machines with determinism/completeness
//!   checking, simulation stepping, and DOT export;
//! * [`unit_controller`] — **Algorithm 1**: the per-arithmetic-unit
//!   controller with `S`, `S'` and ready states (Fig 5/6);
//! * [`DistributedControlUnit`] — the distributed global control unit with
//!   dead completion-signal optimization (Fig 7);
//! * [`cent_sync_fsm`] — the synchronized centralized TAUBM controller
//!   (Fig 2c / Fig 4b), whose split steps advance only when *all* active
//!   TAUs complete;
//! * [`synchronous_product`] — the CENT-FSM construction (Fig 4a),
//!   exhibiting the exponential state growth of unsynchronized centralized
//!   control;
//! * [`synthesize`] — state encoding, two-level logic minimization and the
//!   combinational/sequential area split of Table 1.
//!
//! # Examples
//!
//! Generate and synthesize the paper's Fig 6 controller:
//!
//! ```
//! use tauhls_fsm::{unit_controller, synthesize, Encoding};
//! use tauhls_logic::AreaModel;
//! use tauhls_sched::{Allocation, BoundDfg, UnitId};
//! use tauhls_dfg::{benchmarks::fig3_dfg, OpId};
//!
//! let bound = BoundDfg::bind_explicit(
//!     &fig3_dfg(),
//!     &Allocation::paper(2, 2, 0),
//!     vec![
//!         vec![OpId(0), OpId(1)],
//!         vec![OpId(6), OpId(4), OpId(8)],
//!         vec![OpId(3), OpId(2)],
//!         vec![OpId(7), OpId(5)],
//!     ],
//! ).unwrap();
//! let fsm = unit_controller(&bound, UnitId(0));
//! assert_eq!(fsm.num_states(), 5);      // S0 S0' S1 S1' R1
//! assert_eq!(fsm.transitions().len(), 10);
//! let syn = synthesize(&fsm, Encoding::Binary, &AreaModel::default());
//! assert_eq!(syn.flip_flops(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod distributed;
mod machine;
mod minimize;
mod multilevel;
mod product;
mod rtl;
mod synth;
mod taubm_fsm;

pub use distributed::{
    optimize_dead_completions, signals, unit_controller, unit_controller_levels,
    unit_controller_opts, DistributedControlUnit,
};
pub use machine::{run_trace, Fsm, FsmError, StateId, Transition};
pub use minimize::{equivalent_behaviour, minimize_states};
pub use multilevel::level_completion;
pub use product::synchronous_product;
pub use rtl::{control_unit_to_verilog, to_verilog, verilog_ident};
pub use synth::{
    combined_vars, controller_functions, synthesize, verify_synthesis, ControllerFunctions,
    Encoding, SynthesizedFsm, EXACT_LIMIT,
};
pub use taubm_fsm::{cent_sync_fsm, cent_sync_fsm_with_schedule};
