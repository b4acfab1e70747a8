//! # tauhls-dfg — dataflow graphs for telescopic high-level synthesis
//!
//! The dataflow-graph substrate of the `tauhls` workspace: graph model,
//! structural analyses, the paper's TAUBM time-step-splitting
//! transformation, the benchmark suite of the evaluation section, and a
//! random-graph generator for property testing.
//!
//! # Examples
//!
//! Build and evaluate a small graph:
//!
//! ```
//! use tauhls_dfg::{DfgBuilder, Operand};
//! let mut b = DfgBuilder::new("axpy");
//! let a = b.input("a");
//! let x = b.input("x");
//! let y = b.input("y");
//! let m = b.mul(a.into(), x.into());
//! let s = b.add(m.into(), y.into());
//! b.output("r", s);
//! let g = b.build()?;
//! assert_eq!(g.evaluate(&[2, 3, 4])["r"], 10);
//! # Ok::<(), tauhls_dfg::DfgError>(())
//! ```
//!
//! Derive the TAUBM form of the paper's Fig 2 example:
//!
//! ```
//! use tauhls_dfg::{benchmarks, LevelAnalysis, ResourceClass, TaubmDfg};
//! let g = benchmarks::fig2_dfg();
//! let levels = LevelAnalysis::new(&g);
//! let step_of: Vec<usize> = g.op_ids().map(|o| levels.asap(o)).collect();
//! let taubm = TaubmDfg::derive(&g, &step_of, &[ResourceClass::Multiplier].into());
//! assert_eq!(taubm.best_latency_cycles(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod analysis;
pub mod benchmarks;
mod dot;
mod graph;
mod hash;
mod random;
mod source;
mod taubm;
mod text;
mod wire;

pub use analysis::LevelAnalysis;
pub use dot::to_dot;
pub use graph::{
    Dfg, DfgBuilder, DfgError, InputId, OpId, OpKind, Operand, Operation, ResourceClass,
};
pub use hash::Fnv64;
pub use random::{random_dfg, RandomDfgParams};
pub use source::{DfgRegistry, DfgSource};
pub use taubm::{TaubmDfg, TaubmStep};
pub use text::{dfg_to_text, parse_dfg, ParseDfgError};
pub use wire::{
    canonical_wire, dfg_to_wire, parse_wire_dfg, valid_wire_id, wire_hash, WireError,
    MAX_WIRE_NAME, MAX_WIRE_NODES,
};
