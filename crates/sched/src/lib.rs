//! # tauhls-sched — scheduling and binding under TAU allocation
//!
//! The scheduling substrate of the `tauhls` workspace, implementing the
//! paper's §3:
//!
//! * [`Allocation`] — unit counts per resource class, telescopic flags;
//! * [`ListSchedule`] — resource-constrained time-step scheduling (the
//!   basis for the centralized TAUBM controller styles);
//! * [`DependencyGraph`] — per-class dependency graphs with exact
//!   (Dilworth/matching) and greedy clique covers (Fig 3b);
//! * [`BoundDfg`] — operations bound to unit instances with **schedule
//!   arcs** inserted wherever consecutive same-unit operations are not
//!   already data-ordered (Fig 3c). This is the input to controller
//!   generation.
//!
//! # Examples
//!
//! Reproduce the paper's Fig 3 flow on its 9-operation example:
//!
//! ```
//! use tauhls_sched::{Allocation, BoundDfg, DependencyGraph, reachability};
//! use tauhls_dfg::{benchmarks::fig3_dfg, ResourceClass};
//!
//! let g = fig3_dfg();
//! let reach = reachability(&g);
//! let dep = DependencyGraph::for_class(&g, ResourceClass::Multiplier, &reach);
//! assert_eq!(dep.min_clique_cover().len(), 3); // > 2 allocated units
//!
//! let bound = BoundDfg::bind(&g, &Allocation::paper(2, 2, 0));
//! assert!(!bound.schedule_arcs().is_empty()); // arcs were inserted
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod allocation;
mod binding;
mod depgraph;
mod fds;
mod listsched;
mod regalloc;

pub use allocation::{Allocation, Unit, UnitId};
pub use binding::{chain_sequences, left_edge_sequences, BindError, BoundDfg};
pub use depgraph::{reachability, DependencyGraph};
pub use fds::{fds_schedule, FdsSchedule};
pub use listsched::ListSchedule;
pub use regalloc::{allocate_registers, lifetimes, min_registers, Lifetime, RegisterAllocation};
