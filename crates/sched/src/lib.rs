//! MDES-driven schedulers: the "generic, high-quality scheduler … that can
//! be quickly targeted to a new processor" of the paper's introduction.
//!
//! * [`operation`] — the operation / basic-block model (an [`Op`] is a
//!   24-byte `Copy` value holding its registers inline);
//! * [`depgraph`] — dependence-DAG construction with MDES latencies;
//! * [`list`] — the forward (and backward) cycle-driven list scheduler
//!   whose attempt counting matches the paper's statistics;
//! * [`modulo`] — iterative modulo scheduling (Rau \[12\]), exercising the
//!   unscheduling capability that distinguishes reservation tables from
//!   finite-state automata (Section 10);
//! * [`replay`] — deterministic seeded block replay backing the pipeline
//!   guard's schedule-level differential oracle;
//! * [`simulate`] — an in-order issue simulator that measures the
//!   "unexpected execution cycles" of scheduling with an inaccurate
//!   description (the paper's introduction).
//!
//! The schedulers place operations through
//! [`mdes_core::Checker::try_reserve_into`], which appends each
//! successful selection to a caller-owned buffer and truncates it again
//! on failure, so an attempt allocates nothing.  A [`Schedule`] keeps
//! every operation's selection in one flat `selected` buffer; a
//! [`ScheduledOp`] is 16 bytes (cycle, class, and its slice of that
//! buffer, read with [`Schedule::selection`]).  [`ModuloSchedule`] uses
//! the same flat layout with one fixed slot per operation.
//!
//! # Example
//!
//! ```
//! use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
//! use mdes_sched::{Block, ListScheduler, Op, Reg};
//!
//! let spec = mdes_lang::compile("
//!     resource ALU[2];
//!     or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
//!     class alu { constraint = AnyAlu; latency = 1; }
//! ").unwrap();
//! let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
//! let alu = mdes.class_by_name("alu").unwrap();
//!
//! let mut block = Block::new();
//! for i in 0..4 {
//!     block.push(Op::new(alu, vec![Reg(i)], vec![]));
//! }
//! let mut stats = CheckStats::new();
//! let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
//! assert_eq!(schedule.length, 2); // 4 independent ops, 2 ALUs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod depgraph;
pub mod list;
pub mod modulo;
pub mod operation;
pub mod replay;
pub mod simulate;

pub use chart::{occupancy_chart, resource_utilization};
pub use depgraph::{DepGraph, DepKind, Edge};
pub use list::{selection_bounds, ListScheduler, SchedScratch, Schedule, ScheduledOp};
pub use mdes_core::CheckStats;
pub use modulo::{LoopBlock, ModuloSchedule, ModuloScheduler};
pub use operation::{Block, Op, Reg};
pub use replay::{find_schedule_divergence, replay_blocks, replay_cycles, ReplayConfig};
pub use simulate::{order_of_schedule, simulate_in_order, SimResult};
