//! MDES-driven schedulers: the "generic, high-quality scheduler … that can
//! be quickly targeted to a new processor" of the paper's introduction.
//!
//! * [`operation`] — the operation / basic-block model (an [`Op`] is a
//!   24-byte `Copy` value holding its registers inline);
//! * [`depgraph`] — dependence-DAG construction with MDES latencies,
//!   into flat per-operation edge arrays (16-byte [`Edge`]s with `u32`
//!   operation indices), each operation's class and critical-path
//!   heights, all of which [`DepGraph::rebuild`] refills in place;
//! * [`list`] — the forward (and backward) cycle-driven list scheduler
//!   whose attempt counting matches the paper's statistics;
//! * [`modulo`] — iterative modulo scheduling (Rau \[12\]), exercising the
//!   unscheduling capability that distinguishes reservation tables from
//!   finite-state automata (Section 10);
//! * [`simulate`] — an in-order issue simulator that measures the
//!   "unexpected execution cycles" of scheduling with an inaccurate
//!   description (the paper's introduction).
//!
//! The schedulers place operations through
//! [`mdes_core::Checker::try_reserve_into`], which appends each
//! successful selection to a caller-owned buffer and truncates it again
//! on failure, so an attempt allocates nothing.  A [`Schedule`] is one
//! exact-size buffer of `3n + 1 + S` words for `n` operations with `S`
//! OR-trees in all: every operation's issue cycle, its attempt count and
//! its selection bound, then every selection in block order, one fixed
//! slot per operation as [`selection_bounds`] lays them out (read with
//! [`Schedule::cycle`], [`Schedule::attempts`] and
//! [`Schedule::selection`]).  It keeps no copy of the operations'
//! classes: [`Schedule::verify`] reads them from the [`DepGraph`].
//! [`ModuloSchedule`] uses the same fixed-slot selection layout.
//!
//! A [`SchedScratch`] owns everything one list-scheduling run mutates —
//! the dependence graph and its heights, the RU map, the placement
//! buffers, one schedule — and every run resets it on entry.
//! [`ListScheduler::schedule_reusing`] rebuilds the scratch's graph in
//! place, so once the scratch has held the largest block a block costs
//! only the one buffer of the [`Schedule`] it returns;
//! [`ListScheduler::schedule_in_scratch`] leaves the schedule in the
//! scratch beside its graph and allocates nothing, and
//! [`SchedScratch::verify`] checks it against that graph, replaying into
//! the scratch's RU map, without allocating either.
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
pub mod simulate;

pub use chart::{occupancy_chart, resource_utilization};
pub use depgraph::{DepGraph, DepKind, Edge};
pub use list::{selection_bounds, ListScheduler, SchedScratch, Schedule};
pub use mdes_core::CheckStats;
pub use modulo::{LoopBlock, ModuloSchedule, ModuloScheduler};
pub use operation::{Block, Op, Reg};
pub use simulate::{order_of_schedule, simulate_in_order, SimResult};
