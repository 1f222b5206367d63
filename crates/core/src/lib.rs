//! Core representations of the two-tier machine-description (MDES) model
//! from Gyllenhaal, Hwu & Rau, *Optimization of Machine Descriptions for
//! Efficient Use* (MICRO-29, 1996).
//!
//! This crate provides:
//!
//! * the mid-level [`spec::MdesSpec`] — resources, reservation-table
//!   options, prioritized OR-trees, the paper's AND/OR-trees, and
//!   operation classes; this is what the `mdes-lang` front end emits and
//!   what the `mdes-opt` transformations rewrite;
//! * the compiled low-level [`compile::CompiledMdes`] with scalar or
//!   bit-vector usage encodings.  Its three pools of lists (each option's
//!   probes, each OR-tree's options, each class's OR-trees) are flat
//!   arenas sliced by bound arrays, and [`CompiledMdes::compile`] and
//!   [`lmdes::read`] fill them through one constructor;
//! * the [`compile::Checker`] that answers "can this operation issue at
//!   cycle *t*" against any [`rumap::Occupancy`] table — a
//!   [`rumap::RuMap`], or a [`rumap::ModuloRuMap`] for modulo
//!   scheduling.  Its one reservation call,
//!   [`compile::Checker::try_reserve_into`], appends the selected options
//!   to a caller-owned buffer and allocates nothing per attempt; a caller
//!   that unschedules hands that selection to
//!   [`compile::Checker::release`];
//! * [`stats::CheckStats`] counters matching the paper's metrics (options
//!   checked and resource checks per scheduling attempt, Figure-2
//!   histograms);
//! * the [`collision`] module implementing forbidden-latency /
//!   collision-vector theory that justifies the usage-time transformation;
//! * the [`probe`] module — a deterministic, seeded query-sequence engine
//!   used by the pipeline guard to differentially compare two
//!   descriptions' observable behaviour;
//! * [`rng::Pcg32`], the one seeded generator behind every probe
//!   sequence, replay block and synthetic workload;
//! * the [`size`] memory model reproducing the paper's byte accounting;
//! * [`pretty`] renderers for reservation tables and constraint trees.
//!
//! # Example
//!
//! ```
//! use mdes_core::compile::{Checker, CompiledMdes, UsageEncoding};
//! use mdes_core::rumap::RuMap;
//! use mdes_core::spec::{Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
//! use mdes_core::stats::CheckStats;
//! use mdes_core::usage::ResourceUsage;
//!
//! # fn main() -> Result<(), mdes_core::MdesError> {
//! // A machine with one ALU; ALU ops occupy it for one cycle.
//! let mut spec = MdesSpec::new();
//! let alu = spec.resources_mut().add("ALU")?;
//! let opt = spec.add_option(TableOption::new(vec![ResourceUsage::new(alu, 0)]));
//! let tree = spec.add_or_tree(OrTree::new(vec![opt]));
//! spec.add_class("alu", Constraint::Or(tree), Latency::new(1), OpFlags::none())?;
//!
//! let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector)?;
//! let checker = Checker::new(&compiled);
//! let class = compiled.class_by_name("alu").unwrap();
//!
//! let mut ru = RuMap::new();
//! let mut stats = CheckStats::new();
//! let mut selected = Vec::new();
//! assert!(checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut selected));
//! // The ALU is now busy at cycle 0: a second op must wait a cycle.
//! assert!(!checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut selected));
//! assert!(checker.try_reserve_into(&mut ru, class, 1, &mut stats, &mut selected));
//! // One option per reservation; releasing the first frees cycle 0.
//! assert_eq!(selected, [0, 0]);
//! checker.release(&mut ru, 0, &selected[..1]);
//! assert!(checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut selected));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collision;
pub mod compile;
pub mod dot;
pub mod error;
pub mod lmdes;
pub mod pretty;
pub mod probe;
pub mod resource;
pub mod rng;
pub mod rumap;
pub mod size;
pub mod spec;
pub mod stats;
pub mod usage;

pub use compile::{Checker, CompiledMdes, UsageEncoding};
pub use error::MdesError;
pub use resource::{ResourceId, ResourcePool};
pub use rumap::{ModuloRuMap, Occupancy, RuMap};
pub use spec::{
    AndOrTree, AndOrTreeId, ClassId, Constraint, Latency, MdesSpec, OpClass, OpFlags, OptionId,
    OrTree, OrTreeId, TableOption,
};
pub use stats::CheckStats;
pub use usage::ResourceUsage;
