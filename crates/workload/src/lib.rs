//! Synthetic SPEC CINT92-equivalent workloads.
//!
//! The paper evaluates each machine description by scheduling SPEC CINT92
//! assembly (201k–282k static operations per platform) produced by a
//! production ILP compiler.  That input cannot be shipped, so this crate
//! substitutes deterministic synthetic streams that reproduce the two
//! properties every measured quantity depends on:
//!
//! 1. the distribution of scheduling attempts across operation classes
//!    (calibrated per machine to the paper's Tables 1–4);
//! 2. local contention structure — flow-dependence chains through a
//!    register pool (small/architectural for the postpass x86 machines,
//!    large/virtual for the prepass RISC machines) and one (bundled)
//!    branch per block.
//!
//! See DESIGN.md ("Substitutions") for the full argument.
//!
//! # Example
//!
//! ```
//! use mdes_machines::Machine;
//! use mdes_workload::{generate, WorkloadConfig};
//!
//! let machine = Machine::SuperSparc;
//! let spec = machine.spec();
//! let config = WorkloadConfig::paper_default(machine).with_total_ops(1_000);
//! let workload = generate(machine, &spec, &config);
//! assert!(workload.total_ops >= 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defects;
pub mod fleet;
pub mod generate;
pub mod mix;
pub mod regions;

pub use defects::{fleet_with_defects, PlantedDefect, SeededDefectMachine};
pub use fleet::{fleet, fleet_machine, FleetMachine};
pub use generate::{
    as_loop_bodies, generate, generate_uniform, uniform_config, Workload, WorkloadConfig,
};
pub use mdes_core::rng::Pcg32;
pub use mix::{body_mix, end_mix, OpTemplate};
pub use regions::{generate_compiled_regions, RegionConfig, RegionGenerator};
