//! A synthetic machine fleet for mass differential testing.
//!
//! The six bundled descriptions exercise the paper's four platforms plus
//! two reconstructions — a fixed, small population.  Mass differential
//! testing (scalar ≡ bit-vector ≡ automaton conformance, guard-oracle
//! fuzzing, exact-scheduler differentials) wants *structural* coverage:
//! machines that vary in group width, option shape, multi-cycle
//! occupancy, AND/OR depth, latencies and class flags.  [`fleet`]
//! generates that population deterministically: machine `i` of seed `s`
//! is a pure function of `(s, i)`, every spec passes
//! [`MdesSpec::validate`], and AND/OR classes only combine OR-trees from
//! distinct resource groups, preserving the bundled-machine invariant
//! that AND/OR sub-trees are resource-disjoint.
//!
//! # Example
//!
//! ```
//! use mdes_workload::fleet;
//!
//! let machines = fleet(42, 8);
//! assert_eq!(machines.len(), 8);
//! for m in &machines {
//!     m.spec.validate().unwrap();
//! }
//! ```

use mdes_core::rng::Pcg32;
use mdes_core::spec::{AndOrTree, Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
use mdes_core::usage::ResourceUsage;

/// One synthetic machine: a name for diagnostics and a validated spec.
#[derive(Clone, Debug)]
pub struct FleetMachine {
    /// Stable diagnostic name, `fleet-<seed>-<index>`.
    pub name: String,
    /// The validated machine description.
    pub spec: MdesSpec,
}

/// Generates `n` structurally-diverse valid machine specs from `seed`.
///
/// Machine `i` draws from the RNG stream `(seed, i)` only, so fleets are
/// prefix-stable: `fleet(s, 64)[..8]` equals `fleet(s, 8)` machine for
/// machine.
pub fn fleet(seed: u64, n: usize) -> Vec<FleetMachine> {
    (0..n).map(|index| fleet_machine(seed, index)).collect()
}

/// Generates the single fleet machine at `index` (see [`fleet`]).
///
/// # Panics
///
/// Panics if the generated spec fails validation — a bug in this
/// generator, not an input condition.
pub fn fleet_machine(seed: u64, index: usize) -> FleetMachine {
    let mut rng = Pcg32::new(seed, 0x000F_1EE7_0000 + index as u64);
    let mut spec = MdesSpec::new();

    // Resource groups of interchangeable units, each with an optional
    // private staging resource that makes some options multi-cycle.
    let n_groups = 2 + rng.gen_range(3) as usize; // 2..=4
    let mut group_trees = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        let width = 1 + rng.gen_range(3) as usize; // 1..=3 units
        let units = spec
            .resources_mut()
            .add_indexed(&format!("U{g}"), width)
            .expect("fleet resource budget fits the pool");
        let stage = if rng.gen_f64() < 0.4 {
            Some(
                spec.resources_mut()
                    .add(format!("S{g}"))
                    .expect("fleet resource budget fits the pool"),
            )
        } else {
            None
        };
        let mut options = Vec::with_capacity(units.len());
        for &unit in &units {
            let mut usages = vec![ResourceUsage::new(unit, 0)];
            if rng.gen_f64() < 0.35 {
                // Occupy the unit for a second cycle (non-pipelined).
                usages.push(ResourceUsage::new(unit, 1));
            }
            if let Some(stage) = stage {
                if rng.gen_f64() < 0.5 {
                    usages.push(ResourceUsage::new(stage, 1 + rng.gen_range(2) as i32));
                }
            }
            options.push(spec.add_option(TableOption::new(usages)));
        }
        group_trees.push(spec.add_or_tree(OrTree::named(format!("G{g}"), options)));
    }

    // Constraint picker: either one group's OR-tree, or an AND of two
    // *distinct* groups' trees (distinct groups touch disjoint
    // resources, the bundled-machine AND/OR invariant).
    let constraint = |spec: &mut MdesSpec, rng: &mut Pcg32| {
        let first = rng.gen_range(n_groups as u32) as usize;
        if n_groups > 1 && rng.gen_f64() < 0.55 {
            let mut second = rng.gen_range(n_groups as u32 - 1) as usize;
            if second >= first {
                second += 1;
            }
            let tree = spec.add_and_or_tree(AndOrTree::new(vec![
                group_trees[first],
                group_trees[second],
            ]));
            Constraint::AndOr(tree)
        } else {
            Constraint::Or(group_trees[first])
        }
    };

    let n_compute = 2 + rng.gen_range(3) as usize; // 2..=4 plain classes
    for c in 0..n_compute {
        let shape = constraint(&mut spec, &mut rng);
        let latency = Latency::new(1 + rng.gen_range(3) as i32);
        spec.add_class(format!("op{c}"), shape, latency, OpFlags::none())
            .expect("fleet class construction is well-formed");
    }
    if rng.gen_f64() < 0.8 {
        let shape = constraint(&mut spec, &mut rng);
        let latency = Latency::with_mem(1 + rng.gen_range(3) as i32, 1 + rng.gen_range(3) as i32);
        spec.add_class("load", shape, latency, OpFlags::load())
            .expect("fleet class construction is well-formed");
    }
    if rng.gen_f64() < 0.6 {
        let shape = constraint(&mut spec, &mut rng);
        let latency = Latency::with_mem(1, 1 + rng.gen_range(2) as i32);
        spec.add_class("store", shape, latency, OpFlags::store())
            .expect("fleet class construction is well-formed");
    }
    if rng.gen_f64() < 0.7 {
        let tree = group_trees[rng.gen_range(n_groups as u32) as usize];
        spec.add_class(
            "branch",
            Constraint::Or(tree),
            Latency::new(1),
            OpFlags::branch(),
        )
        .expect("fleet class construction is well-formed");
    }

    // Occasional bypass exception between two compute classes, to vary
    // flow latencies beyond the operand read/write-time default.
    if rng.gen_f64() < 0.3 {
        let producer = mdes_core::ClassId::from_index(rng.gen_range(n_compute as u32) as usize);
        let consumer = mdes_core::ClassId::from_index(rng.gen_range(n_compute as u32) as usize);
        spec.add_bypass(producer, consumer, rng.gen_range(2) as i32)
            .expect("bypass endpoints are in range");
    }

    spec.validate()
        .expect("fleet specs are valid by construction");
    FleetMachine {
        name: format!("fleet-{seed}-{index}"),
        spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::{CompiledMdes, UsageEncoding};

    #[test]
    fn fleet_is_deterministic_and_prefix_stable() {
        let a = fleet(42, 16);
        let b = fleet(42, 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.spec.num_options(), y.spec.num_options());
            assert_eq!(x.spec.num_classes(), y.spec.num_classes());
        }
        let prefix = fleet(42, 4);
        for (x, y) in prefix.iter().zip(&a) {
            assert_eq!(x.spec.num_options(), y.spec.num_options());
        }
    }

    #[test]
    fn fleet_specs_validate_and_compile_under_both_encodings() {
        for machine in fleet(0xF1EE7, 32) {
            machine.spec.validate().unwrap();
            CompiledMdes::compile(&machine.spec, UsageEncoding::Scalar)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            CompiledMdes::compile(&machine.spec, UsageEncoding::BitVector)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
        }
    }

    #[test]
    fn fleet_is_structurally_diverse() {
        let machines = fleet(7, 32);
        let class_counts: std::collections::BTreeSet<usize> =
            machines.iter().map(|m| m.spec.num_classes()).collect();
        let option_counts: std::collections::BTreeSet<usize> =
            machines.iter().map(|m| m.spec.num_options()).collect();
        assert!(class_counts.len() >= 3, "{class_counts:?}");
        assert!(option_counts.len() >= 4, "{option_counts:?}");
        assert!(machines.iter().any(|m| m.spec.num_and_or_trees() > 0));
        assert!(machines.iter().any(|m| !m.spec.bypasses().is_empty()));
    }

    #[test]
    fn fleet_machines_schedule_seeded_regions() {
        use crate::regions::{generate_compiled_regions, RegionConfig};
        use mdes_sched::{DepGraph, ListScheduler};

        for machine in fleet(3, 8) {
            let mdes = CompiledMdes::compile(&machine.spec, UsageEncoding::BitVector).unwrap();
            let workload = generate_compiled_regions(&mdes, &RegionConfig::small(6).with_seed(11));
            let mut stats = mdes_core::CheckStats::new();
            for block in &workload.blocks {
                let schedule = ListScheduler::new(&mdes).schedule(block, &mut stats);
                let graph = DepGraph::build(block, &mdes);
                schedule
                    .verify(&graph, &mdes)
                    .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            }
        }
    }
}
