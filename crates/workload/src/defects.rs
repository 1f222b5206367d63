//! Defect-seeded fleets: machines with *known-bad* structure planted in.
//!
//! [`crate::fleet`] only emits well-formed machines, which makes it
//! useless for measuring a static analyzer's **recall** — you cannot
//! count found defects without ground truth.  [`fleet_with_defects`]
//! takes a fleet machine and, at a seeded rate, plants the two defect
//! classes the paper's transformations revolve around:
//!
//! * a **dominated option** — the first option of a reachable OR-tree,
//!   duplicated with an extra resource usage and appended at the lowest
//!   priority.  A strict usage superset of a higher-priority option can
//!   never be selected (Section 5); the analyzer must report `MD002`
//!   against that tree.
//! * an **unsatisfiable AND class** — a new class whose two AND branches
//!   each demand the same fresh resource at cycle 0.  Every option
//!   combination self-collides, so the class can never schedule; the
//!   analyzer must report `MD001` against it.
//!
//! Planted specs still pass [`MdesSpec::validate`] — these are *semantic*
//! defects, invisible to structural checking — and still compile, so the
//! checker-level probe paths work (reservations of the unsatisfiable
//! class simply always fail).  **Do not list-schedule a workload that
//! issues the planted class**: an unsatisfiable operation never places,
//! which is exactly the daemon-hang the analyzer exists to prevent.

use mdes_core::rng::Pcg32;
use mdes_core::spec::{AndOrTree, Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
use mdes_core::usage::ResourceUsage;
use mdes_core::ClassId;

use crate::fleet::{fleet_machine, FleetMachine};

/// Ground truth for one planted defect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlantedDefect {
    /// The stable diagnostic code the analyzer must report (`MD001` or
    /// `MD002`).
    pub code: &'static str,
    /// The item name the diagnostic must be attached to: the OR-tree
    /// name for a dominated option, the class name for an unsatisfiable
    /// class.
    pub item: String,
}

/// One fleet machine plus the ground-truth list of defects planted into
/// it (empty when the seeded rate spared this machine).
#[derive(Clone, Debug)]
pub struct SeededDefectMachine {
    /// The (possibly defective) machine.  Name and base structure match
    /// [`fleet_machine`]`(seed, index)` exactly.
    pub machine: FleetMachine,
    /// Every defect planted, in planting order.
    pub defects: Vec<PlantedDefect>,
}

/// Generates `n` fleet machines and plants both defect classes into each
/// machine with probability `defect_rate` (clamped to `[0, 1]`).
/// Deterministic in `(seed, n, defect_rate)`; the underlying machines
/// are exactly `fleet(seed, n)`.
pub fn fleet_with_defects(seed: u64, n: usize, defect_rate: f64) -> Vec<SeededDefectMachine> {
    let rate = defect_rate.clamp(0.0, 1.0);
    (0..n)
        .map(|index| {
            let mut machine = fleet_machine(seed, index);
            let mut rng = Pcg32::new(seed, 0x0DEF_EC75_0000 + index as u64);
            let mut defects = Vec::new();
            if rng.gen_f64() < rate {
                defects.push(plant_dominated_option(&mut machine.spec, index));
                defects.push(plant_unsatisfiable_class(&mut machine.spec, index));
                machine
                    .spec
                    .validate()
                    .expect("planted defects are structurally valid");
            }
            SeededDefectMachine { machine, defects }
        })
        .collect()
}

/// Appends a strict usage superset of a reachable tree's first option at
/// the tree's lowest priority.
fn plant_dominated_option(spec: &mut MdesSpec, tag: usize) -> PlantedDefect {
    let class = spec.class(ClassId::from_index(0));
    let tree_id = match class.constraint {
        Constraint::Or(tree) => tree,
        Constraint::AndOr(and) => spec.and_or_tree(and).or_trees[0],
    };
    let winner = spec.or_tree(tree_id).options[0];
    let mut usages = spec.option(winner).usages.clone();
    let extra = spec
        .resources_mut()
        .add(format!("Planted{tag}"))
        .expect("fleet machines leave resource-pool headroom");
    usages.push(ResourceUsage::new(extra, 0));
    let dominated = spec.add_option(TableOption::new(usages));
    spec.or_tree_mut(tree_id).options.push(dominated);
    let item = spec
        .or_tree(tree_id)
        .name
        .clone()
        .unwrap_or_else(|| format!("#{}", tree_id.index()));
    PlantedDefect {
        code: "MD002",
        item,
    }
}

/// Adds a class whose two AND branches both demand a fresh resource at
/// cycle 0 — provably unable to schedule.
fn plant_unsatisfiable_class(spec: &mut MdesSpec, tag: usize) -> PlantedDefect {
    let clash = spec
        .resources_mut()
        .add(format!("Clash{tag}"))
        .expect("fleet machines leave resource-pool headroom");
    let left = spec.add_option(TableOption::new(vec![ResourceUsage::new(clash, 0)]));
    let right = spec.add_option(TableOption::new(vec![ResourceUsage::new(clash, 0)]));
    let lt = spec.add_or_tree(OrTree::named(format!("ClashL{tag}"), vec![left]));
    let rt = spec.add_or_tree(OrTree::named(format!("ClashR{tag}"), vec![right]));
    let and = spec.add_and_or_tree(AndOrTree::named(format!("Clash{tag}"), vec![lt, rt]));
    let name = format!("planted_unsat{tag}");
    spec.add_class(
        name.clone(),
        Constraint::AndOr(and),
        Latency::new(1),
        OpFlags::none(),
    )
    .expect("planted class name is unique");
    PlantedDefect {
        code: "MD001",
        item: name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_fleets_are_deterministic_and_based_on_the_plain_fleet() {
        let a = fleet_with_defects(42, 8, 1.0);
        let b = fleet_with_defects(42, 8, 1.0);
        let plain = crate::fleet(42, 8);
        for ((x, y), base) in a.iter().zip(&b).zip(&plain) {
            assert_eq!(x.machine.name, y.machine.name);
            assert_eq!(x.defects, y.defects);
            assert_eq!(x.machine.name, base.name);
            // Planting only ever *adds* structure.
            assert!(x.machine.spec.num_options() > base.spec.num_options());
            assert!(x.machine.spec.num_classes() > base.spec.num_classes());
        }
    }

    #[test]
    fn rate_one_plants_both_classes_everywhere_rate_zero_none() {
        for seeded in fleet_with_defects(7, 16, 1.0) {
            let codes: Vec<&str> = seeded.defects.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["MD002", "MD001"], "{}", seeded.machine.name);
            seeded.machine.spec.validate().unwrap();
        }
        for seeded in fleet_with_defects(7, 16, 0.0) {
            assert!(seeded.defects.is_empty());
        }
    }

    #[test]
    fn defective_specs_still_compile_under_both_encodings() {
        use mdes_core::{CompiledMdes, UsageEncoding};
        for seeded in fleet_with_defects(11, 8, 1.0) {
            for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
                CompiledMdes::compile(&seeded.machine.spec, encoding)
                    .unwrap_or_else(|e| panic!("{}: {e}", seeded.machine.name));
            }
        }
    }

    #[test]
    fn intermediate_rates_plant_a_seeded_subset() {
        let seeded = fleet_with_defects(3, 32, 0.5);
        let with: usize = seeded.iter().filter(|s| !s.defects.is_empty()).count();
        assert!(with > 0 && with < 32, "rate 0.5 planted {with}/32");
    }
}
