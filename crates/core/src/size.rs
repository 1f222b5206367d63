//! The memory model for the low-level representation (Tables 6, 7, 9, 11,
//! 14 of the paper).
//!
//! The paper reports the compiler-memory footprint of the resource
//! constraint description in bytes on a 1996-era 32-bit machine.  To make
//! our numbers comparable we account in 4-byte words over the *logical*
//! compiled structure rather than measuring 64-bit `std` container
//! overheads:
//!
//! * a check is a `(time, resource-or-mask)` pair → 2 words ("both
//!   representations require two words to represent each pair", Section 6);
//! * each option, OR-tree and AND-level carries a 2-word header (count +
//!   pointer) — the "small amount of header information per item"
//!   duplicated to prevent performance degradation (Section 4);
//! * each reference from a tree to a shared child costs 1 word;
//! * each operation-class entry costs 2 words (constraint pointer plus
//!   packed latency/flags).
//!
//! Sharing is respected exactly as the compiled representation shares:
//! pool items are counted once no matter how many trees reference them.

use std::collections::BTreeSet;

use crate::compile::{CompiledMdes, ConstraintKind};
use crate::spec::ClassId;

/// Bytes per logical machine word in the memory model.
pub const WORD_BYTES: usize = 4;

/// Byte counts for one compiled MDES, by component.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes for the (shared) reservation-table option pool.
    pub option_bytes: usize,
    /// Bytes for the (shared) OR-tree pool.
    pub or_tree_bytes: usize,
    /// Bytes for AND-level nodes of AND/OR classes.
    pub and_level_bytes: usize,
    /// Bytes for per-class entries.
    pub class_bytes: usize,
    /// Number of options in the pool.
    pub num_options: usize,
    /// Number of OR-trees in the pool.
    pub num_or_trees: usize,
    /// Number of top-level constraint trees (the paper's "Number of
    /// Trees": unique constraint targets across classes).
    pub num_trees: usize,
    /// Total RU-map probes stored (pairs), for reference.
    pub num_checks: usize,
}

impl MemoryReport {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.option_bytes + self.or_tree_bytes + self.and_level_bytes + self.class_bytes
    }
}

/// Measures the memory footprint of a compiled MDES under the paper's
/// word model.
///
/// # Examples
///
/// ```
/// use mdes_core::size::measure;
/// use mdes_core::{CompiledMdes, UsageEncoding};
///
/// let spec = mdes_lang::compile("
///     resource M;
///     or_tree T = first_of({ M @ 0 });
///     class mem { constraint = T; }
/// ").unwrap();
/// let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
/// let report = measure(&compiled);
/// // One option (8 B header + one 8 B check) + one OR-tree (8 + 4)
/// // + one class entry (8).
/// assert_eq!(report.total(), 36);
/// ```
pub fn measure(mdes: &CompiledMdes) -> MemoryReport {
    let header = 2 * WORD_BYTES;
    let check = 2 * WORD_BYTES;
    let reference = WORD_BYTES;

    let mut report = MemoryReport {
        num_options: mdes.num_options(),
        num_or_trees: mdes.num_or_trees(),
        ..MemoryReport::default()
    };

    for idx in 0..mdes.num_options() {
        let checks = mdes.option_checks(idx).len();
        report.option_bytes += header + checks * check;
        report.num_checks += checks;
    }

    for idx in 0..mdes.num_or_trees() {
        report.or_tree_bytes += header + mdes.tree_options(idx).len() * reference;
    }

    // AND-level nodes: one per unique spec AND/OR tree referenced.
    let mut seen_and: BTreeSet<u32> = BTreeSet::new();
    let mut top_level: BTreeSet<(u8, u32)> = BTreeSet::new();
    for (idx, class) in mdes.classes().iter().enumerate() {
        let trees = mdes.class_trees(ClassId::from_index(idx));
        report.class_bytes += 2 * WORD_BYTES;
        match class.kind {
            ConstraintKind::Or => {
                top_level.insert((0, trees[0]));
            }
            ConstraintKind::AndOr => {
                top_level.insert((1, class.and_or_index));
                if seen_and.insert(class.and_or_index) {
                    report.and_level_bytes += header + trees.len() * reference;
                }
            }
        }
    }
    report.num_trees = top_level.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UsageEncoding;
    use crate::resource::ResourceId;
    use crate::spec::{AndOrTree, Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
    use crate::usage::ResourceUsage;

    fn u(r: usize, t: i32) -> ResourceUsage {
        ResourceUsage::new(ResourceId::from_index(r), t)
    }

    fn or_spec() -> MdesSpec {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("r", 2).unwrap();
        let o1 = spec.add_option(TableOption::new(vec![u(0, 0), u(1, 0)]));
        let o2 = spec.add_option(TableOption::new(vec![u(1, 1)]));
        let tree = spec.add_or_tree(OrTree::new(vec![o1, o2]));
        spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        spec
    }

    #[test]
    fn scalar_or_tree_accounting_is_exact() {
        let spec = or_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        let report = measure(&compiled);
        // Options: (8 + 2*8) + (8 + 1*8) = 24 + 16 = 40.
        assert_eq!(report.option_bytes, 40);
        // OR-tree: 8 + 2*4 = 16.
        assert_eq!(report.or_tree_bytes, 16);
        assert_eq!(report.and_level_bytes, 0);
        assert_eq!(report.class_bytes, 8);
        assert_eq!(report.total(), 64);
        assert_eq!(report.num_options, 2);
        assert_eq!(report.num_trees, 1);
        assert_eq!(report.num_checks, 3);
    }

    #[test]
    fn bitvector_encoding_shrinks_same_cycle_options() {
        let spec = or_spec();
        let scalar = measure(&CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap());
        let packed = measure(&CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
        // o1's two time-0 usages pack into one check: 8 bytes saved.
        assert_eq!(scalar.total() - packed.total(), 8);
    }

    #[test]
    fn and_level_counts_unique_trees_once() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("r", 2).unwrap();
        let o1 = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let o2 = spec.add_option(TableOption::new(vec![u(1, 0)]));
        let t1 = spec.add_or_tree(OrTree::new(vec![o1]));
        let t2 = spec.add_or_tree(OrTree::new(vec![o2]));
        let andor = spec.add_and_or_tree(AndOrTree::new(vec![t1, t2]));
        // Two classes share the same AND/OR tree.
        spec.add_class(
            "a",
            Constraint::AndOr(andor),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        spec.add_class(
            "b",
            Constraint::AndOr(andor),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        let report = measure(&compiled);
        // One AND node: 8 + 2*4 = 16 bytes, despite two referencing classes.
        assert_eq!(report.and_level_bytes, 16);
        assert_eq!(report.class_bytes, 16);
        assert_eq!(report.num_trees, 1);
    }

    #[test]
    fn shared_or_trees_are_counted_once() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add("r").unwrap();
        let o = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let tree = spec.add_or_tree(OrTree::new(vec![o]));
        spec.add_class("a", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        spec.add_class("b", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        let report = measure(&CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap());
        assert_eq!(report.num_or_trees, 1);
        // Both classes share one top-level tree.
        assert_eq!(report.num_trees, 1);
    }
}
