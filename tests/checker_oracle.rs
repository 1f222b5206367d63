//! Differential testing of the low-level constraint checker against a
//! naive oracle.
//!
//! The oracle implements the semantics directly from the paper's
//! definitions, with no short-circuiting, no bit tricks and no sharing:
//! an operation may issue iff some cross-product combination of options
//! (in lexicographic priority order) has every (resource, cycle) cell
//! free in an explicit set; reserving inserts those cells.  The real
//! checker must agree on every accept/reject decision *and* pick the
//! same cells, under both encodings, for arbitrary machines and issue
//! scripts.

mod common;

use std::collections::BTreeSet;

use common::{arb_spec_plan, build_spec};
use mdes::core::spec::{Constraint, MdesSpec};
use mdes::core::{CheckStats, Checker, ClassId, CompiledMdes, RuMap, UsageEncoding};
use proptest::prelude::*;

/// The oracle machine state: explicit (cycle, resource) cells.
#[derive(Default)]
struct Oracle {
    busy: BTreeSet<(i32, usize)>,
}

impl Oracle {
    /// All cross-product usage combinations of a class, in priority
    /// order (first OR-tree outermost).
    fn combinations(spec: &MdesSpec, class: ClassId) -> Vec<Vec<(i32, usize)>> {
        let trees: Vec<_> = match spec.class(class).constraint {
            Constraint::Or(t) => vec![t],
            Constraint::AndOr(a) => spec.and_or_tree(a).or_trees.clone(),
        };
        let mut combos: Vec<Vec<(i32, usize)>> = vec![Vec::new()];
        for tree in trees {
            let mut next = Vec::new();
            for prefix in &combos {
                for &opt in &spec.or_tree(tree).options {
                    let mut cells = prefix.clone();
                    for usage in &spec.option(opt).usages {
                        cells.push((usage.time, usage.resource.index()));
                    }
                    next.push(cells);
                }
            }
            combos = next;
        }
        combos
    }

    /// Tries to issue: first fully-free combination wins.
    fn try_issue(&mut self, spec: &MdesSpec, class: ClassId, time: i32) -> bool {
        for combo in Self::combinations(spec, class) {
            let cells: Vec<(i32, usize)> = combo.iter().map(|&(t, r)| (time + t, r)).collect();
            if cells.iter().all(|c| !self.busy.contains(c)) {
                self.busy.extend(cells);
                return true;
            }
        }
        false
    }
}

/// Extracts the reserved cells of an RU map for comparison.
fn ru_cells(ru: &RuMap, lo: i32, hi: i32) -> BTreeSet<(i32, usize)> {
    let mut cells = BTreeSet::new();
    for cycle in lo..=hi {
        let word = ru.word(cycle);
        for bit in 0..64 {
            if word & (1 << bit) != 0 {
                cells.insert((cycle, bit as usize));
            }
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checker_agrees_with_the_naive_oracle(
        plan in arb_spec_plan(),
        script in prop::collection::vec((0usize..8, 0i32..6), 1..24),
    ) {
        let spec = build_spec(&plan);
        let num_classes = spec.num_classes();
        for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
            let compiled = CompiledMdes::compile(&spec, encoding).unwrap();
            let checker = Checker::new(&compiled);
            let mut ru = RuMap::new();
            let mut stats = CheckStats::new();
            let mut oracle = Oracle::default();
            let mut selected = Vec::new();

            for &(class_seed, time) in &script {
                let class = ClassId::from_index(class_seed % num_classes);
                selected.clear();
                let real = checker.try_reserve_into(&mut ru, class, time, &mut stats, &mut selected);
                let expected = oracle.try_issue(&spec, class, time);
                prop_assert_eq!(
                    real, expected,
                    "decision divergence for class {:?} at {} under {:?}",
                    class, time, encoding
                );
            }
            // Same final machine state: both sides reserved exactly the
            // same (cycle, resource) cells.
            let cells = ru_cells(&ru, -8, 16);
            prop_assert_eq!(cells, oracle.busy.clone());
        }
    }

    #[test]
    fn checker_release_restores_oracle_state(
        plan in arb_spec_plan(),
        script in prop::collection::vec((0usize..8, 0i32..4), 1..12),
    ) {
        // Reserve everything, then release everything: the map must be
        // empty regardless of representation or interleaving.
        let spec = build_spec(&plan);
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        // Every selection, appended in order; a held reservation is its
        // issue time and its span of `selected`.
        let mut selected = Vec::new();
        let mut held = Vec::new();
        for &(class_seed, time) in &script {
            let class = ClassId::from_index(class_seed % spec.num_classes());
            let start = selected.len();
            if checker.try_reserve_into(&mut ru, class, time, &mut stats, &mut selected) {
                held.push((time, start, selected.len()));
            }
        }
        for &(time, lo, hi) in held.iter().rev() {
            checker.release(&mut ru, time, &selected[lo..hi]);
        }
        prop_assert_eq!(ru.population(), 0);
    }
}
