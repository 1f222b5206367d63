//! A pointer-chased reference checker, kept as the honest baseline for
//! the check-arena A/B microbench.
//!
//! Before the arena flattening, `CompiledMdes` stored one separately
//! allocated `Vec<CompiledCheck>` per option, so the checker's inner
//! loop dereferenced a fresh heap block for every option it probed.
//! This module reconstructs exactly that layout from a compiled
//! description and runs the same priority-scan algorithm over it —
//! including the same [`CheckStats`] accounting — so
//! `checker/pointer_chased/*` vs `checker/arena/*` measures nothing but
//! the data-layout change.

use mdes_core::compile::CompiledCheck;
use mdes_core::{CheckStats, Choice, ClassId, CompiledMdes, RuMap};

/// The pre-arena checker: per-option check lists in separate heap
/// allocations, walked in strict priority order.
#[derive(Clone, Debug)]
pub struct PointerChasedChecker<'a> {
    mdes: &'a CompiledMdes,
    /// One separately allocated check list per option — deliberately
    /// `Vec<Vec<_>>`, the layout this crate's benches exist to compare
    /// against.
    options: Vec<Vec<CompiledCheck>>,
}

impl<'a> PointerChasedChecker<'a> {
    /// Rebuilds the pointer-chased layout from `mdes`.
    pub fn new(mdes: &'a CompiledMdes) -> PointerChasedChecker<'a> {
        let options = (0..mdes.num_options())
            .map(|idx| mdes.option_checks(idx).iter().collect())
            .collect();
        PointerChasedChecker { mdes, options }
    }

    fn try_or_tree(
        &self,
        ru: &RuMap,
        tree_idx: u32,
        time: i32,
        stats: &mut CheckStats,
    ) -> Option<u32> {
        let tree = &self.mdes.or_trees()[tree_idx as usize];
        'options: for &opt_idx in &tree.options {
            stats.count_option();
            for check in &self.options[opt_idx as usize] {
                stats.count_check();
                if !ru.is_free(time + check.time, check.mask) {
                    continue 'options;
                }
            }
            return Some(opt_idx);
        }
        None
    }

    fn apply_option(&self, ru: &mut RuMap, opt_idx: u32, time: i32, set: bool) {
        for check in &self.options[opt_idx as usize] {
            if set {
                ru.reserve(time + check.time, check.mask);
            } else {
                ru.release(time + check.time, check.mask);
            }
        }
    }

    /// Mirrors `Checker::try_reserve` over the pointer-chased layout.
    pub fn try_reserve(
        &self,
        ru: &mut RuMap,
        class: ClassId,
        time: i32,
        stats: &mut CheckStats,
    ) -> Option<Choice> {
        stats.begin_attempt();
        let compiled = self.mdes.class(class);
        let mut selected: Vec<u32> = Vec::with_capacity(compiled.or_trees.len());
        for &tree_idx in &compiled.or_trees {
            match self.try_or_tree(ru, tree_idx, time, stats) {
                Some(opt_idx) => {
                    self.apply_option(ru, opt_idx, time, true);
                    selected.push(opt_idx);
                }
                None => {
                    for &opt_idx in &selected {
                        self.apply_option(ru, opt_idx, time, false);
                    }
                    stats.end_attempt(false);
                    return None;
                }
            }
        }
        stats.end_attempt(true);
        Some(Choice {
            class,
            time,
            selected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::{Checker, UsageEncoding};
    use mdes_machines::Machine;
    use mdes_workload::Pcg32;

    #[test]
    fn pointer_chased_agrees_with_the_arena_checker() {
        for machine in [Machine::Pa7100, Machine::K5] {
            let spec = machine.spec();
            let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
            let arena = Checker::new(&compiled);
            let reference = PointerChasedChecker::new(&compiled);
            let classes = compiled.classes().len();

            let mut rng = Pcg32::new(9, 9);
            let mut ru_a = RuMap::new();
            let mut ru_r = RuMap::new();
            let mut stats_a = CheckStats::new();
            let mut stats_r = CheckStats::new();
            for _ in 0..2000 {
                let class = ClassId::from_index(rng.gen_range(classes as u32) as usize);
                let time = rng.gen_range(16) as i32;
                let a = arena.try_reserve(&mut ru_a, class, time, &mut stats_a);
                let r = reference.try_reserve(&mut ru_r, class, time, &mut stats_r);
                assert_eq!(a, r, "{}", machine.name());
            }
            // Same algorithm, same layout-independent accounting.
            assert_eq!(stats_a, stats_r, "{}", machine.name());
        }
    }
}
