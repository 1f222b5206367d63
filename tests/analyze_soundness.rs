//! Dynamic soundness of the static analyzer's dead-option claims.
//!
//! `mdes_analyze` reports an OR-tree option as dead (`MD002` syntactic
//! dominance, `MD003` difference-set dominance) only when **no** probe
//! stream can ever select it.  That is a strong claim about runtime
//! behaviour derived purely statically, so this harness replays seeded
//! reserve/release streams through the production checkers (both usage
//! encodings) and the finite-state-automaton baseline on every bundled
//! machine, a 64-machine synthetic fleet, and a defect-seeded fleet with
//! *known* dead options planted in — and asserts that no selection ever
//! lands on a statically-dead `(tree, option)` pair.
//!
//! The defect fleet keeps the harness honest: its planted dominated
//! options guarantee the dead set is non-empty, so the assertion is
//! exercised, not vacuous.  The lint report itself must also be
//! byte-identical across runs — CI diffs it.

use std::collections::BTreeSet;

use mdes::analyze::{analyze_spec, render_text};
use mdes::automata::Automaton;
use mdes::core::spec::MdesSpec;
use mdes::core::{CheckStats, Checker, Choice, ClassId, CompiledMdes, RuMap, UsageEncoding};
use mdes::workload::{fleet, fleet_with_defects, Pcg32};
use proptest::prelude::*;

/// Probes per machine per encoding; the issue floor is 1k.
const PROBES: usize = 1_024;

/// The analyzer's dead set for `spec`, as compiled `(tree, option)`
/// index pairs.  Compilation preserves spec indices (one compiled
/// object per spec object, in id order), so the pairs compare directly
/// against [`Choice::selected`].
fn dead_set(spec: &MdesSpec) -> BTreeSet<(usize, usize)> {
    analyze_spec(spec).dead_options().into_iter().collect()
}

/// Replays a seeded reserve/release stream and asserts no selection
/// picks a statically-dead option.  Reservations are *held* (up to a
/// churn window) so later probes see realistic contention — dominance
/// claims must survive arbitrary RU-map states, not just an empty map.
fn replay_checker(
    label: &str,
    spec: &MdesSpec,
    encoding: UsageEncoding,
    seed: u64,
    dead: &BTreeSet<(usize, usize)>,
) -> usize {
    let compiled = CompiledMdes::compile(spec, encoding).unwrap();
    let checker = Checker::new(&compiled);
    let num_classes = compiled.classes().len();
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    let mut rng = Pcg32::new(seed, 0x5059);
    let mut held: Vec<Choice> = Vec::new();
    let mut selections = 0usize;
    for _ in 0..PROBES {
        if !held.is_empty() && rng.gen_range(4) == 0 {
            let slot = rng.gen_range(held.len() as u32) as usize;
            let choice = held.swap_remove(slot);
            checker.release(&mut ru, choice.time, &choice.selected);
        }
        let class = ClassId::from_index(rng.gen_range(num_classes as u32) as usize);
        let time = rng.gen_range(64) as i32;
        if let Some(choice) = checker.try_reserve(&mut ru, class, time, &mut stats) {
            let trees = &compiled.class(class).or_trees;
            for (k, &opt) in choice.selected.iter().enumerate() {
                let pair = (trees[k] as usize, opt as usize);
                assert!(
                    !dead.contains(&pair),
                    "{label} ({encoding:?}): statically-dead option {} of tree {} \
                     selected for class {} at time {time}",
                    pair.1,
                    pair.0,
                    compiled.class(class).name,
                );
                selections += 1;
            }
            if held.len() < 48 {
                held.push(choice);
            } else {
                checker.release(&mut ru, choice.time, &choice.selected);
            }
        }
    }
    selections
}

/// Drives the automaton and the table checker through one in-order
/// stream: accept/reject decisions must agree, and every accepted
/// selection (taken from the table side — the automaton's transitions
/// are built from the same checker) must avoid the dead set.
fn replay_automaton(label: &str, spec: &MdesSpec, seed: u64, dead: &BTreeSet<(usize, usize)>) {
    let compiled = CompiledMdes::compile(spec, UsageEncoding::BitVector).unwrap();
    let checker = Checker::new(&compiled);
    let mut fsa = Automaton::new(&compiled);
    let num_classes = compiled.classes().len();
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    let mut rng = Pcg32::new(seed, 0x5059);
    let mut state = Automaton::START;
    let mut cycle = 0i32;
    for step in 0..PROBES {
        if rng.gen_range(4) == 0 {
            cycle += 1;
            state = fsa.advance(state);
            continue;
        }
        let class = ClassId::from_index(rng.gen_range(num_classes as u32) as usize);
        let table = checker.try_reserve(&mut ru, class, cycle, &mut stats);
        match fsa.issue(state, class) {
            Some(next) => {
                let choice = table.unwrap_or_else(|| {
                    panic!("{label} step {step}: FSA accepted, tables rejected")
                });
                let trees = &compiled.class(class).or_trees;
                for (k, &opt) in choice.selected.iter().enumerate() {
                    assert!(
                        !dead.contains(&(trees[k] as usize, opt as usize)),
                        "{label}: automaton-accepted issue selected dead option {opt} \
                         of tree {}",
                        trees[k],
                    );
                }
                state = next;
            }
            None => assert!(
                table.is_none(),
                "{label} step {step}: FSA rejected, tables accepted"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Bundled machines, arbitrary stream seeds, both encodings plus
    /// the automaton: statically-dead options are never selected.
    #[test]
    fn bundled_machines_never_select_dead_options(seed in any::<u64>()) {
        for (name, spec) in mdes::machines::bundled() {
            let dead = dead_set(&spec);
            for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
                replay_checker(&name, &spec, encoding, seed, &dead);
            }
            replay_automaton(&name, &spec, seed, &dead);
        }
    }
}

#[test]
fn fleet_machines_never_select_dead_options() {
    for machine in fleet(0x50FA, 64) {
        let dead = dead_set(&machine.spec);
        for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
            replay_checker(&machine.name, &machine.spec, encoding, 0xD1CE, &dead);
        }
    }
}

/// The defect fleet has planted dominated options, so here the dead set
/// is provably non-empty: the soundness assertion runs with teeth.  The
/// planted unsatisfiable class also rides along — its reservations must
/// simply always fail, never wedge or panic the checkers.
#[test]
fn defect_fleets_have_nonempty_dead_sets_that_are_never_selected() {
    let mut live_selections = 0usize;
    for seeded in fleet_with_defects(0xBAD5, 16, 1.0) {
        let dead = dead_set(&seeded.machine.spec);
        assert!(
            !dead.is_empty(),
            "{}: planted dominated option must enter the dead set",
            seeded.machine.name
        );
        for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
            live_selections += replay_checker(
                &seeded.machine.name,
                &seeded.machine.spec,
                encoding,
                7,
                &dead,
            );
        }
    }
    // The streams genuinely scheduled work around the planted defects.
    assert!(live_selections > 0);
}

#[test]
fn lint_reports_are_byte_identical_across_runs() {
    let render = || -> String {
        mdes::machines::bundled()
            .iter()
            .map(|(name, spec)| render_text(name, &analyze_spec(spec)))
            .collect()
    };
    assert_eq!(render(), render());
}
