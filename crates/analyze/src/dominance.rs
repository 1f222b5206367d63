//! Dominance proofs: options that can never be selected.
//!
//! The paper's Section 5 check is syntactic: option B is dominated by a
//! higher-priority option A when B's usages are a superset of A's —
//! whenever B's resources are free, A's are too, so the priority walk
//! stops at A.  [`mdes_opt::dominance`] removes exactly those.
//!
//! The semantic extension here reasons about *reachable RU-map states*
//! instead of arbitrary ones.  Every busy cell in the map was put there
//! by a reservation of some option `C` of the same description (the
//! checkers reserve nothing else).  For an ordered option pair, the
//! *difference set* `D(C, X) = { t_C − t_X | C and X use a common
//! resource at t_C and t_X }` is the set of issue-time deltas at which a
//! C-reservation occupies a cell X probes — the same difference-set
//! construction as the collision vectors of
//! [`mdes_core::collision`], without the sign restriction (a blocking
//! reservation can sit later in the map than the probe).
//!
//! **Claim.** If `D(C, A) ⊆ D(C, B)` for every reachable option `C`,
//! then at any issue time against any reachable map state, "A blocked"
//! implies "B blocked" — each busy cell that intersects A came from some
//! reservation `(C, S)` with delta `T − S ∈ D(C, A) ⊆ D(C, B)`, so that
//! same reservation occupies a cell B probes.  Contrapositive: B free ⟹
//! A free ⟹ the priority walk selects A (or something even earlier).
//! B can never be selected.
//!
//! The syntactic superset implies the semantic condition (extra usages
//! only grow every `D(·, B)`), so this check is strictly more powerful:
//! it also proves dominance between options on *mirrored* resources that
//! every reachable option uses in lockstep — the copy-paste case where
//! two alternatives name different units that are always reserved
//! together.  Every proof is checked dynamically by
//! `tests/analyze_soundness.rs`: a dead option must never appear in a
//! checker's selection on any seeded probe stream.

use std::collections::BTreeSet;

use mdes_core::spec::MdesSpec;

use crate::{reachable, Diagnostic, Severity, Target};

/// Emits MD002/MD003 diagnostics for dominated option positions and
/// returns the number of `(tree, option)` pairs proved dead.
///
/// A diagnostic is emitted per dominated *position*; a `(tree, option)`
/// pair only becomes a [`Target::OrTreeOption`] (and thus a member of
/// [`crate::Analysis::dead_options`]) when every position the option id
/// occupies in that tree is dominated — an id listed twice is dead only
/// if both occurrences are.
pub(crate) fn dominance_diagnostics(spec: &MdesSpec, diags: &mut Vec<Diagnostic>) -> usize {
    let (trees, options) = reachable(spec);
    // Difference sets are quadratic in option pairs; cache canonical
    // usages once.
    let canon: Vec<Vec<mdes_core::usage::ResourceUsage>> = spec
        .option_ids()
        .map(|id| spec.option(id).canonical_usages())
        .collect();
    let mut dead = 0usize;

    for &tree_index in &trees {
        let tree = spec.or_tree(mdes_core::spec::OrTreeId::from_index(tree_index));
        let tree_name = tree
            .name
            .clone()
            .unwrap_or_else(|| format!("#{tree_index}"));
        // position -> Some(code, winner position) when dominated.
        let mut verdicts: Vec<Option<(&'static str, usize)>> = vec![None; tree.options.len()];
        for (j, &candidate) in tree.options.iter().enumerate() {
            for (i, &winner) in tree.options.iter().enumerate().take(j) {
                if spec.option(candidate).covers(spec.option(winner)) {
                    verdicts[j] = Some(("MD002", i));
                    break;
                }
                if difference_dominates(spec, &options, winner.index(), candidate.index(), &canon) {
                    verdicts[j] = Some(("MD003", i));
                    break;
                }
            }
        }

        // An option id is dead in this tree iff all its positions are
        // dominated.
        let mut dead_ids: BTreeSet<usize> = BTreeSet::new();
        for &opt in &tree.options {
            let all_dominated = tree
                .options
                .iter()
                .enumerate()
                .filter(|(_, &o)| o == opt)
                .all(|(pos, _)| verdicts[pos].is_some());
            if all_dominated {
                dead_ids.insert(opt.index());
            }
        }
        dead += dead_ids.len();

        for (j, verdict) in verdicts.iter().enumerate() {
            let Some((code, winner)) = verdict else {
                continue;
            };
            let option_index = tree.options[j].index();
            let proof = match *code {
                "MD002" => "its usages are a superset of",
                _ => "every reachable reservation that blocks",
            };
            let target = if dead_ids.contains(&option_index) {
                Target::OrTreeOption {
                    tree: tree_index,
                    option: option_index,
                }
            } else {
                Target::None
            };
            let message = match *code {
                "MD002" => format!(
                    "or_tree {tree_name}: option #{option_index} (position {}) can never be \
                     selected — {proof} higher-priority option #{} (position {})",
                    j + 1,
                    tree.options[*winner].index(),
                    winner + 1
                ),
                _ => format!(
                    "or_tree {tree_name}: option #{option_index} (position {}) can never be \
                     selected — {proof} option #{} (position {}) also blocks it \
                     (difference-set proof)",
                    j + 1,
                    tree.options[*winner].index(),
                    winner + 1
                ),
            };
            diags.push(
                Diagnostic::new(code, Severity::Warn, message)
                    .with_item(tree_name.clone())
                    .with_target(target),
            );
        }
    }
    dead
}

/// True when `D(C, winner) ⊆ D(C, candidate)` for every reachable
/// option `C`: any reservation blocking the winner also blocks the
/// candidate, so the candidate can never be the first free option.
fn difference_dominates(
    _spec: &MdesSpec,
    reachable_options: &[usize],
    winner: usize,
    candidate: usize,
    canon: &[Vec<mdes_core::usage::ResourceUsage>],
) -> bool {
    for &c in reachable_options {
        let d_winner = difference_set(&canon[c], &canon[winner]);
        if d_winner.is_empty() {
            continue;
        }
        let d_candidate = difference_set(&canon[c], &canon[candidate]);
        if !d_winner.is_subset(&d_candidate) {
            return false;
        }
    }
    true
}

/// `D(C, X)`: issue-time deltas `t_C − t_X` over usages of a common
/// resource.  `usages` must be canonical (sorted); only resource
/// equality matters, so a plain double loop over the (small) usage
/// lists is fine.
fn difference_set(
    c: &[mdes_core::usage::ResourceUsage],
    x: &[mdes_core::usage::ResourceUsage],
) -> BTreeSet<i32> {
    let mut out = BTreeSet::new();
    for uc in c {
        for ux in x {
            if uc.resource == ux.resource {
                out.insert(uc.time - ux.time);
            }
        }
    }
    out
}

/// Difference sets double as collision vectors: restricting to
/// non-negative deltas recovers [`mdes_core::collision::forbidden_latencies`].
#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::collision::forbidden_latencies;
    use mdes_core::spec::{Constraint, Latency, OpFlags, OrTree, TableOption};
    use mdes_core::usage::ResourceUsage;
    use mdes_core::ResourceId;

    fn u(r: usize, t: i32) -> ResourceUsage {
        ResourceUsage::new(ResourceId::from_index(r), t)
    }

    #[test]
    fn difference_set_extends_the_collision_vector() {
        let a = TableOption::new(vec![u(0, 0), u(0, 3), u(1, 1)]);
        let b = TableOption::new(vec![u(0, 1), u(1, 0)]);
        let cv = forbidden_latencies(&a, &b);
        let ds = difference_set(&a.canonical_usages(), &b.canonical_usages());
        for t in cv {
            assert!(ds.contains(&t), "collision vector latency {t} missing");
        }
        assert!(ds.contains(&-1), "negative deltas must be covered too");
    }

    /// The lockstep case the syntactic check cannot see.  Options
    /// A = {P@0, Q@0} and B = {P@0, R@0} share the port P; across the
    /// whole description Q is only ever reserved alongside P at the same
    /// cycle.  So any reservation occupying Q@T (blocking A) also
    /// occupies P@T (blocking B): B free ⟹ A free ⟹ the priority walk
    /// takes A.  B is semantically dead even though its usages are not a
    /// superset of A's.
    #[test]
    fn lockstep_resources_prove_semantic_dominance() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add("P").unwrap(); // r0: shared port
        spec.resources_mut().add("Q").unwrap(); // r1: A's unit
        spec.resources_mut().add("R").unwrap(); // r2: B's unit
        let a = spec.add_option(TableOption::new(vec![u(0, 0), u(1, 0)]));
        let b = spec.add_option(TableOption::new(vec![u(0, 0), u(2, 0)]));
        let late = spec.add_option(TableOption::new(vec![u(0, 1)]));
        let alt = spec.add_or_tree(OrTree::named("Alt", vec![a, b]));
        let other = spec.add_or_tree(OrTree::named("Late", vec![late]));
        spec.add_class("alt", Constraint::Or(alt), Latency::new(1), OpFlags::none())
            .unwrap();
        spec.add_class(
            "late",
            Constraint::Or(other),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        spec.validate().unwrap();

        // B is NOT a syntactic superset of A (it lacks Q@0)…
        assert!(!spec.option(b).covers(spec.option(a)));
        // …but for every reachable option C ∈ {a, b, late},
        // D(C, a) = D(C, b) through the shared port P, so anything
        // blocking A also blocks B: semantic dominance.
        let mut diags = Vec::new();
        let dead = dominance_diagnostics(&spec, &mut diags);
        assert_eq!(dead, 1, "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "MD003"), "{diags:?}");
        assert!(diags.iter().any(|d| d.target
            == Target::OrTreeOption {
                tree: alt.index(),
                option: b.index(),
            }));
    }

    /// Distinct units with independent contention: no dominance.
    #[test]
    fn independent_units_are_not_dominated() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("U", 2).unwrap();
        let u0 = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let u1 = spec.add_option(TableOption::new(vec![u(1, 0)]));
        let tree = spec.add_or_tree(OrTree::named("AnyU", vec![u0, u1]));
        spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        let mut diags = Vec::new();
        let dead = dominance_diagnostics(&spec, &mut diags);
        assert_eq!(dead, 0, "{diags:?}");
        assert!(diags.is_empty());
    }

    /// The syntactic case still reports (as MD002) and both checks agree
    /// with the opt pipeline's eliminator about *what* is dominated.
    #[test]
    fn syntactic_supersets_report_md002() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("D", 2).unwrap();
        let lean = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let fat = spec.add_option(TableOption::new(vec![u(0, 0), u(1, 0)]));
        let tree = spec.add_or_tree(OrTree::named("T", vec![lean, fat]));
        spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        let mut diags = Vec::new();
        let dead = dominance_diagnostics(&spec, &mut diags);
        assert_eq!(dead, 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "MD002");

        let mut eliminated = spec.clone();
        let report = mdes_opt::eliminate_dominated_options(&mut eliminated);
        assert_eq!(report.options_removed, 1);
    }

    /// A duplicated option id: dead only because *every* occurrence is
    /// dominated (the first occurrence dominates the second).
    #[test]
    fn duplicate_reference_positions_are_handled_per_position() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add("R").unwrap();
        let only = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let twice = spec.add_or_tree(OrTree::named("Twice", vec![only, only]));
        spec.add_class(
            "op",
            Constraint::Or(twice),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        let mut diags = Vec::new();
        let dead = dominance_diagnostics(&spec, &mut diags);
        // Position 2 is dominated by position 1, but the *id* still has a
        // live occurrence at position 1 — not dead.
        assert_eq!(dead, 0, "{diags:?}");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].target, Target::None);
    }
}
