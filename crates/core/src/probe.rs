//! Deterministic differential probe engine.
//!
//! The optimization pipeline's correctness claim is behavioural: an
//! optimized description must answer every scheduler query exactly as the
//! unoptimized one would (Section 4 — "the exact same schedule is produced
//! in each case").  This module turns that claim into an executable
//! oracle: a seeded generator produces random reservation / release /
//! conflict-query sequences, [`run_sequence`] replays one sequence against
//! a compiled description through the [`Checker`], and the resulting
//! outcome *trace* can be compared across two descriptions.
//!
//! Everything here is bit-reproducible: the same [`ProbeConfig`] and class
//! count always generate the same sequences, so a failing probe recorded
//! in a guard incident can be replayed from its seed alone.

use crate::compile::{Checker, CompiledMdes};
use crate::rng::Pcg32;
use crate::rumap::RuMap;
use crate::spec::ClassId;
use crate::stats::CheckStats;
use std::fmt;

/// One step of a probe sequence.
///
/// `class` is a class *index* (not a [`ClassId`]) so an op is plain data
/// that replays identically against any description with the same class
/// list — which every pipeline stage preserves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProbeOp {
    /// Try to reserve one operation of class `class` issued at `time`.
    Reserve {
        /// Class index into the compiled class table.
        class: u32,
        /// Issue cycle.
        time: i32,
    },
    /// Ask whether `class` could issue at `time` without reserving
    /// (a pure conflict query: a reservation released at once).
    Query {
        /// Class index into the compiled class table.
        class: u32,
        /// Issue cycle.
        time: i32,
    },
    /// Release the `slot % held`-th currently held reservation
    /// (unscheduling); a no-op recorded as `false` when nothing is held.
    Release {
        /// Selector into the held-reservation list.
        slot: u32,
    },
}

impl fmt::Display for ProbeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeOp::Reserve { class, time } => write!(f, "reserve c{class}@{time}"),
            ProbeOp::Query { class, time } => write!(f, "query c{class}@{time}"),
            ProbeOp::Release { slot } => write!(f, "release #{slot}"),
        }
    }
}

/// Parameters of the probe generator.  Two runs with equal configs and
/// class counts produce identical sequences.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Master seed; each sequence derives its own stream from it.
    pub seed: u64,
    /// Number of independent sequences.
    pub sequences: u32,
    /// Operations per sequence.
    pub ops_per_sequence: u32,
    /// Issue times are drawn from `0..window`.  A small window forces
    /// resource contention, which is what exposes priority / timing bugs.
    pub window: i32,
}

impl Default for ProbeConfig {
    fn default() -> ProbeConfig {
        ProbeConfig {
            seed: 0x4d44_4553, // "MDES"
            sequences: 48,
            ops_per_sequence: 32,
            window: 4,
        }
    }
}

/// Generates the probe sequences for a machine with `num_classes` classes.
///
/// Roughly 5/8 of ops reserve, 2/8 query, 1/8 release — reservations
/// dominate so the RU map fills up and later outcomes depend on earlier
/// selections (the property that makes priority reorderings observable).
pub fn generate_sequences(config: &ProbeConfig, num_classes: usize) -> Vec<Vec<ProbeOp>> {
    if num_classes == 0 || config.window <= 0 {
        return Vec::new();
    }
    let classes = num_classes as u32;
    let window = config.window as u32;
    (0..config.sequences)
        .map(|s| {
            let mut rng = Pcg32::new(config.seed, u64::from(s) + 1);
            (0..config.ops_per_sequence)
                .map(|_| {
                    let class = rng.gen_range(classes);
                    let time = rng.gen_range(window) as i32;
                    match rng.gen_range(8) {
                        0..=4 => ProbeOp::Reserve { class, time },
                        5 | 6 => ProbeOp::Query { class, time },
                        _ => ProbeOp::Release {
                            slot: rng.next_u32(),
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// Replays one sequence against `mdes` and returns its outcome trace:
/// one boolean per op (reservation/query success, or "released anything").
///
/// Class indices are reduced modulo the class count, so a sequence is
/// total over any non-empty description.
pub fn run_sequence(mdes: &CompiledMdes, ops: &[ProbeOp]) -> Vec<bool> {
    let checker = Checker::new(mdes);
    let num_classes = mdes.classes().len();
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    // Every reservation's selection, appended in order; a held
    // reservation is its issue time and its span of `selected`.  A
    // released span is left in place, unreferenced.
    let mut selected: Vec<u32> = Vec::new();
    let mut held: Vec<(i32, usize, usize)> = Vec::new();
    let mut trace = Vec::with_capacity(ops.len());
    if num_classes == 0 {
        trace.resize(ops.len(), false);
        return trace;
    }
    for op in ops {
        let outcome = match *op {
            ProbeOp::Reserve { class, time } => {
                let class = ClassId::from_index(class as usize % num_classes);
                let start = selected.len();
                let reserved =
                    checker.try_reserve_into(&mut ru, class, time, &mut stats, &mut selected);
                if reserved {
                    held.push((time, start, selected.len()));
                }
                reserved
            }
            ProbeOp::Query { class, time } => {
                let class = ClassId::from_index(class as usize % num_classes);
                let start = selected.len();
                let fits =
                    checker.try_reserve_into(&mut ru, class, time, &mut stats, &mut selected);
                checker.release(&mut ru, time, &selected[start..]);
                selected.truncate(start);
                fits
            }
            ProbeOp::Release { slot } => {
                if held.is_empty() {
                    false
                } else {
                    let (time, lo, hi) = held.remove(slot as usize % held.len());
                    checker.release(&mut ru, time, &selected[lo..hi]);
                    true
                }
            }
        };
        trace.push(outcome);
    }
    trace
}

/// Where two descriptions first disagreed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the diverging sequence.
    pub sequence: usize,
    /// Index of the first op whose outcome differed.
    pub op_index: usize,
}

/// Replays every sequence against both descriptions and returns the first
/// point of disagreement, or `None` if the traces are identical.
pub fn find_divergence(
    a: &CompiledMdes,
    b: &CompiledMdes,
    sequences: &[Vec<ProbeOp>],
) -> Option<Divergence> {
    for (s, ops) in sequences.iter().enumerate() {
        let ta = run_sequence(a, ops);
        let tb = run_sequence(b, ops);
        if let Some(i) = ta.iter().zip(&tb).position(|(x, y)| x != y) {
            return Some(Divergence {
                sequence: s,
                op_index: i,
            });
        }
    }
    None
}

/// Shrinks a diverging sequence to a (locally) minimal one that still
/// distinguishes `a` from `b`: truncate past the first divergence, then
/// greedily drop every op whose removal preserves the disagreement.
///
/// Minimization is deterministic, so the op list stored in a guard
/// incident is reproducible from the seed alone.
pub fn minimize_sequence(a: &CompiledMdes, b: &CompiledMdes, ops: &[ProbeOp]) -> Vec<ProbeOp> {
    let diverges = |ops: &[ProbeOp]| run_sequence(a, ops) != run_sequence(b, ops);
    let mut current = ops.to_vec();
    if let Some(i) = run_sequence(a, &current)
        .iter()
        .zip(run_sequence(b, &current))
        .position(|(x, y)| *x != y)
    {
        current.truncate(i + 1);
    }
    if !diverges(&current) {
        return current; // not actually diverging; nothing to minimize
    }
    let mut i = 0;
    while i < current.len() {
        let mut candidate = current.clone();
        candidate.remove(i);
        if diverges(&candidate) {
            current = candidate;
        } else {
            i += 1;
        }
    }
    current
}

/// Renders a sequence as a compact one-line script (`reserve c0@1;
/// release #2; …`) for incident records and diagnostics.
pub fn render_sequence(ops: &[ProbeOp]) -> String {
    let parts: Vec<String> = ops.iter().map(|op| op.to_string()).collect();
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UsageEncoding;
    use crate::spec::{Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
    use crate::usage::ResourceUsage;

    fn two_alu_spec() -> MdesSpec {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("ALU", 2).unwrap();
        let a0 = spec.add_option(TableOption::new(vec![ResourceUsage::new(
            crate::ResourceId::from_index(0),
            0,
        )]));
        let a1 = spec.add_option(TableOption::new(vec![ResourceUsage::new(
            crate::ResourceId::from_index(1),
            0,
        )]));
        let tree = spec.add_or_tree(OrTree::new(vec![a0, a1]));
        spec.add_class(
            "alu",
            Constraint::Or(tree),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        spec
    }

    #[test]
    fn generation_is_deterministic() {
        let config = ProbeConfig::default();
        assert_eq!(
            generate_sequences(&config, 3),
            generate_sequences(&config, 3)
        );
        let other = ProbeConfig { seed: 99, ..config };
        assert_ne!(
            generate_sequences(&config, 3),
            generate_sequences(&other, 3)
        );
    }

    #[test]
    fn identical_specs_produce_identical_traces() {
        let spec = two_alu_spec();
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let sequences = generate_sequences(&ProbeConfig::default(), spec.num_classes());
        assert!(find_divergence(&mdes, &mdes, &sequences).is_none());
    }

    #[test]
    fn dropped_usage_diverges_and_minimizes() {
        let spec = two_alu_spec();
        let mut broken = spec.clone();
        // Remove ALU[1]'s fallback option: only one op per cycle now fits.
        let tree = broken.or_tree_ids().next().unwrap();
        broken.or_tree_mut(tree).options.pop();

        let a = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let b = CompiledMdes::compile(&broken, UsageEncoding::BitVector).unwrap();
        let sequences = generate_sequences(&ProbeConfig::default(), spec.num_classes());
        let div = find_divergence(&a, &b, &sequences).expect("must diverge");
        let minimized = minimize_sequence(&a, &b, &sequences[div.sequence]);
        assert!(!minimized.is_empty());
        assert!(minimized.len() <= sequences[div.sequence].len());
        assert_ne!(run_sequence(&a, &minimized), run_sequence(&b, &minimized));
        // Two back-to-back reserves at one cycle is the canonical witness.
        assert!(
            minimized.len() <= 3,
            "minimized: {}",
            render_sequence(&minimized)
        );
    }

    #[test]
    fn release_slots_are_stable() {
        let spec = two_alu_spec();
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let ops = vec![
            ProbeOp::Reserve { class: 0, time: 0 },
            ProbeOp::Reserve { class: 0, time: 0 },
            ProbeOp::Reserve { class: 0, time: 0 }, // both ALUs busy
            ProbeOp::Release { slot: 0 },
            ProbeOp::Reserve { class: 0, time: 0 }, // freed slot refills
        ];
        assert_eq!(
            run_sequence(&mdes, &ops),
            vec![true, true, false, true, true]
        );
    }

    #[test]
    fn empty_description_yields_all_false() {
        let spec = MdesSpec::new();
        // An empty spec fails validation, so build the compiled form the
        // long way round: zero classes means every op records `false`.
        let ops = vec![ProbeOp::Reserve { class: 0, time: 0 }];
        if let Ok(mdes) = CompiledMdes::compile(&spec, UsageEncoding::BitVector) {
            assert_eq!(run_sequence(&mdes, &ops), vec![false]);
        }
    }
}
