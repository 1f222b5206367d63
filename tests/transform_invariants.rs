//! Property tests for the transformation passes on randomly generated
//! machines: collision-vector preservation, idempotence, monotone size.

mod common;

use common::{arb_spec_plan, build_spec};
use mdes::core::collision::forbidden_latencies;
use mdes::core::size::measure;
use mdes::core::spec::MdesSpec;
use mdes::core::{CheckStats, Checker, ClassId, CompiledMdes, RuMap, UsageEncoding};
use mdes::opt::pipeline::{optimize, PipelineConfig};
use mdes::opt::timeshift::Direction;
use proptest::prelude::*;

/// All pairwise collision vectors of a spec, keyed by option index.
/// Valid for comparing specs whose option pools are index-aligned.
fn collision_matrix(spec: &MdesSpec) -> Vec<Vec<std::collections::BTreeSet<i32>>> {
    let ids: Vec<_> = spec.option_ids().collect();
    ids.iter()
        .map(|&a| {
            ids.iter()
                .map(|&b| forbidden_latencies(spec.option(a), spec.option(b)))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The usage-time transformation preserves every pairwise collision
    /// vector (the Section-7 theory), in both directions.
    #[test]
    fn time_shift_preserves_collision_vectors(plan in arb_spec_plan()) {
        let spec = build_spec(&plan);
        let before = collision_matrix(&spec);
        for direction in [Direction::Forward, Direction::Backward] {
            let mut shifted = spec.clone();
            mdes::opt::shift_usage_times(&mut shifted, direction);
            prop_assert_eq!(&collision_matrix(&shifted), &before);
        }
    }

    /// Forward shifting leaves no negative usage times; backward leaves
    /// no positive ones.
    #[test]
    fn time_shift_normalizes_signs(plan in arb_spec_plan()) {
        let mut fwd = build_spec(&plan);
        mdes::opt::shift_usage_times(&mut fwd, Direction::Forward);
        for id in fwd.option_ids() {
            for usage in &fwd.option(id).usages {
                prop_assert!(usage.time >= 0);
            }
        }
        let mut bwd = build_spec(&plan);
        mdes::opt::shift_usage_times(&mut bwd, Direction::Backward);
        for id in bwd.option_ids() {
            for usage in &bwd.option(id).usages {
                prop_assert!(usage.time <= 0);
            }
        }
    }

    /// The Eichenberger–Davidson-style minimizer preserves collision
    /// vectors too (its defining soundness condition).
    #[test]
    fn minimizer_preserves_collision_vectors(plan in arb_spec_plan()) {
        let spec = build_spec(&plan);
        let before = collision_matrix(&spec);
        let mut minimized = spec.clone();
        mdes::opt::minimize_usages(&mut minimized);
        prop_assert_eq!(&collision_matrix(&minimized), &before);
    }

    /// Running the full pipeline twice equals running it once.
    #[test]
    fn pipeline_is_idempotent(plan in arb_spec_plan()) {
        let mut spec = build_spec(&plan);
        optimize(&mut spec, &PipelineConfig::full());
        let once = spec.clone();
        optimize(&mut spec, &PipelineConfig::full());
        prop_assert_eq!(spec, once);
    }

    /// No transformation stage ever grows the compiled footprint under
    /// the scalar encoding, and the bit-vector encoding never exceeds the
    /// scalar one.
    #[test]
    fn sizes_shrink_monotonically(plan in arb_spec_plan()) {
        let original = build_spec(&plan);
        let mut cleaned = original.clone();
        optimize(&mut cleaned, &PipelineConfig::section5());
        let mut shifted = original.clone();
        optimize(&mut shifted, &PipelineConfig::through_section7());

        let bytes = |spec: &MdesSpec, enc: UsageEncoding| {
            measure(&CompiledMdes::compile(spec, enc).unwrap()).total()
        };
        let o = bytes(&original, UsageEncoding::Scalar);
        let c = bytes(&cleaned, UsageEncoding::Scalar);
        let s = bytes(&shifted, UsageEncoding::Scalar);
        prop_assert!(c <= o, "cleanup grew {o} -> {c}");
        prop_assert!(s <= c, "shift grew {c} -> {s}");
        prop_assert!(
            bytes(&shifted, UsageEncoding::BitVector) <= s,
            "bit-vectors grew the representation"
        );
    }

    /// Every pass leaves a validating spec behind, in any order of the
    /// two Section-5 passes.
    #[test]
    fn passes_preserve_validity_in_any_order(plan in arb_spec_plan(), order in 0u8..4) {
        let mut spec = build_spec(&plan);
        match order {
            0 => {
                mdes::opt::eliminate_redundancy(&mut spec);
                mdes::opt::eliminate_dominated_options(&mut spec);
            }
            1 => {
                mdes::opt::eliminate_dominated_options(&mut spec);
                mdes::opt::eliminate_redundancy(&mut spec);
            }
            2 => {
                mdes::opt::factor_common_usages(&mut spec);
                mdes::opt::eliminate_redundancy(&mut spec);
            }
            _ => {
                mdes::opt::shift_usage_times(&mut spec, Direction::Forward);
                mdes::opt::sort_checks_zero_first(&mut spec, Direction::Forward);
                mdes::opt::sort_and_or_trees(&mut spec);
            }
        }
        prop_assert!(spec.validate().is_ok());
    }

    /// The packed bit-vector check/reserve is semantically identical to
    /// the naive per-usage scalar walk: same accept/reject verdicts, the
    /// same chosen options, and byte-identical occupancy afterwards.
    #[test]
    fn bitvector_reserve_matches_naive_semantics(
        plan in arb_spec_plan(),
        probes in prop::collection::vec((any::<u16>(), 0u8..3), 1..48),
    ) {
        let spec = build_spec(&plan);
        let scalar = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        let bitvec = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let scalar_checker = Checker::new(&scalar);
        let bitvec_checker = Checker::new(&bitvec);
        let mut scalar_ru = RuMap::new();
        let mut bitvec_ru = RuMap::new();
        let mut scalar_stats = CheckStats::new();
        let mut bitvec_stats = CheckStats::new();
        let classes = scalar.classes().len();
        let (mut scalar_sel, mut bitvec_sel) = (Vec::new(), Vec::new());
        let mut cycle = 0i32;
        for &(pick, advance) in &probes {
            cycle += i32::from(advance);
            let class = ClassId::from_index(pick as usize % classes);
            scalar_sel.clear();
            bitvec_sel.clear();
            let from_scalar = scalar_checker.try_reserve_into(
                &mut scalar_ru, class, cycle, &mut scalar_stats, &mut scalar_sel,
            );
            let from_bitvec = bitvec_checker.try_reserve_into(
                &mut bitvec_ru, class, cycle, &mut bitvec_stats, &mut bitvec_sel,
            );
            prop_assert_eq!(
                from_scalar, from_bitvec,
                "encodings disagree at cycle {}: scalar={:?} bitvec={:?}",
                cycle, scalar_sel, bitvec_sel
            );
            prop_assert_eq!(&scalar_sel, &bitvec_sel);
        }
        for c in -4..=cycle + 8 {
            prop_assert_eq!(scalar_ru.word(c), bitvec_ru.word(c), "occupancy differs at {}", c);
        }
    }

    /// Expansion reports exactly the cross-product option counts.
    #[test]
    fn expansion_counts_are_cross_products(plan in arb_spec_plan()) {
        let spec = build_spec(&plan);
        let (expanded, _) = mdes::opt::expand_to_or(&spec);
        for id in spec.class_ids() {
            prop_assert_eq!(
                spec.class_option_count(id),
                expanded.class_option_count(id)
            );
        }
    }
}
