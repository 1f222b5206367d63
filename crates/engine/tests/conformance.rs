//! The cross-implementation conformance suite: the naive per-usage
//! (scalar) checker, the packed bit-vector checker, and the automata
//! baseline must agree on accept/reject — and the two table checkers on
//! the chosen options — for randomized machines × probe streams.
//!
//! This is the backbone that makes hot-path rewrites safe: any future
//! reimplementation of the check/reserve inner loop has to survive the
//! same seeded differential harness. The automaton cannot report chosen
//! options (it interns whole occupancy windows, Section 10), so the
//! option-level agreement applies to the two table encodings only.

use std::sync::Arc;

use mdes_core::{
    CheckStats, Checker, ClassId, CompiledMdes, Constraint, Latency, MdesSpec, OpFlags, OrTree,
    ResourceUsage, RuMap, TableOption, UsageEncoding,
};
use mdes_engine::Engine;
use mdes_sched::ListScheduler;
use mdes_workload::Pcg32;

use mdes_automata::Automaton;

/// Builds a random machine: 1–3 resource groups of 1–3 members, 1–3
/// classes of 1–3 options, each option 1–2 distinct usages at times
/// -2..=3. Usages are deduplicated per option so every generated spec
/// validates.
fn random_spec(rng: &mut Pcg32) -> MdesSpec {
    let mut spec = MdesSpec::new();
    let mut resources = Vec::new();
    for group in 0..1 + rng.gen_range(3) {
        for member in 0..1 + rng.gen_range(3) {
            resources.push(
                spec.resources_mut()
                    .add(format!("R{group}_{member}"))
                    .unwrap(),
            );
        }
    }
    for class in 0..1 + rng.gen_range(3) {
        let mut options = Vec::new();
        for _ in 0..1 + rng.gen_range(3) {
            let mut picked = std::collections::BTreeSet::new();
            for _ in 0..1 + rng.gen_range(2) {
                let resource = resources[rng.gen_range(resources.len() as u32) as usize];
                let time = rng.gen_range(6) as i32 - 2;
                picked.insert((time, resource));
            }
            let usages: Vec<ResourceUsage> = picked
                .into_iter()
                .map(|(time, resource)| ResourceUsage::new(resource, time))
                .collect();
            options.push(spec.add_option(TableOption::new(usages)));
        }
        let tree = spec.add_or_tree(OrTree::new(options));
        spec.add_class(
            format!("c{class}"),
            Constraint::Or(tree),
            Latency::new(1 + rng.gen_range(3) as i32),
            OpFlags::none(),
        )
        .unwrap();
    }
    spec
}

/// Drives all three implementations through one seeded probe stream and
/// returns how many issue probes were performed.
///
/// Every probe asserts scalar/bit-vector/automaton accept agreement; on
/// acceptance the two table checkers must additionally have chosen the
/// same options at the same time.
fn conform(spec: &MdesSpec, seed: u64, steps: usize) -> usize {
    let scalar = CompiledMdes::compile(spec, UsageEncoding::Scalar).unwrap();
    let bitvec = CompiledMdes::compile(spec, UsageEncoding::BitVector).unwrap();
    let scalar_checker = Checker::new(&scalar);
    let bitvec_checker = Checker::new(&bitvec);
    let mut fsa = Automaton::new(&bitvec);

    let classes: Vec<ClassId> = (0..scalar.classes().len())
        .map(ClassId::from_index)
        .collect();
    let mut scalar_ru = RuMap::new();
    let mut bitvec_ru = RuMap::new();
    let mut scalar_stats = CheckStats::new();
    let mut bitvec_stats = CheckStats::new();
    let mut rng = Pcg32::new(seed, 0xC0F);
    let mut state = Automaton::START;
    let mut cycle = 0i32;
    let mut probes = 0usize;

    for step in 0..steps {
        if rng.gen_range(4) == 0 {
            cycle += 1;
            state = fsa.advance(state);
            continue;
        }
        probes += 1;
        let class = classes[rng.gen_range(classes.len() as u32) as usize];
        let from_scalar =
            scalar_checker.try_reserve(&mut scalar_ru, class, cycle, &mut scalar_stats);
        let from_bitvec =
            bitvec_checker.try_reserve(&mut bitvec_ru, class, cycle, &mut bitvec_stats);
        let from_fsa = fsa.issue(state, class);
        assert_eq!(
            from_scalar.is_some(),
            from_bitvec.is_some(),
            "step {step}: scalar and bit-vector checkers disagree"
        );
        assert_eq!(
            from_bitvec.is_some(),
            from_fsa.is_some(),
            "step {step}: table checkers and automaton disagree"
        );
        match (from_scalar, from_bitvec) {
            (Some(scalar_choice), Some(bitvec_choice)) => {
                assert_eq!(
                    scalar_choice.selected, bitvec_choice.selected,
                    "step {step}: encodings chose different options"
                );
                assert_eq!(scalar_choice.time, bitvec_choice.time);
                assert_eq!(scalar_choice.class, bitvec_choice.class);
            }
            (None, None) => {}
            _ => unreachable!(),
        }
        if let Some(next) = from_fsa {
            state = next;
        }
    }
    // Both encodings must have walked to identical occupancy.
    for c in cycle - 8..=cycle + 8 {
        assert_eq!(
            scalar_ru.word(c),
            bitvec_ru.word(c),
            "occupancy differs at {c}"
        );
    }
    probes
}

#[test]
fn randomized_machines_agree_across_all_three_checkers() {
    // ≥ 10k probes: 96 machines × 160 steps ≈ 11.5k issue probes after
    // the ~25% advance steps.
    let mut probes = 0usize;
    for machine_seed in 0..96u64 {
        let mut rng = Pcg32::new(machine_seed, 0xA11CE);
        let spec = random_spec(&mut rng);
        probes += conform(&spec, machine_seed.wrapping_mul(0x9E37_79B9) + 1, 160);
    }
    assert!(
        probes >= 10_000,
        "only {probes} probes — weaken the suite and it stops being a backbone"
    );
}

#[test]
fn fleet_of_64_machines_agrees_across_all_three_checkers() {
    // The mass differential: 64 structurally-diverse synthetic machines
    // from the seeded fleet generator, ≥ 1k issue probes each.  Unlike
    // `random_spec` these cover interchangeable-unit groups, multi-cycle
    // staging options, AND/OR classes across disjoint groups, and
    // load/store/branch flags — the full shape range the bundled
    // machines span, at fleet scale.
    for (index, machine) in mdes_workload::fleet(0xF1EE7, 64).into_iter().enumerate() {
        let probes = conform(&machine.spec, 0x9E37 + index as u64, 1500);
        assert!(
            probes >= 1_000,
            "{}: only {probes} probes — the mass differential lost its mass",
            machine.name
        );
    }
}

#[test]
fn bundled_machines_agree_across_all_three_checkers() {
    for (_, spec) in mdes_machines::bundled() {
        conform(&spec, 41, 400);
        let mut optimized = spec.clone();
        mdes_opt::optimize(&mut optimized, &mdes_opt::PipelineConfig::full());
        conform(&optimized, 43, 400);
    }
}

#[test]
fn engine_batches_agree_with_serial_scheduling_on_random_machines() {
    // The engine is only a job pump: on random machines its batches must
    // reproduce the serial scheduler exactly, with the shared Arc'd
    // description served concurrently.
    for machine_seed in [3u64, 17, 59] {
        let mut rng = Pcg32::new(machine_seed, 0xBA7C4);
        let spec = random_spec(&mut rng);
        let compiled = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
        let config = mdes_workload::RegionConfig::new(48).with_seed(machine_seed);
        let workload = mdes_workload::generate_compiled_regions(&compiled, &config);

        let outcome = Engine::new(Arc::clone(&compiled)).schedule_batch(&workload.blocks, 4);
        assert!(outcome.is_clean());

        let scheduler = ListScheduler::new(&compiled);
        let mut serial_stats = CheckStats::new();
        for (block, got) in workload.blocks.iter().zip(&outcome.schedules) {
            let want = scheduler.schedule(block, &mut serial_stats);
            assert_eq!(got.as_ref().unwrap(), &want);
        }
        assert_eq!(outcome.stats, serial_stats);
    }
}

#[test]
fn engine_batches_agree_with_serial_scheduling_on_bundled_machines() {
    // Same contract on every bundled description: the concurrent engine
    // must be byte-identical to the serial scheduler, regardless of MDES
    // shape (rigid early machines through flexible late ones).
    for (i, (_, spec)) in mdes_machines::bundled().into_iter().enumerate() {
        let compiled = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
        let config = mdes_workload::RegionConfig::new(24).with_seed(0x5EED + i as u64);
        let workload = mdes_workload::generate_compiled_regions(&compiled, &config);

        let outcome = Engine::new(Arc::clone(&compiled)).schedule_batch(&workload.blocks, 4);
        assert!(outcome.is_clean());

        let scheduler = ListScheduler::new(&compiled);
        let mut serial_stats = CheckStats::new();
        for (block, got) in workload.blocks.iter().zip(&outcome.schedules) {
            let want = scheduler.schedule(block, &mut serial_stats);
            assert_eq!(got.as_ref().unwrap(), &want, "machine {i}");
        }
        assert_eq!(outcome.stats, serial_stats, "machine {i}");
    }
}
