//! Backward list scheduling across the bundled machines: valid schedules
//! under both MDES tunings, and the tunings never change *which*
//! schedules are legal (only how cheaply conflicts are detected).

mod common;

use common::{arb_block_plan, arb_spec_plan, build_block, build_spec};
use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::machines::Machine;
use mdes::opt::pipeline::PipelineConfig;
use mdes::opt::timeshift::Direction;
use mdes::sched::{DepGraph, ListScheduler};
use mdes::workload::{generate, WorkloadConfig};
use proptest::prelude::*;

fn tuned(machine: Machine, direction: Direction) -> CompiledMdes {
    let mut spec = machine.spec();
    mdes::opt::optimize(
        &mut spec,
        &PipelineConfig {
            direction,
            ..PipelineConfig::full()
        },
    );
    CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
}

#[test]
fn backward_schedules_are_valid_on_every_machine() {
    for machine in Machine::all() {
        let spec = machine.spec();
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let workload = generate(
            machine,
            &spec,
            &WorkloadConfig::paper_default(machine).with_total_ops(1_000),
        );
        let scheduler = ListScheduler::new(&mdes);
        let mut stats = CheckStats::new();
        for block in &workload.blocks {
            let schedule = scheduler.schedule_backward(block, &mut stats);
            let graph = DepGraph::build(block, &mdes);
            schedule
                .verify(&graph, &mdes)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name()));
        }
    }
}

#[test]
fn tuning_direction_never_changes_backward_schedules() {
    for machine in [Machine::SuperSparc, Machine::Pentium] {
        let forward = tuned(machine, Direction::Forward);
        let backward = tuned(machine, Direction::Backward);
        let workload = generate(
            machine,
            &machine.spec(),
            &WorkloadConfig::paper_default(machine).with_total_ops(800),
        );
        let mut stats_f = CheckStats::new();
        let mut stats_b = CheckStats::new();
        for block in &workload.blocks {
            let a = ListScheduler::new(&forward).schedule_backward(block, &mut stats_f);
            let b = ListScheduler::new(&backward).schedule_backward(block, &mut stats_b);
            assert_eq!(a.cycles(), b.cycles(), "{}", machine.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The critical-path priority yields a valid schedule on random
    /// machines and blocks.
    #[test]
    fn every_priority_produces_valid_schedules(
        plan in arb_spec_plan(),
        block_seed in arb_block_plan(8),
    ) {
        let spec = build_spec(&plan);
        let block_plan: Vec<_> = block_seed
            .into_iter()
            .map(|(c, d, s1, s2)| (c % plan.classes.len(), d, s1, s2))
            .collect();
        let block = build_block(&block_plan);
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let graph = DepGraph::build(&block, &compiled);

        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&compiled).schedule(&block, &mut stats);
        prop_assert!(schedule.verify(&graph, &compiled).is_ok());
    }
}
