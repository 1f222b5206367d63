//! Allocation gates for the workload generators.
//!
//! The workspace's counting global allocator
//! (`mdes_telemetry::alloc`) tallies heap allocations per thread, so
//! tests running in parallel do not see each other's traffic.  The
//! gates: a generated region costs one allocation
//! (its block, sized before the first push), and every generated block
//! holds exactly as many operations as it has room for.

use mdes_core::{CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_telemetry::alloc::{tally, CountingAlloc};
use mdes_workload::{
    generate, generate_compiled_regions, generate_uniform, uniform_config, RegionConfig, Workload,
    WorkloadConfig,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let (tally, out) = tally(f);
    (tally.allocations, out)
}

/// Allocations a region stream may make besides its regions: the class
/// partition and the outer block vector, however many regions there are.
const PER_STREAM: u64 = 16;

fn assert_exact_blocks(workload: &Workload, what: &str) {
    assert!(!workload.blocks.is_empty(), "{what}");
    for (i, block) in workload.blocks.iter().enumerate() {
        assert_eq!(block.ops.capacity(), block.len(), "{what}: block {i}");
    }
}

#[test]
fn a_region_costs_one_allocation() {
    for machine in Machine::all() {
        let spec = machine.spec();
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        for regions in [64, 512] {
            let config = RegionConfig::new(regions).with_seed(regions as u64);
            let limit = regions as u64 + PER_STREAM;
            let (compiled, workload) = allocations_in(|| generate_compiled_regions(&mdes, &config));
            assert!(
                compiled <= limit,
                "{machine:?}: {compiled} allocations for {regions} compiled regions"
            );
            assert_exact_blocks(&workload, machine.name());
        }
    }
}

#[test]
fn sequential_streams_build_blocks_at_their_exact_length() {
    for machine in Machine::all() {
        let spec = machine.spec();
        let config = WorkloadConfig::paper_default(machine).with_total_ops(2_000);
        assert_exact_blocks(&generate(machine, &spec, &config), machine.name());
        assert_exact_blocks(
            &generate_uniform(&spec, &uniform_config(2_000)),
            machine.name(),
        );
    }
}
