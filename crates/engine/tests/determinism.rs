//! The engine's determinism contract: worker count must be invisible in
//! the results. Same seed, `--jobs 1` vs `--jobs 8` vs `--jobs 16`
//! produce byte-identical schedules and identical folded `CheckStats`
//! counters, whichever worker claimed which job off the shared cursor.

use std::sync::Arc;

use mdes_core::{CompiledMdes, UsageEncoding};
use mdes_engine::Engine;
use mdes_machines::Machine;
use mdes_workload::{generate_compiled_regions, RegionConfig};

#[test]
fn one_eight_and_sixteen_workers_produce_byte_identical_results() {
    for machine in [Machine::Pa7100, Machine::K5] {
        let mut spec = machine.spec();
        mdes_opt::optimize(&mut spec, &mdes_opt::PipelineConfig::full());
        let compiled = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
        let config = RegionConfig::new(256).with_seed(0xDE7);
        let workload = generate_compiled_regions(&compiled, &config);

        let engine = Engine::new(compiled);
        let one = engine.schedule_batch(&workload.blocks, 1);
        for jobs in [8, 16] {
            let wide = engine.schedule_batch(&workload.blocks, jobs);
            assert!(one.is_clean() && wide.is_clean());
            assert_eq!(wide.workers.len(), jobs, "{}", machine.name());

            // Schedules are structurally equal and byte-identical once
            // rendered; folded counters (including the Figure-2
            // histogram) match exactly.
            assert_eq!(one.schedules, wide.schedules, "{} w{jobs}", machine.name());
            assert_eq!(
                format!("{:?}", one.schedules),
                format!("{:?}", wide.schedules),
                "{} w{jobs}",
                machine.name()
            );
            assert_eq!(one.stats, wide.stats, "{} w{jobs}", machine.name());

            // And re-running the same batch reproduces itself.
            let again = engine.schedule_batch(&workload.blocks, jobs);
            assert_eq!(again.schedules, wide.schedules);
            assert_eq!(again.stats, wide.stats);
        }
    }
}

#[test]
fn a_skewed_workload_keeps_the_fold_at_any_worker_count() {
    // One giant region at the front of a batch of tiny ones: the worker
    // that claims job 0 is stuck scheduling the giant block while the
    // other workers claim and run every tiny job. The batch must still be
    // byte-identical to the single-worker run — the split moves work, not
    // results.
    let machine = Machine::Pa7100;
    let spec = machine.spec();
    let compiled = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());

    let giant = generate_compiled_regions(
        &compiled,
        &RegionConfig::new(1).with_mean_ops(4096).with_seed(77),
    );
    let tiny = generate_compiled_regions(
        &compiled,
        &RegionConfig::new(255).with_mean_ops(4).with_seed(78),
    );
    let mut blocks = giant.blocks;
    blocks.extend(tiny.blocks);

    let engine = Engine::new(compiled);
    let serial = engine.schedule_batch(&blocks, 1);
    assert!(serial.is_clean());

    for jobs in [4, 16] {
        let outcome = engine.schedule_batch(&blocks, jobs);
        assert!(outcome.is_clean(), "{jobs} workers");
        assert_eq!(outcome.schedules, serial.schedules, "{jobs} workers");
        assert_eq!(outcome.stats, serial.stats, "{jobs} workers");
    }
}

#[test]
fn worker_assignment_never_leaks_into_the_fold() {
    // The per-worker splits differ run to run (first-come first-served
    // claims), but their fold is pinned to the jobs-order total.
    let machine = Machine::SuperSparc;
    let spec = machine.spec();
    let compiled = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
    let workload = generate_compiled_regions(&compiled, &RegionConfig::new(128).with_seed(5));
    let engine = Engine::new(compiled);

    let reference = engine.schedule_batch(&workload.blocks, 1).stats;
    for jobs in [2, 3, 5, 8] {
        let outcome = engine.schedule_batch(&workload.blocks, jobs);
        assert_eq!(outcome.stats, reference, "{jobs} workers");
        let mut folded = mdes_core::CheckStats::new();
        for worker in &outcome.workers {
            folded.merge(&worker.stats);
        }
        assert_eq!(folded, reference, "{jobs} workers (per-worker fold)");
    }
}
