//! Every list schedule, pinned operation by operation.  For each
//! operation in block order the digests fold its issue cycle, its attempt
//! count and its selected options, and for each schedule its operation
//! count and length: everything a [`Schedule`] holds.
//!
//! The stream is 256 seeded regions of 16 mean operations on each of the
//! six bundled descriptions, optimized with the full pipeline and
//! compiled bit-vector.  It is scheduled forward and backward by the
//! list scheduler, by `Engine::schedule_batch` at one and two workers,
//! and block by block through `Engine::schedule_block`.  The digests were
//! recorded with the scheduler that kept three buffers per schedule (a
//! placement record per operation, the attempts, and the selections in
//! placement order); a changed cycle, attempt count or selection fails
//! here.  The file lives with the engine's tests because the engine and
//! the workload generator are already among this crate's
//! dev-dependencies; it takes about a second under the dev profile.

use std::sync::Arc;

use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes_engine::{Engine, WorkerScratch};
use mdes_sched::{ListScheduler, Schedule};
use mdes_workload::{generate_compiled_regions, RegionConfig};

/// `(label, FNV-1a digest)` in the order [`digests`] produces them.
const PINNED: &[(&str, u64)] = &[
    ("pa7100/forward", 0xb15804b5bf3bd7ee),
    ("pa7100/backward", 0x0b5102067f3a4032),
    ("pa7100/batch-w1", 0xb15804b5bf3bd7ee),
    ("pa7100/batch-w2", 0xb15804b5bf3bd7ee),
    ("pa7100/block", 0xb15804b5bf3bd7ee),
    ("pentium/forward", 0xe32a067b1f81a492),
    ("pentium/backward", 0xf6af45690b85a0af),
    ("pentium/batch-w1", 0xe32a067b1f81a492),
    ("pentium/batch-w2", 0xe32a067b1f81a492),
    ("pentium/block", 0xe32a067b1f81a492),
    ("supersparc/forward", 0x65c8d3c53dc4302e),
    ("supersparc/backward", 0x4415bf7fac83e6a9),
    ("supersparc/batch-w1", 0x65c8d3c53dc4302e),
    ("supersparc/batch-w2", 0x65c8d3c53dc4302e),
    ("supersparc/block", 0x65c8d3c53dc4302e),
    ("k5/forward", 0x98061049febf1ffa),
    ("k5/backward", 0x89f6b0be21308a61),
    ("k5/batch-w1", 0x98061049febf1ffa),
    ("k5/batch-w2", 0x98061049febf1ffa),
    ("k5/block", 0x98061049febf1ffa),
    ("pentiumpro/forward", 0x3849216fe9863af7),
    ("pentiumpro/backward", 0xce9524f018d36d41),
    ("pentiumpro/batch-w1", 0x3849216fe9863af7),
    ("pentiumpro/batch-w2", 0x3849216fe9863af7),
    ("pentiumpro/block", 0x3849216fe9863af7),
    ("superspark_approx/forward", 0x5769bc0b456f5020),
    ("superspark_approx/backward", 0xe8a1a18b5013b009),
    ("superspark_approx/batch-w1", 0x5769bc0b456f5020),
    ("superspark_approx/batch-w2", 0x5769bc0b456f5020),
    ("superspark_approx/block", 0x5769bc0b456f5020),
];

const REGIONS: usize = 256;
const MEAN_OPS: usize = 16;
const SEED: u64 = 0x0D16;

/// FNV-1a, 64-bit, over little-endian words: stable across toolchains,
/// unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn schedule(&mut self, schedule: &Schedule) {
        self.word(schedule.len() as u64);
        self.word(u64::from(schedule.length as u32));
        for i in 0..schedule.len() {
            self.word(u64::from(schedule.cycle(i) as u32));
            self.word(u64::from(schedule.attempts(i)));
            let selection = schedule.selection(i);
            self.word(selection.len() as u64);
            for &option in selection {
                self.word(u64::from(option));
            }
        }
    }
}

fn digest<'a>(schedules: impl IntoIterator<Item = &'a Schedule>) -> u64 {
    let mut fnv = Fnv::new();
    for schedule in schedules {
        fnv.schedule(schedule);
    }
    fnv.0
}

/// Five digests per bundled description: forward, backward, the batch
/// at one and two workers, and block by block on one worker scratch.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, mut spec) in mdes_machines::bundled() {
        mdes_opt::optimize(&mut spec, &mdes_opt::PipelineConfig::full());
        let mdes = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
        let config = RegionConfig::new(REGIONS)
            .with_mean_ops(MEAN_OPS)
            .with_seed(SEED);
        let blocks = generate_compiled_regions(&mdes, &config).blocks;

        let scheduler = ListScheduler::new(&mdes);
        let mut stats = CheckStats::new();
        let forward: Vec<Schedule> = blocks
            .iter()
            .map(|block| scheduler.schedule(block, &mut stats))
            .collect();
        out.push((format!("{name}/forward"), digest(&forward)));
        let backward: Vec<Schedule> = blocks
            .iter()
            .map(|block| scheduler.schedule_backward(block, &mut stats))
            .collect();
        out.push((format!("{name}/backward"), digest(&backward)));

        let engine = Engine::new(Arc::clone(&mdes));
        for jobs in [1, 2] {
            let outcome = engine.schedule_batch(&blocks, jobs);
            assert!(outcome.is_clean(), "{name} w{jobs}");
            out.push((
                format!("{name}/batch-w{jobs}"),
                digest(outcome.schedules.iter().flatten()),
            ));
        }
        let mut scratch = WorkerScratch::new();
        let mut fnv = Fnv::new();
        for block in &blocks {
            let done = engine
                .schedule_block(block, &mut scratch)
                .expect("no panic");
            fnv.schedule(done.schedule);
        }
        out.push((format!("{name}/block"), fnv.0));
    }
    out
}

#[test]
fn every_schedule_keeps_its_cycles_attempts_and_selections() {
    let got = digests();
    let want: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(label, digest)| (label.to_string(), digest))
        .collect();
    if got != want {
        // Print the whole table, so a deliberate change can be re-pinned.
        for (label, digest) in &got {
            println!("    (\"{label}\", {digest:#018x}),");
        }
    }
    assert_eq!(got, want);
}
