//! Deterministic schedule replay for the differential oracle.
//!
//! The checker-level probes in [`mdes_core::probe`] compare raw
//! reservation outcomes; this module closes the loop at the level the
//! paper actually argues about — *schedules*.  A seeded generator builds
//! synthetic basic blocks over a description's class list, the list
//! scheduler schedules them, and the per-op issue cycles are compared
//! between the pre- and post-stage descriptions.  "The exact same
//! schedule is produced in each case" (Section 4) is checked literally.
//!
//! Block generation depends only on the seed and the class count, which
//! every pipeline stage preserves, so the same blocks replay against both
//! sides of a stage boundary.

use crate::list::ListScheduler;
use crate::operation::{Block, Op, Reg};
use mdes_core::rng::Pcg32;
use mdes_core::spec::ClassId;
use mdes_core::{CheckStats, CompiledMdes};

/// Parameters of the block generator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Master seed; each block derives its own stream.
    pub seed: u64,
    /// Number of blocks to generate.
    pub blocks: u32,
    /// Operations per block.
    pub ops_per_block: u32,
    /// Percent chance (0–100) that an op reads a prior op's result.
    pub dep_percent: u32,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            seed: 0x4d44_4553, // "MDES", matching the probe engine default
            blocks: 8,
            ops_per_block: 16,
            dep_percent: 35,
        }
    }
}

/// Generates the replay blocks for a machine with `num_classes` classes.
///
/// Op `i` writes `Reg(i)`; with probability `dep_percent` it also reads a
/// uniformly chosen earlier op's destination, producing realistic mixes of
/// dependence-bound and resource-bound regions.
pub fn replay_blocks(num_classes: usize, config: &ReplayConfig) -> Vec<Block> {
    if num_classes == 0 {
        return Vec::new();
    }
    let classes = num_classes as u32;
    (0..config.blocks)
        .map(|b| {
            let mut rng = Pcg32::new(config.seed, 0x1000 + u64::from(b));
            (0..config.ops_per_block)
                .map(|i| {
                    let class = ClassId::from_index(rng.gen_range(classes) as usize);
                    if i > 0 && rng.gen_range(100) < config.dep_percent {
                        Op::from_regs(class, &[Reg(i)], &[Reg(rng.gen_range(i))])
                    } else {
                        Op::from_regs(class, &[Reg(i)], &[])
                    }
                })
                .collect::<Block>()
        })
        .collect()
}

/// Schedules every block against `mdes` and returns the issue cycles per
/// op, in block order — the value the differential oracle compares.
pub fn replay_cycles(mdes: &CompiledMdes, blocks: &[Block]) -> Vec<Vec<i32>> {
    let scheduler = ListScheduler::new(mdes);
    blocks
        .iter()
        .map(|block| {
            let mut stats = CheckStats::new();
            scheduler.schedule(block, &mut stats).cycles()
        })
        .collect()
}

/// Replays `blocks` against both descriptions and returns the index of
/// the first block whose schedule differs, with both cycle vectors.
pub fn find_schedule_divergence(
    a: &CompiledMdes,
    b: &CompiledMdes,
    blocks: &[Block],
) -> Option<(usize, Vec<i32>, Vec<i32>)> {
    let ca = replay_cycles(a, blocks);
    let cb = replay_cycles(b, blocks);
    ca.into_iter()
        .zip(cb)
        .enumerate()
        .find(|(_, (x, y))| x != y)
        .map(|(i, (x, y))| (i, x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::UsageEncoding;

    fn compiled(src: &str) -> CompiledMdes {
        let spec = mdes_lang::compile(src).unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    #[test]
    fn block_generation_is_deterministic() {
        let config = ReplayConfig::default();
        let a = replay_blocks(3, &config);
        let b = replay_blocks(3, &config);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ops, y.ops);
        }
    }

    #[test]
    fn identical_descriptions_schedule_identically() {
        let mdes = compiled(
            "resource ALU[2];
             or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
             class alu { constraint = AnyAlu; latency = 1; }",
        );
        let blocks = replay_blocks(mdes.classes().len(), &ReplayConfig::default());
        assert!(find_schedule_divergence(&mdes, &mdes, &blocks).is_none());
    }

    #[test]
    fn narrower_machine_schedules_differently() {
        let wide = compiled(
            "resource ALU[2];
             or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
             class alu { constraint = AnyAlu; latency = 1; }",
        );
        let narrow = compiled(
            "resource ALU[2];
             or_tree AnyAlu = first_of({ ALU[0] @ 0 });
             class alu { constraint = AnyAlu; latency = 1; }",
        );
        let blocks = replay_blocks(wide.classes().len(), &ReplayConfig::default());
        let (block, a, b) = find_schedule_divergence(&wide, &narrow, &blocks)
            .expect("halving issue width must change some schedule");
        assert!(block < blocks.len());
        assert_ne!(a, b);
    }
}
