//! Region streams for the concurrent scheduling engine.
//!
//! A *region* is one independently schedulable basic block — the unit of
//! work `mdes-engine` drains from its queue. Unlike [`crate::generate`],
//! which derives every block from one sequential RNG walk, each region
//! here is generated from its own RNG stream seeded by `(seed, index)`.
//! That makes region *i* a pure function of the configuration and its
//! index: regions can be produced in any order (or in parallel) and the
//! stream is identical, which is what the engine's determinism tests
//! lean on.

use mdes_core::rng::Pcg32;
use mdes_core::{ClassId, CompiledMdes};
use mdes_sched::Block;

use crate::generate::{BodyClass, OperandShape, Operands, Workload, WorkloadConfig};

/// Parameters of a synthetic region stream.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RegionConfig {
    /// Number of regions (blocks) to generate.
    pub regions: usize,
    /// Mean body operations per region; actual lengths are uniform in
    /// `[1, 2*mean_ops - 1]`.
    pub mean_ops: usize,
    /// Base seed; region `i` draws from the stream `(seed, i)`.
    pub seed: u64,
    /// Operand-shape parameters shared with the sequential generator.
    pub shape: WorkloadConfig,
}

impl RegionConfig {
    /// A default stream of `regions` regions: 16 body ops on average,
    /// with the machine-independent uniform operand shape.
    pub fn new(regions: usize) -> RegionConfig {
        RegionConfig {
            regions: regions.max(1),
            mean_ops: 16,
            seed: 0xC1D7A5,
            shape: crate::generate::uniform_config(1),
        }
    }

    /// Overrides the mean region size.
    pub fn with_mean_ops(mut self, mean_ops: usize) -> RegionConfig {
        self.mean_ops = mean_ops.max(1);
        self
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, seed: u64) -> RegionConfig {
        self.seed = seed;
        self
    }

    /// Oracle-sized regions: mean 8 body ops, so a region never exceeds
    /// 15 body operations plus one terminator — exactly the ≤ 16-op
    /// ceiling the exact scheduler (`mdes-oracle`) searches to proven
    /// optimality.
    pub fn small(regions: usize) -> RegionConfig {
        RegionConfig::new(regions).with_mean_ops(8)
    }
}

/// Generates a region stream for a compiled description: every region
/// of [`RegionGenerator`], each in a block of its own.
///
/// # Panics
///
/// Panics if the description has no schedulable non-branch classes.
pub fn generate_compiled_regions(mdes: &CompiledMdes, config: &RegionConfig) -> Workload {
    let generator = RegionGenerator::new(mdes, config);
    let blocks: Vec<Block> = (0..config.regions)
        .map(|index| {
            let mut block = Block::new();
            generator.fill(index, &mut block);
            block
        })
        .collect();
    let total_ops = blocks.iter().map(Block::len).sum();
    Workload { blocks, total_ops }
}

/// A region stream over a compiled description, one region at a time: a
/// uniform class mix over the non-branch classes, one branch-flagged
/// terminator per region when the description has any.
///
/// Classes are partitioned by the compiled branch/store flags, which
/// round-trip through an LMDES image unchanged, so a daemon serving a
/// loaded image and a client holding the same description derive
/// byte-identical workloads: the region at index `i` is a pure function
/// of `(config, i, class flags)` and nothing else, and can be generated
/// in any order into any block.  The generator copies what it needs of
/// the description, so it does not borrow it.
#[derive(Clone, Debug)]
pub struct RegionGenerator {
    config: RegionConfig,
    shape: OperandShape,
    /// The non-branch classes, in class order.
    body: Vec<BodyClass>,
    ends: Vec<ClassId>,
}

impl RegionGenerator {
    /// Creates the generator of `config`'s stream over `mdes`.
    ///
    /// # Panics
    ///
    /// Panics if the description has no schedulable non-branch classes,
    /// or if `config.shape.registers` is zero.
    pub fn new(mdes: &CompiledMdes, config: &RegionConfig) -> RegionGenerator {
        let mut body: Vec<BodyClass> = Vec::new();
        let mut ends: Vec<ClassId> = Vec::new();
        for (index, class) in mdes.classes().iter().enumerate() {
            let id = ClassId::from_index(index);
            if class.flags.branch {
                ends.push(id);
            } else {
                body.push(BodyClass::new(id, class.flags));
            }
        }
        assert!(
            !body.is_empty(),
            "description has no schedulable non-branch classes"
        );
        RegionGenerator {
            config: *config,
            shape: OperandShape::new(&config.shape),
            body,
            ends,
        }
    }

    /// The most operations one region holds: `2 * mean_ops - 1` body
    /// operations, plus the terminator.
    pub fn max_ops(&self) -> usize {
        (2 * self.config.mean_ops - 1).max(1) + usize::from(!self.ends.is_empty())
    }

    /// Replaces `block`'s operations with the region at `index`.  The
    /// block is sized before the first push, so a region costs at most
    /// one allocation, and none once `block` has room for it.
    pub fn fill(&self, index: usize, block: &mut Block) {
        let mut rng = Pcg32::new(self.config.seed, (index as u64).wrapping_add(1));
        let span = (2 * self.config.mean_ops - 1).max(1) as u32;
        let body_len = 1 + rng.gen_range(span) as usize;

        block.ops.clear();
        block
            .ops
            .reserve_exact(body_len + usize::from(!self.ends.is_empty()));
        let mut operands = Operands::new(self.shape);
        for _ in 0..body_len {
            let class = self.body[rng.gen_range(self.body.len() as u32) as usize];
            block.push(operands.op(&mut rng, class.id(), 2, class.dests()));
        }
        if !self.ends.is_empty() {
            let class = self.ends[rng.gen_range(self.ends.len() as u32) as usize];
            block.push(operands.op(&mut rng, class, 1, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::UsageEncoding;
    use mdes_machines::Machine;

    fn compiled(machine: Machine) -> CompiledMdes {
        CompiledMdes::compile(&machine.spec(), UsageEncoding::BitVector).unwrap()
    }

    #[test]
    fn region_streams_are_deterministic() {
        let mdes = compiled(Machine::Pa7100);
        let config = RegionConfig::new(64).with_seed(9);
        assert_eq!(
            generate_compiled_regions(&mdes, &config),
            generate_compiled_regions(&mdes, &config)
        );
        assert_ne!(
            generate_compiled_regions(&mdes, &config),
            generate_compiled_regions(&mdes, &config.with_seed(10))
        );
    }

    #[test]
    fn each_region_is_independent_of_the_stream_length() {
        // Region i must not depend on how many regions surround it:
        // a longer stream starts with the shorter one.
        let mdes = compiled(Machine::SuperSparc);
        let short = generate_compiled_regions(&mdes, &RegionConfig::new(16));
        let long = generate_compiled_regions(&mdes, &RegionConfig::new(48));
        assert_eq!(short.blocks[..], long.blocks[..16]);
    }

    #[test]
    fn one_reused_block_takes_every_region_in_any_order() {
        let mdes = compiled(Machine::Pentium);
        let config = RegionConfig::new(24).with_mean_ops(12).with_seed(3);
        let stream = generate_compiled_regions(&mdes, &config);
        let generator = RegionGenerator::new(&mdes, &config);
        let mut block = Block::with_capacity(generator.max_ops());
        for index in (0..24).rev() {
            generator.fill(index, &mut block);
            assert_eq!(block, stream.blocks[index], "region {index}");
            assert_eq!(block.ops.capacity(), generator.max_ops());
        }
    }

    #[test]
    fn regions_respect_size_and_terminator_shape() {
        let mdes = compiled(Machine::K5);
        let config = RegionConfig::new(128).with_mean_ops(6);
        let workload = generate_compiled_regions(&mdes, &config);
        assert_eq!(workload.blocks.len(), 128);
        for block in &workload.blocks {
            assert!(block.len() >= 2 && block.len() <= 2 * 6 + 1);
            let last = block.ops.last().unwrap();
            assert!(mdes.class(last.class).flags.branch);
        }
        let mean = workload.total_ops as f64 / workload.blocks.len() as f64;
        assert!((3.0..12.0).contains(&mean), "mean region size {mean}");
    }
}
