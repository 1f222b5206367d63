//! The synthetic workload generator.
//!
//! Emits a stream of basic blocks whose class mix matches the calibrated
//! per-machine distributions of [`crate::mix`].  Each block ends in a
//! (bundled) branch; body operations draw sources preferentially from
//! recently defined registers so realistic flow-dependence chains form,
//! and the register-pool size models the prepass (many virtual registers)
//! vs. postpass (few architectural registers) distinction the paper makes
//! for the x86 machines (Section 4).

use mdes_core::rng::Pcg32;
use mdes_core::{ClassId, MdesSpec, OpFlags};
use mdes_machines::Machine;
use mdes_sched::{Block, Op, Reg};

use crate::mix::{body_mix, end_mix, OpTemplate};

/// Generator parameters.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Total operations to generate (the paper schedules 201k–282k static
    /// ops per platform; the default experiment size is smaller but
    /// statistically equivalent).
    pub total_ops: usize,
    /// PRNG seed; the same seed always yields the same stream.
    pub seed: u64,
    /// Register-pool size (small = postpass-like pressure).
    pub registers: u32,
    /// Probability that a source operand reuses a recently defined
    /// register (creates flow-dependence chains).
    pub dependence_density: f64,
    /// Probability that a source operand is an immediate or memory
    /// operand carrying no register dependence (high for x86, where many
    /// operations take memory operands).
    pub free_operand_fraction: f64,
    /// Block-length multiplier modeling the compiler's ILP-optimization
    /// level (1.0 = the calibrated SPEC CINT92 mix; superblock/hyperblock
    /// formation and inlining produce proportionally longer blocks).
    pub ilp_scale: f64,
}

impl WorkloadConfig {
    /// The default experiment configuration for `machine`: prepass-style
    /// for the RISC machines, postpass-style (8 architectural registers)
    /// for the x86 machines, matching the paper's setup.
    pub fn paper_default(machine: Machine) -> WorkloadConfig {
        // Per-machine operand-shape calibration: chosen so the measured
        // scheduling-attempt rates land near the paper's Table 5 column
        // (PA7100 1.97, Pentium 1.47, SuperSPARC 2.05, K5 1.65).
        let (registers, dependence_density, free_operand_fraction, ilp_scale) = match machine {
            Machine::Pentium => (8, 0.45, 0.35, 1.0),
            Machine::K5 => (8, 0.15, 0.75, 1.0),
            Machine::Pa7100 => (32, 0.20, 0.25, 1.0),
            Machine::SuperSparc => (32, 0.20, 0.20, 1.0),
        };
        WorkloadConfig {
            total_ops: 40_000,
            seed: 0xC1D7A5,
            registers,
            dependence_density,
            free_operand_fraction,
            ilp_scale,
        }
    }

    /// Scales mean block length (ILP-optimization level).
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    pub fn with_ilp_scale(mut self, scale: f64) -> WorkloadConfig {
        assert!(
            scale.is_finite() && scale > 0.0,
            "ilp_scale must be positive"
        );
        self.ilp_scale = scale;
        self
    }

    /// Scales the stream length (for quick tests and benches).
    pub fn with_total_ops(mut self, total_ops: usize) -> WorkloadConfig {
        self.total_ops = total_ops.max(1);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> WorkloadConfig {
        self.seed = seed;
        self
    }
}

/// A generated workload: blocks plus bookkeeping for reporting.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// The basic blocks, each ending in a branch-class operation.
    pub blocks: Vec<Block>,
    /// Total operations across blocks.
    pub total_ops: usize,
}

impl Workload {
    /// Count of operations per class id.
    pub fn class_histogram(&self, spec: &MdesSpec) -> Vec<(String, usize)> {
        let mut counts = vec![0usize; spec.num_classes()];
        for block in &self.blocks {
            for op in &block.ops {
                counts[op.class.index()] += 1;
            }
        }
        spec.class_ids()
            .map(|id| (spec.class(id).name.clone(), counts[id.index()]))
            .collect()
    }
}

/// Generates the synthetic stream for `machine`.
///
/// # Panics
///
/// Panics if a mix template names a class missing from `spec` — the mixes
/// and machine descriptions ship together and are covered by tests — or
/// if `config.registers` is zero.
pub fn generate(machine: Machine, spec: &MdesSpec, config: &WorkloadConfig) -> Workload {
    let resolve = |template: &OpTemplate| -> (ClassId, usize, usize) {
        let id = spec
            .class_by_name(template.class)
            .unwrap_or_else(|| panic!("mix references unknown class `{}`", template.class));
        (id, template.srcs, template.dests)
    };
    let body: Vec<(ClassId, usize, usize)> = body_mix(machine).iter().map(resolve).collect();
    let body_weights: Vec<f64> = body_mix(machine).iter().map(|t| t.weight).collect();
    let ends: Vec<(ClassId, usize, usize)> = end_mix(machine).iter().map(resolve).collect();
    let end_weights: Vec<f64> = end_mix(machine).iter().map(|t| t.weight).collect();

    // Each table is summed once for the whole stream.  Mean body length
    // so branches hit their share of the stream:
    // branch_fraction = 1 / (body_len + 1).
    let body_weight: f64 = body_weights.iter().sum();
    let branch_weight: f64 = end_weights.iter().sum();
    let total_weight = branch_weight + body_weight;
    let mean_body_len = ((total_weight / branch_weight - 1.0) * config.ilp_scale).max(1.0);

    let mut operands = Operands::new(OperandShape::new(config));
    let mut rng = Pcg32::new(config.seed, machine as u64 + 1);
    let mut blocks = Vec::new();
    let mut emitted = 0usize;

    while emitted < config.total_ops {
        // Block length: uniform in [1, 2*mean-1], mean = mean_body_len.
        let span = (2.0 * mean_body_len - 1.0).max(1.0) as u32;
        let body_len = 1 + rng.gen_range(span) as usize;

        let mut block = Block::with_capacity(body_len + 1);
        operands.start_block();
        for _ in 0..body_len {
            let pick = rng.pick_weighted(&body_weights, body_weight);
            let (class, srcs, dests) = body[pick];
            block.push(operands.op(&mut rng, class, srcs, dests));
        }
        // Terminator.
        let pick = rng.pick_weighted(&end_weights, branch_weight);
        let (class, srcs, dests) = ends[pick];
        block.push(operands.op(&mut rng, class, srcs, dests));

        emitted += block.len();
        blocks.push(block);
    }

    Workload {
        blocks,
        total_ops: emitted,
    }
}

/// Converts a workload into software-pipelinable loop bodies: each block
/// loses its trailing branch (a pipelined loop supplies its own back
/// edge) and gains a simple induction recurrence — the last remaining
/// operation feeds the first at distance 1.  Blocks that would become
/// empty are dropped.
///
/// Used by the modulo-scheduling experiments and tests.
pub fn as_loop_bodies(workload: &Workload) -> Vec<mdes_sched::LoopBlock> {
    workload
        .blocks
        .iter()
        .filter_map(|block| {
            let mut body = block.clone();
            body.ops.pop();
            if body.ops.is_empty() {
                return None;
            }
            let carried = vec![(body.ops.len() - 1, 0, 1, 1)];
            Some(mdes_sched::LoopBlock { body, carried })
        })
        .collect()
}

/// Generates a stream for an *arbitrary* spec with a uniform class mix:
/// every non-branch class equally likely in block bodies, every
/// branch-flagged class equally likely as terminator (or none, if the
/// spec has no branch classes).  Operand shapes default to two sources
/// and one destination (none for stores/branches).
///
/// This is the generic fallback `mdesc schedule` uses for user-supplied
/// descriptions; the calibrated per-machine mixes remain the right tool
/// for the paper's experiments.
///
/// # Panics
///
/// Panics if the spec has no non-branch class, or if `config.registers`
/// is zero.
pub fn generate_uniform(spec: &MdesSpec, config: &WorkloadConfig) -> Workload {
    let mut body: Vec<BodyClass> = Vec::new();
    let mut ends: Vec<ClassId> = Vec::new();
    for id in spec.class_ids() {
        let flags = spec.class(id).flags;
        if flags.branch {
            ends.push(id);
        } else {
            body.push(BodyClass::new(id, flags));
        }
    }
    assert!(
        !body.is_empty(),
        "spec has no schedulable non-branch classes"
    );

    let mut operands = Operands::new(OperandShape::new(config));
    let mut rng = Pcg32::new(config.seed, 0xD1F0);
    let mut blocks = Vec::new();
    let mut emitted = 0usize;
    while emitted < config.total_ops {
        let body_len = 3 + rng.gen_range(10) as usize;
        let mut block = Block::with_capacity(body_len + usize::from(!ends.is_empty()));
        operands.start_block();
        for _ in 0..body_len {
            let class = body[rng.gen_range(body.len() as u32) as usize];
            block.push(operands.op(&mut rng, class.id(), 2, class.dests()));
        }
        if !ends.is_empty() {
            let class = ends[rng.gen_range(ends.len() as u32) as usize];
            block.push(operands.op(&mut rng, class, 1, 0));
        }
        emitted += block.len();
        blocks.push(block);
    }
    Workload {
        blocks,
        total_ops: emitted,
    }
}

/// A machine-independent default configuration for [`generate_uniform`].
pub fn uniform_config(total_ops: usize) -> WorkloadConfig {
    WorkloadConfig {
        total_ops: total_ops.max(1),
        seed: 0xC1D7A5,
        registers: 16,
        dependence_density: 0.30,
        free_operand_fraction: 0.25,
        ilp_scale: 1.0,
    }
}

/// A body class of the uniform mixes, with the destination count its
/// operations take: one, or none for a store.  One word holds both (the
/// class index over a low "writes" bit), so a class table is as large as
/// a list of class ids and nothing is looked up per operation.
#[derive(Copy, Clone, Debug)]
pub(crate) struct BodyClass(u32);

impl BodyClass {
    pub(crate) fn new(id: ClassId, flags: OpFlags) -> BodyClass {
        BodyClass((id.index() as u32) << 1 | u32::from(!flags.store))
    }

    pub(crate) fn id(self) -> ClassId {
        ClassId::from_index((self.0 >> 1) as usize)
    }

    pub(crate) fn dests(self) -> usize {
        (self.0 & 1) as usize
    }
}

/// A configuration's operand shape, with its two probabilities turned
/// into cuts on the raw draw: `gen_f64() < p` exactly when `next_u32()`
/// is below [`unit_cut`]`(p)`.  An operand then costs one integer
/// compare instead of two `f64` divisions, and streams are unchanged.
#[derive(Copy, Clone, Debug)]
pub(crate) struct OperandShape {
    registers: u32,
    /// A draw below this reuses a recent destination (when there is one).
    dependent: u64,
    /// Otherwise a draw below this is a free (immediate/memory) operand.
    free: u64,
}

impl OperandShape {
    /// # Panics
    ///
    /// Panics if `config.registers` is zero.
    pub(crate) fn new(config: &WorkloadConfig) -> OperandShape {
        assert!(config.registers > 0, "the register pool is empty");
        OperandShape {
            registers: config.registers,
            dependent: unit_cut(config.dependence_density),
            free: unit_cut(config.dependence_density + config.free_operand_fraction),
        }
    }
}

/// The least raw draw `x` with `Pcg32::unit_f64(x) >= p`, or `2^32` when
/// there is none.  The map is monotone, so `unit_f64(x) < p` exactly when
/// `x < unit_cut(p)`.
fn unit_cut(p: f64) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // `mid < hi <= 2^32`, so the cast is exact.
        if Pcg32::unit_f64(mid as u32) < p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The operand path every generator shares: a stream's operand shape,
/// its destination-register counter, and the current block's pool of
/// recent destinations, which sources draw flow dependences from.
///
/// A generator keeps one by value and calls [`Operands::op`], which is
/// inlined into its loop, so the pool, its length and the counter live
/// in the generator's locals; an operation costs its random draws and a
/// few register moves.
#[derive(Clone, Debug)]
pub(crate) struct Operands {
    shape: OperandShape,
    /// The latest destinations in a ring of [`Operands::RING`] slots,
    /// the newest in slot `written - 1`; the newest `len` of them are
    /// the pool.
    ring: [Reg; Operands::RING],
    /// Destinations written so far, wrapping: only its slot bits matter.
    written: usize,
    /// How many destinations the pool holds: at most [`Operands::DEPTH`].
    len: usize,
    /// The next destination register: destinations written so far,
    /// counted modulo `shape.registers`.
    counter: u32,
}

impl Operands {
    /// How many of the latest destinations stay eligible.
    const DEPTH: usize = 6;
    /// Ring slots: a power of two above [`Operands::DEPTH`], so a slot is
    /// a mask of the write count.
    const RING: usize = 8;

    /// A stream's operand path: no destination written yet.
    pub(crate) fn new(shape: OperandShape) -> Operands {
        Operands {
            shape,
            ring: [Reg(0); Operands::RING],
            written: 0,
            len: 0,
            counter: 0,
        }
    }

    /// Starts a block: its sources draw only on its own destinations.
    /// The register counter runs on.
    #[inline(always)]
    pub(crate) fn start_block(&mut self) {
        self.len = 0;
    }

    /// Draws one operation with `srcs` sources and `dests` destinations:
    /// the sources first, then the destinations, which join the pool.
    ///
    /// Each part lands in an array of its own, and the operand array is
    /// picked from the two slot by slot.  Writing the sources straight
    /// after the destinations would index one array by `dests`, which a
    /// region only knows at run time, and put the operation through
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if `srcs + dests` exceeds [`Op::MAX_OPERANDS`]; every mix
    /// template and region shape stays within it.
    #[inline(always)]
    pub(crate) fn op(&mut self, rng: &mut Pcg32, class: ClassId, srcs: usize, dests: usize) -> Op {
        assert!(
            srcs + dests <= Op::MAX_OPERANDS,
            "operation shape {dests} dest(s) + {srcs} src(s) exceeds {} operands",
            Op::MAX_OPERANDS
        );
        let mut sources = [Reg(0); Op::MAX_OPERANDS];
        for source in &mut sources[..srcs] {
            *source = self.source(rng);
        }
        let mut targets = [Reg(0); Op::MAX_OPERANDS];
        for target in &mut targets[..dests] {
            *target = self.write();
        }
        // Destinations first, as `Op` stores them.
        let regs = std::array::from_fn(|k| {
            if k < dests {
                targets[k]
            } else {
                sources[k - dests]
            }
        });
        Op::from_operands(class, regs, dests, srcs)
    }

    /// Draws one source: a roll, then one draw for its register.  Below
    /// the dependence cut, when the pool holds a destination, the draw
    /// picks one of them; below the free cut it names a free operand;
    /// otherwise a pool register.
    #[inline(always)]
    fn source(&self, rng: &mut Pcg32) -> Reg {
        let shape = self.shape;
        let roll = u64::from(rng.next_u32());
        if self.len > 0 && roll < shape.dependent {
            self.recent(rng.gen_range(self.len as u32) as usize)
        } else if roll < shape.free {
            // Immediate / memory operand: a fresh register id above the
            // pool that no operation ever writes, hence no dependence.
            Reg(shape.registers + rng.gen_range(1 << 16))
        } else {
            Reg(rng.gen_range(shape.registers))
        }
    }

    /// The pool's `i`th oldest destination, for `i < len`.
    #[inline(always)]
    fn recent(&self, i: usize) -> Reg {
        let oldest = self.written.wrapping_sub(self.len);
        self.ring[oldest.wrapping_add(i) % Operands::RING]
    }

    /// Writes the next destination register and adds it to the pool.
    #[inline(always)]
    fn write(&mut self) -> Reg {
        let reg = Reg(self.counter);
        self.counter += 1;
        if self.counter == self.shape.registers {
            self.counter = 0;
        }
        self.ring[self.written % Operands::RING] = reg;
        self.written = self.written.wrapping_add(1);
        self.len = (self.len + 1).min(Operands::DEPTH);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let machine = Machine::SuperSparc;
        let spec = machine.spec();
        let config = WorkloadConfig::paper_default(machine).with_total_ops(2_000);
        let a = generate(machine, &spec, &config);
        let b = generate(machine, &spec, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let machine = Machine::SuperSparc;
        let spec = machine.spec();
        let config = WorkloadConfig::paper_default(machine).with_total_ops(2_000);
        let a = generate(machine, &spec, &config);
        let b = generate(machine, &spec, &config.with_seed(1));
        assert_ne!(a, b);
    }

    #[test]
    fn every_block_ends_with_a_branch_class() {
        for machine in Machine::all() {
            let spec = machine.spec();
            let config = WorkloadConfig::paper_default(machine).with_total_ops(1_000);
            let workload = generate(machine, &spec, &config);
            for block in &workload.blocks {
                let last = block.ops.last().unwrap();
                assert!(spec.class(last.class).flags.branch);
                // And only the last op is a branch.
                for op in &block.ops[..block.len() - 1] {
                    assert!(!spec.class(op.class).flags.branch);
                }
            }
        }
    }

    #[test]
    fn class_frequencies_track_the_paper_mix() {
        let machine = Machine::SuperSparc;
        let spec = machine.spec();
        let config = WorkloadConfig::paper_default(machine).with_total_ops(40_000);
        let workload = generate(machine, &spec, &config);
        let histogram = workload.class_histogram(&spec);
        let total = workload.total_ops as f64;
        let pct = |name: &str| -> f64 {
            histogram
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c as f64 / total * 100.0)
                .unwrap()
        };
        // Targets from Table 1, tolerance ±3 percentage points (the
        // branch share additionally depends on block-length rounding).
        assert!(
            (pct("ialu_1src") - 40.0).abs() < 3.0,
            "{}",
            pct("ialu_1src")
        );
        assert!(
            (pct("ialu_move") - 10.29).abs() < 2.0,
            "{}",
            pct("ialu_move")
        );
        assert!((pct("load") - 14.37).abs() < 3.0, "{}", pct("load"));
        assert!((pct("branch") - 13.0).abs() < 3.5, "{}", pct("branch"));
        assert!(pct("fp_op") < 2.0);
    }

    #[test]
    fn total_ops_is_at_least_requested() {
        let machine = Machine::K5;
        let spec = machine.spec();
        let config = WorkloadConfig::paper_default(machine).with_total_ops(500);
        let workload = generate(machine, &spec, &config);
        assert!(workload.total_ops >= 500);
        assert_eq!(
            workload.total_ops,
            workload.blocks.iter().map(Block::len).sum::<usize>()
        );
    }

    #[test]
    fn postpass_machines_use_small_register_pools() {
        assert_eq!(WorkloadConfig::paper_default(Machine::K5).registers, 8);
        assert_eq!(WorkloadConfig::paper_default(Machine::Pentium).registers, 8);
        assert_eq!(
            WorkloadConfig::paper_default(Machine::SuperSparc).registers,
            32
        );
    }

    #[test]
    fn loop_bodies_drop_branches_and_carry_a_recurrence() {
        let machine = Machine::SuperSparc;
        let spec = machine.spec();
        let workload = generate(
            machine,
            &spec,
            &WorkloadConfig::paper_default(machine).with_total_ops(600),
        );
        let loops = as_loop_bodies(&workload);
        assert!(!loops.is_empty());
        for looped in &loops {
            for op in &looped.body.ops {
                assert!(!spec.class(op.class).flags.branch);
            }
            assert_eq!(looped.carried.len(), 1);
            let (from, to, _, distance) = looped.carried[0];
            assert_eq!(to, 0);
            assert_eq!(from, looped.body.len() - 1);
            assert_eq!(distance, 1);
        }
    }

    #[test]
    fn ilp_scale_lengthens_blocks() {
        let machine = Machine::SuperSparc;
        let spec = machine.spec();
        let base = generate(
            machine,
            &spec,
            &WorkloadConfig::paper_default(machine).with_total_ops(4_000),
        );
        let scaled = generate(
            machine,
            &spec,
            &WorkloadConfig::paper_default(machine)
                .with_total_ops(4_000)
                .with_ilp_scale(3.0),
        );
        let mean = |w: &Workload| w.total_ops as f64 / w.blocks.len() as f64;
        assert!(mean(&scaled) > mean(&base) * 2.0);
    }

    #[test]
    fn uniform_generator_works_on_arbitrary_specs() {
        let spec = mdes_machines::Machine::Pa7100.spec();
        let workload = generate_uniform(&spec, &uniform_config(500));
        assert!(workload.total_ops >= 500);
        // Uniform mix touches every non-branch class.
        let histogram = workload.class_histogram(&spec);
        for (name, count) in &histogram {
            let id = spec.class_by_name(name).unwrap();
            if !spec.class(id).flags.branch {
                assert!(*count > 0, "class `{name}` never generated");
            }
        }
    }

    #[test]
    fn operand_counts_match_templates() {
        let machine = Machine::Pentium;
        let spec = machine.spec();
        let config = WorkloadConfig::paper_default(machine).with_total_ops(500);
        let workload = generate(machine, &spec, &config);
        for block in &workload.blocks {
            for op in &block.ops {
                let name = &spec.class(op.class).name;
                let template = crate::mix::body_mix(machine)
                    .iter()
                    .chain(crate::mix::end_mix(machine))
                    .find(|t| t.class == *name)
                    .unwrap();
                assert_eq!(op.srcs().len(), template.srcs);
                assert_eq!(op.dests().len(), template.dests);
            }
        }
    }

    /// Each cut is the first raw draw whose float reaches `p`, for every
    /// configured probability, so the integer test takes the float test's
    /// branch on every draw.
    #[test]
    fn operand_cuts_split_the_draws_where_gen_f64_does() {
        let configs = Machine::all()
            .into_iter()
            .map(WorkloadConfig::paper_default)
            .chain([uniform_config(1)]);
        for config in configs {
            let shape = OperandShape::new(&config);
            let d = config.dependence_density;
            let f = config.free_operand_fraction;
            for (cut, p) in [(shape.dependent, d), (shape.free, d + f)] {
                assert!(0 < cut && cut < 1 << 32, "{p}: cut {cut}");
                assert!(Pcg32::unit_f64((cut - 1) as u32) < p, "{p}: cut {cut}");
                assert!(p <= Pcg32::unit_f64(cut as u32), "{p}: cut {cut}");
            }
        }
        assert_eq!(unit_cut(0.0), 0);
        assert_eq!(unit_cut(1.0), 1 << 32);
    }
}
