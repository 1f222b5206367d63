//! Every generated operation, pinned.  For each block the digests fold
//! its operation count, and for each operation its class, its
//! destinations and its sources, so a changed draw, a reordered draw or
//! a source register that creates no dependence fails here (a schedule
//! digest cannot see the last).
//!
//! The streams are the three generators' outputs:
//! - `RegionGenerator` over the four paper machines, 64 regions for each
//!   of three seeds at mean sizes 1, 8, 16 and 40, with the default
//!   uniform operand shape and with each machine's paper shape;
//! - `generate` with each machine's paper configuration, 2,000
//!   operations, at ILP scales 1 and 3;
//! - `generate_uniform` over each machine's classes, with the default
//!   16-register shape and with a 5-register one, smaller than the pool
//!   of recent destinations.
//!
//! The digests were recorded on the generators that shifted the pool of
//! recent destinations on every write and built each operation through
//! `Op::from_regs`.

use mdes_core::{CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_sched::Block;
use mdes_workload::{
    generate, generate_compiled_regions, generate_uniform, uniform_config, RegionConfig,
    WorkloadConfig,
};

/// `(label, FNV-1a digest)` in the order [`digests`] produces them.
const PINNED: &[(&str, u64)] = &[
    ("regions/pa7100/uniform/m1", 0xd77f6cd3b6bab72d),
    ("regions/pa7100/paper/m1", 0xeda585af81067248),
    ("regions/pa7100/uniform/m8", 0x6f5685b444ba32d2),
    ("regions/pa7100/paper/m8", 0x341cffe397d0d74f),
    ("regions/pa7100/uniform/m16", 0x35d16198a957d33a),
    ("regions/pa7100/paper/m16", 0xc686521763b28127),
    ("regions/pa7100/uniform/m40", 0xcc6036ca117bc40a),
    ("regions/pa7100/paper/m40", 0x0acb886f60b83a8b),
    ("generate/pa7100/ilp1", 0x06f8928706212a14),
    ("generate/pa7100/ilp3", 0x3404a559594e3c96),
    ("uniform/pa7100/r16", 0x44fc849a7932a7a4),
    ("uniform/pa7100/r5", 0x8ffebf8d2e89ce8b),
    ("regions/pentium/uniform/m1", 0xfae02b28fa6f1fe7),
    ("regions/pentium/paper/m1", 0x4cceea12819e2c83),
    ("regions/pentium/uniform/m8", 0x6895006718782693),
    ("regions/pentium/paper/m8", 0xef8cb1b2f4f7931a),
    ("regions/pentium/uniform/m16", 0x785e14a87dadb611),
    ("regions/pentium/paper/m16", 0x2cd5319560eac04d),
    ("regions/pentium/uniform/m40", 0xabde328f052d17e1),
    ("regions/pentium/paper/m40", 0xdcc4c562e372f4e3),
    ("generate/pentium/ilp1", 0xc50f0cbf3c3b47af),
    ("generate/pentium/ilp3", 0x9871f580a216104f),
    ("uniform/pentium/r16", 0x045224c39679f3c4),
    ("uniform/pentium/r5", 0x483bd2a843ea9351),
    ("regions/supersparc/uniform/m1", 0x3928e1ae2294eb14),
    ("regions/supersparc/paper/m1", 0x2f54932a7f5b5fc4),
    ("regions/supersparc/uniform/m8", 0x76d31afbeb084273),
    ("regions/supersparc/paper/m8", 0x8635f6080ae2e453),
    ("regions/supersparc/uniform/m16", 0xb567a207e8b11bc6),
    ("regions/supersparc/paper/m16", 0xe25e5d6eca4f0244),
    ("regions/supersparc/uniform/m40", 0xcc16ff78481a8302),
    ("regions/supersparc/paper/m40", 0x8d30576e5de9e4c4),
    ("generate/supersparc/ilp1", 0xa153839666d64140),
    ("generate/supersparc/ilp3", 0xee89735e5464df0a),
    ("uniform/supersparc/r16", 0x51fb96b5fe21e4b1),
    ("uniform/supersparc/r5", 0xc985872da171551d),
    ("regions/k5/uniform/m1", 0xf06e76c3dfb6796d),
    ("regions/k5/paper/m1", 0xb85499aaa3292158),
    ("regions/k5/uniform/m8", 0xd40cce7006e55742),
    ("regions/k5/paper/m8", 0x9fb0b0f2cd462e40),
    ("regions/k5/uniform/m16", 0x62aca201a5266df8),
    ("regions/k5/paper/m16", 0x9cba9b3d1ecff202),
    ("regions/k5/uniform/m40", 0xf1e2099285d8a34c),
    ("regions/k5/paper/m40", 0xad745584d82f95f6),
    ("generate/k5/ilp1", 0xb6725b6214cd115d),
    ("generate/k5/ilp3", 0xf8c13888e4cacb71),
    ("uniform/k5/r16", 0xeff6246e209979b6),
    ("uniform/k5/r5", 0x67c82b2d85ce308b),
];

const SEEDS: [u64; 3] = [1, 0x0D16, 0xC1D7A5];
const MEAN_OPS: [usize; 4] = [1, 8, 16, 40];
const REGIONS: usize = 64;

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

    fn blocks<'a>(&mut self, blocks: impl IntoIterator<Item = &'a Block>) {
        for block in blocks {
            self.word(block.len() as u64);
            for op in &block.ops {
                self.word(op.class.index() as u64);
                for regs in [op.dests(), op.srcs()] {
                    self.word(regs.len() as u64);
                    for reg in regs {
                        self.word(u64::from(reg.0));
                    }
                }
            }
        }
    }
}

fn digest<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> u64 {
    let mut fnv = Fnv::new();
    fnv.blocks(blocks);
    fnv.0
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for machine in Machine::all() {
        let name = machine.name().to_lowercase();
        let spec = machine.spec();
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let paper = WorkloadConfig::paper_default(machine);

        for mean_ops in MEAN_OPS {
            for (shape_label, shape) in [("uniform", uniform_config(1)), ("paper", paper)] {
                let mut fnv = Fnv::new();
                for seed in SEEDS {
                    let config = RegionConfig {
                        shape,
                        ..RegionConfig::new(REGIONS)
                            .with_mean_ops(mean_ops)
                            .with_seed(seed)
                    };
                    fnv.blocks(&generate_compiled_regions(&mdes, &config).blocks);
                }
                out.push((format!("regions/{name}/{shape_label}/m{mean_ops}"), fnv.0));
            }
        }

        for scale in [1.0, 3.0] {
            let config = paper.with_total_ops(2_000).with_ilp_scale(scale);
            out.push((
                format!("generate/{name}/ilp{scale}"),
                digest(&generate(machine, &spec, &config).blocks),
            ));
        }

        let narrow = WorkloadConfig {
            registers: 5,
            ..uniform_config(2_000)
        };
        for (label, config) in [("r16", uniform_config(2_000)), ("r5", narrow)] {
            out.push((
                format!("uniform/{name}/{label}"),
                digest(&generate_uniform(&spec, &config).blocks),
            ));
        }
    }
    out
}

#[test]
fn every_generated_operation_keeps_its_class_and_registers() {
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
