//! The daemon's answers, pinned.  `run_work` must reply to every
//! `schedule` and `verify` request below with the same bytes as the
//! request path that generated a request's whole workload and scheduled
//! every region before it answered.  The digests were recorded with that
//! path; a changed schedule, statistic or reply field fails here.
//!
//! The grid covers the four served machines, both work verbs, four
//! request shapes (regions × mean ops) and two seeds per shape.  The fast
//! tier of `ci.sh` runs this file; it takes about 3 s under the dev
//! profile.

use mdes_engine::WorkerScratch;
use mdes_machines::Machine;
use mdes_serve::server::run_work;
use mdes_serve::{compile_machine, ImageStore, ServeStats, WorkParams};

/// `(label, FNV-1a digest)` in the order [`digests`] produces them.
const PINNED: &[(&str, u64)] = &[
    ("PA7100/schedule/1x1", 0x7220cbe9766fc1ec),
    ("PA7100/schedule/4x8", 0x555ec2fa6dbaec63),
    ("PA7100/schedule/64x16", 0x98aed8d5a2a1d748),
    ("PA7100/schedule/256x32", 0xb2105ab31c417c44),
    ("PA7100/verify/1x1", 0x76fab402a0b93e8c),
    ("PA7100/verify/4x8", 0xa3c121781c5a8609),
    ("PA7100/verify/64x16", 0xdd83691336ede6fa),
    ("PA7100/verify/256x32", 0x91b2c469b42945d0),
    ("Pentium/schedule/1x1", 0xbf6c1f3eaf5f706a),
    ("Pentium/schedule/4x8", 0x0f74815ce2185b52),
    ("Pentium/schedule/64x16", 0x4411a271ace4ab32),
    ("Pentium/schedule/256x32", 0xa686a0c95b1d7f77),
    ("Pentium/verify/1x1", 0x348461182d258910),
    ("Pentium/verify/4x8", 0x4b5da80ba150b818),
    ("Pentium/verify/64x16", 0x4e378c1d45fa9fa8),
    ("Pentium/verify/256x32", 0x7edae6517e08606b),
    ("SuperSPARC/schedule/1x1", 0xc07d41ee6cf3c22a),
    ("SuperSPARC/schedule/4x8", 0x96ac38bb38b70780),
    ("SuperSPARC/schedule/64x16", 0x2f54614b917adcfe),
    ("SuperSPARC/schedule/256x32", 0x77ff5e9e36505a94),
    ("SuperSPARC/verify/1x1", 0x22fcf51c5599be44),
    ("SuperSPARC/verify/4x8", 0xdcf1f711e2cabcd2),
    ("SuperSPARC/verify/64x16", 0xf6da0950c2c3e36c),
    ("SuperSPARC/verify/256x32", 0x82e2a7a8c69dd054),
    ("K5/schedule/1x1", 0x7c4185625b78f03a),
    ("K5/schedule/4x8", 0x6121d85d00ff4c7b),
    ("K5/schedule/64x16", 0x6029e6c559449aca),
    ("K5/schedule/256x32", 0x4737bd7ec9ac30d6),
    ("K5/verify/1x1", 0x4c2591fb86eefbf0),
    ("K5/verify/4x8", 0x443161be492b1607),
    ("K5/verify/64x16", 0xd5a0c7fb2b14cede),
    ("K5/verify/256x32", 0x0da1bca44e7e8422),
];

/// Request shapes: `(regions, mean_ops)`.
const SHAPES: [(usize, usize); 4] = [(1, 1), (4, 8), (64, 16), (256, 32)];

const SEEDS: [u64; 2] = [7, 0x5EED];

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One digest per machine, verb and shape, over both seeds' replies.
/// Every request goes to one warm worker scratch per machine, as a shard
/// worker's would.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for machine in Machine::all() {
        let image = ImageStore::new(compile_machine(machine), machine.name(), 1).current();
        let (stats, mut scratch) = (ServeStats::default(), WorkerScratch::new());
        for (verb, verify) in [("schedule", false), ("verify", true)] {
            for (regions, mean_ops) in SHAPES {
                let mut replies = String::new();
                for (id, seed) in SEEDS.into_iter().enumerate() {
                    let params = WorkParams {
                        regions,
                        mean_ops,
                        seed,
                        jobs: 1,
                    };
                    let reply = run_work(id as u64, params, verify, &image, &mut scratch, &stats);
                    assert!(reply.contains("\"ok\":true"), "{reply}");
                    replies.push_str(&reply);
                }
                let label = format!("{}/{verb}/{regions}x{mean_ops}", machine.name());
                out.push((label, fnv(&replies)));
            }
        }
    }
    out
}

#[test]
fn run_work_replies_match_the_pinned_digests() {
    let got = digests();
    let rendered: Vec<String> = got
        .iter()
        .map(|(label, digest)| format!("    ({label:?}, {digest:#018x}),"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(label, digest)| (label.to_string(), digest))
        .collect();
    assert_eq!(
        got,
        pinned,
        "replies changed; the current digests are:\n{}",
        rendered.join("\n")
    );
}
