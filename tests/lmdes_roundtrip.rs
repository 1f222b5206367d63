//! The binary LMDES image must round-trip the bundled machines exactly,
//! and a loaded image must drive the scheduler identically to the
//! in-memory compilation.

mod common;

use common::{arb_spec_plan, build_spec};
use mdes::core::lmdes;
use mdes::core::size::measure;
use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::machines::Machine;
use mdes::sched::ListScheduler;
use mdes::workload::{generate, WorkloadConfig};
use proptest::prelude::*;

/// `(label, image digest, memory-model digest)` in the order
/// [`compiled_tier_digests`] produces them: every bundled description,
/// as written and after the full pipeline, in both encodings.  The image
/// digest folds every byte `lmdes::write` emits; the memory-model digest
/// folds every field of `size::measure`'s report.
///
/// Recorded on the compiled layout that kept one heap list per OR-tree
/// and per class.
#[rustfmt::skip]
const PINNED_COMPILED: &[(&str, u64, u64)] = &[
    ("pa7100/written/scalar", 0x19e3b90587c4c494, 0x85eb3745e8a7b296),
    ("pa7100/written/bitvector", 0xe3c7fc9b33173a65, 0x0878339cfb60870c),
    ("pa7100/full/scalar", 0x7da8d7a9b78d3262, 0x677ed2a08ed19b4f),
    ("pa7100/full/bitvector", 0x4fa636b8bd5ea3fc, 0xa6f7fe3d3cd8d309),
    ("pentium/written/scalar", 0x2825eb76ed202eb9, 0x29d228a1d0c2fd5a),
    ("pentium/written/bitvector", 0xcd508a94e433e645, 0xdc172f08b8522200),
    ("pentium/full/scalar", 0xc264c2f63c8a5d15, 0xe33e3badf4305aa7),
    ("pentium/full/bitvector", 0x07e4ed93008a9b54, 0x0caa2c64e0bababb),
    ("supersparc/written/scalar", 0x82b07185e6f05846, 0xa076d3b4f22f8313),
    ("supersparc/written/bitvector", 0xf2833a6b472c5dc9, 0x7c10467e1b86dd3f),
    ("supersparc/full/scalar", 0x3a347a63f129dbfa, 0x8dfc27fa05ad6eaa),
    ("supersparc/full/bitvector", 0xb352560ed8a0ed31, 0x324b5c64affe4a84),
    ("k5/written/scalar", 0x030bc25be202ca80, 0x27d5f312542126e4),
    ("k5/written/bitvector", 0x6a56b5eb94d1e8ea, 0xd65dd7a02dc31030),
    ("k5/full/scalar", 0x92c3e55cf839594b, 0xe2b038064f256da0),
    ("k5/full/bitvector", 0x6516c2fa46c8259a, 0x6954c2d2c9f38fa9),
    ("pentiumpro/written/scalar", 0x62eadfa2f3cf35bc, 0x86b35ef854de0030),
    ("pentiumpro/written/bitvector", 0x7fa701e5e1084527, 0xa4abfa8475fe386c),
    ("pentiumpro/full/scalar", 0x71a7f6bbcbbb1345, 0x780aa3197665f448),
    ("pentiumpro/full/bitvector", 0x49755e030cb012fc, 0x3f8c682020afba7c),
    ("superspark_approx/written/scalar", 0xc3016504bc089b92, 0xceb925755ec99212),
    ("superspark_approx/written/bitvector", 0xc10090e8715130b1, 0xceb925755ec99212),
    ("superspark_approx/full/scalar", 0x757c9e0498061e62, 0xceb925755ec99212),
    ("superspark_approx/full/bitvector", 0x9dad371ef1260f41, 0xceb925755ec99212),
];

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn compiled_tier_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (name, written) in mdes::machines::bundled() {
        let mut full = written.clone();
        mdes::opt::optimize(&mut full, &mdes::opt::PipelineConfig::full());
        for (stage, spec) in [("written", &written), ("full", &full)] {
            for (encoding_label, encoding) in [
                ("scalar", UsageEncoding::Scalar),
                ("bitvector", UsageEncoding::BitVector),
            ] {
                let compiled = CompiledMdes::compile(spec, encoding).unwrap();
                let report = measure(&compiled);
                let fields = [
                    report.option_bytes,
                    report.or_tree_bytes,
                    report.and_level_bytes,
                    report.class_bytes,
                    report.num_options,
                    report.num_or_trees,
                    report.num_trees,
                    report.num_checks,
                    report.total(),
                ];
                out.push((
                    format!("{name}/{stage}/{encoding_label}"),
                    fnv(lmdes::write(&compiled)),
                    fnv(fields.iter().flat_map(|&f| (f as u64).to_le_bytes())),
                ));
            }
        }
    }
    out
}

#[test]
fn compiled_images_and_sizes_keep_their_digests() {
    let got = compiled_tier_digests();
    let want: Vec<(String, u64, u64)> = PINNED_COMPILED
        .iter()
        .map(|&(label, image, size)| (label.to_string(), image, size))
        .collect();
    if got != want {
        // Print the whole table, so a deliberate change can be re-pinned.
        for (label, image, size) in &got {
            println!("    (\"{label}\", {image:#018x}, {size:#018x}),");
        }
    }
    assert_eq!(got, want);
}

#[test]
fn bundled_machines_round_trip_through_lmdes() {
    for machine in Machine::all() {
        for stage_full in [false, true] {
            let mut spec = machine.spec();
            if stage_full {
                mdes::opt::optimize(&mut spec, &mdes::opt::PipelineConfig::full());
            }
            for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
                let mdes = CompiledMdes::compile(&spec, encoding).unwrap();
                let image = lmdes::write(&mdes);
                let loaded =
                    lmdes::read(&image).unwrap_or_else(|e| panic!("{}: {e}", machine.name()));
                assert_eq!(loaded, mdes, "{}", machine.name());
            }
        }
    }
}

#[test]
fn loaded_image_schedules_identically() {
    let machine = Machine::SuperSparc;
    let spec = machine.spec();
    let config = WorkloadConfig::paper_default(machine).with_total_ops(800);
    let workload = generate(machine, &spec, &config);

    let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let loaded = lmdes::read(&lmdes::write(&compiled)).unwrap();

    let mut stats_a = CheckStats::new();
    let mut stats_b = CheckStats::new();
    for block in &workload.blocks {
        let a = ListScheduler::new(&compiled).schedule(block, &mut stats_a);
        let b = ListScheduler::new(&loaded).schedule(block, &mut stats_b);
        assert_eq!(a.cycles(), b.cycles());
    }
    assert_eq!(stats_a.resource_checks, stats_b.resource_checks);
}

#[test]
fn image_size_is_modest() {
    // The optimized AND/OR K5 image should be a few kilobytes — the
    // artifact a compiler would load at start-up.
    let mut spec = Machine::K5.spec();
    mdes::opt::optimize(&mut spec, &mdes::opt::PipelineConfig::full());
    let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let image = lmdes::write(&mdes);
    assert!(image.len() < 16_384, "K5 image is {} bytes", image.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_machines_round_trip(plan in arb_spec_plan()) {
        let spec = build_spec(&plan);
        for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
            let mdes = CompiledMdes::compile(&spec, encoding).unwrap();
            prop_assert_eq!(lmdes::read(&lmdes::write(&mdes)).unwrap(), mdes);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_loader(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Fuzz the decoder: errors are fine, panics are not.
        let _ = lmdes::read(&bytes);
    }

    #[test]
    fn prefixed_garbage_never_panics(tail in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut bytes = lmdes::MAGIC.to_vec();
        bytes.extend(tail);
        let _ = lmdes::read(&bytes);
    }

    #[test]
    fn seeded_corruptions_error_cleanly_instead_of_panicking(seed in any::<u64>()) {
        // Structured corruption of a real image (vs. the pure byte fuzz
        // above): every guaranteed-fatal fault must come back as an
        // `LmdesError` — never a panic, never an over-allocation — and
        // a bit flip may decode or error but must do so cleanly too.
        let image = k5_image();
        for fault in mdes::guard::ImageFault::fatal() {
            let corrupted = mdes::guard::corrupt_image(image, fault, seed);
            prop_assert!(
                lmdes::read(&corrupted).is_err(),
                "{} image decoded despite corruption (seed {seed})",
                fault.name()
            );
        }
        let flipped = mdes::guard::corrupt_image(image, mdes::guard::ImageFault::BitFlip, seed);
        let _ = lmdes::read(&flipped);
    }
}

/// One shared optimized K5 image for the corruption cases (compiling
/// per proptest case would dominate the suite's runtime).
fn k5_image() -> &'static [u8] {
    use std::sync::OnceLock;
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut spec = Machine::K5.spec();
        mdes::opt::optimize(&mut spec, &mdes::opt::PipelineConfig::full());
        lmdes::write(&CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap())
    })
}
