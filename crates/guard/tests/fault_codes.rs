//! Every fatal image-corruption class maps to a distinct fault code.
//!
//! `guard`'s rollback tests prove the five fatal [`ImageFault`] classes
//! are *rejected*; this table proves they are rejected
//! **distinguishably** — the LMDES decoder names each class with its own
//! stable `MD10x` code, across many corruption seeds, on every bundled
//! machine image, and each code is a registered fatal diagnostic.

use mdes_analyze::{Severity, CODE_REGISTRY};
use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::lmdes;
use mdes_guard::{corrupt_image, ImageFault};

fn bundled_images() -> Vec<(String, Vec<u8>)> {
    mdes_machines::bundled()
        .into_iter()
        .map(|(name, spec)| {
            let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
            (name, lmdes::write(&mdes))
        })
        .collect()
}

/// fault class -> the one diagnostic code it must always produce.
const EXPECTED: [(ImageFault, &str); 5] = [
    (ImageFault::SmashMagic, "MD101"),
    (ImageFault::TruncateHeader, "MD102"),
    (ImageFault::TruncateBody, "MD103"),
    (ImageFault::HugeCount, "MD104"),
    (ImageFault::GarbageTail, "MD105"),
];

#[test]
fn every_fatal_fault_class_gets_its_own_code() {
    for (machine, image) in bundled_images() {
        for (fault, code) in EXPECTED {
            for seed in 0..32u64 {
                let corrupt = corrupt_image(&image, fault, seed);
                let Err(err) = lmdes::read(&corrupt) else {
                    panic!("{machine}/{fault}/seed {seed}: corruption decoded");
                };
                assert_eq!(err.code(), code, "{machine}/{fault}/seed {seed}: {err}");
            }
        }
    }
}

#[test]
fn expected_table_covers_exactly_the_fatal_classes() {
    let mut table: Vec<ImageFault> = EXPECTED.iter().map(|&(f, _)| f).collect();
    let mut fatal = ImageFault::fatal().to_vec();
    table.sort_by_key(|f| f.name());
    fatal.sort_by_key(|f| f.name());
    assert_eq!(table, fatal);
    // ...and the codes are pairwise distinct.
    for (i, &(_, a)) in EXPECTED.iter().enumerate() {
        for &(_, b) in &EXPECTED[i + 1..] {
            assert_ne!(a, b);
        }
    }
}

#[test]
fn every_fault_code_is_a_registered_fatal_diagnostic() {
    // The five fault classes plus MD106, a field outside its domain
    // (here an encoding byte of 7).
    let (_, image) = &bundled_images()[0];
    let mut bad_field = image.clone();
    bad_field[lmdes::MAGIC.len()] = 7;
    let md106 = lmdes::read(&bad_field).map(drop).unwrap_err().code();
    assert_eq!(md106, "MD106");
    for code in EXPECTED.iter().map(|&(_, code)| code).chain([md106]) {
        assert!(
            CODE_REGISTRY
                .iter()
                .any(|&(c, severity, _)| c == code && severity == Severity::Fatal),
            "{code} is not registered as fatal"
        );
    }
}
