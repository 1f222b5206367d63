//! The HMDL language, pinned.  Every description of the seed-1 `build`
//! corpus must elaborate to the same spec, and every damaged bundled
//! source must produce the same diagnostics (message and span), as the
//! front end that owned a `String` per token did.  The digests below were
//! recorded with that front end; a changed spec, message or span fails
//! here.
//!
//! Two families of damaged sources cover the parser's recovery paths:
//! each bundled source cut at every 37th character boundary, and each
//! with one `;`, `)` or `}` deleted in turn.

use std::fmt::Write as _;

use mdes::core::spec::MdesSpec;
use mdes::lang::{compile, compile_all, print};
use mdes::machines::bundled_sources;
use mdes::workload::fleet;

/// `(label, FNV-1a digest)` in the order [`digests`] produces them.
const PINNED: &[(&str, u64)] = &[
    ("spec/pa7100", 0xb6166b8114226f24),
    ("spec/pentium", 0xb68f288a278c2251),
    ("spec/supersparc", 0xf9edf2db6d5fdc2b),
    ("spec/k5", 0x414db74cdad5dc0a),
    ("spec/pentiumpro", 0x71d3cfacaf7bbe15),
    ("spec/superspark_approx", 0xa9e882f55571c0fc),
    ("spec/fleet-00", 0xe0df9ec2de23391e),
    ("spec/fleet-01", 0xf1c12f95ccddc5b2),
    ("spec/fleet-02", 0x326fb556be10ed9b),
    ("spec/fleet-03", 0xf57142433a3d9ecd),
    ("spec/fleet-04", 0xc04ea75461031efd),
    ("spec/fleet-05", 0x646e36949a22492e),
    ("spec/fleet-06", 0x0a36abcef457affd),
    ("spec/fleet-07", 0x162490b970234179),
    ("spec/fleet-08", 0xe67b2d0c9390b0e6),
    ("spec/fleet-09", 0x27b7327a5fa01a89),
    ("spec/fleet-10", 0xa066c0018b7bb8fb),
    ("spec/fleet-11", 0x87a6d78db513b14f),
    ("spec/fleet-12", 0xfa20906e07aec0a2),
    ("spec/fleet-13", 0x16bf4b3fa19518a9),
    ("spec/fleet-14", 0xc738bd043fe4f454),
    ("spec/fleet-15", 0x6b9c2e947d8a69b8),
    ("spec/fleet-16", 0x9eccf22acfcf4edb),
    ("spec/fleet-17", 0xeceddc6a2b6f1a73),
    ("spec/fleet-18", 0xac5a3eb4fea6687b),
    ("spec/fleet-19", 0x0fe234a7d2e11405),
    ("spec/fleet-20", 0x4ed2e9c67c111535),
    ("spec/fleet-21", 0x36cbdf3d20408e0a),
    ("spec/fleet-22", 0xfa8599038cd64ba9),
    ("spec/fleet-23", 0x17cbd8cd03f8579f),
    ("spec/fleet-24", 0x10c4c3373cc67a67),
    ("spec/fleet-25", 0x4c41532d6bc23cd9),
    ("spec/fleet-26", 0xa228a9635c9d6125),
    ("spec/fleet-27", 0x9acaad2db89b741e),
    ("spec/fleet-28", 0x82758bc3b6b980bc),
    ("spec/fleet-29", 0xd8220015ecf44c04),
    ("spec/fleet-30", 0x4cb519070f9bebdd),
    ("spec/fleet-31", 0x360438e39725e30d),
    ("spec/fleet-32", 0xf1c6470bd6028f36),
    ("spec/fleet-33", 0x98964aab555af1f3),
    ("spec/fleet-34", 0xeb79d84f79fdcb3f),
    ("spec/fleet-35", 0x02ce89586e9a59da),
    ("spec/fleet-36", 0x8dc615fc280a9c3a),
    ("spec/fleet-37", 0x38f7fc2af3a8392c),
    ("spec/fleet-38", 0x43974ba5177321f5),
    ("spec/fleet-39", 0x64be03c13eaba576),
    ("spec/fleet-40", 0x01ab3a3a8b3584df),
    ("spec/fleet-41", 0xf8e95aabe045a5ab),
    ("spec/fleet-42", 0x363e0f62c9087eaa),
    ("spec/fleet-43", 0x852634d4a74743b3),
    ("spec/fleet-44", 0xfb5b16c9c071116b),
    ("spec/fleet-45", 0x71741aa5b83aeeec),
    ("spec/fleet-46", 0xf45af3e888286ec1),
    ("spec/fleet-47", 0x245c3047390f7916),
    ("spec/fleet-48", 0x704829588efc2098),
    ("spec/fleet-49", 0xaf8201870a2e5ebc),
    ("spec/fleet-50", 0x6dc97dccd4a34a6d),
    ("spec/fleet-51", 0x3f45134ccce8660b),
    ("spec/fleet-52", 0xbd22b5cc2d37619e),
    ("spec/fleet-53", 0x49193c4fbbf17088),
    ("spec/fleet-54", 0xb546058e6dc7e220),
    ("spec/fleet-55", 0x7f7b34bf82705ca6),
    ("spec/fleet-56", 0x773bdd2772a88444),
    ("spec/fleet-57", 0x50ea2a396bd2eb06),
    ("cuts/pa7100", 0xca2722d6192b168a),
    ("deletions/pa7100", 0x67a116b2d4e119df),
    ("cuts/pentium", 0x0dc046d56df19d36),
    ("deletions/pentium", 0x5a3edee5803f08e6),
    ("cuts/supersparc", 0xacc484ac1fd0579e),
    ("deletions/supersparc", 0xe1543fbaf47f2add),
    ("cuts/k5", 0x28338c646300864e),
    ("deletions/k5", 0xc1cbf16cfa97dfdc),
    ("cuts/pentiumpro", 0xc110d835be3763c0),
    ("deletions/pentiumpro", 0x0fa146fb124b358d),
    ("cuts/superspark_approx", 0xe0f70b508cdda491),
    ("deletions/superspark_approx", 0x99ea9dc2bc70b091),
];

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The spec's `Debug` text, part by part.  `format!("{spec:?}")` itself
/// is not reproducible: the resource pool's name index is a `HashMap`,
/// printed in a per-process order.  The index is a function of the names,
/// which are printed in declaration order.
fn spec_text(spec: &MdesSpec) -> String {
    let mut out = String::new();
    let names: Vec<&str> = spec.resources().iter().map(|(_, name)| name).collect();
    let _ = write!(out, "{names:?}");
    for id in spec.option_ids() {
        let _ = write!(out, "{:?}", spec.option(id));
    }
    for id in spec.or_tree_ids() {
        let _ = write!(out, "{:?}", spec.or_tree(id));
    }
    for id in spec.and_or_tree_ids() {
        let _ = write!(out, "{:?}", spec.and_or_tree(id));
    }
    for id in spec.class_ids() {
        let _ = write!(out, "{:?}", spec.class(id));
    }
    let _ = write!(out, "{:?}{:?}", spec.opcodes(), spec.bypasses());
    out
}

/// `compile_all`'s outcome on `source`: each error's message and span,
/// or `ok`.
fn outcome(source: &str, out: &mut String) {
    match compile_all(source) {
        Ok(_) => out.push_str("ok\n"),
        Err(errors) => {
            for err in errors {
                let _ = write!(out, "{}@{}..{};", err.message, err.span.start, err.span.end);
            }
            out.push('\n');
        }
    }
}

fn digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    let mut corpus: Vec<(String, String)> = bundled_sources()
        .into_iter()
        .map(|(name, source)| (name, source.to_string()))
        .collect();
    for (i, machine) in fleet(1, 58).iter().enumerate() {
        let source = print(&machine.spec).expect("fleet machines print as HMDL");
        corpus.push((format!("fleet-{i:02}"), source));
    }
    for (name, source) in &corpus {
        let spec = compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        digests.push((format!("spec/{name}"), fnv(&spec_text(&spec))));
    }

    for (name, source) in bundled_sources() {
        let mut cuts = String::new();
        for (at, _) in source.char_indices().step_by(37) {
            outcome(&source[..at], &mut cuts);
        }
        digests.push((format!("cuts/{name}"), fnv(&cuts)));

        let mut deletions = String::new();
        for (at, ch) in source.char_indices() {
            if matches!(ch, ';' | ')' | '}') {
                outcome(
                    &format!("{}{}", &source[..at], &source[at + 1..]),
                    &mut deletions,
                );
            }
        }
        digests.push((format!("deletions/{name}"), fnv(&deletions)));
    }
    digests
}

#[test]
fn specs_and_diagnostics_match_the_pinned_digests() {
    let actual = digests();
    let mut table = String::new();
    for (label, digest) in &actual {
        let _ = writeln!(table, "    (\"{label}\", 0x{digest:016x}),");
    }
    let pinned: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(label, digest)| (label.to_string(), digest))
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .filter(|entry| !pinned.contains(entry))
        .map(|(label, _)| label.as_str())
        .collect();
    assert!(
        actual == pinned,
        "moved: {moved:?}\nactual digests:\n{table}"
    );
}
