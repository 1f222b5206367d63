//! Compiles the daemon's boot images when the crate is built.
//!
//! The paper's two-tier model translates the high-level description once
//! and hands tools a low-level image laid out to load quickly (Section
//! 4).  For each bundled machine this script runs the boot pipeline —
//! HMDL front end, the full Section 5–8 optimization pipeline, bit-vector
//! compilation — and writes the LMDES image to `$OUT_DIR/<machine>.lmdes`,
//! which `image::compile_machine` embeds and loads.  Editing a `.hmdl`
//! source reruns this script, because `mdes-machines` embeds the sources
//! and is a build dependency.

use std::path::PathBuf;

use mdes_core::{lmdes, CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_opt::pipeline::{optimize, PipelineConfig};

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    for machine in Machine::all() {
        let mut spec = machine.spec();
        optimize(&mut spec, &PipelineConfig::full());
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector)
            .expect("bundled machines always compile");
        let path = out.join(format!("{}.lmdes", machine.name().to_lowercase()));
        std::fs::write(&path, lmdes::write(&mdes))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
}
