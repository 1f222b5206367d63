//! Image-level vetting for hot reload.
//!
//! [`crate::optimize_guarded`] protects a description while it is being
//! *optimized*; this module protects the moment a serving daemon is asked
//! to *promote* one.  A reloaded LMDES image has already passed
//! [`mdes_core::lmdes::read`], so every index is in range — but decoding
//! says nothing about whether the description is safe to schedule
//! against.  [`vet_image`] closes that gap with three layers, each
//! catching a failure class the previous one cannot:
//!
//! 1. **Serving-policy bounds** — pure structural checks the decoder
//!    deliberately leaves to policy: resource masks inside the declared
//!    pool, check times inside the declared `[min, max]` window and under
//!    [`MAX_CHECK_TIME`] (an unbounded time makes the RU map's window
//!    allocation proportional to it — an over-allocation attack),
//!    latencies under [`MAX_LATENCY`], and no class whose every option
//!    list is empty (an unsatisfiable class makes a list scheduler spin
//!    forever: the reservation fails at every cycle, so the op never
//!    places and the daemon hangs).
//! 2. **Probe smoke** — deterministic seeded reserve/query/release
//!    sequences replayed through the checker under `catch_unwind`, so a
//!    description that panics the checker is rejected instead of killing
//!    the worker that first touches it.
//! 3. **Schedule smoke** — a small seeded region stream generated *from
//!    the compiled image itself* ([`mdes_workload::
//!    generate_compiled_regions`]), list-scheduled, and re-verified
//!    against the dependence graph.  This exercises the full serving path
//!    (dep graph, scheduler, verifier) end to end before any client
//!    request does.
//!
//! A description that passes all three is promoted; any failure returns a
//! diagnostic and the caller keeps serving the old image.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdes_core::probe::{self, ProbeConfig};
use mdes_core::CompiledMdes;
use mdes_sched::{CheckStats, DepGraph, ListScheduler, SchedScratch};
use mdes_workload::{generate_compiled_regions, RegionConfig};

// The serving-policy bounds are owned by the static analyzer (its MD008
// window-overflow diagnostic enforces the same contract over specs);
// re-exported here so existing `mdes_guard::MAX_CHECK_TIME` users keep
// compiling and the two layers can never disagree on the limit.
pub use mdes_analyze::{MAX_CHECK_TIME, MAX_LATENCY};

/// What [`vet_image`] exercised on the accepted description.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ImageVetting {
    /// Probe sequences replayed through the checker.
    pub probe_sequences: usize,
    /// Regions scheduled and re-verified against the dependence graph.
    pub scheduled_blocks: usize,
}

/// Vets a decoded description for serving.  Deterministic in `(mdes,
/// seed)`.  On `Err`, the returned string says which layer rejected it
/// and why; the caller must keep its previous description.
pub fn vet_image(mdes: &CompiledMdes, seed: u64) -> Result<ImageVetting, String> {
    structural_check(mdes)?;
    let probe_sequences = probe_smoke(mdes, seed)?;
    let scheduled_blocks = schedule_smoke(mdes, seed)?;
    Ok(ImageVetting {
        probe_sequences,
        scheduled_blocks,
    })
}

/// Layer 1: serving-policy bounds over the decoded structure.
fn structural_check(mdes: &CompiledMdes) -> Result<(), String> {
    if mdes.classes().is_empty() {
        return Err("image has no operation classes".into());
    }
    if mdes.classes().iter().all(|class| class.flags.branch) {
        return Err("image has no schedulable non-branch class".into());
    }

    let (min, max) = (mdes.min_check_time(), mdes.max_check_time());
    if min > max {
        return Err(format!("check-time window is inverted ({min} > {max})"));
    }
    if min < -MAX_CHECK_TIME || max > MAX_CHECK_TIME {
        return Err(format!(
            "check-time window [{min}, {max}] exceeds the serving bound ±{MAX_CHECK_TIME}"
        ));
    }

    let resources = mdes.num_resources();
    for idx in 0..mdes.num_options() {
        for check in mdes.option_checks(idx) {
            if check.time < min || check.time > max {
                return Err(format!(
                    "option {idx} probes time {} outside the declared window [{min}, {max}]",
                    check.time
                ));
            }
            if resources < 64 && check.mask >> resources != 0 {
                return Err(format!(
                    "option {idx} probes resources outside the declared pool of {resources}"
                ));
            }
        }
    }

    for (index, class) in mdes.classes().iter().enumerate() {
        let satisfiable = class
            .or_trees
            .iter()
            .all(|&tree| !mdes.or_trees()[tree as usize].options.is_empty());
        if class.or_trees.is_empty() || !satisfiable {
            return Err(format!(
                "class {index} (`{}`) is unsatisfiable: an empty option list can never reserve",
                class.name
            ));
        }
        let latency = class.latency;
        for (field, value) in [
            ("dest", latency.dest),
            ("src", latency.src),
            ("mem", latency.mem),
        ] {
            if value.abs() > MAX_LATENCY {
                return Err(format!(
                    "class {index} (`{}`) {field} latency {value} exceeds the serving bound \
                     ±{MAX_LATENCY}",
                    class.name
                ));
            }
        }
    }

    for &(p, c, latency) in mdes.bypasses() {
        if latency.abs() > MAX_LATENCY {
            return Err(format!(
                "bypass {p}->{c} latency {latency} exceeds the serving bound ±{MAX_LATENCY}"
            ));
        }
    }
    Ok(())
}

/// Layer 2: replay seeded probe sequences, converting a checker panic
/// into a rejection.
fn probe_smoke(mdes: &CompiledMdes, seed: u64) -> Result<usize, String> {
    let config = ProbeConfig {
        seed,
        sequences: 12,
        ops_per_sequence: 24,
        window: 4,
    };
    let sequences = probe::generate_sequences(&config, mdes.classes().len());
    let count = sequences.len();
    catch_unwind(AssertUnwindSafe(|| {
        for ops in &sequences {
            probe::run_sequence(mdes, ops);
        }
    }))
    .map_err(|_| "probe smoke panicked inside the checker; description rejected".to_string())?;
    Ok(count)
}

/// Layer 3: schedule a small seeded region stream end to end and verify
/// every schedule against its dependence graph.
fn schedule_smoke(mdes: &CompiledMdes, seed: u64) -> Result<usize, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<usize, String> {
        let config = RegionConfig::new(8)
            .with_seed(seed ^ 0x5EED_1A6E)
            .with_mean_ops(6);
        let workload = generate_compiled_regions(mdes, &config);
        let scheduler = ListScheduler::new(mdes);
        let mut scratch = SchedScratch::new();
        let mut stats = CheckStats::new();
        for (index, block) in workload.blocks.iter().enumerate() {
            let graph = DepGraph::build(block, mdes);
            let schedule =
                scheduler.schedule_with_graph_reusing(block, &graph, &mut scratch, &mut stats);
            schedule
                .verify(&graph, mdes)
                .map_err(|why| format!("schedule smoke: region {index} failed to verify: {why}"))?;
        }
        Ok(workload.blocks.len())
    }));
    outcome.map_err(|_| {
        "schedule smoke panicked inside the scheduler; description rejected".to_string()
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{corrupt_image, ImageFault};
    use mdes_core::compile::{
        CompiledCheck, CompiledClass, CompiledOption, CompiledOrTree, ConstraintKind,
    };
    use mdes_core::lmdes;
    use mdes_core::spec::{Latency, OpFlags};
    use mdes_core::UsageEncoding;
    use mdes_machines::Machine;

    fn compiled(machine: Machine) -> CompiledMdes {
        CompiledMdes::compile(&machine.spec(), UsageEncoding::BitVector).unwrap()
    }

    #[test]
    fn every_bundled_machine_image_is_accepted() {
        for machine in Machine::all() {
            let mdes = compiled(machine);
            let roundtripped = lmdes::read(&lmdes::write(&mdes)).unwrap();
            let vetting =
                vet_image(&roundtripped, 7).unwrap_or_else(|e| panic!("{}: {e}", machine.name()));
            assert!(vetting.probe_sequences > 0);
            assert!(vetting.scheduled_blocks > 0);
        }
    }

    #[test]
    fn vetting_is_deterministic() {
        let mdes = compiled(Machine::K5);
        assert_eq!(vet_image(&mdes, 3), vet_image(&mdes, 3));
    }

    /// Builds a decodable single-class description by hand so individual
    /// policy violations can be planted.
    fn tiny(check_time: i32, latency: i32, tree_options: Vec<u32>) -> CompiledMdes {
        CompiledMdes::from_parts(
            UsageEncoding::BitVector,
            2,
            vec![CompiledOption {
                checks: vec![CompiledCheck {
                    time: check_time,
                    mask: 0b01,
                }],
            }],
            vec![CompiledOrTree {
                options: tree_options,
            }],
            vec![CompiledClass {
                name: "alu".into(),
                kind: ConstraintKind::Or,
                or_trees: vec![0],
                and_or_index: 0,
                latency: Latency::new(latency),
                flags: OpFlags::none(),
            }],
            Vec::new(),
            check_time.min(0),
            check_time.max(0),
        )
        .unwrap()
    }

    #[test]
    fn unbounded_check_times_are_rejected() {
        let why = vet_image(&tiny(1_000_000, 1, vec![0]), 0).unwrap_err();
        assert!(why.contains("serving bound"), "{why}");
    }

    #[test]
    fn unbounded_latencies_are_rejected() {
        let why = vet_image(&tiny(0, 1_000_000, vec![0]), 0).unwrap_err();
        assert!(why.contains("latency"), "{why}");
    }

    #[test]
    fn unsatisfiable_classes_are_rejected() {
        // An AndOr class referencing an empty tree decodes fine but can
        // never reserve — the scheduler would spin on it forever.
        let mdes = CompiledMdes::from_parts(
            UsageEncoding::BitVector,
            2,
            vec![CompiledOption {
                checks: vec![CompiledCheck { time: 0, mask: 1 }],
            }],
            vec![CompiledOrTree { options: vec![] }],
            vec![CompiledClass {
                name: "alu".into(),
                kind: ConstraintKind::AndOr,
                or_trees: vec![0],
                and_or_index: 0,
                latency: Latency::new(1),
                flags: OpFlags::none(),
            }],
            Vec::new(),
            0,
            0,
        )
        .unwrap();
        let why = vet_image(&mdes, 0).unwrap_err();
        assert!(why.contains("unsatisfiable"), "{why}");
    }

    #[test]
    fn masks_outside_the_resource_pool_are_rejected() {
        let mdes = CompiledMdes::from_parts(
            UsageEncoding::BitVector,
            2,
            vec![CompiledOption {
                checks: vec![CompiledCheck {
                    time: 0,
                    mask: 0b100, // resource 2 of a 2-resource pool
                }],
            }],
            vec![CompiledOrTree { options: vec![0] }],
            vec![CompiledClass {
                name: "alu".into(),
                kind: ConstraintKind::Or,
                or_trees: vec![0],
                and_or_index: 0,
                latency: Latency::new(1),
                flags: OpFlags::none(),
            }],
            Vec::new(),
            0,
            0,
        )
        .unwrap();
        let why = vet_image(&mdes, 0).unwrap_err();
        assert!(why.contains("outside the declared pool"), "{why}");
    }

    #[test]
    fn fatal_image_faults_never_survive_decode() {
        // Every guaranteed-fatal corruption class, applied to every
        // bundled machine image at several seeds, must be rejected by the
        // decoder — and must never panic it.
        for machine in Machine::all() {
            let image = lmdes::write(&compiled(machine));
            for fault in ImageFault::fatal() {
                for seed in 0..8 {
                    let corrupted = corrupt_image(&image, fault, seed);
                    assert!(
                        lmdes::read(&corrupted).is_err(),
                        "{} survived {fault} seed {seed}",
                        machine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bit_flips_are_rejected_or_decode_to_a_vettable_image() {
        // A single bit flip may not be decoder-detectable; whatever
        // decodes must either fail the vet or be structurally servable.
        for machine in Machine::all() {
            let image = lmdes::write(&compiled(machine));
            for seed in 0..64 {
                let corrupted = corrupt_image(&image, ImageFault::BitFlip, seed);
                if let Ok(mdes) = lmdes::read(&corrupted) {
                    // Either verdict is acceptable; the call must simply
                    // never panic or hang.
                    let _ = vet_image(&mdes, seed);
                }
            }
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let image = lmdes::write(&compiled(Machine::Pentium));
        for fault in ImageFault::all() {
            assert_eq!(
                corrupt_image(&image, fault, 42),
                corrupt_image(&image, fault, 42)
            );
        }
    }
}
