//! Image-level vetting for hot reload.
//!
//! [`crate::optimize_guarded`] protects a description while it is being
//! *optimized*; this module protects the moment a serving daemon is asked
//! to *promote* one.  A reloaded LMDES image has already passed
//! [`mdes_core::lmdes::read`], so every index is in range — but decoding
//! says nothing about whether the description is safe to schedule
//! against.  [`vet_image`] closes that gap with two layers, each
//! catching a failure class the previous one cannot:
//!
//! 1. **Serving-policy bounds** ([`serving_policy`]) — pure structural
//!    checks the decoder deliberately leaves to policy: resource masks
//!    inside the declared pool, check times inside the declared
//!    `[min, max]` window and under [`MAX_CHECK_TIME`] (an unbounded time
//!    makes the RU map's window allocation proportional to it — an
//!    over-allocation attack), latencies under [`MAX_LATENCY`], at least
//!    one non-branch class, and no class whose every option list is
//!    empty (an unsatisfiable class makes a list scheduler spin forever:
//!    the reservation fails at every cycle, so the op never places and
//!    the daemon hangs).
//! 2. **A small seeded sample** — the stage oracle's sample type, drawn
//!    from the image: a description that panics the checker or the
//!    scheduler, or schedules a region that fails to verify, is rejected
//!    instead of killing the worker that first touches it.
//!
//! A description that passes both is promoted; any failure returns a
//! diagnostic and the caller keeps serving the old image.

use mdes_core::probe::ProbeConfig;
use mdes_core::{ClassId, CompiledMdes};
use mdes_workload::RegionConfig;

use crate::oracle::Sample;

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
    serving_policy(mdes)?;
    let probes = ProbeConfig {
        seed,
        sequences: 12,
        ops_per_sequence: 24,
        window: 4,
    };
    let regions = RegionConfig::new(8)
        .with_seed(seed ^ 0x5EED_1A6E)
        .with_mean_ops(6);
    let sample = Sample::draw(mdes, &probes, &regions);
    sample
        .traces(mdes)
        .and_then(|_| sample.cycles(mdes))
        .map_err(|why| format!("vetting sample: {why}"))?;
    Ok(ImageVetting {
        probe_sequences: sample.sequences.len(),
        scheduled_blocks: sample.regions.len(),
    })
}

/// [`vet_image`]'s serving-policy layer: all of vetting that an HMDL
/// reload and `mdesc verify` run on the guarded pipeline's image, which
/// the guard's own, larger sample has already observed.
pub fn serving_policy(mdes: &CompiledMdes) -> Result<(), String> {
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
        let trees = mdes.class_trees(ClassId::from_index(index));
        let satisfiable = trees
            .iter()
            .all(|&tree| !mdes.tree_options(tree as usize).is_empty());
        if trees.is_empty() || !satisfiable {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{corrupt_image, ImageFault};
    use mdes_core::lmdes;
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

    /// A single-class LMDES image written field by field, in the layout
    /// `mdes_core::lmdes` documents, and decoded the way a reload is: a
    /// 2-resource bit-vector description with one option probing `mask`
    /// at `time`, one OR-tree listing `tree_options`, and one class of
    /// constraint `kind` (0 = OR, 1 = AND/OR) over that tree.  The
    /// decoder accepts every value planted here; vetting must not.
    fn decoded(time: i32, mask: u64, latency: i32, tree_options: &[u32], kind: u8) -> CompiledMdes {
        let mut image = lmdes::MAGIC.to_vec();
        let words = |image: &mut Vec<u8>, words: &[u32]| {
            for word in words {
                image.extend_from_slice(&word.to_le_bytes());
            }
        };
        image.push(1); // bit-vector encoding
        let (min, max) = (time.min(0), time.max(0));
        words(&mut image, &[2, min as u32, max as u32]);
        words(&mut image, &[1, 1, time as u32]); // one option of one check
        image.extend_from_slice(&mask.to_le_bytes());
        words(&mut image, &[1, tree_options.len() as u32]);
        words(&mut image, tree_options);
        words(&mut image, &[1, 3]); // one class, named "alu"
        image.extend_from_slice(b"alu");
        image.push(kind);
        let latency = latency as u32;
        words(&mut image, &[0, latency, 0, latency]); // and_or_index, dest, src, mem
        image.push(0); // flags
        words(&mut image, &[1, 0]); // the class's one tree: #0
        words(&mut image, &[0]); // no bypasses
        lmdes::read(&image).unwrap()
    }

    #[test]
    fn unbounded_check_times_are_rejected() {
        let why = vet_image(&decoded(1_000_000, 0b01, 1, &[0], 0), 0).unwrap_err();
        assert!(why.contains("serving bound"), "{why}");
    }

    #[test]
    fn unbounded_latencies_are_rejected() {
        let why = vet_image(&decoded(0, 0b01, 1_000_000, &[0], 0), 0).unwrap_err();
        assert!(why.contains("latency"), "{why}");
    }

    #[test]
    fn unsatisfiable_classes_are_rejected() {
        // An AndOr class referencing an empty tree decodes fine but can
        // never reserve — the scheduler would spin on it forever.
        let why = vet_image(&decoded(0, 0b01, 1, &[], 1), 0).unwrap_err();
        assert!(why.contains("unsatisfiable"), "{why}");
    }

    #[test]
    fn masks_outside_the_resource_pool_are_rejected() {
        // Resource 2 of a 2-resource pool.
        let why = vet_image(&decoded(0, 0b100, 1, &[0], 0), 0).unwrap_err();
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
