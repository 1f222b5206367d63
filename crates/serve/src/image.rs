//! The serving image store: epoch handoff, guarded reload, and the
//! content-hashed compile cache.
//!
//! The daemon serves from an immutable [`ServeImage`] behind an
//! `Arc`-swap: admission captures the current `Arc`, a reload builds and
//! vets a *new* image off to the side and swaps the pointer only after
//! every check passes.  In-flight requests keep scheduling against the
//! `Arc` they captured — a reload never changes an admitted request's
//! answer — and a failed reload changes nothing at all: the old image
//! keeps serving (rollback is the absence of the swap).
//!
//! Reload sources are content-hashed (FNV-1a over the raw bytes) before
//! any parsing.  Reloading bytes identical to the serving image is a
//! no-op; reloading bytes seen earlier reuses the cached compiled
//! description and skips recompilation *and* re-vetting (both are pure
//! functions of the bytes).
//!
//! Boot does none of that work: `build.rs` runs the bundled machines
//! through the full pipeline when the crate is built, and
//! [`compile_machine`] only loads the embedded LMDES image.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mdes_core::{lmdes, CompiledMdes};
use mdes_guard::{optimize_guarded, serving_policy, vet_image, GuardConfig, GuardIncident};
use mdes_machines::Machine;
use mdes_opt::pipeline::PipelineConfig;
use mdes_telemetry::Telemetry;

use crate::proto::ErrorCode;

/// Cached compiled descriptions kept before the cache resets.  Bounds
/// daemon memory against a chaos client reloading many distinct images.
const MAX_CACHED_IMAGES: usize = 16;

/// FNV-1a over `bytes` — the content hash keying the compile cache and
/// identifying the serving image on the wire.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One immutable generation of the serving description.
#[derive(Debug)]
pub struct ServeImage {
    /// The compiled description requests schedule against.
    pub mdes: Arc<CompiledMdes>,
    /// Monotonic generation counter; bumped by every promotion.
    pub epoch: u64,
    /// Content hash of the source bytes this generation came from.
    pub hash: u64,
    /// Where the bytes came from (a path, or a boot label).
    pub origin: String,
}

/// Why a reload was refused.  The mapping to wire/exit codes is part of
/// the protocol contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReloadError {
    /// The source could not be read at all.
    Io(String),
    /// The bytes decode as neither an LMDES image nor HMDL source.
    Parse(String),
    /// Decoded, but rejected by structural validation / image vetting.
    Validation(String),
    /// HMDL optimization was rejected by the differential oracle.
    Oracle(String),
}

impl ReloadError {
    /// The wire error code this rejection answers with.
    pub fn code(&self) -> ErrorCode {
        match self {
            ReloadError::Io(_) => ErrorCode::General,
            ReloadError::Parse(_) => ErrorCode::Parse,
            ReloadError::Validation(_) => ErrorCode::Validation,
            ReloadError::Oracle(_) => ErrorCode::Oracle,
        }
    }

    /// The rejection reason.
    pub fn message(&self) -> &str {
        match self {
            ReloadError::Io(m)
            | ReloadError::Parse(m)
            | ReloadError::Validation(m)
            | ReloadError::Oracle(m) => m,
        }
    }
}

/// What a successful reload did.
#[derive(Clone, Debug)]
pub enum ReloadOutcome {
    /// A new generation is serving.
    Promoted {
        /// The promoted image.
        image: Arc<ServeImage>,
        /// Whether compilation was skipped via the content cache.
        cache_hit: bool,
    },
    /// The bytes hash identically to the serving image; nothing changed.
    Unchanged {
        /// The (unchanged) serving epoch.
        epoch: u64,
        /// The shared content hash.
        hash: u64,
    },
}

/// Compiles and vets reload source bytes — an LMDES binary image
/// (sniffed by magic) or HMDL source text — without touching any store
/// state.  Pure in `(bytes, seed)`.  An image gets the full [`vet_image`];
/// source gets one oracle-mode guarded run, whose analysis, sample and
/// image serve, and then the serving policy on that image.
pub fn compile_source(bytes: &[u8], seed: u64) -> Result<Arc<CompiledMdes>, ReloadError> {
    if bytes.starts_with(lmdes::MAGIC) {
        let mdes = lmdes::read(bytes)
            .map_err(|e| ReloadError::Parse(format!("bad LMDES image [{}]: {e}", e.code())))?;
        vet_image(&mdes, seed).map_err(ReloadError::Validation)?;
        return Ok(Arc::new(mdes));
    }
    let source = std::str::from_utf8(bytes)
        .map_err(|_| ReloadError::Parse("source is neither LMDES nor UTF-8 HMDL".into()))?;
    let mut spec = mdes_lang::compile(source)
        .map_err(|e| ReloadError::Parse(format!("bad HMDL source: {e}")))?;
    let report = optimize_guarded(
        &mut spec,
        &PipelineConfig::full(),
        &GuardConfig::oracle(seed),
        &Telemetry::disabled(),
    );
    if let Some(mut diag) = report.fatal {
        // A fatal diagnostic is never promoted; the rejection names the line.
        mdes_analyze::anchor_spans(std::slice::from_mut(&mut diag), source);
        let at = diag
            .span
            .map(|(line, col)| format!(" at line {line}:{col}"))
            .unwrap_or_default();
        return Err(ReloadError::Validation(format!(
            "static analysis rejected the description [{}]{at}: {}",
            diag.code, diag.message
        )));
    }
    if let Some(refusal) = refusal(&report.incidents) {
        return Err(refusal);
    }
    let mdes = report
        .image
        .expect("a clean oracle-mode run keeps the image it accepted");
    serving_policy(&mdes).map_err(ReloadError::Validation)?;
    Ok(Arc::new(mdes))
}

/// A reload's answer to guard incidents, by the rule `mdesc verify`
/// exits by: any behavioural mismatch is an oracle rejection, and
/// otherwise the input or a stage output failed to compile or to sample,
/// a validation one.  The guard rolled a bad stage back, but a reload
/// that trips it is of something broken: the old image keeps serving.
fn refusal(incidents: &[GuardIncident]) -> Option<ReloadError> {
    match incidents.iter().find(|i| i.kind.is_oracle()) {
        Some(i) => Some(ReloadError::Oracle(format!(
            "differential oracle rejected stage `{}`: {}",
            i.stage, i.detail
        ))),
        None => incidents.first().map(|i| {
            ReloadError::Validation(format!("guard rejected stage `{}`: {}", i.stage, i.detail))
        }),
    }
}

/// Loads a bundled machine the way the daemon boots it: `build.rs`
/// optimized it with the full pipeline and compiled it to a bit-vector
/// LMDES image when this crate was built, so boot runs only the
/// validating LMDES reader (the paper's Section 4 load step).  Shared by
/// the CLI's `serve` boot path and by the closed-loop client's local
/// verifier, so both sides derive the *same* description (and therefore
/// the same canonical image hash) from a machine name.
pub fn compile_machine(machine: Machine) -> Arc<CompiledMdes> {
    let image: &[u8] = match machine {
        Machine::Pa7100 => include_bytes!(concat!(env!("OUT_DIR"), "/pa7100.lmdes")),
        Machine::Pentium => include_bytes!(concat!(env!("OUT_DIR"), "/pentium.lmdes")),
        Machine::SuperSparc => include_bytes!(concat!(env!("OUT_DIR"), "/supersparc.lmdes")),
        Machine::K5 => include_bytes!(concat!(env!("OUT_DIR"), "/k5.lmdes")),
    };
    Arc::new(lmdes::read(image).expect("build-time boot images always load"))
}

/// The swap point: current image plus the content-keyed compile cache.
#[derive(Debug)]
pub struct ImageStore {
    current: Mutex<Arc<ServeImage>>,
    cache: Mutex<HashMap<u64, Arc<CompiledMdes>>>,
    /// Serializes reloads; request admission never takes this.
    reload: Mutex<()>,
    /// Vetting / oracle seed for every reload through this store.
    seed: u64,
}

impl ImageStore {
    /// Boots the store with an already-trusted description at epoch 0.
    /// The boot hash is taken over the canonical serialized image, so a
    /// later reload of a byte-identical export is recognized as a no-op.
    pub fn new(mdes: Arc<CompiledMdes>, origin: &str, seed: u64) -> ImageStore {
        let hash = content_hash(&lmdes::write(&mdes));
        let image = Arc::new(ServeImage {
            mdes: Arc::clone(&mdes),
            epoch: 0,
            hash,
            origin: origin.to_string(),
        });
        let mut cache = HashMap::new();
        cache.insert(hash, mdes);
        ImageStore {
            current: Mutex::new(image),
            cache: Mutex::new(cache),
            reload: Mutex::new(()),
            seed,
        }
    }

    /// The serving image.  Admission calls this once per request and
    /// holds the returned `Arc` for the request's whole lifetime.
    pub fn current(&self) -> Arc<ServeImage> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// Reloads from raw source bytes: hash, (maybe) compile, vet,
    /// promote.  Concurrent reloads serialize; failure leaves the
    /// serving image untouched.
    pub fn reload_bytes(&self, bytes: &[u8], origin: &str) -> Result<ReloadOutcome, ReloadError> {
        let _serialize = self.reload.lock().unwrap();
        let hash = content_hash(bytes);
        let serving = self.current();
        if serving.hash == hash {
            return Ok(ReloadOutcome::Unchanged {
                epoch: serving.epoch,
                hash,
            });
        }

        let cached = self.cache.lock().unwrap().get(&hash).cloned();
        let (mdes, cache_hit) = match cached {
            Some(mdes) => (mdes, true),
            None => {
                let mdes = compile_source(bytes, self.seed)?;
                let mut cache = self.cache.lock().unwrap();
                if cache.len() >= MAX_CACHED_IMAGES {
                    cache.clear();
                }
                cache.insert(hash, Arc::clone(&mdes));
                (mdes, false)
            }
        };

        let image = Arc::new(ServeImage {
            mdes,
            epoch: serving.epoch + 1,
            hash,
            origin: origin.to_string(),
        });
        *self.current.lock().unwrap() = Arc::clone(&image);
        Ok(ReloadOutcome::Promoted { image, cache_hit })
    }

    /// Reads `path` and reloads from its contents.
    pub fn reload_path(&self, path: &str) -> Result<ReloadOutcome, ReloadError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ReloadError::Io(format!("cannot read `{path}`: {e}")))?;
        self.reload_bytes(&bytes, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::UsageEncoding;
    use mdes_guard::{corrupt_image, FaultKind, ImageFault};
    use mdes_opt::pipeline::StageId;

    fn store(machine: Machine) -> ImageStore {
        let mdes = CompiledMdes::compile(&machine.spec(), UsageEncoding::BitVector).unwrap();
        ImageStore::new(Arc::new(mdes), machine.name(), 11)
    }

    fn image_of(machine: Machine) -> Vec<u8> {
        lmdes::write(&CompiledMdes::compile(&machine.spec(), UsageEncoding::BitVector).unwrap())
    }

    /// The embedded boot images are the images the runtime pipeline
    /// builds.  `build.rs` runs under the build-script profile and this
    /// test under the crate's, so codegen drift between them shows too.
    #[test]
    fn boot_images_match_the_runtime_pipeline() {
        for machine in Machine::all() {
            let mut spec = machine.spec();
            mdes_opt::pipeline::optimize(&mut spec, &PipelineConfig::full());
            let reference = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
            assert!(
                lmdes::write(&compile_machine(machine)) == lmdes::write(&reference),
                "{}: the build-time image differs from the runtime pipeline's",
                machine.name()
            );
        }
    }

    /// A reload cannot change a reply hash: each served machine's bundled
    /// HMDL, reloaded, promotes exactly its boot image.
    #[test]
    fn reloading_a_served_machines_source_rebuilds_its_boot_image() {
        for machine in Machine::all() {
            let reloaded = compile_source(machine.source().as_bytes(), 11)
                .unwrap_or_else(|e| panic!("{}: {e:?}", machine.name()));
            assert!(
                lmdes::write(&reloaded) == lmdes::write(&compile_machine(machine)),
                "{}: the reloaded image differs from the boot image",
                machine.name()
            );
        }
    }

    /// A guard refusal answers with the code `mdesc verify` exits with:
    /// a stage output that fails to compile is a validation rejection,
    /// and a behavioural mismatch an oracle one wherever it falls.
    #[test]
    fn guard_refusals_answer_with_verifys_codes() {
        let code = |faults: &[(StageId, FaultKind)]| {
            let guard = faults
                .iter()
                .fold(GuardConfig::oracle(11), |guard, &(stage, kind)| {
                    guard.with_fault(stage, kind)
                });
            let mut spec = Machine::Pa7100.spec();
            let report = optimize_guarded(
                &mut spec,
                &PipelineConfig::full(),
                &guard,
                &Telemetry::disabled(),
            );
            refusal(&report.incidents).map(|e| e.code())
        };
        let clear = (StageId::Dominance, FaultKind::ClearUsages);
        let drop = (StageId::Factor, FaultKind::DropUsage);
        assert_eq!(code(&[]), None);
        assert_eq!(code(&[clear]), Some(ErrorCode::Validation));
        assert_eq!(code(&[drop]), Some(ErrorCode::Oracle));
        assert_eq!(code(&[clear, drop]), Some(ErrorCode::Oracle));
    }

    #[test]
    fn identical_bytes_are_a_no_op() {
        let store = store(Machine::K5);
        let outcome = store.reload_bytes(&image_of(Machine::K5), "same").unwrap();
        assert!(matches!(outcome, ReloadOutcome::Unchanged { epoch: 0, .. }));
        assert_eq!(store.current().epoch, 0);
    }

    #[test]
    fn promotion_bumps_the_epoch_and_swaps_the_description() {
        let store = store(Machine::K5);
        let before = store.current();
        let outcome = store
            .reload_bytes(&image_of(Machine::Pentium), "pentium.lmdes")
            .unwrap();
        match outcome {
            ReloadOutcome::Promoted { image, cache_hit } => {
                assert!(!cache_hit);
                assert_eq!(image.epoch, 1);
                assert_ne!(image.hash, before.hash);
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        assert_eq!(store.current().epoch, 1);
        // The pre-reload Arc still schedules: in-flight work is safe.
        assert!(!before.mdes.classes().is_empty());
    }

    #[test]
    fn reloading_previously_seen_bytes_hits_the_cache() {
        let store = store(Machine::K5);
        let pentium = image_of(Machine::Pentium);
        let k5 = image_of(Machine::K5);
        store.reload_bytes(&pentium, "p").unwrap();
        // Back to K5: the boot image is cached under its canonical hash.
        match store.reload_bytes(&k5, "k5").unwrap() {
            ReloadOutcome::Promoted { cache_hit, image } => {
                assert!(cache_hit);
                assert_eq!(image.epoch, 2);
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        // And forward again: pentium was cached by the first reload.
        match store.reload_bytes(&pentium, "p").unwrap() {
            ReloadOutcome::Promoted { cache_hit, .. } => assert!(cache_hit),
            other => panic!("expected promotion, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_images_are_rejected_and_the_old_image_keeps_serving() {
        let store = store(Machine::Pa7100);
        let before = store.current();
        let good = image_of(Machine::Pentium);
        for fault in ImageFault::fatal() {
            for seed in 0..4 {
                let bad = corrupt_image(&good, fault, seed);
                let err = store.reload_bytes(&bad, "bad").unwrap_err();
                assert!(
                    matches!(err.code(), ErrorCode::Parse | ErrorCode::Validation),
                    "{fault}: unexpected code for {err:?}"
                );
            }
        }
        let after = store.current();
        assert_eq!(after.epoch, before.epoch);
        assert_eq!(after.hash, before.hash);
    }

    #[test]
    fn fatal_diagnostic_reloads_are_rejected_with_no_swap() {
        let store = store(Machine::K5);
        let before = store.current();

        // HMDL that parses, validates, and can provably never schedule:
        // both AND branches demand ALU@0 (MD001).
        let unsat = "
            resource ALU;
            or_tree A = first_of({ ALU @ 0 });
            or_tree B = first_of({ ALU @ 0 });
            and_or_tree Both = all_of(A, B);
            class stuck { constraint = Both; }
        ";
        let err = store
            .reload_bytes(unsat.as_bytes(), "unsat.hmdl")
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Validation, "{err:?}");
        assert!(err.message().contains("MD001"), "{err:?}");
        assert!(err.message().contains("line"), "span missing: {err:?}");

        // An LMDES image with trailing garbage: the decoder names the
        // fault class (MD105).
        let mut tail = image_of(Machine::Pentium);
        tail.extend_from_slice(b"junk");
        let err = store.reload_bytes(&tail, "tail.lmdes").unwrap_err();
        assert_eq!(err.code(), ErrorCode::Parse, "{err:?}");
        assert!(err.message().contains("MD105"), "{err:?}");

        // No swap happened: the boot image keeps serving.
        let after = store.current();
        assert_eq!(after.epoch, before.epoch);
        assert_eq!(after.hash, before.hash);
    }

    #[test]
    fn hmdl_source_reloads_through_the_guarded_pipeline() {
        let store = store(Machine::K5);
        let source = "
            resource Dec[2];
            or_tree AnyDec = first_of({ Dec[0] @ 0 }, { Dec[1] @ 0 });
            class alu { constraint = AnyDec; }
        ";
        match store
            .reload_bytes(source.as_bytes(), "inline.hmdl")
            .unwrap()
        {
            ReloadOutcome::Promoted { image, .. } => {
                assert_eq!(image.epoch, 1);
                assert_eq!(image.mdes.classes().len(), 1);
            }
            other => panic!("expected promotion, got {other:?}"),
        }

        let err = store
            .reload_bytes(b"class oops { constraint = Nowhere; }", "broken.hmdl")
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Parse);
        assert_eq!(store.current().epoch, 1);
    }
}
