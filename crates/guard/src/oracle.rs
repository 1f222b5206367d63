//! The differential query oracle for one stage boundary.
//!
//! Given the spec as it stood *before* a stage and the candidate spec the
//! stage produced, the oracle decides whether the two are observably
//! equivalent:
//!
//! 1. **structural validation** — the candidate must satisfy every
//!    [`MdesSpec`] invariant (the existing [`MdesError`] taxonomy);
//! 2. **checker probes** — seeded reserve/release/conflict-query
//!    sequences replay against both compiled forms and their outcome
//!    traces must match ([`mdes_core::probe`]);
//! 3. **schedule replay** — seeded basic blocks are list-scheduled
//!    against both forms and must produce identical issue cycles
//!    ([`mdes_sched::replay`]).
//!
//! Any disagreement yields an [`OracleFailure`] describing what diverged,
//! including a minimized failing probe when the checker level caught it.

use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::probe;
use mdes_core::spec::MdesSpec;
use mdes_sched::replay;

use crate::GuardConfig;

/// Which guard check rejected a stage's output.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// Structural validation failed ([`MdesSpec::validate`] or
    /// compilation of the candidate spec).
    Validation,
    /// Static analysis found a fatal diagnostic — the input description
    /// is provably broken (e.g. an [unsatisfiable class](mdes_analyze))
    /// before any stage runs.
    Analysis,
    /// A checker-level probe sequence diverged.
    OracleProbe,
    /// A replayed basic block scheduled differently.
    OracleSchedule,
}

impl IncidentKind {
    /// Short diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::Validation => "validation",
            IncidentKind::Analysis => "analysis",
            IncidentKind::OracleProbe => "oracle-probe",
            IncidentKind::OracleSchedule => "oracle-schedule",
        }
    }
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rejected stage output: what diverged and the evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleFailure {
    /// Which check failed.
    pub kind: IncidentKind,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// The minimized failing probe sequence, when a checker probe caught
    /// it (rendered via [`probe::render_sequence`]).
    pub probe: Option<String>,
}

/// Runs checks 2 and 3 (the behavioural oracle) on an already
/// structurally-valid candidate.  `None` means observably equivalent.
pub fn differential_check(
    pre: &MdesSpec,
    post: &MdesSpec,
    config: &GuardConfig,
) -> Option<OracleFailure> {
    if pre.num_classes() != post.num_classes() {
        return Some(OracleFailure {
            kind: IncidentKind::Validation,
            detail: format!(
                "stage changed the class count: {} -> {}",
                pre.num_classes(),
                post.num_classes()
            ),
            probe: None,
        });
    }
    let compiled_pre = match CompiledMdes::compile(pre, UsageEncoding::BitVector) {
        Ok(c) => c,
        Err(err) => {
            return Some(OracleFailure {
                kind: IncidentKind::Validation,
                detail: format!("pre-stage spec failed to compile: {err}"),
                probe: None,
            })
        }
    };
    let compiled_post = match CompiledMdes::compile(post, UsageEncoding::BitVector) {
        Ok(c) => c,
        Err(err) => {
            return Some(OracleFailure {
                kind: IncidentKind::Validation,
                detail: format!("post-stage spec failed to compile: {err}"),
                probe: None,
            })
        }
    };

    let sequences = probe::generate_sequences(&config.probe_config(), pre.num_classes());
    if let Some(div) = probe::find_divergence(&compiled_pre, &compiled_post, &sequences) {
        let minimized =
            probe::minimize_sequence(&compiled_pre, &compiled_post, &sequences[div.sequence]);
        return Some(OracleFailure {
            kind: IncidentKind::OracleProbe,
            detail: format!(
                "probe sequence {} diverged at op {} ({} op{} after minimization)",
                div.sequence,
                div.op_index,
                minimized.len(),
                if minimized.len() == 1 { "" } else { "s" }
            ),
            probe: Some(probe::render_sequence(&minimized)),
        });
    }

    let blocks = replay::replay_blocks(pre.num_classes(), &config.replay_config());
    if let Some((block, before, after)) =
        replay::find_schedule_divergence(&compiled_pre, &compiled_post, &blocks)
    {
        return Some(OracleFailure {
            kind: IncidentKind::OracleSchedule,
            detail: format!("replay block {block} scheduled differently: {before:?} vs {after:?}"),
            probe: None,
        });
    }

    None
}
