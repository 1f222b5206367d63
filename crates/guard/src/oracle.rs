//! The behavioural oracle: one sample and one record per guarded run.
//!
//! An `oracle`-mode run compiles its validated input once and draws one
//! seeded sample from it:
//!
//! 1. **checker probes** — reserve/release/conflict-query sequences
//!    ([`mdes_core::probe`]), answered by the checker as outcome traces;
//! 2. **schedules** — a [`RegionGenerator`] stream, list-scheduled,
//!    answered as per-operation issue cycles.
//!
//! Both depend only on the class list and the class flags, which every
//! stage keeps, so one sample serves the whole run.  [`Reference`]
//! records the input's answers once; each stage's output is then
//! compiled and observed once, and must reproduce that record exactly.
//! Since every accepted stage reproduces it, the record is also what the
//! pre-stage description answers, so a mismatch is a divergence across
//! that one stage.  Only a rejection compiles the pre-stage snapshot, to
//! minimize the failing probe.
//!
//! A description whose every class is a branch has no region stream
//! (the generator needs a body class), so its sample is the probes
//! alone.

use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::probe::{self, ProbeConfig, ProbeOp};
use mdes_core::spec::MdesSpec;
use mdes_sched::{Block, CheckStats, ListScheduler, SchedScratch};
use mdes_workload::{generate_compiled_regions, RegionConfig};

/// Regions in the schedule sample, of [`RegionConfig::new`]'s mean size.
const REGIONS: usize = 8;

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
    /// A sampled region scheduled differently.
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
pub(crate) struct OracleFailure {
    /// Which check failed.
    pub kind: IncidentKind,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// The minimized failing probe sequence, when a checker probe caught
    /// it (rendered via [`probe::render_sequence`]).
    pub probe: Option<String>,
}

/// The input's answers to the run's one sample.
#[derive(Debug)]
pub(crate) struct Reference {
    sequences: Vec<Vec<ProbeOp>>,
    regions: Vec<Block>,
    traces: Vec<Vec<bool>>,
    cycles: Vec<Vec<i32>>,
}

impl Reference {
    /// Draws the sample for `seed` and records `input`'s answers.
    pub(crate) fn record(input: &CompiledMdes, seed: u64) -> Reference {
        let probes = ProbeConfig {
            seed,
            ..ProbeConfig::default()
        };
        let regions = if input.classes().iter().any(|class| !class.flags.branch) {
            generate_compiled_regions(input, &RegionConfig::new(REGIONS).with_seed(seed)).blocks
        } else {
            Vec::new()
        };
        let mut reference = Reference {
            sequences: probe::generate_sequences(&probes, input.classes().len()),
            regions,
            traces: Vec::new(),
            cycles: Vec::new(),
        };
        reference.traces = reference.traces(input).collect();
        reference.cycles = reference.cycles(input).collect();
        reference
    }

    /// Observes `post`, the compiled output of the stage that turned
    /// `pre` into it, against the record.  `None` means it reproduced
    /// every answer.
    pub(crate) fn check(&self, pre: &MdesSpec, post: &CompiledMdes) -> Option<OracleFailure> {
        if post.classes().len() != pre.num_classes() {
            return Some(OracleFailure {
                kind: IncidentKind::Validation,
                detail: format!(
                    "stage changed the class count: {} -> {}",
                    pre.num_classes(),
                    post.classes().len()
                ),
                probe: None,
            });
        }

        let diverged = self.traces(post).zip(&self.traces).enumerate().find_map(
            |(sequence, (observed, recorded))| {
                let op = observed.iter().zip(recorded).position(|(x, y)| x != y)?;
                Some((sequence, op))
            },
        );
        if let Some((sequence, op)) = diverged {
            let ops = &self.sequences[sequence];
            // The snapshot is the validated input or an accepted stage's
            // output, so it compiles.
            let minimized = match CompiledMdes::compile(pre, UsageEncoding::BitVector) {
                Ok(pre) => probe::minimize_sequence(&pre, post, ops),
                Err(_) => ops[..=op].to_vec(),
            };
            return Some(OracleFailure {
                kind: IncidentKind::OracleProbe,
                detail: format!(
                    "probe sequence {sequence} diverged at op {op} ({} op{} after minimization)",
                    minimized.len(),
                    if minimized.len() == 1 { "" } else { "s" }
                ),
                probe: Some(probe::render_sequence(&minimized)),
            });
        }

        let (region, (after, before)) = self
            .cycles(post)
            .zip(&self.cycles)
            .enumerate()
            .find(|(_, (observed, recorded))| observed != *recorded)?;
        Some(OracleFailure {
            kind: IncidentKind::OracleSchedule,
            detail: format!("region {region} scheduled differently: {before:?} vs {after:?}"),
            probe: None,
        })
    }

    /// `mdes`'s outcome trace for each probe sequence, in order.
    fn traces<'a>(&'a self, mdes: &'a CompiledMdes) -> impl Iterator<Item = Vec<bool>> + 'a {
        self.sequences
            .iter()
            .map(|ops| probe::run_sequence(mdes, ops))
    }

    /// `mdes`'s list-scheduled issue cycles for each region, in order.
    fn cycles<'a>(&'a self, mdes: &'a CompiledMdes) -> impl Iterator<Item = Vec<i32>> + 'a {
        let scheduler = ListScheduler::new(mdes);
        let mut scratch = SchedScratch::new();
        let mut stats = CheckStats::new();
        self.regions.iter().map(move |block| {
            scheduler
                .schedule_in_scratch(block, &mut scratch, &mut stats)
                .cycles()
        })
    }
}
