//! The behavioural oracle: one sample and one record per guarded run.
//!
//! A [`Sample`] is one seeded draw of a description's behaviour: checker
//! probe sequences ([`mdes_core::probe`]), answered as outcome traces,
//! and a [`RegionGenerator`](mdes_workload::RegionGenerator) stream,
//! answered as list-scheduled issue cycles, each schedule verified.  Both
//! depend only on the class list and flags, which every stage keeps.  A
//! description whose every class is a branch has no region stream (the
//! generator needs a body class), so its sample is the probes alone.
//! Image vetting ([`crate::image`]) draws the same type at its own size.
//!
//! An `oracle`-mode run draws one sample from its compiled input, and
//! [`Reference`] records the input's answers once; each stage's output is
//! then compiled and observed once, and must reproduce that record
//! exactly.  Since every accepted stage reproduces it, the record is also
//! what the pre-stage description answers, so a mismatch is a divergence
//! across that one stage.  Only a rejection compiles the pre-stage
//! snapshot, to minimize the failing probe.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::probe::{self, ProbeConfig, ProbeOp};
use mdes_core::spec::MdesSpec;
use mdes_sched::{Block, CheckStats, ListScheduler, SchedScratch};
use mdes_workload::{generate_compiled_regions, RegionConfig};

use crate::GuardIncident;

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

    /// True for a behavioural-oracle mismatch (a probe or a schedule).
    pub fn is_oracle(self) -> bool {
        matches!(
            self,
            IncidentKind::OracleProbe | IncidentKind::OracleSchedule
        )
    }
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The input's answers to the run's one sample.
#[derive(Debug)]
pub(crate) struct Reference {
    seed: u64,
    sample: Sample,
    traces: Vec<Vec<bool>>,
    cycles: Vec<Vec<i32>>,
}

impl Reference {
    /// Draws the sample for `seed` and records `input`'s answers; `Err`
    /// says how observing the input failed.
    pub(crate) fn record(input: &CompiledMdes, seed: u64) -> Result<Reference, String> {
        let probes = ProbeConfig {
            seed,
            ..ProbeConfig::default()
        };
        let sample = Sample::draw(input, &probes, &RegionConfig::new(8).with_seed(seed));
        Ok(Reference {
            seed,
            traces: sample.traces(input)?,
            cycles: sample.cycles(input)?,
            sample,
        })
    }

    /// Observes `post`, the compiled output of `stage`, which turned `pre`
    /// into it, against the record: `Ok` means it reproduced every answer.
    pub(crate) fn check(
        &self,
        stage: &str,
        pre: &MdesSpec,
        post: &CompiledMdes,
    ) -> Result<(), GuardIncident> {
        let incident = |kind, detail| GuardIncident::new(stage, self.seed, kind, detail);
        if post.classes().len() != pre.num_classes() {
            let detail = format!(
                "stage changed the class count: {} -> {}",
                pre.num_classes(),
                post.classes().len()
            );
            return Err(incident(IncidentKind::Validation, detail));
        }

        let traces = self.sample.traces(post);
        let traces = traces.map_err(|why| incident(IncidentKind::OracleProbe, why))?;
        let diverged = traces.iter().zip(&self.traces).enumerate().find_map(
            |(sequence, (observed, recorded))| {
                let op = observed.iter().zip(recorded).position(|(x, y)| x != y)?;
                Some((sequence, op))
            },
        );
        if let Some((sequence, op)) = diverged {
            let ops = &self.sample.sequences[sequence];
            // The snapshot is the validated input or an accepted stage's
            // output, so it compiles.
            let minimized = match CompiledMdes::compile(pre, UsageEncoding::BitVector) {
                Ok(pre) => probe::minimize_sequence(&pre, post, ops),
                Err(_) => ops[..=op].to_vec(),
            };
            let detail = format!(
                "probe sequence {sequence} diverged at op {op} ({} op{} after minimization)",
                minimized.len(),
                if minimized.len() == 1 { "" } else { "s" }
            );
            return Err(GuardIncident {
                probe: Some(probe::render_sequence(&minimized)),
                ..incident(IncidentKind::OracleProbe, detail)
            });
        }

        let schedule = |why| incident(IncidentKind::OracleSchedule, why);
        let cycles = self.sample.cycles(post).map_err(schedule)?;
        let mut regions = cycles.iter().zip(&self.cycles).enumerate();
        match regions.find(|(_, (observed, recorded))| observed != recorded) {
            Some((region, (after, before))) => Err(schedule(format!(
                "region {region} scheduled differently: {before:?} vs {after:?}"
            ))),
            None => Ok(()),
        }
    }
}

/// A seeded draw of probe sequences and regions.
#[derive(Debug)]
pub(crate) struct Sample {
    pub(crate) sequences: Vec<Vec<ProbeOp>>,
    pub(crate) regions: Vec<Block>,
}

impl Sample {
    /// Draws `probes`' sequences and `stream`'s regions over `mdes`'s classes.
    pub(crate) fn draw(mdes: &CompiledMdes, probes: &ProbeConfig, stream: &RegionConfig) -> Sample {
        let has_body = mdes.classes().iter().any(|class| !class.flags.branch);
        Sample {
            sequences: probe::generate_sequences(probes, mdes.classes().len()),
            regions: if has_body {
                generate_compiled_regions(mdes, stream).blocks
            } else {
                Vec::new()
            },
        }
    }

    /// `mdes`'s outcome trace for each probe sequence, in order.  This
    /// and [`Sample::cycles`] catch a panic as an error.
    pub(crate) fn traces(&self, mdes: &CompiledMdes) -> Result<Vec<Vec<bool>>, String> {
        catch_unwind(AssertUnwindSafe(|| {
            let trace = |ops: &Vec<ProbeOp>| probe::run_sequence(mdes, ops);
            self.sequences.iter().map(trace).collect()
        }))
        .map_err(|_| "a probe sequence panicked inside the checker".to_string())
    }

    /// `mdes`'s issue cycles for each region, in order, each schedule
    /// verified through the scheduler's scratch.
    pub(crate) fn cycles(&self, mdes: &CompiledMdes) -> Result<Vec<Vec<i32>>, String> {
        catch_unwind(AssertUnwindSafe(|| {
            let scheduler = ListScheduler::new(mdes);
            let (mut scratch, mut stats) = (SchedScratch::new(), CheckStats::new());
            let mut cycles = Vec::with_capacity(self.regions.len());
            for (index, block) in self.regions.iter().enumerate() {
                let schedule = scheduler.schedule_in_scratch(block, &mut scratch, &mut stats);
                cycles.push(schedule.cycles());
                scratch
                    .verify(mdes)
                    .map_err(|why| format!("region {index} failed to verify: {why}"))?;
            }
            Ok(cycles)
        }))
        .unwrap_or_else(|_| Err("a region panicked inside the scheduler".to_string()))
    }
}
