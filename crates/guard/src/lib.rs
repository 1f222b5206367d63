//! Stage guard for the MDES optimization pipeline.
//!
//! The paper's transformations (Sections 5–8) are argued to be
//! semantics-preserving: "the exact same schedule is produced in each
//! case" (Section 4).  This crate makes the argument executable.  A
//! guarded run wraps every stage of [`mdes_opt::pipeline`] with:
//!
//! 1. a **structural validator** — the candidate spec must satisfy every
//!    [`MdesSpec`](mdes_core::spec::MdesSpec) invariant;
//! 2. a **behavioural oracle** ([`oracle`]) — one seeded sample of probe
//!    sequences and [`RegionGenerator`](mdes_workload::RegionGenerator)
//!    regions is drawn per run, the input's checker traces and issue
//!    cycles are recorded once, and each stage's output must reproduce
//!    that record exactly.
//!
//! When a stage's output is rejected, the guard **rolls the stage back**
//! (the spec and the stage's report, as they stood before the stage, are
//! restored), records a structured [`GuardIncident`] — stage name, seed,
//! and a minimized failing probe — into the telemetry stream, and
//! continues with the remaining stages: graceful degradation instead of
//! a corrupted description.
//!
//! Because the oracle only *reads* the spec, a guarded run whose stages
//! all pass produces byte-identical output to an unguarded run.
//!
//! [`GuardConfig::inject`] carries fault-injection hooks used by the test
//! suite to corrupt stage output on purpose and prove each corruption
//! class ([`FaultKind`]) is detected and recovered from end to end.
//!
//! ```
//! use mdes_guard::{optimize_guarded, GuardConfig, GuardMode};
//! use mdes_opt::pipeline::PipelineConfig;
//!
//! let mut spec = mdes_lang::compile("
//!     resource Dec[2];
//!     or_tree AnyDec = first_of(
//!         { Dec[0] @ -1 },
//!         { Dec[0] @ -1 },   // copy-paste duplicate
//!         { Dec[1] @ -1 });
//!     class alu { constraint = AnyDec; }
//! ").unwrap();
//!
//! let guard = GuardConfig::oracle(42);
//! let report = optimize_guarded(&mut spec, &PipelineConfig::full(), &guard,
//!                               &mdes_telemetry::Telemetry::disabled());
//! assert!(report.incidents.is_empty());
//! assert_eq!(spec.num_options(), 2); // the duplicate still got merged
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod inject;
pub mod oracle;

use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::spec::MdesSpec;
use mdes_opt::pipeline::{
    optimize_with_telemetry, run_stage, stage_plan, PipelineConfig, PipelineReport, StageId,
};
use mdes_telemetry::Telemetry;
use std::fmt;
use std::str::FromStr;

pub use image::{vet_image, ImageVetting, MAX_CHECK_TIME, MAX_LATENCY};
pub use inject::{apply_fault, corrupt_image, Fault, FaultKind, ImageFault};
pub use oracle::IncidentKind;
use oracle::{OracleFailure, Reference};

/// How much checking a guarded run performs per stage.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum GuardMode {
    /// No per-stage checks: identical to the plain pipeline.
    #[default]
    Off,
    /// Structural validation only (cheap).
    Validate,
    /// Structural validation plus the behavioural oracle.
    Oracle,
}

impl GuardMode {
    /// Diagnostic / CLI name (`off`, `validate`, `oracle`).
    pub fn name(self) -> &'static str {
        match self {
            GuardMode::Off => "off",
            GuardMode::Validate => "validate",
            GuardMode::Oracle => "oracle",
        }
    }
}

impl fmt::Display for GuardMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for GuardMode {
    type Err = String;

    fn from_str(s: &str) -> Result<GuardMode, String> {
        match s {
            "off" => Ok(GuardMode::Off),
            "validate" => Ok(GuardMode::Validate),
            "oracle" => Ok(GuardMode::Oracle),
            other => Err(format!(
                "unknown guard mode `{other}` (expected off, validate or oracle)"
            )),
        }
    }
}

/// Configuration of a guarded pipeline run.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardConfig {
    /// Checking level.
    pub mode: GuardMode,
    /// Master seed for the oracle's probe sequences and regions.  An
    /// incident records this seed; re-running with it reproduces the
    /// divergence.
    pub seed: u64,
    /// Fault-injection hooks: corrupt the named stages' output before the
    /// guard checks them.  Test-only; empty in production runs.
    pub inject: Vec<Fault>,
    /// Run the [`mdes_analyze`] static pass on the input spec before any
    /// stage.  A fatal diagnostic (unsatisfiable class, latency-window
    /// overflow) refuses the pipeline the same way invalid input does —
    /// there is no point sampling the behaviour of a description that
    /// can never schedule.  Ignored under [`GuardMode::Off`].
    pub analyze: bool,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            mode: GuardMode::Off,
            seed: 0x4d44_4553, // "MDES"
            inject: Vec::new(),
            analyze: true,
        }
    }
}

impl GuardConfig {
    /// Validation-only guard with the default seed.
    pub fn validate_only() -> GuardConfig {
        GuardConfig {
            mode: GuardMode::Validate,
            ..GuardConfig::default()
        }
    }

    /// Full oracle guard with the given seed.
    pub fn oracle(seed: u64) -> GuardConfig {
        GuardConfig {
            mode: GuardMode::Oracle,
            seed,
            ..GuardConfig::default()
        }
    }

    /// Adds a fault-injection hook (builder style, for tests).
    pub fn with_fault(mut self, stage: StageId, kind: FaultKind) -> GuardConfig {
        self.inject.push(Fault { stage, kind });
        self
    }
}

/// One rejected (and rolled-back) stage.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardIncident {
    /// Name of the stage whose output was rejected (or `"input"` when the
    /// initial spec itself failed validation).
    pub stage: String,
    /// The seed that generated the failing probes; replaying with it
    /// reproduces the divergence.
    pub seed: u64,
    /// Which check rejected the stage.
    pub kind: IncidentKind,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// Minimized failing probe script, when a checker probe caught it.
    pub probe: Option<String>,
}

impl fmt::Display for GuardIncident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] stage `{}` (seed {}): {}",
            self.kind, self.stage, self.seed, self.detail
        )?;
        if let Some(probe) = &self.probe {
            write!(f, "; probe: {probe}")?;
        }
        Ok(())
    }
}

/// The result of a guarded pipeline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GuardedReport {
    /// Per-stage transformation reports, for stages that were kept: a
    /// rolled-back stage's entry is restored with its spec.
    pub pipeline: PipelineReport,
    /// Every rejected stage, in pipeline order.
    pub incidents: Vec<GuardIncident>,
    /// Stages executed.
    pub stages_run: usize,
    /// Stages rejected and rolled back.
    pub stages_rolled_back: usize,
    /// Descriptions of injected faults that found an applicable site.
    pub injected: Vec<String>,
}

impl GuardedReport {
    /// True when every stage's output was accepted.
    pub fn clean(&self) -> bool {
        self.incidents.is_empty()
    }

    /// True if any incident is a structural-validation failure.
    pub fn has_validation_incident(&self) -> bool {
        self.incidents
            .iter()
            .any(|i| i.kind == IncidentKind::Validation)
    }

    /// True if any incident is a behavioural-oracle mismatch.
    pub fn has_oracle_incident(&self) -> bool {
        self.incidents.iter().any(|i| {
            matches!(
                i.kind,
                IncidentKind::OracleProbe | IncidentKind::OracleSchedule
            )
        })
    }
}

/// Records `incident` into `tel` as counters plus a structured
/// `guard/incident` event.
fn record_incident(tel: &Telemetry, incident: &GuardIncident) {
    tel.counter_add("guard/incidents", 1);
    tel.counter_add(&format!("guard/incidents/{}", incident.stage), 1);
    let seed = incident.seed.to_string();
    let mut fields: Vec<(&str, &str)> = vec![
        ("stage", incident.stage.as_str()),
        ("seed", seed.as_str()),
        ("kind", incident.kind.name()),
        ("detail", incident.detail.as_str()),
    ];
    if let Some(probe) = &incident.probe {
        fields.push(("probe", probe.as_str()));
    }
    tel.event("guard/incident", &fields);
}

/// Checks one stage's output, `post`, made from the snapshot `pre`: it
/// must validate and, under the oracle, reproduce `reference`.
fn check_stage(
    pre: &MdesSpec,
    post: &MdesSpec,
    reference: Option<&Reference>,
) -> Option<OracleFailure> {
    let invalid = |err| OracleFailure {
        kind: IncidentKind::Validation,
        detail: format!("structural validation failed: {err}"),
        probe: None,
    };
    let Some(reference) = reference else {
        return post.validate().err().map(invalid);
    };
    // Compiling validates first, with the same error.
    match CompiledMdes::compile(post, UsageEncoding::BitVector) {
        Ok(compiled) => reference.check(pre, &compiled),
        Err(err) => Some(invalid(err)),
    }
}

/// Runs the configured pipeline on `spec` under the guard.
///
/// With [`GuardMode::Off`] and no injected faults this is exactly
/// [`mdes_opt::pipeline::optimize_with_telemetry`].  Otherwise each stage
/// runs against a snapshot boundary: its output is validated (and, in
/// [`GuardMode::Oracle`], observed against the input's record) before
/// being accepted; a rejected stage's spec and report are rolled back,
/// the incident is recorded, and the run continues.
pub fn optimize_guarded(
    spec: &mut MdesSpec,
    pipeline: &PipelineConfig,
    guard: &GuardConfig,
    tel: &Telemetry,
) -> GuardedReport {
    if guard.mode == GuardMode::Off && guard.inject.is_empty() {
        return GuardedReport {
            pipeline: optimize_with_telemetry(spec, pipeline, tel),
            ..GuardedReport::default()
        };
    }

    let mut report = GuardedReport::default();
    let _guard_span = tel.span("guard");

    // An invalid *input* is not a stage bug: record it and refuse to run
    // the pipeline on it at all (there is nothing to roll back to).  The
    // oracle compiles the input, which validates it first.
    let input = match guard.mode {
        GuardMode::Off => Ok(None),
        GuardMode::Validate => spec.validate().map(|()| None),
        GuardMode::Oracle => CompiledMdes::compile(spec, UsageEncoding::BitVector).map(Some),
    };
    let input = match input {
        Ok(input) => input,
        Err(err) => {
            let incident = GuardIncident {
                stage: "input".to_string(),
                seed: guard.seed,
                kind: IncidentKind::Validation,
                detail: format!("input spec failed validation: {err}"),
                probe: None,
            };
            record_incident(tel, &incident);
            report.incidents.push(incident);
            return report;
        }
    };

    // Static analysis sits between validation and the oracle: a spec
    // with a fatal diagnostic is structurally fine but provably unable
    // to do its job, so refuse to optimize it (nothing to roll back to).
    if guard.mode != GuardMode::Off && guard.analyze {
        let analysis = mdes_analyze::analyze_spec_with_telemetry(spec, tel);
        if let Some(diag) = analysis.first_fatal() {
            let incident = GuardIncident {
                stage: "analyze".to_string(),
                seed: guard.seed,
                kind: IncidentKind::Analysis,
                detail: format!("static analysis found {}: {}", diag.code, diag.message),
                probe: None,
            };
            record_incident(tel, &incident);
            report.incidents.push(incident);
            return report;
        }
    }

    let reference = input.map(|input| Reference::record(&input, guard.seed));
    let _pipeline_span = tel.span("pipeline");
    for stage in stage_plan(pipeline) {
        let snapshot = (spec.clone(), report.pipeline.clone());
        run_stage(spec, stage, pipeline, &mut report.pipeline, tel);
        report.stages_run += 1;
        tel.counter_add("guard/stages", 1);

        for fault in guard.inject.iter().filter(|f| f.stage == stage) {
            if let Some(what) = apply_fault(spec, fault.kind) {
                report.injected.push(format!("{}: {what}", stage.name()));
            }
        }

        if guard.mode == GuardMode::Off {
            continue;
        }
        if let Some(failure) = check_stage(&snapshot.0, spec, reference.as_ref()) {
            (*spec, report.pipeline) = snapshot;
            report.stages_rolled_back += 1;
            tel.counter_add("guard/rollbacks", 1);
            let incident = GuardIncident {
                stage: stage.name().to_string(),
                seed: guard.seed,
                kind: failure.kind,
                detail: failure.detail,
                probe: failure.probe,
            };
            record_incident(tel, &incident);
            report.incidents.push(incident);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::spec::{Constraint, Latency, OpFlags, OrTree, TableOption};
    use mdes_core::usage::ResourceUsage;
    use mdes_core::ResourceId;

    fn u(r: usize, t: i32) -> ResourceUsage {
        ResourceUsage::new(ResourceId::from_index(r), t)
    }

    /// Two decoders feeding a shared bus: duplicates to merge, distinct
    /// priorities, and enough contention for probes to observe anything.
    fn contended_spec() -> MdesSpec {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("Dec", 2).unwrap();
        spec.resources_mut().add("Bus").unwrap();
        let d0 = spec.add_option(TableOption::new(vec![u(0, 0), u(2, 1)]));
        let d0_dup = spec.add_option(TableOption::new(vec![u(0, 0), u(2, 1)]));
        let d1 = spec.add_option(TableOption::new(vec![u(1, 0), u(2, 1)]));
        let dec = spec.add_or_tree(OrTree::named("Dec", vec![d0, d0_dup, d1]));
        spec.add_class("op", Constraint::Or(dec), Latency::new(1), OpFlags::none())
            .unwrap();
        spec
    }

    #[test]
    fn clean_run_has_no_incidents_and_matches_unguarded() {
        let mut guarded = contended_spec();
        let mut plain = contended_spec();
        let report = optimize_guarded(
            &mut guarded,
            &PipelineConfig::full(),
            &GuardConfig::oracle(7),
            &Telemetry::disabled(),
        );
        mdes_opt::pipeline::optimize(&mut plain, &PipelineConfig::full());
        assert!(report.clean());
        assert_eq!(guarded, plain);
        assert!(report.stages_run > 0);
        assert_eq!(report.stages_rolled_back, 0);
    }

    #[test]
    fn invalid_input_is_reported_not_optimized() {
        let mut spec = MdesSpec::new(); // no classes: invalid
        let report = optimize_guarded(
            &mut spec,
            &PipelineConfig::full(),
            &GuardConfig::validate_only(),
            &Telemetry::disabled(),
        );
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].stage, "input");
        assert_eq!(report.stages_run, 0);
    }

    #[test]
    fn fatally_diagnosed_input_is_refused_before_any_stage() {
        // Two AND branches pinned to the same (resource, cycle) cell:
        // structurally valid, statically unschedulable (MD001).
        let mut spec = MdesSpec::new();
        spec.resources_mut().add("ALU").unwrap();
        let a = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let b = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let ta = spec.add_or_tree(OrTree::new(vec![a]));
        let tb = spec.add_or_tree(OrTree::new(vec![b]));
        let and = spec.add_and_or_tree(mdes_core::spec::AndOrTree::new(vec![ta, tb]));
        spec.add_class(
            "stuck",
            Constraint::AndOr(and),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        spec.validate().unwrap();

        let report = optimize_guarded(
            &mut spec,
            &PipelineConfig::full(),
            &GuardConfig::validate_only(),
            &Telemetry::disabled(),
        );
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].stage, "analyze");
        assert_eq!(report.incidents[0].kind, IncidentKind::Analysis);
        assert!(report.incidents[0].detail.contains("MD001"));
        assert_eq!(report.stages_run, 0);

        // Opting out of the analyze stage restores the old behaviour: the
        // pipeline runs (the oracle itself cannot observe the defect —
        // the class fails to schedule identically before and after).
        let mut opted_out = spec.clone();
        let report = optimize_guarded(
            &mut opted_out,
            &PipelineConfig::full(),
            &GuardConfig {
                analyze: false,
                ..GuardConfig::validate_only()
            },
            &Telemetry::disabled(),
        );
        assert!(report.clean());
        assert!(report.stages_run > 0);
    }

    #[test]
    fn guard_mode_parses_and_displays() {
        for mode in [GuardMode::Off, GuardMode::Validate, GuardMode::Oracle] {
            assert_eq!(mode.name().parse::<GuardMode>().unwrap(), mode);
        }
        assert!("sometimes".parse::<GuardMode>().is_err());
    }

    #[test]
    fn incident_display_includes_probe() {
        let incident = GuardIncident {
            stage: "factor".to_string(),
            seed: 9,
            kind: IncidentKind::OracleProbe,
            detail: "diverged".to_string(),
            probe: Some("reserve c0@0; reserve c0@0".to_string()),
        };
        let text = incident.to_string();
        assert!(text.contains("factor"));
        assert!(text.contains("seed 9"));
        assert!(text.contains("probe: reserve"));
    }
}
