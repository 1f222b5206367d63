//! End-to-end guard tests: every fault-injection corruption class must be
//! detected by the oracle, rolled back, surfaced in telemetry, and must
//! not prevent the remaining stages from running; a clean run must be
//! invisible (zero incidents, byte-identical output).

use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::lmdes;
use mdes_core::probe::{generate_sequences, run_sequence, ProbeConfig};
use mdes_core::spec::MdesSpec;
use mdes_guard::{optimize_guarded, FaultKind, GuardConfig, GuardMode, IncidentKind};
use mdes_machines::Machine;
use mdes_opt::pipeline::{optimize, PipelineConfig, PipelineReport, StageId};
use mdes_telemetry::Telemetry;

/// A machine with enough structure for every corruption class to have an
/// applicable, *observable* site.  The decode options use **disjoint**
/// resources (so neither is dead and priority matters), and two
/// single-resource classes can observe exactly which side effect a decode
/// option had — the probes that distinguish a priority reversal.
fn fixture() -> MdesSpec {
    mdes_lang::compile(
        "
        resource Dec[2];
        resource Bus;
        resource Port;
        or_tree AnyDec = first_of(
            { Dec[0] @ 0, Port @ 1 },
            { Dec[1] @ 0, Bus @ 1 });
        or_tree BusT  = first_of({ Bus @ 0 });
        or_tree PortT = first_of({ Port @ 0 });
        class alu     { constraint = AnyDec; latency = 1; }
        class bus_op  { constraint = BusT;   latency = 1; }
        class port_op { constraint = PortT;  latency = 2; }
        ",
    )
    .expect("fixture must compile")
}

/// Runs the full pipeline with `kind` injected after `stage`, returning
/// the guarded report, telemetry report, and the resulting spec.
fn run_injected(
    stage: StageId,
    kind: FaultKind,
) -> (mdes_guard::GuardedReport, mdes_telemetry::Report, MdesSpec) {
    let mut spec = fixture();
    let tel = Telemetry::new();
    let guard = GuardConfig::oracle(1234).with_fault(stage, kind);
    let report = optimize_guarded(&mut spec, &PipelineConfig::full(), &guard, &tel);
    (report, tel.report(), spec)
}

/// Whether `report` holds an entry for `stage`.
fn has_report(report: &PipelineReport, stage: StageId) -> bool {
    match stage {
        StageId::Redundancy => report.redundancy.is_some(),
        StageId::Dominance => report.dominance.is_some(),
        StageId::TimeShift => report.timeshift.is_some(),
        StageId::SortZero => report.sortzero.is_some(),
        StageId::TreeSort => report.treesort.is_some(),
        StageId::Factor => report.factor.is_some(),
    }
}

/// Asserts the common detection + rollback + continue contract for one
/// corruption class injected at `stage`.
fn assert_detected_and_recovered(stage: StageId, kind: FaultKind) {
    let (report, tel, spec) = run_injected(stage, kind);

    // The fault found a site and the guard rejected exactly that stage.
    assert!(
        !report.injected.is_empty(),
        "{kind}: fault found no applicable site in the fixture"
    );
    assert_eq!(
        report.incidents.len(),
        1,
        "{kind}: expected exactly one incident, got {:?}",
        report.incidents
    );
    let incident = &report.incidents[0];
    assert_eq!(incident.stage, stage.name(), "{kind}: wrong stage blamed");
    assert_eq!(incident.seed, 1234);
    assert_eq!(report.stages_rolled_back, 1);

    // Rollback-then-continue: the remaining stages still ran …
    assert_eq!(report.stages_run, 6, "{kind}: pipeline stopped early");
    // … and only the kept stages' reports survive the rollback.
    for other in StageId::all() {
        assert_eq!(
            has_report(&report.pipeline, other),
            other != stage,
            "{kind}: report entry for {other}"
        );
    }
    if stage == StageId::Factor {
        assert_eq!(report.pipeline.cleanup, None, "{kind}: cleanup report kept");
    }
    // … and the surviving spec is exactly what the pipeline produces when
    // the corrupted stage is skipped outright (the rollback semantics).
    assert!(spec.validate().is_ok(), "{kind}: rolled-back spec invalid");

    // The corrupted result must NOT equal the healthy pipeline output of
    // that stage being applied with the corruption kept: i.e. the guard
    // actually discarded the damage.  Verify behaviourally — the guarded
    // spec must answer probes exactly like the never-corrupted input.
    let probes = generate_sequences(
        &ProbeConfig {
            seed: 1234,
            ..ProbeConfig::default()
        },
        spec.num_classes(),
    );
    let healthy = CompiledMdes::compile(&fixture(), UsageEncoding::BitVector).unwrap();
    let survived = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    for ops in &probes {
        assert_eq!(
            run_sequence(&healthy, ops),
            run_sequence(&survived, ops),
            "{kind}: surviving spec is not behaviourally equivalent to the input"
        );
    }

    // The incident surfaced in the telemetry JSON.
    assert_eq!(tel.counter("guard/incidents"), Some(1));
    assert_eq!(
        tel.counter(&format!("guard/incidents/{}", stage.name())),
        Some(1)
    );
    let events: Vec<_> = tel.events_named("guard/incident").collect();
    assert_eq!(events.len(), 1, "{kind}: missing guard/incident event");
    assert_eq!(events[0].fields["stage"], stage.name());
    assert_eq!(events[0].fields["seed"], "1234");
    let json = tel.to_json();
    assert!(
        json.contains("guard/incident"),
        "{kind}: incident absent from telemetry JSON"
    );
    let parsed = mdes_telemetry::Report::from_json(&json).unwrap();
    assert_eq!(parsed.events_named("guard/incident").count(), 1);
}

#[test]
fn dropped_usage_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::Redundancy, FaultKind::DropUsage);
}

#[test]
fn priority_reorder_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::Dominance, FaultKind::ReorderPriority);
}

#[test]
fn bad_timeshift_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::TimeShift, FaultKind::ShiftTime);
}

#[test]
fn over_packing_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::Factor, FaultKind::OverPack);
}

#[test]
fn cleared_usages_are_caught_by_the_validator_layer_alone() {
    // A structurally-invalid stage output is rejected even in the cheap
    // `validate` mode — the oracle is not needed for this class.
    let mut spec = fixture();
    let guard = GuardConfig {
        mode: GuardMode::Validate,
        ..GuardConfig::default()
    }
    .with_fault(StageId::Dominance, FaultKind::ClearUsages);
    let tel = Telemetry::new();
    let report = optimize_guarded(&mut spec, &PipelineConfig::full(), &guard, &tel);
    assert!(!report.injected.is_empty());
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].kind, IncidentKind::Validation);
    assert_eq!(report.incidents[0].stage, StageId::Dominance.name());
    assert_eq!(report.stages_rolled_back, 1);
    assert_eq!(report.stages_run, 6);
    assert!(spec.validate().is_ok());
    assert_eq!(tel.report().counter("guard/incidents"), Some(1));
}

#[test]
fn incident_records_a_minimized_probe_for_checker_divergences() {
    let (report, _, _) = run_injected(StageId::Redundancy, FaultKind::DropUsage);
    let incident = &report.incidents[0];
    if incident.kind == IncidentKind::OracleProbe {
        let probe = incident.probe.as_deref().expect("probe missing");
        assert!(
            probe.contains("reserve") || probe.contains("query"),
            "{probe}"
        );
        // A minimized witness is short; the full sequence is 32 ops.
        assert!(probe.split(';').count() <= 8, "not minimized: {probe}");
    } else {
        panic!("drop-usage should diverge at the checker level: {incident}");
    }
}

#[test]
fn validate_mode_refuses_a_structurally_broken_input() {
    let mut spec = mdes_lang::compile(
        "resource ALU;
         resource Bus;
         or_tree A = first_of({ ALU @ 0, Bus @ 0 });
         class alu { constraint = A; latency = 1; }",
    )
    .unwrap();
    // Corrupt into a structurally-broken state: an empty option.
    let opt = spec.option_ids().next().unwrap();
    spec.option_mut(opt).usages.clear();
    assert!(spec.validate().is_err());

    let tel = Telemetry::new();
    let report = optimize_guarded(
        &mut spec,
        &PipelineConfig::full(),
        &GuardConfig::validate_only(),
        &tel,
    );
    assert!(report.has_validation_incident());
    assert_eq!(report.incidents[0].stage, "input");
    assert_eq!(report.stages_run, 0);
    assert_eq!(tel.report().counter("guard/incidents"), Some(1));
}

#[test]
fn guard_mode_off_lets_injected_corruption_through() {
    // The control experiment: with the guard off the same corruption
    // ships silently — exactly the failure mode the guard exists to stop.
    let mut spec = fixture();
    let guard = GuardConfig {
        mode: GuardMode::Off,
        inject: vec![mdes_guard::Fault {
            stage: StageId::Redundancy,
            kind: FaultKind::DropUsage,
        }],
        ..GuardConfig::default()
    };
    let report = optimize_guarded(
        &mut spec,
        &PipelineConfig::full(),
        &guard,
        &Telemetry::disabled(),
    );
    assert!(report.incidents.is_empty());
    assert!(!report.injected.is_empty());
    // The damage is present in the output: fewer total usages than the
    // healthy pipeline would leave.
    let mut healthy = fixture();
    optimize(&mut healthy, &PipelineConfig::full());
    let usages =
        |s: &MdesSpec| -> usize { s.option_ids().map(|id| s.option(id).usages.len()).sum() };
    assert!(usages(&spec) < usages(&healthy));
}

#[test]
fn bundled_machines_run_clean_and_byte_identical() {
    for machine in Machine::all() {
        let base = machine.spec();

        let mut unguarded = base.clone();
        optimize(&mut unguarded, &PipelineConfig::full());

        let mut guarded = base.clone();
        let tel = Telemetry::new();
        let report = optimize_guarded(
            &mut guarded,
            &PipelineConfig::full(),
            &GuardConfig::oracle(2024),
            &tel,
        );

        assert!(
            report.clean(),
            "{}: unexpected incidents: {:?}",
            machine.name(),
            report.incidents
        );
        assert_eq!(tel.report().counter("guard/incidents"), None);
        assert_eq!(guarded, unguarded, "{}: specs differ", machine.name());

        // Byte-identical low-level output.
        let img_a =
            lmdes::write(&CompiledMdes::compile(&unguarded, UsageEncoding::BitVector).unwrap());
        let img_b =
            lmdes::write(&CompiledMdes::compile(&guarded, UsageEncoding::BitVector).unwrap());
        assert_eq!(img_a, img_b, "{}: LMDES images differ", machine.name());
    }
}

#[test]
fn incidents_reproduce_from_their_seed() {
    // Same seed, same fault: the guard must report the identical incident
    // twice (determinism is what makes stored incidents actionable).
    let (a, _, _) = run_injected(StageId::Redundancy, FaultKind::DropUsage);
    let (b, _, _) = run_injected(StageId::Redundancy, FaultKind::DropUsage);
    assert_eq!(a.incidents, b.incidents);
    // A different seed may find a different witness but must still detect.
    let mut spec = fixture();
    let guard = GuardConfig::oracle(999).with_fault(StageId::Redundancy, FaultKind::DropUsage);
    let report = optimize_guarded(
        &mut spec,
        &PipelineConfig::full(),
        &guard,
        &Telemetry::disabled(),
    );
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].seed, 999);
}

#[test]
fn behavioural_faults_after_factor_are_caught_on_bundled_descriptions() {
    // Each behavioural fault kind planted in each bundled description's
    // fully optimized form.  An exact search over the issue automata
    // (ROADMAP item 5) calls exactly these four plantings equivalent to
    // the unfaulted description, so a sound guard must pass them; every
    // other planting changes behaviour and must be rolled back.
    let equivalent = [
        "pentium drop-usage: factor: dropped usage r4@0 from option 0",
        "k5 reorder-priority: factor: reversed option priorities of or-tree 0",
        "pentiumpro drop-usage: factor: dropped usage r7@0 from option 6",
        "superspark_approx reorder-priority: factor: reversed option priorities of or-tree 0",
    ];
    let kinds = [
        FaultKind::DropUsage,
        FaultKind::ReorderPriority,
        FaultKind::ShiftTime,
        FaultKind::OverPack,
    ];
    let mut passed = Vec::new();
    let mut rejected = 0;
    for (name, base) in mdes_machines::bundled() {
        for kind in kinds {
            let mut spec = base.clone();
            let guard = GuardConfig::oracle(42).with_fault(StageId::Factor, kind);
            let report = optimize_guarded(
                &mut spec,
                &PipelineConfig::full(),
                &guard,
                &Telemetry::disabled(),
            );
            assert_eq!(report.injected.len(), 1, "{name} {kind}: no site");
            if report.clean() {
                passed.push(format!("{name} {kind}: {}", report.injected[0]));
                continue;
            }
            assert_eq!(report.incidents.len(), 1, "{name} {kind}");
            assert_eq!(report.incidents[0].stage, "factor", "{name} {kind}");
            assert!(report.has_oracle_incident(), "{name} {kind}");
            assert_eq!(report.stages_rolled_back, 1, "{name} {kind}");
            rejected += 1;
        }
    }
    assert_eq!(passed, equivalent);
    assert_eq!(rejected, 20);
}

#[test]
fn a_branch_only_description_is_sampled_by_probes_alone() {
    // A region needs a non-branch body class, so a description whose
    // only class is a branch gets no schedule sample; the probes still
    // cover it, and the guard must neither panic nor lose detection.
    let source = "
        resource Dec[2];
        resource BR;
        or_tree AnyDec = first_of(
            { Dec[0] @ 0, BR @ 1 },
            { Dec[0] @ 0, BR @ 1 },
            { Dec[1] @ 0, BR @ 1 });
        class branch { constraint = AnyDec; latency = 1; flags = branch; }
    ";
    let base = mdes_lang::compile(source).unwrap();
    let mut plain = base.clone();
    optimize(&mut plain, &PipelineConfig::full());

    let mut guarded = base.clone();
    let report = optimize_guarded(
        &mut guarded,
        &PipelineConfig::full(),
        &GuardConfig::oracle(42),
        &Telemetry::disabled(),
    );
    assert!(report.clean(), "{:?}", report.incidents);
    assert_eq!(report.stages_run, 6);
    assert_eq!(guarded, plain);

    let mut faulty = base;
    let guard = GuardConfig::oracle(42).with_fault(StageId::Redundancy, FaultKind::DropUsage);
    let report = optimize_guarded(
        &mut faulty,
        &PipelineConfig::full(),
        &guard,
        &Telemetry::disabled(),
    );
    assert_eq!(report.incidents.len(), 1, "{:?}", report.incidents);
    assert_eq!(report.incidents[0].kind, IncidentKind::OracleProbe);
    assert_eq!(faulty, plain);
}

#[test]
fn the_returned_image_is_the_compiled_spec_the_guard_leaves() {
    // A caller that admits the guard's output promotes this image, so it
    // must be exactly what compiling the surviving spec gives: on clean
    // runs, and after a rollback, where it is the last accepted stage's.
    let fleet = mdes_workload::fleet(42, 16)
        .into_iter()
        .map(|machine| (machine.name, machine.spec));
    for (name, mut spec) in mdes_machines::bundled().into_iter().chain(fleet) {
        let report = optimize_guarded(
            &mut spec,
            &PipelineConfig::full(),
            &GuardConfig::oracle(42),
            &Telemetry::disabled(),
        );
        assert!(report.clean(), "{name}: {:?}", report.incidents);
        let image = report.image.expect("a clean run returns its image");
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        assert!(image == compiled, "{name}: the image is not the spec's");
    }

    let (report, _, spec) = run_injected(StageId::Dominance, FaultKind::ReorderPriority);
    assert_eq!(report.stages_rolled_back, 1);
    let image = report
        .image
        .expect("a rolled-back run still returns an image");
    let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    assert!(image == compiled, "the image is not the rolled-back spec's");
}
