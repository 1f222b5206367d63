//! The analyzer against every bundled machine description.
//!
//! The lint gate in `ci.sh` depends on these invariants: the six bundled
//! machines carry **zero fatal** diagnostics (they all schedule real
//! workloads, so a fatal here would be an analyzer bug), and repeated
//! analysis is byte-deterministic.

use mdes_analyze::{analyze_spec, render_text, Severity};

#[test]
fn bundled_machines_have_no_fatal_diagnostics() {
    for (name, spec) in mdes_machines::bundled() {
        let analysis = analyze_spec(&spec);
        assert!(!analysis.has_fatal(), "{name}: {:?}", analysis.diagnostics);
        assert!(analysis.items_analyzed > 0, "{name}");
    }
}

#[test]
fn bundled_machine_reports_are_deterministic() {
    for (name, spec) in mdes_machines::bundled() {
        let first = render_text(&name, &analyze_spec(&spec));
        let second = render_text(&name, &analyze_spec(&spec));
        assert_eq!(first, second, "{name}");
    }
}

#[test]
fn optimized_bundled_machines_lose_maintenance_diagnostics() {
    // The opt pipeline applies the paper's transformations; afterwards the
    // analyzer must not see *more* problems than before, and the
    // dominated-option lints it proved must be gone (the pipeline's
    // syntactic pass removes MD002 sites; MD003 sites it cannot see may
    // remain).
    for (name, spec) in mdes_machines::bundled() {
        let before = analyze_spec(&spec);
        let mut optimized = spec.clone();
        mdes_opt::pipeline::optimize(
            &mut optimized,
            &mdes_opt::pipeline::PipelineConfig::default(),
        );
        let after = analyze_spec(&optimized);
        assert!(!after.has_fatal(), "{name}: {:?}", after.diagnostics);
        let md002 =
            |a: &mdes_analyze::Analysis| a.diagnostics.iter().filter(|d| d.code == "MD002").count();
        assert_eq!(
            md002(&after),
            0,
            "{name}: syntactic dominance survived the pipeline"
        );
        assert!(
            after.count(Severity::Warn) <= before.count(Severity::Warn),
            "{name}: pipeline introduced warnings ({:?})",
            after.diagnostics
        );
    }
}
