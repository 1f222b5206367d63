//! Generators for every figure of the paper.
//!
//! Figures 1 and 3–6 are structural illustrations rendered directly from
//! the actual machine-description data (ASCII reservation tables and
//! trees); Figure 2 is the measured distribution of options checked per
//! scheduling attempt.

use std::fmt::Write as _;

use mdes_core::pretty;
use mdes_core::spec::Constraint;
use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_sched::ListScheduler;
use mdes_workload::generate;

use crate::experiment::{default_workload, prepare_spec, Rep, Stage};
use crate::paper;

/// Renders one figure; Figure 2 from a workload of the given length.
type Figure = fn(usize) -> String;

/// Every figure with its renderer, in the order `all` prints them, then
/// `fig2-csv`, which `all` leaves out.
const FIGURES: [(&str, Figure); 7] = [
    ("fig1", |_| fig1()),
    ("fig2", fig2),
    ("fig3", |_| fig3()),
    ("fig4", |_| fig4()),
    ("fig5", |_| fig5()),
    ("fig6", |_| fig6()),
    ("fig2-csv", fig2_csv),
];

/// The name of every figure: Figures 1–6 in the order `all` prints them,
/// then `fig2-csv`, Figure 2's distribution as CSV, which `all` leaves
/// out.
pub const NAMES: [&str; FIGURES.len()] = crate::names(&FIGURES);

/// The figures `all` prints: every name but the last.
pub const ALL: &[&str] = NAMES.split_at(NAMES.len() - 1).0;

/// Renders the figure `name`, one of [`NAMES`], from a `total_ops`
/// workload where it has one; `None` for any other name.
pub fn render(name: &str, total_ops: usize) -> Option<String> {
    let (_, figure) = FIGURES.iter().find(|(n, _)| *n == name)?;
    Some(figure(total_ops))
}

/// Figure 1: the six reservation tables of the SuperSPARC integer load.
pub fn fig1() -> String {
    let spec = prepare_spec(Machine::SuperSparc, Rep::OrTree, Stage::Original);
    let load = spec.class_by_name("load").expect("load class");
    let Constraint::Or(tree) = spec.class(load).constraint else {
        unreachable!("expanded spec is all OR");
    };
    format!(
        "Figure 1: the six reservation tables of the SuperSPARC integer load\n\
         (decoder at cycle -1, memory unit at 0, write port at +1)\n\n{}",
        pretty::or_tree(&spec, tree)
    )
}

/// Figure 2's raw distribution as CSV (`options,count,percent`) for
/// external plotting.
pub fn fig2_csv(total_ops: usize) -> String {
    let hist = fig2_histogram(total_ops);
    let mut out = String::from("options,count,percent\n");
    for (options, count) in hist.iter() {
        let _ = writeln!(
            out,
            "{options},{count},{:.4}",
            hist.fraction(options) * 100.0
        );
    }
    out
}

/// Runs the Figure-2 experiment and returns the histogram.
fn fig2_histogram(total_ops: usize) -> mdes_core::stats::Histogram {
    let machine = Machine::SuperSparc;
    let spec = prepare_spec(machine, Rep::OrTree, Stage::Original);
    let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
    let scheduler = ListScheduler::new(&compiled);
    let workload = generate(machine, &spec, &default_workload(machine, total_ops));
    let mut stats = CheckStats::new();
    for block in &workload.blocks {
        scheduler.schedule(block, &mut stats);
    }
    stats.options_per_attempt
}

/// Figure 2: distribution of options checked per scheduling attempt for
/// the SuperSPARC (traditional OR-tree representation, as in the paper).
pub fn fig2(total_ops: usize) -> String {
    let hist = &fig2_histogram(total_ops);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: distribution of options checked per SuperSPARC scheduling attempt"
    );
    let _ = writeln!(
        out,
        "(ours from {} attempts; paper peaks: {:.1}% at 1 option, {:.1}% at 48, {:.1}% in 24..=72)\n",
        hist.total(),
        paper::FIG2_ONE_OPTION,
        paper::FIG2_AT_48,
        paper::FIG2_24_TO_72
    );
    let max_fraction = (1..=72)
        .map(|i| hist.fraction(i))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for options in 1..=72usize {
        let fraction = hist.fraction(options) * 100.0;
        if fraction < 0.05 {
            continue;
        }
        let bar = "#".repeat(((fraction / (max_fraction * 100.0)) * 50.0).round() as usize);
        let _ = writeln!(out, "{options:>3} options | {bar} {fraction:.2}%");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "ours: {:.1}% at 1 option, {:.1}% at 48, {:.1}% in 24..=72",
        hist.fraction(1) * 100.0,
        hist.fraction(48) * 100.0,
        hist.fraction_range(24, 72) * 100.0,
    );
    out
}

/// Figure 3: the OR-tree vs AND/OR-tree modeling of the integer load.
pub fn fig3() -> String {
    let andor_spec = Machine::SuperSparc.spec();
    let load = andor_spec.class_by_name("load").unwrap();
    let Constraint::AndOr(andor) = andor_spec.class(load).constraint else {
        unreachable!("SuperSPARC load is AND/OR");
    };

    let or_spec = prepare_spec(Machine::SuperSparc, Rep::OrTree, Stage::Original);
    let load_or = or_spec.class_by_name("load").unwrap();
    let Constraint::Or(or) = or_spec.class(load_or).constraint else {
        unreachable!("expanded spec is all OR");
    };

    format!(
        "Figure 3: two methods of modeling the SuperSPARC integer load\n\n\
         a) traditional OR-tree ({} options):\n{}\n\
         b) proposed AND/OR-tree (1 x 2 x 3 combinations):\n{}",
        or_spec.or_tree(or).options.len(),
        pretty::or_tree(&or_spec, or),
        pretty::and_or_tree(&andor_spec, andor)
    )
}

/// Figure 4: OR-tree sharing across AND/OR-trees after redundancy
/// elimination (the load and the 2-source IALU share decoder and
/// write-port trees).
pub fn fig4() -> String {
    let spec = prepare_spec(Machine::SuperSparc, Rep::AndOr, Stage::Cleaned);
    let shares = spec.or_tree_share_counts();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: OR-tree sharing across SuperSPARC AND/OR-trees (after cleanup)\n"
    );
    for id in spec.or_tree_ids() {
        let tree = spec.or_tree(id);
        if shares[id.index()] > 1 {
            let _ = writeln!(
                out,
                "OR-tree {:<14} ({} options) shared by {} trees/classes",
                tree.name.as_deref().unwrap_or("(anonymous)"),
                tree.options.len(),
                shares[id.index()]
            );
        }
    }
    out
}

/// Figure 5: the integer-load OR-tree after the usage-time
/// transformation — every usage lands at time zero.
pub fn fig5() -> String {
    let spec = prepare_spec(Machine::SuperSparc, Rep::OrTree, Stage::Shifted);
    let load = spec.class_by_name("load").unwrap();
    let Constraint::Or(tree) = spec.class(load).constraint else {
        unreachable!("expanded spec is all OR");
    };
    format!(
        "Figure 5: SuperSPARC integer-load OR-tree after transforming resource\n\
         usage times (decoder/memory/write-port usages concentrated at time 0,\n\
         making one bit-vector word per option)\n\n{}",
        pretty::or_tree(&spec, tree)
    )
}

/// Figure 6: ordering the sub-OR-trees of an AND/OR-tree for early
/// conflict detection.
pub fn fig6() -> String {
    let describe = |spec: &mdes_core::MdesSpec, label: &str| -> String {
        let load = spec.class_by_name("load").unwrap();
        let Constraint::AndOr(andor) = spec.class(load).constraint else {
            unreachable!("SuperSPARC load is AND/OR");
        };
        let mut out = format!("{label}:\n");
        for &or in &spec.and_or_tree(andor).or_trees {
            let tree = spec.or_tree(or);
            let earliest = tree
                .options
                .iter()
                .filter_map(|&o| spec.option(o).earliest_time())
                .min()
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<16} {} options, earliest usage time {}",
                tree.name.as_deref().unwrap_or("(anonymous)"),
                tree.options.len(),
                earliest
            );
        }
        out
    };
    let before = prepare_spec(Machine::SuperSparc, Rep::AndOr, Stage::Shifted);
    let after = prepare_spec(Machine::SuperSparc, Rep::AndOr, Stage::Full);
    format!(
        "Figure 6: optimizing the OR-tree order of the SuperSPARC load AND/OR-tree\n\n{}\n{}",
        describe(&before, "a) order as specified (after time shift)"),
        describe(&after, "b) after conflict-detection ordering")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_renders_six_options() {
        let text = fig1();
        assert!(text.contains("Option 6:"));
        assert!(!text.contains("Option 7:"));
        assert!(text.contains("M"));
    }

    #[test]
    fn fig2_reports_peaks() {
        let text = fig2(1_500);
        assert!(text.contains("48 options"));
        assert!(text.contains("ours:"));
    }

    #[test]
    fn fig2_csv_is_plottable() {
        let csv = fig2_csv(1_000);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("options,count,percent"));
        let first = lines.next().unwrap();
        let cells: Vec<&str> = first.split(',').collect();
        assert_eq!(cells.len(), 3);
        cells[0].parse::<usize>().unwrap();
        cells[1].parse::<u64>().unwrap();
        cells[2].parse::<f64>().unwrap();
    }

    #[test]
    fn fig3_contrasts_representations() {
        let text = fig3();
        assert!(text.contains("a) traditional OR-tree (6 options)"));
        assert!(text.contains("AND/OR-tree"));
    }

    #[test]
    fn fig4_lists_shared_trees() {
        let text = fig4();
        assert!(text.contains("shared by"));
    }

    #[test]
    fn fig5_concentrates_usages_at_zero() {
        let text = fig5();
        // After shifting, the rendered load grid has only cycle-0 rows.
        assert!(!text.contains("    -1 |"), "{text}");
    }

    #[test]
    fn fig6_shows_reordering() {
        let text = fig6();
        assert!(text.contains("a) order as specified"));
        assert!(text.contains("b) after conflict-detection ordering"));
    }
}
