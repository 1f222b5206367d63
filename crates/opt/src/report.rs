//! Stage-by-stage pipeline reporting.
//!
//! [`staged_report`] runs the transformation pipeline one stage at a time
//! and snapshots the compiled footprint after each — the data behind the
//! `mdesc stats` command and the `optimize_pipeline` example, and a
//! compact way to see where each of the paper's transformations earns its
//! keep on a given description.

use mdes_core::size::measure;
use mdes_core::spec::MdesSpec;
use mdes_core::{CompiledMdes, MdesError, UsageEncoding};
use mdes_telemetry::Telemetry;

use crate::pipeline::{run_stage, stage_plan, PipelineConfig, PipelineReport, StageId};
use crate::redundancy::RedundancyReport;
use crate::timeshift::{Direction, TimeShiftReport};

/// One snapshot of the compiled footprint after a pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage label (e.g. `"redundancy elimination"`).
    pub stage: String,
    /// Usage encoding the snapshot was measured under.
    pub encoding: UsageEncoding,
    /// Options in the compiled pool.
    pub options: usize,
    /// Bytes under the paper's 4-byte-word memory model.
    pub bytes: usize,
    /// Stored RU-map probes.
    pub checks: usize,
}

fn snapshot(
    stage: &str,
    spec: &MdesSpec,
    encoding: UsageEncoding,
) -> Result<StageSnapshot, MdesError> {
    let compiled = CompiledMdes::compile(spec, encoding)?;
    let memory = measure(&compiled);
    Ok(StageSnapshot {
        stage: stage.to_string(),
        encoding,
        options: memory.num_options,
        bytes: memory.total(),
        checks: memory.num_checks,
    })
}

/// The snapshot label of `stage`, counted from its entry in `report`.
fn label(stage: StageId, report: &PipelineReport) -> String {
    match stage {
        StageId::Redundancy => format!(
            "redundancy elimination ({} removed)",
            report
                .redundancy
                .as_ref()
                .map_or(0, RedundancyReport::total)
        ),
        StageId::Dominance => format!(
            "dominated options ({} removed)",
            report.dominance.as_ref().map_or(0, |r| r.options_removed)
        ),
        StageId::TimeShift => format!(
            "usage-time shift ({} resources)",
            report
                .timeshift
                .as_ref()
                .map_or(0, TimeShiftReport::resources_shifted)
        ),
        StageId::SortZero => format!(
            "zero-first check order ({} options)",
            report.sortzero.as_ref().map_or(0, |r| r.options_reordered)
        ),
        StageId::TreeSort => format!(
            "AND/OR ordering ({} trees)",
            report.treesort.as_ref().map_or(0, |r| r.trees_reordered)
        ),
        StageId::Factor => {
            let (merged, created) = report
                .factor
                .as_ref()
                .map_or((0, 0), |r| (r.usages_merged, r.trees_created));
            format!("common-usage factoring ({merged} merged, {created} created)")
        }
    }
}

/// Runs the full pipeline stage by stage on a copy of `spec`, returning a
/// snapshot after every stage (the first entry is the description as
/// authored, under the scalar encoding; bit-vector snapshots follow the
/// Section-6 step, taken after dominated-option elimination).
///
/// # Examples
///
/// ```
/// let spec = mdes_lang::compile("
///     resource D[2];
///     or_tree T = first_of({ D[0] @ 0 }, { D[0] @ 0 }, { D[1] @ 0 });
///     class alu { constraint = T; }
/// ").unwrap();
/// let stages = mdes_opt::staged_report(&spec, mdes_opt::Direction::Forward).unwrap();
/// assert_eq!(stages.first().unwrap().options, 3);
/// // The duplicate option is merged and the dominated reference removed.
/// assert!(stages.last().unwrap().options < 3);
/// ```
pub fn staged_report(
    spec: &MdesSpec,
    direction: Direction,
) -> Result<Vec<StageSnapshot>, MdesError> {
    let config = PipelineConfig {
        direction,
        ..PipelineConfig::full()
    };
    let tel = Telemetry::disabled();
    let mut spec = spec.clone();
    let mut report = PipelineReport::default();
    let mut encoding = UsageEncoding::Scalar;
    let mut stages = vec![snapshot("as authored", &spec, encoding)?];
    for stage in stage_plan(&config) {
        run_stage(&mut spec, stage, &config, &mut report, &tel);
        stages.push(snapshot(&label(stage, &report), &spec, encoding)?);
        if stage == StageId::Dominance {
            encoding = UsageEncoding::BitVector;
            stages.push(snapshot("bit-vector encoding", &spec, encoding)?);
        }
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::spec::{Constraint, Latency, OpFlags, OrTree, TableOption};
    use mdes_core::usage::ResourceUsage;
    use mdes_core::ResourceId;

    fn messy_spec() -> MdesSpec {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("r", 3).unwrap();
        let u = |r: usize, t: i32| ResourceUsage::new(ResourceId::from_index(r), t);
        let a = spec.add_option(TableOption::new(vec![u(0, -1), u(1, 0)]));
        let a_dup = spec.add_option(TableOption::new(vec![u(0, -1), u(1, 0)]));
        let b = spec.add_option(TableOption::new(vec![u(2, 1)]));
        let tree = spec.add_or_tree(OrTree::new(vec![a, a_dup, b]));
        spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        spec
    }

    #[test]
    fn report_covers_every_stage_in_order() {
        let stages = staged_report(&messy_spec(), Direction::Forward).unwrap();
        assert_eq!(stages.len(), 8);
        assert_eq!(stages[0].stage, "as authored");
        assert!(stages[1].stage.starts_with("redundancy"));
        assert!(stages[3].stage.contains("bit-vector"));
        assert!(stages.last().unwrap().stage.contains("factoring"));
    }

    #[test]
    fn bytes_never_increase_along_the_pipeline() {
        // Within each encoding regime bytes are monotone non-increasing;
        // the scalar → bit-vector step also only shrinks.
        let stages = staged_report(&messy_spec(), Direction::Forward).unwrap();
        for window in stages.windows(2) {
            assert!(
                window[1].bytes <= window[0].bytes,
                "{} grew: {} -> {}",
                window[1].stage,
                window[0].bytes,
                window[1].bytes
            );
        }
    }

    #[test]
    fn original_spec_is_untouched() {
        let spec = messy_spec();
        let before = spec.clone();
        let _ = staged_report(&spec, Direction::Forward);
        assert_eq!(spec, before);
    }

    #[test]
    fn works_for_backward_direction_too() {
        let stages = staged_report(&messy_spec(), Direction::Backward).unwrap();
        assert_eq!(stages.len(), 8);
    }
}
