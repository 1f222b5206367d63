//! The experiment runner shared by every table and figure.
//!
//! One experiment = (machine, representation, transformation stage, usage
//! encoding).  The runner prepares the spec exactly as the paper does —
//! the OR-tree baseline is produced by the "MDES preprocessor" expansion
//! of Section 4, then the selected transformations are applied to each
//! representation independently — compiles it, schedules the machine's
//! calibrated synthetic workload, and returns the statistics and memory
//! measurements the tables report.

use std::collections::HashMap;

use mdes_core::size::{measure, MemoryReport};
use mdes_core::spec::{AndOrTree, Constraint, MdesSpec, OrTreeId};
use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_opt::expand::expand_to_or;
use mdes_opt::pipeline::{optimize, optimize_with_telemetry, PipelineConfig};
use mdes_sched::{ListScheduler, Schedule};
use mdes_telemetry::Telemetry;
use mdes_workload::{generate, Workload, WorkloadConfig};

/// Which constraint representation to measure.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Rep {
    /// Traditional OR-trees (AND/OR constraints expanded to their cross
    /// product, as the paper's preprocessor does).
    OrTree,
    /// The paper's AND/OR-trees, as authored.  Plain OR constraints are
    /// wrapped in a one-child AND level, which is why the Pentium's
    /// AND/OR representation is slightly *larger* (Table 6).
    AndOr,
}

impl Rep {
    /// Both representations in table order.
    pub fn both() -> [Rep; 2] {
        [Rep::OrTree, Rep::AndOr]
    }

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            Rep::OrTree => "OR-tree",
            Rep::AndOr => "AND/OR-tree",
        }
    }
}

/// How far through the paper's transformation pipeline to go.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// As authored (Section 4 baselines).
    Original,
    /// After redundancy + dominated-option elimination (Section 5).
    Cleaned,
    /// After usage-time shifting + zero-first check ordering (Section 7).
    Shifted,
    /// After AND/OR conflict-detection ordering + factoring (Section 8).
    Full,
}

impl Stage {
    /// Pipeline configuration for this stage, or `None` for
    /// [`Stage::Original`].
    pub fn pipeline(&self) -> Option<PipelineConfig> {
        match self {
            Stage::Original => None,
            Stage::Cleaned => Some(PipelineConfig::section5()),
            Stage::Shifted => Some(PipelineConfig::through_section7()),
            Stage::Full => Some(PipelineConfig::full()),
        }
    }
}

/// Prepares the spec for one experiment cell.
pub fn prepare_spec(machine: Machine, rep: Rep, stage: Stage) -> MdesSpec {
    let mut spec = base_spec(machine, rep);
    if let Some(config) = stage.pipeline() {
        optimize(&mut spec, &config);
    }
    spec
}

/// The machine's description in representation `rep`, before any
/// transformation: OR-expanded, or with plain-OR classes AND-wrapped.
fn base_spec(machine: Machine, rep: Rep) -> MdesSpec {
    let mut spec = machine.spec();
    match rep {
        Rep::OrTree => spec = expand_to_or(&spec).0,
        Rep::AndOr => wrap_or_classes(&mut spec),
    }
    spec
}

/// Wraps every plain-OR class constraint in a one-child AND/OR tree (the
/// uniform AND/OR low-level form, whose AND-level header accounts for the
/// Pentium's small size increase in Table 6).
fn wrap_or_classes(spec: &mut MdesSpec) {
    let mut wrapped: HashMap<OrTreeId, mdes_core::AndOrTreeId> = HashMap::new();
    for class_id in spec.class_ids().collect::<Vec<_>>() {
        if let Constraint::Or(or) = spec.class(class_id).constraint {
            let andor = *wrapped
                .entry(or)
                .or_insert_with(|| spec.add_and_or_tree(AndOrTree::new(vec![or])));
            spec.class_mut(class_id).constraint = Constraint::AndOr(andor);
        }
    }
}

/// The measurements of one experiment cell.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheduling statistics over the workload.
    pub stats: CheckStats,
    /// Memory footprint of the compiled representation.
    pub memory: MemoryReport,
    /// FNV-1a hash of all issue cycles — identical across cells of the
    /// same machine iff the exact same schedule was produced (the paper's
    /// Section-4 invariant).
    pub schedule_hash: u64,
}

/// Runs one experiment cell.
pub fn run(
    machine: Machine,
    rep: Rep,
    stage: Stage,
    encoding: UsageEncoding,
    workload_config: &WorkloadConfig,
) -> RunResult {
    let spec = prepare_spec(machine, rep, stage);
    let workload = generate(machine, &spec, workload_config);
    run_on(&spec, &workload, encoding)
}

/// Runs the scheduler over a prepared spec and workload.
pub fn run_on(spec: &MdesSpec, workload: &Workload, encoding: UsageEncoding) -> RunResult {
    run_on_jobs(spec, workload, encoding, 1)
}

/// [`run_on`] with the workload's blocks served by `jobs` engine workers
/// sharing one `Arc`'d compiled description.  The engine's determinism
/// contract means the result — stats, memory, and schedule hash — is
/// identical for every worker count, so the tables can be regenerated on
/// any `--jobs` setting without changing a byte.
pub fn run_on_jobs(
    spec: &MdesSpec,
    workload: &Workload,
    encoding: UsageEncoding,
    jobs: usize,
) -> RunResult {
    let compiled = std::sync::Arc::new(
        CompiledMdes::compile(spec, encoding).expect("experiment spec must compile"),
    );
    let outcome = mdes_engine::Engine::new(std::sync::Arc::clone(&compiled))
        .schedule_batch(&workload.blocks, jobs);
    assert!(
        outcome.is_clean(),
        "{} worker panic(s) while regenerating tables",
        outcome.worker_panics()
    );
    let hash = outcome
        .schedules
        .iter()
        .flatten()
        .fold(FNV_OFFSET, fold_cycles);
    RunResult {
        stats: outcome.stats,
        memory: measure(&compiled),
        schedule_hash: hash,
    }
}

/// FNV-1a offset basis: the [`RunResult::schedule_hash`] of no schedules.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Folds `schedule`'s issue cycles, in operation order, into the FNV-1a
/// `hash`.
fn fold_cycles(hash: u64, schedule: &Schedule) -> u64 {
    schedule.ops.iter().fold(hash, |hash, op| {
        (hash ^ op.cycle as u32 as u64).wrapping_mul(0x100000001b3)
    })
}

/// [`run`] with the full flow instrumented into `tel`, grouped under a
/// span named for the machine: per-stage pipeline spans
/// (`<machine>/pipeline/redundancy`, …), compile-phase spans, and the
/// workload's scheduler query counters published under
/// `<machine>/sched/list/…` — the same JSON schema the CLI's `--metrics`
/// flag produces.
pub fn run_with_telemetry(
    machine: Machine,
    rep: Rep,
    stage: Stage,
    encoding: UsageEncoding,
    workload_config: &WorkloadConfig,
    tel: &Telemetry,
) -> RunResult {
    let _machine_span = tel.span(machine.name());
    let mut spec = base_spec(machine, rep);
    if let Some(config) = stage.pipeline() {
        optimize_with_telemetry(&mut spec, &config, tel);
    }
    let workload = generate(machine, &spec, workload_config);

    let compiled = CompiledMdes::compile_with_telemetry(&spec, encoding, tel)
        .expect("experiment spec must compile");
    let scheduler = ListScheduler::new(&compiled);
    let mut stats = CheckStats::new();
    let mut hash = FNV_OFFSET;
    {
        let _sched_span = tel.span("sched/list");
        for block in &workload.blocks {
            hash = fold_cycles(hash, &scheduler.schedule(block, &mut stats));
        }
    }
    stats.publish(tel, &format!("{}/sched/list", machine.name()));
    RunResult {
        stats,
        memory: measure(&compiled),
        schedule_hash: hash,
    }
}

/// Memory-only measurement (for the size tables, which need no workload).
pub fn measure_only(
    machine: Machine,
    rep: Rep,
    stage: Stage,
    encoding: UsageEncoding,
) -> MemoryReport {
    let spec = prepare_spec(machine, rep, stage);
    let compiled = CompiledMdes::compile(&spec, encoding).expect("experiment spec must compile");
    measure(&compiled)
}

/// The default workload size used by the shipped experiment binaries.
pub fn default_workload(machine: Machine, total_ops: usize) -> WorkloadConfig {
    WorkloadConfig::paper_default(machine).with_total_ops(total_ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_identical_across_reps_stages_and_encodings() {
        // The paper's core invariant (Section 4): every transformation
        // and both representations produce the exact same schedule.
        let machine = Machine::SuperSparc;
        let config = default_workload(machine, 1_500);
        let mut hashes = Vec::new();
        for rep in Rep::both() {
            for stage in [Stage::Original, Stage::Cleaned, Stage::Shifted, Stage::Full] {
                for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
                    let result = run(machine, rep, stage, encoding, &config);
                    hashes.push(result.schedule_hash);
                }
            }
        }
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "schedules diverged: {hashes:?}"
        );
    }

    #[test]
    fn and_or_reduces_checks_on_flexible_machines() {
        let machine = Machine::K5;
        let config = default_workload(machine, 1_000);
        let or = run(
            machine,
            Rep::OrTree,
            Stage::Original,
            UsageEncoding::Scalar,
            &config,
        );
        let andor = run(
            machine,
            Rep::AndOr,
            Stage::Original,
            UsageEncoding::Scalar,
            &config,
        );
        assert!(
            andor.stats.checks_per_attempt() < or.stats.checks_per_attempt() / 2.0,
            "AND/OR {} vs OR {}",
            andor.stats.checks_per_attempt(),
            or.stats.checks_per_attempt()
        );
        assert_eq!(or.schedule_hash, andor.schedule_hash);
    }

    #[test]
    fn and_or_shrinks_flexible_machines_but_grows_pentium() {
        let k5_or = measure_only(
            Machine::K5,
            Rep::OrTree,
            Stage::Original,
            UsageEncoding::Scalar,
        );
        let k5_andor = measure_only(
            Machine::K5,
            Rep::AndOr,
            Stage::Original,
            UsageEncoding::Scalar,
        );
        assert!(
            (k5_andor.total() as f64) < k5_or.total() as f64 / 20.0,
            "K5: AND/OR {} vs OR {}",
            k5_andor.total(),
            k5_or.total()
        );

        let p_or = measure_only(
            Machine::Pentium,
            Rep::OrTree,
            Stage::Original,
            UsageEncoding::Scalar,
        );
        let p_andor = measure_only(
            Machine::Pentium,
            Rep::AndOr,
            Stage::Original,
            UsageEncoding::Scalar,
        );
        assert!(
            p_andor.total() > p_or.total(),
            "Pentium AND/OR must be slightly larger ({} vs {})",
            p_andor.total(),
            p_or.total()
        );
    }

    #[test]
    fn pipeline_stages_monotonically_shrink_or_hold_size() {
        for machine in Machine::all() {
            for rep in Rep::both() {
                let original = measure_only(machine, rep, Stage::Original, UsageEncoding::Scalar);
                let cleaned = measure_only(machine, rep, Stage::Cleaned, UsageEncoding::Scalar);
                assert!(
                    cleaned.total() <= original.total(),
                    "{} {:?}: cleanup grew the MDES",
                    machine.name(),
                    rep
                );
            }
        }
    }

    #[test]
    fn telemetry_run_matches_plain_run() {
        let machine = Machine::Pa7100;
        let config = default_workload(machine, 500);
        let tel = Telemetry::new();
        let instrumented = run_with_telemetry(
            machine,
            Rep::AndOr,
            Stage::Full,
            UsageEncoding::BitVector,
            &config,
            &tel,
        );
        let plain = run(
            machine,
            Rep::AndOr,
            Stage::Full,
            UsageEncoding::BitVector,
            &config,
        );
        assert_eq!(instrumented.schedule_hash, plain.schedule_hash);
        let report = tel.report();
        assert!(report.span("PA7100/pipeline/redundancy").is_some());
        assert!(report.span("PA7100/compile/packing").is_some());
        assert_eq!(
            report.counter("PA7100/sched/list/attempts"),
            Some(instrumented.stats.attempts)
        );
    }

    #[test]
    fn time_shift_reduces_checks_per_option_to_near_one() {
        let machine = Machine::SuperSparc;
        let config = default_workload(machine, 1_500);
        let shifted = run(
            machine,
            Rep::OrTree,
            Stage::Shifted,
            UsageEncoding::BitVector,
            &config,
        );
        let ratio = shifted.stats.checks_per_option();
        assert!(
            (1.0..1.3).contains(&ratio),
            "checks/option {ratio} not near 1.0"
        );
    }
}
