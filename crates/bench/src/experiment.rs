//! The experiment grid every table and figure reads.
//!
//! One experiment cell = (machine, representation, transformation stage,
//! usage encoding).  A cell's spec is prepared exactly as the paper does
//! — the OR-tree baseline is produced by the "MDES preprocessor"
//! expansion of Section 4, then the selected transformations are applied
//! to each representation independently — compiled, and scheduled over
//! the machine's calibrated synthetic workload for the statistics and
//! memory measurements the tables report.  A [`Grid`] holds one workload
//! per machine and computes each cell at most once, so `mdesc tables`
//! and `mdesc figures` each read every cell they print from one grid,
//! which asserts Section 4's "exact same schedule" over every cell it
//! schedules.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mdes_core::size::{measure, MemoryReport};
use mdes_core::spec::{AndOrTree, Constraint, MdesSpec, OrTreeId};
use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes_engine::Engine;
use mdes_machines::Machine;
use mdes_opt::expand::expand_to_or;
use mdes_opt::pipeline::{optimize, optimize_with_telemetry, PipelineConfig};
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
    /// Scheduling attempts per class id, summed over the workload (the
    /// breakdown of Tables 1–4).
    pub class_attempts: Vec<u64>,
}

/// Runs the scheduler over a spec and workload outside the [`Grid`].
pub fn run_on(spec: &MdesSpec, workload: &Workload, encoding: UsageEncoding) -> RunResult {
    let compiled = CompiledMdes::compile(spec, encoding).expect("experiment spec must compile");
    run_compiled(Arc::new(compiled), workload)
}

/// Schedules `workload` on `compiled` through the engine, and measures
/// the description.
fn run_compiled(compiled: Arc<CompiledMdes>, workload: &Workload) -> RunResult {
    let outcome = Engine::new(Arc::clone(&compiled)).schedule_batch(&workload.blocks, 1);
    assert!(
        outcome.is_clean(),
        "{} worker panic(s) while regenerating tables",
        outcome.worker_panics()
    );
    let mut hash = FNV_OFFSET;
    let mut class_attempts = vec![0; compiled.classes().len()];
    for (schedule, block) in outcome.schedules.iter().flatten().zip(&workload.blocks) {
        for (i, op) in block.ops.iter().enumerate() {
            hash = (hash ^ schedule.cycle(i) as u32 as u64).wrapping_mul(0x100000001b3);
            class_attempts[op.class.index()] += u64::from(schedule.attempts(i));
        }
    }
    RunResult {
        stats: outcome.stats,
        memory: measure(&compiled),
        schedule_hash: hash,
        class_attempts,
    }
}

/// FNV-1a offset basis: the [`RunResult::schedule_hash`] of no schedules.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Runs one cell with the full flow instrumented into `tel`, grouped
/// under a span named for the machine: per-stage pipeline spans
/// (`<machine>/pipeline/redundancy`, …), compile-phase spans, and the
/// workload's scheduler query counters published under
/// `<machine>/sched/list/…` — the same JSON schema the CLI's `--metrics`
/// flag produces.
pub fn run_with_telemetry(
    machine: Machine,
    (rep, stage, encoding): Cell,
    workload: &Workload,
    tel: &Telemetry,
) -> RunResult {
    let _machine_span = tel.span(machine.name());
    let mut spec = base_spec(machine, rep);
    if let Some(config) = stage.pipeline() {
        optimize_with_telemetry(&mut spec, &config, tel);
    }
    let compiled = CompiledMdes::compile_with_telemetry(&spec, encoding, tel)
        .expect("experiment spec must compile");
    let result = {
        let _sched_span = tel.span("sched/list");
        run_compiled(Arc::new(compiled), workload)
    };
    result
        .stats
        .publish(tel, &format!("{}/sched/list", machine.name()));
    result
}

/// The calibrated workload of `machine` at `total_ops` operations, which
/// every scheduling table and figure runs (`mdesc tables --ops N` and
/// `mdesc figures --ops N` set `total_ops`; 40,000 by default).
pub fn default_workload(machine: Machine, total_ops: usize) -> WorkloadConfig {
    WorkloadConfig::paper_default(machine).with_total_ops(total_ops)
}

/// One experiment cell of a machine: a representation, a stage and an
/// encoding.
pub type Cell = (Rep, Stage, UsageEncoding);

/// The paper's unoptimized baseline: the description as written,
/// expanded to OR-trees, with scalar usages.
pub const UNOPT_OR: Cell = (Rep::OrTree, Stage::Original, UsageEncoding::Scalar);
/// The description as written in AND/OR-trees, with scalar usages.
pub const ORIGINAL_ANDOR: Cell = (Rep::AndOr, Stage::Original, UsageEncoding::Scalar);
/// Every transformation on OR-trees, with bit-vector usages.
pub const FULL_OR: Cell = (Rep::OrTree, Stage::Full, UsageEncoding::BitVector);
/// Every transformation on AND/OR-trees, with bit-vector usages.
pub const FULL_ANDOR: Cell = (Rep::AndOr, Stage::Full, UsageEncoding::BitVector);

/// The paper's experiments at one workload size: for each machine, its
/// default workload and every [`Cell`].
///
/// The grid generates a machine's workload once and prepares, compiles
/// and schedules each cell at most once, on demand; both encodings of a
/// stage share one spec.  Every spec keeps the as-written class ids, so
/// one stream serves every cell, and every cell scheduled for a machine
/// gives the same schedule (Section 4): the grid asserts both, in every
/// build profile.
pub struct Grid {
    total_ops: usize,
    machines: BTreeMap<Machine, Cells>,
}

/// One machine's share of a [`Grid`].
#[derive(Default)]
struct Cells {
    /// The description as written, whose class ids every spec keeps.
    authored: MdesSpec,
    workload: Option<Workload>,
    specs: HashMap<(Rep, Stage), MdesSpec>,
    images: HashMap<Cell, Arc<CompiledMdes>>,
    runs: HashMap<Cell, RunResult>,
    /// The schedule hash of the first cell scheduled, which every later
    /// one must match.
    schedule_hash: Option<u64>,
}

impl Grid {
    /// An empty grid whose workloads have `total_ops` operations per
    /// machine.
    pub fn new(total_ops: usize) -> Grid {
        Grid {
            total_ops,
            machines: BTreeMap::new(),
        }
    }

    /// Operations per machine workload.
    pub fn total_ops(&self) -> usize {
        self.total_ops
    }

    fn cells(&mut self, machine: Machine) -> &mut Cells {
        self.machines.entry(machine).or_insert_with(|| Cells {
            authored: machine.spec(),
            ..Cells::default()
        })
    }

    /// `machine`'s default workload at the grid's size.
    pub fn workload(&mut self, machine: Machine) -> &Workload {
        let config = default_workload(machine, self.total_ops);
        let cells = self.cells(machine);
        cells
            .workload
            .get_or_insert_with(|| generate(machine, &cells.authored, &config))
    }

    /// The spec of `machine` in `rep` at `stage`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's class ids are not the authored ones.
    pub fn spec(&mut self, machine: Machine, rep: Rep, stage: Stage) -> &MdesSpec {
        let cells = self.cells(machine);
        cells.specs.entry((rep, stage)).or_insert_with(|| {
            let spec = prepare_spec(machine, rep, stage);
            assert!(
                class_names(&spec).eq(class_names(&cells.authored)),
                "{} {rep:?} {stage:?}: class ids differ from the authored ones",
                machine.name()
            );
            spec
        })
    }

    /// The compiled image of `machine`'s `cell`.
    pub fn image(&mut self, machine: Machine, cell: Cell) -> Arc<CompiledMdes> {
        if let Some(image) = self.cells(machine).images.get(&cell) {
            return Arc::clone(image);
        }
        let (rep, stage, encoding) = cell;
        let compiled = CompiledMdes::compile(self.spec(machine, rep, stage), encoding);
        let image = Arc::new(compiled.expect("grid spec must compile"));
        self.cells(machine).images.insert(cell, Arc::clone(&image));
        image
    }

    /// The memory footprint of the image of `machine`'s `cell`.
    pub fn memory(&mut self, machine: Machine, cell: Cell) -> MemoryReport {
        measure(&self.image(machine, cell))
    }

    /// The measurements of `machine`'s `cell` over its workload.
    ///
    /// # Panics
    ///
    /// Panics if the cell's schedules differ from those of a cell of
    /// `machine` scheduled before it.
    pub fn cell(&mut self, machine: Machine, cell: Cell) -> RunResult {
        if let Some(run) = self.cells(machine).runs.get(&cell) {
            return run.clone();
        }
        let image = self.image(machine, cell);
        let run = run_compiled(image, self.workload(machine));
        let cells = self.cells(machine);
        let first = *cells.schedule_hash.get_or_insert(run.schedule_hash);
        assert_eq!(
            run.schedule_hash,
            first,
            "{} {cell:?}: the schedules differ from the machine's other cells (Section 4)",
            machine.name()
        );
        cells.runs.insert(cell, run.clone());
        run
    }
}

/// The class names of `spec`, in class-id order.
fn class_names(spec: &MdesSpec) -> impl Iterator<Item = &str> {
    spec.class_ids().map(|id| spec.class(id).name.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_identical_across_reps_stages_and_encodings() {
        // The paper's core invariant (Section 4): every transformation
        // and both representations produce the exact same schedule, on
        // every machine.
        let mut grid = Grid::new(1_500);
        for machine in Machine::all() {
            let mut hashes = Vec::new();
            for rep in Rep::both() {
                for stage in [Stage::Original, Stage::Cleaned, Stage::Shifted, Stage::Full] {
                    for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
                        hashes.push(grid.cell(machine, (rep, stage, encoding)).schedule_hash);
                    }
                }
            }
            assert!(
                hashes.iter().all(|&h| h == hashes[0]),
                "{}: schedules diverged: {hashes:?}",
                machine.name()
            );
        }
    }

    #[test]
    fn and_or_reduces_checks_on_flexible_machines() {
        let machine = Machine::K5;
        let mut grid = Grid::new(1_000);
        let or = grid.cell(machine, UNOPT_OR);
        let andor = grid.cell(machine, ORIGINAL_ANDOR);
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
        let mut grid = Grid::new(1_000);
        let mut original = |machine, rep| {
            grid.memory(machine, (rep, Stage::Original, UsageEncoding::Scalar))
                .total()
        };
        let k5_or = original(Machine::K5, Rep::OrTree);
        let k5_andor = original(Machine::K5, Rep::AndOr);
        assert!(
            (k5_andor as f64) < k5_or as f64 / 20.0,
            "K5: AND/OR {k5_andor} vs OR {k5_or}"
        );

        let p_or = original(Machine::Pentium, Rep::OrTree);
        let p_andor = original(Machine::Pentium, Rep::AndOr);
        assert!(
            p_andor > p_or,
            "Pentium AND/OR must be slightly larger ({p_andor} vs {p_or})"
        );
    }

    #[test]
    fn pipeline_stages_monotonically_shrink_or_hold_size() {
        let mut grid = Grid::new(1_000);
        for machine in Machine::all() {
            for rep in Rep::both() {
                let original = grid.memory(machine, (rep, Stage::Original, UsageEncoding::Scalar));
                let cleaned = grid.memory(machine, (rep, Stage::Cleaned, UsageEncoding::Scalar));
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
        let mut grid = Grid::new(500);
        let tel = Telemetry::new();
        let instrumented = run_with_telemetry(machine, FULL_ANDOR, grid.workload(machine), &tel);
        let plain = grid.cell(machine, FULL_ANDOR);
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
        let shifted = Grid::new(1_500).cell(
            Machine::SuperSparc,
            (Rep::OrTree, Stage::Shifted, UsageEncoding::BitVector),
        );
        let ratio = shifted.stats.checks_per_option();
        assert!(
            (1.0..1.3).contains(&ratio),
            "checks/option {ratio} not near 1.0"
        );
    }
}
