//! The MDES-driven, multi-platform list scheduler.
//!
//! Cycle-driven greedy list scheduling: at each cycle, data-ready
//! operations are tried in priority order (critical-path height); each
//! try is one *scheduling attempt* against the MDES constraint checker,
//! so the statistics match the paper's accounting (on the paper's
//! workloads roughly half of all attempts fail and are retried in a later
//! cycle — Section 2, Figure 2).
//!
//! The same scheduler drives every machine: retargeting is a matter of
//! supplying a different compiled MDES, which is the portability claim of
//! the two-tier model.

use mdes_core::{Checker, ClassId, CompiledMdes, RuMap};

use crate::depgraph::DepGraph;
use crate::operation::{Block, Op};
use crate::CheckStats;

/// Where one operation landed: 16 bytes with no heap block of its own.
///
/// The reservation selection lives in the owning [`Schedule`]'s flat
/// [`Schedule::selected`] buffer (read it with [`Schedule::selection`]);
/// together with the cycle and class it is what unscheduling needs — the
/// capability finite-state-automata approaches lack (Section 10).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Issue cycle.
    pub cycle: i32,
    /// The operation's MDES class.
    pub class: ClassId,
    /// Offset of this operation's selection in [`Schedule::selected`].
    pub sel_start: u32,
    /// Length of the selection: one option per OR-tree of `class`.
    pub sel_len: u32,
}

/// A complete schedule of one basic block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Per-operation placement, indexed like `Block::ops`.
    pub ops: Vec<ScheduledOp>,
    /// Every operation's selected compiled-option indices (one per
    /// OR-tree of its class, in the class's OR-tree order), concatenated
    /// in placement order; [`Schedule::selection`] slices out one
    /// operation's.
    pub selected: Vec<u32>,
    /// Scheduling attempts spent on each operation (1 = first try
    /// succeeded).  Feeds the per-class attempt breakdowns of the
    /// paper's Tables 1–4.
    pub attempts: Vec<u32>,
    /// Schedule length in cycles (last issue cycle + 1).
    pub length: i32,
}

impl Schedule {
    /// Issue cycles only (for schedule-equality assertions).
    pub fn cycles(&self) -> Vec<i32> {
        self.ops.iter().map(|s| s.cycle).collect()
    }

    /// The compiled options operation `i` reserved, one per OR-tree of
    /// its class.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the operation's selection lies
    /// outside [`Schedule::selected`].
    pub fn selection(&self, i: usize) -> &[u32] {
        let placed = &self.ops[i];
        let start = placed.sel_start as usize;
        &self.selected[start..start + placed.sel_len as usize]
    }

    /// Checks that the schedule satisfies every dependence of `graph`,
    /// that every operation reserved exactly one option of each OR-tree of
    /// its class, and that those reservations never conflict under `mdes`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
    /// use mdes_sched::{Block, DepGraph, ListScheduler, Op, Reg};
    ///
    /// let spec = mdes_lang::compile("
    ///     resource ALU;
    ///     or_tree T = first_of({ ALU @ 0 });
    ///     class alu { constraint = T; latency = 1; }
    /// ").unwrap();
    /// let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    /// let alu = mdes.class_by_name("alu").unwrap();
    /// let mut block = Block::new();
    /// block.push(Op::new(alu, vec![Reg(1)], vec![]));
    ///
    /// let mut stats = CheckStats::new();
    /// let mut schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
    /// let graph = DepGraph::build(&block, &mdes);
    /// assert!(schedule.verify(&graph, &mdes).is_ok());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn verify(&self, graph: &DepGraph, mdes: &CompiledMdes) -> Result<(), String> {
        if self.ops.len() != graph.num_ops {
            return Err(format!(
                "schedule places {} operation(s) but the block has {}",
                self.ops.len(),
                graph.num_ops
            ));
        }
        for edges in &graph.succs {
            for edge in edges {
                let from = self.ops[edge.from].cycle;
                let to = self.ops[edge.to].cycle;
                if to < from + edge.latency {
                    return Err(format!(
                        "dependence {}→{} ({:?}, latency {}) violated: cycles {} → {}",
                        edge.from, edge.to, edge.kind, edge.latency, from, to
                    ));
                }
            }
        }

        // Replay all reservations and ensure no resource is claimed twice.
        let mut ru = RuMap::new();
        for (index, placed) in self.ops.iter().enumerate() {
            let start = placed.sel_start as usize;
            let selection = self
                .selected
                .get(start..start + placed.sel_len as usize)
                .ok_or_else(|| format!("operation {index}: selection out of range"))?;
            check_selection(mdes, placed.class, selection)
                .map_err(|why| format!("operation {index} {why}"))?;
            for &opt_idx in selection {
                for check in mdes.option_checks(opt_idx as usize) {
                    let cycle = placed.cycle + check.time;
                    if !ru.is_free(cycle, check.mask) {
                        return Err(format!(
                            "operation {index} double-books resources at cycle {cycle} (mask {:#x})",
                            check.mask
                        ));
                    }
                    ru.reserve(cycle, check.mask);
                }
            }
        }
        Ok(())
    }
}

/// Checks that `selection` holds exactly one option of each OR-tree of
/// `class`, in the class's OR-tree order — what every successful
/// reservation of that class appends.
pub(crate) fn check_selection(
    mdes: &CompiledMdes,
    class: ClassId,
    selection: &[u32],
) -> Result<(), String> {
    let Some(compiled) = mdes.classes().get(class.index()) else {
        return Err(format!("has unknown class {class:?}"));
    };
    if selection.len() != compiled.or_trees.len() {
        return Err(format!(
            "selects {} option(s) for {} OR-tree(s)",
            selection.len(),
            compiled.or_trees.len()
        ));
    }
    for (k, (&tree, &opt_idx)) in compiled.or_trees.iter().zip(selection).enumerate() {
        if !mdes.or_trees()[tree as usize].options.contains(&opt_idx) {
            return Err(format!("selects option {opt_idx}, not in its OR-tree {k}"));
        }
    }
    Ok(())
}

/// The fixed-slot selection layout of `block`: `n + 1` prefix sums of
/// each operation's OR-tree count, so operation `i` owns
/// `bounds[i]..bounds[i + 1]` of a flat selection buffer.  Searches that
/// re-place operations (the modulo scheduler, the exact oracle) overwrite
/// those slots in place instead of keeping a `Vec` per operation.
pub fn selection_bounds(mdes: &CompiledMdes, block: &Block) -> Vec<u32> {
    let mut bounds = Vec::with_capacity(block.ops.len() + 1);
    let mut end = 0u32;
    bounds.push(end);
    for op in &block.ops {
        end += mdes.class(op.class).or_trees.len() as u32;
        bounds.push(end);
    }
    bounds
}

/// Reusable mutable state for repeated list-scheduling runs.
///
/// One instance serves any number of sequential [`ListScheduler`] runs —
/// the engine gives each *worker* one scratch that persists across all
/// jobs it executes, so the per-job cost drops to resets instead of
/// allocations: the RU map keeps its grown cycle window (`RuMap::clear`
/// zeroes occupancy without shrinking), and the solver vectors keep their
/// capacity.
///
/// Every `schedule*_reusing` entry point resets all of this **on
/// entry**, so a scratch left in an arbitrary state — including by a
/// run that panicked mid-schedule — never influences the next run.
/// That entry-reset discipline is what makes the engine's determinism
/// contract (schedules independent of worker count and job order)
/// survive state reuse.
#[derive(Debug, Default)]
pub struct SchedScratch {
    ru: RuMap,
    placed: Vec<Option<ScheduledOp>>,
    /// Unplaced neighbours each operation still waits on: predecessors
    /// forward, successors backward.
    waiting: Vec<usize>,
    /// Earliest time, in the loop's direction, each operation may issue.
    ready: Vec<i32>,
    order: Vec<usize>,
}

impl SchedScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> SchedScratch {
        SchedScratch::default()
    }
}

/// The list scheduler over one compiled MDES.
#[derive(Copy, Clone, Debug)]
pub struct ListScheduler<'a> {
    mdes: &'a CompiledMdes,
}

impl<'a> ListScheduler<'a> {
    /// Creates a scheduler for `mdes`.  Operations are ranked by
    /// critical-path height, greatest first (the paper's priority).
    pub fn new(mdes: &'a CompiledMdes) -> ListScheduler<'a> {
        ListScheduler { mdes }
    }

    /// Schedules `block` forward, accumulating checker statistics into
    /// `stats`.
    ///
    /// # Panics
    ///
    /// Panics if the machine description can never issue some operation
    /// (the scheduler would loop forever); a validated description of a
    /// real machine always can on an empty machine.
    pub fn schedule(&self, block: &Block, stats: &mut CheckStats) -> Schedule {
        self.schedule_reusing(block, &mut SchedScratch::new(), stats)
    }

    /// The reset-and-reuse entry point: schedules `block` against
    /// borrowed scratch state instead of allocating fresh per-run state.
    ///
    /// Produces exactly the schedule and statistics [`ListScheduler::schedule`]
    /// would — the scratch is fully reset on entry (see [`SchedScratch`]),
    /// so reuse is invisible in the results and only visible in the
    /// allocator profile.  This is what the engine's workers call for
    /// every job they claim.
    ///
    /// # Panics
    ///
    /// Panics if the machine description can never issue some operation,
    /// like [`ListScheduler::schedule`].
    pub fn schedule_reusing(
        &self,
        block: &Block,
        scratch: &mut SchedScratch,
        stats: &mut CheckStats,
    ) -> Schedule {
        let graph = DepGraph::build(block, self.mdes);
        self.schedule_with_graph_reusing(block, &graph, scratch, stats)
    }

    /// [`ListScheduler::schedule_reusing`] with a pre-built dependence
    /// graph.
    pub fn schedule_with_graph_reusing(
        &self,
        block: &Block,
        graph: &DepGraph,
        scratch: &mut SchedScratch,
        stats: &mut CheckStats,
    ) -> Schedule {
        self.place(block, graph, scratch, stats, Direction::Forward)
    }

    /// Schedules `block` backward: operations are placed from the block
    /// exit toward the entry (an operation becomes ready once all its
    /// *successors* are placed), then the schedule is normalized to start
    /// at cycle 0.  Used with the backward time-shift heuristic.
    pub fn schedule_backward(&self, block: &Block, stats: &mut CheckStats) -> Schedule {
        let graph = DepGraph::build(block, self.mdes);
        self.place(
            block,
            &graph,
            &mut SchedScratch::new(),
            stats,
            Direction::Backward,
        )
    }

    /// The one placement loop.  Time `t` counts up in the loop's
    /// direction: an operation issues at cycle `t` forward and at cycle
    /// `-t` backward, where it waits on its successors instead of its
    /// predecessors.  Each cycle, the waiting-free operations whose ready
    /// time has come are tried in priority order, and each placement
    /// raises the ready time of the operations it releases to
    /// `t + latency`.
    fn place(
        &self,
        block: &Block,
        graph: &DepGraph,
        scratch: &mut SchedScratch,
        stats: &mut CheckStats,
        direction: Direction,
    ) -> Schedule {
        let n = block.ops.len();
        if n == 0 {
            return Schedule::default();
        }
        let checker = Checker::new(self.mdes);
        let heights = graph.heights();
        let height_bound: i32 = heights.iter().copied().max().unwrap_or(0);
        let backward = direction == Direction::Backward;
        let (waits_on, releases) = if backward {
            (&graph.succs, &graph.preds)
        } else {
            (&graph.preds, &graph.succs)
        };
        // Backward placement starts at the critical-path horizon.
        let mut t = if backward { -height_bound } else { 0 };

        // Reset every piece of borrowed state on entry: a cleared RU map
        // is observationally a fresh one (the window placement is not a
        // contract surface) — schedules depend only on the block, never
        // on what was scheduled before.
        let SchedScratch {
            ru,
            placed,
            waiting,
            ready,
            order,
        } = scratch;
        ru.clear();
        placed.clear();
        placed.resize(n, None);
        waiting.clear();
        waiting.extend(waits_on.iter().map(Vec::len));
        ready.clear();
        ready.resize(n, t);

        let mut attempts: Vec<u32> = vec![0; n];
        // One entry per OR-tree of each operation's class, sized up front
        // so appends never reallocate however many attempts fail.
        let trees = |op: &Op| self.mdes.class(op.class).or_trees.len();
        let mut selected: Vec<u32> = Vec::with_capacity(block.ops.iter().map(trees).sum());
        let mut remaining = n;

        // An operation can always issue on an empty machine, so the
        // schedule can never exceed (critical path + n * max span) by
        // much; use a generous bound to catch broken descriptions.
        let span = (self.mdes.max_check_time() - self.mdes.min_check_time() + 1).max(1);
        let limit = t + height_bound + (n as i32 + 4) * span + 64;

        // Forward: critical-path height, greatest first; ties go to
        // program order.  Backward: lowest height first (the chain depth
        // from the exit matters bottom-up); ties go to reverse program
        // order.
        order.clear();
        order.extend(0..n);
        if backward {
            order.sort_by_key(|&i| (heights[i], std::cmp::Reverse(i)));
        } else {
            order.sort_by_key(|&i| (std::cmp::Reverse(heights[i]), i));
        }

        while remaining > 0 {
            assert!(
                t <= limit,
                "scheduler exceeded cycle bound {limit}: some operation can never issue"
            );
            let cycle = if backward { -t } else { t };
            for &op in order.iter() {
                if placed[op].is_some() || waiting[op] > 0 || ready[op] > t {
                    continue;
                }
                let class = block.ops[op].class;
                attempts[op] += 1;
                let start = selected.len();
                if checker.try_reserve_into(ru, class, cycle, stats, &mut selected) {
                    stats.count_operation();
                    placed[op] = Some(ScheduledOp {
                        cycle,
                        class,
                        sel_start: start as u32,
                        sel_len: (selected.len() - start) as u32,
                    });
                    remaining -= 1;
                    for edge in &releases[op] {
                        let next = if backward { edge.from } else { edge.to };
                        waiting[next] -= 1;
                        ready[next] = ready[next].max(t + edge.latency);
                    }
                }
            }
            t += 1;
        }

        // Normalize to start at cycle 0 (forward schedules already do).
        let first = placed.iter().flatten().map(|s| s.cycle).min().unwrap_or(0);
        let ops: Vec<ScheduledOp> = placed
            .drain(..)
            .map(|s| {
                let mut s = s.expect("every operation is placed");
                s.cycle -= first;
                s
            })
            .collect();
        let length = ops.iter().map(|s| s.cycle).max().unwrap_or(-1) + 1;
        Schedule {
            ops,
            selected,
            attempts,
            length,
        }
    }
}

/// Which way [`ListScheduler`]'s placement loop walks the block.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Direction {
    /// From the entry: operations wait on their predecessors.
    Forward,
    /// From the exit: operations wait on their successors.
    Backward,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::{Op, Reg};
    use mdes_core::spec::{AndOrTree, Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
    use mdes_core::usage::ResourceUsage;
    use mdes_core::{ClassId, UsageEncoding};

    fn u(r: usize, t: i32) -> ResourceUsage {
        ResourceUsage::new(mdes_core::ResourceId::from_index(r), t)
    }

    /// Two-issue machine: 2 decoders, 1 memory unit, 2 ALUs.
    fn two_issue() -> CompiledMdes {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("Dec", 2).unwrap(); // r0 r1
        spec.resources_mut().add("M").unwrap(); // r2
        spec.resources_mut().add_indexed("ALU", 2).unwrap(); // r3 r4

        let dec_opts: Vec<_> = (0..2)
            .map(|d| spec.add_option(TableOption::new(vec![u(d, 0)])))
            .collect();
        let dec = spec.add_or_tree(OrTree::named("Dec", dec_opts));
        let m_opt = spec.add_option(TableOption::new(vec![u(2, 0)]));
        let mem = spec.add_or_tree(OrTree::named("M", vec![m_opt]));
        let alu_opts: Vec<_> = (3..5)
            .map(|a| spec.add_option(TableOption::new(vec![u(a, 0)])))
            .collect();
        let alu = spec.add_or_tree(OrTree::named("ALU", alu_opts));

        let load_t = spec.add_and_or_tree(AndOrTree::new(vec![mem, dec]));
        let alu_t = spec.add_and_or_tree(AndOrTree::new(vec![alu, dec]));
        spec.add_class(
            "load",
            Constraint::AndOr(load_t),
            Latency::with_mem(2, 1),
            OpFlags::load(),
        )
        .unwrap();
        spec.add_class(
            "alu",
            Constraint::AndOr(alu_t),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    fn class(mdes: &CompiledMdes, name: &str) -> ClassId {
        mdes.class_by_name(name).unwrap()
    }

    #[test]
    fn independent_alu_ops_dual_issue() {
        let mdes = two_issue();
        let mut block = Block::new();
        for i in 0..4 {
            block.push(Op::new(class(&mdes, "alu"), vec![Reg(i)], vec![]));
        }
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        // 4 independent ALU ops on a 2-issue machine: 2 cycles.
        assert_eq!(schedule.length, 2);
        assert_eq!(stats.operations, 4);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
    }

    #[test]
    fn flow_dependences_respect_latency() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)])); // lat 2
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)]));
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        assert_eq!(schedule.ops[0].cycle, 0);
        assert_eq!(schedule.ops[1].cycle, 2);
    }

    #[test]
    fn memory_unit_serializes_loads() {
        let mdes = two_issue();
        let mut block = Block::new();
        for i in 0..3 {
            block.push(Op::new(
                class(&mdes, "load"),
                vec![Reg(10 + i)],
                vec![Reg(i)],
            ));
        }
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let mut cycles = schedule.cycles();
        cycles.sort_unstable();
        assert_eq!(cycles, vec![0, 1, 2], "one load per cycle through M");
        // Failed attempts happened: loads competed for M.
        assert!(stats.attempts > stats.operations);
    }

    #[test]
    fn priority_prefers_critical_path() {
        let mdes = two_issue();
        let mut block = Block::new();
        // Op 0 is a leaf; op 1 feeds a chain of two.  With one ALU busy
        // the chain head must win the first decoder pair.
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(9)], vec![]));
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)]));
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        assert_eq!(schedule.ops[1].cycle, 0, "chain head scheduled first");
        assert_eq!(schedule.length, 3);
    }

    #[test]
    fn verify_detects_violations() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)]));
        let mut stats = CheckStats::new();
        let mut schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
        // Corrupt the schedule: consumer before producer completes.
        schedule.ops[1].cycle = 0;
        assert!(schedule.verify(&graph, &mdes).is_err());
    }

    #[test]
    fn verify_rejects_schedules_that_leave_operations_out() {
        let mdes = two_issue();
        let alu = class(&mdes, "alu");
        // Three independent ops, and a three-op dependence chain.
        let independent: Block = (0..3).map(|i| Op::new(alu, vec![Reg(i)], vec![])).collect();
        let chain: Block = (0..3)
            .map(|i| Op::new(alu, vec![Reg(i + 1)], vec![Reg(i)]))
            .collect();
        let graph = DepGraph::build(&independent, &mdes);
        let err = Schedule::default().verify(&graph, &mdes).unwrap_err();
        assert!(
            err.contains("places 0 operation(s) but the block has 3"),
            "{err}"
        );

        for block in [independent, chain] {
            let graph = DepGraph::build(&block, &mdes);
            let mut schedule = ListScheduler::new(&mdes).schedule(&block, &mut CheckStats::new());
            schedule.verify(&graph, &mdes).unwrap();
            schedule.ops.pop();
            let err = schedule.verify(&graph, &mdes).unwrap_err();
            assert!(
                err.contains("places 2 operation(s) but the block has 3"),
                "{err}"
            );
        }
    }

    #[test]
    fn verify_rejects_an_operation_that_reserved_nothing() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![]));
        let mut stats = CheckStats::new();
        let mut schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
        // Empty op 1's selection: it no longer holds a decoder or an ALU.
        schedule.ops[1].sel_len = 0;
        let err = schedule.verify(&graph, &mdes).unwrap_err();
        assert!(err.contains("operation 1 selects 0 option(s)"), "{err}");
    }

    #[test]
    fn verify_rejects_an_option_from_another_tree() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(1)], vec![]));
        let mut stats = CheckStats::new();
        let mut schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
        // The alu class is (ALU tree, decoder tree); swap its ALU option
        // for the memory unit's, which no ALU tree offers.  The replay
        // alone would accept it: nothing else holds M.
        let load_trees = &mdes.class(class(&mdes, "load")).or_trees;
        let m_option = mdes.or_trees()[load_trees[0] as usize].options[0];
        let start = schedule.ops[0].sel_start as usize;
        schedule.selected[start] = m_option;
        let err = schedule.verify(&graph, &mdes).unwrap_err();
        assert!(err.contains("not in its OR-tree 0"), "{err}");
    }

    #[test]
    fn selections_hold_one_option_per_tree() {
        let mdes = two_issue();
        let mut block = Block::new();
        for i in 0..3 {
            block.push(Op::new(class(&mdes, "load"), vec![Reg(i + 1)], vec![]));
        }
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        // Failed attempts (the loads contend for M) leave nothing behind.
        assert!(stats.attempts > stats.operations);
        assert_eq!(schedule.selected.len(), 3 * 2);
        for i in 0..3 {
            assert_eq!(schedule.selection(i).len(), 2);
        }
    }

    #[test]
    fn empty_block_schedules_trivially() {
        let mdes = two_issue();
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&Block::new(), &mut stats);
        assert_eq!(schedule.length, 0);
        assert_eq!(stats.attempts, 0);
    }

    #[test]
    fn backward_schedule_is_valid_and_normalized() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(3)], vec![]));
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule_backward(&block, &mut stats);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
        assert_eq!(schedule.cycles().iter().min(), Some(&0));
    }

    #[test]
    fn double_booking_is_detected_by_verify() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "load"), vec![Reg(2)], vec![Reg(0)]));
        let mut stats = CheckStats::new();
        let mut schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
        // Force both loads into the same cycle: M is double-booked.
        let c0 = schedule.ops[0].cycle;
        schedule.ops[1].cycle = c0;
        assert!(schedule
            .verify(&graph, &mdes)
            .unwrap_err()
            .contains("double-books"));
    }

    /// Pins backward scheduling's exact placements, selections and
    /// checker accounting on one dependent block.  The values were taken
    /// from the backward scheduler's own placement loop, before it ran
    /// as the forward loop in negated time.
    #[test]
    fn backward_schedule_keeps_its_exact_placements_and_stats() {
        let mdes = two_issue();
        let (load, alu) = (class(&mdes, "load"), class(&mdes, "alu"));
        let mut block = Block::new();
        block.push(Op::new(load, vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(load, vec![Reg(2)], vec![Reg(0)]));
        block.push(Op::new(alu, vec![Reg(3)], vec![Reg(1), Reg(2)]));
        block.push(Op::new(alu, vec![Reg(4)], vec![Reg(3)]));
        block.push(Op::new(alu, vec![Reg(5)], vec![Reg(1)]));
        block.push(Op::new(load, vec![Reg(6)], vec![Reg(4)]));
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule_backward(&block, &mut stats);
        schedule
            .verify(&DepGraph::build(&block, &mdes), &mdes)
            .unwrap();
        assert_eq!(schedule.cycles(), vec![0, 1, 3, 4, 5, 5]);
        assert_eq!(schedule.length, 6);
        assert_eq!(schedule.attempts, vec![2, 1, 1, 1, 1, 1]);
        // Placement order runs from the exit: op 5 first, op 0 last.
        assert_eq!(schedule.selected, vec![2, 0, 3, 1, 3, 0, 3, 0, 2, 0, 2, 0]);
        let starts: Vec<u32> = schedule.ops.iter().map(|s| s.sel_start).collect();
        assert_eq!(starts, vec![10, 8, 6, 4, 2, 0]);
        let counts = (stats.attempts, stats.options_checked, stats.resource_checks);
        assert_eq!((stats.operations, counts), (6, (7, 14, 14)));
    }
}
