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

use mdes_core::{Checker, ClassId, CompiledMdes, OptionHints, RuMap};

use crate::depgraph::DepGraph;
use crate::operation::Block;
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

/// Total selection length of `block`: one entry per OR-tree of each
/// operation's class.  Sizing a schedule's [`Schedule::selected`] with it
/// up front means appends never reallocate, however many attempts fail.
fn selection_len(mdes: &CompiledMdes, block: &Block) -> usize {
    block
        .ops
        .iter()
        .map(|op| mdes.class(op.class).or_trees.len())
        .sum()
}

/// The placement of an operation of `class` at `cycle` whose selection
/// occupies `selected[start..]`.
fn placed_at(cycle: i32, class: ClassId, start: usize, selected: &[u32]) -> ScheduledOp {
    ScheduledOp {
        cycle,
        class,
        sel_start: start as u32,
        sel_len: (selected.len() - start) as u32,
    }
}

/// Reusable mutable state for repeated list-scheduling runs.
///
/// One instance serves any number of sequential [`ListScheduler`] runs —
/// the engine gives each *worker* one scratch that persists across all
/// jobs it executes, so the per-job cost drops to resets instead of
/// allocations: the RU map keeps its grown cycle window (`RuMap::clear`
/// zeroes occupancy without shrinking), the solver vectors keep their
/// capacity, and the hint table (when hinting is on) keeps its
/// allocation while being cleared back to the fresh state.
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
    unscheduled_preds: Vec<usize>,
    ready_time: Vec<i32>,
    order: Vec<usize>,
    hints: Option<OptionHints>,
}

impl SchedScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> SchedScratch {
        SchedScratch::default()
    }
}

/// Operation priority function for list scheduling.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Critical-path height, greatest first (the conventional choice and
    /// the one the paper's scheduler uses).
    #[default]
    Height,
    /// Least slack first: operations with the smallest difference between
    /// their as-late-as-possible and as-soon-as-possible start times.
    Slack,
    /// Original program order (a deliberately weak baseline).
    SourceOrder,
}

/// The list scheduler over one compiled MDES.
#[derive(Copy, Clone, Debug)]
pub struct ListScheduler<'a> {
    mdes: &'a CompiledMdes,
    priority: Priority,
    hints: bool,
}

impl<'a> ListScheduler<'a> {
    /// Creates a scheduler for `mdes` with the conventional critical-path
    /// priority.
    pub fn new(mdes: &'a CompiledMdes) -> ListScheduler<'a> {
        ListScheduler {
            mdes,
            priority: Priority::Height,
            hints: false,
        }
    }

    /// Selects a different priority function.
    pub fn with_priority(mut self, priority: Priority) -> ListScheduler<'a> {
        self.priority = priority;
        self
    }

    /// Enables hint-first option ordering: the checker probes each
    /// OR-tree's most-recently-successful option before falling back to
    /// the priority scan.  Hint state is owned by each `schedule*` call,
    /// so the same block always yields the same schedule — but because a
    /// lower-priority option can win when the hinted one matches first,
    /// hinted schedules may pick different options than the paper's
    /// strict-priority accounting.  Leave off for paper reproduction.
    pub fn with_hints(mut self, hints: bool) -> ListScheduler<'a> {
        self.hints = hints;
        self
    }

    /// The priority order the forward scheduler uses: fills `order` with
    /// a permutation of operation indices, most urgent first.
    fn priority_order_into(&self, graph: &DepGraph, heights: &[i32], order: &mut Vec<usize>) {
        let n = graph.num_ops;
        order.clear();
        order.extend(0..n);
        match self.priority {
            Priority::Height => {
                order.sort_by_key(|&i| (std::cmp::Reverse(heights[i]), i));
            }
            Priority::Slack => {
                // ASAP from predecessors; ALAP = critical path - height.
                let mut asap = vec![0i32; n];
                for i in 0..n {
                    for edge in &graph.preds[i] {
                        asap[i] = asap[i].max(asap[edge.from] + edge.latency);
                    }
                }
                let critical = heights.iter().copied().max().unwrap_or(0);
                order.sort_by_key(|&i| ((critical - heights[i]) - asap[i], i));
            }
            Priority::SourceOrder => {}
        }
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
        let graph = DepGraph::build(block, self.mdes);
        self.schedule_with_graph(block, &graph, stats)
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

    /// Schedules `block` with a pre-built dependence graph.
    pub fn schedule_with_graph(
        &self,
        block: &Block,
        graph: &DepGraph,
        stats: &mut CheckStats,
    ) -> Schedule {
        self.schedule_with_graph_reusing(block, graph, &mut SchedScratch::new(), stats)
    }

    /// [`ListScheduler::schedule_with_graph`] against borrowed scratch
    /// state — the forward cycle-driven core all other entry points
    /// bottom out in.
    pub fn schedule_with_graph_reusing(
        &self,
        block: &Block,
        graph: &DepGraph,
        scratch: &mut SchedScratch,
        stats: &mut CheckStats,
    ) -> Schedule {
        let n = block.ops.len();
        if n == 0 {
            return Schedule::default();
        }
        let checker = Checker::new(self.mdes);
        let heights = graph.heights();

        // Reset every piece of borrowed state on entry: a cleared RU map
        // is observationally a fresh one (the window placement is not a
        // contract surface), and cleared hint state is exactly what a
        // fresh run starts from — schedules depend only on the block,
        // never on what was scheduled before.
        let SchedScratch {
            ru,
            placed,
            unscheduled_preds,
            ready_time,
            order,
            hints: hint_slot,
        } = scratch;
        ru.clear();
        placed.clear();
        placed.resize(n, None);
        unscheduled_preds.clear();
        unscheduled_preds.extend(graph.preds.iter().map(Vec::len));
        ready_time.clear();
        ready_time.resize(n, 0);
        let hints = if self.hints {
            let hints = hint_slot.get_or_insert_with(|| OptionHints::new(self.mdes));
            hints.reset_for(self.mdes);
            Some(hints)
        } else {
            None
        };

        let mut attempts: Vec<u32> = vec![0; n];
        let mut selected: Vec<u32> = Vec::with_capacity(selection_len(self.mdes, block));
        let mut remaining = n;
        let mut cycle = 0i32;

        // An operation can always issue on an empty machine, so the
        // schedule can never exceed (critical path + n * max span) by
        // much; use a generous bound to catch broken descriptions.
        let span = (self.mdes.max_check_time() - self.mdes.min_check_time() + 1).max(1);
        let height_bound: i32 = heights.iter().copied().max().unwrap_or(0);
        let limit = height_bound + (n as i32 + 4) * span + 64;

        self.priority_order_into(graph, &heights, order);

        let mut hints = hints;
        while remaining > 0 {
            assert!(
                cycle <= limit,
                "scheduler exceeded cycle bound {limit}: some operation can never issue"
            );
            for &op in order.iter() {
                if placed[op].is_some() || unscheduled_preds[op] > 0 || ready_time[op] > cycle {
                    continue;
                }
                let class = block.ops[op].class;
                attempts[op] += 1;
                let start = selected.len();
                let reserved = match hints.as_deref_mut() {
                    Some(h) => {
                        checker.try_reserve_hinted_into(ru, class, cycle, stats, h, &mut selected)
                    }
                    None => checker.try_reserve_into(ru, class, cycle, stats, &mut selected),
                };
                if reserved {
                    stats.count_operation();
                    placed[op] = Some(placed_at(cycle, class, start, &selected));
                    remaining -= 1;
                    for edge in &graph.succs[op] {
                        unscheduled_preds[edge.to] -= 1;
                        ready_time[edge.to] = ready_time[edge.to].max(cycle + edge.latency);
                    }
                }
            }
            cycle += 1;
        }

        let ops: Vec<ScheduledOp> = placed.drain(..).map(Option::unwrap).collect();
        let length = ops.iter().map(|s| s.cycle).max().unwrap_or(-1) + 1;
        Schedule {
            ops,
            selected,
            attempts,
            length,
        }
    }

    /// Schedules `block` with *operation-driven* list scheduling: each
    /// operation, taken in priority order (preds first), is placed at the
    /// earliest cycle whose resources are free, probing cycle after cycle.
    ///
    /// Compared with cycle-driven scheduling this issues many more
    /// scheduling attempts per operation — the regime the paper predicts
    /// for "more advanced scheduling techniques such as … operation
    /// scheduling", where the AND/OR representation's early conflict
    /// detection pays off even more (Section 4).
    ///
    /// # Panics
    ///
    /// Panics if some operation can never issue on an empty machine.
    pub fn schedule_operation_driven(&self, block: &Block, stats: &mut CheckStats) -> Schedule {
        let graph = DepGraph::build(block, self.mdes);
        let n = block.ops.len();
        if n == 0 {
            return Schedule::default();
        }
        let checker = Checker::new(self.mdes);
        let heights = graph.heights();

        let mut placed: Vec<Option<ScheduledOp>> = vec![None; n];
        let mut attempts: Vec<u32> = vec![0; n];
        let mut selected: Vec<u32> = Vec::with_capacity(selection_len(self.mdes, block));
        let mut unscheduled_preds: Vec<usize> = graph.preds.iter().map(Vec::len).collect();
        let mut ru = RuMap::new();
        let span = (self.mdes.max_check_time() - self.mdes.min_check_time() + 1).max(1);
        let limit_per_op = (n as i32 + 4) * span + 64;

        for _ in 0..n {
            // Highest-priority operation whose predecessors are placed.
            let op = (0..n)
                .filter(|&i| placed[i].is_none() && unscheduled_preds[i] == 0)
                .max_by_key(|&i| (heights[i], std::cmp::Reverse(i)))
                .expect("dependence graph is acyclic");
            let est = graph.preds[op]
                .iter()
                .map(|e| placed[e.from].as_ref().unwrap().cycle + e.latency)
                .max()
                .unwrap_or(0);
            let class = block.ops[op].class;
            let start = selected.len();
            let mut cycle = est;
            loop {
                assert!(
                    cycle <= est + limit_per_op,
                    "operation scheduling wedged: some operation can never issue"
                );
                attempts[op] += 1;
                if checker.try_reserve_into(&mut ru, class, cycle, stats, &mut selected) {
                    break;
                }
                cycle += 1;
            }
            stats.count_operation();
            placed[op] = Some(placed_at(cycle, class, start, &selected));
            for edge in &graph.succs[op] {
                unscheduled_preds[edge.to] -= 1;
            }
        }

        let ops: Vec<ScheduledOp> = placed.into_iter().map(Option::unwrap).collect();
        let length = ops.iter().map(|s| s.cycle).max().unwrap_or(-1) + 1;
        Schedule {
            ops,
            selected,
            attempts,
            length,
        }
    }

    /// Schedules `block` backward: operations are placed from the block
    /// exit toward the entry (an operation becomes ready once all its
    /// *successors* are placed), then the schedule is normalized to start
    /// at cycle 0.  Used with the backward time-shift heuristic.
    pub fn schedule_backward(&self, block: &Block, stats: &mut CheckStats) -> Schedule {
        let graph = DepGraph::build(block, self.mdes);
        let n = block.ops.len();
        if n == 0 {
            return Schedule::default();
        }
        let checker = Checker::new(self.mdes);
        let heights = graph.heights();
        let horizon: i32 = heights.iter().copied().max().unwrap_or(0);

        let mut placed: Vec<Option<ScheduledOp>> = vec![None; n];
        let mut attempts: Vec<u32> = vec![0; n];
        let mut selected: Vec<u32> = Vec::with_capacity(selection_len(self.mdes, block));
        let mut unscheduled_succs: Vec<usize> = graph.succs.iter().map(Vec::len).collect();
        // Latest cycle each op may occupy, given placed successors.
        let mut deadline: Vec<i32> = vec![horizon; n];
        let mut ru = RuMap::new();
        let mut remaining = n;
        let mut cycle = horizon;

        let span = (self.mdes.max_check_time() - self.mdes.min_check_time() + 1).max(1);
        let limit = horizon - ((n as i32 + 4) * span + 64);

        // Priority: *depth* (longest chain from the entry side is what
        // matters when working bottom-up); approximate with reverse
        // program order + low height first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (heights[i], std::cmp::Reverse(i)));

        while remaining > 0 {
            assert!(
                cycle >= limit,
                "backward scheduler exceeded cycle bound: some operation can never issue"
            );
            for &op in &order {
                if placed[op].is_some() || unscheduled_succs[op] > 0 || deadline[op] < cycle {
                    continue;
                }
                let class = block.ops[op].class;
                attempts[op] += 1;
                let start = selected.len();
                if checker.try_reserve_into(&mut ru, class, cycle, stats, &mut selected) {
                    stats.count_operation();
                    placed[op] = Some(placed_at(cycle, class, start, &selected));
                    remaining -= 1;
                    for edge in &graph.preds[op] {
                        unscheduled_succs[edge.from] -= 1;
                        deadline[edge.from] = deadline[edge.from].min(cycle - edge.latency);
                    }
                }
            }
            cycle -= 1;
        }

        // Normalize to start at cycle 0.
        let min_cycle = placed
            .iter()
            .map(|s| s.as_ref().unwrap().cycle)
            .min()
            .unwrap();
        let ops: Vec<ScheduledOp> = placed
            .into_iter()
            .map(|s| {
                let mut s = s.unwrap();
                s.cycle -= min_cycle;
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
    fn all_priority_functions_produce_valid_schedules() {
        let mdes = two_issue();
        let mut block = Block::new();
        // A mix of chains and independent work.
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(3)], vec![Reg(2)]));
        for i in 0..4 {
            block.push(Op::new(class(&mdes, "alu"), vec![Reg(10 + i)], vec![]));
        }
        let graph = DepGraph::build(&block, &mdes);
        let mut lengths = Vec::new();
        for priority in [Priority::Height, Priority::Slack, Priority::SourceOrder] {
            let mut stats = CheckStats::new();
            let schedule = ListScheduler::new(&mdes)
                .with_priority(priority)
                .schedule(&block, &mut stats);
            schedule.verify(&graph, &mdes).unwrap();
            lengths.push(schedule.length);
        }
        // The critical-path priority is never worse than source order
        // on this block.
        assert!(lengths[0] <= lengths[2], "{lengths:?}");
    }

    #[test]
    fn priority_functions_are_deterministic() {
        let mdes = two_issue();
        let mut block = Block::new();
        for i in 0..6 {
            block.push(Op::new(class(&mdes, "alu"), vec![Reg(i)], vec![]));
        }
        for priority in [Priority::Height, Priority::Slack, Priority::SourceOrder] {
            let mut a = CheckStats::new();
            let mut b = CheckStats::new();
            let s1 = ListScheduler::new(&mdes)
                .with_priority(priority)
                .schedule(&block, &mut a);
            let s2 = ListScheduler::new(&mdes)
                .with_priority(priority)
                .schedule(&block, &mut b);
            assert_eq!(s1.cycles(), s2.cycles());
        }
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
    fn operation_driven_schedule_is_valid() {
        let mdes = two_issue();
        let mut block = Block::new();
        for i in 0..3 {
            block.push(Op::new(
                class(&mdes, "load"),
                vec![Reg(10 + i)],
                vec![Reg(i)],
            ));
        }
        for i in 0..4 {
            block.push(Op::new(
                class(&mdes, "alu"),
                vec![Reg(20 + i)],
                vec![Reg(10)],
            ));
        }
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule_operation_driven(&block, &mut stats);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
        assert_eq!(stats.operations, 7);
    }

    #[test]
    fn operation_driven_issues_at_least_as_many_attempts() {
        let mdes = two_issue();
        let mut block = Block::new();
        for i in 0..6 {
            block.push(Op::new(
                class(&mdes, "load"),
                vec![Reg(10 + i)],
                vec![Reg(0)],
            ));
        }
        let mut cycle_stats = CheckStats::new();
        ListScheduler::new(&mdes).schedule(&block, &mut cycle_stats);
        let mut op_stats = CheckStats::new();
        ListScheduler::new(&mdes).schedule_operation_driven(&block, &mut op_stats);
        assert!(op_stats.attempts >= cycle_stats.attempts);
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
}
