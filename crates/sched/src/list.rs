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

use crate::depgraph::{DepGraph, Edge};
use crate::operation::Block;
use crate::CheckStats;

/// A complete schedule of one basic block, in one exact-size buffer.
///
/// For a block of `n` operations whose classes have `S` OR-trees in all,
/// the buffer holds `3n + 1 + S` words, in four sections:
///
/// * each operation's issue cycle (`n` words, read with
///   [`Schedule::cycle`]);
/// * each operation's scheduling attempts (`n` words, read with
///   [`Schedule::attempts`]);
/// * the fixed-slot selection bounds of the block (`n + 1` prefix sums,
///   as [`selection_bounds`] lays them out);
/// * every operation's selected compiled options, one per OR-tree of its
///   class, in block order (`S` words, read with
///   [`Schedule::selection`]).
///
/// The class of each operation is the block's own, so the schedule keeps
/// no copy of it; [`Schedule::verify`] reads it from the dependence
/// graph.  A schedule of no operations holds no buffer at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    words: Vec<u32>,
    /// Operations placed: `n` above.
    ops: u32,
    /// Schedule length in cycles (last issue cycle + 1).
    pub length: i32,
}

impl Schedule {
    /// A schedule of `cycles.len()` operations built from its parts: each
    /// operation's issue cycle and attempts, fixed-slot selection
    /// `bounds` as [`selection_bounds`] gives them, and the `selected`
    /// options those bounds slice.  The length is the last issue cycle
    /// plus one.  Searches that keep their own fixed-slot buffers (the
    /// exact oracle) turn their result into a schedule this way.
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree: `attempts` not one per cycle,
    /// `bounds` not one more than that, not ascending from 0, or not
    /// ending at `selected.len()`.
    pub fn from_slots(
        cycles: &[i32],
        attempts: &[u32],
        bounds: &[u32],
        selected: &[u32],
    ) -> Schedule {
        let n = cycles.len();
        assert_eq!(attempts.len(), n, "one attempt count per operation");
        assert_eq!(bounds.len(), n + 1, "n + 1 selection bounds");
        assert!(
            bounds[0] == 0
                && bounds.windows(2).all(|pair| pair[0] <= pair[1])
                && bounds[n] as usize == selected.len(),
            "selection bounds must ascend from 0 to the selections' length"
        );
        if n == 0 {
            return Schedule::default();
        }
        let mut words = Vec::with_capacity(3 * n + 1 + selected.len());
        words.extend(cycles.iter().map(|&cycle| cycle as u32));
        words.extend_from_slice(attempts);
        words.extend_from_slice(bounds);
        words.extend_from_slice(selected);
        Schedule {
            words,
            ops: n as u32,
            length: cycles.iter().copied().max().unwrap_or(-1) + 1,
        }
    }

    /// Number of operations the schedule places.
    pub fn len(&self) -> usize {
        self.ops as usize
    }

    /// True when the schedule places no operation.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Issue cycle of operation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cycle(&self, i: usize) -> i32 {
        self.section(0)[i] as i32
    }

    /// Issue cycles of every operation, in block order (for
    /// schedule-equality assertions).
    pub fn cycles(&self) -> Vec<i32> {
        self.section(0).iter().map(|&cycle| cycle as i32).collect()
    }

    /// Scheduling attempts spent on operation `i` (1 = first try
    /// succeeded).  Feeds the per-class attempt breakdowns of the
    /// paper's Tables 1–4.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn attempts(&self, i: usize) -> u32 {
        self.section(1)[i]
    }

    /// The compiled options operation `i` reserved, one per OR-tree of
    /// its class.  Together with the cycle it is what unscheduling needs —
    /// the capability finite-state-automata approaches lack (Section 10).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn selection(&self, i: usize) -> &[u32] {
        let n = self.len();
        let bounds = &self.words[2 * n..=3 * n];
        &self.words[3 * n + 1..][bounds[i] as usize..bounds[i + 1] as usize]
    }

    /// Section `k` of the per-operation words: 0 for cycles, 1 for
    /// attempts.
    fn section(&self, k: usize) -> &[u32] {
        let n = self.len();
        &self.words[k * n..(k + 1) * n]
    }

    /// Checks that the schedule satisfies every dependence of `graph`,
    /// that every operation reserved exactly one option of each OR-tree of
    /// its class, and that those reservations never conflict under `mdes`.
    ///
    /// Replays the reservations into a fresh RU map;
    /// [`SchedScratch::verify`] replays into the scratch's own.
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
    /// let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
    /// let graph = DepGraph::build(&block, &mdes);
    /// assert!(schedule.verify(&graph, &mdes).is_ok());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn verify(&self, graph: &DepGraph, mdes: &CompiledMdes) -> Result<(), String> {
        self.verify_in(graph, mdes, &mut RuMap::new())
    }

    /// [`Schedule::verify`], replaying the reservations into `ru`, which
    /// is cleared first.  A map that has held a schedule as long before
    /// makes verification allocation-free unless it fails.
    pub(crate) fn verify_in(
        &self,
        graph: &DepGraph,
        mdes: &CompiledMdes,
        ru: &mut RuMap,
    ) -> Result<(), String> {
        let n = self.len();
        if n != graph.num_ops() {
            return Err(format!(
                "schedule places {n} operation(s) but the block has {}",
                graph.num_ops()
            ));
        }
        for edge in graph.edges() {
            let from = self.cycle(edge.from as usize);
            let to = self.cycle(edge.to as usize);
            if to < from + edge.latency {
                return Err(format!(
                    "dependence {}→{} ({:?}, latency {}) violated: cycles {} → {}",
                    edge.from, edge.to, edge.kind, edge.latency, from, to
                ));
            }
        }

        // Replay all reservations and ensure no resource is claimed twice.
        ru.clear();
        let selected = self.words.get(3 * n + 1..).unwrap_or_default();
        for index in 0..n {
            let selection = self
                .words
                .get(2 * n + index..2 * n + index + 2)
                .and_then(|bound| selected.get(bound[0] as usize..bound[1] as usize))
                .ok_or_else(|| format!("operation {index}: selection out of range"))?;
            check_selection(mdes, graph.class(index), selection)
                .map_err(|why| format!("operation {index} {why}"))?;
            let issue = self.cycle(index);
            for &opt_idx in selection {
                for check in mdes.option_checks(opt_idx as usize) {
                    let cycle = issue + check.time;
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
    if class.index() >= mdes.classes().len() {
        return Err(format!("has unknown class {class:?}"));
    }
    let trees = mdes.class_trees(class);
    if selection.len() != trees.len() {
        return Err(format!(
            "selects {} option(s) for {} OR-tree(s)",
            selection.len(),
            trees.len()
        ));
    }
    for (k, (&tree, &opt_idx)) in trees.iter().zip(selection).enumerate() {
        if !mdes.tree_options(tree as usize).contains(&opt_idx) {
            return Err(format!("selects option {opt_idx}, not in its OR-tree {k}"));
        }
    }
    Ok(())
}

/// The fixed-slot selection layout of `block`: `n + 1` prefix sums of
/// each operation's OR-tree count, so operation `i` owns
/// `bounds[i]..bounds[i + 1]` of a flat selection buffer.  Searches that
/// re-place operations (the modulo scheduler, the exact oracle) overwrite
/// those slots in place instead of keeping a `Vec` per operation, and a
/// [`Schedule`] keeps its selections in the same layout.
pub fn selection_bounds(mdes: &CompiledMdes, block: &Block) -> Vec<u32> {
    let mut bounds = Vec::with_capacity(block.ops.len() + 1);
    bounds.push(0);
    bounds.extend(bound_ends(mdes, block));
    bounds
}

/// [`selection_bounds`] after its leading 0: where each operation's slot
/// ends.
fn bound_ends<'b>(mdes: &'b CompiledMdes, block: &'b Block) -> impl Iterator<Item = u32> + 'b {
    block.ops.iter().scan(0, |end, op| {
        *end += mdes.class_trees(op.class).len() as u32;
        Some(*end)
    })
}

/// Reusable mutable state for repeated list-scheduling runs.
///
/// One instance serves any number of sequential [`ListScheduler`] runs —
/// the engine gives each *worker* one scratch that persists across all
/// jobs it executes, so the per-job cost drops to resets instead of
/// allocations: the dependence graph is rebuilt in place
/// ([`DepGraph::rebuild`]), the RU map keeps its grown cycle window
/// (`RuMap::clear` zeroes occupancy without shrinking), and the solver
/// vectors keep their capacity.  What a scratch retains is bounded by the
/// largest block it has scheduled.
///
/// Every `schedule*` entry point that takes a scratch resets all of this
/// **on entry**, so a scratch left in an arbitrary state — including by a
/// run that panicked mid-schedule — never influences the next run.
/// That entry-reset discipline is what makes the engine's determinism
/// contract (schedules independent of worker count and job order)
/// survive state reuse.
#[derive(Debug, Default)]
pub struct SchedScratch {
    graph: DepGraph,
    placement: Placement,
    schedule: Schedule,
}

impl SchedScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> SchedScratch {
        SchedScratch::default()
    }

    /// The dependence graph of the block this scratch last scheduled
    /// through [`ListScheduler::schedule_reusing`] or
    /// [`ListScheduler::schedule_in_scratch`].
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The schedule [`ListScheduler::schedule_in_scratch`] last left here.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Verifies [`SchedScratch::schedule`] against [`SchedScratch::graph`]
    /// under `mdes`, the description it was placed with
    /// ([`Schedule::verify`]), replaying its reservations into the
    /// scratch's own RU map: once warm, a block verifies without
    /// allocating unless it fails.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn verify(&mut self, mdes: &CompiledMdes) -> Result<(), String> {
        self.schedule
            .verify_in(&self.graph, mdes, &mut self.placement.ru)
    }
}

/// The placement loop's buffers.
#[derive(Debug, Default)]
struct Placement {
    ru: RuMap,
    placed: Vec<bool>,
    /// Unplaced neighbours each operation still waits on: predecessors
    /// forward, successors backward.
    waiting: Vec<usize>,
    /// Earliest time, in the loop's direction, each operation may issue.
    ready: Vec<i32>,
    order: Vec<usize>,
    /// The attempt in flight's selection, copied into the operation's
    /// fixed slot when the attempt succeeds.
    choice: Vec<u32>,
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
    /// borrowed scratch state instead of allocating fresh per-run state,
    /// rebuilding the scratch's dependence graph in place.
    ///
    /// Produces exactly the schedule and statistics [`ListScheduler::schedule`]
    /// would — the scratch is fully reset on entry (see [`SchedScratch`]),
    /// so reuse is invisible in the results and only visible in the
    /// allocator profile: once warm, a block costs the one exact-size
    /// buffer of the returned [`Schedule`] and nothing else.  This is
    /// what the engine's batch workers call for every job they claim.
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
        scratch.graph.rebuild(block, self.mdes);
        let mut schedule = Schedule::default();
        self.place(
            block,
            &scratch.graph,
            &mut scratch.placement,
            &mut schedule,
            stats,
            Direction::Forward,
        );
        schedule
    }

    /// [`ListScheduler::schedule_reusing`] with the schedule kept in the
    /// scratch too: the result is [`SchedScratch::schedule`], beside the
    /// graph it was placed against ([`SchedScratch::graph`]), until the
    /// next run.  Once warm, a block allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the machine description can never issue some operation,
    /// like [`ListScheduler::schedule`].
    pub fn schedule_in_scratch<'s>(
        &self,
        block: &Block,
        scratch: &'s mut SchedScratch,
        stats: &mut CheckStats,
    ) -> &'s Schedule {
        let SchedScratch {
            graph,
            placement,
            schedule,
        } = scratch;
        graph.rebuild(block, self.mdes);
        self.place(block, graph, placement, schedule, stats, Direction::Forward);
        schedule
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
        let mut schedule = Schedule::default();
        self.place(
            block,
            graph,
            &mut scratch.placement,
            &mut schedule,
            stats,
            Direction::Forward,
        );
        schedule
    }

    /// Schedules `block` backward: operations are placed from the block
    /// exit toward the entry (an operation becomes ready once all its
    /// *successors* are placed), then the schedule is normalized to start
    /// at cycle 0.  Used with the backward time-shift heuristic.
    pub fn schedule_backward(&self, block: &Block, stats: &mut CheckStats) -> Schedule {
        let graph = DepGraph::build(block, self.mdes);
        let mut schedule = Schedule::default();
        self.place(
            block,
            &graph,
            &mut Placement::default(),
            &mut schedule,
            stats,
            Direction::Backward,
        );
        schedule
    }

    /// The one placement loop, writing its schedule into `out`.  Time `t`
    /// counts up in the loop's direction: an operation issues at cycle
    /// `t` forward and at cycle `-t` backward, where it waits on its
    /// successors instead of its predecessors.  Each cycle, the
    /// waiting-free operations whose ready time has come are tried in
    /// priority order, and each placement raises the ready time of the
    /// operations it releases to `t + latency`.
    fn place(
        &self,
        block: &Block,
        graph: &DepGraph,
        placement: &mut Placement,
        out: &mut Schedule,
        stats: &mut CheckStats,
        direction: Direction,
    ) {
        let n = block.ops.len();
        // Reset every piece of borrowed state on entry: a cleared RU map
        // is observationally a fresh one (the window placement is not a
        // contract surface) — schedules depend only on the block, never
        // on what was scheduled before.
        let Schedule { words, ops, length } = out;
        words.clear();
        *ops = n as u32;
        *length = 0;
        if n == 0 {
            return;
        }
        let checker = Checker::new(self.mdes);
        let heights = graph.heights();
        let height_bound: i32 = heights.iter().copied().max().unwrap_or(0);
        let backward = direction == Direction::Backward;
        type Edges = fn(&DepGraph, usize) -> &[Edge];
        let (waits_on, releases): (Edges, Edges) = if backward {
            (DepGraph::succs, DepGraph::preds)
        } else {
            (DepGraph::preds, DepGraph::succs)
        };
        // Backward placement starts at the critical-path horizon.
        let mut t = if backward { -height_bound } else { 0 };

        let Placement {
            ru,
            placed,
            waiting,
            ready,
            order,
            choice,
        } = placement;
        ru.clear();
        placed.clear();
        placed.resize(n, false);
        waiting.clear();
        waiting.extend((0..n).map(|op| waits_on(graph, op).len()));
        ready.clear();
        ready.resize(n, t);

        // The schedule's one buffer, sized exactly once (a fresh schedule
        // holds no spare capacity): zeroed cycles and attempts, the
        // block's selection bounds, and a zeroed slot per OR-tree.
        let trees: usize = block
            .ops
            .iter()
            .map(|op| self.mdes.class_trees(op.class).len())
            .sum();
        words.reserve_exact(3 * n + 1 + trees);
        words.resize(2 * n + 1, 0);
        words.extend(bound_ends(self.mdes, block));
        words.resize(3 * n + 1 + trees, 0);
        let (head, selected) = words.split_at_mut(3 * n + 1);
        let (cycles, head) = head.split_at_mut(n);
        let (attempts, bounds) = head.split_at_mut(n);
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
                if placed[op] || waiting[op] > 0 || ready[op] > t {
                    continue;
                }
                attempts[op] += 1;
                choice.clear();
                if checker.try_reserve_into(ru, block.ops[op].class, cycle, stats, choice) {
                    stats.count_operation();
                    placed[op] = true;
                    cycles[op] = cycle as u32;
                    selected[bounds[op] as usize..bounds[op + 1] as usize].copy_from_slice(choice);
                    remaining -= 1;
                    for edge in releases(graph, op) {
                        let next = if backward { edge.from } else { edge.to } as usize;
                        waiting[next] -= 1;
                        ready[next] = ready[next].max(t + edge.latency);
                    }
                }
            }
            t += 1;
        }

        // Normalize to start at cycle 0 (forward schedules already do).
        let first = cycles.iter().map(|&c| c as i32).min().unwrap_or(0);
        for c in cycles.iter_mut() {
            *c = (*c as i32 - first) as u32;
        }
        *length = cycles.iter().map(|&c| c as i32).max().unwrap_or(-1) + 1;
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

    /// Operation `i`'s issue-cycle word, to corrupt a schedule with.
    fn cycle_mut(schedule: &mut Schedule, i: usize) -> &mut u32 {
        &mut schedule.words[i]
    }

    /// Selection bound `k` (0 to the operation count), to corrupt a
    /// schedule with.
    fn bound_mut(schedule: &mut Schedule, k: usize) -> &mut u32 {
        let n = schedule.len();
        &mut schedule.words[2 * n + k]
    }

    /// Operation `i`'s selection slot, to corrupt a schedule with.
    fn selection_mut(schedule: &mut Schedule, i: usize) -> &mut [u32] {
        let n = schedule.len();
        let (head, selected) = schedule.words.split_at_mut(3 * n + 1);
        &mut selected[head[2 * n + i] as usize..head[2 * n + i + 1] as usize]
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
        assert_eq!(schedule.cycle(0), 0);
        assert_eq!(schedule.cycle(1), 2);
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
        assert_eq!(schedule.cycle(1), 0, "chain head scheduled first");
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
        *cycle_mut(&mut schedule, 1) = 0;
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
            schedule.ops -= 1;
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
        // Empty op 1's selection (its slot ends where it starts): it no
        // longer holds a decoder or an ALU.
        *bound_mut(&mut schedule, 2) = *bound_mut(&mut schedule, 1);
        let err = schedule.verify(&graph, &mdes).unwrap_err();
        assert!(err.contains("operation 1 selects 0 option(s)"), "{err}");
    }

    #[test]
    fn verify_rejects_a_selection_out_of_range() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![]));
        let mut stats = CheckStats::new();
        let mut schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let graph = DepGraph::build(&block, &mdes);
        schedule.verify(&graph, &mdes).unwrap();
        // Op 1's slot runs past the end of the buffer.
        *bound_mut(&mut schedule, 2) += 1;
        let err = schedule.verify(&graph, &mdes).unwrap_err();
        assert!(err.contains("operation 1: selection out of range"), "{err}");
        // And op 0's ends before it starts.
        *bound_mut(&mut schedule, 2) -= 1;
        *bound_mut(&mut schedule, 0) = 3;
        let err = schedule.verify(&graph, &mdes).unwrap_err();
        assert!(err.contains("operation 0: selection out of range"), "{err}");
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
        let load_trees = mdes.class_trees(class(&mdes, "load"));
        let m_option = mdes.tree_options(load_trees[0] as usize)[0];
        selection_mut(&mut schedule, 0)[0] = m_option;
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
        for i in 0..3 {
            assert_eq!(schedule.selection(i).len(), 2);
        }
        assert_eq!(schedule.words.len(), 3 * 3 + 1 + 3 * 2);
    }

    #[test]
    fn a_schedule_rebuilt_from_its_slots_is_equal() {
        let mdes = two_issue();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)]));
        block.push(Op::new(class(&mdes, "load"), vec![Reg(3)], vec![]));
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut CheckStats::new());
        let attempts: Vec<u32> = (0..3).map(|i| schedule.attempts(i)).collect();
        let selected: Vec<u32> = (0..3)
            .flat_map(|i| schedule.selection(i).to_vec())
            .collect();
        let bounds = selection_bounds(&mdes, &block);
        let rebuilt = Schedule::from_slots(&schedule.cycles(), &attempts, &bounds, &selected);
        assert_eq!(rebuilt, schedule);
        assert_eq!(
            Schedule::from_slots(&[], &[], &[0], &[]),
            Schedule::default()
        );
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
        let c0 = schedule.cycle(0);
        *cycle_mut(&mut schedule, 1) = c0 as u32;
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
        let attempts: Vec<u32> = (0..6).map(|i| schedule.attempts(i)).collect();
        assert_eq!(attempts, vec![2, 1, 1, 1, 1, 1]);
        // Placement runs from the exit, op 5 first and op 0 last; the
        // selections sit in block order all the same.
        let selected: Vec<u32> = (0..6)
            .flat_map(|i| schedule.selection(i).to_vec())
            .collect();
        assert_eq!(selected, vec![2, 0, 2, 0, 3, 0, 3, 0, 3, 1, 2, 0]);
        // The whole buffer: cycles, attempts, bounds, selections.
        let mut words = vec![0, 1, 3, 4, 5, 5, 2, 1, 1, 1, 1, 1, 0, 2, 4, 6, 8, 10, 12];
        words.extend(selected);
        assert_eq!(schedule.words, words);
        let counts = (stats.attempts, stats.options_checked, stats.resource_checks);
        assert_eq!((stats.operations, counts), (6, (7, 14, 14)));
    }
}
