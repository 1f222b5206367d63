//! Exact scheduling as a differential referee.
//!
//! The production schedulers (`mdes-sched`) are greedy: the list
//! scheduler takes the first feasible cycle and the checker's first
//! feasible option per OR-tree.  Nothing in that pipeline says how far
//! the result is from optimal.  This crate answers that with a small
//! branch-and-bound scheduler over the *same* `CompiledMdes` query
//! surface ([`mdes_core::Checker::option_fits`] /
//! [`mdes_core::Checker::apply_option_at`], RU-map replay) that provably
//! finds a minimum-length schedule for regions up to
//! [`OracleScheduler::max_ops`] operations.
//!
//! Three layers:
//!
//! * [`OracleScheduler::schedule`] — branch-and-bound with memoized
//!   lower bounds and deterministic tie-breaking (see `docs/oracle.md`
//!   for the completeness and determinism arguments);
//! * [`exhaustive_min_length`] — an independent brute-force enumerator
//!   with none of the pruning machinery, used by the property tests to
//!   cross-check the branch-and-bound result;
//! * [`differential_gap`] / [`modulo_differential`] — the harness that
//!   runs production schedulers against the oracle on seeded regions and
//!   aggregates the `sched/optimality_gap` figures.
//!
//! # Example
//!
//! ```
//! use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
//! use mdes_oracle::OracleScheduler;
//! use mdes_sched::{Block, Op, Reg};
//!
//! let spec = mdes_lang::compile("
//!     resource ALU[2];
//!     or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
//!     class alu { constraint = AnyAlu; latency = 1; }
//! ").unwrap();
//! let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
//! let alu = mdes.class_by_name("alu").unwrap();
//! let mut block = Block::new();
//! for i in 0..4 {
//!     block.push(Op::new(alu, vec![Reg(i)], vec![]));
//! }
//! let mut stats = CheckStats::new();
//! let outcome = OracleScheduler::new(&mdes).schedule(&block, &mut stats).unwrap();
//! assert_eq!(outcome.schedule.length, 2); // 4 independent ops, 2 ALUs
//! assert!(outcome.proved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod modulo;

pub use diff::{differential_gap, loops_from_blocks, modulo_differential, GapReport};
pub use modulo::IiOutcome;

use mdes_core::{CheckStats, Checker, ClassId, CompiledMdes, RuMap};
use mdes_sched::{selection_bounds, Block, DepGraph, ListScheduler, Schedule, ScheduledOp};

/// Sentinel for "operation not placed yet" during search.
const UNPLACED: i32 = i32::MIN;

/// Default region-size ceiling: beyond this the search space is no longer
/// guaranteed to be cheap, so larger regions are skipped (and counted) by
/// the differential harness instead of scheduled.
pub const DEFAULT_MAX_OPS: usize = 16;

/// Default search-node budget.  The bundled machines prove optimality in
/// well under a thousand nodes per region; the budget is a backstop
/// against pathological descriptions, not a tuning knob.
pub const DEFAULT_NODE_LIMIT: u64 = 20_000_000;

/// The result of one exact scheduling run.
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// A minimum-length schedule (when [`OracleOutcome::proved`]);
    /// always verifies under [`mdes_sched::Schedule::verify`] and is
    /// never longer than the production list schedule.
    pub schedule: Schedule,
    /// Branch-and-bound nodes explored (0 when the root lower bound
    /// already proved the list schedule optimal).
    pub nodes: u64,
    /// True when the search ran to completion, i.e. the returned length
    /// is provably minimal.  False only if the node budget was hit, in
    /// which case the schedule is still valid and still no longer than
    /// the production schedule, but may not be optimal.
    pub proved: bool,
    /// True when the search found a schedule strictly shorter than the
    /// production list schedule it was seeded with.
    pub improved: bool,
}

impl OracleOutcome {
    /// Schedule length in cycles.
    pub fn length(&self) -> i32 {
        self.schedule.length
    }
}

/// A branch-and-bound exact scheduler over `CompiledMdes` queries.
///
/// Deterministic by construction: operations are placed in a fixed
/// topological order (critical-path height descending, source index
/// ascending), candidate cycles are tried ascending, OR-tree options are
/// tried in priority order, and the incumbent is replaced only on
/// *strict* improvement — so pruning (which only discards subtrees that
/// provably cannot strictly improve) never changes the returned
/// schedule.  Same seed, same block, same machine → byte-identical
/// result.
#[derive(Clone, Debug)]
pub struct OracleScheduler<'a> {
    mdes: &'a CompiledMdes,
    max_ops: usize,
    node_limit: u64,
}

impl<'a> OracleScheduler<'a> {
    /// Creates an oracle over `mdes` with the default limits.
    pub fn new(mdes: &'a CompiledMdes) -> OracleScheduler<'a> {
        OracleScheduler {
            mdes,
            max_ops: DEFAULT_MAX_OPS,
            node_limit: DEFAULT_NODE_LIMIT,
        }
    }

    /// Sets the region-size ceiling (regions larger than this are
    /// refused with `None` rather than searched).
    pub fn with_max_ops(mut self, max_ops: usize) -> OracleScheduler<'a> {
        self.max_ops = max_ops;
        self
    }

    /// Sets the search-node budget.
    pub fn with_node_limit(mut self, node_limit: u64) -> OracleScheduler<'a> {
        self.node_limit = node_limit;
        self
    }

    /// The region-size ceiling.
    pub fn max_ops(&self) -> usize {
        self.max_ops
    }

    /// The compiled MDES this oracle schedules against.
    pub fn mdes(&self) -> &'a CompiledMdes {
        self.mdes
    }

    /// Finds a minimum-length schedule for `block`, or `None` when the
    /// block exceeds [`OracleScheduler::max_ops`].
    ///
    /// The search is seeded with the production list schedule as the
    /// incumbent, so the returned length never exceeds the list
    /// scheduler's — by construction, not by luck.  When the root lower
    /// bound (critical path ∨ resource count) already equals the
    /// incumbent length, the list schedule is returned as proved optimal
    /// with zero search nodes.
    ///
    /// `stats` counts the option probes and resource checks the *search*
    /// performs (the incumbent seeding run keeps its own private stats,
    /// so production accounting is not conflated with oracle accounting).
    pub fn schedule(&self, block: &Block, stats: &mut CheckStats) -> Option<OracleOutcome> {
        let n = block.ops.len();
        if n > self.max_ops {
            return None;
        }
        let mut seed_stats = CheckStats::new();
        let incumbent = ListScheduler::new(self.mdes).schedule(block, &mut seed_stats);
        if n == 0 {
            return Some(OracleOutcome {
                schedule: incumbent,
                nodes: 0,
                proved: true,
                improved: false,
            });
        }

        let graph = DepGraph::build(block, self.mdes);
        let heights = graph.heights();

        // Dependence-only earliest starts (index order is topological).
        let mut asap = vec![0i32; n];
        for i in 0..n {
            for edge in &graph.preds[i] {
                asap[i] = asap[i].max(asap[edge.from] + edge.latency);
            }
        }
        let crit_lb = (0..n).map(|i| asap[i] + heights[i] + 1).max().unwrap_or(1);
        let root_lb = crit_lb.max(resource_lower_bound(self.mdes, block));
        if incumbent.length <= root_lb {
            return Some(OracleOutcome {
                schedule: incumbent,
                nodes: 0,
                proved: true,
                improved: false,
            });
        }

        let classes: Vec<ClassId> = block.ops.iter().map(|op| op.class).collect();
        // Each operation's selection has a fixed slot in one flat buffer
        // (index order), overwritten in place as the search re-places it.
        let bounds = selection_bounds(self.mdes, block);
        let mut best_sel = vec![0; bounds[n] as usize];
        for i in 0..n {
            best_sel[bounds[i] as usize..bounds[i + 1] as usize]
                .copy_from_slice(incumbent.selection(i));
        }
        let preds: Vec<Vec<(usize, i32)>> = graph
            .preds
            .iter()
            .map(|edges| edges.iter().map(|e| (e.from, e.latency)).collect())
            .collect();
        let mut search = Search {
            mdes: self.mdes,
            checker: Checker::new(self.mdes),
            order: placement_order(&graph, &heights),
            classes,
            heights,
            preds,
            est_buf: vec![0; n],
            cycles: vec![UNPLACED; n],
            sel: vec![0; best_sel.len()],
            sel_start: bounds,
            best_len: incumbent.length,
            best_cycles: incumbent.cycles(),
            best_sel,
            root_lb,
            nodes: 0,
            node_limit: self.node_limit,
            bailed: false,
            ru: RuMap::new(),
            stats,
        };
        search.dfs(0, 0);

        let improved = search.best_len < incumbent.length;
        let nodes = search.nodes;
        let proved = !search.bailed;
        let schedule = if improved {
            let length = search.best_len;
            let bounds = &search.sel_start;
            let ops: Vec<ScheduledOp> = (0..n)
                .map(|i| ScheduledOp {
                    cycle: search.best_cycles[i],
                    class: search.classes[i],
                    sel_start: bounds[i],
                    sel_len: bounds[i + 1] - bounds[i],
                })
                .collect();
            Schedule {
                ops,
                selected: search.best_sel,
                attempts: vec![1; n],
                length,
            }
        } else {
            incumbent
        };
        Some(OracleOutcome {
            schedule,
            nodes,
            proved,
            improved,
        })
    }
}

/// The placement order: Kahn's algorithm picking, among dependence-ready
/// operations, the greatest critical-path height with source index as
/// the deterministic tie-break.  This matches the list scheduler's
/// priority so the incumbent prunes early, and is topological so every
/// predecessor is placed before its consumer.
fn placement_order(graph: &DepGraph, heights: &[i32]) -> Vec<usize> {
    let n = graph.num_ops;
    let mut remaining: Vec<usize> = (0..n).map(|i| graph.preds[i].len()).collect();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pick = usize::MAX;
        for i in 0..n {
            if !placed[i] && remaining[i] == 0 && (pick == usize::MAX || heights[i] > heights[pick])
            {
                pick = i;
            }
        }
        debug_assert!(pick != usize::MAX, "dependence graph must be acyclic");
        placed[pick] = true;
        order.push(pick);
        for edge in &graph.succs[pick] {
            remaining[edge.to] -= 1;
        }
    }
    order
}

/// A resource-count lower bound on schedule length, the max of two
/// counting arguments:
///
/// * **mandatory bits** — if `k` operations each *must* occupy resource
///   bit `b` (the bit appears in every option of one of their OR-trees),
///   bit `b` is busy on at least `k` distinct cycles, and a schedule of
///   length `L` only spans `L + max_check_time − min_check_time` busy
///   cycles;
/// * **tree capacity** — two operations issuing in the same cycle cannot
///   hold the same option of the same OR-tree (identical reservations
///   collide), so at most `|options|` operations demanding a tree issue
///   per cycle: `k` demands need `⌈k / |options|⌉` cycles.  Trees with a
///   check-free option impose nothing.
fn resource_lower_bound(mdes: &CompiledMdes, block: &Block) -> i32 {
    let mut per_bit = [0i32; 64];
    let mut tree_demand = vec![0usize; mdes.or_trees().len()];
    for op in &block.ops {
        let class = mdes.class(op.class);
        let mut mandatory = 0u64;
        for &tree_idx in &class.or_trees {
            let tree = &mdes.or_trees()[tree_idx as usize];
            if tree.options.is_empty() {
                continue;
            }
            tree_demand[tree_idx as usize] += 1;
            let mut tree_mand = !0u64;
            for &opt in &tree.options {
                tree_mand &= mdes.option_checks(opt as usize).total_mask();
            }
            mandatory |= tree_mand;
        }
        while mandatory != 0 {
            let bit = mandatory.trailing_zeros() as usize;
            per_bit[bit] += 1;
            mandatory &= mandatory - 1;
        }
    }
    let busiest = per_bit.iter().copied().max().unwrap_or(0);
    let mut bound = busiest - (mdes.max_check_time() - mdes.min_check_time());
    for (tree_idx, &demand) in tree_demand.iter().enumerate() {
        if demand == 0 {
            continue;
        }
        let tree = &mdes.or_trees()[tree_idx];
        if tree
            .options
            .iter()
            .any(|&opt| mdes.option_checks(opt as usize).is_empty())
        {
            continue;
        }
        bound = bound.max(demand.div_ceil(tree.options.len()) as i32);
    }
    bound
}

/// The branch-and-bound state.  Lower bounds are memoized where they are
/// pure functions of the region (`heights`, computed once) and
/// incrementally recomputed where they depend on partial placements
/// (`est_buf`, the propagated earliest starts).
struct Search<'a, 'b> {
    mdes: &'a CompiledMdes,
    checker: Checker<'a>,
    order: Vec<usize>,
    classes: Vec<ClassId>,
    heights: Vec<i32>,
    preds: Vec<Vec<(usize, i32)>>,
    est_buf: Vec<i32>,
    cycles: Vec<i32>,
    /// Selected options of the current partial placement: operation
    /// `op`'s live in `sel[sel_start[op]..sel_start[op + 1]]`.
    sel: Vec<u32>,
    sel_start: Vec<u32>,
    best_len: i32,
    best_cycles: Vec<i32>,
    /// The incumbent's selections, laid out like `sel`.
    best_sel: Vec<u32>,
    root_lb: i32,
    nodes: u64,
    node_limit: u64,
    bailed: bool,
    ru: RuMap,
    stats: &'b mut CheckStats,
}

impl Search<'_, '_> {
    /// True when no further search can help: the incumbent already
    /// matches the root lower bound (proved optimal) or the node budget
    /// is exhausted.
    fn finished(&self) -> bool {
        self.bailed || self.best_len <= self.root_lb
    }

    fn dfs(&mut self, pos: usize, makespan: i32) {
        if self.finished() {
            return;
        }
        if pos == self.order.len() {
            // Complete assignment.  Per-operation cycle ceilings were
            // checked against the incumbent *at placement time*, so a
            // completion is at worst equal to `best_len`: when the final
            // operation's option loop lands an incumbent, its sibling
            // options at the same cycle complete again at the same
            // makespan.  Keep the first incumbent on ties — that is the
            // deterministic tie-break.
            debug_assert!(makespan <= self.best_len);
            if makespan < self.best_len {
                self.best_len = makespan;
                self.best_cycles.copy_from_slice(&self.cycles);
                self.best_sel.copy_from_slice(&self.sel);
            }
            return;
        }
        let op = self.order[pos];
        let mut est = 0;
        for &(from, latency) in &self.preds[op] {
            est = est.max(self.cycles[from] + latency);
        }
        let mut cycle = est;
        // Ceiling: a schedule strictly shorter than the incumbent has
        // `cycle + heights[op] + 1 ≤ best_len − 1` for every operation.
        // `best_len` shrinks as incumbents land, so re-test each lap.
        while cycle + self.heights[op] + 2 <= self.best_len {
            if self.lower_bound_with(pos, op, cycle, makespan) < self.best_len {
                self.enter(pos, op, cycle, 0, makespan.max(cycle + 1));
            }
            if self.finished() {
                return;
            }
            cycle += 1;
        }
    }

    /// The propagated critical-path lower bound with `op` pinned at
    /// `cycle`: earliest starts flow through the unplaced suffix of the
    /// placement order (which is topological, so every predecessor's
    /// bound is available when needed).
    fn lower_bound_with(&mut self, pos: usize, op: usize, cycle: i32, makespan: i32) -> i32 {
        let mut lb = makespan.max(cycle + self.heights[op] + 1);
        self.est_buf[op] = cycle;
        for idx in pos + 1..self.order.len() {
            let j = self.order[idx];
            let mut est = 0;
            for &(from, latency) in &self.preds[j] {
                let known = if self.cycles[from] != UNPLACED {
                    self.cycles[from]
                } else {
                    self.est_buf[from]
                };
                est = est.max(known + latency);
            }
            self.est_buf[j] = est;
            lb = lb.max(est + self.heights[j] + 1);
        }
        lb
    }

    /// Branches over the options of `op`'s OR-trees at `cycle`, reserving
    /// through the same checker queries the production schedulers use.
    fn enter(&mut self, pos: usize, op: usize, cycle: i32, tree_pos: usize, makespan: i32) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.bailed = true;
            return;
        }
        let mdes = self.mdes;
        let class_trees = &mdes.class(self.classes[op]).or_trees;
        if tree_pos == class_trees.len() {
            self.cycles[op] = cycle;
            self.dfs(pos + 1, makespan);
            self.cycles[op] = UNPLACED;
            return;
        }
        let tree = &mdes.or_trees()[class_trees[tree_pos] as usize];
        for (k, &opt) in tree.options.iter().enumerate() {
            // Options with identical check footprints are interchangeable
            // for everything downstream, so exploring the first (highest
            // priority) one suffices — a symmetry break, not a heuristic.
            let checks = mdes.option_checks(opt as usize).as_slice();
            if tree.options[..k]
                .iter()
                .any(|&prev| mdes.option_checks(prev as usize).as_slice() == checks)
            {
                continue;
            }
            if self.checker.option_fits(&self.ru, opt, cycle, self.stats) {
                self.checker.apply_option_at(&mut self.ru, opt, cycle, true);
                self.sel[self.sel_start[op] as usize + tree_pos] = opt;
                self.enter(pos, op, cycle, tree_pos + 1, makespan);
                self.checker
                    .apply_option_at(&mut self.ru, opt, cycle, false);
            }
            if self.finished() {
                return;
            }
        }
    }
}

/// Brute-force minimum schedule length, for cross-checking the
/// branch-and-bound result in property tests.
///
/// Deliberately shares none of [`OracleScheduler`]'s machinery: no
/// heights, no lower bounds, no placement-order heuristic, no option
/// deduplication.  It enumerates every dependence-feasible cycle
/// assignment (in source index order, which is topological) and every
/// OR-tree option combination, bounded only by the incumbent length —
/// starting from the production list schedule, which witnesses that a
/// schedule of that length exists.
///
/// # Panics
///
/// Panics if the enumeration exceeds an internal node cap (the property
/// tests keep regions ≤ 8 operations, far below it).
pub fn exhaustive_min_length(mdes: &CompiledMdes, block: &Block, stats: &mut CheckStats) -> i32 {
    let n = block.ops.len();
    if n == 0 {
        return 0;
    }
    let mut seed_stats = CheckStats::new();
    let incumbent = ListScheduler::new(mdes)
        .schedule(block, &mut seed_stats)
        .length;
    let graph = DepGraph::build(block, mdes);
    let mut enumerator = Exhaustive {
        mdes,
        checker: Checker::new(mdes),
        block,
        preds: &graph.preds,
        ru: RuMap::new(),
        cycles: vec![UNPLACED; n],
        best: incumbent,
        nodes: 0,
        stats,
    };
    enumerator.place(0, 0);
    enumerator.best
}

struct Exhaustive<'a, 'b> {
    mdes: &'a CompiledMdes,
    checker: Checker<'a>,
    block: &'a Block,
    preds: &'a [Vec<mdes_sched::Edge>],
    ru: RuMap,
    cycles: Vec<i32>,
    best: i32,
    nodes: u64,
    stats: &'b mut CheckStats,
}

impl Exhaustive<'_, '_> {
    fn place(&mut self, index: usize, makespan: i32) {
        self.nodes += 1;
        assert!(
            self.nodes < 500_000_000,
            "exhaustive enumeration exceeded its node cap"
        );
        if index == self.block.ops.len() {
            self.best = self.best.min(makespan);
            return;
        }
        let mut est = 0;
        for edge in &self.preds[index] {
            est = est.max(self.cycles[edge.from] + edge.latency);
        }
        // Any schedule strictly shorter than the current best issues
        // every operation at cycle ≤ best − 2.
        for cycle in est..=self.best - 2 {
            self.options(index, cycle, 0, makespan.max(cycle + 1));
        }
    }

    fn options(&mut self, index: usize, cycle: i32, tree_pos: usize, makespan: i32) {
        let mdes = self.mdes;
        let class_trees = &mdes.class(self.block.ops[index].class).or_trees;
        if tree_pos == class_trees.len() {
            self.cycles[index] = cycle;
            self.place(index + 1, makespan);
            self.cycles[index] = UNPLACED;
            return;
        }
        let tree = &mdes.or_trees()[class_trees[tree_pos] as usize];
        for &opt in &tree.options {
            if self.checker.option_fits(&self.ru, opt, cycle, self.stats) {
                self.checker.apply_option_at(&mut self.ru, opt, cycle, true);
                self.options(index, cycle, tree_pos + 1, makespan);
                self.checker
                    .apply_option_at(&mut self.ru, opt, cycle, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::UsageEncoding;
    use mdes_sched::{Op, Reg};

    fn compile(src: &str) -> CompiledMdes {
        let spec = mdes_lang::compile(src).unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    /// Two decoders feeding one memory unit and two ALUs — the same toy
    /// machine the list scheduler's tests use.
    fn two_issue() -> CompiledMdes {
        compile(
            "
            resource Dec[2]; resource M; resource ALU[2];
            or_tree AnyDec = first_of(for d in 0..2: { Dec[d] @ 0 });
            or_tree Mem = first_of({ M @ 0 });
            or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
            and_or_tree LoadPath = all_of(AnyDec, Mem);
            and_or_tree AluPath = all_of(AnyDec, AnyAlu);
            class load { constraint = LoadPath; latency = 2; flags = load; }
            class alu { constraint = AluPath; latency = 1; }
        ",
        )
    }

    #[test]
    fn empty_block_schedules_trivially() {
        let mdes = two_issue();
        let mut stats = CheckStats::new();
        let outcome = OracleScheduler::new(&mdes)
            .schedule(&Block::new(), &mut stats)
            .unwrap();
        assert_eq!(outcome.schedule.length, 0);
        assert!(outcome.proved);
    }

    #[test]
    fn oversized_block_is_refused() {
        let mdes = two_issue();
        let alu = mdes.class_by_name("alu").unwrap();
        let block: Block = (0..5).map(|i| Op::new(alu, vec![Reg(i)], vec![])).collect();
        let mut stats = CheckStats::new();
        assert!(OracleScheduler::new(&mdes)
            .with_max_ops(4)
            .schedule(&block, &mut stats)
            .is_none());
    }

    #[test]
    fn independent_ops_prove_at_root() {
        let mdes = two_issue();
        let alu = mdes.class_by_name("alu").unwrap();
        let block: Block = (0..4).map(|i| Op::new(alu, vec![Reg(i)], vec![])).collect();
        let mut stats = CheckStats::new();
        let outcome = OracleScheduler::new(&mdes)
            .schedule(&block, &mut stats)
            .unwrap();
        assert_eq!(outcome.schedule.length, 2); // 4 ops, 2-wide decode
        assert_eq!(outcome.nodes, 0); // resource bound == incumbent
        assert!(outcome.proved);
        assert!(!outcome.improved);
    }

    /// A machine where greedy option choice is suboptimal: the shared
    /// unit S is the first (highest-priority) option of class `a`, but
    /// class `b` can *only* use S.  Greedy scheduling of `a` first takes
    /// S and pushes `b` to the next cycle; the oracle must discover the
    /// a→A, b→S assignment and fit both in one cycle.
    fn greedy_trap() -> CompiledMdes {
        compile(
            "
            resource S; resource A;
            or_tree Flexible = first_of({ S @ 0 }, { A @ 0 });
            or_tree Shared = first_of({ S @ 0 });
            class a { constraint = Flexible; latency = 1; }
            class b { constraint = Shared; latency = 1; }
        ",
        )
    }

    #[test]
    fn oracle_beats_greedy_option_choice() {
        let mdes = greedy_trap();
        let a = mdes.class_by_name("a").unwrap();
        let b = mdes.class_by_name("b").unwrap();
        let mut block = Block::new();
        block.push(Op::new(a, vec![Reg(1)], vec![]));
        block.push(Op::new(b, vec![Reg(2)], vec![]));

        let mut list_stats = CheckStats::new();
        let list = ListScheduler::new(&mdes).schedule(&block, &mut list_stats);
        assert_eq!(list.length, 2, "greedy must fall into the trap");

        let mut stats = CheckStats::new();
        let outcome = OracleScheduler::new(&mdes)
            .schedule(&block, &mut stats)
            .unwrap();
        assert_eq!(outcome.schedule.length, 1);
        assert!(outcome.proved);
        assert!(outcome.improved);
        let graph = DepGraph::build(&block, &mdes);
        outcome.schedule.verify(&graph, &mdes).unwrap();
    }

    #[test]
    fn oracle_matches_exhaustive_on_the_trap() {
        let mdes = greedy_trap();
        let a = mdes.class_by_name("a").unwrap();
        let b = mdes.class_by_name("b").unwrap();
        let mut block = Block::new();
        block.push(Op::new(a, vec![Reg(1)], vec![]));
        block.push(Op::new(b, vec![Reg(2)], vec![]));
        let mut stats = CheckStats::new();
        let brute = exhaustive_min_length(&mdes, &block, &mut stats);
        assert_eq!(brute, 1);
    }

    #[test]
    fn search_is_deterministic() {
        let mdes = two_issue();
        let load = mdes.class_by_name("load").unwrap();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut block = Block::new();
        block.push(Op::new(load, vec![Reg(1)], vec![]));
        block.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)]));
        block.push(Op::new(load, vec![Reg(3)], vec![]));
        block.push(Op::new(alu, vec![Reg(4)], vec![Reg(3)]));
        block.push(Op::new(alu, vec![Reg(5)], vec![Reg(2), Reg(4)]));

        let mut s1 = CheckStats::new();
        let mut s2 = CheckStats::new();
        let a = OracleScheduler::new(&mdes)
            .schedule(&block, &mut s1)
            .unwrap();
        let b = OracleScheduler::new(&mdes)
            .schedule(&block, &mut s2)
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(s1.resource_checks, s2.resource_checks);
    }

    #[test]
    fn dependences_are_respected() {
        let mdes = two_issue();
        let load = mdes.class_by_name("load").unwrap();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut block = Block::new();
        block.push(Op::new(load, vec![Reg(1)], vec![]));
        block.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)]));
        let mut stats = CheckStats::new();
        let outcome = OracleScheduler::new(&mdes)
            .schedule(&block, &mut stats)
            .unwrap();
        // load latency 2 → consumer at cycle 2, length 3.
        assert_eq!(outcome.schedule.length, 3);
        let graph = DepGraph::build(&block, &mdes);
        outcome.schedule.verify(&graph, &mdes).unwrap();
    }
}
