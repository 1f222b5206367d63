//! Exact-search tightening of the modulo scheduler's II sandwich.
//!
//! For a loop the production `ModuloScheduler` yields some initiation
//! interval `II_prod ≥ MII`.  [`OracleScheduler::min_ii`] searches every
//! II in `[MII, II_prod)` with a windowed exact search (reservations in a
//! [`ModuloRuMap`], per-OR-tree option branching) and returns the
//! smallest II with a verified witness schedule.  The guarantee is a
//! *sandwich*, not unconditional optimality: `MII ≤ II_oracle ≤ II_prod`
//! always holds (the production schedule itself witnesses the upper
//! end), and `II_oracle < II_prod` whenever the windowed search finds a
//! tighter witness.  The window restriction — each operation is tried in
//! the `ii` cycles starting at its dependence-earliest slot — is the
//! standard modulo-scheduling placement range; a feasible II outside it
//! is possible in principle, which is why the result is published as a
//! bound, not a proof (see `docs/oracle.md`).

use mdes_core::{CheckStats, Checker, ModuloRuMap};
use mdes_sched::{selection_bounds, DepGraph, LoopBlock, ModuloSchedule, ModuloScheduler};

use crate::{OracleScheduler, UNPLACED};

/// The result of one exact min-II search.
#[derive(Clone, Debug)]
pub struct IiOutcome {
    /// The classic lower bound: max(resource MII, recurrence MII).
    pub mii: i32,
    /// The smallest II with a verified witness: the windowed-search
    /// result, or the production II when no tighter witness exists.
    pub ii: i32,
    /// The production `ModuloScheduler`'s II on the same loop.
    pub production_ii: i32,
    /// A schedule witnessing [`IiOutcome::ii`]; passes
    /// [`mdes_sched::ModuloSchedule::verify`].
    pub schedule: ModuloSchedule,
    /// Search nodes explored across all tried IIs.
    pub nodes: u64,
    /// False when some II below the result hit the node budget before
    /// its window was exhausted (the sandwich still holds).
    pub exact: bool,
}

impl<'a> OracleScheduler<'a> {
    /// Tightens the II sandwich for `looped`: searches every II in
    /// `[MII, II_prod)` exactly (within the placement windows) and
    /// returns the smallest verified II, or `None` when the loop body is
    /// empty or exceeds [`OracleScheduler::max_ops`].
    pub fn min_ii(&self, looped: &LoopBlock, stats: &mut CheckStats) -> Option<IiOutcome> {
        let n = looped.body.ops.len();
        if n == 0 || n > self.max_ops {
            return None;
        }
        // One dependence graph serves the production schedule, the MII
        // and every II searched.
        let graph = DepGraph::build(&looped.body, self.mdes);
        let scheduler = ModuloScheduler::new(self.mdes);
        let mut production_stats = CheckStats::new();
        let production = scheduler.schedule_with_graph(looped, &graph, &mut production_stats);
        let mii = scheduler.mii(looped, &graph).max(1);

        let bounds = selection_bounds(self.mdes, &looped.body);
        let mut nodes = 0u64;
        let mut exact = true;
        for ii in mii..production.ii {
            let mut search = ModSearch {
                checker: Checker::new(self.mdes),
                looped,
                graph: &graph,
                mrt: ModuloRuMap::new(ii),
                cycles: vec![UNPLACED; n],
                sel: vec![0; bounds[n] as usize],
                bounds: &bounds,
                nodes: 0,
                node_limit: self.node_limit,
                bailed: false,
                stats,
            };
            let found = search.place(0);
            nodes += search.nodes;
            if search.bailed {
                exact = false;
            }
            if found {
                let schedule = ModuloSchedule {
                    ii,
                    cycles: search.cycles,
                    selected: search.sel,
                    bounds,
                };
                return Some(IiOutcome {
                    mii,
                    ii,
                    production_ii: production.ii,
                    schedule,
                    nodes,
                    exact,
                });
            }
        }
        Some(IiOutcome {
            mii,
            ii: production.ii,
            production_ii: production.ii,
            schedule: production,
            nodes,
            exact,
        })
    }
}

/// Feasibility search at one fixed II.  Operations are placed in source
/// index order (topological for the intra-iteration DAG); each is tried
/// in the `ii` cycles starting at its earliest dependence-feasible slot,
/// clamped by loop-carried edges whose other endpoint is already placed.
/// Options are probed and reserved through the checker on a
/// [`ModuloRuMap`], the production scheduler's table.
struct ModSearch<'a, 'b> {
    checker: Checker<'a>,
    looped: &'a LoopBlock,
    /// The body's dependence graph.
    graph: &'a DepGraph,
    mrt: ModuloRuMap,
    cycles: Vec<i32>,
    /// Flat selections, laid out by `bounds` (see
    /// [`mdes_sched::selection_bounds`]).
    sel: Vec<u32>,
    bounds: &'a [u32],
    nodes: u64,
    node_limit: u64,
    bailed: bool,
    stats: &'b mut CheckStats,
}

impl ModSearch<'_, '_> {
    fn place(&mut self, index: usize) -> bool {
        if index == self.looped.body.ops.len() {
            return true;
        }
        let mut base = 0;
        for edge in self.graph.preds(index) {
            base = base.max(self.cycles[edge.from as usize] + edge.latency);
        }
        // Loop-carried edges against already-placed endpoints narrow the
        // candidate range: as a consumer, `cycle ≥ from + lat − ii·dist`;
        // as a producer, `cycle ≤ to + ii·dist − lat`.
        let ii = self.mrt.ii();
        let mut lo = base;
        let mut hi = base + ii - 1;
        for &(from, to, latency, distance) in &self.looped.carried {
            let span = ii * distance as i32;
            if to == index && self.cycles[from] != UNPLACED {
                lo = lo.max(self.cycles[from] + latency - span);
            }
            if from == index && self.cycles[to] != UNPLACED {
                hi = hi.min(self.cycles[to] + span - latency);
            }
        }
        for cycle in lo..=hi {
            if self.options(index, cycle, 0) {
                return true;
            }
            if self.bailed {
                return false;
            }
        }
        false
    }

    fn options(&mut self, index: usize, cycle: i32, tree_pos: usize) -> bool {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.bailed = true;
            return false;
        }
        let mdes = self.checker.mdes();
        let class_trees = &mdes.class(self.looped.body.ops[index].class).or_trees;
        if tree_pos == class_trees.len() {
            self.cycles[index] = cycle;
            if self.place(index + 1) {
                return true;
            }
            self.cycles[index] = UNPLACED;
            return false;
        }
        let tree = &mdes.or_trees()[class_trees[tree_pos] as usize];
        for (k, &opt) in tree.options.iter().enumerate() {
            let checks = mdes.option_checks(opt as usize).as_slice();
            if tree.options[..k]
                .iter()
                .any(|&prev| mdes.option_checks(prev as usize).as_slice() == checks)
            {
                continue;
            }
            if self.checker.option_fits(&self.mrt, opt, cycle, self.stats) {
                self.checker
                    .apply_option_at(&mut self.mrt, opt, cycle, true);
                self.sel[self.bounds[index] as usize + tree_pos] = opt;
                if self.options(index, cycle, tree_pos + 1) {
                    return true;
                }
                self.checker
                    .apply_option_at(&mut self.mrt, opt, cycle, false);
            }
            if self.bailed {
                return false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::{CompiledMdes, UsageEncoding};
    use mdes_sched::{Block, Op, Reg};

    fn single_alu() -> CompiledMdes {
        let spec = mdes_lang::compile(
            "
            resource ALU;
            or_tree T = first_of({ ALU @ 0 });
            class alu { constraint = T; latency = 1; }
        ",
        )
        .unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    #[test]
    fn min_ii_is_sandwiched_and_verified() {
        let mdes = single_alu();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut body = Block::new();
        body.push(Op::new(alu, vec![Reg(1)], vec![Reg(9)]));
        body.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)]));
        body.push(Op::new(alu, vec![Reg(3)], vec![Reg(2)]));
        let looped = LoopBlock {
            body,
            carried: vec![(2, 0, 1, 1)],
        };
        let mut stats = CheckStats::new();
        let outcome = OracleScheduler::new(&mdes)
            .min_ii(&looped, &mut stats)
            .unwrap();
        // One ALU, three ops → resource MII 3; the chain + carried edge
        // also forces recurrence II 3 ÷ 1 wait: res_mii dominates.
        assert_eq!(outcome.mii, 3);
        assert!(outcome.ii >= outcome.mii);
        assert!(outcome.ii <= outcome.production_ii);
        outcome.schedule.verify(&looped, &mdes).unwrap();
    }

    #[test]
    fn min_ii_refuses_oversized_bodies() {
        let mdes = single_alu();
        let alu = mdes.class_by_name("alu").unwrap();
        let body: Block = (0..3).map(|i| Op::new(alu, vec![Reg(i)], vec![])).collect();
        let looped = LoopBlock {
            body,
            carried: vec![],
        };
        let mut stats = CheckStats::new();
        assert!(OracleScheduler::new(&mdes)
            .with_max_ops(2)
            .min_ii(&looped, &mut stats)
            .is_none());
    }
}
