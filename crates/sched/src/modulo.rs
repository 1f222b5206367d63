//! Iterative modulo scheduling (Rau, MICRO-27 1994 — the paper's
//! reference \[12\]).
//!
//! The paper argues (Section 10) that reservation-table representations,
//! unlike finite-state automata, support "advanced scheduling techniques,
//! such as iterative modulo scheduling, that unschedule operations in
//! order to remove the resource conflicts" — because a kept selection can
//! be released from the RU map.  This module exercises exactly that:
//! operations are evicted from the modulo reservation table when a
//! higher-priority operation is forced into their slot.
//!
//! Placement and eviction go through the same [`Checker`] the list
//! scheduler uses (`try_reserve_into` and `release`), on a
//! [`ModuloRuMap`] that folds every cycle into its slot modulo II, so
//! Ablation E's option and check counts are the list scheduler's
//! accounting, not a mirror of it.
//!
//! The implementation follows the classic shape: compute MII =
//! max(ResMII, RecMII); try each candidate II with a budgeted iterative
//! scheduler; on budget exhaustion increase II.

use mdes_core::{Checker, ClassId, CompiledMdes, ModuloRuMap, Occupancy};

use crate::depgraph::{DepGraph, Edge};
use crate::list::{check_selection, selection_bounds};
use crate::operation::Block;
use crate::CheckStats;

/// A loop to software-pipeline: a body block plus loop-carried
/// dependences (`from` in iteration *i* to `to` in iteration
/// *i + distance*).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopBlock {
    /// The loop body.
    pub body: Block,
    /// Loop-carried dependences: (from, to, latency, distance ≥ 1).
    pub carried: Vec<(usize, usize, i32, u32)>,
}

/// A modulo schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuloSchedule {
    /// The achieved initiation interval.
    pub ii: i32,
    /// Issue cycle of each operation within the flat schedule.
    pub cycles: Vec<i32>,
    /// Selected compiled-option index per OR-tree per operation, all
    /// operations concatenated in index order; [`ModuloSchedule::selection`]
    /// slices out one operation's.
    pub selected: Vec<u32>,
    /// Selection offsets: operation `op` owns
    /// `selected[bounds[op]..bounds[op + 1]]` (see
    /// [`crate::selection_bounds`]).
    pub bounds: Vec<u32>,
}

impl ModuloSchedule {
    /// The compiled options operation `op` reserved, one per OR-tree of
    /// its class.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn selection(&self, op: usize) -> &[u32] {
        &self.selected[self.bounds[op] as usize..self.bounds[op + 1] as usize]
    }

    /// Verifies dependences (including carried ones at this II) and
    /// modulo resource usage.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn verify(&self, looped: &LoopBlock, mdes: &CompiledMdes) -> Result<(), String> {
        let n = looped.body.len();
        if self.ii < 1 {
            return Err(format!("II {} is not positive", self.ii));
        }
        if self.cycles.len() != n {
            return Err(format!(
                "schedule places {} operation(s) but the body has {n}",
                self.cycles.len()
            ));
        }
        if self.bounds.len() != n + 1 {
            return Err(format!(
                "schedule has {} selection bound(s) for {n} operation(s)",
                self.bounds.len()
            ));
        }
        if let Some(&(from, to, ..)) = looped
            .carried
            .iter()
            .find(|&&(from, to, ..)| from >= n || to >= n)
        {
            return Err(format!(
                "carried dependence {from}→{to} names an operation outside the {n}-op body"
            ));
        }
        let graph = DepGraph::build(&looped.body, mdes);
        for edge in graph.edges() {
            if self.cycles[edge.to as usize] < self.cycles[edge.from as usize] + edge.latency {
                return Err(format!(
                    "intra-iteration dependence {}→{} violated",
                    edge.from, edge.to
                ));
            }
        }
        for &(from, to, latency, distance) in &looped.carried {
            if self.cycles[to] + self.ii * (distance as i32) < self.cycles[from] + latency {
                return Err(format!(
                    "carried dependence {from}→{to} violated at II {}",
                    self.ii
                ));
            }
        }
        // Every operation holds one option per OR-tree of its class, and
        // the options never collide modulo II.
        let mut mrt = ModuloRuMap::new(self.ii);
        for (op, body_op) in looped.body.ops.iter().enumerate() {
            let selection = match (self.bounds.get(op), self.bounds.get(op + 1)) {
                (Some(&lo), Some(&hi)) => self.selected.get(lo as usize..hi as usize),
                _ => None,
            }
            .ok_or_else(|| format!("operation {op}: selection out of range"))?;
            check_selection(mdes, body_op.class, selection)
                .map_err(|why| format!("operation {op} {why}"))?;
            for &opt_idx in selection {
                for check in mdes.option_checks(opt_idx as usize) {
                    let cycle = self.cycles[op] + check.time;
                    if !mrt.is_free(cycle, check.mask) {
                        return Err(format!(
                            "operation {op} conflicts in MRT slot {} at II {}",
                            mrt.slot(cycle),
                            self.ii
                        ));
                    }
                    mrt.reserve(cycle, check.mask);
                }
            }
        }
        Ok(())
    }
}

/// The iterative modulo scheduler.
#[derive(Copy, Clone, Debug)]
pub struct ModuloScheduler<'a> {
    mdes: &'a CompiledMdes,
    /// Scheduling-attempt budget per operation per II candidate.
    budget_per_op: usize,
}

impl<'a> ModuloScheduler<'a> {
    /// Creates a scheduler with the conventional budget (6 attempts per
    /// operation per II).
    pub fn new(mdes: &'a CompiledMdes) -> ModuloScheduler<'a> {
        ModuloScheduler {
            mdes,
            budget_per_op: 6,
        }
    }

    /// Overrides the scheduling budget.
    pub fn with_budget(mut self, budget_per_op: usize) -> ModuloScheduler<'a> {
        self.budget_per_op = budget_per_op.max(1);
        self
    }

    /// Lower bound on II from resource usage: for each resource, the
    /// number of times it is used per iteration (taking each class's
    /// highest-priority selection).
    pub fn res_mii(&self, looped: &LoopBlock) -> i32 {
        let mut per_resource = std::collections::HashMap::new();
        for op in &looped.body.ops {
            for &tree_idx in &self.mdes.class(op.class).or_trees {
                let tree = &self.mdes.or_trees()[tree_idx as usize];
                for check in self.mdes.option_checks(tree.options[0] as usize) {
                    let mut mask = check.mask;
                    while mask != 0 {
                        let bit = mask.trailing_zeros();
                        *per_resource.entry(bit).or_insert(0i32) += 1;
                        mask &= mask - 1;
                    }
                }
            }
        }
        per_resource.values().copied().max().unwrap_or(1).max(1)
    }

    /// Lower bound on II from recurrences: smallest II for which no
    /// dependence cycle has positive latency-minus-II×distance weight.
    pub fn rec_mii(&self, looped: &LoopBlock) -> i32 {
        self.recurrence_mii(looped, &DepGraph::build(&looped.body, self.mdes))
    }

    /// The classic lower bound on II, max([`ModuloScheduler::res_mii`],
    /// [`ModuloScheduler::rec_mii`]), over `graph`, the body's
    /// dependence graph.
    pub fn mii(&self, looped: &LoopBlock, graph: &DepGraph) -> i32 {
        self.res_mii(looped).max(self.recurrence_mii(looped, graph))
    }

    /// [`ModuloScheduler::rec_mii`] over the body's dependence graph.
    ///
    /// One edge list and one flat `n × n` matrix serve every II tried:
    /// the edges are written once, each with its iteration distance (0
    /// within an iteration), and each II refills the matrix with their
    /// weights, `latency - II × distance`.
    fn recurrence_mii(&self, looped: &LoopBlock, graph: &DepGraph) -> i32 {
        let n = looped.body.ops.len();
        if n == 0 {
            return 1;
        }
        let edges: Vec<(usize, usize, i64, i64)> = graph
            .edges()
            .iter()
            .map(|e| (e.from as usize, e.to as usize, i64::from(e.latency), 0))
            .chain(looped.carried.iter().map(|&(from, to, latency, distance)| {
                (from, to, i64::from(latency), i64::from(distance))
            }))
            .collect();
        let mut dist = vec![i64::MIN; n * n];
        let mut ii = 1i32;
        loop {
            // Bellman-Ford-style longest path with weights lat - ii*dist;
            // a positive cycle means this II is infeasible.
            dist.fill(i64::MIN);
            for &(from, to, latency, distance) in &edges {
                let weight = latency - i64::from(ii) * distance;
                let cell = &mut dist[from * n + to];
                *cell = (*cell).max(weight);
            }

            // Floyd-Warshall longest paths.
            for k in 0..n {
                for i in 0..n {
                    let via = dist[i * n + k];
                    if via == i64::MIN {
                        continue;
                    }
                    for j in 0..n {
                        let onward = dist[k * n + j];
                        if onward == i64::MIN {
                            continue;
                        }
                        let cell = &mut dist[i * n + j];
                        *cell = (*cell).max(via + onward);
                    }
                }
            }
            if (0..n).all(|i| dist[i * n + i] <= 0) {
                return ii;
            }
            ii += 1;
            assert!(
                ii <= 1 << 16,
                "recurrence MII diverged: malformed carried dependences"
            );
        }
    }

    /// Finds a modulo schedule, starting at MII and increasing II until
    /// the budgeted scheduler succeeds.
    ///
    /// # Panics
    ///
    /// Panics if no schedule is found by II = MII + 64 · span, which for a
    /// valid machine description cannot happen (at a large enough II the
    /// loop degenerates to a list schedule).
    pub fn schedule(&self, looped: &LoopBlock, stats: &mut CheckStats) -> ModuloSchedule {
        let graph = DepGraph::build(&looped.body, self.mdes);
        self.schedule_with_graph(looped, &graph, stats)
    }

    /// [`ModuloScheduler::schedule`] over `graph`, the body's dependence
    /// graph, built once by the caller: the MII and every II tried read
    /// it.
    ///
    /// # Panics
    ///
    /// Panics like [`ModuloScheduler::schedule`].
    pub fn schedule_with_graph(
        &self,
        looped: &LoopBlock,
        graph: &DepGraph,
        stats: &mut CheckStats,
    ) -> ModuloSchedule {
        let mii = self.mii(looped, graph);
        let span = (self.mdes.max_check_time() - self.mdes.min_check_time() + 1).max(1);
        let n = looped.body.ops.len() as i32;
        let limit = mii + 64 * span + n;
        for ii in mii..=limit {
            if let Some(schedule) = self.try_ii(looped, graph, ii, stats) {
                return schedule;
            }
        }
        panic!("no modulo schedule found up to II {limit}");
    }

    /// One budgeted scheduling attempt at a fixed II.
    fn try_ii(
        &self,
        looped: &LoopBlock,
        graph: &DepGraph,
        ii: i32,
        stats: &mut CheckStats,
    ) -> Option<ModuloSchedule> {
        let body = &looped.body;
        let n = body.ops.len();
        if n == 0 {
            return Some(ModuloSchedule {
                ii,
                cycles: Vec::new(),
                selected: Vec::new(),
                bounds: vec![0],
            });
        }
        let checker = Checker::new(self.mdes);
        let heights = graph.heights();

        let mut cycles: Vec<Option<i32>> = vec![None; n];
        let bounds = selection_bounds(self.mdes, body);
        let mut selected: Vec<u32> = vec![0; bounds[n] as usize];
        // One reservation's selection, copied into the op's fixed slot.
        let mut choice: Vec<u32> = Vec::new();
        let mut last_forced: Vec<i32> = vec![-1; n];
        let mut mrt = ModuloRuMap::new(ii);
        let mut budget = self.budget_per_op * n;

        // Worklist in priority order: height desc, program order asc.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(heights[i]), i));

        loop {
            let Some(&op) = order.iter().find(|&&i| cycles[i].is_none()) else {
                let cycles: Vec<i32> = cycles.into_iter().map(Option::unwrap).collect();
                let schedule = ModuloSchedule {
                    ii,
                    cycles,
                    selected,
                    bounds,
                };
                debug_assert!(schedule.verify(looped, self.mdes).is_ok());
                return Some(schedule);
            };
            if budget == 0 {
                return None;
            }
            budget -= 1;

            let est = self.earliest_start(op, graph, looped, &cycles, ii);

            // Try every slot in one II window; failing that, force the
            // placement and evict conflicting operations — the
            // unscheduling that reservation tables make possible.
            let class = body.ops[op].class;
            let fits = (est..est + ii).find(|&slot| {
                choice.clear();
                checker.try_reserve_into(&mut mrt, class, slot, stats, &mut choice)
            });
            let placed_cycle = match fits {
                Some(slot) => {
                    selected[bounds[op] as usize..bounds[op + 1] as usize].copy_from_slice(&choice);
                    slot
                }
                None => {
                    let slot = est.max(last_forced[op] + 1);
                    last_forced[op] = slot;
                    self.force_place(
                        op,
                        slot,
                        class,
                        &mut mrt,
                        &mut cycles,
                        &mut selected,
                        &bounds,
                    );
                    slot
                }
            };
            cycles[op] = Some(placed_cycle);

            // Evict scheduled operations whose dependences the new
            // placement violates; they will be rescheduled.
            let mut evict: Vec<usize> = Vec::new();
            for edge in graph.succs(op) {
                if let Some(to_cycle) = cycles[edge.to as usize] {
                    if to_cycle < placed_cycle + edge.latency {
                        evict.push(edge.to as usize);
                    }
                }
            }
            for edge in graph.preds(op) {
                if let Some(from_cycle) = cycles[edge.from as usize] {
                    if placed_cycle < from_cycle + edge.latency {
                        evict.push(edge.from as usize);
                    }
                }
            }
            for &(from, to, latency, distance) in &looped.carried {
                if from == op || to == op {
                    if let (Some(fc), Some(tc)) = (cycles[from], cycles[to]) {
                        if tc + ii * (distance as i32) < fc + latency {
                            evict.push(if from == op { to } else { from });
                        }
                    }
                }
            }
            for victim in evict {
                if victim != op {
                    self.unschedule(victim, &mut mrt, &mut cycles, &selected, &bounds);
                }
            }
        }
    }

    /// Earliest start given currently scheduled predecessors (intra and
    /// carried).
    fn earliest_start(
        &self,
        op: usize,
        graph: &DepGraph,
        looped: &LoopBlock,
        cycles: &[Option<i32>],
        ii: i32,
    ) -> i32 {
        let mut est = 0i32;
        let consider = |est: &mut i32, edge: &Edge, cycles: &[Option<i32>]| {
            if let Some(from_cycle) = cycles[edge.from as usize] {
                *est = (*est).max(from_cycle + edge.latency);
            }
        };
        for edge in graph.preds(op) {
            consider(&mut est, edge, cycles);
        }
        for &(from, to, latency, distance) in &looped.carried {
            if to == op {
                if let Some(from_cycle) = cycles[from] {
                    est = est.max(from_cycle + latency - ii * (distance as i32));
                }
            }
        }
        est.max(0)
    }

    /// Places `op` at `slot` unconditionally, evicting every scheduled
    /// operation whose reservations collide with the op's
    /// highest-priority selection.
    #[allow(clippy::too_many_arguments)]
    fn force_place(
        &self,
        op: usize,
        slot: i32,
        class: ClassId,
        mrt: &mut ModuloRuMap,
        cycles: &mut [Option<i32>],
        selected: &mut [u32],
        bounds: &[u32],
    ) {
        let checker = Checker::new(self.mdes);
        // The forced selection: highest-priority option of every tree,
        // written into the op's own slot.
        let own = bounds[op] as usize..bounds[op + 1] as usize;
        let trees = &self.mdes.class(class).or_trees;
        for (dst, &t) in selected[own.clone()].iter_mut().zip(trees) {
            *dst = self.mdes.or_trees()[t as usize].options[0];
        }

        // Evict every placed op with a check the forced selection holds.
        let mut forced = ModuloRuMap::new(mrt.ii());
        for &opt_idx in &selected[own.clone()] {
            checker.apply_option_at(&mut forced, opt_idx, slot, true);
        }
        let collides = |i: usize, at: i32| {
            selected[bounds[i] as usize..bounds[i + 1] as usize]
                .iter()
                .flat_map(|&opt_idx| self.mdes.option_checks(opt_idx as usize))
                .any(|check| !forced.is_free(at + check.time, check.mask))
        };
        let victims: Vec<usize> = (0..cycles.len())
            .filter(|&i| i != op && cycles[i].is_some_and(|at| collides(i, at)))
            .collect();
        for victim in victims {
            self.unschedule(victim, mrt, cycles, selected, bounds);
        }

        for &opt_idx in &selected[own] {
            checker.apply_option_at(mrt, opt_idx, slot, true);
        }
    }

    /// Releases `op`'s reservations and marks it unplaced; its slot in
    /// `selected` is simply overwritten when it is placed again.
    fn unschedule(
        &self,
        op: usize,
        mrt: &mut ModuloRuMap,
        cycles: &mut [Option<i32>],
        selected: &[u32],
        bounds: &[u32],
    ) {
        if let Some(cycle) = cycles[op].take() {
            let selection = &selected[bounds[op] as usize..bounds[op + 1] as usize];
            Checker::new(self.mdes).release(mrt, cycle, selection);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::{Op, Reg};
    use mdes_core::spec::{Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
    use mdes_core::usage::ResourceUsage;
    use mdes_core::UsageEncoding;

    fn u(r: usize, t: i32) -> ResourceUsage {
        ResourceUsage::new(mdes_core::ResourceId::from_index(r), t)
    }

    /// One memory unit + two ALUs.  Loads and ALU ops are single-cycle
    /// issue; a `mul` holds the memory unit for two cycles and ALU[0] for
    /// one, which fragments the modulo reservation table.
    fn pipe_mdes() -> CompiledMdes {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add("M").unwrap(); // r0
        spec.resources_mut().add_indexed("ALU", 2).unwrap(); // r1 r2
        let m = spec.add_option(TableOption::new(vec![u(0, 0)]));
        let mem = spec.add_or_tree(OrTree::new(vec![m]));
        let alu_opts: Vec<_> = (1..3)
            .map(|a| spec.add_option(TableOption::new(vec![u(a, 0)])))
            .collect();
        let alu = spec.add_or_tree(OrTree::new(alu_opts));
        spec.add_class(
            "load",
            Constraint::Or(mem),
            Latency::with_mem(2, 1),
            OpFlags::load(),
        )
        .unwrap();
        spec.add_class("alu", Constraint::Or(alu), Latency::new(1), OpFlags::none())
            .unwrap();
        let m2 = spec.add_option(TableOption::new(vec![u(0, 0), u(0, 1), u(1, 0)]));
        let mul = spec.add_or_tree(OrTree::new(vec![m2]));
        spec.add_class("mul", Constraint::Or(mul), Latency::new(3), OpFlags::none())
            .unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    fn simple_loop(mdes: &CompiledMdes, loads: usize, alus: usize) -> LoopBlock {
        let load = mdes.class_by_name("load").unwrap();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut body = Block::new();
        for i in 0..loads {
            body.push(Op::new(load, vec![Reg(i as u32)], vec![Reg(100)]));
        }
        for i in 0..alus {
            body.push(Op::new(
                alu,
                vec![Reg(50 + i as u32)],
                vec![Reg((i % loads.max(1)) as u32)],
            ));
        }
        LoopBlock {
            body,
            carried: Vec::new(),
        }
    }

    #[test]
    fn res_mii_is_driven_by_the_busiest_resource() {
        let mdes = pipe_mdes();
        let scheduler = ModuloScheduler::new(&mdes);
        // 3 loads on one memory unit → ResMII 3; 4 ALU ops on two ALUs
        // contribute 4 uses of ALU[0] first option... ResMII counts the
        // first option, so ALU[1] is never counted: 4 loads of ALU[0].
        let looped = simple_loop(&mdes, 3, 2);
        assert!(scheduler.res_mii(&looped) >= 3);
    }

    #[test]
    fn achieves_res_mii_on_resource_bound_loop() {
        let mdes = pipe_mdes();
        let scheduler = ModuloScheduler::new(&mdes);
        let looped = simple_loop(&mdes, 3, 0);
        let mut stats = CheckStats::new();
        let schedule = scheduler.schedule(&looped, &mut stats);
        assert_eq!(schedule.ii, 3);
        schedule.verify(&looped, &mdes).unwrap();
    }

    #[test]
    fn rec_mii_accounts_for_carried_recurrences() {
        let mdes = pipe_mdes();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut body = Block::new();
        // r1 = r1 + 1 chain of 3 ops, carried back with distance 1.
        body.push(Op::new(alu, vec![Reg(1)], vec![Reg(0)]));
        body.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)]));
        body.push(Op::new(alu, vec![Reg(3)], vec![Reg(2)]));
        let looped = LoopBlock {
            body,
            carried: vec![(2, 0, 1, 1)], // op2 feeds op0 next iteration
        };
        let scheduler = ModuloScheduler::new(&mdes);
        // Cycle: 0→1→2 (lat 1 each) then 2→0 carried lat 1 = total 3 over
        // distance 1 → RecMII 3.
        assert_eq!(scheduler.rec_mii(&looped), 3);
        let mut stats = CheckStats::new();
        let schedule = scheduler.schedule(&looped, &mut stats);
        assert_eq!(schedule.ii, 3);
        schedule.verify(&looped, &mdes).unwrap();
    }

    #[test]
    fn contended_loop_forces_evictions_and_still_verifies() {
        let mdes = pipe_mdes();
        let scheduler = ModuloScheduler::new(&mdes).with_budget(8);
        // Heavy contention: 4 loads + 4 dependent ALUs.
        let looped = simple_loop(&mdes, 4, 4);
        let mut stats = CheckStats::new();
        let schedule = scheduler.schedule(&looped, &mut stats);
        assert!(schedule.ii >= 4, "memory unit bounds II at 4");
        schedule.verify(&looped, &mdes).unwrap();
    }

    #[test]
    fn empty_loop_schedules_at_ii_one() {
        let mdes = pipe_mdes();
        let scheduler = ModuloScheduler::new(&mdes);
        let looped = LoopBlock::default();
        let mut stats = CheckStats::new();
        let schedule = scheduler.schedule(&looped, &mut stats);
        assert_eq!(schedule.ii, 1);
        assert!(schedule.cycles.is_empty());
    }

    #[test]
    fn selections_are_flat_and_verified_per_tree() {
        let mdes = pipe_mdes();
        let looped = simple_loop(&mdes, 2, 2);
        let mut stats = CheckStats::new();
        let mut schedule = ModuloScheduler::new(&mdes).schedule(&looped, &mut stats);
        assert_eq!(schedule.bounds, vec![0, 1, 2, 3, 4]);
        assert_eq!(schedule.selection(3).len(), 1);
        schedule.verify(&looped, &mdes).unwrap();
        // A load holding an ALU option reserved nothing it needed.
        schedule.selected[0] = schedule.selection(2)[0];
        let err = schedule.verify(&looped, &mdes).unwrap_err();
        assert!(err.contains("not in its OR-tree 0"), "{err}");
    }

    #[test]
    fn verify_rejects_schedules_shaped_unlike_the_body() {
        let mdes = pipe_mdes();
        let mut looped = simple_loop(&mdes, 2, 1);
        looped.carried.push((2, 0, 1, 1));
        let schedule = ModuloScheduler::new(&mdes).schedule(&looped, &mut CheckStats::new());
        schedule.verify(&looped, &mdes).unwrap();
        let rejects = |broken: &ModuloSchedule, looped: &LoopBlock, expected: &str| {
            let err = broken.verify(looped, &mdes).unwrap_err();
            assert!(err.contains(expected), "{err}");
        };

        let mut short = schedule.clone();
        short.cycles.pop();
        rejects(&short, &looped, "places 2 operation(s) but the body has 3");
        let mut long = schedule.clone();
        long.cycles.push(0);
        rejects(&long, &looped, "places 4 operation(s) but the body has 3");
        let mut unbounded = schedule.clone();
        unbounded.bounds.pop();
        rejects(
            &unbounded,
            &looped,
            "3 selection bound(s) for 3 operation(s)",
        );
        unbounded.bounds.clear();
        rejects(
            &unbounded,
            &looped,
            "0 selection bound(s) for 3 operation(s)",
        );
        for ii in [0, -2] {
            let mut stalled = schedule.clone();
            stalled.ii = ii;
            rejects(&stalled, &looped, "is not positive");
        }
        for carried in [(3, 0, 1, 1), (0, 7, 1, 1)] {
            let mut stray = looped.clone();
            stray.carried.push(carried);
            rejects(&schedule, &stray, "outside the 3-op body");
        }
    }

    #[test]
    fn verify_rejects_broken_modulo_schedules() {
        let mdes = pipe_mdes();
        let scheduler = ModuloScheduler::new(&mdes);
        let looped = simple_loop(&mdes, 2, 0);
        let mut stats = CheckStats::new();
        let mut schedule = scheduler.schedule(&looped, &mut stats);
        schedule.verify(&looped, &mdes).unwrap();
        // Collapse both loads into one MRT slot.
        schedule.cycles[1] = schedule.cycles[0];
        assert!(schedule.verify(&looped, &mdes).is_err());
    }

    /// Pins the exact placement and checker accounting of one loop whose
    /// II-6 attempt forces three placements (evicting the operations
    /// they collide with) before II 7 succeeds.  The values were taken
    /// from the scheduler's own private reservation walk, before it
    /// reserved through `Checker`.
    #[test]
    fn forced_placements_keep_their_exact_schedule_and_stats() {
        let mdes = pipe_mdes();
        let class = |name: &str| mdes.class_by_name(name).unwrap();
        let (load, alu, mul) = (class("load"), class("alu"), class("mul"));
        let mut body = Block::new();
        body.push(Op::new(load, vec![Reg(1)], vec![Reg(0)]));
        body.push(Op::new(load, vec![Reg(2)], vec![Reg(0)]));
        body.push(Op::new(mul, vec![Reg(3)], vec![Reg(8)]));
        body.push(Op::new(alu, vec![Reg(4)], vec![Reg(1)]));
        body.push(Op::new(mul, vec![Reg(5)], vec![Reg(4)]));
        let looped = LoopBlock {
            body,
            carried: vec![(4, 0, 1, 1)],
        };
        let mut stats = CheckStats::new();
        let schedule = ModuloScheduler::new(&mdes)
            .with_budget(2)
            .schedule(&looped, &mut stats);
        schedule.verify(&looped, &mdes).unwrap();
        assert_eq!(schedule.ii, 7);
        assert_eq!(schedule.cycles, vec![0, 1, 3, 2, 5]);
        assert_eq!(schedule.selected, vec![0, 0, 3, 1, 3]);
        let counts = (stats.attempts, stats.options_checked, stats.resource_checks);
        assert_eq!((counts, stats.successes), ((45, 45, 51), 12));
    }
}
