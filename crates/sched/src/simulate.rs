//! In-order issue simulation.
//!
//! The paper's introduction motivates accurate machine descriptions by
//! the cost of inaccuracy: compilers that model the machine with
//! "easy-to-modify metrics, such as the function unit mix and operation
//! latencies … can only approximately model the complex execution
//! constraints in today's superscalar processors.  Inaccurate modeling of
//! execution constraints during compilation … As a result, unexpected
//! execution cycles arise during run time."
//!
//! This module provides the measurement instrument for that claim: an
//! in-order superscalar issue simulator driven by the *accurate* compiled
//! MDES.  Give it a block in the order some scheduler emitted it; it
//! issues operations strictly in that order, as many per cycle as the
//! machine's real dependences and resource constraints allow, stalling at
//! the first operation that cannot issue — and reports how many cycles
//! the code actually takes.  Scheduling with an approximate description
//! and simulating on the accurate one exposes exactly the "unexpected
//! execution cycles" the paper describes (see the `mdes-bench` accuracy
//! ablation).

use mdes_core::{Checker, CompiledMdes, RuMap};

use crate::depgraph::DepGraph;
use crate::operation::Block;
use crate::CheckStats;

/// Outcome of one in-order simulation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Total machine cycles from first issue to last issue, inclusive.
    pub cycles: i32,
    /// Cycles in which nothing could issue (pure stall cycles).
    pub stall_cycles: i32,
    /// Operations issued (always the block size on return).
    pub issued: usize,
}

impl SimResult {
    /// Issued operations per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }
}

/// Simulates `block` issued strictly in `order` on the machine described
/// by `mdes` (the *accurate* description).
///
/// In-order superscalar semantics: each cycle, the next unissued
/// operations are issued one after another while their operands are
/// ready (per the MDES dependence latencies) and the MDES grants their
/// resources; the first blocked operation stalls itself and everything
/// behind it until the next cycle.
///
/// # Examples
///
/// ```
/// use mdes_core::{CompiledMdes, UsageEncoding};
/// use mdes_sched::{simulate_in_order, Block, Op, Reg};
///
/// let spec = mdes_lang::compile("
///     resource ALU;
///     or_tree T = first_of({ ALU @ 0 });
///     class alu { constraint = T; latency = 2; }
/// ").unwrap();
/// let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
/// let alu = mdes.class_by_name("alu").unwrap();
///
/// let mut block = Block::new();
/// block.push(Op::new(alu, vec![Reg(1)], vec![Reg(0)]));
/// block.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)])); // waits 2 cycles
/// let result = simulate_in_order(&block, &[0, 1], &mdes);
/// assert_eq!(result.cycles, 3);
/// assert_eq!(result.stall_cycles, 1);
/// ```
///
/// # Panics
///
/// Panics if `order` is not a permutation of the block's indices, or if
/// some operation can never issue (invalid description).
pub fn simulate_in_order(block: &Block, order: &[usize], mdes: &CompiledMdes) -> SimResult {
    assert_eq!(order.len(), block.len(), "order must cover the block");
    let mut seen = vec![false; block.len()];
    for &op in order {
        assert!(!seen[op], "order must be a permutation");
        seen[op] = true;
    }
    if block.is_empty() {
        return SimResult {
            cycles: 0,
            stall_cycles: 0,
            issued: 0,
        };
    }

    let graph = DepGraph::build(block, mdes);
    let checker = Checker::new(mdes);
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    // Issued operations are never released, so one selection buffer is
    // cleared and reused by every attempt.
    let mut selected = Vec::new();

    let mut issue_cycle: Vec<Option<i32>> = vec![None; block.len()];
    let mut next = 0usize; // next position in `order` to issue
    let mut cycle = 0i32;
    let mut stall_cycles = 0i32;
    let span = (mdes.max_check_time() - mdes.min_check_time() + 1).max(1);
    let limit = (block.len() as i32 + 8) * span * 4 + 64;

    while next < order.len() {
        assert!(
            cycle <= limit,
            "in-order simulation wedged: some operation can never issue"
        );
        let issued_before = next;
        // Issue as many consecutive operations as possible this cycle.
        while next < order.len() {
            let op = order[next];
            let ready = graph
                .preds(op)
                .iter()
                .map(|edge| issue_cycle[edge.from as usize].map(|c| c + edge.latency))
                .try_fold(0i32, |acc, r| r.map(|r| acc.max(r)));
            let Some(ready) = ready else {
                // A predecessor appears *later* in the issue order: the
                // order is not a topological order of the dependences.
                panic!("issue order violates dependences of the block");
            };
            if ready > cycle {
                break;
            }
            selected.clear();
            let class = block.ops[op].class;
            if !checker.try_reserve_into(&mut ru, class, cycle, &mut stats, &mut selected) {
                break;
            }
            issue_cycle[op] = Some(cycle);
            next += 1;
        }
        if next == issued_before {
            stall_cycles += 1;
        }
        cycle += 1;
    }

    let first = issue_cycle.iter().flatten().min().copied().unwrap_or(0);
    let last = issue_cycle.iter().flatten().max().copied().unwrap_or(0);
    SimResult {
        cycles: last - first + 1,
        stall_cycles,
        issued: block.len(),
    }
}

/// Orders a block by a schedule: ascending issue cycle, original index
/// breaking ties (so a trailing branch stays last within its cycle).
pub fn order_of_schedule(schedule: &crate::list::Schedule) -> Vec<usize> {
    let mut order: Vec<usize> = (0..schedule.len()).collect();
    order.sort_by_key(|&i| (schedule.cycle(i), i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::ListScheduler;
    use crate::operation::{Op, Reg};
    use mdes_core::UsageEncoding;

    /// Accurate machine: 2 issue slots but only ONE result bus.
    fn accurate() -> CompiledMdes {
        let spec = mdes_lang::compile(
            "
            resource Slot[2];
            resource Bus;
            or_tree AnySlot = first_of(for s in 0..2: { Slot[s] @ 0 });
            or_tree UseBus  = first_of({ Bus @ 1 });
            and_or_tree AluOp = all_of(UseBus, AnySlot);
            class alu { constraint = AluOp; latency = 2; }
        ",
        )
        .unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    /// Approximate machine: same class names, bus not modeled.
    fn approximate() -> CompiledMdes {
        let spec = mdes_lang::compile(
            "
            resource Slot[2];
            or_tree AnySlot = first_of(for s in 0..2: { Slot[s] @ 0 });
            class alu { constraint = AnySlot; latency = 2; }
        ",
        )
        .unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    fn independent_block(mdes: &CompiledMdes, n: u32) -> Block {
        let alu = mdes.class_by_name("alu").unwrap();
        (0..n).map(|i| Op::new(alu, vec![Reg(i)], vec![])).collect()
    }

    #[test]
    fn accurate_schedule_simulates_at_its_planned_length() {
        let mdes = accurate();
        let block = independent_block(&mdes, 6);
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let order = order_of_schedule(&schedule);
        let result = simulate_in_order(&block, &order, &mdes);
        // One op per cycle (single result bus): planned == simulated.
        assert_eq!(schedule.length, 6);
        assert_eq!(result.cycles, schedule.length);
        assert_eq!(result.stall_cycles, 0);
    }

    #[test]
    fn approximate_schedule_pays_unexpected_cycles_on_the_real_machine() {
        let accurate = accurate();
        let approx = approximate();
        let block = independent_block(&accurate, 6);
        let mut stats = CheckStats::new();
        // The approximate scheduler believes 2 ops can issue per cycle.
        let schedule = ListScheduler::new(&approx).schedule(&block, &mut stats);
        assert_eq!(schedule.length, 3, "approx model promises 3 cycles");
        // The real machine's single result bus stretches it to 6.
        let order = order_of_schedule(&schedule);
        let result = simulate_in_order(&block, &order, &accurate);
        assert_eq!(result.cycles, 6, "unexpected execution cycles at run time");
    }

    #[test]
    fn dependences_stall_in_order_issue() {
        let mdes = accurate();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut block = Block::new();
        block.push(Op::new(alu, vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)])); // needs r1, lat 2
        let order = vec![0, 1];
        let result = simulate_in_order(&block, &order, &mdes);
        assert_eq!(result.cycles, 3); // issue at 0 and 2
        assert_eq!(result.stall_cycles, 1);
        assert!(result.ipc() < 1.0);
    }

    #[test]
    fn empty_block_simulates_to_zero() {
        let mdes = accurate();
        let result = simulate_in_order(&Block::new(), &[], &mdes);
        assert_eq!(result.cycles, 0);
        assert_eq!(result.issued, 0);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_order_is_rejected() {
        let mdes = accurate();
        let block = independent_block(&mdes, 2);
        simulate_in_order(&block, &[0, 0], &mdes);
    }

    #[test]
    #[should_panic(expected = "violates dependences")]
    fn anti_topological_order_is_rejected() {
        let mdes = accurate();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut block = Block::new();
        block.push(Op::new(alu, vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)]));
        simulate_in_order(&block, &[1, 0], &mdes);
    }
}
