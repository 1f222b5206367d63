//! Allocation and size gates for the scheduling data path.
//!
//! A counting global allocator (no dependencies) tallies heap
//! allocations per thread, so tests running in parallel do not see each
//! other's traffic.  The gates:
//!
//! * a reservation attempt allocates nothing once the caller's selection
//!   buffer has capacity — successful or failed;
//! * scheduling a block against warm scratch makes a fixed number of
//!   allocations, however many attempts the block needs;
//! * operations and placements stay compact, and an operation is a
//!   heap-free `Copy` value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdes_core::{CheckStats, Checker, CompiledMdes, RuMap, UsageEncoding};
use mdes_machines::Machine;
use mdes_sched::{Block, DepGraph, ListScheduler, Op, Reg, SchedScratch, ScheduledOp};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and the
// only extra work is bumping a const-initialised thread-local counter,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn compiled(machine: Machine) -> CompiledMdes {
    CompiledMdes::compile(&machine.spec(), UsageEncoding::BitVector).unwrap()
}

#[test]
fn reservation_attempts_allocate_nothing_once_out_has_capacity() {
    for machine in Machine::all() {
        let mdes = compiled(machine);
        let checker = Checker::new(&mdes);
        let classes = (0..mdes.classes().len()).map(mdes_core::ClassId::from_index);
        // Pre-sized so reservations never grow the map's window.
        let mut ru = RuMap::with_range(mdes.min_check_time() - 1, 64 + mdes.max_check_time());
        let mut stats = CheckStats::new();
        let mut out: Vec<u32> = Vec::with_capacity(4096);

        let (allocations, ()) = allocations_in(|| {
            // Every class, eight times per cycle over a short window: the
            // machine saturates, so both outcomes occur.
            for cycle in 0..16 {
                out.clear();
                for class in classes.clone() {
                    for _ in 0..8 {
                        checker.try_reserve_into(&mut ru, class, cycle, &mut stats, &mut out);
                    }
                }
            }
        });
        assert_eq!(allocations, 0, "{machine:?}");
        assert!(stats.successes > 0, "{machine:?}");
        assert!(stats.successes < stats.attempts, "{machine:?}");
    }
}

#[test]
fn failed_attempts_truncate_out_and_roll_back() {
    let mdes = compiled(Machine::Pa7100);
    let checker = Checker::new(&mdes);
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    let mut out = vec![7u32];
    let mut failures = 0;
    for class in (0..mdes.classes().len()).map(mdes_core::ClassId::from_index) {
        // Fill cycle 0 with this class until it fails; the failure must
        // leave the map and the buffer exactly as it found them.
        for _ in 0..64 {
            let (len, map) = (out.len(), ru.clone());
            if !checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut out) {
                assert_eq!(out.len(), len);
                // Occupancy, not the storage window: a rolled-back tree
                // may have grown the window before releasing its bits.
                for cycle in -16..16 {
                    assert_eq!(ru.word(cycle), map.word(cycle), "cycle {cycle}");
                }
                failures += 1;
                break;
            }
        }
    }
    assert!(failures > 0);
    assert_eq!(out[0], 7, "earlier entries are never touched");
}

/// `n` ALU-class operations on a two-ALU machine: independent (every
/// ready op retried cycle after cycle) or one dependence chain (each op
/// tried once, when it becomes ready).
fn alu_block(mdes: &CompiledMdes, n: u32, chained: bool) -> Block {
    let alu = mdes.class_by_name("alu").unwrap();
    (0..n)
        .map(|i| {
            let srcs = if chained && i > 0 {
                vec![Reg(i)]
            } else {
                vec![]
            };
            Op::new(alu, vec![Reg(i + 1)], srcs)
        })
        .collect()
}

#[test]
fn block_allocations_do_not_depend_on_attempt_count() {
    let spec = mdes_lang::compile(
        "
        resource ALU[2];
        or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
        class alu { constraint = AnyAlu; latency = 1; }
    ",
    )
    .unwrap();
    let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let independent = alu_block(&mdes, 48, false);
    let chain = alu_block(&mdes, 48, true);
    let graphs = [
        DepGraph::build(&independent, &mdes),
        DepGraph::build(&chain, &mdes),
    ];

    let scheduler = ListScheduler::new(&mdes);
    let mut scratch = SchedScratch::new();
    let mut stats = [CheckStats::new(), CheckStats::new()];
    let mut run = |k: usize, block: &Block, stats: &mut CheckStats| {
        allocations_in(|| {
            scheduler.schedule_with_graph_reusing(block, &graphs[k], &mut scratch, stats)
        })
    };
    // Warm the scratch (buffers and RU-map window) on both blocks.
    run(0, &independent, &mut CheckStats::new());
    run(1, &chain, &mut CheckStats::new());

    let (wide, a) = run(0, &independent, &mut stats[0]);
    let (deep, b) = run(1, &chain, &mut stats[1]);
    // The independent block retries every ready op each cycle; the
    // chain tries each op once.  The allocation count is the same.
    assert!(stats[0].attempts > 4 * stats[1].attempts, "{stats:?}");
    assert_eq!(wide, deep);
    assert!(wide <= 4, "{wide} allocations per block");
    for schedule in [a, b] {
        assert_eq!(schedule.selected.capacity(), schedule.selected.len());
    }
}

// An operation is plain data: copying one never clones a heap block.
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<Op>();
};

#[test]
fn operations_and_placements_stay_compact() {
    assert!(
        std::mem::size_of::<Op>() <= 24,
        "{}",
        std::mem::size_of::<Op>()
    );
    assert!(
        std::mem::size_of::<ScheduledOp>() <= 16,
        "{}",
        std::mem::size_of::<ScheduledOp>()
    );
    // The operands live inline: building an operation allocates nothing.
    let class = mdes_core::ClassId::from_index(0);
    let (allocations, op) = allocations_in(|| Op::from_regs(class, &[Reg(1)], &[Reg(2), Reg(3)]));
    assert_eq!(allocations, 0);
    assert_eq!(
        (op.dests(), op.srcs()),
        (&[Reg(1)][..], &[Reg(2), Reg(3)][..])
    );
}
