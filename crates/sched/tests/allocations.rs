//! Allocation and size gates for the scheduling data path.
//!
//! The workspace's counting global allocator
//! (`mdes_telemetry::alloc`) tallies heap allocations per thread, so
//! tests running in parallel do not see each other's traffic.  The
//! gates:
//!
//! * a reservation attempt allocates nothing once the caller's selection
//!   buffer has capacity — successful or failed;
//! * placing a block against warm scratch makes a fixed number of
//!   allocations, however many attempts the block needs;
//! * a block's whole path through warm scratch — dependence graph,
//!   heights and placement — costs exactly the one exact-size buffer of
//!   the schedule it returns, and nothing when the schedule stays in the
//!   scratch;
//! * the modulo scheduler's recurrence bound searches every II in one
//!   edge list and one matrix, so its allocations do not grow with the
//!   II it reaches;
//! * operations, schedules and dependence edges stay compact, an
//!   operation is a heap-free `Copy` value, and no per-operation
//!   placement record is left in the sources.

use mdes_core::rng::Pcg32;
use mdes_core::{CheckStats, Checker, ClassId, CompiledMdes, RuMap, UsageEncoding};
use mdes_machines::Machine;
use mdes_sched::{
    Block, DepGraph, Edge, ListScheduler, LoopBlock, ModuloScheduler, Op, Reg, SchedScratch,
    Schedule,
};
use mdes_telemetry::alloc::{tally, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let ((count, _), out) = allocated_in(f);
    (count, out)
}

/// Allocations this thread makes while running `f`, and the bytes they
/// request.
fn allocated_in<T>(f: impl FnOnce() -> T) -> ((u64, usize), T) {
    let (tally, out) = tally(f);
    ((tally.allocations, tally.bytes), out)
}

/// The words of `block`'s schedule buffer: a cycle, an attempt count and
/// a selection bound per operation, one closing bound, and one selected
/// option per OR-tree of each operation's class.
fn schedule_words(mdes: &CompiledMdes, block: &Block) -> usize {
    let trees: usize = block
        .ops
        .iter()
        .map(|op| mdes.class_trees(op.class).len())
        .sum();
    3 * block.len() + 1 + trees
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
        allocated_in(|| {
            scheduler.schedule_with_graph_reusing(block, &graphs[k], &mut scratch, stats)
        })
    };
    // Warm the scratch (buffers and RU-map window) on both blocks.
    run(0, &independent, &mut CheckStats::new());
    run(1, &chain, &mut CheckStats::new());

    let (wide, _) = run(0, &independent, &mut stats[0]);
    let (deep, _) = run(1, &chain, &mut stats[1]);
    // The independent block retries every ready op each cycle; the
    // chain tries each op once.  Each costs its schedule's one buffer,
    // at its exact size.
    assert!(stats[0].attempts > 4 * stats[1].attempts, "{stats:?}");
    assert_eq!(wide, deep);
    assert_eq!(wide, (1, 4 * schedule_words(&mdes, &chain)));
}

#[test]
fn the_recurrence_bound_allocates_the_same_at_any_ii() {
    let spec = mdes_lang::compile(
        "
        resource ALU[2];
        or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
        class alu { constraint = AnyAlu; latency = 1; }
    ",
    )
    .unwrap();
    let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let scheduler = ModuloScheduler::new(&mdes);
    // A 16-operation chain fed back to its head one iteration later:
    // the recurrence bound is the chain plus the carried latency.
    let looped = |latency: i32| LoopBlock {
        body: alu_block(&mdes, 16, true),
        carried: vec![(15, 0, latency, 1)],
    };
    let (short, ii) = allocations_in(|| scheduler.rec_mii(&looped(1)));
    assert_eq!(ii, 16);
    let (long, ii) = allocations_in(|| scheduler.rec_mii(&looped(48)));
    assert_eq!(ii, 63);
    assert_eq!(short, long);
}

/// Seeded blocks of 1 to 64 operations over every class of `mdes`
/// (branches and serializing operations anywhere) on a small register
/// pool, so every kind of dependence occurs.
fn block_stream(mdes: &CompiledMdes, seed: u64) -> Vec<Block> {
    let mut rng = Pcg32::new(seed, 7);
    let classes = mdes.classes().len() as u32;
    (0..96)
        .map(|_| {
            let len = 1 + rng.gen_range(64) as usize;
            (0..len)
                .map(|_| {
                    let class = ClassId::from_index(rng.gen_range(classes) as usize);
                    let dests: Vec<Reg> = (0..rng.gen_range(2))
                        .map(|_| Reg(rng.gen_range(12)))
                        .collect();
                    let srcs: Vec<Reg> = (0..rng.gen_range(3))
                        .map(|_| Reg(rng.gen_range(12)))
                        .collect();
                    Op::new(class, dests, srcs)
                })
                .collect()
        })
        .collect()
}

#[test]
fn a_warm_block_path_allocates_only_the_schedule_it_returns() {
    for machine in Machine::all() {
        let mdes = compiled(machine);
        let blocks = block_stream(&mdes, machine as u64);
        let scheduler = ListScheduler::new(&mdes);
        let mut scratch = SchedScratch::new();
        let mut stats = CheckStats::new();
        // Warm the scratch on every block, so it has room for the largest.
        for block in &blocks {
            scheduler.schedule_in_scratch(block, &mut scratch, &mut stats);
        }
        let mut counts = Vec::new();
        for block in &blocks {
            let ((owned, bytes), schedule) =
                allocated_in(|| scheduler.schedule_reusing(block, &mut scratch, &mut stats));
            // The one allocation is the buffer, at exactly its length.
            assert_eq!(bytes, 4 * schedule_words(&mdes, block), "{machine:?}");
            let (kept, ()) = allocations_in(|| {
                let kept = scheduler.schedule_in_scratch(block, &mut scratch, &mut stats);
                assert_eq!(kept, &schedule);
            });
            counts.push((owned, kept));
        }
        assert!(
            counts.iter().all(|&count| count == (1, 0)),
            "{machine:?}: (returned, kept-in-scratch) allocations per warm block: {counts:?}"
        );
    }
}

// An operation is plain data: copying one never clones a heap block.
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<Op>();
};

#[test]
fn operations_schedules_and_edges_stay_compact() {
    assert!(
        std::mem::size_of::<Op>() <= 24,
        "{}",
        std::mem::size_of::<Op>()
    );
    // A buffer, an operation count and a length.
    assert!(
        std::mem::size_of::<Schedule>() <= 32,
        "{}",
        std::mem::size_of::<Schedule>()
    );
    // Two `u32` operation indices, a latency and a kind; the graph stores
    // every edge twice.
    assert!(
        std::mem::size_of::<Edge>() <= 16,
        "{}",
        std::mem::size_of::<Edge>()
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

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// A schedule keeps no per-operation placement record: cycles, attempts
/// and selections live in its one buffer.  The old 16-byte record type
/// must not come back under any crate's sources, in code or in docs.
#[test]
fn no_crate_source_names_a_per_operation_placement_record() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            sources(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "{} source files", files.len());
    let record = ["Scheduled", "Op"].concat();
    let named: Vec<_> = files
        .iter()
        .filter(|path| std::fs::read_to_string(path).unwrap().contains(&record))
        .collect();
    assert!(named.is_empty(), "{named:?}");
}
