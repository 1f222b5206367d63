//! Retarget the facility to a machine of your own: an 8-wide, two-cluster
//! VLIW that never existed.  Twenty lines of HMDL describe constraints
//! whose traditional OR-tree form needs thousands of enumerated
//! reservation tables — the scalability argument for AND/OR-trees on
//! future machines (the paper expected "the latest generation of
//! microprocessors" to look like its K5 numbers; a clustered VLIW is
//! worse).
//!
//! Run with: `cargo run --release --example custom_vliw`

use mdes::core::size::measure;
use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::opt::pipeline::{optimize, PipelineConfig};
use mdes::sched::{Block, ListScheduler, Op, Reg};

const VLIW: &str = "
    let SLOTS = 8;
    resource Slot[SLOTS];          // global issue slots
    resource Alu0[3];              // cluster-0 ALUs
    resource Alu1[3];              // cluster-1 ALUs
    resource Mem0; resource Mem1;  // one memory port per cluster
    resource XBus[2];              // inter-cluster copy buses
    resource Br;

    or_tree AnySlot = first_of(for s in 0..SLOTS: { Slot[s] @ 0 });
    or_tree AnyAlu0 = first_of(for a in 0..3: { Alu0[a] @ 0 });
    or_tree AnyAlu1 = first_of(for a in 0..3: { Alu1[a] @ 0 });
    or_tree UseMem0 = first_of({ Mem0 @ 0, Mem0 @ 1 });
    or_tree UseMem1 = first_of({ Mem1 @ 0, Mem1 @ 1 });
    or_tree AnyXBus = first_of(for x in 0..2: { XBus[x] @ 0 });
    or_tree UseBr   = first_of({ Br @ 0 });

    and_or_tree Alu0Op  = all_of(AnyAlu0, AnySlot);
    and_or_tree Alu1Op  = all_of(AnyAlu1, AnySlot);
    and_or_tree Load0   = all_of(UseMem0, AnySlot);
    and_or_tree Load1   = all_of(UseMem1, AnySlot);
    and_or_tree CopyOp  = all_of(AnyXBus, AnySlot);
    and_or_tree BrOp    = all_of(UseBr, AnySlot);

    class alu0  { constraint = Alu0Op; latency = 1; }
    class alu1  { constraint = Alu1Op; latency = 1; }
    class load0 { constraint = Load0; latency = 3; flags = load; }
    class load1 { constraint = Load1; latency = 3; flags = load; }
    class xcopy { constraint = CopyOp; latency = 2; }
    class br    { constraint = BrOp; latency = 1; flags = branch; }
";

fn main() {
    let spec = mdes::lang::compile(VLIW).expect("valid HMDL");

    // The representation argument, on a machine nobody has built yet.
    let andor = measure(&CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap());
    let (expanded, report) = mdes::opt::expand_to_or(&spec);
    let or = measure(&CompiledMdes::compile(&expanded, UsageEncoding::Scalar).unwrap());
    println!(
        "AND/OR description: {} options, {} bytes",
        andor.num_options,
        andor.total()
    );
    println!(
        "expanded OR baseline: {} options ({} generated), {} bytes — {:.0}x larger\n",
        or.num_options,
        report.options_created,
        or.total(),
        or.total() as f64 / andor.total() as f64
    );

    // Optimize and schedule a cross-cluster block.
    let mut optimized = spec.clone();
    optimize(&mut optimized, &PipelineConfig::full());
    let mdes = CompiledMdes::compile(&optimized, UsageEncoding::BitVector).unwrap();
    let class = |n: &str| mdes.class_by_name(n).unwrap();

    let mut block = Block::new();
    // Cluster 0 computes an address, loads, and ships the value across.
    block.push(Op::new(class("alu0"), vec![Reg(1)], vec![Reg(0)]));
    block.push(Op::new(class("load0"), vec![Reg(2)], vec![Reg(1)]));
    block.push(Op::new(class("xcopy"), vec![Reg(32)], vec![Reg(2)]));
    // Cluster 1 works independently, then combines.
    block.push(Op::new(class("alu1"), vec![Reg(33)], vec![Reg(34)]));
    block.push(Op::new(class("load1"), vec![Reg(35)], vec![Reg(33)]));
    block.push(Op::new(
        class("alu1"),
        vec![Reg(36)],
        vec![Reg(32), Reg(35)],
    ));
    block.push(Op::new(class("br"), vec![], vec![Reg(36)]));
    // Assembly text for the listing, indexed like the block.
    let labels = [
        "add0 r1,r0",
        "ld0 r2,[r1]",
        "xcopy c1:r32,r2",
        "add1 r33,r34",
        "ld1 r35,[r33]",
        "add1 r36,r32,r35",
        "brnz r36",
    ];

    let mut stats = CheckStats::new();
    let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
    println!("cycle | VLIW word");
    println!("------+-------------------------------------------");
    for cycle in 0..schedule.length {
        let word: Vec<&str> = (0..block.len())
            .filter(|&i| schedule.ops[i].cycle == cycle)
            .map(|i| labels[i])
            .collect();
        println!("{cycle:>5} | {}", word.join("  ||  "));
    }
    println!(
        "\n{} cycles; {:.2} checks/attempt on the optimized AND/OR description",
        schedule.length,
        stats.checks_per_attempt()
    );
}
