//! Quickstart: describe a machine in HMDL, optimize the description,
//! and schedule a basic block with the MDES-driven list scheduler.
//!
//! Run with: `cargo run --example quickstart`

use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::opt::pipeline::{optimize, PipelineConfig};
use mdes::sched::{Block, ListScheduler, Op, Reg};

fn main() {
    // 1. A small dual-issue machine, written in the high-level language:
    //    two decoders, one memory port, two ALUs, one write-back bus port
    //    per side.
    let source = "
        resource Decoder[2];
        resource M;
        resource ALU[2];

        or_tree AnyDecoder = first_of(for d in 0..2: { Decoder[d] @ -1 });
        or_tree AnyAlu     = first_of(for a in 0..2: { ALU[a] @ 0 });
        or_tree UseM       = first_of({ M @ 0 });

        and_or_tree AluOp  = all_of(AnyAlu, AnyDecoder);
        and_or_tree MemOp  = all_of(UseM, AnyDecoder);

        class alu  { constraint = AluOp; latency = 1; }
        class load { constraint = MemOp; latency = 2; flags = load; }
        class store { constraint = MemOp; latency = 1; flags = store; }
    ";
    let mut spec = mdes::lang::compile(source).expect("valid HMDL");

    // 2. Run the paper's transformation pipeline (redundancy elimination,
    //    dominated-option removal, usage-time shifting, check ordering,
    //    AND/OR conflict-detection ordering, common-usage factoring).
    let report = optimize(&mut spec, &PipelineConfig::full());
    println!("pipeline: {report:#?}\n");

    // 3. Compile to the low-level bit-vector representation.
    let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).expect("compiles");
    let alu = mdes.class_by_name("alu").unwrap();
    let load = mdes.class_by_name("load").unwrap();
    let store = mdes.class_by_name("store").unwrap();

    // 4. A little block: two loads feed two adds, results are stored.
    //    The scheduler sees classes and registers; the assembly text is
    //    the example's own, indexed like the block.
    let mut block = Block::new();
    block.push(Op::new(load, vec![Reg(1)], vec![Reg(10)]));
    block.push(Op::new(load, vec![Reg(2)], vec![Reg(11)]));
    block.push(Op::new(alu, vec![Reg(3)], vec![Reg(1), Reg(2)]));
    block.push(Op::new(alu, vec![Reg(4)], vec![Reg(3), Reg(2)]));
    block.push(Op::new(store, vec![], vec![Reg(4), Reg(12)]));
    let labels = [
        "ld r1,[r10]",
        "ld r2,[r11]",
        "add r3,r1,r2",
        "add r4,r3,r2",
        "st [r12],r4",
    ];

    // 5. Schedule and report.
    let mut stats = CheckStats::new();
    let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);

    println!("cycle | operation");
    println!("------+-----------------");
    let mut order: Vec<usize> = (0..block.len()).collect();
    order.sort_by_key(|&i| schedule.ops[i].cycle);
    for i in order {
        println!("{:>5} | {}", schedule.ops[i].cycle, labels[i]);
    }
    println!(
        "\nschedule length: {} cycles; {} scheduling attempts, {:.2} resource checks/attempt",
        schedule.length,
        stats.attempts,
        stats.checks_per_attempt()
    );

    // 6. The RU map made visible: which operation holds which resource
    //    in which cycle.
    println!("\nresource occupancy (ops labeled 0-4):");
    print!(
        "{}",
        mdes::sched::occupancy_chart(&spec, &mdes, &block, &schedule)
    );
}
