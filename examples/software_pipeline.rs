//! Software-pipeline a loop with iterative modulo scheduling (Rau [12]),
//! the "advanced scheduling technique" whose unscheduling requirement the
//! paper uses to argue for reservation tables over finite-state automata
//! (Section 10).
//!
//! Run with: `cargo run --example software_pipeline`

use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::sched::{Block, LoopBlock, ModuloScheduler, Op, Reg};

fn main() {
    // A single-memory-port, dual-ALU machine.
    let spec = mdes::lang::compile(
        "
        resource M;
        resource ALU[2];
        or_tree UseM   = first_of({ M @ 0 });
        or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
        class load  { constraint = UseM;   latency = 2; flags = load;  }
        class store { constraint = UseM;   latency = 1; flags = store; }
        class alu   { constraint = AnyAlu; latency = 1; }
    ",
    )
    .expect("valid HMDL");
    let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let load = mdes.class_by_name("load").unwrap();
    let store = mdes.class_by_name("store").unwrap();
    let alu = mdes.class_by_name("alu").unwrap();

    // The loop body:  a[i] = a[i] * 3 + 1  (load; two ALU ops; store),
    // with the address increment carried to the next iteration.
    let mut body = Block::new();
    let ld = body.push(Op::new(load, vec![Reg(1)], vec![Reg(0)]));
    body.push(Op::new(alu, vec![Reg(2)], vec![Reg(1)]));
    body.push(Op::new(alu, vec![Reg(3)], vec![Reg(2)]));
    let st = body.push(Op::new(store, vec![], vec![Reg(3), Reg(0)]));
    let inc = body.push(Op::new(alu, vec![Reg(0)], vec![Reg(0)]));
    // Assembly text for the listing, indexed like the body.
    let labels = [
        "ld r1,[r0]",
        "mul r2,r1,3",
        "add r3,r2,1",
        "st [r0],r3",
        "add r0,r0,4",
    ];

    let looped = LoopBlock {
        body,
        // r0 computed by `inc` feeds next iteration's load and store.
        carried: vec![(inc, ld, 1, 1), (inc, st, 1, 1)],
    };

    let scheduler = ModuloScheduler::new(&mdes);
    println!(
        "ResMII = {} (two memory ops per iteration through one port)",
        scheduler.res_mii(&looped)
    );
    println!("RecMII = {}", scheduler.rec_mii(&looped));

    let mut stats = CheckStats::new();
    let schedule = scheduler.schedule(&looped, &mut stats);
    schedule
        .verify(&looped, &mdes)
        .expect("valid modulo schedule");

    println!("achieved II = {}\n", schedule.ii);
    println!("op                  cycle  MRT slot (cycle mod II)");
    println!("------------------  -----  -----------------------");
    for (i, name) in labels.iter().enumerate() {
        println!(
            "{name:<18}  {:>5}  {:>6}",
            schedule.cycles[i],
            schedule.cycles[i].rem_euclid(schedule.ii)
        );
    }
    println!(
        "\nsteady state: one iteration starts every {} cycles (loop body spans {} cycles)",
        schedule.ii,
        schedule.cycles.iter().max().unwrap() - schedule.cycles.iter().min().unwrap() + 1
    );
}
