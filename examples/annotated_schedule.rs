//! Schedule a real-looking SPARC basic block and print the cycle-by-cycle
//! result, naming each operation by the first opcode the machine's `op`
//! vocabulary maps to its class.
//!
//! Run with: `cargo run --example annotated_schedule`

use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::machines::Machine;
use mdes::opt::optimized;
use mdes::sched::ListScheduler;
use mdes::workload::{generate, WorkloadConfig};

fn main() {
    let machine = Machine::SuperSparc;
    let spec = optimized(&machine.spec());
    let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let scheduler = ListScheduler::new(&mdes);

    let config = WorkloadConfig::paper_default(machine).with_total_ops(120);
    let workload = generate(machine, &spec, &config);

    let mut stats = CheckStats::new();
    for (b, block) in workload.blocks.iter().take(3).enumerate() {
        let schedule = scheduler.schedule(block, &mut stats);
        println!(
            "block {b} — {} ops in {} cycles",
            block.len(),
            schedule.length
        );
        for cycle in 0..schedule.length {
            let issued: Vec<String> = (0..block.len())
                .filter(|&i| schedule.ops[i].cycle == cycle)
                .map(|i| {
                    let op = &block.ops[i];
                    let dests: Vec<String> =
                        op.dests().iter().map(|r| format!("r{}", r.0)).collect();
                    let srcs: Vec<String> = op.srcs().iter().map(|r| format!("r{}", r.0)).collect();
                    // Scheduler-internal classes have no opcode.
                    let name = match spec.opcodes_of_class(op.class).first() {
                        Some(opcode) => opcode.to_string(),
                        None => spec.class(op.class).name.clone(),
                    };
                    match (dests.is_empty(), srcs.is_empty()) {
                        (false, false) => format!("{name} {}, {}", dests.join(","), srcs.join(",")),
                        (false, true) => format!("{name} {}", dests.join(",")),
                        (true, false) => format!("{name} {}", srcs.join(",")),
                        (true, true) => name,
                    }
                })
                .collect();
            println!("  {cycle:>3} | {}", issued.join("  ;  "));
        }
        println!();
    }
    println!(
        "({} attempts, {:.2} options and {:.2} checks per attempt on the optimized AND/OR MDES)",
        stats.attempts,
        stats.options_per_attempt_avg(),
        stats.checks_per_attempt()
    );
}
