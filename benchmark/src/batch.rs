//! `batch`: the scheduler as a compiler calls it, closed loop.
//!
//! `Engine::schedule_batch(blocks, 2)` round-robin over pre-generated
//! batches of 512 regions × 16 mean ops, two per bundled description,
//! all compiled during set-up.  No sockets and no compilation in the
//! timed phase: the checker, the RU map, and the list scheduler do the
//! work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mdes_benchmark::arrivals::request_seed;
use mdes_benchmark::report::Report;
use mdes_benchmark::stats::median;
use mdes_benchmark::trace::{self_by_name, Tracer};
use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes_engine::{BatchOutcome, Engine};
use mdes_opt::pipeline::{optimize, PipelineConfig};
use mdes_sched::{Block, DepGraph, ListScheduler, SchedScratch};
use mdes_workload::{generate_compiled_regions, RegionConfig};

use crate::build::bundled;
use crate::{closed_loop, daemon, paper_counts, sliced, Args, Checks};

const REGIONS: usize = 512;
const MEAN_OPS: usize = 16;
const BATCHES_PER_MACHINE: usize = 2;
/// Engine workers per batch: one per CPU of the reference box.
const JOBS: usize = 2;

struct Batch {
    machine: usize,
    blocks: Vec<Block>,
    ops: usize,
}

/// Compiles the bundled descriptions and generates the batches.
fn setup(seed: u64) -> Result<(Vec<Engine>, Vec<Batch>), String> {
    let mut engines = Vec::new();
    for source in bundled() {
        let mut spec = mdes_lang::compile(source).map_err(|e| e.to_string())?;
        optimize(&mut spec, &PipelineConfig::full());
        let mdes =
            CompiledMdes::compile(&spec, UsageEncoding::BitVector).map_err(|e| e.to_string())?;
        engines.push(Engine::new(Arc::new(mdes)));
    }
    let mut batches = Vec::new();
    for (machine, engine) in engines.iter().enumerate() {
        for b in 0..BATCHES_PER_MACHINE {
            let config = RegionConfig::new(REGIONS)
                .with_mean_ops(MEAN_OPS)
                .with_seed(request_seed(
                    seed,
                    (machine * BATCHES_PER_MACHINE + b) as u64,
                ));
            let workload = generate_compiled_regions(engine.mdes(), &config);
            batches.push(Batch {
                machine,
                blocks: workload.blocks,
                ops: workload.total_ops,
            });
        }
    }
    Ok((engines, batches))
}

#[derive(Default)]
struct Phase {
    round_ns: Vec<f64>,
    batch_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Per batch: busiest worker's busy time over the mean.
    imbalance: Vec<f64>,
    steals: u64,
}

impl Phase {
    /// One phase from consecutive slices.
    fn join(slices: Vec<Phase>) -> Phase {
        let mut phase = Phase::default();
        for slice in slices {
            phase.round_ns.extend(slice.round_ns);
            phase.batch_ns.extend(slice.batch_ns);
            phase.attempted += slice.attempted;
            phase.failed += slice.failed;
            phase.imbalance.extend(slice.imbalance);
            phase.steals += slice.steals;
        }
        phase
    }
}

/// Schedules every batch round after round for `len`; each outcome's
/// total cycles must equal the warm-up round's.
fn rounds(
    engines: &[Engine],
    batches: &[Batch],
    cycles: &[i64],
    tracer: &mut Tracer,
    len: Duration,
) -> Phase {
    let mut phase = Phase::default();
    let deadline = Instant::now() + len;
    while Instant::now() < deadline {
        let round = Instant::now();
        for (i, batch) in batches.iter().enumerate() {
            let started = Instant::now();
            let outcome = tracer.time("engine.schedule_batch", i as u32, || {
                engines[batch.machine].schedule_batch(&batch.blocks, JOBS)
            });
            phase.batch_ns.push(started.elapsed().as_nanos() as u64);
            phase.attempted += batch.blocks.len() as u64;
            phase.failed += (batch.blocks.len() - outcome.completed()) as u64;
            if outcome.total_cycles() != cycles[i] {
                phase.failed += 1;
            }
            let busy: Vec<f64> = outcome
                .workers
                .iter()
                .map(|w| w.load.busy_nanos as f64)
                .collect();
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            let max = busy.iter().copied().fold(0.0, f64::max);
            phase
                .imbalance
                .push(if mean > 0.0 { max / mean } else { 1.0 });
            phase.steals += outcome.steals();
        }
        phase.round_ns.push(round.elapsed().as_nanos() as f64);
    }
    phase
}

pub fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let (engines, batches) = setup(args.seed)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let round_ops: usize = batches.iter().map(|b| b.ops).sum();

    // Warm-up round; its schedules are the ones verified below.
    let warm: Vec<BatchOutcome> = batches
        .iter()
        .map(|batch| engines[batch.machine].schedule_batch(&batch.blocks, JOBS))
        .collect();
    let cycles: Vec<i64> = warm.iter().map(BatchOutcome::total_cycles).collect();
    // Peak memory with the inputs resident and one round done, before the
    // timed loop's own sample buffers grow.
    let memory = daemon::memory("self")?;

    let mut report = Report::default();
    let mut untraced = Tracer::new(false, 0);
    let phase = if args.traced {
        let mut tracer = args.tracer();
        let base = rounds(
            &engines,
            &batches,
            &cycles,
            &mut untraced,
            args.measured() / 3,
        );
        let traced = rounds(
            &engines,
            &batches,
            &cycles,
            &mut tracer,
            args.measured() * 2 / 3,
        );
        let round_ns = median(&traced.round_ns).unwrap_or(f64::NAN);
        let serial_ns = serial_decomposition(&engines, &batches, &mut tracer, &mut report);
        report.set(
            "engine.overhead_share",
            1.0 - serial_ns / (JOBS as f64 * round_ns),
        );
        report.set(
            "engine.imbalance",
            traced.imbalance.iter().sum::<f64>() / traced.imbalance.len().max(1) as f64,
        );
        report.set(
            "engine.steals",
            traced.steals as f64 / traced.batch_ns.len().max(1) as f64,
        );
        report.set(
            "trace.overhead_share",
            round_ns / median(&base.round_ns).unwrap_or(f64::NAN) - 1.0,
        );
        args.write_trace(&tracer)?;
        // The timings come from the untraced third.
        closed_loop(&mut report, round_ops as f64, batches.len(), &base.batch_ns);
        traced
    } else {
        let slices = sliced(
            args.measured(),
            &mut setup_s,
            || setup(args.seed).map(std::hint::black_box).map(drop),
            |len| rounds(&engines, &batches, &cycles, &mut untraced, len),
        )?;
        let phase = Phase::join(slices);
        closed_loop(
            &mut report,
            round_ops as f64,
            batches.len(),
            &phase.batch_ns,
        );
        phase
    };

    let mut checks = Checks::default();
    checks.expect(phase.failed == 0, || {
        format!("{} block(s) failed or changed length", phase.failed)
    });
    verify(&engines, &batches, &warm, args, &mut checks);
    paper_counts(engines.iter().map(|e| &**e.mdes()), &mut report);

    report.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    report.set("peak_rss_mb", memory.hwm_kb as f64 / 1024.0);
    report.correct = checks.passed();
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    Ok(report)
}

/// Schedules one round serially under spans — dependence graph, then
/// placement, per block — and fills the per-layer counts.  Returns the
/// summed self time of the two layers, nanoseconds.
fn serial_decomposition(
    engines: &[Engine],
    batches: &[Batch],
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let mut stats = CheckStats::new();
    let mut scratch = SchedScratch::new();
    for (i, batch) in batches.iter().enumerate() {
        let mdes = engines[batch.machine].mdes();
        let scheduler = ListScheduler::new(mdes);
        for block in &batch.blocks {
            let graph = tracer.time("sched.graph", i as u32, || DepGraph::build(block, mdes));
            tracer.time("sched.place", i as u32, || {
                scheduler.schedule_with_graph_reusing(block, &graph, &mut scratch, &mut stats)
            });
        }
    }
    let totals = self_by_name(tracer.spans());
    let mut serial_ns = 0.0;
    for name in ["sched.graph", "sched.place"] {
        let (count, nanos) = totals.get(name).copied().unwrap_or((0, 0));
        report.set(
            &format!("{name}_us"),
            nanos as f64 / count.max(1) as f64 / 1e3,
        );
        serial_ns += nanos as f64;
    }
    report.set("sched.attempts_per_op", stats.attempts_per_op());
    report.set("core.options_per_attempt", stats.options_per_attempt_avg());
    serial_ns
}

/// Verifies every distinct block's warm-up schedule against its
/// dependence graph and recomputes its length with the serial list
/// scheduler, then compares the round's ops and cycles with the expected
/// file.
fn verify(
    engines: &[Engine],
    batches: &[Batch],
    warm: &[BatchOutcome],
    args: &Args,
    checks: &mut Checks,
) {
    let (mut cycles, mut ops) = (0i64, 0usize);
    for (i, (batch, outcome)) in batches.iter().zip(warm).enumerate() {
        let mdes: &Arc<CompiledMdes> = engines[batch.machine].mdes();
        let scheduler = ListScheduler::new(mdes);
        ops += batch.ops;
        for (j, (block, schedule)) in batch.blocks.iter().zip(&outcome.schedules).enumerate() {
            let Some(schedule) = schedule else {
                checks.note(Err(format!("batch {i} block {j}: no schedule")));
                continue;
            };
            let graph = DepGraph::build(block, mdes);
            checks.note(
                schedule
                    .verify(&graph, mdes)
                    .map_err(|e| format!("batch {i} block {j}: {e}")),
            );
            let serial = scheduler.schedule(block, &mut CheckStats::new());
            checks.expect(serial.length == schedule.length, || {
                format!(
                    "batch {i} block {j}: engine length {} but serial length {}",
                    schedule.length, serial.length
                )
            });
            cycles += i64::from(schedule.length);
        }
    }
    checks.total(&args.expected, "batch.ops", ops);
    checks.total(&args.expected, "batch.cycles", cycles);
}
