//! Concurrent batch scheduling over one shared compiled MDES.
//!
//! The paper's low-level MDES is an immutable, heavily-queried artifact:
//! every transformation (Sections 5–8) exists to make the scheduler's
//! check/reserve inner loop cheaper, and nothing mutates the description
//! after customization. This crate exploits that immutability for
//! parallelism: one [`CompiledMdes`] behind an [`Arc`] is shared read-only
//! across N workers, while every piece of *mutable* scheduling state — the
//! RU map, the placement buffers, the [`CheckStats`] counters — is owned by
//! exactly one worker and **reused across every job that worker runs**
//! (reset on entry, never reallocated).
//!
//! The crate has **zero external dependencies**; the pool is built from
//! [`std::thread::scope`] and one atomic job cursor.
//!
//! ## Model
//!
//! * [`pool::run_batch_stateful`] — the generic thread pool: each free
//!   worker claims the next job of the shared slice with one `fetch_add`,
//!   so no job waits behind a running one, and carries one long-lived
//!   state value across all its jobs. Each job's panic is caught and
//!   surfaced rather than tearing the batch down.
//! * [`Engine`] — the scheduling front: [`Engine::schedule_batch`] runs
//!   the list scheduler over a batch of regions (basic blocks) against
//!   per-worker scratch ([`WorkerScratch`]) and returns index-aligned
//!   schedules plus folded statistics. [`Engine::schedule_serial`] runs a
//!   batch inline on the calling thread against scratch the caller owns,
//!   for callers that are themselves long-lived workers (the daemon's
//!   shard workers): no thread spawn and, once warm, no allocation of
//!   scratch or statistics.
//!
//! ## Determinism contract
//!
//! The same region batch with the same shared MDES produces byte-identical
//! schedules and identical folded [`CheckStats`] regardless of the worker
//! count or of which worker claims which job. Two facts carry the
//! argument:
//!
//! 1. **Each job is a pure function of its block.** A job schedules
//!    against per-worker scratch that is *reset on entry* to a state
//!    observationally identical to freshly allocated scratch
//!    (`RuMap::clear` keeps only capacity, `CheckStats::reset` compares
//!    equal to `CheckStats::new()`), so which worker runs a job — and
//!    what ran before it — cannot leak into its schedule. Results land in
//!    index-aligned slots.
//! 2. **The stats fold is partition-invariant.** [`CheckStats::merge`] is
//!    pure addition (counter adds plus histogram bucket adds), so folding
//!    per-worker accumulators equals folding per-job stats in job-index
//!    order, whatever the job-to-worker assignment was.
//!
//! [`Engine::schedule_serial`] is the same computation on one worker, so
//! its schedules and folded statistics equal `schedule_batch`'s at any
//! worker count. Only wall-clock measurements (busy time, jobs/sec) and
//! the per-worker job split vary run to run. See `docs/concurrency.md`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mdes_core::{CompiledMdes, UsageEncoding};
//! use mdes_engine::Engine;
//! use mdes_sched::{Block, Op, Reg};
//!
//! let spec = mdes_lang::compile("
//!     resource ALU[2];
//!     or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
//!     class alu { constraint = AnyAlu; latency = 1; }
//! ").unwrap();
//! let mdes = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
//! let alu = mdes.class_by_name("alu").unwrap();
//!
//! let mut block = Block::new();
//! for i in 0..4 {
//!     block.push(Op::new(alu, vec![Reg(i)], vec![]));
//! }
//! let blocks = vec![block.clone(), block];
//!
//! let outcome = Engine::new(mdes).schedule_batch(&blocks, 2);
//! assert!(outcome.is_clean());
//! assert_eq!(outcome.schedules.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

use std::sync::Arc;

use mdes_core::{CheckStats, CompiledMdes};
use mdes_sched::{Block, ListScheduler, SchedScratch, Schedule};
use mdes_telemetry::Telemetry;

use pool::run_serial;
pub use pool::{run_batch_stateful, PoolOutcome, WorkerLoad};

/// One worker's reusable scheduling state: the [`SchedScratch`] every job
/// schedules against (RU map, placement buffers), the
/// [`CheckStats`] of the job in flight, and the accumulator finished jobs
/// fold into.
///
/// Build one per long-lived thread. Every job resets what it reads on
/// entry, so after warm-up a scratch is reused indefinitely and never
/// reallocated — the histograms inside the two [`CheckStats`] are
/// allocated once, here.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    sched: SchedScratch,
    job: CheckStats,
    acc: CheckStats,
}

impl WorkerScratch {
    /// Creates an empty scratch; its buffers grow on first use.
    pub fn new() -> WorkerScratch {
        WorkerScratch::default()
    }

    /// Statistics folded over the jobs completed since the last
    /// [`Engine::schedule_serial`] call began. A panicked job contributes
    /// nothing.
    pub fn stats(&self) -> &CheckStats {
        &self.acc
    }
}

/// A scheduling engine: one shared, immutable compiled MDES serving
/// batches of region-scheduling jobs across a worker pool.
#[derive(Clone, Debug)]
pub struct Engine {
    mdes: Arc<CompiledMdes>,
}

impl Engine {
    /// Creates an engine around a shared compiled description.
    pub fn new(mdes: Arc<CompiledMdes>) -> Engine {
        Engine { mdes }
    }

    /// The shared description this engine schedules against.
    pub fn mdes(&self) -> &Arc<CompiledMdes> {
        &self.mdes
    }

    /// Schedules one block against `scratch` and folds its stats into
    /// the scratch's accumulator.
    fn run_job(&self, scratch: &mut WorkerScratch, block: &Block) -> Schedule {
        let scheduler = ListScheduler::new(&self.mdes);
        // Reset on entry: a panicked predecessor may have left the job
        // stats (and the scheduling scratch) mid-flight.
        scratch.job.reset();
        let schedule = scheduler.schedule_reusing(block, &mut scratch.sched, &mut scratch.job);
        // Fold only after the fallible part is done, so a panicked job
        // contributes nothing to the accumulator.
        scratch.acc.merge(&scratch.job);
        schedule
    }

    /// Schedules every block in `blocks` across `jobs` workers (clamped
    /// to at least one) and returns index-aligned results plus folded
    /// statistics.
    ///
    /// Workers share the compiled MDES read-only and claim blocks one at
    /// a time off a shared cursor; each worker owns one [`WorkerScratch`]
    /// for the whole batch whose scheduling buffers and job
    /// [`CheckStats`] are *reset* — not reallocated — at the start of
    /// every job, so the result for block *i* is independent of worker
    /// count and assignment (see the crate-level determinism contract).
    /// With `jobs == 1` the batch runs inline on the calling thread. A
    /// job that panics leaves a `None` at its own index in
    /// [`BatchOutcome::schedules`] — results are written in place by job
    /// index, never shifted — and is counted in
    /// [`BatchOutcome::worker_panics`]; the rest of the batch
    /// completes, and the panicked job's partial [`CheckStats`] are
    /// discarded (a job's stats fold into its worker's accumulator only
    /// after the job returns).
    pub fn schedule_batch(&self, blocks: &[Block], jobs: usize) -> BatchOutcome {
        let (raw, states) = run_batch_stateful(
            blocks,
            jobs,
            |_| WorkerScratch::new(),
            |scratch, _, _, block| self.run_job(scratch, block),
        );

        // The batch total is the fold of the per-worker accumulators.
        // CheckStats::merge is pure addition, so this equals the job-index
        // -order fold of per-job stats regardless of how the claims
        // partitioned jobs across workers.
        let mut stats = CheckStats::new();
        let workers: Vec<WorkerReport> = raw
            .workers
            .iter()
            .zip(states)
            .map(|(load, state)| {
                stats.merge(&state.acc);
                WorkerReport {
                    load: load.clone(),
                    stats: state.acc,
                }
            })
            .collect();

        BatchOutcome {
            // Index-assigned by the pool: a panicked job is `None` at its
            // own slot, later results never shift.
            schedules: raw.results,
            stats,
            workers,
            elapsed_nanos: raw.elapsed_nanos,
        }
    }

    /// Schedules every block in index order on the calling thread against
    /// caller-owned `scratch`: the one-worker form of
    /// [`Engine::schedule_batch`], with the same schedules, the same
    /// folded statistics, and the same per-job panic isolation.
    ///
    /// Nothing is spawned, and the statistics stay in the scratch
    /// ([`WorkerScratch::stats`], reset when this call begins) instead of
    /// being copied into the outcome, so a warm scratch schedules a batch
    /// without allocating any statistics. This is the entry point for
    /// callers that already are long-lived workers, such as the daemon's
    /// shard workers.
    pub fn schedule_serial(&self, blocks: &[Block], scratch: &mut WorkerScratch) -> SerialOutcome {
        scratch.acc.reset();
        let mut raw = run_serial(blocks, scratch, |scratch, _, block| {
            self.run_job(scratch, block)
        });
        SerialOutcome {
            schedules: raw.results,
            load: raw.workers.pop().unwrap_or_default(),
        }
    }
}

/// Jobs that completed (their slots are `Some`).
fn completed(schedules: &[Option<Schedule>]) -> usize {
    schedules.iter().filter(|s| s.is_some()).count()
}

/// Total schedule length over completed jobs, in cycles.
fn total_cycles(schedules: &[Option<Schedule>]) -> i64 {
    schedules
        .iter()
        .flatten()
        .map(|s| i64::from(s.length))
        .sum()
}

/// The result of one [`Engine::schedule_serial`] call. Its statistics
/// live in the caller's [`WorkerScratch`], so the outcome owns none.
#[derive(Clone, Debug)]
pub struct SerialOutcome {
    /// Per-block schedules, index-aligned with the input; `None` marks a
    /// job that panicked mid-schedule.
    pub schedules: Vec<Option<Schedule>>,
    /// Timing and job counts of the one (calling) worker.
    pub load: WorkerLoad,
}

impl SerialOutcome {
    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        completed(&self.schedules)
    }

    /// Jobs lost to a panic (their result slots are `None`).
    pub fn worker_panics(&self) -> u64 {
        self.load.panics
    }

    /// Whether every job completed without a panic.
    pub fn is_clean(&self) -> bool {
        self.worker_panics() == 0 && self.schedules.iter().all(Option::is_some)
    }

    /// Total schedule length over completed jobs, in cycles.
    pub fn total_cycles(&self) -> i64 {
        total_cycles(&self.schedules)
    }
}

/// One worker's share of a batch: pool-level load plus the scheduling
/// statistics of the jobs it executed.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Busy time and job counts from the pool.
    pub load: WorkerLoad,
    /// Folded [`CheckStats`] of this worker's jobs.
    pub stats: CheckStats,
}

/// The result of one [`Engine::schedule_batch`] call.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-block schedules, index-aligned with the input; `None` marks a
    /// job whose worker panicked mid-schedule.
    pub schedules: Vec<Option<Schedule>>,
    /// Statistics folded over all completed jobs, in job-index order.
    pub stats: CheckStats,
    /// Per-worker load and statistics, indexed by worker id.
    pub workers: Vec<WorkerReport>,
    /// Wall-clock nanoseconds for the whole batch.
    pub elapsed_nanos: u128,
}

impl BatchOutcome {
    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        completed(&self.schedules)
    }

    /// Jobs lost to a panic (their result slots are `None`).
    pub fn worker_panics(&self) -> u64 {
        self.workers.iter().map(|w| w.load.panics).sum()
    }

    /// Always 0: the pool claims every job off one cursor, so nothing is
    /// ever stolen. Kept only because the end-to-end benchmark
    /// (`benchmark/src/batch.rs`) reads it for its `engine.steals` metric.
    pub fn steals(&self) -> u64 {
        0
    }

    /// Whether every job completed without a panic.
    pub fn is_clean(&self) -> bool {
        self.worker_panics() == 0 && self.schedules.iter().all(|s| s.is_some())
    }

    /// Total schedule length over completed jobs, in cycles.
    pub fn total_cycles(&self) -> i64 {
        total_cycles(&self.schedules)
    }

    /// Completed jobs per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            return 0.0;
        }
        self.completed() as f64 / (self.elapsed_nanos as f64 / 1e9)
    }

    /// Folds the batch into a telemetry registry under `prefix` (e.g.
    /// `engine`): the folded scheduling counters under `{prefix}/sched`,
    /// a `jobs_per_sec` gauge, a `worker_panics` counter (always present,
    /// zero on clean runs, so metrics consumers can gate on it), and a
    /// per-worker breakdown — a `busy` span via the thread-safe
    /// [`Telemetry::record_span`] path plus job and check/reserve
    /// counters.
    pub fn publish(&self, tel: &Telemetry, prefix: &str) {
        self.stats.publish(tel, &format!("{prefix}/sched"));
        tel.counter_add(&format!("{prefix}/jobs_completed"), self.completed() as u64);
        tel.counter_add(&format!("{prefix}/worker_panics"), self.worker_panics());
        tel.gauge_set(&format!("{prefix}/jobs_per_sec"), self.jobs_per_sec());
        tel.gauge_set(&format!("{prefix}/workers"), self.workers.len() as f64);
        for worker in &self.workers {
            let base = format!("{prefix}/worker{}", worker.load.worker);
            tel.record_span(&format!("{base}/busy"), worker.load.busy_nanos);
            tel.counter_add(&format!("{base}/jobs"), worker.load.jobs);
            tel.counter_add(&format!("{base}/attempts"), worker.stats.attempts);
            tel.counter_add(
                &format!("{base}/resource_checks"),
                worker.stats.resource_checks,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::UsageEncoding;
    use mdes_sched::{Op, Reg};

    fn two_alu_machine() -> Arc<CompiledMdes> {
        let mut spec = mdes_core::MdesSpec::new();
        let a0 = spec.resources_mut().add("ALU0").unwrap();
        let a1 = spec.resources_mut().add("ALU1").unwrap();
        let o0 = spec.add_option(mdes_core::TableOption::new(vec![
            mdes_core::ResourceUsage::new(a0, 0),
        ]));
        let o1 = spec.add_option(mdes_core::TableOption::new(vec![
            mdes_core::ResourceUsage::new(a1, 0),
        ]));
        let tree = spec.add_or_tree(mdes_core::OrTree::new(vec![o0, o1]));
        spec.add_class(
            "alu",
            mdes_core::Constraint::Or(tree),
            mdes_core::Latency::new(1),
            mdes_core::OpFlags::none(),
        )
        .unwrap();
        Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap())
    }

    fn blocks(mdes: &CompiledMdes, count: usize, ops: usize) -> Vec<Block> {
        let alu = mdes.class_by_name("alu").unwrap();
        (0..count)
            .map(|b| {
                let mut block = Block::new();
                for i in 0..ops {
                    block.push(Op::new(alu, vec![Reg((b * ops + i) as u32)], vec![]));
                }
                block
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_scheduling() {
        let mdes = two_alu_machine();
        let batch = blocks(&mdes, 7, 5);
        let outcome = Engine::new(Arc::clone(&mdes)).schedule_batch(&batch, 3);
        assert!(outcome.is_clean());

        let scheduler = ListScheduler::new(&mdes);
        let mut serial_stats = CheckStats::new();
        for (block, got) in batch.iter().zip(&outcome.schedules) {
            let want = scheduler.schedule(block, &mut serial_stats);
            assert_eq!(got.as_ref().unwrap(), &want);
        }
        assert_eq!(outcome.stats, serial_stats);
    }

    #[test]
    fn worker_stats_fold_to_the_batch_total() {
        let mdes = two_alu_machine();
        let batch = blocks(&mdes, 9, 4);
        let outcome = Engine::new(mdes).schedule_batch(&batch, 4);
        let mut folded = CheckStats::new();
        for worker in &outcome.workers {
            folded.merge(&worker.stats);
        }
        assert_eq!(folded, outcome.stats);
        let jobs: u64 = outcome.workers.iter().map(|w| w.load.jobs).sum();
        assert_eq!(jobs as usize, batch.len());
    }

    #[test]
    fn a_panicked_job_leaves_none_at_its_own_index() {
        let mdes = two_alu_machine();
        let mut batch = blocks(&mdes, 7, 3);
        // Job 3 references a class the machine does not have, which
        // panics inside the scheduler mid-batch.
        batch[3] = {
            let mut block = Block::new();
            block.push(Op::new(
                mdes_core::ClassId::from_index(999),
                vec![Reg(0)],
                vec![],
            ));
            block
        };
        let outcome = Engine::new(Arc::clone(&mdes)).schedule_batch(&batch, 2);
        assert!(!outcome.is_clean());
        assert_eq!(outcome.worker_panics(), 1);
        assert_eq!(outcome.completed(), 6);
        assert!(outcome.schedules[3].is_none(), "panicked job's own slot");

        // Every other result sits at its own index (nothing shifted), and
        // the jobs the panicking worker ran *afterwards* on the same
        // reused scratch still match serial scheduling.
        let scheduler = ListScheduler::new(&mdes);
        let mut serial = CheckStats::new();
        for (index, block) in batch.iter().enumerate() {
            if index == 3 {
                continue;
            }
            let want = scheduler.schedule(block, &mut serial);
            assert_eq!(
                outcome.schedules[index].as_ref().unwrap(),
                &want,
                "job {index}"
            );
        }
        // The panicked job's partial stats were discarded from the fold.
        assert_eq!(outcome.stats, serial);
    }

    #[test]
    fn serial_matches_the_batch_and_reuses_its_scratch() {
        let mdes = two_alu_machine();
        let engine = Engine::new(Arc::clone(&mdes));
        let batch = blocks(&mdes, 7, 5);
        let wide = engine.schedule_batch(&batch, 3);

        let mut scratch = WorkerScratch::new();
        for round in 0..2 {
            let caller = std::thread::current().id();
            let serial = engine.schedule_serial(&batch, &mut scratch);
            assert_eq!(std::thread::current().id(), caller);
            assert!(serial.is_clean(), "round {round}");
            assert_eq!(serial.schedules, wide.schedules, "round {round}");
            assert_eq!(serial.total_cycles(), wide.total_cycles());
            assert_eq!(serial.completed(), 7);
            // Stats restart with every call rather than accumulating
            // across calls on the same scratch.
            assert_eq!(scratch.stats(), &wide.stats, "round {round}");
        }
    }

    #[test]
    fn a_panicked_serial_job_leaves_none_and_no_stats() {
        let mdes = two_alu_machine();
        let engine = Engine::new(Arc::clone(&mdes));
        let mut batch = blocks(&mdes, 5, 3);
        let clean = engine.schedule_batch(&batch, 1);
        batch[2] = {
            let mut block = Block::new();
            block.push(Op::new(
                mdes_core::ClassId::from_index(999),
                vec![Reg(0)],
                vec![],
            ));
            block
        };
        let mut scratch = WorkerScratch::new();
        let outcome = engine.schedule_serial(&batch, &mut scratch);
        assert!(!outcome.is_clean());
        assert_eq!(outcome.worker_panics(), 1);
        assert!(outcome.schedules[2].is_none());
        assert_eq!(outcome.completed(), 4);
        let scheduler = ListScheduler::new(&mdes);
        let mut serial = CheckStats::new();
        for index in [0, 1, 3, 4] {
            let want = scheduler.schedule(&batch[index], &mut serial);
            assert_eq!(outcome.schedules[index].as_ref(), Some(&want));
        }
        assert_eq!(scratch.stats(), &serial);
        // The scratch is left as the panic left it; the next call still
        // matches a clean run.
        batch[2] = blocks(&mdes, 5, 3).swap_remove(2);
        let again = engine.schedule_serial(&batch, &mut scratch);
        assert_eq!(again.schedules, clean.schedules);
        assert_eq!(scratch.stats(), &clean.stats);
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        let mdes = two_alu_machine();
        let batch = blocks(&mdes, 2, 3);
        let outcome = Engine::new(mdes).schedule_batch(&batch, 0);
        assert!(outcome.is_clean());
        assert_eq!(outcome.workers.len(), 1);
    }

    #[test]
    fn publish_surfaces_panics_counter_even_when_clean() {
        let mdes = two_alu_machine();
        let batch = blocks(&mdes, 3, 3);
        let outcome = Engine::new(mdes).schedule_batch(&batch, 2);
        let tel = Telemetry::new();
        outcome.publish(&tel, "engine");
        let report = tel.report();
        assert_eq!(report.counter("engine/worker_panics"), Some(0));
        assert_eq!(report.counter("engine/jobs_completed"), Some(3));
        assert!(report.gauge("engine/jobs_per_sec").is_some());
        assert!(report.span("engine/worker0/busy").is_some());
        assert!(report.span("engine/worker1/busy").is_some());
    }
}
