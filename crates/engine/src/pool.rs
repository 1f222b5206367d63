//! The generic worker pool: scoped threads draining a shared job slice
//! through chunked hand-off with work-stealing.
//!
//! The queue is the job slice itself plus one [`AtomicUsize`] chunk
//! dispenser and one packed [`AtomicU64`] range per worker — there is no
//! channel, no allocation per job, and no lock on the hot path. Each
//! worker claims a contiguous chunk of job indices with a single
//! `fetch_add` (the chunk amortizes the synchronized claim across many
//! jobs), keeps the chunk in its own range word, and pops indices off the
//! front locally. When the dispenser runs dry an idle worker scans the
//! other workers' range words and steals the back half of a victim's
//! remaining range with one CAS, so a skewed batch (one giant job among
//! many tiny ones) cannot strand the tail of a chunk behind a long job.
//!
//! Determinism does not depend on any of this: results are merged into
//! index-aligned slots after all workers join, so output order never
//! depends on thread interleaving, chunk size, or who stole what.
//!
//! A one-thread batch skips all of it: `run_serial` drains the slice in
//! index order on the calling thread, with no scope, no spawn and no
//! queue, and [`run_batch_stateful`] takes that path whenever `threads`
//! is one. `Engine::schedule_serial` calls `run_serial` directly with
//! caller-owned state that outlives the batch (a daemon worker's).
//!
//! The range word packs `start << 32 | end` (batches are capped at
//! `u32::MAX` jobs). Pops advance `start` by CAS; steals move `end` down
//! by CAS; the owner installs a fresh range only while its word is empty.
//! The ABA problem cannot arise: chunk starts come off a monotonically
//! increasing dispenser and a popped index never re-enters any range, so
//! a stale `(start, end)` bit pattern can never reappear in a slot.
//!
//! A panic inside one job is caught ([`std::panic::catch_unwind`]) and
//! recorded in the claiming worker's [`WorkerLoad::panics`]; the worker
//! moves on to the next job and the batch completes with a `None` in the
//! panicked job's slot. Nothing here holds a `Mutex`, so a panic cannot
//! poison shared state. Per-worker state handed out by
//! [`run_batch_stateful`] is *not* rebuilt after a panic — see its
//! contract below.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Per-worker load measurements.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Worker id, `0..threads`.
    pub worker: usize,
    /// Jobs completed by this worker.
    pub jobs: u64,
    /// Jobs claimed by this worker that panicked.
    pub panics: u64,
    /// Successful half-chunk steals performed by this worker.
    pub steals: u64,
    /// Nanoseconds spent claiming work from the queue.
    pub queue_wait_nanos: u128,
    /// Nanoseconds spent executing jobs.
    pub busy_nanos: u128,
}

/// The raw result of [`run_batch`] / [`run_batch_stateful`].
#[derive(Debug)]
pub struct PoolOutcome<R> {
    /// Job results, index-aligned with the input slice; `None` marks a
    /// panicked job.
    pub results: Vec<Option<R>>,
    /// Which worker executed each job (`None` for panicked jobs).
    pub assigned: Vec<Option<usize>>,
    /// Per-worker load, indexed by worker id.
    pub workers: Vec<WorkerLoad>,
    /// Wall-clock nanoseconds from first spawn to last join.
    pub elapsed_nanos: u128,
}

/// Chunk size for a batch: large enough that one dispenser `fetch_add`
/// amortizes over many jobs, small enough that every worker sees several
/// chunks (load balance) and a steal still has something to take.
///
/// `jobs / (threads * 8)` aims for ~8 chunks per worker, clamped to
/// `[1, 64]` so tiny batches still hand out work and huge batches do not
/// concentrate too much in one claim.
pub fn chunk_size(jobs: usize, threads: usize) -> usize {
    (jobs / (threads.max(1) * 8)).clamp(1, 64)
}

#[inline]
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// The shared queue state: a chunk dispenser plus one packed range word
/// per worker.
struct StealQueue {
    cursor: AtomicUsize,
    /// `start << 32 | end` per worker; `start == end` means empty.
    ranges: Vec<AtomicU64>,
    len: usize,
    chunk: usize,
    /// Jobs finished (completed or panicked); workers exit only once this
    /// reaches `len`, so late-appearing steal targets are never missed.
    done: AtomicUsize,
}

impl StealQueue {
    fn new(len: usize, threads: usize) -> StealQueue {
        assert!(len <= u32::MAX as usize, "batch too large for range words");
        StealQueue {
            cursor: AtomicUsize::new(0),
            ranges: (0..threads).map(|_| AtomicU64::new(pack(0, 0))).collect(),
            len,
            chunk: chunk_size(len, threads),
            done: AtomicUsize::new(0),
        }
    }

    /// Pops the front index of `worker`'s own range, if any.
    fn pop_own(&self, worker: usize) -> Option<usize> {
        let slot = &self.ranges[worker];
        let mut current = slot.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(current);
            if start >= end {
                return None;
            }
            match slot.compare_exchange_weak(
                current,
                pack(start + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(start as usize),
                Err(seen) => current = seen,
            }
        }
    }

    /// Claims the next chunk off the dispenser, installs its tail into
    /// `worker`'s (empty) range word, and returns the chunk's first index.
    fn claim_chunk(&self, worker: usize) -> Option<usize> {
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        let end = (start + self.chunk).min(self.len) as u32;
        let start = start as u32;
        if start + 1 < end {
            // Only the owner stores fresh ranges, and only while the word
            // is empty; concurrent steal CASes on the stale empty value
            // simply fail and reload.
            self.ranges[worker].store(pack(start + 1, end), Ordering::Release);
        }
        Some(start as usize)
    }

    /// Scans the other workers' ranges and steals the back half of the
    /// first non-empty one found: the victim keeps `[start, mid)`, the
    /// thief takes `[mid, end)`, runs `mid` immediately and parks the rest
    /// in its own range word. A single-job range is taken whole.
    fn steal(&self, worker: usize, load: &mut WorkerLoad) -> Option<usize> {
        let threads = self.ranges.len();
        for offset in 1..threads {
            let victim = (worker + offset) % threads;
            let slot = &self.ranges[victim];
            let mut current = slot.load(Ordering::Acquire);
            loop {
                let (start, end) = unpack(current);
                let remaining = end.saturating_sub(start);
                if remaining == 0 {
                    break; // next victim
                }
                // A single-job range is popped off the front whole (the
                // back-half split would be empty); otherwise the victim
                // keeps the (larger) front half so its next local pops
                // stay cache-warm and sequential.
                let (replacement, taken) = if remaining == 1 {
                    (pack(start + 1, end), start)
                } else {
                    let mid = start + remaining.div_ceil(2);
                    (pack(start, mid), mid)
                };
                match slot.compare_exchange_weak(
                    current,
                    replacement,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        load.steals += 1;
                        if remaining > 1 && taken + 1 < end {
                            self.ranges[worker].store(pack(taken + 1, end), Ordering::Release);
                        }
                        return Some(taken as usize);
                    }
                    Err(seen) => current = seen,
                }
            }
        }
        None
    }

    /// Claims the next job for `worker`: own range first, then a fresh
    /// chunk, then stealing. Returns `None` only when every job in the
    /// batch has finished, so a worker never exits while unexecuted jobs
    /// are parked in another worker's range.
    fn next_job(&self, worker: usize, load: &mut WorkerLoad) -> Option<usize> {
        loop {
            if let Some(index) = self.pop_own(worker) {
                return Some(index);
            }
            if let Some(index) = self.claim_chunk(worker) {
                return Some(index);
            }
            if let Some(index) = self.steal(worker, load) {
                return Some(index);
            }
            if self.done.load(Ordering::Acquire) >= self.len {
                return None;
            }
            // Work may still appear (a chunk mid-install, a long job whose
            // owner holds unstolen tail jobs); yield rather than spin so a
            // busy sibling on the same core gets the cycles.
            std::thread::yield_now();
        }
    }
}

/// Runs `work` over every item of `items` on `threads` workers (clamped
/// to at least one) and returns index-aligned results.
///
/// `work` receives `(worker_id, job_index, item)`. It must not assume
/// anything about which worker runs which job: assignment is chunked
/// first-come first-served with stealing. Results are merged by job
/// index, so they are deterministic whenever `work` itself is a pure
/// function of `(job_index, item)`.
pub fn run_batch<T, R, F>(items: &[T], threads: usize, work: F) -> PoolOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    let (outcome, _states) = run_batch_stateful(
        items,
        threads,
        |_| (),
        |(), worker, index, item| work(worker, index, item),
    );
    outcome
}

/// Like [`run_batch`], but each worker owns a long-lived state value
/// built once by `init(worker_id)` and borrowed mutably by every job the
/// worker executes. The final per-worker states are returned alongside
/// the outcome, indexed by worker id.
///
/// This is how the engine keeps one reusable scheduler scratch (RU map,
/// placement buffers, stats accumulator) per worker instead of
/// allocating per job: `work` resets the scratch on entry and the state
/// survives across every job the worker claims or steals.
///
/// With one thread the batch runs inline on the caller: no scope is
/// opened and no thread is spawned.
///
/// # Panic contract
///
/// A panicking job leaves the worker's state exactly as the panic left
/// it — the pool does **not** rebuild state, because doing so would also
/// discard anything the worker accumulated across earlier jobs (stats,
/// warmed buffers). `work` must therefore treat the state as scratch of
/// unknown content and reset whatever it reads *on entry*, never relying
/// on the previous job having completed. Accumulations should be folded
/// in only after the fallible part of the job returns.
pub fn run_batch_stateful<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    work: F,
) -> (PoolOutcome<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, usize, &T) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        let mut state = init(0);
        let outcome = run_serial(items, &mut state, |state, index, item| {
            work(state, 0, index, item)
        });
        return (outcome, vec![state]);
    }
    let queue = StealQueue::new(items.len(), threads);
    let started = Instant::now();

    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut assigned: Vec<Option<usize>> = vec![None; items.len()];
    let mut workers: Vec<WorkerLoad> = Vec::with_capacity(threads);
    let mut states: Vec<(usize, S)> = Vec::with_capacity(threads);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let queue = &queue;
                let init = &init;
                let work = &work;
                scope.spawn(move || {
                    let mut load = WorkerLoad {
                        worker,
                        ..WorkerLoad::default()
                    };
                    let mut state = init(worker);
                    let mut produced: Vec<(usize, R)> =
                        Vec::with_capacity(items.len() / threads + 1);
                    loop {
                        let wait_started = Instant::now();
                        let claimed = queue.next_job(worker, &mut load);
                        load.queue_wait_nanos += wait_started.elapsed().as_nanos();
                        let Some(index) = claimed else { break };
                        let busy_started = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            work(&mut state, worker, index, &items[index])
                        }));
                        load.busy_nanos += busy_started.elapsed().as_nanos();
                        match result {
                            Ok(value) => {
                                load.jobs += 1;
                                produced.push((index, value));
                            }
                            Err(_) => load.panics += 1,
                        }
                        queue.done.fetch_add(1, Ordering::AcqRel);
                    }
                    (load, produced, state)
                })
            })
            .collect();
        for handle in handles {
            // Per-job panics are caught inside the worker, so join can
            // only fail if the pool bookkeeping itself panicked; there is
            // no state to salvage in that case.
            let (load, produced, state) = handle.join().expect("pool worker bookkeeping panicked");
            for (index, value) in produced {
                results[index] = Some(value);
                assigned[index] = Some(load.worker);
            }
            states.push((load.worker, state));
            workers.push(load);
        }
    });
    workers.sort_by_key(|load| load.worker);
    states.sort_by_key(|(worker, _)| *worker);

    (
        PoolOutcome {
            results,
            assigned,
            workers,
            elapsed_nanos: started.elapsed().as_nanos(),
        },
        states.into_iter().map(|(_, state)| state).collect(),
    )
}

/// Runs `work` over every item of `items` in index order on the calling
/// thread, as worker 0, against caller-owned `state`.
///
/// This is the one-thread form of [`run_batch_stateful`], which delegates
/// here: no thread is spawned and nothing is shared, so a caller that
/// already runs on a long-lived thread keeps its state across batches
/// (reset on entry by `work`, never reallocated). `work` receives
/// `(state, job_index, item)`. The contract is the pool's: each job runs
/// under [`catch_unwind`], a panicking job leaves `None` at its own index
/// and bumps the worker's `panics`, and the state is left as the panic
/// left it.
pub(crate) fn run_serial<T, R, S, F>(items: &[T], state: &mut S, work: F) -> PoolOutcome<R>
where
    F: Fn(&mut S, usize, &T) -> R,
{
    let started = Instant::now();
    let mut load = WorkerLoad::default();
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    let mut assigned: Vec<Option<usize>> = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let busy_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| work(state, index, item)));
        load.busy_nanos += busy_started.elapsed().as_nanos();
        match result {
            Ok(value) => {
                load.jobs += 1;
                results.push(Some(value));
                assigned.push(Some(0));
            }
            Err(_) => {
                load.panics += 1;
                results.push(None);
                assigned.push(None);
            }
        }
    }
    PoolOutcome {
        results,
        assigned,
        workers: vec![load],
        elapsed_nanos: started.elapsed().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_are_index_aligned_regardless_of_threads() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7] {
            let outcome = run_batch(&items, threads, |_, index, item| item * 2 + index as u64);
            let values: Vec<u64> = outcome.results.into_iter().map(Option::unwrap).collect();
            let expected: Vec<u64> = items.iter().map(|i| i * 3).collect();
            assert_eq!(values, expected, "{threads} threads");
            assert_eq!(outcome.workers.len(), threads);
            let done: u64 = outcome.workers.iter().map(|w| w.jobs).sum();
            assert_eq!(done, 100);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        run_batch(&items, 8, |_, index, _| {
            hits[index].fetch_add(1, Ordering::Relaxed);
        });
        for (index, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "job {index}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once_across_chunk_sizes() {
        // Batch sizes straddling chunk boundaries: smaller than one chunk
        // per worker, exactly chunked, and with a ragged final chunk.
        for jobs in [1usize, 3, 8, 65, 100, 513] {
            for threads in [1usize, 2, 5, 16] {
                let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..jobs).collect();
                run_batch(&items, threads, |_, index, _| {
                    hits[index].fetch_add(1, Ordering::Relaxed);
                });
                for (index, hit) in hits.iter().enumerate() {
                    assert_eq!(
                        hit.load(Ordering::Relaxed),
                        1,
                        "job {index} of {jobs} on {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panicking_job_is_surfaced_and_the_rest_complete() {
        let items: Vec<usize> = (0..20).collect();
        let outcome = run_batch(&items, 3, |_, index, item| {
            assert!(index != 11, "deliberate test panic");
            *item
        });
        assert!(outcome.results[11].is_none());
        assert!(outcome.assigned[11].is_none());
        let completed = outcome.results.iter().flatten().count();
        assert_eq!(completed, 19);
        let panics: u64 = outcome.workers.iter().map(|w| w.panics).sum();
        assert_eq!(panics, 1);
    }

    #[test]
    fn one_thread_runs_every_job_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..40).collect();
        let outcome = run_batch(&items, 1, |worker, _, item| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(worker, 0);
            *item
        });
        assert_eq!(outcome.results.iter().flatten().count(), 40);
        assert_eq!(outcome.workers.len(), 1);
        assert_eq!(outcome.workers[0].jobs, 40);
        assert_eq!(outcome.workers[0].steals, 0);
    }

    #[test]
    fn a_panicking_job_on_one_thread_leaves_none_at_its_own_index() {
        let items: Vec<usize> = (0..20).collect();
        let outcome = run_batch(&items, 1, |_, index, item| {
            assert!(index != 11, "deliberate test panic");
            *item
        });
        for (index, result) in outcome.results.iter().enumerate() {
            if index == 11 {
                assert!(result.is_none());
                assert!(outcome.assigned[index].is_none());
            } else {
                assert_eq!(*result, Some(index), "job {index}");
                assert_eq!(outcome.assigned[index], Some(0));
            }
        }
        assert_eq!(outcome.workers[0].panics, 1);
        assert_eq!(outcome.workers[0].jobs, 19);
    }

    #[test]
    fn one_thread_still_returns_worker_state() {
        let items: Vec<usize> = (0..50).collect();
        let (outcome, states) = run_batch_stateful(
            &items,
            1,
            |worker| (worker, 0u64),
            |state, worker, _, item| {
                assert_eq!(worker, 0);
                state.1 += *item as u64;
                *item
            },
        );
        assert_eq!(states, vec![(0, (0..50).sum::<u64>())]);
        assert_eq!(outcome.results.iter().flatten().count(), 50);
    }

    #[test]
    fn serial_state_is_the_callers_and_outlives_the_batch() {
        let mut seen = Vec::new();
        for batch in [[1u32, 2], [3, 4]] {
            let outcome = run_serial(&batch, &mut seen, |seen, index, item| {
                seen.push(*item);
                index
            });
            assert_eq!(outcome.results, vec![Some(0), Some(1)]);
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_batches_are_fine() {
        let outcome = run_batch(&[] as &[u8], 4, |_, _, _| ());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.workers.len(), 4);
    }

    #[test]
    fn chunk_size_is_bounded_and_nonzero() {
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(7, 4), 1);
        assert_eq!(chunk_size(64, 4), 2);
        assert_eq!(chunk_size(1 << 20, 4), 64);
        assert_eq!(chunk_size(100, 0), 12); // zero threads clamps to one
    }

    #[test]
    fn worker_state_persists_across_jobs_and_is_returned() {
        let items: Vec<usize> = (0..50).collect();
        let (outcome, states) = run_batch_stateful(
            &items,
            4,
            |worker| (worker, 0u64),
            |state, _, _, item| {
                state.1 += *item as u64;
                *item
            },
        );
        assert_eq!(states.len(), 4);
        // States come back indexed by worker id.
        for (slot, (worker, _)) in states.iter().enumerate() {
            assert_eq!(slot, *worker);
        }
        // Every job folded its item into exactly one worker's accumulator.
        let total: u64 = states.iter().map(|(_, sum)| sum).sum();
        assert_eq!(total, (0..50).sum::<u64>());
        assert_eq!(outcome.results.iter().flatten().count(), 50);
    }

    #[test]
    fn a_blocked_chunk_is_stolen_by_an_idle_worker() {
        // 1024 jobs on 2 threads gives 64-job chunks, so whichever worker
        // claims the first chunk runs job 0 — which blocks until job 5
        // (parked in that same chunk) has run. Only the other worker can
        // run job 5, and only by stealing it out of the blocked worker's
        // range, so the batch completing proves the steal path works.
        let released = AtomicBool::new(false);
        let items: Vec<usize> = (0..1024).collect();
        let (outcome, _) = run_batch_stateful(
            &items,
            2,
            |_| (),
            |(), _, index, _| {
                if index == 0 {
                    let deadline = Instant::now() + std::time::Duration::from_secs(30);
                    while !released.load(Ordering::Acquire) {
                        assert!(Instant::now() < deadline, "job 5 was never stolen");
                        std::thread::yield_now();
                    }
                } else if index == 5 {
                    released.store(true, Ordering::Release);
                }
            },
        );
        assert_eq!(outcome.results.iter().flatten().count(), 1024);
        let steals: u64 = outcome.workers.iter().map(|w| w.steals).sum();
        assert!(steals >= 1, "expected at least one steal, got {steals}");
    }
}
