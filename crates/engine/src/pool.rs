//! The generic worker pool: scoped threads draining a shared job slice
//! through one atomic cursor.
//!
//! The queue is the job slice itself plus one [`AtomicUsize`] cursor. A
//! worker claims its next job with a single `fetch_add(1)` and runs it:
//! there is no channel, no allocation per job, no lock and no retry loop.
//! A job is claimed only by a worker that is free to run it, so no
//! unclaimed job is ever parked behind a running one — a long job holds
//! up only itself while the other workers keep drawing from the cursor.
//!
//! Determinism does not depend on any of this: results are merged into
//! index-aligned slots after all workers join, so output order never
//! depends on thread interleaving or on which worker claimed which job.
//!
//! A one-thread batch opens no scope and spawns nothing:
//! [`run_batch_stateful`] then drains the slice in index order on the
//! calling thread.
//!
//! Spawned workers and the calling thread run the same claim–run–record
//! loop.
//! A panic inside one job is caught ([`std::panic::catch_unwind`]) and
//! recorded in the claiming worker's [`WorkerLoad::panics`]; the worker
//! moves on to the next job and the batch completes with a `None` in the
//! panicked job's slot. Nothing here holds a `Mutex`, so a panic cannot
//! poison shared state. Per-worker state handed out by
//! [`run_batch_stateful`] is *not* rebuilt after a panic — see its
//! contract below.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Nanoseconds spent executing jobs.
    pub busy_nanos: u128,
}

/// The raw result of [`run_batch_stateful`].
#[derive(Debug)]
pub struct PoolOutcome<R> {
    /// Job results, index-aligned with the input slice; `None` marks a
    /// panicked job.
    pub results: Vec<Option<R>>,
    /// Per-worker load, indexed by worker id.
    pub workers: Vec<WorkerLoad>,
    /// Wall-clock nanoseconds from first spawn to last join.
    pub elapsed_nanos: u128,
}

/// The claim–run–record loop every worker runs, spawned or inline: claims
/// the next job index off `cursor` until the slice is exhausted, runs the
/// job under [`catch_unwind`], and hands each completed result to
/// `record` with its index.
fn drain<T, R, S>(
    items: &[T],
    cursor: &AtomicUsize,
    worker: usize,
    state: &mut S,
    work: impl Fn(&mut S, usize, &T) -> R,
    mut record: impl FnMut(usize, R),
) -> WorkerLoad {
    let mut load = WorkerLoad {
        worker,
        ..WorkerLoad::default()
    };
    loop {
        // Relaxed is enough: the read-modify-write alone makes every
        // claimed index distinct, the items were published to the worker
        // when it was spawned, and results travel back through its join.
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(index) else {
            return load;
        };
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| work(state, index, item)));
        load.busy_nanos += started.elapsed().as_nanos();
        match result {
            Ok(value) => {
                load.jobs += 1;
                record(index, value);
            }
            Err(_) => load.panics += 1,
        }
    }
}

/// Runs `work` over every item of `items` on `threads` workers (clamped
/// to at least one) and returns index-aligned results. Each worker owns a
/// long-lived state value built once by `init(worker_id)` and borrowed
/// mutably by every job the worker executes. The final per-worker states
/// are returned alongside the outcome, indexed by worker id.
///
/// `work` receives `(state, worker_id, job_index, item)`. It must not
/// assume anything about which worker runs which job: each free worker
/// claims the next unclaimed index. Results are merged by job index, so
/// they are deterministic whenever `work` itself is a pure function of
/// `(job_index, item)`.
///
/// This is how the engine keeps one reusable scheduler scratch (RU map,
/// placement buffers, stats accumulator) per worker instead of
/// allocating per job: `work` resets the scratch on entry and the state
/// survives across every job the worker claims.
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
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    if threads == 1 {
        let mut state = init(0);
        let load = drain(
            items,
            &cursor,
            0,
            &mut state,
            |state, index, item| work(state, 0, index, item),
            |index, value| results[index] = Some(value),
        );
        let outcome = PoolOutcome {
            results,
            workers: vec![load],
            elapsed_nanos: started.elapsed().as_nanos(),
        };
        return (outcome, vec![state]);
    }

    let mut workers: Vec<WorkerLoad> = Vec::with_capacity(threads);
    let mut states: Vec<S> = Vec::with_capacity(threads);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (cursor, init, work) = (&cursor, &init, &work);
                scope.spawn(move || {
                    let mut state = init(worker);
                    let mut produced: Vec<(usize, R)> =
                        Vec::with_capacity(items.len() / threads + 1);
                    let load = drain(
                        items,
                        cursor,
                        worker,
                        &mut state,
                        |state, index, item| work(state, worker, index, item),
                        |index, value| produced.push((index, value)),
                    );
                    (load, produced, state)
                })
            })
            .collect();
        // Joined in spawn order, so `workers` and `states` come out
        // indexed by worker id.
        for handle in handles {
            // Per-job panics are caught inside the worker, so join can
            // only fail if the pool bookkeeping itself panicked; there is
            // no state to salvage in that case.
            let (load, produced, state) = handle.join().expect("pool worker bookkeeping panicked");
            for (index, value) in produced {
                results[index] = Some(value);
            }
            workers.push(load);
            states.push(state);
        }
    });

    let outcome = PoolOutcome {
        results,
        workers,
        elapsed_nanos: started.elapsed().as_nanos(),
    };
    (outcome, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A stateless batch: `work(worker_id, job_index, item)`.
    fn run<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        work: impl Fn(usize, usize, &T) -> R + Sync,
    ) -> PoolOutcome<R> {
        let (outcome, _) = run_batch_stateful(
            items,
            threads,
            |_| (),
            |(), worker, index, item| work(worker, index, item),
        );
        outcome
    }

    #[test]
    fn results_are_index_aligned_regardless_of_threads() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7] {
            let outcome = run(&items, threads, |_, index, item| item * 2 + index as u64);
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
        run(&items, 8, |_, index, _| {
            hits[index].fetch_add(1, Ordering::Relaxed);
        });
        for (index, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "job {index}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once_across_batch_and_pool_sizes() {
        // Batches smaller than the pool, equal to it, and many times
        // larger, so workers run dry both before and after claiming.
        for jobs in [1usize, 3, 8, 65, 100, 513] {
            for threads in [1usize, 2, 5, 16] {
                let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..jobs).collect();
                run(&items, threads, |_, index, _| {
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
        let outcome = run(&items, 3, |_, index, item| {
            assert!(index != 11, "deliberate test panic");
            *item
        });
        assert!(outcome.results[11].is_none());
        let completed = outcome.results.iter().flatten().count();
        assert_eq!(completed, 19);
        let panics: u64 = outcome.workers.iter().map(|w| w.panics).sum();
        assert_eq!(panics, 1);
    }

    #[test]
    fn one_thread_runs_every_job_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..40).collect();
        let outcome = run(&items, 1, |worker, _, item| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(worker, 0);
            *item
        });
        assert_eq!(outcome.results.iter().flatten().count(), 40);
        assert_eq!(outcome.workers.len(), 1);
        assert_eq!(outcome.workers[0].jobs, 40);
    }

    #[test]
    fn a_panicking_job_on_one_thread_leaves_none_at_its_own_index() {
        let items: Vec<usize> = (0..20).collect();
        let outcome = run(&items, 1, |_, index, item| {
            assert!(index != 11, "deliberate test panic");
            *item
        });
        for (index, result) in outcome.results.iter().enumerate() {
            if index == 11 {
                assert!(result.is_none());
            } else {
                assert_eq!(*result, Some(index), "job {index}");
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
    fn empty_batches_are_fine() {
        let outcome = run(&[] as &[u8], 4, |_, _, _| ());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.workers.len(), 4);
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
    fn a_blocked_job_never_strands_a_later_one() {
        // Whichever worker claims job 0 blocks in it until job 5 has run,
        // so only the other worker can run job 5. The batch completing
        // proves that no unclaimed job waits behind a running one.
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
                        assert!(Instant::now() < deadline, "job 5 never ran");
                        std::thread::yield_now();
                    }
                } else if index == 5 {
                    released.store(true, Ordering::Release);
                }
            },
        );
        assert_eq!(outcome.results.iter().flatten().count(), 1024);
    }
}
