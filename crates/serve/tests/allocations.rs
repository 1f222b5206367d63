//! Allocation gate for the serving worker path.
//!
//! A shard worker answers a work request on its own thread against
//! scheduling scratch it owns for life, so after warm-up a request's
//! allocations are the request's own data — regions, schedules, the
//! reply — never per-request scratch, statistics histograms, or worker
//! threads.  The LMDES validating scan a reload's image goes through
//! allocates nothing at all, accepting or rejecting.  A counting global
//! allocator (no dependencies) tallies this thread's allocations and
//! their largest size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdes_core::{lmdes, CompiledMdes, UsageEncoding};
use mdes_engine::WorkerScratch;
use mdes_guard::{corrupt_image, ImageFault};
use mdes_machines::Machine;
use mdes_serve::server::run_work;
use mdes_serve::{compile_machine, ImageStore, ServeStats, WorkParams};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn bump(size: usize) {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and the
// only extra work is updating const-initialised thread-local cells, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one call made this thread allocate.
#[derive(Debug, PartialEq, Eq)]
struct Tally {
    allocations: u64,
    largest: usize,
}

fn allocations_in<T>(f: impl FnOnce() -> T) -> (Tally, T) {
    let before = ALLOCATIONS.with(Cell::get);
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    let tally = Tally {
        allocations: ALLOCATIONS.with(Cell::get) - before,
        largest: LARGEST.with(Cell::get),
    };
    (tally, out)
}

/// One `CheckStats` histogram is 1025 eight-byte buckets; no request may
/// allocate anything that large.
const LARGE: usize = 8 * 1024;

#[test]
fn a_warm_worker_allocates_the_same_for_any_jobs_hint_and_nothing_large() {
    for machine in Machine::all() {
        let image = ImageStore::new(compile_machine(machine), machine.name(), 1).current();
        let (global, shard) = (ServeStats::default(), ServeStats::default());
        let mut scratch = WorkerScratch::new();
        for verify in [false, true] {
            let mut request = |jobs: usize| {
                let params = WorkParams {
                    regions: 4,
                    mean_ops: 8,
                    seed: 11,
                    jobs,
                };
                allocations_in(|| {
                    run_work(7, params, verify, &image, &mut scratch, &global, &shard)
                })
            };
            // Warm the worker's scratch on the request, at both hints.
            request(1);
            request(16);

            let (one, narrow) = request(1);
            let (sixteen, wide) = request(16);
            assert!(narrow.contains("\"ok\":true"), "{narrow}");
            assert_eq!(narrow, wide, "{machine:?} verify={verify}");
            assert_eq!(one, sixteen, "{machine:?} verify={verify}");
            assert!(
                one.largest < LARGE,
                "{machine:?} verify={verify}: a {} B allocation",
                one.largest
            );
        }
    }
}

#[test]
fn the_gate_sees_the_histograms_a_request_must_not_allocate() {
    // Building a scratch allocates its statistics histograms, which the
    // size bound above would catch if a request built them.
    let (tally, _scratch) = allocations_in(WorkerScratch::new);
    assert!(tally.largest >= LARGE, "{tally:?}");
}

#[test]
fn the_lmdes_scan_allocates_nothing_accepting_or_rejecting() {
    let mut corpus = Vec::new();
    for (_, spec) in mdes_machines::bundled() {
        let image = lmdes::write(&CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
        for fault in ImageFault::fatal() {
            for seed in 0..32 {
                corpus.push(corrupt_image(&image, fault, seed));
            }
        }
        corpus.push(image);
    }
    let (tally, accepted) = allocations_in(|| {
        corpus
            .iter()
            .filter(|bytes| lmdes::scan(bytes).is_ok())
            .count()
    });
    assert_eq!(accepted, 6, "only the six clean images scan");
    assert_eq!(tally.allocations, 0, "{tally:?}");
}
