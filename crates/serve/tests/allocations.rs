//! Allocation gates for the serving worker and connection paths.
//!
//! A shard worker answers a work request on its own thread against
//! scheduling scratch it owns for life, so after warm-up a request's
//! allocations are the request's own data — regions, schedules, the
//! reply — never per-request scratch, statistics histograms, or worker
//! threads.  The connection path around it — reading and framing the
//! request, admitting the job, the reply's trip through the writer, the
//! one-slot window's acknowledgement — allocates nothing per request
//! beyond parsing the frame.  The LMDES validating scan a reload's image
//! goes through allocates nothing at all, accepting or rejecting.  A
//! counting global allocator (no dependencies) tallies each thread's
//! allocations and their largest size, and the whole process's
//! allocations.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use common::{start, TestConn};
use mdes_core::{lmdes, CompiledMdes, UsageEncoding};
use mdes_engine::WorkerScratch;
use mdes_guard::{corrupt_image, ImageFault};
use mdes_machines::Machine;
use mdes_serve::proto::parse_frame;
use mdes_serve::server::run_work;
use mdes_serve::{compile_machine, ImageStore, ServeConfig, ServeStats, WorkParams};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Allocations by every thread of this process.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn bump(size: usize) {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and the
// only extra work is updating const-initialised thread-local cells and a
// static atomic, which neither allocates nor unwinds.
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

/// Every test here holds this lock: the harness runs a file's tests on
/// parallel threads, and the connection-path gate counts the whole
/// process, so nothing else may allocate while it measures.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn a_warm_worker_allocates_the_same_for_any_jobs_hint_and_nothing_large() {
    let _alone = alone();
    for machine in Machine::all() {
        let image = ImageStore::new(compile_machine(machine), machine.name(), 1).current();
        let stats = ServeStats::default();
        let mut scratch = WorkerScratch::new();
        for verify in [false, true] {
            let mut request = |jobs: usize| {
                let params = WorkParams {
                    regions: 4,
                    mean_ops: 8,
                    seed: 11,
                    jobs,
                };
                allocations_in(|| run_work(7, params, verify, &image, &mut scratch, &stats))
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
    let _alone = alone();
    // Building a scratch allocates its statistics histograms, which the
    // size bound above would catch if a request built them.
    let (tally, _scratch) = allocations_in(WorkerScratch::new);
    assert!(tally.largest >= LARGE, "{tally:?}");
}

#[test]
fn the_lmdes_scan_allocates_nothing_accepting_or_rejecting() {
    let _alone = alone();
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

/// Round trips per measured window: twice the 31 lines one block of the
/// writer's channel holds, so each window pays exactly two blocks.
const WINDOW: u64 = 62;

#[test]
fn an_idless_round_trip_allocates_nothing_on_the_connection_path() {
    let _alone = alone();
    let params = WorkParams {
        regions: 4,
        mean_ops: 8,
        seed: 11,
        jobs: 1,
    };
    let line = "{\"verb\": \"schedule\", \"regions\": 4, \"mean_ops\": 8, \"seed\": 11}";

    // What the request itself allocates, counted on this thread: its
    // frame's parse, and the worker's `run_work` on warm scratch.
    let (parse, _) = allocations_in(|| parse_frame(line).expect("frame parses"));
    let image = ImageStore::new(compile_machine(Machine::K5), "K5", 1).current();
    let (stats, mut scratch) = (ServeStats::default(), WorkerScratch::new());
    run_work(0, params, false, &image, &mut scratch, &stats);
    let (work, _) = allocations_in(|| run_work(0, params, false, &image, &mut scratch, &stats));
    let own = parse.allocations + work.allocations;

    // One worker, so every request meets the same warm scratch.
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "alloc", config);
    let mut conn = TestConn::open(&addr);
    let mut round_trips = |n: u64| {
        for _ in 0..n {
            conn.send_line(line);
            let reply = conn.read_reply().expect("reply");
            assert!(reply.ok && reply.id == 0, "{:?}", reply.body);
        }
    };
    round_trips(WINDOW);

    // The daemon's share of a window is the process's count less this
    // client thread's.  Noise only ever adds allocations (the harness
    // reporting a test that finished as this one started), so the least
    // of three windows is the path's own count.
    let extra = (0..3)
        .map(|_| {
            let before = PROCESS_ALLOCATIONS.load(Ordering::SeqCst);
            let (client, ()) = allocations_in(|| round_trips(WINDOW));
            let daemon = PROCESS_ALLOCATIONS.load(Ordering::SeqCst) - before - client.allocations;
            assert!(
                daemon >= WINDOW * own,
                "the daemon made {daemon} allocations in {WINDOW} round trips, \
                 fewer than the {own} per request its parse and run_work make"
            );
            daemon - WINDOW * own
        })
        .min()
        .expect("three windows");
    assert!(
        extra < WINDOW,
        "the connection path made {extra} allocations in {WINDOW} id-less round \
         trips beyond each request's parse and run_work ({own}); only the \
         writer channel's blocks, one per 31 lines, may remain"
    );

    handle.shutdown();
    handle.join();
}
