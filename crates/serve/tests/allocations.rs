//! Allocation and memory gates for the serving worker and connection
//! paths.
//!
//! A shard worker answers a work request on its own thread against
//! scheduling scratch it owns for life — dependence graph, RU map,
//! placement buffers, the schedule, statistics — and streams the
//! request's regions through it one at a time.  So after warm-up a
//! request allocates a fixed handful of buffers (the region generator's
//! class lists, one block sized for the request's largest region, the
//! reply), the same number whatever its region count, and its peak live
//! memory does not grow with its region count: never per-region data,
//! per-request scratch, statistics histograms, or worker threads.  The
//! connection path around it — reading and framing the request, admitting
//! the job, the reply's trip through the writer, the one-slot window's
//! acknowledgement — allocates nothing per request beyond parsing the
//! frame.  The LMDES validating scan a reload's image goes through
//! allocates nothing at all, accepting or rejecting.  The workspace's
//! counting global allocator (`mdes_telemetry::alloc`) tallies each
//! thread's allocations, their largest size and its peak live bytes,
//! and the whole process's allocations.

mod common;

use std::sync::{Mutex, MutexGuard};

use common::{start, TestConn};
use mdes_core::{lmdes, CompiledMdes, UsageEncoding};
use mdes_engine::WorkerScratch;
use mdes_guard::{corrupt_image, ImageFault};
use mdes_machines::Machine;
use mdes_serve::proto::parse_frame;
use mdes_serve::server::run_work;
use mdes_serve::{compile_machine, ImageStore, ServeConfig, ServeStats, WorkParams};
use mdes_telemetry::alloc::{process_allocations, tally, CountingAlloc, Tally};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
                tally(|| run_work(7, params, verify, &image, &mut scratch, &stats))
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

/// A warm worker's `run_work` on `regions` regions of 16 mean ops:
/// what the second of two identical requests allocates.
fn warm_request(
    machine: Machine,
    regions: usize,
    verify: bool,
    scratch: &mut WorkerScratch,
) -> Tally {
    let image = ImageStore::new(compile_machine(machine), machine.name(), 1).current();
    let stats = ServeStats::default();
    let params = WorkParams {
        regions,
        mean_ops: 16,
        seed: 11,
        jobs: 1,
    };
    run_work(7, params, verify, &image, scratch, &stats);
    let (tally, reply) = tally(|| run_work(7, params, verify, &image, scratch, &stats));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    tally
}

/// Both work verbs: `verify` replays each region's reservations into
/// the RU map the worker's scratch keeps, so checking a region allocates
/// nothing either.
#[test]
fn a_warm_request_allocates_the_same_at_any_region_count() {
    let _alone = alone();
    for machine in Machine::all() {
        for verify in [false, true] {
            let mut scratch = WorkerScratch::new();
            let counts: Vec<u64> = [4, 64, 1024]
                .into_iter()
                .map(|regions| warm_request(machine, regions, verify, &mut scratch).allocations)
                .collect();
            assert!(
                counts.iter().all(|&count| count == counts[0]),
                "{machine:?} verify={verify}: allocations at 4, 64 and 1024 regions: {counts:?}"
            );
        }
    }
}

/// How much more a 1024-region request may hold live at its peak than a
/// 16-region one: room for a longer reply line, not for any per-region
/// data.
const PEAK_SLACK: usize = 4 * 1024;

#[test]
fn a_warm_request_peaks_at_the_same_live_bytes_at_any_region_count() {
    let _alone = alone();
    for machine in Machine::all() {
        for verify in [false, true] {
            let mut scratch = WorkerScratch::new();
            let small = warm_request(machine, 16, verify, &mut scratch).peak;
            let large = warm_request(machine, 1024, verify, &mut scratch).peak;
            assert!(
                large < small + PEAK_SLACK,
                "{machine:?} verify={verify}: a 1024-region request peaks at {large} B \
                 live, a 16-region one at {small} B"
            );
        }
    }
}

#[test]
fn the_gate_sees_the_histograms_a_request_must_not_allocate() {
    let _alone = alone();
    // Building a scratch allocates its statistics histograms, which the
    // size bound above would catch if a request built them.
    let (tally, _scratch) = tally(WorkerScratch::new);
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
    let (tally, accepted) = tally(|| {
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
    let (parse, _) = tally(|| parse_frame(line).expect("frame parses"));
    let image = ImageStore::new(compile_machine(Machine::K5), "K5", 1).current();
    let (stats, mut scratch) = (ServeStats::default(), WorkerScratch::new());
    run_work(0, params, false, &image, &mut scratch, &stats);
    let (work, _) = tally(|| run_work(0, params, false, &image, &mut scratch, &stats));
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
            let before = process_allocations();
            let (client, ()) = tally(|| round_trips(WINDOW));
            let daemon = process_allocations() - before - client.allocations;
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
