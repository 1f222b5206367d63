//! Backpressure: bounded admission, instant shedding with a retry hint,
//! deadline cancellation of queued work, and a bounded reply writer.

mod common;

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::Duration;

use common::{schedule_line, start, wait_for_stats, TestConn};
use mdes_machines::Machine;
use mdes_serve::{BindAddr, ServeConfig, WorkParams};
use mdes_telemetry::json::Json;

/// A request heavy enough to occupy the single worker for a few
/// seconds, so queue state is observable while it runs.
fn blocker_params() -> WorkParams {
    WorkParams {
        regions: 4096,
        mean_ops: 64,
        seed: 0xB10C,
        jobs: 1,
    }
}

fn stat(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn full_queue_sheds_with_a_retry_hint() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "shed", config);

    // A occupies the lone worker.
    let mut a = TestConn::open(&addr);
    a.send_line(&schedule_line(1, blocker_params(), None));
    wait_for_stats(&addr, |r| {
        stat(r, "in_flight") == 1 && stat(r, "queue_depth") == 0
    });

    // B fills the one queue slot.
    let mut b = TestConn::open(&addr);
    b.send_line(&schedule_line(2, blocker_params(), None));
    wait_for_stats(&addr, |r| stat(r, "queue_depth") == 1);

    // C must be shed instantly, not queued or blocked.
    let mut c = TestConn::open(&addr);
    let reply = c.round_trip(&schedule_line(
        3,
        WorkParams {
            regions: 2,
            mean_ops: 4,
            seed: 7,
            jobs: 1,
        },
        None,
    ));
    assert!(!reply.ok);
    assert_eq!(reply.error_num(), Some(6));
    assert!(reply.retry_after_ms().unwrap() > 0);

    // Shedding C never disturbed the admitted requests.
    assert!(a.read_reply().unwrap().ok);
    assert!(b.read_reply().unwrap().ok);
    let reply = c.round_trip("{\"id\": 4, \"verb\": \"stats\"}");
    assert_eq!(reply.result_u64("shed"), Some(1));
    assert_eq!(reply.result_u64("answered"), Some(2));

    handle.shutdown();
    handle.join();
}

#[test]
fn expired_deadlines_cancel_queued_jobs_without_running_them() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "deadline", config);

    let mut a = TestConn::open(&addr);
    a.send_line(&schedule_line(1, blocker_params(), None));
    wait_for_stats(&addr, |r| stat(r, "in_flight") == 1);

    // B's deadline (1ms) expires long before the blocker finishes, so
    // the worker cancels it at pop time.
    let mut b = TestConn::open(&addr);
    let params = WorkParams {
        regions: 2,
        mean_ops: 4,
        seed: 9,
        jobs: 1,
    };
    let reply = b.round_trip(&schedule_line(2, params, Some(1)));
    assert!(!reply.ok);
    assert_eq!(reply.error_num(), Some(5));

    // Without a deadline the same request succeeds once the worker
    // frees up.
    let reply = b.round_trip(&schedule_line(3, params, None));
    assert!(reply.ok, "{:?}", reply.body);

    assert!(a.read_reply().unwrap().ok);
    let reply = b.round_trip("{\"id\": 4, \"verb\": \"stats\"}");
    assert_eq!(reply.result_u64("deadline_exceeded"), Some(1));

    handle.shutdown();
    handle.join();
}

#[test]
fn generous_deadlines_do_not_reject_fast_requests() {
    let config = ServeConfig {
        default_deadline_ms: Some(10_000),
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "okdeadline", config);
    let mut conn = TestConn::open(&addr);
    for id in 0..8u64 {
        let params = WorkParams {
            regions: 2,
            mean_ops: 4,
            seed: id,
            jobs: 1,
        };
        let reply = conn.round_trip(&schedule_line(id, params, None));
        assert!(reply.ok, "{:?}", reply.body);
    }
    let reply = conn.round_trip("{\"id\": 99, \"verb\": \"stats\"}");
    assert_eq!(reply.result_u64("deadline_exceeded"), Some(0));
    handle.shutdown();
    handle.join();
}

#[test]
fn a_client_that_never_reads_is_dropped_and_join_returns() {
    let config = ServeConfig {
        read_timeout_ms: 200,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "stall", config);
    let BindAddr::Unix(path) = &addr else {
        unreachable!("test daemons listen on unix sockets");
    };

    // Id-less and tagged frames whose replies fill both socket buffers
    // many times over, and never a read.  Once the daemon stops reading
    // (an id-less reply it cannot write) the writes block until it drops
    // the connection; the client's own write timeout only keeps a broken
    // daemon from hanging the test here.
    let mut client = UnixStream::connect(path).expect("connect");
    client
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for id in 1..=2000u64 {
        let frames = format!("{{\"verb\": \"query\"}}\n{{\"id\": {id}, \"verb\": \"query\"}}\n");
        if client.write_all(frames.as_bytes()).is_err() {
            break;
        }
    }

    // `join` must return although the client still holds the socket open
    // and unread.
    handle.shutdown();
    let (joined, stats) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        let _ = joined.send(handle.join());
    });
    let stats = stats
        .recv_timeout(Duration::from_secs(20))
        .expect("join returns once the stalled writer drops the client");
    joiner.join().expect("joiner thread");
    assert_eq!(stats.slow_loris_drops, 1);
    drop(client);
}
