//! The chaos harness: a verified closed-loop client runs against a
//! daemon while an attacker thread injects every serve-level fault mode
//! (garbage frames, oversized frames, slow-loris stalls, poison panics)
//! and the script fires both a good and a corrupt hot reload.  The
//! acceptance invariant: zero dropped requests, zero wrong answers, zero
//! reload surprises, nothing left in flight.

mod common;

use std::path::PathBuf;
use std::time::Duration;

use common::{start, TestConn};
use mdes_guard::{corrupt_image, ImageFault};
use mdes_machines::Machine;
use mdes_serve::{compile_machine, run_load, LoadOptions, ReloadEvent, ServeConfig, WorkParams};

fn plant(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mdes-chaos-{tag}-{}.lmdes", std::process::id()));
    std::fs::write(&path, bytes).expect("write image");
    path
}

/// Every fault mode the daemon must absorb without disturbing the
/// verified load: runs on its own connections, never the client's.
fn attacker(addr: &mdes_serve::BindAddr, read_timeout_ms: u64) -> u64 {
    let mut poisons = 0u64;

    // Garbage frames: the connection gets parse errors and survives.
    let mut conn = TestConn::open(addr);
    for line in ["%%% not json %%%", "{\"id\": 1, \"verb\": 42}", "{]"] {
        let reply = conn.round_trip(line);
        assert!(!reply.ok);
    }

    // Truncated-then-completed frame: split across writes, still parses.
    conn.send_raw(b"{\"id\": 5, \"ver");
    std::thread::sleep(Duration::from_millis(20));
    conn.send_raw(b"b\": \"query\"}\n");
    assert!(conn.read_reply().unwrap().ok);

    // Poison: each panic is isolated to its own request.
    for id in 0..3u64 {
        let reply = conn.round_trip(&format!("{{\"id\": {id}, \"verb\": \"poison\"}}"));
        assert_eq!(reply.error_num(), Some(7));
        poisons += 1;
    }

    // Oversized frame: an error reply, then the daemon hangs up.
    let mut big = TestConn::open(addr);
    big.send_raw(&vec![b'{'; mdes_serve::MAX_FRAME + 1024]);
    let reply = big.read_reply().expect("oversize error reply");
    assert_eq!(reply.error_num(), Some(2));
    assert!(big.read_reply().is_err(), "oversized connection must close");

    // Slow loris: a partial frame that dangles past the read timeout
    // gets the connection dropped.
    let mut slow = TestConn::open(addr);
    slow.send_raw(b"{\"id\": 6, \"verb\": \"qu");
    std::thread::sleep(Duration::from_millis(read_timeout_ms + 400));
    slow.send_raw_lossy(b"ery\"}\n");
    assert!(slow.read_reply().is_err(), "stalled connection must drop");

    poisons
}

#[test]
fn the_daemon_survives_chaos_while_answering_every_request_correctly() {
    let read_timeout_ms = 300;
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        read_timeout_ms,
        default_deadline_ms: None,
        chaos: true,
        seed: 0x5E17E,
    };
    let (handle, addr) = start(Machine::K5, "chaos", config);
    let k5_bytes = mdes_core::lmdes::write(&compile_machine(Machine::K5));
    let pentium_bytes = mdes_core::lmdes::write(&compile_machine(Machine::Pentium));
    let pentium = plant("pentium", &pentium_bytes);
    let corrupt = plant(
        "corrupt",
        &corrupt_image(&k5_bytes, ImageFault::HugeCount, 0xBADF00D),
    );

    let requests = 240;
    let options = LoadOptions {
        addr: addr.clone(),
        connections: 4,
        requests,
        params: WorkParams {
            regions: 4,
            mean_ops: 6,
            seed: 0xC4A05,
            jobs: 1,
        },
        pipeline: 1,
        machines: Vec::new(),
        deadline_ms: None,
        reloads: vec![
            ReloadEvent {
                at: 60,
                path: pentium.display().to_string(),
                machine: None,
                expect_rejection: false,
            },
            ReloadEvent {
                at: 140,
                path: corrupt.display().to_string(),
                machine: None,
                expect_rejection: true,
            },
        ],
        known_sources: vec![k5_bytes, pentium_bytes],
        verify_responses: true,
        shutdown_when_done: false,
        max_retries: 16,
    };

    let (report, poisons) = std::thread::scope(|scope| {
        let load = scope.spawn(|| run_load(&options).expect("load run"));
        let mayhem = scope.spawn(|| attacker(&addr, read_timeout_ms));
        (
            load.join().expect("client"),
            mayhem.join().expect("attacker"),
        )
    });

    // The acceptance invariant: every well-formed request answered
    // correctly, throughout the chaos.
    assert!(
        report.is_clean(),
        "dropped={} mismatches={} surprises={} errors={:?}",
        report.dropped,
        report.mismatches,
        report.reload_surprises,
        report.errors
    );
    assert_eq!(report.answered, requests as u64);
    assert_eq!(report.unverified, 0, "{:?}", report.errors);
    assert_eq!(report.reload_acks, 1);
    assert_eq!(report.reload_rejections, 1);

    handle.shutdown();
    let stats = handle.join();

    // Nothing hung, nothing dropped, every fault mode exercised and
    // counted, and the engine itself never panicked.
    assert_eq!(stats.total.in_flight(), 0);
    assert!(stats.parse_errors >= 3);
    assert_eq!(stats.oversized_frames, 1);
    assert_eq!(stats.slow_loris_drops, 1);
    assert_eq!(stats.total.panics, poisons);
    assert_eq!(stats.total.engine_panics, 0);
    assert_eq!(stats.total.reloads, 1);
    assert_eq!(stats.total.reload_failures, 1);

    let _ = std::fs::remove_file(pentium);
    let _ = std::fs::remove_file(corrupt);
}
