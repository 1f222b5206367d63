//! Hot-reload semantics: admission-time image capture, corrupt-image
//! rollback, no-op detection, the content cache, and mid-stream
//! determinism under a closed-loop verified client.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{expected_answer, reply_hash, schedule_line, start, wait_for_stats, TestConn};
use mdes_guard::{corrupt_image, ImageFault};
use mdes_machines::Machine;
use mdes_serve::{
    compile_machine, content_hash, run_load, LoadOptions, ReloadEvent, ServeConfig, WorkParams,
};
use mdes_telemetry::json::Json;

static FILE_ID: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to a unique temp file and returns its path.
fn plant(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mdes-reload-{tag}-{}-{}.lmdes",
        std::process::id(),
        FILE_ID.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write image");
    path
}

fn image_bytes(machine: Machine) -> Vec<u8> {
    mdes_core::lmdes::write(&compile_machine(machine))
}

#[test]
fn requests_admitted_before_a_swap_are_served_by_the_old_image() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "swap", config);
    let old_mdes = compile_machine(Machine::K5);
    let old_hash = content_hash(&image_bytes(Machine::K5));
    let pentium = plant("pentium", &image_bytes(Machine::Pentium));

    // A occupies the lone worker so B stays queued across the reload.
    let mut a = TestConn::open(&addr);
    a.send_line(&schedule_line(
        1,
        WorkParams {
            regions: 4096,
            mean_ops: 64,
            seed: 0xB10C,
            jobs: 1,
        },
        None,
    ));
    wait_for_stats(&addr, |r| {
        r.get("in_flight").and_then(Json::as_u64) == Some(1)
            && r.get("queue_depth").and_then(Json::as_u64) == Some(0)
    });

    // B is admitted now — its image is captured at admission.
    let mut b = TestConn::open(&addr);
    let params = WorkParams {
        regions: 5,
        mean_ops: 6,
        seed: 42,
        jobs: 1,
    };
    b.send_line(&schedule_line(2, params, None));
    wait_for_stats(&addr, |r| {
        r.get("queue_depth").and_then(Json::as_u64) == Some(1)
    });

    // The swap happens while B is still queued.
    let mut c = TestConn::open(&addr);
    let reply = c.round_trip(&format!(
        "{{\"id\": 3, \"verb\": \"reload\", \"path\": {}}}",
        Json::Str(pentium.display().to_string()).render()
    ));
    assert!(reply.ok, "{:?}", reply.body);
    assert_eq!(reply.result_u64("epoch"), Some(1));

    // B's answer still comes from the pre-swap K5 image.
    assert!(a.read_reply().unwrap().ok);
    let reply = b.read_reply().unwrap();
    assert!(reply.ok, "{:?}", reply.body);
    assert_eq!(reply.result_u64("epoch"), Some(0));
    assert_eq!(reply_hash(&reply), old_hash);
    let (cycles, ops) = expected_answer(&old_mdes, params);
    assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));
    assert_eq!(reply.result_u64("ops"), Some(ops));

    // A request admitted after the swap sees the new image.
    let reply = c.round_trip(&schedule_line(4, params, None));
    assert_eq!(reply.result_u64("epoch"), Some(1));
    let (cycles, _) = expected_answer(&compile_machine(Machine::Pentium), params);
    assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(pentium);
}

#[test]
fn corrupt_images_are_rejected_and_the_old_image_keeps_serving() {
    let (handle, addr) = start(Machine::K5, "rollback", ServeConfig::default());
    let old_hash = content_hash(&image_bytes(Machine::K5));
    let mut conn = TestConn::open(&addr);

    for (i, fault) in ImageFault::fatal().into_iter().enumerate() {
        let corrupt = plant(
            fault.name(),
            &corrupt_image(&image_bytes(Machine::K5), fault, 0xBAD + i as u64),
        );
        let reply = conn.round_trip(&format!(
            "{{\"id\": {i}, \"verb\": \"reload\", \"path\": {}}}",
            Json::Str(corrupt.display().to_string()).render()
        ));
        assert!(!reply.ok, "{fault} must be rejected");
        // Decoder rejections are parse errors; vet rejections are
        // validation errors.  Either way the ladder stops before 4.
        let num = reply.error_num().unwrap();
        assert!(num == 2 || num == 3, "{fault} gave code {num}");
        let _ = std::fs::remove_file(corrupt);
    }

    // Still epoch 0, still the boot image, still correct answers.
    let reply = conn.round_trip("{\"id\": 50, \"verb\": \"query\"}");
    assert_eq!(reply.result_u64("epoch"), Some(0));
    assert_eq!(reply_hash(&reply), old_hash);

    let params = WorkParams {
        regions: 4,
        mean_ops: 6,
        seed: 3,
        jobs: 1,
    };
    let reply = conn.round_trip(&schedule_line(60, params, None));
    let (cycles, _) = expected_answer(&compile_machine(Machine::K5), params);
    assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));

    let reply = conn.round_trip("{\"id\": 70, \"verb\": \"stats\"}");
    assert_eq!(
        reply.result_u64("reload_failures"),
        Some(ImageFault::fatal().len() as u64)
    );
    assert_eq!(reply.result_u64("reloads"), Some(0));

    handle.shutdown();
    handle.join();
}

#[test]
fn a_branch_only_reload_is_refused_and_the_connection_keeps_serving() {
    // The guarded pipeline runs such a description clean on probes
    // alone; vetting then refuses it, since no region can be built.
    let (handle, addr) = start(Machine::K5, "branchonly", ServeConfig::default());
    let mut conn = TestConn::open(&addr);
    let source = plant(
        "branch-only",
        b"resource BR;
          or_tree B = first_of({ BR @ 0 });
          class br { constraint = B; latency = 1; flags = branch; }",
    );
    let reply = conn.round_trip(&format!(
        "{{\"id\": 1, \"verb\": \"reload\", \"path\": {}}}",
        Json::Str(source.display().to_string()).render()
    ));
    assert!(!reply.ok, "a branch-only description must be refused");
    assert_eq!(reply.error_num(), Some(3));
    let message = reply
        .body
        .get("error")
        .and_then(|error| error.get("message"))
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(
        message.contains("no schedulable non-branch class"),
        "{message}"
    );

    // The same connection is still read and answered.
    let reply = conn.round_trip("{\"id\": 2, \"verb\": \"query\"}");
    assert_eq!(reply.result_u64("epoch"), Some(0));
    let _ = std::fs::remove_file(source);
    handle.shutdown();
    handle.join();
}

#[test]
fn identical_reloads_are_noops_and_round_trips_hit_the_cache() {
    let (handle, addr) = start(Machine::K5, "cache", ServeConfig::default());
    let k5 = plant("k5", &image_bytes(Machine::K5));
    let pentium = plant("pentium", &image_bytes(Machine::Pentium));
    let mut conn = TestConn::open(&addr);
    let reload = |conn: &mut TestConn, id: u64, path: &PathBuf| {
        conn.round_trip(&format!(
            "{{\"id\": {id}, \"verb\": \"reload\", \"path\": {}}}",
            Json::Str(path.display().to_string()).render()
        ))
    };

    // Reloading the bytes already serving changes nothing.
    let reply = reload(&mut conn, 1, &k5);
    assert!(reply.ok);
    assert_eq!(
        reply.body.get("result").and_then(|r| r.get("changed")),
        Some(&Json::Bool(false))
    );
    assert_eq!(reply.result_u64("epoch"), Some(0));

    // First Pentium promotion compiles fresh.
    let reply = reload(&mut conn, 2, &pentium);
    assert_eq!(
        reply.body.get("result").and_then(|r| r.get("cache_hit")),
        Some(&Json::Bool(false))
    );
    assert_eq!(reply.result_u64("epoch"), Some(1));

    // Back to K5: the boot image is cached, so no recompilation.
    let reply = reload(&mut conn, 3, &k5);
    assert_eq!(
        reply.body.get("result").and_then(|r| r.get("cache_hit")),
        Some(&Json::Bool(true))
    );
    assert_eq!(reply.result_u64("epoch"), Some(2));

    // Pentium again: cached from its own first promotion.
    let reply = reload(&mut conn, 4, &pentium);
    assert_eq!(
        reply.body.get("result").and_then(|r| r.get("cache_hit")),
        Some(&Json::Bool(true))
    );
    assert_eq!(reply.result_u64("epoch"), Some(3));

    let reply = conn.round_trip("{\"id\": 9, \"verb\": \"stats\"}");
    assert_eq!(reply.result_u64("reload_noops"), Some(1));
    assert_eq!(reply.result_u64("reloads"), Some(3));
    assert_eq!(reply.result_u64("reload_cache_hits"), Some(2));

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(k5);
    let _ = std::fs::remove_file(pentium);
}

#[test]
fn mid_stream_reload_keeps_every_answer_verifiable() {
    let (handle, addr) = start(Machine::K5, "midstream", ServeConfig::default());
    let pentium = plant("pentium", &image_bytes(Machine::Pentium));

    let report = run_load(&LoadOptions {
        addr: addr.clone(),
        connections: 2,
        requests: 60,
        params: WorkParams {
            regions: 4,
            mean_ops: 6,
            seed: 0x11AD,
            jobs: 1,
        },
        pipeline: 1,
        machines: Vec::new(),
        deadline_ms: None,
        reloads: vec![ReloadEvent {
            at: 30,
            path: pentium.display().to_string(),
            machine: None,
            expect_rejection: false,
        }],
        known_sources: vec![image_bytes(Machine::K5), image_bytes(Machine::Pentium)],
        verify_responses: true,
        shutdown_when_done: false,
        max_retries: 8,
    })
    .expect("load run");

    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.answered, 60);
    assert_eq!(report.unverified, 0, "{:?}", report.errors);
    assert_eq!(report.reload_acks, 1);

    // The daemon ended up serving the Pentium image.
    let mut conn = TestConn::open(&addr);
    let reply = conn.round_trip("{\"id\": 1, \"verb\": \"query\"}");
    assert_eq!(reply.result_u64("epoch"), Some(1));
    assert_eq!(
        reply_hash(&reply),
        content_hash(&image_bytes(Machine::Pentium))
    );

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(pentium);
}
