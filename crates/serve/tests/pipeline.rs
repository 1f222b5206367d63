//! Protocol-v2 semantics: pipelined out-of-order completion, duplicate
//! and missing ids, v1 byte-compatible serial ordering, shard routing,
//! and per-shard isolation of shedding, deadlines, and reloads.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use common::{expected_answer, reply_hash, start, start_sharded, wait_for_stats, TestConn};
use mdes_machines::Machine;
use mdes_serve::{
    compile_machine, content_hash, run_load, LoadOptions, ReloadEvent, ServeConfig, WorkParams,
};
use mdes_telemetry::json::Json;

static FILE_ID: AtomicU64 = AtomicU64::new(0);

fn plant(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mdes-pipeline-{tag}-{}-{}.lmdes",
        std::process::id(),
        FILE_ID.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write image");
    path
}

fn image_bytes(machine: Machine) -> Vec<u8> {
    mdes_core::lmdes::write(&compile_machine(machine))
}

/// A pipelined (id-carrying) schedule line, optionally shard-routed.
fn v2_line(id: u64, params: WorkParams, machine: Option<&str>) -> String {
    let machine = match machine {
        Some(name) => format!(", \"machine\": \"{name}\""),
        None => String::new(),
    };
    format!(
        "{{\"id\": {id}, \"verb\": \"schedule\", \"regions\": {}, \"mean_ops\": {}, \
         \"seed\": {}, \"jobs\": {}{machine}}}",
        params.regions, params.mean_ops, params.seed, params.jobs
    )
}

/// An id-less (v1-serial) schedule line.
fn v1_line(params: WorkParams) -> String {
    format!(
        "{{\"verb\": \"schedule\", \"regions\": {}, \"mean_ops\": {}, \
         \"seed\": {}, \"jobs\": {}}}",
        params.regions, params.mean_ops, params.seed, params.jobs
    )
}

fn big() -> WorkParams {
    WorkParams {
        regions: 4096,
        mean_ops: 64,
        seed: 0xB16,
        jobs: 1,
    }
}

fn tiny() -> WorkParams {
    WorkParams {
        regions: 2,
        mean_ops: 3,
        seed: 0x717,
        jobs: 1,
    }
}

#[test]
fn pipelined_replies_complete_out_of_admission_order() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "ooo", config);
    let mdes = compile_machine(Machine::K5);

    // Both frames are written before any reply is read: a huge job
    // first, a trivial one second.  With two workers the trivial job
    // finishes while the huge one is still scheduling, so the second
    // request's reply arrives first — the pipelined path must not
    // serialize them.
    let mut conn = TestConn::open(&addr);
    conn.send_line(&v2_line(1, big(), None));
    conn.send_line(&v2_line(2, tiny(), None));

    let first = conn.read_reply().unwrap();
    let second = conn.read_reply().unwrap();
    assert!(
        first.ok && second.ok,
        "{:?} / {:?}",
        first.body,
        second.body
    );
    assert_eq!(
        first.id, 2,
        "the trivial job's reply must overtake the huge job"
    );
    assert_eq!(second.id, 1);

    // Out-of-order delivery did not cross the answers.
    let (cycles, ops) = expected_answer(&mdes, tiny());
    assert_eq!(first.result_u64("cycles"), Some(cycles as u64));
    assert_eq!(first.result_u64("ops"), Some(ops));
    let (cycles, ops) = expected_answer(&mdes, big());
    assert_eq!(second.result_u64("cycles"), Some(cycles as u64));
    assert_eq!(second.result_u64("ops"), Some(ops));

    handle.shutdown();
    handle.join();
}

#[test]
fn idless_frames_keep_strict_serial_order() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "serial", config);
    let mdes = compile_machine(Machine::K5);

    // The same big-then-tiny shape as the pipelined test, but id-less:
    // a v1 client's replies must come back in request order (each one
    // echoing id 0) even though the tiny job would finish first.
    let mut conn = TestConn::open(&addr);
    conn.send_line(&v1_line(big()));
    conn.send_line(&v1_line(tiny()));

    let first = conn.read_reply().unwrap();
    let second = conn.read_reply().unwrap();
    assert!(first.ok && second.ok);
    assert_eq!(first.id, 0, "v1 replies echo id 0");
    assert_eq!(second.id, 0);
    let (cycles, _) = expected_answer(&mdes, big());
    assert_eq!(
        first.result_u64("cycles"),
        Some(cycles as u64),
        "serial replies must arrive in request order"
    );
    let (cycles, _) = expected_answer(&mdes, tiny());
    assert_eq!(second.result_u64("cycles"), Some(cycles as u64));

    handle.shutdown();
    handle.join();
}

#[test]
fn duplicate_ids_are_echoed_not_deduplicated() {
    let (handle, addr) = start(Machine::K5, "dup", ServeConfig::default());
    let mdes = compile_machine(Machine::K5);

    // The daemon treats ids as opaque correlation tokens: two in-flight
    // requests sharing an id get two replies, both echoing it.
    let a = tiny();
    let b = WorkParams { seed: 0x999, ..a };
    let mut conn = TestConn::open(&addr);
    conn.send_line(&v2_line(5, a, None));
    conn.send_line(&v2_line(5, b, None));

    let mut got = vec![conn.read_reply().unwrap(), conn.read_reply().unwrap()];
    assert!(got.iter().all(|r| r.ok && r.id == 5));
    let mut cycles: Vec<u64> = got
        .drain(..)
        .map(|r| r.result_u64("cycles").unwrap())
        .collect();
    cycles.sort_unstable();
    let mut want = vec![
        expected_answer(&mdes, a).0 as u64,
        expected_answer(&mdes, b).0 as u64,
    ];
    want.sort_unstable();
    assert_eq!(cycles, want);

    handle.shutdown();
    handle.join();
}

#[test]
fn garbage_frames_mid_pipeline_do_not_derail_later_replies() {
    let (handle, addr) = start(Machine::K5, "garbage", ServeConfig::default());
    let mdes = compile_machine(Machine::K5);

    // A parse error between two pipelined requests answers with id 0
    // and the surrounding requests still complete correctly.
    let mut conn = TestConn::open(&addr);
    conn.send_line(&v2_line(1, tiny(), None));
    conn.send_line("{\"verb\": \"schedule\", \"regions\": \"lots\"}");
    conn.send_line(&v2_line(2, tiny(), None));

    let mut ok = Vec::new();
    let mut errors = Vec::new();
    for _ in 0..3 {
        let reply = conn.read_reply().unwrap();
        if reply.ok {
            ok.push(reply);
        } else {
            errors.push(reply);
        }
    }
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].id, 0, "unparseable frames answer with id 0");
    assert_eq!(errors[0].error_num(), Some(2));
    let mut ids: Vec<u64> = ok.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2]);
    let (cycles, _) = expected_answer(&mdes, tiny());
    for reply in &ok {
        assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn requests_route_by_machine_and_unknown_machines_are_rejected() {
    let (handle, addr) = start_sharded(
        &[Machine::K5, Machine::Pentium],
        "route",
        ServeConfig::default(),
    );
    let k5_hash = content_hash(&image_bytes(Machine::K5));
    let pentium_hash = content_hash(&image_bytes(Machine::Pentium));
    let mut conn = TestConn::open(&addr);

    // Default (no machine field) routes to the boot shard.
    let reply = conn.round_trip(&v2_line(1, tiny(), None));
    assert_eq!(reply_hash(&reply), k5_hash);

    // Explicit routing per shard, with shard-correct answers.
    let reply = conn.round_trip(&v2_line(2, tiny(), Some("Pentium")));
    assert_eq!(reply_hash(&reply), pentium_hash);
    let (cycles, _) = expected_answer(&compile_machine(Machine::Pentium), tiny());
    assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));
    let reply = conn.round_trip(&v2_line(3, tiny(), Some("K5")));
    assert_eq!(reply_hash(&reply), k5_hash);

    // Unknown machines answer a parse error naming the served shards.
    let reply = conn.round_trip(&v2_line(4, tiny(), Some("VAX")));
    assert!(!reply.ok);
    assert_eq!(reply.error_num(), Some(2));
    assert_eq!(reply.id, 4);
    let message = reply
        .body
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(
        message.contains("K5") && message.contains("Pentium"),
        "{message}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn shedding_and_deadlines_stay_shard_local() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let (handle, addr) = start_sharded(&[Machine::K5, Machine::Pentium], "isolate", config);

    // Saturate the K5 shard and observe it, rather than wait for it:
    // keep three huge jobs in flight on one connection until the shard
    // sheds one.  Its lone worker and depth-1 queue hold only two, so
    // the third is shed unless a job finished in between, whatever the
    // jobs' run time; a finished job is topped up with another send.
    const MAX_SENDS: u64 = 16;
    let mut hog = TestConn::open(&addr);
    let mut sent = 0;
    while sent < 3 {
        sent += 1;
        hog.send_line(&v2_line(sent, big(), Some("K5")));
    }
    let mut answered = 0;
    let shed = loop {
        let reply = hog.read_reply().unwrap();
        answered += 1;
        if reply.error_num() == Some(6) {
            break reply;
        }
        assert!(reply.ok, "{:?}", reply.body);
        assert!(sent < MAX_SENDS, "K5 shed none of {sent} huge jobs");
        sent += 1;
        hog.send_line(&v2_line(sent, big(), Some("K5")));
    };
    // A shed request carries a retry hint…
    assert!(shed.retry_after_ms().is_some(), "{:?}", shed.body);

    // …while the Pentium shard, same daemon, answers immediately.
    let mut conn = TestConn::open(&addr);
    let reply = conn.round_trip(&v2_line(100, tiny(), Some("Pentium")));
    assert!(reply.ok, "{:?}", reply.body);

    // Shed accounting is per-shard: K5 shed, Pentium clean.
    let stats = conn.round_trip("{\"id\": 9, \"verb\": \"stats\"}");
    let shards = stats
        .body
        .get("result")
        .and_then(|r| r.get("shards"))
        .unwrap()
        .clone();
    let count = |shard: &str, key: &str| -> u64 {
        shards
            .get(shard)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert!(count("K5", "shed") >= 1);
    assert_eq!(count("Pentium", "shed"), 0);

    // Deadlines are enforced against the shard's own queue.  Drain the
    // hog first (every reply read means its job left the queue), so the
    // deadline request is admitted rather than shed.
    while answered < sent {
        let reply = hog.read_reply().unwrap();
        answered += 1;
        assert!(reply.ok || reply.error_num() == Some(6), "{:?}", reply.body);
    }
    let mut queued = TestConn::open(&addr);
    queued.send_line(
        &v2_line(5, tiny(), Some("K5")).replace("\"verb\"", "\"deadline_ms\": 1, \"verb\""),
    );
    let reply = queued.read_reply().unwrap();
    // A 1 ms deadline may or may not be met — accept either, but require
    // that Pentium never ticks deadline_exceeded.
    assert!(reply.ok || reply.error_num() == Some(5));
    let stats = conn.round_trip("{\"id\": 10, \"verb\": \"stats\"}");
    let pentium_deadlines = stats
        .body
        .get("result")
        .and_then(|r| r.get("shards"))
        .and_then(|s| s.get("Pentium"))
        .and_then(|s| s.get("deadline_exceeded"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(pentium_deadlines, 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn reloads_swap_one_shard_and_leave_the_others_alone() {
    let (handle, addr) = start_sharded(
        &[Machine::K5, Machine::Pentium],
        "shard-reload",
        ServeConfig::default(),
    );
    let k5_hash = content_hash(&image_bytes(Machine::K5));
    let sparc = plant("sparc", &image_bytes(Machine::SuperSparc));
    let sparc_hash = content_hash(&image_bytes(Machine::SuperSparc));

    let mut conn = TestConn::open(&addr);
    let reply = conn.round_trip(&format!(
        "{{\"id\": 1, \"verb\": \"reload\", \"path\": {}, \"machine\": \"Pentium\"}}",
        Json::Str(sparc.display().to_string()).render()
    ));
    assert!(reply.ok, "{:?}", reply.body);
    assert_eq!(reply.result_u64("epoch"), Some(1));

    // Pentium now serves the SuperSPARC image at epoch 1; K5 is
    // untouched at epoch 0.
    let reply = conn.round_trip(&v2_line(2, tiny(), Some("Pentium")));
    assert_eq!(reply_hash(&reply), sparc_hash);
    assert_eq!(reply.result_u64("epoch"), Some(1));
    let reply = conn.round_trip(&v2_line(3, tiny(), Some("K5")));
    assert_eq!(reply_hash(&reply), k5_hash);
    assert_eq!(reply.result_u64("epoch"), Some(0));

    // Reload accounting is shard-local too.
    let stats = conn.round_trip("{\"id\": 4, \"verb\": \"stats\"}");
    let shards = stats
        .body
        .get("result")
        .and_then(|r| r.get("shards"))
        .unwrap()
        .clone();
    let reloads = |shard: &str| {
        shards
            .get(shard)
            .and_then(|s| s.get("reloads"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(reloads("Pentium"), 1);
    assert_eq!(reloads("K5"), 0);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(sparc);
}

#[test]
fn pipelined_load_run_is_clean_across_shards_and_reloads() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (handle, addr) = start_sharded(&[Machine::K5, Machine::Pentium], "pipe-load", config);
    let sparc = plant("load-sparc", &image_bytes(Machine::SuperSparc));

    // The full v2 client: pipelined connections spraying both shards,
    // with a mid-run reload that retargets one shard only.  Every reply
    // is re-verified against the image hash it reports.
    let report = run_load(&LoadOptions {
        addr: addr.clone(),
        connections: 2,
        requests: 120,
        params: WorkParams {
            regions: 4,
            mean_ops: 6,
            seed: 0x9199,
            jobs: 1,
        },
        pipeline: 4,
        machines: vec!["K5".to_string(), "Pentium".to_string()],
        deadline_ms: None,
        reloads: vec![ReloadEvent {
            at: 60,
            path: sparc.display().to_string(),
            machine: Some("Pentium".to_string()),
            expect_rejection: false,
        }],
        known_sources: vec![
            image_bytes(Machine::K5),
            image_bytes(Machine::Pentium),
            image_bytes(Machine::SuperSparc),
        ],
        verify_responses: true,
        shutdown_when_done: false,
        max_retries: 16,
    })
    .expect("load run");

    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.answered, 120);
    assert_eq!(report.unverified, 0, "{:?}", report.errors);
    assert_eq!(report.reload_acks, 1);
    assert!(report.p99_us >= report.p50_us);

    // The K5 shard never reloaded; Pentium did exactly once.
    let mut conn = TestConn::open(&addr);
    let stats = conn.round_trip("{\"id\": 1, \"verb\": \"stats\"}");
    let shards = stats
        .body
        .get("result")
        .and_then(|r| r.get("shards"))
        .unwrap()
        .clone();
    let reloads = |shard: &str| {
        shards
            .get(shard)
            .and_then(|s| s.get("reloads"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(reloads("K5"), 0);
    assert_eq!(reloads("Pentium"), 1);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(sparc);
}

#[test]
fn pipelining_beats_serial_on_parallel_hosts() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cpus < 4 {
        // On a 1–3 CPU host the daemon's workers and the client share
        // cores, so the comparison measures contention, not pipelining.
        eprintln!("skipping: {cpus} CPU(s) < 4");
        return;
    }
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "speedup", config);
    let options = |pipeline: usize| LoadOptions {
        addr: addr.clone(),
        connections: 1,
        requests: 200,
        params: WorkParams {
            regions: 64,
            mean_ops: 8,
            seed: 0x5BEE,
            jobs: 1,
        },
        pipeline,
        machines: Vec::new(),
        deadline_ms: None,
        reloads: Vec::new(),
        known_sources: vec![image_bytes(Machine::K5)],
        verify_responses: true,
        shutdown_when_done: false,
        max_retries: 16,
    };

    // Warm both paths once, then time.
    run_load(&options(1)).expect("warmup");
    let serial_start = Instant::now();
    let serial = run_load(&options(1)).expect("serial run");
    let serial_elapsed = serial_start.elapsed();
    let piped_start = Instant::now();
    let piped = run_load(&options(8)).expect("pipelined run");
    let piped_elapsed = piped_start.elapsed();

    assert!(serial.is_clean(), "{:?}", serial.errors);
    assert!(piped.is_clean(), "{:?}", piped.errors);
    assert_eq!(piped.answered, 200);
    assert!(
        piped_elapsed < serial_elapsed,
        "pipeline 8 ({piped_elapsed:?}) must beat pipeline 1 ({serial_elapsed:?}) \
         with 4 workers on a {cpus}-CPU host"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn a_tagged_frame_never_overtakes_an_idless_one() {
    let (handle, addr) = start(Machine::K5, "window", ServeConfig::default());

    // One write carries both frames.  The tagged `query` is answered
    // inline in microseconds, but the id-less job ahead of it is a
    // one-slot window: its reply must be written before the daemon even
    // reads the query.
    let mut conn = TestConn::open(&addr);
    let frames = format!("{}\n{{\"id\": 7, \"verb\": \"query\"}}\n", v1_line(big()));
    conn.send_raw(frames.as_bytes());

    let first = conn.read_reply().unwrap();
    let second = conn.read_reply().unwrap();
    assert!(
        first.ok && second.ok,
        "{:?} / {:?}",
        first.body,
        second.body
    );
    assert_eq!(first.id, 0, "the id-less reply must arrive first");
    assert_eq!(second.id, 7);

    handle.shutdown();
    handle.join();
}

/// The work counters and the queue depth that each shard entry of a
/// `stats` result carries, and that its daemon-wide line sums.
const SHARD_COUNTERS: [&str; 10] = [
    "admitted",
    "answered",
    "shed",
    "deadline_exceeded",
    "panics",
    "reloads",
    "reload_failures",
    "reload_noops",
    "reload_cache_hits",
    "queue_depth",
];

/// Reads `stats` on `conn` and asserts that every daemon-wide work
/// counter equals the sum of the reply's shard entries.
fn folded_stats(conn: &mut TestConn) -> Json {
    let reply = conn.round_trip("{\"id\": 1000, \"verb\": \"stats\"}");
    let result = reply.body.get("result").expect("stats result").clone();
    let shards = result.get("shards").and_then(Json::as_obj).expect("shards");
    for key in SHARD_COUNTERS {
        let sum: u64 = shards
            .values()
            .map(|shard| shard.get(key).and_then(Json::as_u64).expect(key))
            .sum();
        assert_eq!(result.get(key).and_then(Json::as_u64), Some(sum), "{key}");
    }
    result
}

#[test]
fn daemon_wide_stats_are_the_sum_of_the_shards() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        chaos: true,
        ..ServeConfig::default()
    };
    let (handle, addr) = start_sharded(&[Machine::K5, Machine::Pentium], "fold", config);
    let sparc = plant("fold-sparc", &image_bytes(Machine::SuperSparc));
    let pentium = plant("fold-pentium", &image_bytes(Machine::Pentium));
    let corrupt = plant("fold-corrupt", b"neither an lmdes image nor hmdl {");
    let mut control = TestConn::open(&addr);
    folded_stats(&mut control);

    // A shed and an expired deadline on K5: a huge job holds the lone
    // worker, a 1 ms job waits in the one queue slot past its deadline,
    // and a third job finds the queue full.
    let mut hog = TestConn::open(&addr);
    hog.send_line(&v2_line(1, big(), Some("K5")));
    wait_for_stats(&addr, |r| {
        r.get("in_flight").and_then(Json::as_u64) == Some(1)
            && r.get("queue_depth").and_then(Json::as_u64) == Some(0)
    });
    let expiring =
        v2_line(2, tiny(), Some("K5")).replace("\"verb\"", "\"deadline_ms\": 1, \"verb\"");
    hog.send_line(&expiring);
    hog.send_line(&v2_line(3, tiny(), Some("K5")));
    let shed = hog.read_reply().unwrap();
    assert_eq!((shed.id, shed.error_num()), (3, Some(6)), "{:?}", shed.body);
    folded_stats(&mut control);
    assert!(hog.read_reply().unwrap().ok);
    let expired = hog.read_reply().unwrap();
    assert_eq!((expired.id, expired.error_num()), (2, Some(5)));

    // A poison panic on Pentium.
    let reply = control.round_trip("{\"id\": 4, \"verb\": \"poison\", \"machine\": \"Pentium\"}");
    assert_eq!(reply.error_num(), Some(7));
    folded_stats(&mut control);

    // Reloads on Pentium: promoted, no-op, cache hit; then a failed one
    // on K5.
    let reload = |path: &PathBuf, machine: &str| {
        format!(
            "{{\"id\": 5, \"verb\": \"reload\", \"path\": {}, \"machine\": \"{machine}\"}}",
            Json::Str(path.display().to_string()).render()
        )
    };
    for (path, machine, ok) in [
        (&sparc, "Pentium", true),
        (&sparc, "Pentium", true),
        (&pentium, "Pentium", true),
        (&corrupt, "K5", false),
    ] {
        let reply = control.round_trip(&reload(path, machine));
        assert_eq!(reply.ok, ok, "{:?}", reply.body);
        folded_stats(&mut control);
    }

    // Three jobs admitted and answered (the hog, the expired one, the
    // poison), then one each of shed, deadline, panic, no-op, cache hit
    // and failure, and two promotions.
    let want = [3, 3, 1, 1, 1, 2, 1, 1, 1, 0];
    let last = folded_stats(&mut control);
    let got = SHARD_COUNTERS.map(|key| last.get(key).and_then(Json::as_u64).expect(key));
    assert_eq!(got, want);

    // The final statistics `join` returns are the last reply's.
    handle.shutdown();
    let total = handle.join().total;
    let joined = [
        total.admitted,
        total.answered,
        total.shed,
        total.deadline_exceeded,
        total.panics,
        total.reloads,
        total.reload_failures,
        total.reload_noops,
        total.reload_cache_hits,
    ];
    assert_eq!(joined[..], want[..9]);
    assert_eq!(total.engine_panics, 0);
    for file in [sparc, pentium, corrupt] {
        let _ = std::fs::remove_file(file);
    }
}
