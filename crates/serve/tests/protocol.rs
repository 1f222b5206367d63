//! Protocol conformance: every verb, every error-code path, and the
//! framing rules, against a live daemon.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::{expected_answer, reply_hash, schedule_line, start, TestConn};
use mdes_machines::Machine;
use mdes_serve::proto::parse_reply;
use mdes_serve::{
    compile_machine, content_hash, serve, BindAddr, ImageStore, Reply, ServeConfig, WorkParams,
};
use mdes_telemetry::json::Json;

#[test]
fn query_describes_the_boot_image() {
    let (handle, addr) = start(Machine::K5, "query", ServeConfig::default());
    let mut conn = TestConn::open(&addr);

    let reply = conn.round_trip("{\"id\": 1, \"verb\": \"query\"}");
    assert!(reply.ok);
    assert_eq!(reply.id, 1);
    assert_eq!(reply.result_u64("epoch"), Some(0));
    let mdes = compile_machine(Machine::K5);
    assert_eq!(
        reply.result_u64("classes"),
        Some(mdes.classes().len() as u64)
    );
    assert_eq!(
        reply_hash(&reply),
        content_hash(&mdes_core::lmdes::write(&mdes))
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn schedule_answers_match_the_local_oracle() {
    let (handle, addr) = start(Machine::Pa7100, "sched", ServeConfig::default());
    let mdes = compile_machine(Machine::Pa7100);
    let mut conn = TestConn::open(&addr);

    for seed in [1u64, 9, 1234] {
        let params = WorkParams {
            regions: 6,
            mean_ops: 7,
            seed,
            jobs: 1,
        };
        let reply = conn.round_trip(&schedule_line(seed, params, None));
        assert!(reply.ok, "seed {seed}: {:?}", reply.body);
        let (cycles, ops) = expected_answer(&mdes, params);
        assert_eq!(
            reply.result_u64("cycles"),
            Some(cycles as u64),
            "seed {seed}"
        );
        assert_eq!(reply.result_u64("ops"), Some(ops), "seed {seed}");
        assert_eq!(reply.result_u64("epoch"), Some(0));
    }

    // The verify verb re-checks the schedules server-side and still
    // reports the same quantities.
    let params = WorkParams {
        regions: 4,
        mean_ops: 6,
        seed: 5,
        jobs: 2,
    };
    let reply = conn.round_trip(
        "{\"id\": 50, \"verb\": \"verify\", \"regions\": 4, \"mean_ops\": 6, \
         \"seed\": 5, \"jobs\": 2}",
    );
    assert!(reply.ok);
    let (cycles, _) = expected_answer(&mdes, params);
    assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));
    assert_eq!(
        reply.body.get("result").and_then(|r| r.get("verified")),
        Some(&Json::Bool(true))
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_frames_get_parse_errors_and_the_connection_survives() {
    let (handle, addr) = start(Machine::K5, "malformed", ServeConfig::default());
    let mut conn = TestConn::open(&addr);

    // Garbage JSON.
    let reply = conn.round_trip("this is not json");
    assert!(!reply.ok);
    assert_eq!(reply.error_num(), Some(2));

    // Valid JSON, missing verb (id recovered).
    let reply = conn.round_trip("{\"id\": 77}");
    assert!(!reply.ok);
    assert_eq!(reply.id, 77);
    assert_eq!(reply.error_num(), Some(2));

    // Unknown verb -> general.
    let reply = conn.round_trip("{\"id\": 78, \"verb\": \"warp\"}");
    assert_eq!(reply.error_num(), Some(1));

    // Out-of-range field.
    let reply = conn.round_trip("{\"id\": 79, \"verb\": \"schedule\", \"regions\": 100000}");
    assert_eq!(reply.error_num(), Some(2));

    // The same connection still serves good requests.
    let reply = conn.round_trip("{\"id\": 80, \"verb\": \"query\"}");
    assert!(reply.ok);

    // And the daemon counted the rejects.
    let reply = conn.round_trip("{\"id\": 81, \"verb\": \"stats\"}");
    assert!(reply.result_u64("parse_errors").unwrap() >= 3);

    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_frames_close_only_the_offending_connection() {
    let (handle, addr) = start(Machine::K5, "oversize", ServeConfig::default());

    let mut bad = TestConn::open(&addr);
    // Stream > MAX_FRAME bytes with no newline.
    let blob = vec![b'x'; mdes_serve::MAX_FRAME + 4096];
    bad.send_raw(&blob);
    let reply = bad.read_reply().expect("error reply before close");
    assert!(!reply.ok);
    assert_eq!(reply.error_num(), Some(2));
    // After the error the daemon hangs up on this connection.
    assert!(bad.read_reply().is_err());

    // Other connections are untouched.
    let mut good = TestConn::open(&addr);
    let reply = good.round_trip("{\"id\": 1, \"verb\": \"query\"}");
    assert!(reply.ok);
    let reply = good.round_trip("{\"id\": 2, \"verb\": \"stats\"}");
    assert_eq!(reply.result_u64("oversized_frames"), Some(1));

    handle.shutdown();
    handle.join();
}

#[test]
fn poison_requires_chaos_mode() {
    let (handle, addr) = start(Machine::K5, "nopoison", ServeConfig::default());
    let mut conn = TestConn::open(&addr);
    let reply = conn.round_trip("{\"id\": 9, \"verb\": \"poison\"}");
    assert!(!reply.ok);
    assert_eq!(reply.error_num(), Some(1));
    handle.shutdown();
    handle.join();
}

#[test]
fn poison_panics_are_isolated_to_their_request() {
    let config = ServeConfig {
        chaos: true,
        workers: 1, // the lone worker must survive the panic
        ..ServeConfig::default()
    };
    let (handle, addr) = start(Machine::K5, "poison", config);
    let mdes = compile_machine(Machine::K5);
    let mut conn = TestConn::open(&addr);

    let reply = conn.round_trip("{\"id\": 1, \"verb\": \"poison\"}");
    assert!(!reply.ok);
    assert_eq!(reply.error_num(), Some(7));

    // The worker that just panicked still serves correct answers.
    let params = WorkParams {
        regions: 3,
        mean_ops: 5,
        seed: 2,
        jobs: 1,
    };
    let reply = conn.round_trip(&schedule_line(2, params, None));
    assert!(reply.ok);
    let (cycles, _) = expected_answer(&mdes, params);
    assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));

    let reply = conn.round_trip("{\"id\": 3, \"verb\": \"stats\"}");
    assert_eq!(reply.result_u64("panics"), Some(1));
    assert_eq!(reply.result_u64("engine_worker_panics"), Some(0));

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_verb_stops_the_daemon_with_nothing_in_flight() {
    let (handle, addr) = start(Machine::Pentium, "shutdown", ServeConfig::default());
    let mut conn = TestConn::open(&addr);
    for id in 0..5u64 {
        let params = WorkParams {
            regions: 2,
            mean_ops: 4,
            seed: id,
            jobs: 1,
        };
        assert!(conn.round_trip(&schedule_line(id, params, None)).ok);
    }
    let reply = conn.round_trip("{\"id\": 9, \"verb\": \"shutdown\"}");
    assert!(reply.ok);
    let stats = handle.join();
    assert_eq!(stats.total.in_flight(), 0);
    assert_eq!(stats.total.answered, 5);
}

#[test]
fn the_daemon_serves_and_stops_over_tcp() {
    let store = Arc::new(ImageStore::new(compile_machine(Machine::K5), "K5", 0));
    let bind = BindAddr::Tcp("127.0.0.1:0".to_string());
    let handle = serve(bind, store, ServeConfig::default()).expect("daemon binds");
    let BindAddr::Tcp(spec) = handle.addr().clone() else {
        panic!("a tcp daemon reports a tcp address");
    };
    assert!(
        !spec.ends_with(":0"),
        "the ephemeral port is resolved: {spec}"
    );

    let stream = TcpStream::connect(&spec).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut round_trip = |line: &str| -> Reply {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        parse_reply(reply.trim_end()).expect("reply parses")
    };

    let reply = round_trip("{\"id\": 1, \"verb\": \"query\"}");
    assert!(reply.ok && reply.id == 1, "{:?}", reply.body);
    let mdes = compile_machine(Machine::K5);
    assert_eq!(
        reply.result_u64("classes"),
        Some(mdes.classes().len() as u64)
    );

    let params = WorkParams {
        regions: 3,
        mean_ops: 5,
        seed: 8,
        jobs: 1,
    };
    let idless = schedule_line(0, params, None).replace("\"id\": 0, ", "");
    let reply = round_trip(&idless);
    assert!(reply.ok && reply.id == 0, "{:?}", reply.body);
    let (cycles, _) = expected_answer(&mdes, params);
    assert_eq!(reply.result_u64("cycles"), Some(cycles as u64));

    // The verb's wake-up connection must reach the accept loop over
    // TCP, or `join` would wait forever.
    let reply = round_trip("{\"verb\": \"shutdown\"}");
    assert!(reply.ok, "{:?}", reply.body);
    let stats = handle.join();
    assert_eq!(stats.total.answered, 1);
    assert_eq!(stats.connections, 1);
}
