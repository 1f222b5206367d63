//! Shared harness for the daemon integration suites: unique sockets,
//! daemon boot helpers, a raw test connection, and the local expected-
//! answer oracle.

// Compiled once per test target; no single target uses every helper.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mdes_core::CompiledMdes;
use mdes_machines::Machine;
use mdes_sched::{CheckStats, ListScheduler, SchedScratch};
use mdes_serve::proto::parse_reply;
use mdes_serve::{
    compile_machine, serve, BindAddr, ImageStore, Reply, ServeConfig, ServerHandle, WorkParams,
};
use mdes_telemetry::json::Json;
use mdes_workload::{generate_compiled_regions, RegionConfig};

static SOCKET_ID: AtomicU64 = AtomicU64::new(0);

/// A socket path no other test (or test process) is using.
pub fn unique_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mdes-serve-{tag}-{}-{}.sock",
        std::process::id(),
        SOCKET_ID.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Boots a daemon for `machine` on a fresh Unix socket.
pub fn start(machine: Machine, tag: &str, config: ServeConfig) -> (ServerHandle, BindAddr) {
    let store = Arc::new(ImageStore::new(
        compile_machine(machine),
        machine.name(),
        config.seed,
    ));
    let addr = BindAddr::Unix(unique_socket(tag));
    let handle = serve(addr.clone(), store, config).expect("daemon binds");
    (handle, addr)
}

/// Boots a multi-shard daemon, one shard (named after the machine) per
/// entry, on a fresh Unix socket.
pub fn start_sharded(
    machines: &[Machine],
    tag: &str,
    config: ServeConfig,
) -> (ServerHandle, BindAddr) {
    let stores = machines
        .iter()
        .map(|&m| {
            (
                m.name().to_string(),
                Arc::new(ImageStore::new(compile_machine(m), m.name(), config.seed)),
            )
        })
        .collect();
    let addr = BindAddr::Unix(unique_socket(tag));
    let handle = mdes_serve::serve_sharded(addr.clone(), stores, config).expect("daemon binds");
    (handle, addr)
}

/// A raw client connection speaking the line protocol, with a read
/// deadline so a hung daemon fails the test instead of wedging it.
pub struct TestConn {
    reader: BufReader<UnixStream>,
}

impl TestConn {
    pub fn open(addr: &BindAddr) -> TestConn {
        let BindAddr::Unix(path) = addr else {
            panic!("test daemons listen on unix sockets");
        };
        let stream = UnixStream::connect(path).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        TestConn {
            reader: BufReader::new(stream),
        }
    }

    /// Writes raw bytes without framing (for chaos payloads).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.reader.get_mut().write_all(bytes).expect("write");
    }

    /// Like [`TestConn::send_raw`], but tolerates a dead peer (for
    /// writing into a connection the daemon has already dropped).
    pub fn send_raw_lossy(&mut self, bytes: &[u8]) {
        let _ = self.reader.get_mut().write_all(bytes);
    }

    /// Reads one response line, exactly as the daemon wrote it (newline
    /// included).
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Reads one response line.
    pub fn read_reply(&mut self) -> Result<Reply, String> {
        parse_reply(self.read_line()?.trim_end())
    }

    /// One request line out, one reply back.
    pub fn round_trip(&mut self, line: &str) -> Reply {
        self.send_raw(line.as_bytes());
        self.send_raw(b"\n");
        self.read_reply().expect("reply")
    }

    /// Sends a request without waiting for the reply (to occupy a
    /// worker); pair with [`TestConn::read_reply`].
    pub fn send_line(&mut self, line: &str) {
        self.send_raw(line.as_bytes());
        self.send_raw(b"\n");
    }
}

/// A `schedule` request line.
pub fn schedule_line(id: u64, params: WorkParams, deadline_ms: Option<u64>) -> String {
    let deadline = match deadline_ms {
        Some(ms) => format!(", \"deadline_ms\": {ms}"),
        None => String::new(),
    };
    format!(
        "{{\"id\": {id}, \"verb\": \"schedule\", \"regions\": {}, \"mean_ops\": {}, \
         \"seed\": {}, \"jobs\": {}{deadline}}}",
        params.regions, params.mean_ops, params.seed, params.jobs
    )
}

/// The answer the daemon must give for `params` against `mdes`:
/// `(cycles, ops)`, derived with the serial scheduler (equal to any
/// worker count by the engine's determinism contract).
pub fn expected_answer(mdes: &CompiledMdes, params: WorkParams) -> (i64, u64) {
    let config = RegionConfig::new(params.regions)
        .with_mean_ops(params.mean_ops)
        .with_seed(params.seed);
    let workload = generate_compiled_regions(mdes, &config);
    let scheduler = ListScheduler::new(mdes);
    let mut scratch = SchedScratch::new();
    let mut stats = CheckStats::new();
    let cycles = workload
        .blocks
        .iter()
        .map(|block| {
            i64::from(
                scheduler
                    .schedule_reusing(block, &mut scratch, &mut stats)
                    .length,
            )
        })
        .sum();
    (cycles, workload.total_ops as u64)
}

/// The `u64` a reply's `result.hash` hex string decodes to.
pub fn reply_hash(reply: &Reply) -> u64 {
    let hex = reply
        .body
        .get("result")
        .and_then(|r| r.get("hash"))
        .and_then(Json::as_str)
        .expect("result.hash");
    u64::from_str_radix(hex, 16).expect("hash hex")
}

/// Polls the daemon's `stats` verb until `pred` holds (or panics after
/// ~5s) — for synchronizing on queue state without sleeps in the happy
/// path.
pub fn wait_for_stats(addr: &BindAddr, pred: impl Fn(&Json) -> bool) {
    let mut conn = TestConn::open(addr);
    for _ in 0..500 {
        let reply = conn.round_trip("{\"id\": 0, \"verb\": \"stats\"}");
        let result = reply.body.get("result").expect("stats result").clone();
        if pred(&result) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stats condition never became true");
}
