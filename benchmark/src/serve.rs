//! `serve_small` and `serve_reload`: a child `mdesc serve --machine all
//! --workers 2` under open-loop load.
//!
//! The generator is two threads on two connections: the main thread
//! sends `schedule` requests on one id-tagged (protocol v2) connection
//! at seeded Poisson times and drives a second, control connection
//! (`reload`, `stats`) without blocking; a receiver thread reads the
//! replies.  Latency runs from each request's *due* time, so a stalled
//! daemon or a late generator both show.  The generator keeps at most
//! the daemon's default admission-queue capacity of requests in flight,
//! as a client honouring that limit would: a stall then makes requests
//! late instead of shed, so no request fails.  Every reply is recomputed
//! locally after the timed phases.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdes_benchmark::arrivals::{poisson_offsets, request_seed};
use mdes_benchmark::expected::digest;
use mdes_benchmark::ladder::{self, StepResult};
use mdes_benchmark::report::Report;
use mdes_benchmark::stats::{median, percentile, supports, window_percentiles, MIN_WINDOW};
use mdes_benchmark::trace::{mean_self_us, self_by_name, Tracer};
use mdes_core::{lmdes, CheckStats, CompiledMdes, UsageEncoding};
use mdes_engine::Engine;
use mdes_guard::{optimize_guarded, vet_image, GuardConfig};
use mdes_machines::Machine;
use mdes_opt::pipeline::PipelineConfig;
use mdes_sched::{ListScheduler, SchedScratch};
use mdes_serve::proto::{obj, ok_response, parse_frame, parse_reply, Reply};
use mdes_serve::{compile_machine, compile_source, content_hash, ServeConfig};
use mdes_telemetry::json::Json;
use mdes_telemetry::Telemetry;
use mdes_workload::{generate_compiled_regions, RegionConfig};

use crate::daemon::{self, Daemon, Usage, SHARDS};
use crate::{paper_counts, Args, Checks, SETUP_REPEATS};

/// Request shape: regions per request and mean operations per region.
#[derive(Clone, Copy)]
struct Shape {
    regions: usize,
    mean_ops: usize,
}

const SMALL: Shape = Shape {
    regions: 4,
    mean_ops: 8,
};
const MID: Shape = Shape {
    regions: 64,
    mean_ops: 16,
};
/// `serve_small`'s reference rate, requests per second.
const REFERENCE_RPS: f64 = 4000.0;
/// `serve_reload`'s request rate.
const RELOAD_RPS: f64 = 200.0;
const WARMUP: Duration = Duration::from_secs(1);
/// Ladder step length.
const STEP: Duration = Duration::from_millis(250);
const RELOAD_EVERY: Duration = Duration::from_millis(500);
const STATS_EVERY: Duration = Duration::from_millis(100);
/// Requests replayed in process for the per-layer split.
const REPLAY: usize = 2000;
/// Leading requests whose answers the expected file digests.
const DIGEST_SMALL: usize = 1024;
const DIGEST_MID: usize = 64;
/// How long the daemon may take to answer everything sent.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Latency recorded for a request that failed or was never answered:
/// it misses every limit.
const MISSED: u64 = u64::MAX;

/// A fresh scratch directory inside the output directory (the daemon's
/// socket and the reload sources live here), removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(out_dir: &Path) -> Result<ScratchDir, String> {
        let dir = out_dir.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// A socket path in the directory, made relative to the working
    /// directory when the absolute path would be too long to bind.
    fn socket(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let cwd = std::env::current_dir().unwrap_or_default();
        match path.strip_prefix(&cwd) {
            Ok(relative) if path.as_os_str().len() > 100 => relative.to_path_buf(),
            _ => path,
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts a daemon and adds its start-up time to `times`.
fn start_one(args: &Args, dir: &ScratchDir, times: &mut Vec<f64>) -> Result<Daemon, String> {
    let socket = dir.socket(&format!("d{}.sock", times.len()));
    let (daemon, took) = Daemon::start(&args.mdesc, &socket)?;
    times.push(took.as_secs_f64());
    Ok(daemon)
}

/// Starts and stops daemons until `times` holds [`SETUP_REPEATS`]
/// start-up times, counting `kept` more to come.
fn time_start_ups(
    args: &Args,
    dir: &ScratchDir,
    times: &mut Vec<f64>,
    kept: usize,
) -> Result<(), String> {
    while times.len() + kept < SETUP_REPEATS {
        start_one(args, dir, times)?.stop()?;
    }
    Ok(())
}

/// Starts the daemon the run measures, after timing the start-up of
/// half the others; the rest are timed after the run, so that the
/// set-up times span it.
fn start(args: &Args, dir: &ScratchDir) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    time_start_ups(args, dir, &mut times, SETUP_REPEATS / 2 + 1)?;
    let daemon = start_one(args, dir, &mut times)?;
    Ok((daemon, times))
}

/// One reply as the receiver saw it.
#[derive(Clone, Copy, Debug)]
struct Rec {
    recv: u64,
    /// 0 for success, else the protocol error number (255: undecodable).
    status: u8,
    cycles: u64,
    ops: u64,
    hash: u64,
}

fn decode(line: &str, recv: u64) -> (u32, Rec) {
    let mut rec = Rec {
        recv,
        status: 255,
        cycles: 0,
        ops: 0,
        hash: 0,
    };
    let Ok(reply) = parse_reply(line.trim_end()) else {
        return (u32::MAX, rec);
    };
    if reply.ok {
        let hash = reply
            .body
            .get("result")
            .and_then(|r| r.get("hash"))
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        if let (Some(hash), Some(cycles), Some(ops)) =
            (hash, reply.result_u64("cycles"), reply.result_u64("ops"))
        {
            rec = Rec {
                recv,
                status: 0,
                cycles,
                ops,
                hash,
            };
        }
    } else {
        rec.status = reply.error_num().unwrap_or(255).min(255) as u8;
    }
    (u32::try_from(reply.id).unwrap_or(u32::MAX), rec)
}

/// What the control connection carries.
#[derive(Clone, Debug)]
enum Action {
    Stats,
    Reload { shard: usize, path: String },
}

/// A finished control round trip (times in generator nanoseconds).
struct Done {
    action: Action,
    sent: u64,
    acked: u64,
    reply: Reply,
}

/// The control connection, driven from the sender thread without ever
/// blocking it: one request in flight, its reply polled between sends.
struct Control {
    stream: UnixStream,
    buf: Vec<u8>,
    pending: Option<(Action, u64)>,
    plan: VecDeque<(u64, Action)>,
    done: Vec<Done>,
}

impl Control {
    fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// When the next planned action falls due, if nothing is in flight.
    fn next_due(&self) -> Option<u64> {
        if self.busy() {
            None
        } else {
            self.plan.front().map(|&(due, _)| due)
        }
    }

    /// Collects a finished reply and sends the next due action.
    fn poll(&mut self, epoch: Instant) -> Result<(), String> {
        if self.pending.is_some() {
            let mut chunk = [0u8; 4096];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => return Err("daemon closed the control connection".to_string()),
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("control read: {e}")),
                }
            }
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let acked = epoch.elapsed().as_nanos() as u64;
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                let reply = parse_reply(String::from_utf8_lossy(&line).trim_end())?;
                let (action, sent) = self.pending.take().ok_or("no control request")?;
                self.done.push(Done {
                    action,
                    sent,
                    acked,
                    reply,
                });
            }
        }
        let now = epoch.elapsed().as_nanos() as u64;
        if self.pending.is_none() && self.plan.front().is_some_and(|&(due, _)| due <= now) {
            let (_, action) = self.plan.pop_front().ok_or("empty control plan")?;
            let frame = match &action {
                Action::Stats => "{\"verb\": \"stats\"}\n".to_string(),
                Action::Reload { shard, path } => format!(
                    "{{\"verb\": \"reload\", \"machine\": \"{}\", \"path\": {}}}\n",
                    SHARDS[*shard],
                    Json::Str(path.clone()).render()
                ),
            };
            self.stream
                .write_all(frame.as_bytes())
                .map_err(|e| format!("control write: {e}"))?;
            self.pending = Some((action, epoch.elapsed().as_nanos() as u64));
        }
        Ok(())
    }
}

/// What one sending phase covered.
struct PhaseRun {
    ids: std::ops::Range<usize>,
    inflight_mid: u64,
    inflight_end: u64,
}

/// The open-loop generator.
struct Generator {
    epoch: Instant,
    seed: u64,
    shape: Shape,
    writer: UnixStream,
    received: Arc<AtomicU64>,
    replies: Receiver<(u32, Rec)>,
    receiver: Option<JoinHandle<()>>,
    control: Control,
    /// Requests the generator keeps in flight at most.
    window: u64,
    due: Vec<u64>,
    sent: Vec<u64>,
    recs: Vec<Option<Rec>>,
}

impl Generator {
    fn connect(socket: &Path, seed: u64, shape: Shape) -> Result<Generator, String> {
        let connect = || UnixStream::connect(socket).map_err(|e| format!("connect: {e}"));
        let data = connect()?;
        let reader = BufReader::new(data.try_clone().map_err(|e| e.to_string())?);
        let control = connect()?;
        control.set_nonblocking(true).map_err(|e| e.to_string())?;
        let epoch = Instant::now();
        let received = Arc::new(AtomicU64::new(0));
        let (tx, replies) = mpsc::channel();
        let counter = Arc::clone(&received);
        let receiver = std::thread::spawn(move || receive(reader, epoch, &tx, &counter));
        Ok(Generator {
            epoch,
            seed,
            shape,
            writer: data,
            received,
            replies,
            receiver: Some(receiver),
            control: Control {
                stream: control,
                buf: Vec::new(),
                pending: None,
                plan: VecDeque::new(),
                done: Vec::new(),
            },
            // Each shard's queue holds at most what is in flight, so it
            // never fills.
            window: ServeConfig::default().queue_capacity as u64,
            due: Vec::new(),
            sent: Vec::new(),
            recs: Vec::new(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The frame of request `id`: its own seed, shards in rotation.
    fn line(&self, id: usize) -> String {
        format!(
            "{{\"id\": {id}, \"verb\": \"schedule\", \"regions\": {}, \"mean_ops\": {}, \
             \"seed\": {}, \"jobs\": 1, \"machine\": \"{}\"}}\n",
            self.shape.regions,
            self.shape.mean_ops,
            request_seed(self.seed, id as u64),
            SHARDS[id % SHARDS.len()]
        )
    }

    /// Waits until `due`, serving the control connection meanwhile.
    fn wait_until(&mut self, due: u64) -> Result<(), String> {
        loop {
            self.control.poll(self.epoch)?;
            let now = self.now();
            if now >= due {
                return Ok(());
            }
            let mut nap = due - now;
            if self.control.busy() {
                nap = nap.min(200_000);
            } else if let Some(next) = self.control.next_due() {
                nap = nap.min(next.saturating_sub(now).max(1));
            }
            std::thread::sleep(Duration::from_nanos(nap));
        }
    }

    /// Serves the control connection while `busy` holds, failing after
    /// [`DRAIN_TIMEOUT`].
    fn wait_while(&mut self, busy: impl Fn(&Generator) -> bool) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while busy(self) {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} request(s) unanswered after {DRAIN_TIMEOUT:?}",
                    self.in_flight()
                ));
            }
            self.control.poll(self.epoch)?;
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(())
    }

    /// Sends Poisson arrivals at `rate` for `len` (`stream` names the
    /// phase's arrival stream) with `plan` control actions at offsets
    /// from the phase start, then waits until every request is answered.
    fn phase(
        &mut self,
        rate: f64,
        len: Duration,
        stream: u64,
        plan: Vec<(u64, Action)>,
    ) -> Result<PhaseRun, String> {
        let offsets = poisson_offsets(self.seed, stream, rate, len.as_nanos() as u64);
        let first = self.due.len();
        let lines: Vec<String> = (first..first + offsets.len())
            .map(|id| self.line(id))
            .collect();
        let start = self.now() + 1_000_000;
        self.due.extend(offsets.iter().map(|off| start + off));
        self.control
            .plan
            .extend(plan.into_iter().map(|(off, action)| (start + off, action)));
        let mut inflight_mid = 0;
        for (k, line) in lines.iter().enumerate() {
            self.wait_until(self.due[first + k])?;
            self.wait_while(|gen| gen.in_flight() >= gen.window)?;
            self.writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("daemon stopped reading requests: {e}"))?;
            self.sent.push(self.now());
            if k == lines.len() / 2 {
                inflight_mid = self.in_flight();
            }
        }
        let inflight_end = self.in_flight();
        let end = start + len.as_nanos() as u64;
        self.wait_until(end)?;
        self.control.plan.clear();
        self.drain()?;
        Ok(PhaseRun {
            ids: first..self.due.len(),
            inflight_mid,
            inflight_end,
        })
    }

    fn in_flight(&self) -> u64 {
        (self.sent.len() as u64).saturating_sub(self.received.load(Ordering::SeqCst))
    }

    /// Waits for every reply and the control request in flight.
    fn drain(&mut self) -> Result<(), String> {
        self.wait_while(|gen| gen.in_flight() > 0 || gen.control.busy())?;
        self.recs.resize(self.due.len(), None);
        while let Ok((id, rec)) = self.replies.try_recv() {
            match self.recs.get_mut(id as usize) {
                Some(slot) => *slot = Some(rec),
                None => return Err(format!("reply for unknown request id {id}")),
            }
        }
        Ok(())
    }

    /// A `stats` round trip outside the timed phases.
    fn stats(&mut self) -> Result<Json, String> {
        self.control.plan.push_back((0, Action::Stats));
        self.control.poll(self.epoch)?;
        self.drain()?;
        let done = self.control.done.pop().ok_or("no stats reply")?;
        done.reply
            .body
            .get("result")
            .cloned()
            .ok_or_else(|| "stats reply has no result".to_string())
    }

    /// Latency from due time of each request in `ids`; [`MISSED`] for a
    /// failed or unanswered one.
    fn latencies(&self, ids: std::ops::Range<usize>) -> Vec<u64> {
        ids.map(|id| match self.recs[id] {
            Some(rec) if rec.status == 0 => rec.recv.saturating_sub(self.due[id]),
            _ => MISSED,
        })
        .collect()
    }

    fn failed(&self, ids: std::ops::Range<usize>) -> u64 {
        ids.filter(|&id| !matches!(self.recs[id], Some(rec) if rec.status == 0))
            .count() as u64
    }

    /// Send time minus due time of each request in `ids`, nanoseconds.
    fn lateness(&self, ids: std::ops::Range<usize>) -> Vec<u64> {
        ids.map(|id| self.sent[id].saturating_sub(self.due[id]))
            .collect()
    }

    fn lateness_p99_ms(&self, ids: std::ops::Range<usize>) -> f64 {
        percentile(&sorted(self.lateness(ids)), 0.99).unwrap_or(0) as f64 / 1e6
    }
}

impl Drop for Generator {
    /// Closes both connections, which ends the receiver, and joins it.
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        let _ = self.control.stream.shutdown(Shutdown::Both);
        if let Some(receiver) = self.receiver.take() {
            let _ = receiver.join();
        }
    }
}

fn receive(
    mut reader: BufReader<UnixStream>,
    epoch: Instant,
    tx: &Sender<(u32, Rec)>,
    received: &AtomicU64,
) {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let recv = epoch.elapsed().as_nanos() as u64;
        if tx.send(decode(&line, recv)).is_err() {
            return;
        }
        // Counted after the send, so a drained count implies the record
        // is already in the channel.
        received.fetch_add(1, Ordering::SeqCst);
    }
}

fn ms_at(sorted: &[u64], q: f64) -> f64 {
    match percentile(sorted, q) {
        Some(MISSED) | None => f64::INFINITY,
        Some(ns) => ns as f64 / 1e6,
    }
}

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

fn step_result(gen: &Generator, rate: f64, run: &PhaseRun) -> StepResult {
    let latencies = sorted(gen.latencies(run.ids.clone()));
    StepResult {
        rate,
        sent: run.ids.len() as u64,
        failed: gen.failed(run.ids.clone()),
        p99_ms: ms_at(&latencies, 0.99),
        lateness_p99_ms: gen.lateness_p99_ms(run.ids.clone()),
        inflight_mid: run.inflight_mid,
        inflight_end: run.inflight_end,
    }
}

/// Boot images of the four shards, keyed by the hash the daemon reports.
struct Images {
    by_hash: HashMap<u64, (usize, Arc<CompiledMdes>)>,
    boot: Vec<Arc<CompiledMdes>>,
}

impl Images {
    fn boot() -> Images {
        let mut images = Images {
            by_hash: HashMap::new(),
            boot: Vec::new(),
        };
        for (shard, machine) in Machine::all().into_iter().enumerate() {
            let mdes = compile_machine(machine);
            let bytes = lmdes::write(&mdes);
            images
                .by_hash
                .insert(content_hash(&bytes), (shard, Arc::clone(&mdes)));
            images.boot.push(mdes);
        }
        images
    }

    /// Adds a reloaded source, compiled as the daemon compiles it.
    fn add_source(&mut self, shard: usize, bytes: &[u8]) -> Result<(), String> {
        let mdes = compile_source(bytes, ServeConfig::default().seed)
            .map_err(|e| format!("reload source rejected locally: {}", e.message()))?;
        self.by_hash.insert(content_hash(bytes), (shard, mdes));
        Ok(())
    }
}

/// Recomputes every successful reply's `(cycles, ops)` with the serial
/// list scheduler against the image its hash names, on two threads,
/// and checks that the image belongs to the shard the request named.
fn verify_replies(gen: &Generator, images: &Images, checks: &mut Checks) {
    let (recs, seed, shape) = (&gen.recs, gen.seed, gen.shape);
    let ids: Vec<usize> = (0..recs.len())
        .filter(|&id| matches!(recs[id], Some(rec) if rec.status == 0))
        .collect();
    let check = |id: usize, scratch: &mut SchedScratch| -> Result<(), String> {
        let rec = recs[id].ok_or("no reply")?;
        let (shard, mdes) = images
            .by_hash
            .get(&rec.hash)
            .ok_or_else(|| format!("request {id}: unknown image {:016x}", rec.hash))?;
        if *shard != id % SHARDS.len() {
            return Err(format!(
                "request {id}: answered by shard {}",
                SHARDS[*shard]
            ));
        }
        let want = recompute(mdes, shape, request_seed(seed, id as u64), scratch);
        if want != (rec.cycles, rec.ops) {
            return Err(format!(
                "request {id}: answered {} cycles / {} ops, recomputed {} / {}",
                rec.cycles, rec.ops, want.0, want.1
            ));
        }
        Ok(())
    };
    let halves: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = ids
            .chunks(ids.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut scratch = SchedScratch::new();
                    chunk
                        .iter()
                        .filter_map(|&id| check(id, &mut scratch).err())
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| vec!["verifier panicked".to_string()])
            })
            .collect()
    });
    for why in halves.into_iter().flatten() {
        checks.note(Err(why));
    }
}

/// `(cycles, ops)` of one request, scheduled serially.
fn recompute(
    mdes: &CompiledMdes,
    shape: Shape,
    seed: u64,
    scratch: &mut SchedScratch,
) -> (u64, u64) {
    let config = RegionConfig::new(shape.regions)
        .with_mean_ops(shape.mean_ops)
        .with_seed(seed);
    let workload = generate_compiled_regions(mdes, &config);
    let scheduler = ListScheduler::new(mdes);
    let mut stats = CheckStats::new();
    let cycles: i64 = workload
        .blocks
        .iter()
        .map(|block| {
            i64::from(
                scheduler
                    .schedule_reusing(block, scratch, &mut stats)
                    .length,
            )
        })
        .sum();
    (cycles as u64, workload.total_ops as u64)
}

/// Checks the leading answers against the expected file's digest.
fn check_digest(gen: &Generator, args: &Args, key: &str, count: usize, checks: &mut Checks) {
    let answers: Option<Vec<(u64, u64)>> = (0..count.min(gen.recs.len()))
        .map(|id| {
            gen.recs[id]
                .filter(|r| r.status == 0)
                .map(|r| (r.cycles, r.ops))
        })
        .collect();
    match answers {
        Some(answers) => {
            let cycles: u64 = answers.iter().map(|a| a.0).sum();
            let words = answers.iter().flat_map(|&(c, o)| [c, o]);
            checks.total(&args.expected, &format!("{key}.cycles"), cycles);
            let digest = format!("{:016x}", digest(words));
            checks.total(&args.expected, &format!("{key}.digest"), digest);
        }
        None => checks.note(Err(format!("a leading {key} request failed"))),
    }
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The per-layer figures both serving workloads take from the daemon:
/// `server` is its `stats` reply at the end of the measured phase.
/// Returns the client p50 they were compared with, microseconds.
fn serve_layers(
    report: &mut Report,
    gen: &Generator,
    measured: &Measured,
    server: &Json,
    ending: &Ending,
) -> f64 {
    // The daemon's latency ring holds its last 4096 answers.
    let ids = measured.run.ids.clone();
    let from = ids.end.saturating_sub(4096).max(ids.start);
    let client_p50_us =
        percentile(&sorted(gen.latencies(from..ids.end)), 0.5).unwrap_or(0) as f64 / 1e3;
    report.set("serve.server_p50_us", num(server, "p50_us"));
    report.set("serve.server_p99_us", num(server, "p99_us"));
    report.set("serve.outside_us", client_p50_us - num(server, "p50_us"));
    let depth = gen
        .control
        .done
        .iter()
        .filter(|d| matches!(d.action, Action::Stats))
        .filter_map(|d| d.reply.body.get("result"))
        .map(|s| num(s, "queue_depth"))
        .fold(0.0, f64::max);
    report.set("serve.queue_depth_max", depth);
    report.set("serve.cpu_us_per_req", measured.cpu_us_per_req(gen));
    // Over the daemon's life, threads that have exited included.
    let answered = num(&ending.last, "answered").max(1.0);
    report.set(
        "serve.ctx_switches_per_req",
        ending.usage.ctx_switches as f64 / answered,
    );
    report.set("serve.shed", num(&ending.last, "shed"));
    client_p50_us
}

fn stats_plan(len: Duration) -> Vec<(u64, Action)> {
    let every = STATS_EVERY.as_nanos() as u64;
    (1..)
        .map(|k| k * every)
        .take_while(|&at| at < len.as_nanos() as u64)
        .map(|at| (at, Action::Stats))
        .collect()
}

/// How a serving run ended: the daemon's peak memory, lifetime usage,
/// and final counters.
struct Ending {
    memory: daemon::Memory,
    usage: Usage,
    last: Json,
}

impl Ending {
    /// Reads the final counters and memory, then stops the daemon.
    fn stop(gen: &mut Generator, daemon: Daemon) -> Result<Ending, String> {
        let last = gen.stats()?;
        let memory = daemon::memory(&daemon.pid())?;
        let usage = daemon.stop()?;
        let in_flight = num(&last, "in_flight");
        if in_flight != 0.0 {
            return Err(format!(
                "daemon reports {in_flight} request(s) in flight at the end"
            ));
        }
        Ok(Ending {
            memory,
            usage,
            last,
        })
    }
}

/// The fixed-rate, measured part of a serving run.
struct Measured {
    run: PhaseRun,
    /// Daemon CPU time spent in it, microseconds.
    cpu_us: u64,
    /// Traced runs only: the `stats`-sampling half's p50 over the plain
    /// half's, minus one.
    overhead: Option<f64>,
}

impl Measured {
    /// Sends `len` at `rate` with the control `plan`.  A traced run
    /// splits it into a plain half and a half that also samples `stats`.
    fn run(
        gen: &mut Generator,
        pid: &str,
        rate: f64,
        len: Duration,
        traced: bool,
        plan: Vec<(u64, Action)>,
    ) -> Result<Measured, String> {
        let cpu_before = daemon::cpu_us(pid)?;
        let (run, overhead) = if traced {
            let half = len / 2;
            let cut = half.as_nanos() as u64;
            let (first, second): (Vec<_>, Vec<_>) = plan.into_iter().partition(|(at, _)| *at < cut);
            let mut second: Vec<_> = second.into_iter().map(|(at, a)| (at - cut, a)).collect();
            second.extend(stats_plan(half));
            second.sort_by_key(|&(at, _)| at);
            let plain = gen.phase(rate, half, 2, first)?;
            let sampled = gen.phase(rate, half, 3, second)?;
            let p50 = |run: &PhaseRun| ms_at(&sorted(gen.latencies(run.ids.clone())), 0.5);
            let overhead = p50(&sampled) / p50(&plain) - 1.0;
            let run = PhaseRun {
                ids: plain.ids.start..sampled.ids.end,
                inflight_mid: plain.inflight_mid,
                inflight_end: sampled.inflight_end,
            };
            (run, Some(overhead))
        } else {
            (gen.phase(rate, len, 2, plan)?, None)
        };
        let cpu_us = daemon::cpu_us(pid)?.saturating_sub(cpu_before);
        Ok(Measured {
            run,
            cpu_us,
            overhead,
        })
    }

    /// Daemon CPU microseconds per answered request.
    fn cpu_us_per_req(&self, gen: &Generator) -> f64 {
        let answered = self.run.ids.len() as u64 - gen.failed(self.run.ids.clone());
        self.cpu_us as f64 / answered.max(1) as f64
    }
}

/// The median, over the windows of [`window_percentiles`], of each
/// window's `q` latency in milliseconds: a stall confined to one window
/// moves the result by one rank instead of setting it.
fn windowed_ms(gen: &Generator, ids: std::ops::Range<usize>, q: f64) -> f64 {
    let latencies = gen.latencies(ids);
    let per: Vec<f64> = window_percentiles(&latencies, q)
        .into_iter()
        .map(|ns| {
            if ns == MISSED {
                f64::INFINITY
            } else {
                ns as f64 / 1e6
            }
        })
        .collect();
    median(&per).unwrap_or(f64::INFINITY)
}

/// The end-to-end metrics both serving workloads report.
fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    gen: &Generator,
    measured: &Measured,
    ending: &Ending,
    images: &Images,
) {
    let ids = measured.run.ids.clone();
    if ids.len() < MIN_WINDOW {
        println!("warning: the p99 rests on {} samples", ids.len());
    }
    report.set("setup_s", median(setup_s).unwrap_or(f64::NAN));
    report.set("work_per_s", 1e6 / measured.cpu_us_per_req(gen));
    report.set("p50_ms", windowed_ms(gen, ids.clone(), 0.5));
    report.set("p99_ms", windowed_ms(gen, ids, 0.99));
    report.set("peak_rss_mb", ending.memory.hwm_kb as f64 / 1024.0);
    paper_counts(images.boot.iter().map(|mdes| &**mdes), report);
}

pub fn run_small(args: &Args) -> Result<Report, String> {
    let dir = ScratchDir::new(&args.out_dir)?;
    let (mut daemon, mut setup_s) = start(args, &dir)?;
    let mut gen = Generator::connect(daemon.socket(), args.seed, SMALL)?;
    let warm = gen.phase(REFERENCE_RPS, WARMUP, 1, Vec::new())?;

    // The reference step takes 60% of the measured time, the ladder the
    // rest.
    let measured = Measured::run(
        &mut gen,
        &daemon.pid(),
        REFERENCE_RPS,
        args.measured().mul_f64(0.6),
        args.traced,
        Vec::new(),
    )?;
    let reference = &measured.run;
    // Latency runs from the due time, so a late generator stays in the
    // numbers; the warning says they are less trustworthy.
    let late_ms = gen.lateness_p99_ms(reference.ids.clone());
    if late_ms > ladder::LATENESS_LIMIT_MS {
        println!("warning: the generator ran {late_ms:.3} ms late at p99 on the reference step");
    }
    let server = gen.stats()?;
    let mut steps = vec![step_result(&gen, REFERENCE_RPS, reference)];
    daemon.check_alive()?;

    let max_steps = (args.measured().mul_f64(0.4).as_secs_f64() / STEP.as_secs_f64()) as usize;
    for k in 1..=max_steps.max(ladder::MISSES_TO_STOP) {
        if ladder::should_stop(&steps) {
            break;
        }
        let rate = ladder::step_rate(REFERENCE_RPS, k);
        let run = gen.phase(rate, STEP, 10 + k as u64, Vec::new())?;
        steps.push(step_result(&gen, rate, &run));
        daemon.check_alive()?;
    }
    for step in &steps {
        println!(
            "step {:.0} rps: p99 {:.3} ms, failed {}, lateness p99 {:.3} ms, in flight {} -> {}{}",
            step.rate,
            step.p99_ms,
            step.failed,
            step.lateness_p99_ms,
            step.inflight_mid,
            step.inflight_end,
            if step.meets_limit() { "" } else { "  (misses)" }
        );
    }
    let ending = Ending::stop(&mut gen, daemon)?;
    time_start_ups(args, &dir, &mut setup_s, 0)?;

    let mut checks = Checks::default();
    let images = Images::boot();
    verify_replies(&gen, &images, &mut checks);
    check_digest(&gen, args, "serve_small", DIGEST_SMALL, &mut checks);

    let mut report = Report::default();
    let fixed_rate = warm.ids.start..reference.ids.end;
    report.attempted = fixed_rate.len() as u64;
    report.failed = gen.failed(fixed_rate);
    if let Some(overhead) = measured.overhead {
        report.set("trace.overhead_share", overhead);
        report.set("serve.max_rps", ladder::max_rps(&steps).unwrap_or(0.0));
        report.set("serve.ladder_steps", steps.len() as f64);
        report.set("gen.lateness_p99_ms", steps[0].lateness_p99_ms);
        let client_p50 = serve_layers(&mut report, &gen, &measured, &server, &ending);
        let mut tracer = args.tracer();
        let ids = reference.ids.end - REPLAY.min(reference.ids.len())..reference.ids.end;
        replay(&gen, &images, ids, &mut tracer, &mut report)?;
        let sum: f64 = [
            "serve.parse_us",
            "workload.gen_us",
            "engine.replay_us",
            "serve.render_us",
            "serve.outside_us",
        ]
        .iter()
        .map(|name| report.get(name).unwrap_or(0.0))
        .sum();
        println!(
            "reconcile: parse + gen + engine + render + outside = {sum:.1} us \
             against client p50 {client_p50:.1} us ({:+.1}%)",
            (sum / client_p50 - 1.0) * 100.0
        );
        for step in &steps {
            println!(
                "metric serve_small/serve.step.{:.0}.p99_ms = {} ms",
                step.rate, step.p99_ms
            );
        }
        args.write_trace(&tracer)?;
    }
    end_to_end(&mut report, &setup_s, &gen, &measured, &ending, &images);
    report.correct = checks.passed();
    Ok(report)
}

/// Replays request lines in process through the daemon's own steps —
/// frame parse, region generation, engine call, reply render — under
/// spans, plus a serial schedule of the same blocks to isolate the
/// engine's per-call cost.
fn replay(
    gen: &Generator,
    images: &Images,
    ids: std::ops::Range<usize>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut scratch = SchedScratch::new();
    for id in ids {
        let line = gen.line(id);
        let item = id as u32;
        let frame = tracer
            .time("serve.parse", item, || parse_frame(line.trim_end()))
            .map_err(|e| e.message)?;
        let mdes = &images.boot[id % SHARDS.len()];
        let mdes_serve::Request::Schedule { params, .. } = frame.request else {
            return Err("replayed frame is not `schedule`".to_string());
        };
        let config = RegionConfig::new(params.regions)
            .with_mean_ops(params.mean_ops)
            .with_seed(params.seed);
        let workload = tracer.time("workload.gen", item, || {
            generate_compiled_regions(mdes, &config)
        });
        let outcome = tracer.time("engine.replay", item, || {
            Engine::new(Arc::clone(mdes)).schedule_batch(&workload.blocks, params.jobs)
        });
        tracer.time("sched.serial", item, || {
            let scheduler = ListScheduler::new(mdes);
            let mut stats = CheckStats::new();
            for block in &workload.blocks {
                std::hint::black_box(scheduler.schedule_reusing(block, &mut scratch, &mut stats));
            }
        });
        let reply = tracer.time("serve.render", item, || {
            ok_response(
                frame.reply_id(),
                obj(vec![
                    ("epoch", Json::Num(0.0)),
                    ("hash", Json::Str(format!("{:016x}", 0))),
                    ("regions", Json::Num(outcome.completed() as f64)),
                    ("ops", Json::Num(workload.total_ops as f64)),
                    ("cycles", Json::Num(outcome.total_cycles() as f64)),
                    ("attempts", Json::Num(outcome.stats.attempts as f64)),
                    ("verified", Json::Bool(false)),
                ]),
            )
        });
        std::hint::black_box(reply);
    }
    let totals = self_by_name(tracer.spans());
    for name in [
        "serve.parse",
        "workload.gen",
        "engine.replay",
        "serve.render",
    ] {
        report.set(&format!("{name}_us"), mean_self_us(&totals, name));
    }
    report.set(
        "engine.call_overhead_us",
        mean_self_us(&totals, "engine.replay") - mean_self_us(&totals, "sched.serial"),
    );
    Ok(())
}

pub fn run_reload(args: &Args) -> Result<Report, String> {
    let dir = ScratchDir::new(&args.out_dir)?;
    let (mut daemon, mut setup_s) = start(args, &dir)?;

    // Reload sources: each shard's bundled HMDL with a unique trailing
    // comment, so every reload misses the daemon's content cache.
    let every = RELOAD_EVERY.as_nanos() as u64;
    let reloads = (args.measured().as_nanos() as u64 / every) as usize;
    let mut sources = Vec::with_capacity(reloads);
    let mut plan = Vec::with_capacity(reloads);
    for n in 0..reloads {
        let shard = n % SHARDS.len();
        let text = format!("{}\n// reload {n}\n", Machine::all()[shard].source());
        let path = dir.0.join(format!("reload-{n}.hmdl"));
        std::fs::write(&path, &text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let path = std::fs::canonicalize(&path).map_err(|e| e.to_string())?;
        let path = path.to_string_lossy().into_owned();
        plan.push((every / 2 + n as u64 * every, Action::Reload { shard, path }));
        sources.push((shard, text));
    }

    let mut gen = Generator::connect(daemon.socket(), args.seed, MID)?;
    let warm = gen.phase(RELOAD_RPS, WARMUP, 1, Vec::new())?;
    let pid = daemon.pid();
    let rss_before = daemon::memory(&pid)?.rss_kb;
    let measured = Measured::run(
        &mut gen,
        &pid,
        RELOAD_RPS,
        args.measured(),
        args.traced,
        plan,
    )?;
    let rss_after = daemon::memory(&pid)?.rss_kb;
    daemon.check_alive()?;
    let ids = measured.run.ids.clone();
    let lateness = gen.lateness_p99_ms(ids.clone());
    let server = gen.stats()?;

    let mut checks = Checks::default();
    let mut acks = Vec::new();
    for done in &gen.control.done {
        if let Action::Reload { .. } = done.action {
            let result = done.reply.body.get("result");
            let flag =
                |key: &str| matches!(result.and_then(|r| r.get(key)), Some(Json::Bool(true)));
            checks.expect(
                done.reply.ok && flag("changed") && !flag("cache_hit"),
                || {
                    format!(
                        "reload was not a full promotion: {}",
                        done.reply.body.render()
                    )
                },
            );
            acks.push((done.sent, done.acked));
        }
    }
    checks.expect(!acks.is_empty(), || {
        "no reload was acknowledged".to_string()
    });
    let ending = Ending::stop(&mut gen, daemon)?;
    time_start_ups(args, &dir, &mut setup_s, 0)?;

    let mut images = Images::boot();
    for (shard, text) in &sources {
        images.add_source(*shard, text.as_bytes())?;
    }
    verify_replies(&gen, &images, &mut checks);
    check_digest(&gen, args, "serve_reload", DIGEST_MID, &mut checks);

    let mut report = Report::default();
    let all = warm.ids.start..ids.end;
    report.attempted = all.len() as u64;
    report.failed = gen.failed(all);
    if let Some(overhead) = measured.overhead {
        report.set("trace.overhead_share", overhead);
        report.set("gen.lateness_p99_ms", lateness);
        serve_layers(&mut report, &gen, &measured, &server, &ending);
        let mut reload_ms: Vec<f64> = acks.iter().map(|&(s, a)| (a - s) as f64 / 1e6).collect();
        reload_ms.sort_by(f64::total_cmp);
        report.set(
            "serve.reload_p50_ms",
            percentile(&reload_ms, 0.5).unwrap_or(0.0),
        );
        let overlapping = sorted(
            ids.filter(|&id| {
                let end = gen.recs[id].map_or(u64::MAX, |r| r.recv);
                acks.iter()
                    .any(|&(sent, acked)| gen.due[id] < acked && end > sent)
            })
            .map(|id| gen.latencies(id..id + 1)[0])
            .collect(),
        );
        if !supports(overlapping.len(), 0.9) {
            println!(
                "warning: the reload-overlap p90 rests on {} samples",
                overlapping.len()
            );
        }
        report.set("serve.reload_overlap_p90_ms", ms_at(&overlapping, 0.9));
        report.set("serve.rss_growth_kb", rss_after as f64 - rss_before as f64);
        let mut tracer = args.tracer();
        decompose_reloads(&sources, &mut tracer, &mut report)?;
        args.write_trace(&tracer)?;
    }
    end_to_end(&mut report, &setup_s, &gen, &measured, &ending, &images);
    report.correct = checks.passed();
    Ok(report)
}

/// Runs `compile_source`'s steps on the reload sources in process under
/// spans: front end, static analysis, guarded pipeline, compile, vet.
fn decompose_reloads(
    sources: &[(usize, String)],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let seed = ServeConfig::default().seed;
    for (i, (_, text)) in sources.iter().enumerate() {
        let item = i as u32;
        let root = tracer.enter("serve.compile_source", item);
        let mut spec = tracer
            .time("lang.compile", item, || mdes_lang::compile(text))
            .map_err(|e| e.to_string())?;
        let analysis = tracer.time("analyze.spec", item, || mdes_analyze::analyze_spec(&spec));
        if analysis.has_fatal() {
            return Err("a reload source has a fatal diagnostic".to_string());
        }
        let guarded = tracer.time("guard.pipeline", item, || {
            optimize_guarded(
                &mut spec,
                &PipelineConfig::full(),
                &GuardConfig::oracle(seed),
                &Telemetry::disabled(),
            )
        });
        if !guarded.incidents.is_empty() {
            return Err("the guarded pipeline reported an incident".to_string());
        }
        let mdes = tracer
            .time("core.compile", item, || {
                CompiledMdes::compile(&spec, UsageEncoding::BitVector)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("guard.vet", item, || vet_image(&mdes, seed))
            .map_err(|e| format!("vetting failed: {e}"))?;
        tracer.exit(root);
    }
    let totals = self_by_name(tracer.spans());
    for name in [
        "lang.compile",
        "analyze.spec",
        "guard.pipeline",
        "core.compile",
        "guard.vet",
    ] {
        report.set(&format!("{name}_us"), mean_self_us(&totals, name));
    }
    Ok(())
}
