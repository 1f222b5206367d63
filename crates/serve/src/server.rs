//! The daemon: listeners, connection handling, the worker pool, and the
//! serving statistics.
//!
//! ## Threading model
//!
//! One accept thread, a reader *and* a writer thread per connection, and
//! per shard a fixed pool of request workers draining that shard's
//! [`AdmissionQueue`] — `1 + shards × workers + 2 × connections` threads
//! in all, whatever the requests ask for.  A request runs start to finish
//! on the worker that pops it, against [`WorkerScratch`] that worker
//! builds once and reuses for its whole life; the request's `jobs` field
//! is a hint the daemon does not turn into threads, since the shard pools
//! already run requests in parallel.  Every daemon thread is named
//! (`serve-accept`, `serve-worker`, `serve-reader`, `serve-writer`).
//! The reader frames requests, answers the cheap
//! verbs (`query`, `stats`, `reload`, `shutdown`) through the writer,
//! and for work verbs (`schedule`, `verify`, `poison`) captures the
//! target shard's serving image and pushes a job.  The writer serializes
//! reply lines onto the socket in completion order:
//!
//! * A request carrying an `id` is *pipelined* — the reader admits it
//!   and immediately reads the next frame; the worker hands the finished
//!   reply straight to the writer, so replies may leave out of admission
//!   order and the client correlates them by `id`.
//! * A request without an `id` keeps the v1 contract: the reader blocks
//!   on the worker's rendezvous reply and forwards it before reading the
//!   next frame — strict serial FIFO, byte-identical to v1.
//!
//! ## Sharding
//!
//! A daemon boots one [`Shard`] per served machine, each with its own
//! epoch'd [`ImageStore`], admission queue, worker pool, and counters.
//! Requests route by the optional `machine` field (default: the boot
//! shard), so overload, deadlines, and reloads on one shard cannot
//! disturb another — there is no shared queue to poison and no shared
//! swap point to contend.
//!
//! ## Robustness contract
//!
//! * The serving image for a request is the one current *at admission*;
//!   a concurrent reload never changes an admitted request's answer.
//! * A full shard queue sheds instantly (`overload` + `retry_after_ms`);
//!   nothing waits anywhere unbounded.
//! * A deadline that expires while the job is still queued cancels it at
//!   pop time (`deadline` error) without doing the work.
//! * Worker panics are confined to the request that caused them
//!   (`panic` error); the worker thread survives.
//! * Malformed frames get `parse` errors on the same connection; an
//!   oversized or stalled (slow-loris) partial frame drops only that
//!   connection.  Pipelined jobs already admitted when their connection
//!   dies are still executed and counted (their replies are discarded).
//! * Shutdown stops admissions, then drains: every admitted request is
//!   answered before the daemon exits.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdes_engine::{Engine, WorkerScratch};
use mdes_sched::DepGraph;
use mdes_telemetry::json::Json;
use mdes_telemetry::{LatencyRecorder, Telemetry};
use mdes_workload::{generate_compiled_regions, RegionConfig};

use crate::image::{ImageStore, ReloadOutcome, ServeImage};
use crate::proto::{
    err_response, obj, ok_response, parse_frame, ErrorCode, Request, WorkParams, MAX_FRAME,
};
use crate::queue::{AdmissionQueue, PushError};

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindAddr {
    /// A filesystem Unix socket (removed on shutdown).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:0` (0 picks an ephemeral port).
    Tcp(String),
}

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Request worker threads per shard.
    pub workers: usize,
    /// Admission queue bound; pushes past it shed.
    pub queue_capacity: usize,
    /// How long a *partial* frame may dangle before the connection is
    /// dropped as a slow-loris writer.  Idle connections (no partial
    /// frame) are never timed out.
    pub read_timeout_ms: u64,
    /// Deadline applied to work requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Enables the `poison` verb (deliberate worker panic, for chaos
    /// testing panic isolation).
    pub chaos: bool,
    /// Seed for reload vetting and the reload oracle.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            read_timeout_ms: 2_000,
            default_deadline_ms: None,
            chaos: false,
            seed: 0x5E17E,
        }
    }
}

/// Monotonic serving counters plus the latency reservoir.  Everything is
/// lock-free except the reservoir, which takes one short mutex per
/// answered request.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Work requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Work requests answered (success or error) after admission.
    pub answered: AtomicU64,
    /// Work requests shed by the full queue.
    pub shed: AtomicU64,
    /// Admitted requests cancelled at pop time by their deadline.
    pub deadline_exceeded: AtomicU64,
    /// Jobs that panicked (isolated; answered with a `panic` error).
    pub panics: AtomicU64,
    /// Worker panics reported by the scheduling engine itself.
    pub engine_panics: AtomicU64,
    /// Frames rejected by the codec.
    pub parse_errors: AtomicU64,
    /// Connections dropped for an oversized partial frame.
    pub oversized_frames: AtomicU64,
    /// Connections dropped for a stalled partial frame.
    pub slow_loris_drops: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Successful promotions.
    pub reloads: AtomicU64,
    /// Rejected reloads (old image kept serving).
    pub reload_failures: AtomicU64,
    /// Reloads recognized as byte-identical no-ops.
    pub reload_noops: AtomicU64,
    /// Promotions that skipped recompilation via the content cache.
    pub reload_cache_hits: AtomicU64,
    /// Per-request latency (admission to answer), microseconds.
    pub latency: LatencyRecorder,
}

impl ServeStats {
    fn new() -> ServeStats {
        ServeStats {
            latency: LatencyRecorder::new(4096),
            ..ServeStats::default()
        }
    }

    /// Requests admitted but not (yet) answered.  Zero on a quiescent
    /// daemon; the chaos harness asserts it is zero after drain.
    pub fn in_flight(&self) -> u64 {
        self.admitted
            .load(Ordering::Relaxed)
            .saturating_sub(self.answered.load(Ordering::Relaxed))
    }

    /// The `stats` verb payload.
    pub fn to_json(&self, image: &ServeImage, queue_depth: usize) -> Json {
        let c = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        obj(vec![
            ("admitted", c(&self.admitted)),
            ("answered", c(&self.answered)),
            ("shed", c(&self.shed)),
            ("deadline_exceeded", c(&self.deadline_exceeded)),
            ("panics", c(&self.panics)),
            ("engine_worker_panics", c(&self.engine_panics)),
            ("parse_errors", c(&self.parse_errors)),
            ("oversized_frames", c(&self.oversized_frames)),
            ("slow_loris_drops", c(&self.slow_loris_drops)),
            ("connections", c(&self.connections)),
            ("reloads", c(&self.reloads)),
            ("reload_failures", c(&self.reload_failures)),
            ("reload_noops", c(&self.reload_noops)),
            ("reload_cache_hits", c(&self.reload_cache_hits)),
            ("in_flight", Json::Num(self.in_flight() as f64)),
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("epoch", Json::Num(image.epoch as f64)),
            ("hash", Json::Str(format!("{:016x}", image.hash))),
            ("origin", Json::Str(image.origin.clone())),
            (
                "p50_us",
                Json::Num(self.latency.percentile(0.50).unwrap_or(0) as f64),
            ),
            (
                "p99_us",
                Json::Num(self.latency.percentile(0.99).unwrap_or(0) as f64),
            ),
        ])
    }

    /// Folds the serving counters into a telemetry registry under
    /// `serve/*` (and the engine-panic gate under `engine/*`).  Counters
    /// are always created — a clean run publishes explicit zeros so
    /// metrics consumers can gate on `serve/dropped` and
    /// `engine/worker_panics` being present *and* zero.
    pub fn publish(&self, tel: &Telemetry) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        tel.counter_add("serve/admitted", load(&self.admitted));
        tel.counter_add("serve/answered", load(&self.answered));
        tel.counter_add("serve/shed", load(&self.shed));
        tel.counter_add("serve/deadline_exceeded", load(&self.deadline_exceeded));
        tel.counter_add("serve/panics", load(&self.panics));
        tel.counter_add("serve/parse_errors", load(&self.parse_errors));
        tel.counter_add("serve/oversized_frames", load(&self.oversized_frames));
        tel.counter_add("serve/slow_loris_drops", load(&self.slow_loris_drops));
        tel.counter_add("serve/connections", load(&self.connections));
        tel.counter_add("serve/reloads", load(&self.reloads));
        tel.counter_add("serve/reload_failures", load(&self.reload_failures));
        tel.counter_add("serve/reload_cache_hits", load(&self.reload_cache_hits));
        tel.counter_add("serve/dropped", self.in_flight());
        tel.counter_add("engine/worker_panics", load(&self.engine_panics));
        tel.gauge_set(
            "serve/p50_us",
            self.latency.percentile(0.50).unwrap_or(0) as f64,
        );
        tel.gauge_set(
            "serve/p99_us",
            self.latency.percentile(0.99).unwrap_or(0) as f64,
        );
    }

    /// Publishes the work-path counters under `serve/shard/<name>/*`.
    /// Connection-level counters (parse errors, slow-loris drops, …) are
    /// global by nature and stay under `serve/*`.
    pub fn publish_shard(&self, tel: &Telemetry, name: &str) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let key = |suffix: &str| format!("serve/shard/{name}/{suffix}");
        tel.counter_add(&key("admitted"), load(&self.admitted));
        tel.counter_add(&key("answered"), load(&self.answered));
        tel.counter_add(&key("shed"), load(&self.shed));
        tel.counter_add(&key("deadline_exceeded"), load(&self.deadline_exceeded));
        tel.counter_add(&key("panics"), load(&self.panics));
        tel.counter_add(&key("reloads"), load(&self.reloads));
        tel.counter_add(&key("reload_failures"), load(&self.reload_failures));
        tel.counter_add(&key("reload_cache_hits"), load(&self.reload_cache_hits));
        tel.counter_add(&key("dropped"), self.in_flight());
        tel.gauge_set(
            &key("p50_us"),
            self.latency.percentile(0.50).unwrap_or(0) as f64,
        );
        tel.gauge_set(
            &key("p99_us"),
            self.latency.percentile(0.99).unwrap_or(0) as f64,
        );
    }

    /// The per-shard entry inside the `stats` verb's `shards` object.
    fn to_shard_json(&self, image: &ServeImage, queue_depth: usize) -> Json {
        let c = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        obj(vec![
            ("admitted", c(&self.admitted)),
            ("answered", c(&self.answered)),
            ("shed", c(&self.shed)),
            ("deadline_exceeded", c(&self.deadline_exceeded)),
            ("panics", c(&self.panics)),
            ("reloads", c(&self.reloads)),
            ("reload_failures", c(&self.reload_failures)),
            ("reload_noops", c(&self.reload_noops)),
            ("reload_cache_hits", c(&self.reload_cache_hits)),
            ("in_flight", Json::Num(self.in_flight() as f64)),
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("epoch", Json::Num(image.epoch as f64)),
            ("hash", Json::Str(format!("{:016x}", image.hash))),
            ("origin", Json::Str(image.origin.clone())),
            (
                "p50_us",
                Json::Num(self.latency.percentile(0.50).unwrap_or(0) as f64),
            ),
            (
                "p99_us",
                Json::Num(self.latency.percentile(0.99).unwrap_or(0) as f64),
            ),
        ])
    }
}

/// What a worker executes for one admitted request.
enum JobKind {
    Work {
        params: WorkParams,
        verify: bool,
    },
    /// Chaos: panic on purpose inside the isolation boundary.
    Poison,
}

/// Where a worker delivers a finished reply line.
enum ReplySink {
    /// v1 serial path: the connection reader blocks on this rendezvous
    /// before it reads the next frame.
    Rendezvous(mpsc::SyncSender<String>),
    /// v2 pipelined path: the line goes straight to the connection's
    /// writer thread, in completion order.
    Writer(mpsc::Sender<String>),
}

impl ReplySink {
    /// Delivers the reply.  The connection may have died while the job
    /// ran; the request still counts as answered, so failures to deliver
    /// are deliberately ignored.
    fn send(&self, line: String) {
        match self {
            ReplySink::Rendezvous(tx) => {
                let _ = tx.send(line);
            }
            ReplySink::Writer(tx) => {
                let _ = tx.send(line);
            }
        }
    }
}

struct Job {
    id: u64,
    kind: JobKind,
    /// The serving image captured at admission.
    image: Arc<ServeImage>,
    deadline: Option<Instant>,
    admitted_at: Instant,
    reply: ReplySink,
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to a daemon (client side of the same framing).
    pub(crate) fn connect(addr: &BindAddr) -> std::io::Result<Stream> {
        match addr {
            BindAddr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            BindAddr::Tcp(spec) => TcpStream::connect(spec).map(Stream::Tcp),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// A second handle on the same socket, for the writer thread.
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// One served machine: its own swap point, admission queue, worker
/// pool, and counters.  Isolation between machines falls out of the
/// structure — shards share nothing but the listener.
pub struct Shard {
    /// Routing name (the `machine` field targets this).
    name: String,
    store: Arc<ImageStore>,
    queue: AdmissionQueue<Job>,
    stats: Arc<ServeStats>,
}

impl Shard {
    /// The shard's routing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shard's image store.
    pub fn store(&self) -> &Arc<ImageStore> {
        &self.store
    }

    /// The shard's work-path counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }
}

/// Shared daemon state.
struct Shared {
    /// Boot-order shards; index 0 is the default (v1) routing target.
    shards: Vec<Shard>,
    stats: Arc<ServeStats>,
    config: ServeConfig,
    shutdown: AtomicBool,
}

impl Shared {
    /// Routes a frame's `machine` field to a shard.
    fn shard_for(&self, machine: Option<&str>) -> Option<&Shard> {
        match machine {
            None => self.shards.first(),
            Some(name) => self.shards.iter().find(|shard| shard.name == name),
        }
    }

    /// The `parse` error for a `machine` the daemon does not serve.
    fn unknown_machine(&self, id: u64, name: &str) -> String {
        let served: Vec<&str> = self.shards.iter().map(|s| s.name.as_str()).collect();
        err_response(
            id,
            ErrorCode::Parse,
            &format!(
                "machine `{name}` is not served here (serving: {})",
                served.join(", ")
            ),
            None,
        )
    }
}

/// A running daemon.  Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`] (or send the `shutdown` verb) first and
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: BindAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The resolved bind address (TCP port filled in for `:0` binds).
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// The daemon-wide serving statistics (shared with the daemon
    /// threads).  Per-shard counters live on [`ServerHandle::shards`].
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.shared.stats
    }

    /// The default (boot) shard's image store.
    pub fn store(&self) -> &Arc<ImageStore> {
        &self.shared.shards[0].store
    }

    /// The shards, in boot order (index 0 is the default route).
    pub fn shards(&self) -> &[Shard] {
        &self.shared.shards
    }

    /// A shard by routing name.
    pub fn shard(&self, name: &str) -> Option<&Shard> {
        self.shared.shards.iter().find(|s| s.name == name)
    }

    /// Publishes the daemon-wide counters under `serve/*` plus each
    /// shard's work-path counters under `serve/shard/<name>/*`.
    pub fn publish_stats(&self, tel: &Telemetry) {
        self.shared.stats.publish(tel);
        for shard in &self.shared.shards {
            shard.stats.publish_shard(tel, &shard.name);
        }
    }

    /// Requests shutdown from the owning process, as if a `shutdown`
    /// verb had arrived.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared, &self.addr);
    }

    /// Waits for the daemon to finish (after a `shutdown` verb or
    /// [`ServerHandle::shutdown`]).  Every admitted request is answered
    /// before this returns.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop has exited, so no *new* connection threads can
        // appear; join the ones that exist.
        let connections = std::mem::take(&mut *self.connections.lock().unwrap());
        for conn in connections {
            let _ = conn.join();
        }
        // All connections are gone, so no new pushes: close and drain.
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let BindAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn trigger_shutdown(shared: &Shared, addr: &BindAddr) {
    shared.shutdown.store(true, Ordering::SeqCst);
    for shard in &shared.shards {
        shard.queue.close();
    }
    // Wake the accept loop with a throwaway connection.
    match addr {
        BindAddr::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        BindAddr::Tcp(tcp) => {
            let _ = TcpStream::connect(tcp);
        }
    }
}

/// Binds `addr` and starts a single-shard daemon (the v1 shape): the
/// shard's routing name is the serving image's origin.  Returns once
/// the socket is listening, so a caller may connect immediately.
pub fn serve(
    addr: BindAddr,
    store: Arc<ImageStore>,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let name = store.current().origin.clone();
    serve_sharded(addr, vec![(name, store)], config)
}

/// Binds `addr` and starts the daemon threads with one shard per named
/// store; the first entry is the default routing target.  Returns once
/// the socket is listening, so a caller may connect immediately.
///
/// # Errors
///
/// Fails with `InvalidInput` on an empty or duplicate-named shard list,
/// otherwise propagates socket errors.
pub fn serve_sharded(
    addr: BindAddr,
    stores: Vec<(String, Arc<ImageStore>)>,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    if stores.is_empty() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "a daemon needs at least one shard",
        ));
    }
    for (i, (name, _)) in stores.iter().enumerate() {
        if stores[..i].iter().any(|(seen, _)| seen == name) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("duplicate shard name `{name}`"),
            ));
        }
    }
    let (listener, addr) = match addr {
        BindAddr::Unix(path) => {
            // A stale socket file from a crashed predecessor would make
            // the bind fail; remove it (connect-tested removal is racy
            // and the daemon owns its path by contract).
            let _ = std::fs::remove_file(&path);
            (
                Listener::Unix(UnixListener::bind(&path)?),
                BindAddr::Unix(path),
            )
        }
        BindAddr::Tcp(spec) => {
            let listener = TcpListener::bind(&spec)?;
            let resolved = listener.local_addr()?.to_string();
            (Listener::Tcp(listener), BindAddr::Tcp(resolved))
        }
    };

    let shards = stores
        .into_iter()
        .map(|(name, store)| Shard {
            name,
            store,
            queue: AdmissionQueue::new(config.queue_capacity),
            stats: Arc::new(ServeStats::new()),
        })
        .collect();
    let shared = Arc::new(Shared {
        shards,
        stats: Arc::new(ServeStats::new()),
        config,
        shutdown: AtomicBool::new(false),
    });

    // One worker pool per shard: a wedged or flooded shard keeps its
    // threads busy without starving any other shard's queue.
    let workers = (0..shared.shards.len())
        .flat_map(|shard_index| (0..shared.config.workers.max(1)).map(move |_| shard_index))
        .map(|shard_index| {
            let shared = Arc::clone(&shared);
            spawn_named("serve-worker", move || worker_loop(&shared, shard_index))
        })
        .collect();

    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let shared = Arc::clone(&shared);
        let connections = Arc::clone(&connections);
        let accept_addr = addr.clone();
        spawn_named("serve-accept", move || {
            accept_loop(listener, &accept_addr, &shared, &connections)
        })
    };

    Ok(ServerHandle {
        shared,
        addr,
        accept: Some(accept),
        workers,
        connections,
    })
}

/// Spawns a daemon thread under `name`, so `/proc/<pid>/task/*/comm`
/// and debuggers tell the daemon's threads apart.  Panics, as
/// [`std::thread::spawn`] does, if the OS cannot create the thread.
fn spawn_named(name: &str, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .expect("failed to spawn daemon thread")
}

fn accept_loop(
    listener: Listener,
    addr: &BindAddr,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match &listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let conn_addr = addr.clone();
                let handle = spawn_named("serve-reader", move || {
                    connection_loop(stream, &shared, &conn_addr)
                });
                connections.lock().unwrap().push(handle);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE etc): keep listening.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Granularity of the read loop: how often a blocked read wakes to check
/// the shutdown flag and the slow-loris budget.
const READ_TICK: Duration = Duration::from_millis(100);

fn connection_loop(stream: Stream, shared: &Arc<Shared>, addr: &BindAddr) {
    // The reader keeps `stream`; the writer thread gets a second handle
    // on the same socket and owns all outbound bytes, so pipelined
    // replies can never interleave mid-line with inline ones.
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let (out, out_rx) = mpsc::channel::<String>();
    let writer = spawn_named("serve-writer", move || writer_loop(write_half, out_rx));
    read_loop(stream, &out, shared, addr);
    // Dropping the reader's sender lets the writer exit once every
    // still-running pipelined job has delivered (or dropped) its reply;
    // joining it keeps the drain inside this connection's lifetime.
    drop(out);
    let _ = writer.join();
}

/// Serializes reply lines onto the socket until every sender (the
/// reader plus any in-flight pipelined jobs) is gone.  After a write
/// error the remaining replies are drained and discarded — the jobs
/// still count as answered.
fn writer_loop(mut stream: Stream, replies: mpsc::Receiver<String>) {
    let mut broken = false;
    while let Ok(line) = replies.recv() {
        if !broken && stream.write_all(line.as_bytes()).is_err() {
            broken = true;
        }
    }
}

fn read_loop(
    mut stream: Stream,
    out: &mpsc::Sender<String>,
    shared: &Arc<Shared>,
    addr: &BindAddr,
) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let stats = &shared.stats;
    let mut buf: Vec<u8> = Vec::new();
    let mut partial_since: Option<Instant> = None;
    let mut chunk = [0u8; 4096];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    partial_since = None;
                    let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    if !handle_line(&text, out, shared, addr) {
                        return;
                    }
                }
                if buf.is_empty() {
                    partial_since = None;
                } else {
                    partial_since.get_or_insert_with(Instant::now);
                    if buf.len() > MAX_FRAME {
                        stats.oversized_frames.fetch_add(1, Ordering::Relaxed);
                        let _ = out.send(err_response(
                            0,
                            ErrorCode::Parse,
                            "frame exceeds maximum size; closing connection",
                            None,
                        ));
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if let Some(since) = partial_since {
                    if since.elapsed().as_millis() as u64 >= shared.config.read_timeout_ms {
                        stats.slow_loris_drops.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Handles one complete request line, sending replies through the
/// connection's writer.  Returns `false` when the connection must close
/// (shutdown acknowledged).
fn handle_line(
    line: &str,
    out: &mpsc::Sender<String>,
    shared: &Arc<Shared>,
    addr: &BindAddr,
) -> bool {
    let stats = &shared.stats;
    let frame = match parse_frame(line) {
        Ok(frame) => frame,
        Err(wire) => {
            if wire.code == ErrorCode::Parse {
                stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            }
            let _ = out.send(err_response(wire.id, wire.code, &wire.message, None));
            return true;
        }
    };
    let id = frame.reply_id();
    let shard = match shared.shard_for(frame.machine.as_deref()) {
        Some(shard) => shard,
        None => {
            stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            let name = frame.machine.as_deref().unwrap_or("");
            let _ = out.send(shared.unknown_machine(id, name));
            return true;
        }
    };
    let response = match frame.request {
        Request::Query => {
            let image = shard.store.current();
            ok_response(
                id,
                obj(vec![
                    ("epoch", Json::Num(image.epoch as f64)),
                    ("hash", Json::Str(format!("{:016x}", image.hash))),
                    ("origin", Json::Str(image.origin.clone())),
                    ("machine", Json::Str(shard.name.clone())),
                    ("classes", Json::Num(image.mdes.classes().len() as f64)),
                    ("resources", Json::Num(image.mdes.num_resources() as f64)),
                    ("options", Json::Num(image.mdes.num_options() as f64)),
                ]),
            )
        }
        Request::Stats => {
            let image = shard.store.current();
            let depth: usize = shared.shards.iter().map(|s| s.queue.depth()).sum();
            let body = stats.to_json(&image, depth);
            let shards = shared
                .shards
                .iter()
                .map(|s| {
                    (
                        s.name.clone(),
                        s.stats.to_shard_json(&s.store.current(), s.queue.depth()),
                    )
                })
                .collect();
            let body = match body {
                Json::Obj(mut map) => {
                    map.insert("shards".to_string(), Json::Obj(shards));
                    Json::Obj(map)
                }
                other => other,
            };
            ok_response(id, body)
        }
        Request::Reload { path } => match shard.store.reload_path(&path) {
            Ok(ReloadOutcome::Promoted { image, cache_hit }) => {
                stats.reloads.fetch_add(1, Ordering::Relaxed);
                shard.stats.reloads.fetch_add(1, Ordering::Relaxed);
                if cache_hit {
                    stats.reload_cache_hits.fetch_add(1, Ordering::Relaxed);
                    shard
                        .stats
                        .reload_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                ok_response(
                    id,
                    obj(vec![
                        ("changed", Json::Bool(true)),
                        ("cache_hit", Json::Bool(cache_hit)),
                        ("epoch", Json::Num(image.epoch as f64)),
                        ("hash", Json::Str(format!("{:016x}", image.hash))),
                    ]),
                )
            }
            Ok(ReloadOutcome::Unchanged { epoch, hash }) => {
                stats.reload_noops.fetch_add(1, Ordering::Relaxed);
                shard.stats.reload_noops.fetch_add(1, Ordering::Relaxed);
                ok_response(
                    id,
                    obj(vec![
                        ("changed", Json::Bool(false)),
                        ("cache_hit", Json::Bool(true)),
                        ("epoch", Json::Num(epoch as f64)),
                        ("hash", Json::Str(format!("{hash:016x}"))),
                    ]),
                )
            }
            Err(err) => {
                stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                shard.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                err_response(id, err.code(), err.message(), None)
            }
        },
        Request::Shutdown => {
            let _ = out.send(ok_response(id, obj(vec![("stopping", Json::Bool(true))])));
            trigger_shutdown(shared, addr);
            return false;
        }
        Request::Poison if !shared.config.chaos => err_response(
            id,
            ErrorCode::General,
            "`poison` requires the daemon to run with chaos mode enabled",
            None,
        ),
        Request::Poison => return admit(frame.id, JobKind::Poison, None, out, shard, shared),
        Request::Schedule {
            params,
            deadline_ms,
        } => {
            return admit(
                frame.id,
                JobKind::Work {
                    params,
                    verify: false,
                },
                deadline_ms,
                out,
                shard,
                shared,
            )
        }
        Request::Verify {
            params,
            deadline_ms,
        } => {
            return admit(
                frame.id,
                JobKind::Work {
                    params,
                    verify: true,
                },
                deadline_ms,
                out,
                shard,
                shared,
            )
        }
    };
    let _ = out.send(response);
    true
}

/// Admits a work request to `shard`: captures its serving image and
/// pushes the job.  A request with an `id` returns immediately (the
/// worker routes the reply through the connection writer, possibly out
/// of admission order); a request without one blocks for the worker's
/// rendezvous reply, preserving v1 serial semantics.  Sheds instantly
/// when the shard's queue is full.
fn admit(
    frame_id: Option<u64>,
    kind: JobKind,
    deadline_ms: Option<u64>,
    out: &mpsc::Sender<String>,
    shard: &Shard,
    shared: &Arc<Shared>,
) -> bool {
    let id = frame_id.unwrap_or(0);
    let admitted_at = Instant::now();
    let deadline = deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| admitted_at + Duration::from_millis(ms));
    let (reply, wait) = match frame_id {
        Some(_) => (ReplySink::Writer(out.clone()), None),
        None => {
            let (tx, rx) = mpsc::sync_channel(1);
            (ReplySink::Rendezvous(tx), Some(rx))
        }
    };
    let job = Job {
        id,
        kind,
        image: shard.store.current(),
        deadline,
        admitted_at,
        reply,
    };
    match shard.queue.push(job) {
        Ok(()) => {
            shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
            shard.stats.admitted.fetch_add(1, Ordering::Relaxed);
            if let Some(rx) = wait {
                let line = match rx.recv() {
                    Ok(line) => line,
                    // A worker always replies; reaching this means the
                    // pool died, which the daemon treats as an internal
                    // error.
                    Err(_) => err_response(id, ErrorCode::General, "worker pool unavailable", None),
                };
                let _ = out.send(line);
            }
            true
        }
        Err(PushError::Full(_)) => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shard.stats.shed.fetch_add(1, Ordering::Relaxed);
            // Hint scales with how much work each waiting slot in *this
            // shard's* queue implies.
            let hint = 5 + (shard.queue.depth() as u64 * 10) / shared.config.workers.max(1) as u64;
            let _ = out.send(err_response(
                id,
                ErrorCode::Overload,
                "admission queue full; request shed",
                Some(hint),
            ));
            true
        }
        Err(PushError::Closed(_)) => {
            let _ = out.send(err_response(
                id,
                ErrorCode::General,
                "daemon is shutting down",
                None,
            ));
            false
        }
    }
}

/// One shard worker: pops jobs until the queue closes and drains.  The
/// scheduling scratch lives as long as the thread, so no request
/// allocates a scheduler scratch or statistics of its own.
fn worker_loop(shared: &Arc<Shared>, shard_index: usize) {
    let shard = &shared.shards[shard_index];
    let mut scratch = WorkerScratch::new();
    while let Some(job) = shard.queue.pop() {
        let line = if job
            .deadline
            .is_some_and(|deadline| Instant::now() > deadline)
        {
            shared
                .stats
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            shard
                .stats
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            err_response(
                job.id,
                ErrorCode::Deadline,
                "deadline expired before the job started",
                None,
            )
        } else {
            execute(&job, &mut scratch, &shared.stats, &shard.stats)
        };
        let latency_us = job.admitted_at.elapsed().as_micros() as u64;
        shared.stats.latency.record(latency_us);
        shard.stats.latency.record(latency_us);
        shared.stats.answered.fetch_add(1, Ordering::Relaxed);
        shard.stats.answered.fetch_add(1, Ordering::Relaxed);
        // The connection may have died while we worked; the request
        // still counts as answered.
        job.reply.send(line);
    }
}

/// Runs one job inside the panic-isolation boundary.  A panic may leave
/// `scratch` mid-flight; the engine resets it on entry to the next job.
fn execute(
    job: &Job,
    scratch: &mut WorkerScratch,
    global: &ServeStats,
    shard: &ServeStats,
) -> String {
    let outcome = catch_unwind(AssertUnwindSafe(|| match &job.kind {
        JobKind::Poison => panic!("poison verb"),
        JobKind::Work { params, verify } => {
            run_work(job.id, *params, *verify, &job.image, scratch, global, shard)
        }
    }));
    match outcome {
        Ok(line) => line,
        Err(_) => {
            global.panics.fetch_add(1, Ordering::Relaxed);
            shard.panics.fetch_add(1, Ordering::Relaxed);
            err_response(
                job.id,
                ErrorCode::Panic,
                "job panicked; the panic was isolated to this request",
                None,
            )
        }
    }
}

/// Answers one `schedule` (or, with `verify`, `verify`) request on the
/// calling thread and returns its reply line: generates the request's
/// regions against `image`, schedules them against the caller's
/// long-lived `scratch`, and — for `verify` — replays every schedule
/// through [`mdes_sched::Schedule::verify`] against its dependence graph.
///
/// `params.jobs` is only a hint: the request runs on this one thread, and
/// by the engine's determinism contract the reply is byte-identical for
/// every `jobs` value.  Engine panics are counted in both `global` and
/// `shard`.
pub fn run_work(
    id: u64,
    params: WorkParams,
    verify: bool,
    image: &ServeImage,
    scratch: &mut WorkerScratch,
    global: &ServeStats,
    shard: &ServeStats,
) -> String {
    let config = RegionConfig::new(params.regions)
        .with_mean_ops(params.mean_ops)
        .with_seed(params.seed);
    let workload = generate_compiled_regions(&image.mdes, &config);
    let engine = Engine::new(Arc::clone(&image.mdes));
    let outcome = engine.schedule_serial(&workload.blocks, scratch);
    global
        .engine_panics
        .fetch_add(outcome.worker_panics(), Ordering::Relaxed);
    shard
        .engine_panics
        .fetch_add(outcome.worker_panics(), Ordering::Relaxed);
    if !outcome.is_clean() {
        return err_response(
            id,
            ErrorCode::Panic,
            "a scheduling job panicked inside the engine",
            None,
        );
    }
    if verify {
        for (block, schedule) in workload.blocks.iter().zip(&outcome.schedules) {
            let schedule = schedule.as_ref().expect("clean batch has every schedule");
            let graph = DepGraph::build(block, &image.mdes);
            if let Err(why) = schedule.verify(&graph, &image.mdes) {
                return err_response(
                    id,
                    ErrorCode::General,
                    &format!("schedule failed verification: {why}"),
                    None,
                );
            }
        }
    }
    ok_response(
        id,
        obj(vec![
            ("epoch", Json::Num(image.epoch as f64)),
            ("hash", Json::Str(format!("{:016x}", image.hash))),
            ("regions", Json::Num(outcome.completed() as f64)),
            ("ops", Json::Num(workload.total_ops as f64)),
            ("cycles", Json::Num(outcome.total_cycles() as f64)),
            ("attempts", Json::Num(scratch.stats().attempts as f64)),
            ("verified", Json::Bool(verify)),
        ]),
    )
}
