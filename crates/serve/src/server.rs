//! The daemon: listeners, connection handling, the shard worker pools,
//! and the serving statistics.
//!
//! ## Threading model
//!
//! One accept thread, a reader *and* a writer thread per connection, and
//! per shard a fixed pool of request workers draining that shard's
//! [`AdmissionQueue`] — `1 + shards × workers + 2 × connections` threads
//! in all, whatever the requests ask for.  A request runs start to finish
//! on the worker that pops it, against [`WorkerScratch`] that worker
//! builds once and reuses for its whole life; the request's `jobs` field
//! is a hint the daemon does not turn into threads.  Every daemon thread
//! is named (`serve-accept`, `serve-worker`, `serve-reader`,
//! `serve-writer`).
//!
//! ## One reply path
//!
//! The reader frames requests, answers the cheap verbs (`query`,
//! `stats`, `reload`, `shutdown`) itself, and for work verbs (`schedule`,
//! `verify`, `poison`) captures the target shard's serving image and
//! pushes a job.  Every reply — inline answers, worker replies, sheds and
//! parse errors alike — reaches the socket through the connection's
//! writer thread, in the order it reaches the writer:
//!
//! * A frame carrying an `id` is *pipelined*: the reader handles the next
//!   frame at once, so replies may leave out of admission order and the
//!   client correlates them by `id`.  Its backlog is bounded: once
//!   [`REPLY_WINDOW`] of the connection's replies wait to be written, the
//!   reader treats its next frame as a one-slot window, as below, so a
//!   pipelining client that stops reading stops being read too.
//! * A frame without an `id` is a one-slot window: its reply line is
//!   flagged, the writer reports it written on the acknowledgement
//!   channel made with the connection, and only then does the reader
//!   handle the next frame.  So an id-less client sees strict request
//!   order, byte-identical to v1, a tagged frame after an id-less one
//!   cannot overtake it, and a v1 client that stops reading its replies
//!   stops being read.
//!
//! The reader never waits for a reply that cannot come: every admitted
//! job reaches a worker (closing a queue still drains it), its panic is
//! caught inside the worker's isolation boundary, and the worker sends
//! its reply whatever the job did.
//!
//! ## Sharding and statistics
//!
//! A daemon boots one shard per served machine, each with its own
//! epoch'd [`ImageStore`], admission queue, worker pool, and
//! [`ServeStats`], so overload, deadlines, and reloads on one shard
//! cannot disturb another.  Requests route by the optional `machine`
//! field (default: the boot shard).  The request and reload counters are
//! bumped once, in the shard; the daemon-wide values are summed from one
//! snapshot per shard when read ([`DaemonStats`]).  What belongs to no
//! shard — the connection counters and the daemon-wide latency window —
//! is kept daemon-wide.
//!
//! ## Robustness contract
//!
//! * The serving image for a request is the one current *at admission*;
//!   a concurrent reload never changes an admitted request's answer.
//! * A full shard queue sheds instantly (`overload` + `retry_after_ms`).
//! * A deadline that expires while the job is still queued cancels it at
//!   pop time (`deadline` error) without doing the work.
//! * Worker panics are confined to the request that caused them
//!   (`panic` error); the worker thread survives.
//! * Malformed frames get `parse` errors on the same connection.  An
//!   oversized partial frame, a partial frame stalled past the read
//!   timeout (slow loris), or a reply write that makes no progress for
//!   as long drops only that connection.  Jobs already admitted when
//!   their connection dies still run and count; their replies are
//!   discarded.
//! * Shutdown stops admissions, then drains: every admitted request is
//!   answered before the daemon exits.

use std::cell::Cell;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdes_engine::{Engine, WorkerScratch};
use mdes_sched::Block;
use mdes_telemetry::json::Json;
use mdes_telemetry::{LatencyRecorder, Telemetry};
use mdes_workload::{RegionConfig, RegionGenerator};

use crate::image::{ImageStore, ReloadOutcome, ServeImage};
use crate::proto::{
    err_response, obj, ok_response, parse_frame, ErrorCode, Request, WireError, WorkParams,
    MAX_FRAME,
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
    /// How long a *partial* frame may dangle, or a reply write make no
    /// progress, before the connection is dropped as a slow-loris peer.
    /// Idle connections (no partial frame, no reply waiting to be
    /// written) are never timed out.
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

/// One shard's request and reload counters plus its latency window.
/// Only the shard's own requests and reloads bump them, each counter in
/// one place; a [`DaemonStats`] snapshot reads them and sums them over
/// the shards.  The counters are lock-free; an answered request takes
/// two short reservoir mutexes, this window's and the daemon-wide one's.
#[derive(Debug, Default)]
pub struct ServeStats {
    admitted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
    engine_panics: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    reload_noops: AtomicU64,
    reload_cache_hits: AtomicU64,
    latency: LatencyRecorder,
}

impl ServeStats {
    fn counts(&self) -> WorkCounts {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        WorkCounts {
            admitted: load(&self.admitted),
            answered: load(&self.answered),
            shed: load(&self.shed),
            deadline_exceeded: load(&self.deadline_exceeded),
            panics: load(&self.panics),
            engine_panics: load(&self.engine_panics),
            reloads: load(&self.reloads),
            reload_failures: load(&self.reload_failures),
            reload_noops: load(&self.reload_noops),
            reload_cache_hits: load(&self.reload_cache_hits),
        }
    }
}

/// A shard's request and reload counters at one instant, or their sum
/// over every shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Work requests admitted to the queue.
    pub admitted: u64,
    /// Work requests answered (success or error) after admission.
    pub answered: u64,
    /// Work requests shed by the full queue.
    pub shed: u64,
    /// Admitted requests cancelled at pop time by their deadline.
    pub deadline_exceeded: u64,
    /// Jobs that panicked (isolated; answered with a `panic` error).
    pub panics: u64,
    /// Worker panics reported by the scheduling engine itself.
    pub engine_panics: u64,
    /// Successful promotions.
    pub reloads: u64,
    /// Rejected reloads (old image kept serving).
    pub reload_failures: u64,
    /// Reloads recognized as byte-identical no-ops.
    pub reload_noops: u64,
    /// Promotions that skipped recompilation via the content cache.
    pub reload_cache_hits: u64,
}

impl WorkCounts {
    /// Requests admitted but not (yet) answered.  Zero on a quiescent
    /// daemon; the chaos harness asserts it is zero after drain.
    pub fn in_flight(&self) -> u64 {
        self.admitted.saturating_sub(self.answered)
    }

    fn plus(self, other: &WorkCounts) -> WorkCounts {
        WorkCounts {
            admitted: self.admitted + other.admitted,
            answered: self.answered + other.answered,
            shed: self.shed + other.shed,
            deadline_exceeded: self.deadline_exceeded + other.deadline_exceeded,
            panics: self.panics + other.panics,
            engine_panics: self.engine_panics + other.engine_panics,
            reloads: self.reloads + other.reloads,
            reload_failures: self.reload_failures + other.reload_failures,
            reload_noops: self.reload_noops + other.reload_noops,
            reload_cache_hits: self.reload_cache_hits + other.reload_cache_hits,
        }
    }

    /// The fields a shard entry of `stats` and its daemon-wide line share.
    fn json_fields(
        &self,
        queue_depth: usize,
        image: &ServeImage,
        latency: [u64; 2],
    ) -> Vec<(&'static str, Json)> {
        let n = |v: u64| Json::Num(v as f64);
        vec![
            ("admitted", n(self.admitted)),
            ("answered", n(self.answered)),
            ("shed", n(self.shed)),
            ("deadline_exceeded", n(self.deadline_exceeded)),
            ("panics", n(self.panics)),
            ("reloads", n(self.reloads)),
            ("reload_failures", n(self.reload_failures)),
            ("reload_noops", n(self.reload_noops)),
            ("reload_cache_hits", n(self.reload_cache_hits)),
            ("in_flight", n(self.in_flight())),
            ("queue_depth", n(queue_depth as u64)),
            ("epoch", n(image.epoch)),
            ("hash", Json::Str(format!("{:016x}", image.hash))),
            ("origin", Json::Str(image.origin.clone())),
            ("p50_us", n(latency[0])),
            ("p99_us", n(latency[1])),
        ]
    }

    /// Publishes the counters a shard and the daemon-wide line share
    /// under `prefix`, and the latency percentiles as gauges.
    fn publish(&self, tel: &Telemetry, prefix: &str, latency: [u64; 2]) {
        for (key, value) in [
            ("admitted", self.admitted),
            ("answered", self.answered),
            ("shed", self.shed),
            ("deadline_exceeded", self.deadline_exceeded),
            ("panics", self.panics),
            ("reloads", self.reloads),
            ("reload_failures", self.reload_failures),
            ("reload_noops", self.reload_noops),
            ("reload_cache_hits", self.reload_cache_hits),
            ("dropped", self.in_flight()),
        ] {
            tel.counter_add(&format!("{prefix}{key}"), value);
        }
        tel.gauge_set(&format!("{prefix}p50_us"), latency[0] as f64);
        tel.gauge_set(&format!("{prefix}p99_us"), latency[1] as f64);
    }
}

/// One shard in a [`DaemonStats`] snapshot.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// The shard's routing name.
    pub name: String,
    /// The shard's counters.
    pub counts: WorkCounts,
    /// Jobs waiting in the shard's queue.
    pub queue_depth: usize,
    /// The shard's serving image.
    pub image: Arc<ServeImage>,
    /// p50 and p99 over the shard's latency window, microseconds.
    pub latency_us: [u64; 2],
}

/// The daemon's statistics at one instant: one snapshot per shard, their
/// sum, and what belongs to no shard.  The `stats` verb renders one;
/// [`ServerHandle::join`] returns the final one.
#[derive(Clone, Debug)]
pub struct DaemonStats {
    /// Every shard, in boot order.
    pub shards: Vec<ShardStats>,
    /// The shards' counters, summed.
    pub total: WorkCounts,
    /// Connections accepted.
    pub connections: u64,
    /// Frames rejected by the codec or naming a machine not served.
    pub parse_errors: u64,
    /// Connections dropped for an oversized partial frame.
    pub oversized_frames: u64,
    /// Connections dropped for a stall in either direction: a partial
    /// frame that dangled past the read timeout, or a reply write that
    /// made no progress for as long.
    pub slow_loris_drops: u64,
    /// p50 and p99 over the daemon-wide latency window, microseconds.
    pub latency_us: [u64; 2],
}

impl DaemonStats {
    /// The `stats` verb payload; the daemon-wide line names the image of
    /// shard `routed`, the one the frame was routed to.
    fn to_json(&self, routed: usize) -> Json {
        let depth = self.shards.iter().map(|shard| shard.queue_depth).sum();
        let image = &self.shards[routed].image;
        let mut fields = self.total.json_fields(depth, image, self.latency_us);
        let n = |v: u64| Json::Num(v as f64);
        let shards = self.shards.iter().map(|shard| {
            let fields =
                shard
                    .counts
                    .json_fields(shard.queue_depth, &shard.image, shard.latency_us);
            (shard.name.clone(), obj(fields))
        });
        fields.extend([
            ("engine_worker_panics", n(self.total.engine_panics)),
            ("parse_errors", n(self.parse_errors)),
            ("oversized_frames", n(self.oversized_frames)),
            ("slow_loris_drops", n(self.slow_loris_drops)),
            ("connections", n(self.connections)),
            ("shards", Json::Obj(shards.collect())),
        ]);
        obj(fields)
    }

    /// Publishes the daemon-wide counters under `serve/*` (and the
    /// engine-panic gate under `engine/*`) plus each shard's under
    /// `serve/shard/<name>/*`.  Counters are always created — a clean run
    /// publishes explicit zeros so metrics consumers can gate on
    /// `serve/dropped` and `engine/worker_panics` being present *and*
    /// zero.
    pub fn publish(&self, tel: &Telemetry) {
        self.total.publish(tel, "serve/", self.latency_us);
        for (key, value) in [
            ("serve/parse_errors", self.parse_errors),
            ("serve/oversized_frames", self.oversized_frames),
            ("serve/slow_loris_drops", self.slow_loris_drops),
            ("serve/connections", self.connections),
            ("engine/worker_panics", self.total.engine_panics),
        ] {
            tel.counter_add(key, value);
        }
        for shard in &self.shards {
            let prefix = format!("serve/shard/{}/", shard.name);
            shard.counts.publish(tel, &prefix, shard.latency_us);
        }
    }
}

/// p50 and p99 over `latency`'s window (zeros before the first sample).
fn percentiles(latency: &LatencyRecorder) -> [u64; 2] {
    [0.50, 0.99].map(|q| latency.percentile(q).unwrap_or(0))
}

/// What belongs to no shard: the connection counters, and the daemon-wide
/// latency window (see [`DaemonStats`] for each counter's meaning).
#[derive(Debug, Default)]
struct ConnectionStats {
    connections: AtomicU64,
    parse_errors: AtomicU64,
    oversized_frames: AtomicU64,
    slow_loris_drops: AtomicU64,
    latency: LatencyRecorder,
}

/// One admitted work request (`schedule`, `verify`, or chaos `poison`).
struct Job {
    id: u64,
    request: Request,
    /// The serving image captured at admission.
    image: Arc<ServeImage>,
    deadline: Option<Instant>,
    admitted_at: Instant,
    /// The connection's writer.
    reply: mpsc::Sender<Line>,
    /// The reader awaits this reply's write: the frame was id-less, or
    /// its connection's backlog had reached [`REPLY_WINDOW`].
    ack: bool,
}

/// One reply line on its way to the connection's writer.
struct Line {
    text: String,
    /// Report the line written (or discarded) on the connection's
    /// acknowledgement channel: the reader is waiting for it.
    ack: bool,
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

    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(timeout),
            Stream::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// Shuts the socket down both ways, for every handle on it.
    fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
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
struct Shard {
    /// Routing name (the `machine` field targets this).
    name: String,
    store: Arc<ImageStore>,
    queue: AdmissionQueue<Job>,
    stats: ServeStats,
}

/// Shared daemon state.
struct Shared {
    /// Boot-order shards; index 0 is the default (v1) routing target.
    shards: Vec<Shard>,
    stats: ConnectionStats,
    config: ServeConfig,
    shutdown: AtomicBool,
}

impl Shared {
    /// Routes a frame's `machine` field to a shard index; naming a
    /// machine the daemon does not serve is a `parse` error.
    fn route(&self, id: u64, machine: Option<&str>) -> Result<usize, WireError> {
        let Some(name) = machine else { return Ok(0) };
        self.shards
            .iter()
            .position(|shard| shard.name == name)
            .ok_or_else(|| {
                let served: Vec<&str> = self.shards.iter().map(|s| s.name.as_str()).collect();
                WireError {
                    id,
                    code: ErrorCode::Parse,
                    message: format!(
                        "machine `{name}` is not served here (serving: {})",
                        served.join(", ")
                    ),
                }
            })
    }

    /// Reads every shard once and sums their counters, so a snapshot's
    /// shard entries always add up to its daemon-wide line.
    fn snapshot(&self) -> DaemonStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .map(|shard| ShardStats {
                name: shard.name.clone(),
                counts: shard.stats.counts(),
                queue_depth: shard.queue.depth(),
                image: shard.store.current(),
                latency_us: percentiles(&shard.stats.latency),
            })
            .collect();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DaemonStats {
            total: shards
                .iter()
                .fold(WorkCounts::default(), |sum, shard| sum.plus(&shard.counts)),
            shards,
            connections: load(&self.stats.connections),
            parse_errors: load(&self.stats.parse_errors),
            oversized_frames: load(&self.stats.oversized_frames),
            slow_loris_drops: load(&self.stats.slow_loris_drops),
            latency_us: percentiles(&self.stats.latency),
        }
    }
}

/// A running daemon.  Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`] (or send the `shutdown` verb) first and
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: BindAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The resolved bind address (TCP port filled in for `:0` binds).
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Requests shutdown from the owning process, as if a `shutdown`
    /// verb had arrived.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared, &self.addr);
    }

    /// Waits for the daemon to finish (after a `shutdown` verb or
    /// [`ServerHandle::shutdown`]) and returns its final statistics.
    /// Every admitted request is answered before this returns.
    pub fn join(self) -> DaemonStats {
        let _ = self.accept.join();
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
        for worker in self.workers {
            let _ = worker.join();
        }
        if let BindAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        self.shared.snapshot()
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
            stats: ServeStats::default(),
        })
        .collect();
    let shared = Arc::new(Shared {
        shards,
        stats: ConnectionStats::default(),
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
        accept,
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
                let mut live = connections.lock().unwrap();
                // A finished reader keeps its stack mapped until it is
                // joined: reap closed connections, so a long-lived daemon
                // does not grow with every connection it has served.
                let mut i = 0;
                while i < live.len() {
                    if live[i].is_finished() {
                        let _ = live.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                live.push(handle);
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

/// The most replies a connection may have waiting for its writer (queued
/// jobs included) before the reader waits on the next frame's reply as
/// it does on an id-less frame's.  Every handled frame yields exactly one
/// reply line, so the backlog is the reader's frame count less the lines
/// the writer has written or discarded, and never exceeds this plus one.
/// It sits far above the pipelining depth of every client in this
/// repository (the end-to-end benchmark keeps at most 64 requests in
/// flight), so those clients never meet it.
pub const REPLY_WINDOW: u64 = 1024;

fn connection_loop(stream: Stream, shared: &Arc<Shared>, addr: &BindAddr) {
    // The reader keeps `stream`; the writer thread gets a second handle
    // on the same socket and owns all outbound bytes, so replies can
    // never interleave mid-line.
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let stall = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    let _ = write_half.set_write_timeout(Some(stall));
    let (out, lines) = mpsc::channel();
    let (written_tx, written) = mpsc::sync_channel(1);
    let done = Arc::new(AtomicU64::new(0));
    let writer = {
        let (shared, done) = (Arc::clone(shared), Arc::clone(&done));
        spawn_named("serve-writer", move || {
            writer_loop(write_half, lines, &written_tx, &done, &shared.stats)
        })
    };
    let replies = Replies {
        out,
        written,
        done,
        frames: Cell::new(0),
    };
    read_loop(stream, &replies, shared, addr);
    // Dropping the reader's sender lets the writer exit once every
    // still-running job has delivered its reply; joining it keeps the
    // drain inside this connection's lifetime.
    drop(replies);
    let _ = writer.join();
}

/// Writes reply lines onto the socket in the order they arrive, until
/// every sender (the reader and any admitted job) is gone.  Each line is
/// counted in `done` once it is written or discarded, and then reported
/// on `written` if it is flagged.  A write that makes no progress for
/// the read timeout — a client that stopped reading — counts as a
/// slow-loris drop and shuts the socket down both ways, which ends the
/// reader too.  After any write error the remaining lines are
/// discarded; their jobs still count as answered.
fn writer_loop(
    mut stream: Stream,
    lines: mpsc::Receiver<Line>,
    written: &mpsc::SyncSender<()>,
    done: &AtomicU64,
    stats: &ConnectionStats,
) {
    let mut broken = false;
    for line in lines {
        if !broken {
            if let Err(e) = stream.write_all(line.text.as_bytes()) {
                broken = true;
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    stats.slow_loris_drops.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown();
                }
            }
        }
        done.fetch_add(1, Ordering::Relaxed);
        if line.ack {
            // At most one flagged line is outstanding, so the slot is
            // free; a reader that has gone no longer needs the report.
            let _ = written.send(());
        }
    }
}

/// The reader's end of a connection's reply path.
struct Replies {
    /// Lines to the connection's writer; every admitted job holds a clone.
    out: mpsc::Sender<Line>,
    /// The writer's reports that a flagged line was written.
    written: mpsc::Receiver<()>,
    /// Lines the writer has written or discarded.
    done: Arc<AtomicU64>,
    /// Frames the reader has handled, each one reply line.
    frames: Cell<u64>,
}

impl Replies {
    /// Counts a frame about to be handled and says whether to flag its
    /// reply and settle on it: always for an id-less frame, and for a
    /// tagged one once [`REPLY_WINDOW`] replies wait to be written.
    fn window(&self, idless: bool) -> bool {
        let frames = self.frames.get();
        self.frames.set(frames + 1);
        // `done` publishes nothing else, and only grows: a stale read
        // overstates the backlog, at worst settling one frame early.
        idless || frames.saturating_sub(self.done.load(Ordering::Relaxed)) >= REPLY_WINDOW
    }

    /// After a flagged frame (`ack`, see [`Replies::window`]), waits until
    /// the writer reports the frame's reply written.  False once the
    /// writer is gone.
    fn settle(&self, ack: bool) -> bool {
        !ack || self.written.recv().is_ok()
    }

    /// Hands a reply line to the writer, then settles it.  The writer
    /// outlives every sender, so the send cannot fail.
    fn send(&self, text: String, ack: bool) -> bool {
        let _ = self.out.send(Line { text, ack });
        self.settle(ack)
    }
}

fn read_loop(mut stream: Stream, replies: &Replies, shared: &Arc<Shared>, addr: &BindAddr) {
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
                // Each frame is parsed where it lies in `buf`; the
                // consumed prefix is drained once per read.
                let mut start = 0;
                while let Some(len) = buf[start..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&buf[start..start + len]);
                    start += len + 1;
                    if !handle_line(&line, replies, shared, addr) {
                        return;
                    }
                }
                buf.drain(..start);
                if start > 0 {
                    partial_since = None;
                }
                if !buf.is_empty() {
                    partial_since.get_or_insert_with(Instant::now);
                    if buf.len() > MAX_FRAME {
                        stats.oversized_frames.fetch_add(1, Ordering::Relaxed);
                        let message = "frame exceeds maximum size; closing connection";
                        replies.send(err_response(0, ErrorCode::Parse, message, None), false);
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

/// Handles one complete request line: answers it, or admits its job,
/// through `replies`.  Returns `false` when the connection must close
/// (shutdown acknowledged or under way).
fn handle_line(line: &str, replies: &Replies, shared: &Arc<Shared>, addr: &BindAddr) -> bool {
    let routed = parse_frame(line).and_then(|frame| {
        let index = shared.route(frame.reply_id(), frame.machine.as_deref())?;
        Ok((frame, index))
    });
    let (frame, index) = match routed {
        Ok(routed) => routed,
        Err(wire) => {
            if wire.code == ErrorCode::Parse {
                shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            }
            // Id 0: the frame was id-less, or its id was not recoverable.
            let text = err_response(wire.id, wire.code, &wire.message, None);
            return replies.send(text, replies.window(wire.id == 0));
        }
    };
    let (id, ack) = (frame.reply_id(), replies.window(frame.id.is_none()));
    let shard = &shared.shards[index];
    let text = match frame.request {
        Request::Schedule { deadline_ms, .. } | Request::Verify { deadline_ms, .. } => {
            return admit(id, ack, frame.request, deadline_ms, replies, shard, shared);
        }
        Request::Poison if shared.config.chaos => {
            return admit(id, ack, frame.request, None, replies, shard, shared);
        }
        Request::Poison => {
            let message = "`poison` requires the daemon to run with chaos mode enabled";
            err_response(id, ErrorCode::General, message, None)
        }
        Request::Query => {
            let image = shard.store.current();
            let result = obj(vec![
                ("epoch", Json::Num(image.epoch as f64)),
                ("hash", Json::Str(format!("{:016x}", image.hash))),
                ("origin", Json::Str(image.origin.clone())),
                ("machine", Json::Str(shard.name.clone())),
                ("classes", Json::Num(image.mdes.classes().len() as f64)),
                ("resources", Json::Num(image.mdes.num_resources() as f64)),
                ("options", Json::Num(image.mdes.num_options() as f64)),
            ]);
            ok_response(id, result)
        }
        Request::Stats => ok_response(id, shared.snapshot().to_json(index)),
        Request::Reload { ref path } => reload(id, path, shard),
        Request::Shutdown => {
            let result = obj(vec![("stopping", Json::Bool(true))]);
            replies.send(ok_response(id, result), false);
            trigger_shutdown(shared, addr);
            return false;
        }
    };
    replies.send(text, ack)
}

/// Reloads `shard` from `path` and renders the reply.
fn reload(id: u64, path: &str, shard: &Shard) -> String {
    let stats = &shard.stats;
    match shard.store.reload_path(path) {
        Ok(ReloadOutcome::Promoted { image, cache_hit }) => {
            stats.reloads.fetch_add(1, Ordering::Relaxed);
            if cache_hit {
                stats.reload_cache_hits.fetch_add(1, Ordering::Relaxed);
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
            err_response(id, err.code(), err.message(), None)
        }
    }
}

/// Admits a work request to `shard`: captures its serving image and
/// pushes the job, whose worker hands the reply to the connection's
/// writer.  Sheds instantly when the shard's queue is full.
fn admit(
    id: u64,
    ack: bool,
    request: Request,
    deadline_ms: Option<u64>,
    replies: &Replies,
    shard: &Shard,
    shared: &Shared,
) -> bool {
    let admitted_at = Instant::now();
    let deadline = deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| admitted_at + Duration::from_millis(ms));
    let job = Job {
        id,
        request,
        image: shard.store.current(),
        deadline,
        admitted_at,
        reply: replies.out.clone(),
        ack,
    };
    match shard.queue.push(job) {
        Ok(()) => {
            shard.stats.admitted.fetch_add(1, Ordering::Relaxed);
            replies.settle(ack)
        }
        Err(PushError::Full(_)) => {
            shard.stats.shed.fetch_add(1, Ordering::Relaxed);
            // Hint scales with how much work each waiting slot in *this
            // shard's* queue implies.
            let hint = 5 + (shard.queue.depth() as u64 * 10) / shared.config.workers.max(1) as u64;
            let message = "admission queue full; request shed";
            replies.send(
                err_response(id, ErrorCode::Overload, message, Some(hint)),
                ack,
            )
        }
        Err(PushError::Closed(_)) => {
            let message = "daemon is shutting down";
            replies.send(err_response(id, ErrorCode::General, message, None), false);
            false
        }
    }
}

/// One shard worker: pops jobs until the queue closes and drains, and
/// sends every job's reply, whatever the job did.  The scheduling scratch
/// lives as long as the thread, so no request allocates a scheduler
/// scratch or statistics of its own.
fn worker_loop(shared: &Arc<Shared>, shard_index: usize) {
    let shard = &shared.shards[shard_index];
    let mut scratch = WorkerScratch::new();
    while let Some(job) = shard.queue.pop() {
        let text = execute(&job, &mut scratch, &shard.stats);
        let latency_us = job.admitted_at.elapsed().as_micros() as u64;
        shared.stats.latency.record(latency_us);
        shard.stats.latency.record(latency_us);
        shard.stats.answered.fetch_add(1, Ordering::Relaxed);
        // The connection may have died while we worked; its writer then
        // discards the line, and the request still counts as answered.
        let _ = job.reply.send(Line { text, ack: job.ack });
    }
}

/// Runs one job: cancels it if its deadline expired while it queued,
/// else runs it inside the panic-isolation boundary.  A panic may leave
/// `scratch` mid-flight; the engine resets it on entry to the next job.
fn execute(job: &Job, scratch: &mut WorkerScratch, stats: &ServeStats) -> String {
    if job
        .deadline
        .is_some_and(|deadline| Instant::now() > deadline)
    {
        stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        let message = "deadline expired before the job started";
        return err_response(job.id, ErrorCode::Deadline, message, None);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| match job.request {
        Request::Schedule { params, .. } => {
            run_work(job.id, params, false, &job.image, scratch, stats)
        }
        Request::Verify { params, .. } => {
            run_work(job.id, params, true, &job.image, scratch, stats)
        }
        // Chaos mode's `poison`: the only other verb a worker is given.
        _ => panic!("poison verb"),
    }));
    outcome.unwrap_or_else(|_| {
        stats.panics.fetch_add(1, Ordering::Relaxed);
        let message = "job panicked; the panic was isolated to this request";
        err_response(job.id, ErrorCode::Panic, message, None)
    })
}

/// Answers one `schedule` (or, with `verify`, `verify`) request on the
/// calling thread and returns its reply line.  The request holds one
/// region at a time: each region is generated into one block sized for
/// the request's largest, scheduled against the caller's long-lived
/// `scratch`, and — for `verify` — checked through
/// [`Engine::verify_block`] against the dependence graph already in the
/// scratch, replaying its reservations into the scratch's RU map.  Only
/// the running totals outlive a region, so a request's memory and its
/// allocation count do not grow with its region count.
///
/// `params.jobs` is only a hint: the request runs on this one thread, and
/// by the engine's determinism contract the reply is byte-identical for
/// every `jobs` value.  Every region that panics inside the engine is
/// counted in `stats`, and a panic outranks a failed verification in the
/// reply.
pub fn run_work(
    id: u64,
    params: WorkParams,
    verify: bool,
    image: &ServeImage,
    scratch: &mut WorkerScratch,
    stats: &ServeStats,
) -> String {
    let config = RegionConfig::new(params.regions)
        .with_mean_ops(params.mean_ops)
        .with_seed(params.seed);
    let regions = RegionGenerator::new(&image.mdes, &config);
    let engine = Engine::new(Arc::clone(&image.mdes));
    let mut block = Block::with_capacity(regions.max_ops());
    let (mut completed, mut ops, mut cycles, mut attempts) = (0u64, 0usize, 0i64, 0u64);
    let (mut panics, mut failure) = (0u64, None);
    for index in 0..config.regions {
        regions.fill(index, &mut block);
        ops += block.len();
        let Some(done) = engine.schedule_block(&block, scratch) else {
            panics += 1;
            continue;
        };
        completed += 1;
        cycles += i64::from(done.schedule.length);
        attempts += done.stats.attempts;
        if verify && panics == 0 && failure.is_none() {
            failure = engine.verify_block(scratch).err();
        }
    }
    stats.engine_panics.fetch_add(panics, Ordering::Relaxed);
    if panics > 0 {
        return err_response(
            id,
            ErrorCode::Panic,
            "a scheduling job panicked inside the engine",
            None,
        );
    }
    if let Some(why) = failure {
        return err_response(
            id,
            ErrorCode::General,
            &format!("schedule failed verification: {why}"),
            None,
        );
    }
    ok_response(
        id,
        obj(vec![
            ("epoch", Json::Num(image.epoch as f64)),
            ("hash", Json::Str(format!("{:016x}", image.hash))),
            ("regions", Json::Num(completed as f64)),
            ("ops", Json::Num(ops as f64)),
            ("cycles", Json::Num(cycles as f64)),
            ("attempts", Json::Num(attempts as f64)),
            ("verified", Json::Bool(verify)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::compile_machine;
    use mdes_machines::Machine;

    /// Numeric `stats` fields that `--metrics` publishes under another
    /// name, or that are not counters.
    const RENAMED: &[(&str, Option<&str>)] = &[
        ("in_flight", Some("dropped")),
        ("engine_worker_panics", Some("engine/worker_panics")),
        ("queue_depth", None),
        ("epoch", None),
        ("p50_us", None),
        ("p99_us", None),
    ];

    /// Every numeric field of one `stats` object, with its value.
    fn numbers(json: &Json) -> Vec<(String, u64)> {
        let Json::Obj(fields) = json else {
            panic!("stats renders an object");
        };
        fields
            .iter()
            .filter_map(|(key, value)| match value {
                Json::Num(n) => Some((key.clone(), *n as u64)),
                _ => None,
            })
            .collect()
    }

    /// Asserts that each counter of `fields` is published under `prefix`
    /// (or its daemon-wide rename) with the value `stats` renders.
    fn assert_published(report: &mdes_telemetry::Report, prefix: &str, fields: &[(String, u64)]) {
        for (key, value) in fields {
            let name = match RENAMED.iter().find(|(from, _)| from == key) {
                Some((_, None)) => continue,
                Some((_, Some(to))) if to.contains('/') => to.to_string(),
                Some((_, Some(to))) => format!("{prefix}{to}"),
                None => format!("{prefix}{key}"),
            };
            assert_eq!(report.counter(&name), Some(*value), "{name} for `{key}`");
        }
    }

    /// A description whose `stuck` class needs the one ALU twice in the
    /// same cycle, once for each tree of its AND/OR constraint, so no
    /// schedule can ever place it and the list scheduler panics at its
    /// cycle bound.
    fn half_stuck_image() -> ServeImage {
        let spec = mdes_lang::compile(
            "
            resource ALU;
            or_tree Any = first_of({ ALU @ 0 });
            or_tree Again = first_of({ ALU @ 0 });
            and_or_tree Twice = all_of(Any, Again);
            class alu { constraint = Any; latency = 1; }
            class stuck { constraint = Twice; latency = 1; }
        ",
        )
        .expect("spec compiles");
        let mdes = mdes_core::CompiledMdes::compile(&spec, mdes_core::UsageEncoding::BitVector)
            .expect("description compiles");
        ServeImage {
            mdes: Arc::new(mdes),
            epoch: 0,
            hash: 0,
            origin: "test".to_string(),
        }
    }

    #[test]
    fn every_panicked_region_counts_and_the_reply_names_the_panic() {
        let image = half_stuck_image();
        let stuck = image.mdes.class_by_name("stuck").expect("class exists");
        let params = WorkParams {
            regions: 24,
            mean_ops: 3,
            seed: 5,
            jobs: 1,
        };
        let config = RegionConfig::new(24).with_mean_ops(3).with_seed(5);
        let regions = RegionGenerator::new(&image.mdes, &config);
        let mut block = Block::new();
        let stuck_regions = (0..24)
            .filter(|&index| {
                regions.fill(index, &mut block);
                block.ops.iter().any(|op| op.class == stuck)
            })
            .count() as u64;
        assert!((1..24).contains(&stuck_regions), "{stuck_regions}");

        let (stats, mut scratch) = (ServeStats::default(), WorkerScratch::new());
        for verify in [false, true] {
            let reply = run_work(3, params, verify, &image, &mut scratch, &stats);
            assert!(reply.contains("\"code\":\"panic\""), "{reply}");
            assert!(reply.contains("panicked inside the engine"), "{reply}");
        }
        assert_eq!(stats.counts().engine_panics, 2 * stuck_regions);
        assert_eq!(stats.counts().panics, 0, "isolated per region, not per job");
    }

    #[test]
    fn every_counter_stats_renders_is_published() {
        let image = ImageStore::new(compile_machine(Machine::K5), "K5", 1).current();
        let counts = |base: u64| WorkCounts {
            admitted: base + 10,
            answered: base + 9,
            shed: base + 1,
            deadline_exceeded: base + 2,
            panics: base + 3,
            engine_panics: base + 4,
            reloads: base + 5,
            reload_failures: base + 6,
            reload_noops: base + 7,
            reload_cache_hits: base + 8,
        };
        let shards: Vec<ShardStats> = [("K5", 100), ("Pentium", 200)]
            .into_iter()
            .map(|(name, base)| ShardStats {
                name: name.to_string(),
                counts: counts(base),
                queue_depth: 3,
                image: Arc::clone(&image),
                latency_us: [40, 90],
            })
            .collect();
        let total = shards
            .iter()
            .fold(WorkCounts::default(), |sum, shard| sum.plus(&shard.counts));
        let stats = DaemonStats {
            shards,
            total,
            connections: 11,
            parse_errors: 12,
            oversized_frames: 13,
            slow_loris_drops: 14,
            latency_us: [50, 95],
        };
        let tel = Telemetry::new();
        stats.publish(&tel);
        let report = tel.report();

        let rendered = stats.to_json(0);
        assert_published(&report, "serve/", &numbers(&rendered));
        let Json::Obj(fields) = &rendered else {
            panic!("stats renders an object");
        };
        let Some(Json::Obj(shards)) = fields.get("shards") else {
            panic!("stats renders its shards");
        };
        assert_eq!(shards.len(), 2);
        for (name, shard) in shards {
            assert_published(&report, &format!("serve/shard/{name}/"), &numbers(shard));
        }
        assert_eq!(report.counter("serve/reload_noops"), Some(314));
        assert_eq!(
            report.counter("serve/shard/Pentium/reload_noops"),
            Some(207)
        );
    }
}
