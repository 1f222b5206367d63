//! The closed-loop client: load generator and correctness checker.
//!
//! The client is the other half of the chaos harness.  Every `schedule`
//! request it sends is derived from a per-request seed, and the daemon's
//! answer carries the content hash of the image that served it — so the
//! client can *recompute the expected answer locally* for any image it
//! knows the source of, and assert byte-for-byte agreement across hot
//! reloads, shedding, and injected faults.  A response served by epoch
//! N is checked against epoch N's description, no matter when the swap
//! happened relative to admission.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdes_core::CompiledMdes;
use mdes_sched::{CheckStats, ListScheduler, SchedScratch};
use mdes_telemetry::json::Json;
use mdes_telemetry::latency::nearest_rank;
use mdes_telemetry::Telemetry;
use mdes_workload::{generate_compiled_regions, RegionConfig};

use crate::image::{compile_source, content_hash};
use crate::proto::{obj, parse_reply, Reply, WorkParams};
use crate::server::{BindAddr, Stream};

/// A scripted mid-run reload.
#[derive(Clone, Debug)]
pub struct ReloadEvent {
    /// Fire when this request index is claimed.
    pub at: usize,
    /// Path the daemon is told to reload.
    pub path: String,
    /// Shard the reload targets (`machine` field), or `None` for the
    /// daemon's default shard.
    pub machine: Option<String>,
    /// Whether the reload is expected to be *rejected* (a corrupt image
    /// planted by the harness): an accepted reload then counts as a
    /// failure, and vice versa.
    pub expect_rejection: bool,
}

/// Closed-loop run configuration.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Daemon address.
    pub addr: BindAddr,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total `schedule` requests across all connections.
    pub requests: usize,
    /// Per-request workload shape; request `i` uses `seed + i`.
    pub params: WorkParams,
    /// Frames in flight per connection, reloads included.  `1` (the
    /// default) is the strict closed loop and sends v1-style id-less
    /// frames; `>1` tags every frame with an id for protocol-v2
    /// pipelining.
    pub pipeline: usize,
    /// Shards to spray requests over (request `i` targets
    /// `machines[i % len]`).  Empty targets the daemon's default shard
    /// and omits the `machine` field entirely.
    pub machines: Vec<String>,
    /// Optional per-request deadline forwarded to the daemon.
    pub deadline_ms: Option<u64>,
    /// Scripted reloads, sent by whichever connection claims the
    /// trigger index, ahead of that request.
    pub reloads: Vec<ReloadEvent>,
    /// Source bytes of every image the run may serve (boot + reload
    /// targets); responses hashing to one of these are re-derived and
    /// checked locally.
    pub known_sources: Vec<Vec<u8>>,
    /// Verify every answer against the local expectation (the chaos
    /// harness's correctness assertion).  Off for pure load generation.
    pub verify_responses: bool,
    /// Send `shutdown` after the run completes.
    pub shutdown_when_done: bool,
    /// How many times one request retries after being shed before the
    /// run counts it as dropped.
    pub max_retries: usize,
}

/// What the run observed.  `dropped`, `mismatches`, and
/// `reload_surprises` must be zero on a healthy daemon.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Requests answered with a success result.
    pub answered: u64,
    /// Requests answered with `deadline` (a valid answer under load).
    pub deadline_errors: u64,
    /// Requests answered with `panic` (isolated daemon-side).
    pub panic_errors: u64,
    /// Shed responses that were retried.
    pub shed_retries: u64,
    /// Requests never answered (timeouts, dead connections, retry
    /// budget exhausted).  Must be zero.
    pub dropped: u64,
    /// Answers that contradicted the local expectation.  Must be zero.
    pub mismatches: u64,
    /// Answers served by an image the client has no source for (cannot
    /// happen when `known_sources` covers the run).
    pub unverified: u64,
    /// Reloads acknowledged as promotions.
    pub reload_acks: u64,
    /// Reloads rejected as expected (corrupt images).
    pub reload_rejections: u64,
    /// Reloads whose outcome contradicted the script.  Must be zero.
    pub reload_surprises: u64,
    /// p50 request latency, microseconds.
    pub p50_us: u64,
    /// p99 request latency, microseconds.
    pub p99_us: u64,
    /// First few failure descriptions, for diagnostics.
    pub errors: Vec<String>,
}

/// Failure descriptions a report keeps; later ones are counted only.
const MAX_ERRORS: usize = 16;

impl ClientReport {
    /// The chaos invariant: every request answered, every answer right,
    /// every scripted reload behaving as scripted.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.mismatches == 0 && self.reload_surprises == 0
    }

    /// Renders the report for the CLI.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("answered", Json::Num(self.answered as f64)),
            ("deadline_errors", Json::Num(self.deadline_errors as f64)),
            ("panic_errors", Json::Num(self.panic_errors as f64)),
            ("shed_retries", Json::Num(self.shed_retries as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("mismatches", Json::Num(self.mismatches as f64)),
            ("unverified", Json::Num(self.unverified as f64)),
            ("reload_acks", Json::Num(self.reload_acks as f64)),
            (
                "reload_rejections",
                Json::Num(self.reload_rejections as f64),
            ),
            ("reload_surprises", Json::Num(self.reload_surprises as f64)),
            ("p50_us", Json::Num(self.p50_us as f64)),
            ("p99_us", Json::Num(self.p99_us as f64)),
        ])
    }

    /// Folds the client-observed quantities into telemetry gauges.
    pub fn publish(&self, tel: &Telemetry) {
        tel.gauge_set("serve/p50_us", self.p50_us as f64);
        tel.gauge_set("serve/p99_us", self.p99_us as f64);
        tel.counter_add("serve/client_answered", self.answered);
        tel.counter_add("serve/client_shed_retries", self.shed_retries);
        tel.counter_add("serve/client_dropped", self.dropped);
        tel.counter_add("serve/client_mismatches", self.mismatches);
        tel.counter_add("serve/client_reload_acks", self.reload_acks);
    }

    /// Keeps `message` unless [`MAX_ERRORS`] are kept already.
    fn push_error(&mut self, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        }
    }

    /// Adds one connection's counts and errors to this report.  The
    /// percentiles are left alone: they are cut once over every
    /// connection's raw samples.
    fn merge(&mut self, other: ClientReport) {
        self.answered += other.answered;
        self.deadline_errors += other.deadline_errors;
        self.panic_errors += other.panic_errors;
        self.shed_retries += other.shed_retries;
        self.dropped += other.dropped;
        self.mismatches += other.mismatches;
        self.unverified += other.unverified;
        self.reload_acks += other.reload_acks;
        self.reload_rejections += other.reload_rejections;
        self.reload_surprises += other.reload_surprises;
        for message in other.errors {
            self.push_error(message);
        }
    }
}

/// The local oracle: compiled descriptions keyed by content hash, plus
/// the serial scheduler that re-derives expected answers.
struct Verifier {
    images: HashMap<u64, Arc<CompiledMdes>>,
}

impl Verifier {
    fn new(sources: &[Vec<u8>], seed: u64) -> Result<Verifier, String> {
        let mut images = HashMap::new();
        for bytes in sources {
            let mdes = compile_source(bytes, seed)
                .map_err(|e| format!("known source rejected locally: {}", e.message()))?;
            // Key under the raw-bytes hash (what a reload of these bytes
            // reports) *and* the canonical-image hash (what a boot from
            // this description reports); they differ for HMDL sources.
            images.insert(content_hash(bytes), Arc::clone(&mdes));
            images.insert(
                content_hash(&mdes_core::lmdes::write(&mdes)),
                Arc::clone(&mdes),
            );
        }
        Ok(Verifier { images })
    }

    /// Recomputes `(cycles, ops)` for `params` against the image with
    /// `hash`, or `None` when the image is unknown.  Serial scheduling
    /// with scratch reuse — by the engine's determinism contract this
    /// equals what any worker count produces.
    fn expect(&self, hash: u64, params: WorkParams) -> Option<(i64, u64)> {
        let mdes = self.images.get(&hash)?;
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
        Some((cycles, workload.total_ops as u64))
    }
}

/// One connection with line framing and a read deadline.
struct Connection {
    reader: BufReader<Stream>,
}

impl Connection {
    fn open(addr: &BindAddr) -> Result<Connection, String> {
        let stream = Stream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one line without waiting for the reply.
    fn send(&mut self, line: &str) -> Result<(), String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|_| stream.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one reply line (order is the daemon's choice under
    /// pipelining; correlate by `Reply::id`).
    fn read_reply(&mut self) -> Result<Reply, String> {
        let mut response = String::new();
        loop {
            match self.reader.read_line(&mut response) {
                Ok(0) => return Err("connection closed by daemon".to_string()),
                Ok(_) => return parse_reply(response.trim_end()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Sends one line and reads one reply line (the shutdown frame).
    fn round_trip(&mut self, line: &str) -> Result<Reply, String> {
        self.send(line)?;
        self.read_reply()
    }
}

fn machine_suffix(machine: Option<&str>) -> String {
    match machine {
        Some(name) => format!(", \"machine\": {}", Json::Str(name.to_string()).render()),
        None => String::new(),
    }
}

/// The shard request `index` targets under the run's spray policy.
fn machine_for(options: &LoadOptions, index: usize) -> Option<&str> {
    if options.machines.is_empty() {
        None
    } else {
        Some(options.machines[index % options.machines.len()].as_str())
    }
}

fn schedule_line(
    id: Option<u64>,
    params: WorkParams,
    deadline_ms: Option<u64>,
    verify: bool,
    machine: Option<&str>,
) -> String {
    let verb = if verify { "verify" } else { "schedule" };
    let id_field = match id {
        Some(id) => format!("\"id\": {id}, "),
        None => String::new(),
    };
    let deadline = match deadline_ms {
        Some(ms) => format!(", \"deadline_ms\": {ms}"),
        None => String::new(),
    };
    format!(
        "{{{id_field}\"verb\": \"{verb}\", \"regions\": {}, \"mean_ops\": {}, \
         \"seed\": {}, \"jobs\": {}{deadline}{}}}",
        params.regions,
        params.mean_ops,
        params.seed,
        params.jobs,
        machine_suffix(machine)
    )
}

fn reload_line(id: Option<u64>, event: &ReloadEvent) -> String {
    let id_field = match id {
        Some(id) => format!("\"id\": {id}, "),
        None => String::new(),
    };
    format!(
        "{{{id_field}\"verb\": \"reload\", \"path\": {}{}}}",
        Json::Str(event.path.clone()).render(),
        machine_suffix(event.machine.as_deref())
    )
}

/// Runs the closed loop: `connections` threads drain a shared request
/// counter until `requests` have been attempted, sending scripted
/// reloads along the way, retrying shed requests, and (optionally)
/// checking every answer against the local oracle.  Each connection
/// tallies on its own; the tallies are folded after join.
pub fn run_load(options: &LoadOptions) -> Result<ClientReport, String> {
    let verifier = if options.verify_responses {
        Some(Verifier::new(&options.known_sources, 0x5E17E)?)
    } else {
        None
    };
    let next = AtomicUsize::new(0);
    let tallies: Vec<(ClientReport, Vec<u64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..options.connections.max(1))
            .map(|_| scope.spawn(|| worker(options, &next, verifier.as_ref())))
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    if options.shutdown_when_done {
        let mut conn = Connection::open(&options.addr)?;
        let reply = conn.round_trip("{\"id\": 0, \"verb\": \"shutdown\"}")?;
        if !reply.ok {
            return Err("daemon refused shutdown".to_string());
        }
    }

    Ok(fold(tallies).0)
}

/// Folds per-connection tallies into one report, returned with the
/// merged samples, sorted.  The percentiles are cut once over every
/// connection's raw samples, not averaged per connection: one that
/// answered ten requests weighs ten samples, however skewed the claim
/// rates were.
fn fold(tallies: Vec<(ClientReport, Vec<u64>)>) -> (ClientReport, Vec<u64>) {
    let mut report = ClientReport::default();
    let mut samples = Vec::new();
    for (tally, local) in tallies {
        report.merge(tally);
        samples.extend(local);
    }
    samples.sort_unstable();
    report.p50_us = nearest_rank(&samples, 0.50).unwrap_or(0);
    report.p99_us = nearest_rank(&samples, 0.99).unwrap_or(0);
    (report, samples)
}

/// Counts every index this worker would still claim as dropped, so a
/// run against a dead daemon terminates instead of spinning.
fn drain_as_dropped(options: &LoadOptions, next: &AtomicUsize, tally: &mut ClientReport) {
    while next.fetch_add(1, Ordering::Relaxed) < options.requests {
        tally.dropped += 1;
    }
}

fn settle_reload(outcome: Result<bool, String>, event: &ReloadEvent, tally: &mut ClientReport) {
    match outcome {
        Ok(rejected) => {
            if rejected == event.expect_rejection {
                if rejected {
                    tally.reload_rejections += 1;
                } else {
                    tally.reload_acks += 1;
                }
            } else {
                tally.reload_surprises += 1;
                tally.push_error(format!(
                    "reload of `{}` expected rejection={} but got ok={}",
                    event.path, event.expect_rejection, !rejected
                ));
            }
        }
        Err(e) => {
            tally.reload_surprises += 1;
            tally.push_error(format!("reload of `{}` failed: {e}", event.path));
        }
    }
}

/// Ids for pipelined reload frames sit far above any request index so
/// the two id spaces can never collide.
const RELOAD_ID_BASE: u64 = 1 << 48;

/// A request awaiting its reply.
struct Outstanding {
    line: String,
    params: WorkParams,
    /// Stamped when the first send returns; a shed-and-retried request
    /// keeps it.
    started: Instant,
    retries: usize,
    index: usize,
}

/// A frame one connection owes the daemon, from the claim of its
/// request index until the reply that echoes its id.
enum Pending<'a> {
    /// A `schedule` request.
    Work(Outstanding),
    /// A scripted reload, queued ahead of the request that triggers it.
    Reload(&'a ReloadEvent),
}

/// Claims the next request index and queues its frames with their ids:
/// the scripted reloads it triggers, then the request.  Returns `false`
/// once every index is claimed.
fn claim<'a>(
    options: &'a LoadOptions,
    next: &AtomicUsize,
    reload_seq: &mut u64,
    queue: &mut VecDeque<(u64, Pending<'a>)>,
) -> bool {
    let index = next.fetch_add(1, Ordering::Relaxed);
    if index >= options.requests {
        return false;
    }
    for event in options.reloads.iter().filter(|e| e.at == index) {
        queue.push_back((RELOAD_ID_BASE + *reload_seq, Pending::Reload(event)));
        *reload_seq += 1;
    }
    let params = WorkParams {
        seed: options.params.seed.wrapping_add(index as u64),
        ..options.params
    };
    let line = schedule_line(
        (options.pipeline > 1).then_some(index as u64),
        params,
        options.deadline_ms,
        false,
        machine_for(options, index),
    );
    let out = Outstanding {
        line,
        params,
        started: Instant::now(),
        retries: 0,
        index,
    };
    queue.push_back((index as u64, Pending::Work(out)));
    true
}

/// One connection's request loop.  Queued frames are sent while fewer
/// than `pipeline` are unanswered, claiming more when the queue runs
/// dry, and every reply is routed by its id.  A one-frame window sends
/// id-less v1 frames, and the one frame out is matched by the `0` the
/// daemon echoes.  Returns this connection's tally and raw latency
/// samples.
fn worker(
    options: &LoadOptions,
    next: &AtomicUsize,
    verifier: Option<&Verifier>,
) -> (ClientReport, Vec<u64>) {
    let mut tally = ClientReport::default();
    let mut samples = Vec::new();
    let mut conn = match Connection::open(&options.addr) {
        Ok(conn) => conn,
        Err(e) => {
            tally.push_error(e);
            drain_as_dropped(options, next, &mut tally);
            return (tally, samples);
        }
    };
    let tagged = options.pipeline > 1;
    // Claimed frames not yet sent, with their ids; sent frames by the id
    // their reply echoes.
    let mut queue = VecDeque::new();
    let mut in_flight = HashMap::new();
    let mut reload_seq = 0;
    loop {
        let mut lost = None;
        while lost.is_none() && in_flight.len() < options.pipeline.max(1) {
            if queue.is_empty() && !claim(options, next, &mut reload_seq, &mut queue) {
                break;
            }
            let Some((id, mut pending)) = queue.pop_front() else {
                break;
            };
            let sent = match &mut pending {
                Pending::Work(out) => conn.send(&out.line).map(|()| {
                    if out.retries == 0 {
                        out.started = Instant::now();
                    }
                }),
                Pending::Reload(event) => conn.send(&reload_line(tagged.then_some(id), event)),
            };
            in_flight.insert(if tagged { id } else { 0 }, pending);
            lost = sent.err();
        }
        if lost.is_none() {
            if in_flight.is_empty() {
                break;
            }
            match conn.read_reply() {
                Ok(reply) => match in_flight.remove(&reply.id) {
                    Some(Pending::Work(out)) => {
                        let index = out.index as u64;
                        if let Some(out) =
                            settle_work(&reply, out, options, &mut tally, verifier, &mut samples)
                        {
                            queue.push_front((index, Pending::Work(out)));
                        }
                    }
                    Some(Pending::Reload(event)) => {
                        settle_reload(Ok(!reply.ok), event, &mut tally);
                    }
                    // A duplicate or unsolicited id: the daemon never
                    // does this, so surface it loudly rather than
                    // miscounting.
                    None => tally.push_error(format!("unexpected reply id {}", reply.id)),
                },
                Err(e) => lost = Some(e),
            }
        }
        if let Some(e) = lost {
            tally.push_error(format!("connection lost: {e}"));
            if !reconnect(
                &mut conn,
                options,
                next,
                &mut tally,
                &mut in_flight,
                &mut queue,
            ) {
                break;
            }
        }
    }
    (tally, samples)
}

/// Classifies one correlated work reply.  A shed request within its
/// retry budget is returned, after the daemon's backoff hint, for the
/// caller to send again first.  Latency keeps accruing from the first
/// send — a shed-and-retried request is one request to the percentile
/// cut.
fn settle_work(
    reply: &Reply,
    mut out: Outstanding,
    options: &LoadOptions,
    tally: &mut ClientReport,
    verifier: Option<&Verifier>,
    samples: &mut Vec<u64>,
) -> Option<Outstanding> {
    if reply.ok {
        samples.push(out.started.elapsed().as_micros() as u64);
        tally.answered += 1;
        if let Some(verifier) = verifier {
            check_answer(reply, out.params, verifier, tally, out.index);
        }
        return None;
    }
    match reply.error_num() {
        Some(6) if out.retries < options.max_retries => {
            out.retries += 1;
            tally.shed_retries += 1;
            let backoff = reply.retry_after_ms().unwrap_or(10).min(1_000);
            std::thread::sleep(Duration::from_millis(backoff));
            return Some(out);
        }
        Some(6) => {
            tally.dropped += 1;
            tally.push_error(format!("request {}: retry budget exhausted", out.index));
        }
        Some(5) => tally.deadline_errors += 1,
        Some(7) => tally.panic_errors += 1,
        other => {
            tally.dropped += 1;
            tally.push_error(format!(
                "request {}: unexpected error code {other:?}",
                out.index
            ));
        }
    }
    None
}

/// Counts everything in flight on a dead connection as lost — work as
/// dropped, reloads as surprises — and re-opens it; queued frames go
/// out on the new connection.  Returns `false` when the daemon is
/// unreachable: the queue and the indices this worker would still
/// claim are then lost too, so the run still terminates.
fn reconnect<'a>(
    conn: &mut Connection,
    options: &LoadOptions,
    next: &AtomicUsize,
    tally: &mut ClientReport,
    in_flight: &mut HashMap<u64, Pending<'a>>,
    queue: &mut VecDeque<(u64, Pending<'a>)>,
) -> bool {
    let lose = |pending: Pending, tally: &mut ClientReport| match pending {
        Pending::Work(_) => tally.dropped += 1,
        Pending::Reload(event) => settle_reload(
            Err("connection lost awaiting reload ack".to_string()),
            event,
            tally,
        ),
    };
    for (_, pending) in in_flight.drain() {
        lose(pending, tally);
    }
    match Connection::open(&options.addr) {
        Ok(fresh) => {
            *conn = fresh;
            true
        }
        Err(e) => {
            tally.push_error(e);
            for (_, pending) in queue.drain(..) {
                lose(pending, tally);
            }
            drain_as_dropped(options, next, tally);
            false
        }
    }
}

fn check_answer(
    reply: &Reply,
    params: WorkParams,
    verifier: &Verifier,
    tally: &mut ClientReport,
    index: usize,
) {
    let hash = reply
        .body
        .get("result")
        .and_then(|r| r.get("hash"))
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok());
    let (cycles, ops) = match (reply.result_u64("cycles"), reply.result_u64("ops")) {
        (Some(cycles), Some(ops)) => (cycles as i64, ops),
        _ => {
            tally.mismatches += 1;
            tally.push_error(format!("request {index}: result missing cycles/ops"));
            return;
        }
    };
    let Some(hash) = hash else {
        tally.mismatches += 1;
        tally.push_error(format!("request {index}: result missing image hash"));
        return;
    };
    match verifier.expect(hash, params) {
        None => {
            tally.unverified += 1;
        }
        Some((want_cycles, want_ops)) => {
            if cycles != want_cycles || ops != want_ops {
                tally.mismatches += 1;
                tally.push_error(format!(
                    "request {index}: image {hash:016x} answered {cycles} cycles / {ops} ops, \
                     expected {want_cycles} / {want_ops}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_lines_round_trip_through_the_frame_parser() {
        let params = WorkParams {
            regions: 3,
            mean_ops: 5,
            seed: 77,
            jobs: 2,
        };
        let line = schedule_line(Some(12), params, Some(40), true, Some("k5"));
        let frame = crate::proto::parse_frame(&line).unwrap();
        assert_eq!(frame.id, Some(12));
        assert_eq!(frame.machine.as_deref(), Some("k5"));
        assert_eq!(
            frame.request,
            crate::proto::Request::Verify {
                params,
                deadline_ms: Some(40)
            }
        );
    }

    #[test]
    fn serial_schedule_lines_are_idless_v1_frames() {
        let params = WorkParams {
            regions: 3,
            mean_ops: 5,
            seed: 77,
            jobs: 2,
        };
        let line = schedule_line(None, params, None, false, None);
        assert!(
            !line.contains("\"id\""),
            "serial line carried an id: {line}"
        );
        assert!(!line.contains("\"machine\""));
        let frame = crate::proto::parse_frame(&line).unwrap();
        assert_eq!(frame.id, None, "id-less frames must stay v1-serial");
        assert_eq!(frame.reply_id(), 0);
    }

    #[test]
    fn reload_lines_carry_machine_and_optional_id() {
        let event = ReloadEvent {
            at: 3,
            path: "/tmp/x.lmdes".to_string(),
            machine: Some("pentium".to_string()),
            expect_rejection: false,
        };
        let frame = crate::proto::parse_frame(&reload_line(Some(RELOAD_ID_BASE), &event)).unwrap();
        assert_eq!(frame.id, Some(RELOAD_ID_BASE));
        assert_eq!(frame.machine.as_deref(), Some("pentium"));
        let frame = crate::proto::parse_frame(&reload_line(None, &event)).unwrap();
        assert_eq!(frame.id, None);
    }

    /// Plays a daemon for one client connection.  Frames are collected
    /// until the client pauses, then all acknowledged at once, echoing
    /// each frame's id (`0` for an id-less one); a frame beyond `depth`
    /// unanswered ones fails the test.  Returns every line received.
    fn windowed_daemon(listener: std::os::unix::net::UnixListener, depth: usize) -> Vec<String> {
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let (mut lines, mut unanswered, mut line) = (Vec::new(), Vec::new(), String::new());
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return lines,
                Ok(_) => {
                    assert!(
                        unanswered.len() < depth,
                        "window of {depth} exceeded: {line}"
                    );
                    let frame = Json::parse(line.trim_end()).unwrap();
                    unanswered.push(frame.get("id").and_then(Json::as_u64).unwrap_or(0));
                    lines.push(std::mem::take(&mut line));
                }
                // The client waits for replies (a partial line stays in
                // `line` until the rest arrives).
                Err(_) => {
                    for id in unanswered.drain(..) {
                        writeln!(writer, "{{\"id\": {id}, \"ok\": true, \"result\": {{}}}}")
                            .unwrap();
                    }
                }
            }
        }
    }

    /// Both wire versions run the one loop: a window of one sends the
    /// id-less v1 byte stream, a wider window tags every frame, and at
    /// every depth a scripted reload goes out just ahead of its trigger
    /// request and holds a window slot until it is answered.
    #[test]
    fn every_depth_keeps_its_window_with_reloads_inside() {
        for depth in [1, 3] {
            let path = std::env::temp_dir().join(format!(
                "mdes-client-window-{}-{depth}.sock",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
            let daemon = std::thread::spawn(move || windowed_daemon(listener, depth));
            let event = ReloadEvent {
                at: 2,
                path: "x.lmdes".to_string(),
                machine: None,
                expect_rejection: false,
            };
            let params = |seed| WorkParams {
                regions: 1,
                mean_ops: 1,
                seed,
                jobs: 1,
            };
            let report = run_load(&LoadOptions {
                addr: BindAddr::Unix(path.clone()),
                connections: 1,
                requests: 5,
                params: params(0),
                pipeline: depth,
                machines: Vec::new(),
                deadline_ms: None,
                reloads: vec![event.clone()],
                known_sources: Vec::new(),
                verify_responses: false,
                shutdown_when_done: false,
                max_retries: 0,
            })
            .unwrap();
            let lines = daemon.join().unwrap();
            let _ = std::fs::remove_file(&path);

            assert!(report.is_clean(), "depth {depth}: {:?}", report.errors);
            assert_eq!((report.answered, report.reload_acks), (5, 1));
            let tagged = depth > 1;
            let request = |seed: u64| {
                let id = tagged.then_some(seed);
                schedule_line(id, params(seed), None, false, None) + "\n"
            };
            let reload = reload_line(tagged.then_some(RELOAD_ID_BASE), &event) + "\n";
            let want = [
                request(0),
                request(1),
                reload,
                request(2),
                request(3),
                request(4),
            ];
            assert_eq!(lines, want, "depth {depth}");
        }
    }

    #[test]
    fn machine_spray_cycles_round_robin() {
        let mut options = LoadOptions {
            addr: BindAddr::Unix("/nonexistent".into()),
            connections: 1,
            requests: 10,
            params: WorkParams {
                regions: 1,
                mean_ops: 1,
                seed: 0,
                jobs: 1,
            },
            pipeline: 1,
            machines: vec!["a".to_string(), "b".to_string()],
            deadline_ms: None,
            reloads: Vec::new(),
            known_sources: Vec::new(),
            verify_responses: false,
            shutdown_when_done: false,
            max_retries: 0,
        };
        assert_eq!(machine_for(&options, 0), Some("a"));
        assert_eq!(machine_for(&options, 1), Some("b"));
        assert_eq!(machine_for(&options, 2), Some("a"));
        options.machines.clear();
        assert_eq!(machine_for(&options, 0), None);
    }

    /// The regression for the `--connections` skew bug: percentiles
    /// must come from the merged raw samples of every connection, not
    /// a shared bounded ring that evicts early (typically fast-path)
    /// samples.  The cut over merged vectors must equal the cut over
    /// their plain concatenation, however lopsided the per-connection
    /// counts are.
    #[test]
    fn percentiles_merge_skewed_connections_exactly() {
        // Connection A contributed 9000 fast samples, connection B only
        // 10 slow ones — B must not be able to drag p50, and A's early
        // samples must not be evicted from p99's view.
        let fast: Vec<u64> = (0..9000).map(|i| 100 + (i % 50)).collect();
        let slow: Vec<u64> = (0..10).map(|i| 90_000 + i * 1000).collect();
        let tally = |samples: &[u64]| {
            let report = ClientReport {
                answered: samples.len() as u64,
                ..ClientReport::default()
            };
            (report, samples.to_vec())
        };

        let (report, merged) = fold(vec![tally(&fast), tally(&slow)]);
        let mut concat = [fast, slow].concat();
        concat.sort_unstable();
        assert_eq!(merged, concat);
        assert_eq!(report.answered, concat.len() as u64);

        let n = merged.len();
        let (p50, p99) = (report.p50_us, report.p99_us);
        // Nearest-rank by hand: rank = ceil(q*n) - 1.
        assert_eq!(p50, concat[(0.50f64 * n as f64).ceil() as usize - 1]);
        assert_eq!(p99, concat[(0.99f64 * n as f64).ceil() as usize - 1]);
        // The 10 slow outliers are ~0.1% of the run: p50 stays on the
        // fast path and p99 still reflects the merged distribution.
        assert!(p50 < 200, "p50 dragged by outliers: {p50}");
        assert!(p99 < 90_000, "p99 must sit below the 0.1% outlier band");
    }

    #[test]
    fn the_fold_keeps_the_first_errors_overall() {
        let tally = |tag: &str| {
            let mut report = ClientReport::default();
            for i in 0..MAX_ERRORS + 4 {
                report.push_error(format!("{tag}{i}"));
            }
            (report, Vec::new())
        };
        let (report, _) = fold(vec![tally("a"), tally("b")]);
        let want: Vec<String> = (0..MAX_ERRORS).map(|i| format!("a{i}")).collect();
        assert_eq!(report.errors, want);
        assert_eq!((report.p50_us, report.p99_us), (0, 0));
    }
}
