//! The wire protocol: line-delimited JSON frames.
//!
//! Every request is one JSON object on one `\n`-terminated line; every
//! response is likewise one line.  The codec is pure (no I/O) so the
//! framing, limits, and error mapping are unit-testable without a
//! socket.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "verb": "schedule", "regions": 8, "mean_ops": 8, "seed": 3}
//! {"id": 2, "verb": "verify",   "regions": 4, "seed": 9, "deadline_ms": 50}
//! {"id": 3, "verb": "query",    "machine": "pentium"}
//! {"id": 4, "verb": "stats"}
//! {"id": 5, "verb": "reload", "path": "/path/to/new.lmdes"}
//! {"id": 6, "verb": "shutdown"}
//! ```
//!
//! ## Responses
//!
//! ```json
//! {"id": 1, "ok": true, "result": {...}}
//! {"id": 2, "ok": false,
//!  "error": {"code": "overload", "num": 6, "message": "...", "retry_after_ms": 25}}
//! ```
//!
//! ## Protocol v2: pipelining and shard routing
//!
//! Both additions are optional fields, so every v1 frame is a valid v2
//! frame with identical semantics:
//!
//! * **`id`** — when present on a work verb, the connection may carry
//!   many requests in flight; replies are written as jobs finish,
//!   possibly out of admission order, each echoing its request's `id`.
//!   A frame *without* `id` keeps the v1 contract: the daemon answers
//!   it (echoing `"id":0`) before reading the connection's next frame,
//!   so id-less clients observe strict serial FIFO behavior,
//!   byte-identical to v1.
//! * **`machine`** — routes the request to one shard of a multi-machine
//!   daemon.  Absent, the boot (default) shard handles it, which is the
//!   whole daemon when serving a single machine — exactly v1.  Naming a
//!   machine the daemon does not serve is a `parse` error.
//!
//! ## Error-code contract
//!
//! Codes 1–5 mirror the CLI's exit codes (general, parse, validation,
//! oracle, perf); the daemon extends the same ladder with serving-only
//! conditions:
//!
//! | num | code         | meaning                                          |
//! |-----|--------------|--------------------------------------------------|
//! | 1   | `general`    | unknown verb, internal error                     |
//! | 2   | `parse`      | malformed JSON, oversized frame, bad field       |
//! | 3   | `validation` | reload rejected by structural validation/vetting |
//! | 4   | `oracle`     | reload rejected by the differential oracle       |
//! | 5   | `deadline`   | per-request deadline expired before execution    |
//! | 6   | `overload`   | admission queue full — shed, retry later         |
//! | 7   | `panic`      | the request's job panicked (isolated)            |

use std::collections::BTreeMap;

use mdes_telemetry::json::Json;

/// Hard cap on one request line, newline included.  A frame that grows
/// past this without a newline is rejected with a `parse` error and the
/// connection is dropped (there is no way to resynchronize).
pub const MAX_FRAME: usize = 64 * 1024;

/// Upper bounds on per-request work, so one request cannot monopolize
/// the daemon.  Violations are `parse` errors (the request is
/// malformed by contract, not rejected by load).
pub const MAX_REGIONS: usize = 4096;
/// See [`MAX_REGIONS`].
pub const MAX_MEAN_OPS: usize = 256;
/// See [`MAX_REGIONS`].
pub const MAX_JOBS: usize = 64;

/// Protocol error codes; `num` 1–5 match the CLI exit-code contract.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Unknown verb or internal error.
    General,
    /// Malformed frame or field.
    Parse,
    /// Reload rejected by validation/vetting.
    Validation,
    /// Reload rejected by the differential oracle.
    Oracle,
    /// Deadline expired before the job started.
    Deadline,
    /// Admission queue full; request shed.
    Overload,
    /// The job panicked; the panic was isolated.
    Panic,
}

impl ErrorCode {
    /// Stable numeric code (1–5 match CLI exit codes).
    pub fn num(self) -> u64 {
        match self {
            ErrorCode::General => 1,
            ErrorCode::Parse => 2,
            ErrorCode::Validation => 3,
            ErrorCode::Oracle => 4,
            ErrorCode::Deadline => 5,
            ErrorCode::Overload => 6,
            ErrorCode::Panic => 7,
        }
    }

    /// Stable string code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::General => "general",
            ErrorCode::Parse => "parse",
            ErrorCode::Validation => "validation",
            ErrorCode::Oracle => "oracle",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Overload => "overload",
            ErrorCode::Panic => "panic",
        }
    }
}

/// Parameters of a `schedule`/`verify` request: the workload is derived
/// deterministically from these on the daemon side, so a client that
/// knows the serving description can independently predict the answer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WorkParams {
    /// Regions to generate and schedule.
    pub regions: usize,
    /// Mean operations per region.
    pub mean_ops: usize,
    /// Workload seed.
    pub seed: u64,
    /// Parallelism hint, range-checked against [`MAX_JOBS`].  The daemon
    /// runs every request on the one shard worker that pops it, so the
    /// hint never adds threads or changes a reply.
    pub jobs: usize,
}

impl Default for WorkParams {
    fn default() -> WorkParams {
        WorkParams {
            regions: 4,
            mean_ops: 8,
            seed: 1,
            jobs: 1,
        }
    }
}

/// One decoded request verb.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Generate and schedule a seeded region stream; reply with folded
    /// schedule statistics.
    Schedule {
        /// Workload shape.
        params: WorkParams,
        /// Optional per-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Like `schedule`, but additionally re-verify every schedule
    /// against its dependence graph before answering.
    Verify {
        /// Workload shape.
        params: WorkParams,
        /// Optional per-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Describe the serving description (epoch, hash, shape).
    Query,
    /// Report server counters and latency percentiles.
    Stats,
    /// Load, vet, and promote a new description from `path`.
    Reload {
        /// Filesystem path of an LMDES image or HMDL source.
        path: String,
    },
    /// Drain and exit cleanly.
    Shutdown,
    /// Chaos-mode only: panic inside the job to prove isolation.
    Poison,
}

/// One decoded frame: the request plus its client-chosen correlation id
/// and shard routing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Correlation id echoed into the response.  `None` marks a v1-style
    /// serial request: the reply echoes `0` and is written before the
    /// connection's next frame is read.  `Some(id)` opts the request
    /// into pipelined completion routing.
    pub id: Option<u64>,
    /// Shard routing: the machine this request targets, or `None` for
    /// the daemon's default (boot) shard.
    pub machine: Option<String>,
    /// The decoded verb.
    pub request: Request,
}

impl Frame {
    /// The id echoed into this frame's reply (`0` when the request
    /// carried none, matching v1 responses byte for byte).
    pub fn reply_id(&self) -> u64 {
        self.id.unwrap_or(0)
    }
}

/// A protocol-level rejection: carries the id when one was recoverable
/// from the broken frame so the client can still correlate the error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Correlation id, when recoverable.
    pub id: u64,
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable reason.
    pub message: String,
}

impl WireError {
    fn parse(id: u64, message: impl Into<String>) -> WireError {
        WireError {
            id,
            code: ErrorCode::Parse,
            message: message.into(),
        }
    }
}

fn field_usize(
    obj: &Json,
    key: &str,
    default: usize,
    max: usize,
    id: u64,
) -> Result<usize, WireError> {
    match obj.get(key) {
        None => Ok(default),
        Some(value) => {
            let n = value
                .as_u64()
                .ok_or_else(|| WireError::parse(id, format!("`{key}` must be an integer")))?;
            let n = usize::try_from(n)
                .map_err(|_| WireError::parse(id, format!("`{key}` out of range")))?;
            if n < 1 || n > max {
                return Err(WireError::parse(
                    id,
                    format!("`{key}` must be between 1 and {max}"),
                ));
            }
            Ok(n)
        }
    }
}

/// Decodes one request line.  On error the returned [`WireError`]
/// carries the id when the frame was well-formed enough to recover it.
pub fn parse_frame(line: &str) -> Result<Frame, WireError> {
    if line.len() > MAX_FRAME {
        return Err(WireError::parse(0, "frame exceeds maximum size"));
    }
    let json = Json::parse(line).map_err(|e| WireError::parse(0, format!("bad JSON: {e}")))?;
    if json.as_obj().is_none() {
        return Err(WireError::parse(0, "frame must be a JSON object"));
    }
    let frame_id = json.get("id").and_then(Json::as_u64);
    let id = frame_id.unwrap_or(0);
    let machine = match json.get("machine") {
        None => None,
        Some(value) => Some(
            value
                .as_str()
                .ok_or_else(|| WireError::parse(id, "`machine` must be a string"))?
                .to_string(),
        ),
    };
    let verb = json
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::parse(id, "missing `verb`"))?;

    let work_params = |json: &Json| -> Result<WorkParams, WireError> {
        let defaults = WorkParams::default();
        Ok(WorkParams {
            regions: field_usize(json, "regions", defaults.regions, MAX_REGIONS, id)?,
            mean_ops: field_usize(json, "mean_ops", defaults.mean_ops, MAX_MEAN_OPS, id)?,
            jobs: field_usize(json, "jobs", defaults.jobs, MAX_JOBS, id)?,
            seed: match json.get("seed") {
                None => defaults.seed,
                Some(value) => value
                    .as_u64()
                    .ok_or_else(|| WireError::parse(id, "`seed` must be an integer"))?,
            },
        })
    };
    let deadline = |json: &Json| -> Result<Option<u64>, WireError> {
        match json.get("deadline_ms") {
            None => Ok(None),
            Some(value) => value
                .as_u64()
                .map(Some)
                .ok_or_else(|| WireError::parse(id, "`deadline_ms` must be an integer")),
        }
    };

    let request = match verb {
        "schedule" => Request::Schedule {
            params: work_params(&json)?,
            deadline_ms: deadline(&json)?,
        },
        "verify" => Request::Verify {
            params: work_params(&json)?,
            deadline_ms: deadline(&json)?,
        },
        "query" => Request::Query,
        "stats" => Request::Stats,
        "reload" => Request::Reload {
            path: json
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::parse(id, "`reload` requires a string `path`"))?
                .to_string(),
        },
        "shutdown" => Request::Shutdown,
        "poison" => Request::Poison,
        other => {
            return Err(WireError {
                id,
                code: ErrorCode::General,
                message: format!("unknown verb `{other}`"),
            })
        }
    };
    Ok(Frame {
        id: frame_id,
        machine,
        request,
    })
}

/// Renders a success response line (newline included).
pub fn ok_response(id: u64, result: Json) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("id".to_string(), Json::Num(id as f64));
    obj.insert("ok".to_string(), Json::Bool(true));
    obj.insert("result".to_string(), result);
    let mut line = Json::Obj(obj).render();
    line.push('\n');
    line
}

/// Renders an error response line (newline included).
pub fn err_response(
    id: u64,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut error = BTreeMap::new();
    error.insert("code".to_string(), Json::Str(code.name().to_string()));
    error.insert("num".to_string(), Json::Num(code.num() as f64));
    error.insert("message".to_string(), Json::Str(message.to_string()));
    if let Some(ms) = retry_after_ms {
        error.insert("retry_after_ms".to_string(), Json::Num(ms as f64));
    }
    let mut obj = BTreeMap::new();
    obj.insert("id".to_string(), Json::Num(id as f64));
    obj.insert("ok".to_string(), Json::Bool(false));
    obj.insert("error".to_string(), Json::Obj(error));
    let mut line = Json::Obj(obj).render();
    line.push('\n');
    line
}

/// Convenience for building `result` objects.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One decoded response, as seen by a client.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// Echoed correlation id.
    pub id: u64,
    /// Success flag.
    pub ok: bool,
    /// The whole response object (`result` / `error` live inside).
    pub body: Json,
}

impl Reply {
    /// The error code of a failure reply, if present.
    pub fn error_num(&self) -> Option<u64> {
        self.body
            .get("error")
            .and_then(|e| e.get("num"))
            .and_then(Json::as_u64)
    }

    /// The shed-backoff hint of an `overload` reply, if present.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.body
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_u64)
    }

    /// A numeric field of the `result` object.
    pub fn result_u64(&self, key: &str) -> Option<u64> {
        self.body
            .get("result")
            .and_then(|r| r.get(key))
            .and_then(Json::as_u64)
    }
}

/// Decodes one response line.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let body = Json::parse(line)?;
    let id = body
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("reply missing `id`")?;
    let ok = match body.get("ok") {
        Some(Json::Bool(ok)) => *ok,
        _ => return Err("reply missing `ok`".to_string()),
    };
    Ok(Reply { id, ok, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_frames_parse_with_defaults_and_overrides() {
        let frame = parse_frame(r#"{"id": 7, "verb": "schedule"}"#).unwrap();
        assert_eq!(frame.id, Some(7));
        assert_eq!(frame.reply_id(), 7);
        assert_eq!(frame.machine, None);
        assert_eq!(
            frame.request,
            Request::Schedule {
                params: WorkParams::default(),
                deadline_ms: None
            }
        );

        let frame = parse_frame(
            r#"{"id": 8, "verb": "verify", "regions": 64, "mean_ops": 5,
                "seed": 99, "jobs": 2, "deadline_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(
            frame.request,
            Request::Verify {
                params: WorkParams {
                    regions: 64,
                    mean_ops: 5,
                    seed: 99,
                    jobs: 2
                },
                deadline_ms: Some(250),
            }
        );
    }

    #[test]
    fn idless_frames_are_v1_serial_and_echo_zero() {
        // A frame without `id` must parse to `id: None` (the serial
        // marker) but reply with `"id":0` — the exact v1 bytes.
        let frame = parse_frame(r#"{"verb": "schedule"}"#).unwrap();
        assert_eq!(frame.id, None);
        assert_eq!(frame.reply_id(), 0);
        let line = ok_response(frame.reply_id(), obj(vec![]));
        assert!(line.starts_with(r#"{"id":0,"#), "{line}");
    }

    #[test]
    fn machine_field_routes_and_rejects_non_strings() {
        let frame = parse_frame(r#"{"verb": "query", "machine": "pentium"}"#).unwrap();
        assert_eq!(frame.machine.as_deref(), Some("pentium"));
        let frame =
            parse_frame(r#"{"id": 2, "verb": "reload", "path": "x", "machine": "k5"}"#).unwrap();
        assert_eq!(frame.machine.as_deref(), Some("k5"));
        assert_eq!(frame.id, Some(2));

        let err = parse_frame(r#"{"id": 9, "verb": "query", "machine": 3}"#).unwrap_err();
        assert_eq!((err.id, err.code), (9, ErrorCode::Parse));
    }

    #[test]
    fn malformed_frames_are_parse_errors_with_recovered_ids() {
        let err = parse_frame("not json at all").unwrap_err();
        assert_eq!(err.code, ErrorCode::Parse);

        let err = parse_frame(r#"{"id": 3, "regions": 1}"#).unwrap_err();
        assert_eq!((err.id, err.code), (3, ErrorCode::Parse));

        let err = parse_frame(r#"{"id": 4, "verb": "schedule", "regions": 0}"#).unwrap_err();
        assert_eq!((err.id, err.code), (4, ErrorCode::Parse));

        let err = parse_frame(r#"{"id": 5, "verb": "warp"}"#).unwrap_err();
        assert_eq!((err.id, err.code), (5, ErrorCode::General));

        let big = format!(
            r#"{{"verb": "schedule", "pad": "{}"}}"#,
            "x".repeat(MAX_FRAME)
        );
        assert_eq!(parse_frame(&big).unwrap_err().code, ErrorCode::Parse);
    }

    #[test]
    fn work_limits_are_enforced() {
        let line = format!(r#"{{"verb": "schedule", "regions": {}}}"#, MAX_REGIONS + 1);
        assert_eq!(parse_frame(&line).unwrap_err().code, ErrorCode::Parse);
        let line = format!(r#"{{"verb": "schedule", "jobs": {}}}"#, MAX_JOBS + 1);
        assert_eq!(parse_frame(&line).unwrap_err().code, ErrorCode::Parse);
    }

    #[test]
    fn responses_round_trip_through_the_client_decoder() {
        let line = ok_response(12, obj(vec![("cycles", Json::Num(42.0))]));
        let reply = parse_reply(line.trim_end()).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.id, 12);
        assert_eq!(reply.result_u64("cycles"), Some(42));

        let line = err_response(13, ErrorCode::Overload, "queue full", Some(25));
        let reply = parse_reply(line.trim_end()).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.error_num(), Some(6));
        assert_eq!(reply.retry_after_ms(), Some(25));
    }

    #[test]
    fn exit_code_ladder_matches_the_cli_contract() {
        assert_eq!(ErrorCode::General.num(), 1);
        assert_eq!(ErrorCode::Parse.num(), 2);
        assert_eq!(ErrorCode::Validation.num(), 3);
        assert_eq!(ErrorCode::Oracle.num(), 4);
        assert_eq!(ErrorCode::Deadline.num(), 5);
        assert_eq!(ErrorCode::Overload.num(), 6);
        assert_eq!(ErrorCode::Panic.num(), 7);
    }
}
