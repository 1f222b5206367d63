//! `mdes-serve`: a fault-tolerant scheduling daemon.
//!
//! The paper's machine descriptions are *loaded* artifacts: the compiler
//! reads a customized LMDES image at start-up "to minimize the time
//! required to load the MDES into memory" (Section 4).  This crate takes
//! that idea to its operational conclusion — a long-running daemon that
//! holds one or more compiled descriptions in memory (a **shard** per
//! machine, routed by the request's `machine` field), schedules request
//! workloads against them over a line-delimited JSON protocol with
//! **pipelined** connections (protocol v2: an optional per-request `id`
//! echoed in the reply lets a client keep many requests in flight and
//! accept out-of-order completion; id-less v1 clients keep strict
//! serial FIFO, byte-compatibly), and **hot-reloads** new descriptions
//! per shard without dropping a single in-flight request.
//!
//! The pieces:
//!
//! * [`proto`] — the wire codec (request `id` echo, `machine` shard
//!   routing) and the error-code ladder (1–5 mirror the CLI exit
//!   codes; 6 `overload`, 7 `panic` extend it).
//! * [`queue`] — the bounded admission queue: shed-on-full backpressure
//!   and drain-on-close shutdown.
//! * [`image`] — the epoch-handoff image store: content-hashed compile
//!   cache, guard-vetted promotion, rollback-by-not-swapping; and the
//!   bundled machines' boot images, compiled by `build.rs` when the
//!   crate is built.
//! * [`server`] — listeners (Unix socket or TCP), per-connection
//!   framing with slow-loris defense, pipelined dispatch across the
//!   shard set, the worker pool with per-request deadlines and panic
//!   isolation, and the per-shard `serve/*` statistics with their
//!   daemon-wide sums.
//! * [`client`] — the closed-loop load client (serial v1 or windowed
//!   pipelined v2, optionally spraying requests across shards) that
//!   doubles as the chaos harness's correctness oracle.
//!
//! ## Invariants (enforced by the test suites in `crates/serve/tests`)
//!
//! * Every admitted request is answered, even across shutdown.
//! * A request is served by the image current at its admission; hot
//!   reloads never change an admitted request's answer.
//! * A rejected reload (corrupt image, failed vetting, oracle incident)
//!   leaves the previous image serving — on that shard alone; sibling
//!   shards are never perturbed by another shard's reload, shed, or
//!   deadline pressure.
//! * Pipelined replies may complete out of order, but every reply
//!   carries the `id` of the request it answers, and an id-less (v1)
//!   connection observes strict request-order replies.
//! * A panicking job answers `panic` for itself and nothing else.
//! * Malformed, oversized, or stalled frames never take the daemon down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod image;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{run_load, ClientReport, LoadOptions, ReloadEvent};
pub use image::{
    compile_machine, compile_source, content_hash, ImageStore, ReloadError, ReloadOutcome,
    ServeImage,
};
pub use proto::{ErrorCode, Frame, Reply, Request, WorkParams, MAX_FRAME};
pub use queue::{AdmissionQueue, PushError};
pub use server::{
    serve, serve_sharded, BindAddr, DaemonStats, ServeConfig, ServeStats, ServerHandle, ShardStats,
    WorkCounts,
};
