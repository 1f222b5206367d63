//! Umbrella crate for the MDES reproduction: re-exports every subsystem so
//! examples and downstream users can depend on one crate.
//!
//! See the individual crates for full documentation:
//!
//! * [`analyze`] — the static diagnostics engine (stable `MD` codes,
//!   semantic dominance proofs, unsatisfiable classes);
//! * [`core`] — representations, checker, RU map, stats, memory model;
//! * [`lang`] — the high-level machine-description language (HMDL);
//! * [`opt`] — the MDES transformation pipeline;
//! * [`guard`] — the stage guard: validation, differential oracles, rollback;
//! * [`machines`] — the four processor descriptions from the paper;
//! * [`sched`] — dependence graphs and the list / modulo schedulers;
//! * [`workload`] — synthetic SPEC CINT92-equivalent workload generators;
//! * [`automata`] — the finite-state-automaton baseline;
//! * [`telemetry`] — pipeline-wide timing spans, counters, and gauges;
//! * [`engine`] — the concurrent batch-scheduling engine (shared LMDES,
//!   per-worker scheduler state);
//! * [`oracle`] — the exact branch-and-bound scheduler used as a
//!   differential oracle with optimality-gap tracking;
//! * [`perf`] — the seed-deterministic benchmark harness and regression
//!   gate.

#![forbid(unsafe_code)]

pub use mdes_analyze as analyze;
pub use mdes_automata as automata;
pub use mdes_core as core;
pub use mdes_engine as engine;
pub use mdes_guard as guard;
pub use mdes_lang as lang;
pub use mdes_machines as machines;
pub use mdes_opt as opt;
pub use mdes_oracle as oracle;
pub use mdes_perf as perf;
pub use mdes_sched as sched;
pub use mdes_serve as serve;
pub use mdes_telemetry as telemetry;
pub use mdes_workload as workload;
