//! Seed-deterministic benchmark harness for the MDES query hot paths.
//!
//! The paper's transformations exist to make the scheduler's inner
//! check/reserve loop cheap (Sections 6–7), so this crate measures that
//! loop directly and makes the measurement reproducible enough to gate a
//! CI pipeline on:
//!
//! * every workload is generated from a fixed seed ([`mdes_workload::Pcg32`]
//!   streams), so the *work done* by a bench — resource checks issued,
//!   operations scheduled — is a deterministic integer that must match
//!   the committed baseline exactly;
//! * timings use the monotonic clock ([`std::time::Instant`]), fixed
//!   iteration counts, and median-of-K reporting; the regression gate
//!   compares the *fastest* repetition per bench (noise on a shared CI
//!   box is additive, so min-of-K is the robust speed estimator) with a
//!   tolerance on top (25% by default).
//!
//! [`run_all`] executes the suite and returns a [`Report`];
//! [`report::render_table`] prints it for humans, [`Report::to_json`] /
//! [`Report::from_json`] round-trip the machine-readable form committed
//! as `BENCH_8.json`, and [`compare::compare`] implements the regression
//! gate used by `mdesc perf --baseline` — including the hardware-aware
//! [`batch_scaling_floor`] on the engine's parallel speedup, the
//! [`ORACLE_GAP_CEILING`] on the list scheduler's measured optimality
//! gap against the exact branch-and-bound oracle, and the serve-latency
//! percentiles ([`Report::serve_p50_us`] / [`Report::serve_p99_us`])
//! from the closed-loop `serve/load` family, compared against the
//! baseline like any timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod reference;
pub mod report;
mod suite;

use std::time::Instant;

pub use compare::{compare, CompareOutcome, Delta, DeltaKind};
pub use reference::PointerChasedChecker;

/// Parameters of one harness run.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Base seed for every generated workload.
    pub seed: u64,
    /// Multiplier on iteration counts (>= such that every bench still
    /// runs at least one iteration).  Scaling changes how long the
    /// timing loops run but not the per-iteration work, so reports taken
    /// at different scales remain comparable.
    pub scale: f64,
    /// If set, only benches whose name contains this substring run.
    pub filter: Option<String>,
    /// Timing repetitions per bench (the K in median-of-K).
    pub reps: usize,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            seed: 0xC0FFEE,
            scale: 1.0,
            filter: None,
            reps: 5,
        }
    }
}

impl BenchConfig {
    /// A config with everything default but the seed.
    pub fn with_seed(mut self, seed: u64) -> BenchConfig {
        self.seed = seed;
        self
    }

    fn iters(&self, base: u64) -> u64 {
        ((base as f64 * self.scale).round() as u64).max(1)
    }

    fn matches(&self, name: &str) -> bool {
        match &self.filter {
            Some(f) => name.contains(f.as_str()),
            None => true,
        }
    }
}

/// One bench's measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Bench name, slash-namespaced (`checker/arena/wide`).
    pub name: String,
    /// Timed iterations per repetition.
    pub iters: u64,
    /// Repetitions (median-of-K).
    pub reps: u64,
    /// Deterministic work units per iteration — the byte-stable part of
    /// the report.  What a unit is depends on the bench (resource
    /// checks, scheduled operations, RU-map word ops); what matters is
    /// that the same seed must always reproduce the same count.
    pub ops: u64,
    /// Median over repetitions of the total nanoseconds for `iters`
    /// iterations.
    pub median_ns: u128,
    /// Fastest repetition, same units.
    pub min_ns: u128,
}

impl Sample {
    /// Median nanoseconds per work unit — the headline figure of the
    /// human-readable table (invariant under `--scale` and rep count).
    pub fn ns_per_op(&self) -> f64 {
        let units = (self.iters as f64) * (self.ops as f64);
        if units == 0.0 {
            return 0.0;
        }
        self.median_ns as f64 / units
    }

    /// Fastest-repetition nanoseconds per work unit — the quantity the
    /// regression gate compares.  Timing noise on a shared runner is
    /// strictly additive (CPU-quota throttling, neighbor interference
    /// can only make a repetition slower, never faster), so the minimum
    /// over K repetitions is the most robust estimator of how fast the
    /// code actually is.
    pub fn min_ns_per_op(&self) -> f64 {
        let units = (self.iters as f64) * (self.ops as f64);
        if units == 0.0 {
            return 0.0;
        }
        self.min_ns as f64 / units
    }
}

/// A full harness run: configuration echo, per-bench samples, derived
/// figures.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Report format version.
    pub schema: u32,
    /// Seed the workloads were generated from.
    pub seed: u64,
    /// Per-bench measurements, in suite order.
    pub benches: Vec<Sample>,
    /// Pointer-chased ÷ arena fastest-repetition time on the
    /// wide-OR-tree checker microbench (identical attempt streams, same
    /// checks): the measured effect of the flat check arena layout.
    /// Below 1 means the arena is slower.  0 when either side was
    /// filtered out of the run.
    pub checker_speedup: f64,
    /// `engine/batch/w1` ÷ `engine/batch/w4` fastest-repetition time:
    /// the measured parallel speedup of `Engine::schedule_batch` at 4
    /// workers on the seeded workload (same deterministic work on both
    /// sides, so total time is directly comparable).  Values above 1
    /// mean adding workers helps; the gate floor is hardware-aware
    /// ([`batch_scaling_floor`]).  0 when either side was filtered out
    /// of the run.
    pub batch_scaling: f64,
    /// Aggregate optimality gap from the `oracle/bnb/*` family: total
    /// list-scheduler cycles ÷ total provably-minimal oracle cycles over
    /// the seeded small-region streams on every bundled machine.  1.0
    /// would mean the list scheduler is exactly optimal on this
    /// workload; the gate rejects values above [`ORACLE_GAP_CEILING`].
    /// Unlike a timing this is a *quality* figure — deterministic for a
    /// given seed — so it is compared against an absolute ceiling, not
    /// against the baseline.  0 when the oracle family was filtered out
    /// of the run.
    pub oracle_gap: f64,
    /// p50 request latency (microseconds) of the `serve/load/k5`
    /// closed-loop run, fastest repetition: the end-to-end serve path —
    /// frame parse, shard routing, admission, engine, reply render —
    /// under pipelined load with every answer verified.  Compared
    /// against the baseline with the run's timing tolerance, so a serve
    /// latency regression fails CI like any other bench.  0 when the
    /// serve/load family was filtered out of the run.
    pub serve_p50_us: f64,
    /// p99 request latency of the same run — the tail the daemon's
    /// backpressure and deadline machinery exist to protect.  Gated
    /// like [`Report::serve_p50_us`].
    pub serve_p99_us: f64,
}

/// Ceiling on [`Report::oracle_gap`] enforced by the gate: the list
/// scheduler may emit at most 15% more cycles than the exact oracle over
/// the seeded small regions on the bundled machines.  The measured gap
/// on those streams sits around 1.01–1.05 (list scheduling with greedy
/// option choice is near-optimal on short regions), so the ceiling has
/// real slack while still catching a scheduling-quality regression long
/// before it would show in wall-clock benches.
pub const ORACLE_GAP_CEILING: f64 = 1.15;

/// The `batch_scaling` gate floor for a host with `cpus` usable CPUs.
///
/// On a host with at least 4 CPUs, 4 engine workers must deliver a real
/// parallel speedup: the floor is 3.0 (75% scaling efficiency).  On
/// smaller hosts — CI containers pinned to one or two cores — a
/// wall-clock speedup from extra threads is physically impossible, so
/// the floor degrades to a *no-harm* bound of 0.85: the 4-worker batch
/// may cost at most ~18% more wall-clock than the serial one.  That
/// bound is what catches the failure mode this figure exists for
/// (parallelism as a net loss: w4 *markedly slower* than w1 from queue
/// overhead and per-job allocation), on any hardware.  It is
/// deliberately loose: on a 1-CPU box the measured ratio sits around
/// 0.90–0.96 with a few points of scheduler-noise spread, and a floor
/// inside that spread would flake.
pub fn batch_scaling_floor_for(cpus: usize) -> f64 {
    if cpus >= 4 {
        3.0
    } else {
        0.85
    }
}

/// [`batch_scaling_floor_for`] evaluated on the current host
/// ([`std::thread::available_parallelism`]; 1 when that is unknowable).
pub fn batch_scaling_floor() -> f64 {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    batch_scaling_floor_for(cpus)
}

impl Report {
    /// Looks a bench up by exact name.
    pub fn bench(&self, name: &str) -> Option<&Sample> {
        self.benches.iter().find(|s| s.name == name)
    }

    /// Publishes the report into a telemetry registry: one
    /// `perf/<bench>/ns_per_op` and `perf/<bench>/ops` gauge pair per
    /// bench, plus `perf/checker_speedup` and `perf/batch_scaling`.
    pub fn publish(&self, tel: &mdes_telemetry::Telemetry) {
        for sample in &self.benches {
            tel.gauge_set(
                &format!("perf/{}/ns_per_op", sample.name),
                sample.ns_per_op(),
            );
            tel.gauge_set(&format!("perf/{}/ops", sample.name), sample.ops as f64);
        }
        tel.gauge_set("perf/checker_speedup", self.checker_speedup);
        tel.gauge_set("perf/batch_scaling", self.batch_scaling);
        tel.gauge_set("perf/oracle_gap", self.oracle_gap);
        tel.gauge_set("perf/serve_p50_us", self.serve_p50_us);
        tel.gauge_set("perf/serve_p99_us", self.serve_p99_us);
    }
}

/// The timing kernel: runs `work` (which must return its deterministic
/// work-unit count) `iters` times per repetition, `reps` repetitions,
/// and keeps the median and minimum repetition.
///
/// # Panics
///
/// Panics if `work` is not deterministic (returns different counts on
/// different invocations) — that would silently unmoor the baseline
/// comparison, so it is a harness bug worth failing loudly on.
pub fn measure<F: FnMut() -> u64>(name: &str, iters: u64, reps: usize, mut work: F) -> Sample {
    let reps = reps.max(1);
    let mut totals: Vec<u128> = Vec::with_capacity(reps);
    let mut ops: Option<u64> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let mut last = 0u64;
        for _ in 0..iters {
            last = work();
        }
        totals.push(start.elapsed().as_nanos());
        match ops {
            None => ops = Some(last),
            Some(expected) => assert_eq!(
                expected, last,
                "bench {name} is not deterministic: {expected} vs {last} work units"
            ),
        }
    }
    totals.sort_unstable();
    Sample {
        name: name.to_string(),
        iters,
        reps: reps as u64,
        ops: ops.unwrap_or(0),
        median_ns: totals[totals.len() / 2],
        min_ns: totals[0],
    }
}

/// Runs the whole suite under `config`.
pub fn run_all(config: &BenchConfig) -> Report {
    let mut benches = Vec::new();
    suite::run(config, &mut benches);
    // The oracle family doubles as the source of the derived quality
    // figure: the aggregate list-scheduler gap over every measured
    // machine.
    let oracle_gap = suite::oracle_differential(config, &mut benches);
    // The serve/load family likewise yields the gated end-to-end serve
    // latency percentiles (from the K5 run's fastest repetition).
    let (serve_p50_us, serve_p99_us) = suite::serve_load(config, &mut benches);

    // Both sides of the A/B run the identical attempt stream at the same
    // iteration count, so total time is directly comparable.  Fastest
    // repetition on each side, for the same noise-robustness reason the
    // gate uses min-of-K.
    let pointer = benches
        .iter()
        .find(|s| s.name == suite::POINTER_CHASED_BENCH)
        .map(|s| s.min_ns);
    let arena = benches
        .iter()
        .find(|s| s.name == suite::ARENA_BENCH)
        .map(|s| s.min_ns);
    let checker_speedup = match (pointer, arena) {
        (Some(p), Some(a)) if a > 0 => p as f64 / a as f64,
        _ => 0.0,
    };

    // Same reasoning for the engine scaling figure: w1 and w4 schedule
    // the identical seeded batch (the op counts are asserted equal by
    // the engine's determinism contract), so fastest-repetition total
    // time divides directly into a parallel speedup.
    let w1 = benches
        .iter()
        .find(|s| s.name == suite::BATCH_W1_BENCH)
        .map(|s| s.min_ns);
    let w4 = benches
        .iter()
        .find(|s| s.name == suite::BATCH_W4_BENCH)
        .map(|s| s.min_ns);
    let batch_scaling = match (w1, w4) {
        (Some(serial), Some(wide)) if wide > 0 => serial as f64 / wide as f64,
        _ => 0.0,
    };

    Report {
        schema: 5,
        seed: config.seed,
        benches,
        checker_speedup,
        batch_scaling,
        oracle_gap,
        serve_p50_us,
        serve_p99_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_records_iteration_count_and_ops() {
        let sample = measure("t", 3, 5, || 7);
        assert_eq!(sample.iters, 3);
        assert_eq!(sample.reps, 5);
        assert_eq!(sample.ops, 7);
        assert!(sample.median_ns >= sample.min_ns);
    }

    #[test]
    #[should_panic(expected = "not deterministic")]
    fn measure_rejects_nondeterministic_work() {
        let mut n = 0u64;
        measure("t", 1, 2, || {
            n += 1;
            n
        });
    }

    #[test]
    fn scaled_iteration_counts_never_reach_zero() {
        let config = BenchConfig {
            scale: 0.001,
            ..BenchConfig::default()
        };
        assert_eq!(config.iters(100), 1);
    }

    #[test]
    fn filter_selects_by_substring() {
        let config = BenchConfig {
            filter: Some("checker".into()),
            ..BenchConfig::default()
        };
        assert!(config.matches("checker/arena/wide"));
        assert!(!config.matches("rumap/word_ops"));
    }

    #[test]
    fn same_seed_reproduces_identical_op_counts() {
        let config = BenchConfig {
            scale: 0.05,
            reps: 1,
            ..BenchConfig::default()
        };
        let a = run_all(&config);
        let b = run_all(&config);
        let counts = |r: &Report| {
            r.benches
                .iter()
                .map(|s| (s.name.clone(), s.ops))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&a), counts(&b));
        assert!(!a.benches.is_empty());
    }
}
