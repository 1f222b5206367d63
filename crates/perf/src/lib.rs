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
//! The suite is one list of benches, each a name, an iteration count and
//! a set-up that returns the closure [`measure`] times; [`run_all`] walks
//! it and reads the report's derived [`Figure`]s off what it measured.
//! [`report::render_table`] prints a [`Report`] for humans,
//! [`Report::to_json`] / [`Report::from_json`] round-trip the
//! machine-readable form committed as `BENCH_8.json`, and
//! [`compare::compare`] implements the regression gate used by `mdesc
//! perf --baseline`: per-bench op counts and timings against the
//! baseline, and each figure against its [`Bound`] — the hardware-aware
//! [`batch_scaling_floor`] on the engine's parallel speedup, the
//! [`ORACLE_GAP_CEILING`] on the list scheduler's measured optimality gap
//! against the exact branch-and-bound oracle, and the baseline itself for
//! the closed-loop serve latency percentiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod report;
mod suite;

use std::fmt;
use std::time::Instant;

pub use compare::{compare, CompareOutcome, Delta, DeltaKind};

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
    /// The derived figures, in report order: `batch_scaling`,
    /// `oracle_gap`, `serve_p50_us` and `serve_p99_us`.
    pub figures: Vec<Figure>,
}

/// One derived figure: a value read off a run's benches rather than
/// timed itself, and the bound the gate holds it to.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// The figure's key in the JSON report, its `perf/<name>` gauge, and
    /// the stem of its gate delta (`oracle_gap (ceiling)`).
    pub name: &'static str,
    /// The measured value; 0 when the filter left out the benches it is
    /// read off, which the gate then skips.
    pub value: f64,
    /// What the gate holds the value to.
    pub bound: Bound,
}

/// What the gate holds a derived figure to.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Bound {
    /// At least this much, whatever the baseline measured: a delta
    /// named `<figure> (floor)`, `BELOW FLOOR` when short of it.
    Floor(f64),
    /// At most this much, whatever the baseline measured: a delta named
    /// `<figure> (ceiling)`, `ABOVE CEILING` when over it.
    Ceiling(f64),
    /// A wall-clock figure gated like a timing: at most the baseline's
    /// value plus the run's tolerance, a delta named `<figure>
    /// (latency)`, skipped when the baseline's reads 0.
    Latency,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Floor(floor) => write!(f, "at least {floor:.2}"),
            Bound::Ceiling(ceiling) => write!(f, "at most {ceiling:.2}"),
            Bound::Latency => write!(f, "within the timing tolerance of the baseline"),
        }
    }
}

/// Ceiling on the `oracle_gap` figure enforced by the gate: the list
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
    /// bench, and one `perf/<figure>` gauge per derived figure.
    pub fn publish(&self, tel: &mdes_telemetry::Telemetry) {
        for sample in &self.benches {
            tel.gauge_set(
                &format!("perf/{}/ns_per_op", sample.name),
                sample.ns_per_op(),
            );
            tel.gauge_set(&format!("perf/{}/ops", sample.name), sample.ops as f64);
        }
        for figure in &self.figures {
            tel.gauge_set(&format!("perf/{}", figure.name), figure.value);
        }
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

/// Runs every bench `config` selects, in suite order: each one's set-up,
/// then [`measure`] on the closure it returns, which is dropped (with
/// any daemon it owns) before the next bench starts.  The derived
/// figures are then read off what the benches measured.
pub fn run_all(config: &BenchConfig) -> Report {
    let mut runs = Vec::new();
    for bench in suite::registry() {
        if !config.matches(&bench.name) {
            continue;
        }
        let mut iteration = (bench.setup)(config.seed);
        let mut seen = suite::Seen::default();
        let sample = measure(&bench.name, config.iters(bench.iters), config.reps, || {
            iteration(&mut seen)
        });
        runs.push((sample, seen));
    }
    let figures = suite::figures(&runs);
    Report {
        schema: 6,
        seed: config.seed,
        benches: runs.into_iter().map(|(sample, _)| sample).collect(),
        figures,
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
    fn registry_runs_only_the_benches_the_filter_selects() {
        let config = BenchConfig {
            filter: Some("rumap/word_ops".into()),
            scale: 0.01,
            reps: 1,
            ..BenchConfig::default()
        };
        let report = run_all(&config);
        let benches: Vec<(&str, u64, u64, u64)> = report
            .benches
            .iter()
            .map(|s| (s.name.as_str(), s.iters, s.reps, s.ops))
            .collect();
        assert_eq!(benches, [("rumap/word_ops", 2, 1, 4608)]);
        let figures: Vec<(&str, f64)> = report.figures.iter().map(|f| (f.name, f.value)).collect();
        assert_eq!(
            figures,
            [
                ("batch_scaling", 0.0),
                ("oracle_gap", 0.0),
                ("serve_p50_us", 0.0),
                ("serve_p99_us", 0.0)
            ]
        );
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
