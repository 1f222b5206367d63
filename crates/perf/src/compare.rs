//! The regression gate: current run vs committed baseline.
//!
//! Two different comparisons, because the two halves of a sample have
//! different natures:
//!
//! * **work counts** (`ops`) are seed-deterministic — any drift means
//!   the measured code path changed shape without the baseline being
//!   regenerated, and is always a failure;
//! * **timings** are wall-clock on a shared machine — only a slowdown
//!   beyond the configured tolerance (25% by default) fails, compared
//!   on ns-per-work-unit so runs at different `--scale` remain
//!   comparable.  Both sides use the *fastest* repetition
//!   ([`crate::Sample::min_ns_per_op`]): interference on a shared
//!   runner (CPU-quota throttling, noisy neighbors) only ever adds
//!   time, so the minimum over K repetitions estimates true speed where
//!   the median can absorb a whole throttle window.
//!
//! A bench present in the baseline but missing from the run fails (a
//! silently dropped bench is how perf coverage rots); a new bench not
//! yet in the baseline is reported but passes.
//!
//! On top of the per-bench comparison, the gate holds each of the
//! report's derived figures to its [`Bound`]:
//!
//! * a **floor** (`batch_scaling`, the engine's measured parallel
//!   speedup at 4 workers) or a **ceiling** (`oracle_gap`, list-scheduler
//!   cycles ÷ exact branch-and-bound oracle cycles on the seeded small
//!   regions) is an absolute bound, not a delta against the baseline, so
//!   a run past it fails even if the baseline was just as bad.  The
//!   floor is hardware-aware — see [`crate::batch_scaling_floor_for`];
//! * a **latency** (`serve_p50_us`/`serve_p99_us`, the daemon's
//!   closed-loop request latency from the `serve/load/*` family) is
//!   wall-clock like any timing, so it is compared against the
//!   *baseline's* figure under the same timing tolerance.
//!
//! A figure reading 0 is skipped (its benches were filtered out of the
//! run), and so is a latency whose baseline reads 0.

use crate::{Bound, Report};

/// How one bench moved against the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Bench name.
    pub name: String,
    /// Baseline ns per work unit (fastest repetition).
    pub baseline_ns_per_op: f64,
    /// Current ns per work unit, fastest repetition (0 when missing
    /// from the run).
    pub current_ns_per_op: f64,
    /// `current / baseline - 1`: positive is slower.
    pub ratio: f64,
    /// Classification under the configured tolerance.
    pub kind: DeltaKind,
}

/// Gate classification of one bench.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// Within tolerance (or faster).
    Ok,
    /// Slower than the tolerance allows.
    Regressed,
    /// Deterministic op count differs from the baseline.
    CountDrift,
    /// In the baseline but not in this run.
    Missing,
    /// In this run but not in the baseline yet.
    New,
    /// A derived figure is below its [`Bound::Floor`].  For figure
    /// deltas the `*_ns_per_op` fields carry the bound (or the
    /// baseline's figure) and the measured value instead of timings.
    BelowFloor,
    /// A derived figure is above its [`Bound::Ceiling`].
    AboveCeiling,
}

/// The gate's verdict over a whole report.
#[derive(Clone, Debug)]
pub struct CompareOutcome {
    /// Per-bench deltas, baseline order then new benches.
    pub deltas: Vec<Delta>,
    /// Allowed slowdown, e.g. `0.25`.
    pub max_regression: f64,
}

impl CompareOutcome {
    /// True when no bench regressed, drifted, or went missing.
    pub fn passed(&self) -> bool {
        self.deltas
            .iter()
            .all(|d| matches!(d.kind, DeltaKind::Ok | DeltaKind::New))
    }

    /// The benches that make [`CompareOutcome::passed`] false.
    pub fn failures(&self) -> impl Iterator<Item = &Delta> {
        self.deltas
            .iter()
            .filter(|d| !matches!(d.kind, DeltaKind::Ok | DeltaKind::New))
    }
}

/// Compares `current` against `baseline` with `max_regression` timing
/// tolerance (0.25 = fail beyond 25% slower per work unit), and holds
/// each of `current`'s derived figures to its bound (see the module
/// docs).
pub fn compare(current: &Report, baseline: &Report, max_regression: f64) -> CompareOutcome {
    let mut deltas = Vec::new();
    for base in &baseline.benches {
        let delta = match current.bench(&base.name) {
            None => Delta {
                name: base.name.clone(),
                baseline_ns_per_op: base.min_ns_per_op(),
                current_ns_per_op: 0.0,
                ratio: 0.0,
                kind: DeltaKind::Missing,
            },
            Some(now) => {
                let baseline_ns = base.min_ns_per_op();
                let current_ns = now.min_ns_per_op();
                let ratio = if baseline_ns > 0.0 {
                    current_ns / baseline_ns - 1.0
                } else {
                    0.0
                };
                let kind = if now.ops != base.ops {
                    DeltaKind::CountDrift
                } else if ratio > max_regression {
                    DeltaKind::Regressed
                } else {
                    DeltaKind::Ok
                };
                Delta {
                    name: base.name.clone(),
                    baseline_ns_per_op: baseline_ns,
                    current_ns_per_op: current_ns,
                    ratio,
                    kind,
                }
            }
        };
        deltas.push(delta);
    }
    for now in &current.benches {
        if baseline.bench(&now.name).is_none() {
            deltas.push(Delta {
                name: now.name.clone(),
                baseline_ns_per_op: 0.0,
                current_ns_per_op: now.min_ns_per_op(),
                ratio: 0.0,
                kind: DeltaKind::New,
            });
        }
    }
    for figure in &current.figures {
        let value = figure.value;
        let (label, limit, failed, failure) = match figure.bound {
            Bound::Floor(floor) => ("floor", floor, value < floor, DeltaKind::BelowFloor),
            Bound::Ceiling(ceiling) => {
                let above = value > ceiling;
                ("ceiling", ceiling, above, DeltaKind::AboveCeiling)
            }
            Bound::Latency => {
                let base = baseline
                    .figures
                    .iter()
                    .find(|base| base.name == figure.name)
                    .map_or(0.0, |base| base.value);
                let slower = value / base - 1.0 > max_regression;
                ("latency", base, slower, DeltaKind::Regressed)
            }
        };
        if value <= 0.0 || limit <= 0.0 {
            continue;
        }
        deltas.push(Delta {
            name: format!("{} ({label})", figure.name),
            baseline_ns_per_op: limit,
            current_ns_per_op: value,
            ratio: value / limit - 1.0,
            kind: if failed { failure } else { DeltaKind::Ok },
        });
    }
    CompareOutcome {
        deltas,
        max_regression,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Figure, Sample};

    fn report(benches: &[(&str, u64, u128)]) -> Report {
        Report {
            schema: 6,
            seed: 1,
            benches: benches
                .iter()
                .map(|&(name, ops, median_ns)| Sample {
                    name: name.to_string(),
                    iters: 10,
                    reps: 3,
                    ops,
                    median_ns,
                    min_ns: median_ns,
                })
                .collect(),
            figures: Vec::new(),
        }
    }

    /// `report` with one bench `a` and the given derived figures.
    fn with_figures(figures: &[(&'static str, f64, Bound)]) -> Report {
        let mut r = report(&[("a", 100, 1000)]);
        r.figures = figures
            .iter()
            .map(|&(name, value, bound)| Figure { name, value, bound })
            .collect();
        r
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[("a", 100, 1000), ("b", 5, 700)]);
        let outcome = compare(&r, &r, 0.25);
        assert!(outcome.passed());
        assert!(outcome.deltas.iter().all(|d| d.kind == DeltaKind::Ok));
    }

    #[test]
    fn slowdown_beyond_tolerance_fails_within_passes() {
        let base = report(&[("a", 100, 1000)]);
        let slower_ok = report(&[("a", 100, 1200)]);
        let slower_bad = report(&[("a", 100, 1300)]);
        assert!(compare(&slower_ok, &base, 0.25).passed());
        let outcome = compare(&slower_bad, &base, 0.25);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.failures().next().unwrap().kind,
            DeltaKind::Regressed
        );
    }

    #[test]
    fn speedups_always_pass() {
        let base = report(&[("a", 100, 1000)]);
        let faster = report(&[("a", 100, 10)]);
        assert!(compare(&faster, &base, 0.0).passed());
    }

    #[test]
    fn op_count_drift_fails_even_when_faster() {
        let base = report(&[("a", 100, 1000)]);
        let drifted = report(&[("a", 99, 10)]);
        let outcome = compare(&drifted, &base, 0.25);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.failures().next().unwrap().kind,
            DeltaKind::CountDrift
        );
    }

    #[test]
    fn missing_bench_fails_new_bench_passes() {
        let base = report(&[("a", 100, 1000)]);
        let renamed = report(&[("b", 100, 1000)]);
        let outcome = compare(&renamed, &base, 0.25);
        assert!(!outcome.passed());
        let kinds: Vec<DeltaKind> = outcome.deltas.iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DeltaKind::Missing, DeltaKind::New]);
    }

    #[test]
    fn batch_scaling_below_floor_fails_above_passes() {
        let base = report(&[("a", 100, 1000)]);
        let now = with_figures(&[("batch_scaling", 0.7, Bound::Floor(0.9))]);
        let outcome = compare(&now, &base, 0.25);
        assert!(!outcome.passed());
        let failure = outcome.failures().next().unwrap();
        assert_eq!(failure.kind, DeltaKind::BelowFloor);
        assert_eq!(failure.name, "batch_scaling (floor)");
        let now = with_figures(&[("batch_scaling", 3.4, Bound::Floor(3.0))]);
        assert!(compare(&now, &base, 0.25).passed());
    }

    #[test]
    fn oracle_gap_above_ceiling_fails_below_passes() {
        let base = report(&[("a", 100, 1000)]);
        let ceiling = Bound::Ceiling(crate::ORACLE_GAP_CEILING);
        let now = with_figures(&[("oracle_gap", 1.3, ceiling)]);
        let outcome = compare(&now, &base, 0.25);
        assert!(!outcome.passed());
        let failure = outcome.failures().next().unwrap();
        assert_eq!(failure.kind, DeltaKind::AboveCeiling);
        assert_eq!(failure.name, "oracle_gap (ceiling)");
        let now = with_figures(&[("oracle_gap", 1.05, ceiling)]);
        assert!(compare(&now, &base, 0.25).passed());
    }

    #[test]
    fn ceiling_is_skipped_when_oracle_benches_were_filtered_out() {
        // oracle_gap stays 0 when the oracle family did not run;
        // a filtered run must not trip the ceiling.
        let base = report(&[("a", 100, 1000)]);
        let ceiling = Bound::Ceiling(crate::ORACLE_GAP_CEILING);
        let now = with_figures(&[("oracle_gap", 0.0, ceiling)]);
        let outcome = compare(&now, &base, 0.25);
        assert!(outcome.passed());
        assert_eq!(outcome.deltas.len(), 1);
    }

    #[test]
    fn floor_is_skipped_when_engine_benches_were_filtered_out() {
        // batch_scaling stays 0 when the engine benches did not run; a
        // filtered run must not trip the floor.
        let base = report(&[("a", 100, 1000)]);
        let now = with_figures(&[("batch_scaling", 0.0, Bound::Floor(3.0))]);
        let outcome = compare(&now, &base, 0.25);
        assert!(outcome.passed());
        assert_eq!(outcome.deltas.len(), 1);
    }

    #[test]
    fn floor_for_cpus_is_hardware_aware() {
        assert_eq!(crate::batch_scaling_floor_for(1), 0.85);
        assert_eq!(crate::batch_scaling_floor_for(2), 0.85);
        assert_eq!(crate::batch_scaling_floor_for(4), 3.0);
        assert_eq!(crate::batch_scaling_floor_for(64), 3.0);
    }

    #[test]
    fn serve_latency_regression_fails_within_tolerance_passes() {
        let latency = |p50, p99| {
            with_figures(&[
                ("serve_p50_us", p50, Bound::Latency),
                ("serve_p99_us", p99, Bound::Latency),
            ])
        };
        let base = latency(800.0, 2000.0);
        // +20%: inside a 25% tolerance
        assert!(compare(&latency(800.0, 2400.0), &base, 0.25).passed());
        // +30%: out
        let outcome = compare(&latency(800.0, 2600.0), &base, 0.25);
        assert!(!outcome.passed());
        let failure = outcome.failures().next().unwrap();
        assert_eq!(failure.kind, DeltaKind::Regressed);
        assert_eq!(failure.name, "serve_p99_us (latency)");
    }

    #[test]
    fn serve_latency_is_skipped_when_either_side_reads_zero() {
        // A filtered run (current 0) or a pre-serve baseline (baseline
        // 0) must not trip the latency gate.
        let latency = |us| {
            with_figures(&[
                ("serve_p50_us", us, Bound::Latency),
                ("serve_p99_us", us, Bound::Latency),
            ])
        };
        let outcome = compare(&latency(9000.0), &latency(0.0), 0.25);
        assert!(outcome.passed());
        assert_eq!(outcome.deltas.len(), 1);
        let outcome = compare(&latency(0.0), &latency(100.0), 0.25);
        assert!(outcome.passed());
        assert_eq!(outcome.deltas.len(), 1);
    }

    #[test]
    fn scale_invariance_through_ns_per_op() {
        // Same per-op speed at 10x the iterations: no regression.
        let base = report(&[("a", 100, 1000)]);
        let mut scaled = report(&[("a", 100, 10_000)]);
        scaled.benches[0].iters = 100;
        assert!(compare(&scaled, &base, 0.01).passed());
    }
}
