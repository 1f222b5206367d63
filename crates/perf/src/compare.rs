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
//! On top of the per-bench comparison, the gate enforces a **floor** on
//! the report's derived `batch_scaling` figure (the engine's measured
//! parallel speedup at 4 workers): unlike a timing, a speedup ratio is
//! compared against an absolute bound, not against the baseline, so a
//! run whose w4 batch does not beat the floor fails even if the
//! baseline was just as bad.  The floor is hardware-aware — see
//! [`crate::batch_scaling_floor_for`].
//!
//! Symmetrically the gate enforces a **ceiling** on the derived
//! `oracle_gap` figure (list-scheduler cycles ÷ exact branch-and-bound
//! oracle cycles on the seeded small regions): the list scheduler may
//! not drift more than [`crate::ORACLE_GAP_CEILING`] above
//! provably-optimal length, no matter what the baseline measured.
//!
//! Finally the gate compares the derived serve-latency percentiles
//! (`serve_p50_us`/`serve_p99_us`, the daemon's closed-loop request
//! latency from the `serve/load/*` family) against the *baseline's*
//! figures under the same timing tolerance — latencies are wall-clock
//! like any timing, so they get the relative gate, not an absolute
//! bound.  Skipped when either side reads 0 (family filtered out, or a
//! pre-serve baseline).

use crate::Report;

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
    /// A derived gauge (e.g. `batch_scaling`) is below its required
    /// floor.  For gauge deltas the `*_ns_per_op` fields carry the floor
    /// and the measured value instead of timings.
    BelowFloor,
    /// A derived gauge (e.g. `oracle_gap`) is above its allowed
    /// ceiling.  As with [`DeltaKind::BelowFloor`], the `*_ns_per_op`
    /// fields carry the ceiling and the measured value.
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
/// tolerance (0.25 = fail beyond 25% slower per work unit) and fails
/// the run when its `batch_scaling` figure is below
/// `batch_scaling_floor` (pass [`crate::batch_scaling_floor`] for the
/// current host's bound) or its `oracle_gap` figure is above
/// `oracle_gap_ceiling` (pass [`crate::ORACLE_GAP_CEILING`]).  Each
/// gauge check is skipped when its benches were filtered out of the run
/// (the figure reads 0).  The serve-latency percentiles are compared
/// against the baseline's under `max_regression`, skipped when either
/// side reads 0.
pub fn compare(
    current: &Report,
    baseline: &Report,
    max_regression: f64,
    batch_scaling_floor: f64,
    oracle_gap_ceiling: f64,
) -> CompareOutcome {
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
    if current.batch_scaling > 0.0 && batch_scaling_floor > 0.0 {
        deltas.push(Delta {
            name: "batch_scaling (floor)".to_string(),
            baseline_ns_per_op: batch_scaling_floor,
            current_ns_per_op: current.batch_scaling,
            ratio: current.batch_scaling / batch_scaling_floor - 1.0,
            kind: if current.batch_scaling < batch_scaling_floor {
                DeltaKind::BelowFloor
            } else {
                DeltaKind::Ok
            },
        });
    }
    if current.oracle_gap > 0.0 && oracle_gap_ceiling > 0.0 {
        deltas.push(Delta {
            name: "oracle_gap (ceiling)".to_string(),
            baseline_ns_per_op: oracle_gap_ceiling,
            current_ns_per_op: current.oracle_gap,
            ratio: current.oracle_gap / oracle_gap_ceiling - 1.0,
            kind: if current.oracle_gap > oracle_gap_ceiling {
                DeltaKind::AboveCeiling
            } else {
                DeltaKind::Ok
            },
        });
    }
    for (name, now_us, base_us) in [
        (
            "serve_p50_us (latency)",
            current.serve_p50_us,
            baseline.serve_p50_us,
        ),
        (
            "serve_p99_us (latency)",
            current.serve_p99_us,
            baseline.serve_p99_us,
        ),
    ] {
        if now_us <= 0.0 || base_us <= 0.0 {
            continue;
        }
        let ratio = now_us / base_us - 1.0;
        deltas.push(Delta {
            name: name.to_string(),
            baseline_ns_per_op: base_us,
            current_ns_per_op: now_us,
            ratio,
            kind: if ratio > max_regression {
                DeltaKind::Regressed
            } else {
                DeltaKind::Ok
            },
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
    use crate::Sample;

    fn report(benches: &[(&str, u64, u128)]) -> Report {
        Report {
            schema: 5,
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
            checker_speedup: 0.0,
            batch_scaling: 0.0,
            oracle_gap: 0.0,
            serve_p50_us: 0.0,
            serve_p99_us: 0.0,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[("a", 100, 1000), ("b", 5, 700)]);
        let outcome = compare(&r, &r, 0.25, 0.0, 0.0);
        assert!(outcome.passed());
        assert!(outcome.deltas.iter().all(|d| d.kind == DeltaKind::Ok));
    }

    #[test]
    fn slowdown_beyond_tolerance_fails_within_passes() {
        let base = report(&[("a", 100, 1000)]);
        let slower_ok = report(&[("a", 100, 1200)]);
        let slower_bad = report(&[("a", 100, 1300)]);
        assert!(compare(&slower_ok, &base, 0.25, 0.0, 0.0).passed());
        let outcome = compare(&slower_bad, &base, 0.25, 0.0, 0.0);
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
        assert!(compare(&faster, &base, 0.0, 0.0, 0.0).passed());
    }

    #[test]
    fn op_count_drift_fails_even_when_faster() {
        let base = report(&[("a", 100, 1000)]);
        let drifted = report(&[("a", 99, 10)]);
        let outcome = compare(&drifted, &base, 0.25, 0.0, 0.0);
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
        let outcome = compare(&renamed, &base, 0.25, 0.0, 0.0);
        assert!(!outcome.passed());
        let kinds: Vec<DeltaKind> = outcome.deltas.iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DeltaKind::Missing, DeltaKind::New]);
    }

    #[test]
    fn batch_scaling_below_floor_fails_above_passes() {
        let base = report(&[("a", 100, 1000)]);
        let mut now = report(&[("a", 100, 1000)]);
        now.batch_scaling = 0.7;
        let outcome = compare(&now, &base, 0.25, 0.9, 0.0);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.failures().next().unwrap().kind,
            DeltaKind::BelowFloor
        );
        now.batch_scaling = 3.4;
        assert!(compare(&now, &base, 0.25, 3.0, 0.0).passed());
    }

    #[test]
    fn oracle_gap_above_ceiling_fails_below_passes() {
        let base = report(&[("a", 100, 1000)]);
        let mut now = report(&[("a", 100, 1000)]);
        now.oracle_gap = 1.3;
        let outcome = compare(&now, &base, 0.25, 0.0, crate::ORACLE_GAP_CEILING);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.failures().next().unwrap().kind,
            DeltaKind::AboveCeiling
        );
        now.oracle_gap = 1.05;
        assert!(compare(&now, &base, 0.25, 0.0, crate::ORACLE_GAP_CEILING).passed());
    }

    #[test]
    fn ceiling_is_skipped_when_oracle_benches_were_filtered_out() {
        // oracle_gap stays 0 when the oracle family did not run;
        // a filtered run must not trip the ceiling.
        let base = report(&[("a", 100, 1000)]);
        let now = report(&[("a", 100, 1000)]);
        assert!(compare(&now, &base, 0.25, 0.0, crate::ORACLE_GAP_CEILING).passed());
    }

    #[test]
    fn floor_is_skipped_when_engine_benches_were_filtered_out() {
        // batch_scaling stays 0 when the engine benches did not run; a
        // filtered run must not trip the floor.
        let base = report(&[("a", 100, 1000)]);
        let now = report(&[("a", 100, 1000)]);
        assert!(compare(&now, &base, 0.25, 3.0, 0.0).passed());
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
        let mut base = report(&[("a", 100, 1000)]);
        base.serve_p50_us = 800.0;
        base.serve_p99_us = 2000.0;
        let mut now = base.clone();
        now.serve_p99_us = 2400.0; // +20%: inside a 25% tolerance
        assert!(compare(&now, &base, 0.25, 0.0, 0.0).passed());
        now.serve_p99_us = 2600.0; // +30%: out
        let outcome = compare(&now, &base, 0.25, 0.0, 0.0);
        assert!(!outcome.passed());
        let failure = outcome.failures().next().unwrap();
        assert_eq!(failure.kind, DeltaKind::Regressed);
        assert_eq!(failure.name, "serve_p99_us (latency)");
    }

    #[test]
    fn serve_latency_is_skipped_when_either_side_reads_zero() {
        // A filtered run (current 0) or a pre-serve baseline (baseline
        // 0) must not trip the latency gate.
        let mut base = report(&[("a", 100, 1000)]);
        let mut now = report(&[("a", 100, 1000)]);
        now.serve_p50_us = 900.0;
        now.serve_p99_us = 9000.0;
        assert!(compare(&now, &base, 0.25, 0.0, 0.0).passed());
        base.serve_p50_us = 100.0;
        base.serve_p99_us = 100.0;
        now.serve_p50_us = 0.0;
        now.serve_p99_us = 0.0;
        assert!(compare(&now, &base, 0.25, 0.0, 0.0).passed());
    }

    #[test]
    fn scale_invariance_through_ns_per_op() {
        // Same per-op speed at 10x the iterations: no regression.
        let base = report(&[("a", 100, 1000)]);
        let mut scaled = report(&[("a", 100, 10_000)]);
        scaled.benches[0].iters = 100;
        assert!(compare(&scaled, &base, 0.01, 0.0, 0.0).passed());
    }
}
