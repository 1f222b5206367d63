//! Human-readable rendering of harness reports and gate outcomes.

use crate::{CompareOutcome, DeltaKind, Report};

/// Renders a report as an aligned table.
pub fn render_table(report: &Report) -> String {
    let name_width = report
        .benches
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$}  {:>8}  {:>12}  {:>12}  {:>10}\n",
        "bench", "iters", "ops/iter", "median", "ns/op"
    ));
    out.push_str(&format!(
        "{}  {}  {}  {}  {}\n",
        "-".repeat(name_width),
        "-".repeat(8),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(10)
    ));
    for s in &report.benches {
        out.push_str(&format!(
            "{:<name_width$}  {:>8}  {:>12}  {:>12}  {:>10.2}\n",
            s.name,
            s.iters,
            s.ops,
            format_ns(s.median_ns),
            s.ns_per_op()
        ));
    }
    out.push_str(&format!(
        "\nseed {:#x} · checker speedup (pointer-chased ÷ arena): {:.2}x\n",
        report.seed, report.checker_speedup
    ));
    out.push_str(&format!(
        "batch scaling (engine w1 ÷ w4): {:.2}x\n",
        report.batch_scaling
    ));
    out.push_str(&format!(
        "oracle_gap (list ÷ oracle cycles): {:.3}\n",
        report.oracle_gap
    ));
    out.push_str(&format!(
        "serve latency (closed-loop pipelined, k5): p50 {:.0}us · p99 {:.0}us\n",
        report.serve_p50_us, report.serve_p99_us
    ));
    out
}

/// Renders a gate outcome as a delta table (printed on pass *and* fail
/// so CI logs always show the trend).
pub fn render_deltas(outcome: &CompareOutcome) -> String {
    let name_width = outcome
        .deltas
        .iter()
        .map(|d| d.name.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let mut out = String::new();
    // min-of-K per work unit on both sides — see `Sample::min_ns_per_op`.
    out.push_str(&format!(
        "{:<name_width$}  {:>12}  {:>12}  {:>8}  status\n",
        "bench", "base min/op", "now min/op", "delta"
    ));
    for d in &outcome.deltas {
        let status = match d.kind {
            DeltaKind::Ok => "ok",
            DeltaKind::Regressed => "REGRESSED",
            DeltaKind::CountDrift => "COUNT DRIFT",
            DeltaKind::Missing => "MISSING",
            DeltaKind::New => "new",
            DeltaKind::BelowFloor => "BELOW FLOOR",
            DeltaKind::AboveCeiling => "ABOVE CEILING",
        };
        out.push_str(&format!(
            "{:<name_width$}  {:>12.2}  {:>12.2}  {:>+7.1}%  {status}\n",
            d.name,
            d.baseline_ns_per_op,
            d.current_ns_per_op,
            d.ratio * 100.0,
        ));
    }
    out.push_str(&format!(
        "\ntolerance: +{:.0}% per work unit (fastest repetition); op counts must match exactly\n",
        outcome.max_regression * 100.0
    ));
    out
}

fn format_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compare, Sample};

    #[test]
    fn table_lists_every_bench_and_the_speedup() {
        let report = Report {
            schema: 5,
            seed: 7,
            benches: vec![Sample {
                name: "rumap/word_ops".into(),
                iters: 10,
                reps: 5,
                ops: 100,
                median_ns: 12_345,
                min_ns: 12_000,
            }],
            checker_speedup: 1.75,
            batch_scaling: 3.12,
            oracle_gap: 1.042,
            serve_p50_us: 850.0,
            serve_p99_us: 2412.0,
        };
        let table = render_table(&report);
        assert!(table.contains("rumap/word_ops"));
        assert!(table.contains("12.35us"));
        assert!(table.contains("1.75x"));
        assert!(table.contains("3.12x"));
        assert!(table.contains("1.042"));
        assert!(table.contains("p50 850us"));
        assert!(table.contains("p99 2412us"));
    }

    #[test]
    fn delta_table_marks_failures() {
        let mk = |ns: u128| Report {
            schema: 5,
            seed: 7,
            benches: vec![Sample {
                name: "a".into(),
                iters: 1,
                reps: 1,
                ops: 1,
                median_ns: ns,
                min_ns: ns,
            }],
            checker_speedup: 0.0,
            batch_scaling: 0.0,
            oracle_gap: 0.0,
            serve_p50_us: 0.0,
            serve_p99_us: 0.0,
        };
        let outcome = compare(&mk(2000), &mk(1000), 0.25, 0.0, 0.0);
        let rendered = render_deltas(&outcome);
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.contains("+100.0%"));
    }
}
