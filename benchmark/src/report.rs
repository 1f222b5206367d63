//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its mode by name with its unit,
//! whatever the workload: the untraced run the end-to-end metrics, the
//! traced run the per-layer ones.  A workload records what it measures
//! in either mode; the catalogue picks what is printed.  A layer that a workload does not reach
//! reads 0 in that workload's traced run.  `BENCHMARK.json` declares the
//! same names, and the smoke test holds the two together.

use std::fmt::Write;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("image_bytes", "B"),
    ("checks_per_attempt", "count"),
];

/// Per-layer metrics of the traced run: (name, unit).  The first three
/// are whole-workload timings whose run-to-run spread on a shared host is
/// too wide for a regression bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("lang.parse_us", "us"),
    ("lang.elaborate_us", "us"),
    ("opt.redundancy_us", "us"),
    ("opt.dominance_us", "us"),
    ("opt.shifting_us", "us"),
    ("opt.sortzero_us", "us"),
    ("opt.treesort_us", "us"),
    ("opt.factor_us", "us"),
    ("core.compile_us", "us"),
    ("core.lmdes_write_us", "us"),
    ("core.lmdes_load_us", "us"),
    ("opt.usages_after", "count"),
    ("core.corpus_image_bytes", "B"),
    ("sched.graph_us", "us"),
    ("sched.place_us", "us"),
    ("sched.attempts_per_op", "count"),
    ("core.options_per_attempt", "count"),
    ("engine.overhead_share", "fraction"),
    ("engine.imbalance", "ratio"),
    ("engine.steals", "count"),
    ("serve.parse_us", "us"),
    ("workload.gen_us", "us"),
    ("engine.replay_us", "us"),
    ("engine.call_overhead_us", "us"),
    ("serve.render_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.outside_us", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.ctx_switches_per_req", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.ladder_steps", "count"),
    ("gen.lateness_p99_ms", "ms"),
    ("lang.compile_us", "us"),
    ("analyze.spec_us", "us"),
    ("guard.pipeline_us", "us"),
    ("guard.vet_us", "us"),
    ("serve.reload_p50_ms", "ms"),
    ("serve.reload_overlap_p90_ms", "ms"),
    ("serve.rss_growth_kb", "kB"),
    ("trace.overhead_share", "fraction"),
];

/// The metrics a run must print: end-to-end, or per-layer when traced.
pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Work items attempted (descriptions, blocks, or requests).
    pub attempted: u64,
    /// Work items that failed (errors, sheds, expiries, no answer).
    pub failed: u64,
    /// (name, value) pairs; units come from the catalogue.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Sets metric `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Checks that the report holds every catalogue metric of the mode,
    /// each a finite number.  Other measurements may be present; only the
    /// catalogue's are printed.
    pub fn check_complete(&self, traced: bool) -> Result<(), String> {
        for (name, _) in catalogue(traced) {
            match self.get(name) {
                None => return Err(format!("metric `{name}` was not measured")),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric `{name}` is not a finite number ({v})"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The result line: one JSON object with the keys `correct`,
    /// `attempted`, `failed`, and `metrics`, metrics in catalogue order.
    pub fn json_line(&self, traced: bool) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        let mut first = true;
        for (name, unit) in catalogue(traced) {
            if let Some(value) = self.get(name) {
                if !first {
                    line.push_str(", ");
                }
                first = false;
                let _ = write!(
                    line,
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                );
            }
        }
        line.push_str("}}");
        line
    }
}

/// A JSON number with every digit of the measurement (Rust's shortest
/// round-trip form); non-finite values, which JSON cannot hold, render
/// as 0 and are rejected earlier by [`Report::check_complete`].
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
