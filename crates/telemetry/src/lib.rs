//! # mdes-telemetry
//!
//! Pipeline-wide observability for the MDES facility: hierarchical timing
//! spans, monotonic counters, and gauges, collected into a [`Report`] that
//! serializes to JSON or a human-readable table.
//!
//! The crate has **zero external dependencies** — JSON support is provided
//! by the small [`json`] module.
//!
//! ## Model
//!
//! A [`Telemetry`] handle is a cheap [`Clone`] wrapper around shared state,
//! so it can be threaded through the language front end, the optimizer
//! pipeline, the compiler, and the schedulers without lifetime plumbing.
//!
//! * **Spans** measure wall-clock time for a named phase. [`Telemetry::span`]
//!   returns an RAII [`SpanGuard`]; the time between creation and drop is
//!   accumulated under a `/`-joined hierarchical path derived from the spans
//!   currently open on the same handle (e.g. `pipeline/redundancy`).
//! * **Counters** are monotonic `u64` sums ([`Telemetry::counter_add`]),
//!   safe to bump from multiple threads sharing a handle.
//! * **Gauges** are last-write-wins `f64` observations
//!   ([`Telemetry::gauge_set`]), used for before/after sizes and ratios.
//!
//! A handle created with [`Telemetry::disabled`] records nothing, so
//! instrumented code paths can run un-instrumented at near-zero cost.
//!
//! ```
//! let tel = mdes_telemetry::Telemetry::new();
//! {
//!     let _outer = tel.span("pipeline");
//!     let _inner = tel.span("redundancy");
//!     tel.counter_add("usages_removed", 17);
//! }
//! let report = tel.report();
//! assert!(report.span("pipeline/redundancy").is_some());
//! assert_eq!(report.counter("usages_removed"), Some(17));
//! ```
//!
//! The [`alloc`] module holds the workspace's counting global allocator,
//! which the allocation gates of the other crates install; it is the
//! crate's only unsafe code.

#![deny(unsafe_code)]

pub mod alloc;
pub mod json;
pub mod latency;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use json::Json;

/// Schema tag written into every JSON report.
pub const SCHEMA: &str = "mdes-telemetry/1";

#[derive(Clone, Copy, Debug, Default)]
struct SpanStat {
    count: u64,
    nanos: u128,
}

#[derive(Default)]
struct State {
    /// Names of currently-open spans, innermost last.
    stack: Vec<String>,
    /// Accumulated time per hierarchical path.
    spans: BTreeMap<String, SpanStat>,
    /// Paths in first-open order, for stable report ordering.
    span_order: Vec<String>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    events: Vec<EventEntry>,
}

struct Inner {
    start: Instant,
    state: Mutex<State>,
}

/// Shared, clonable telemetry registry.
///
/// All clones record into the same underlying state; see the crate docs
/// for the span/counter/gauge model.
#[derive(Clone)]
pub struct Telemetry {
    /// `None` means a disabled handle: every operation is a no-op.
    inner: Option<Arc<Inner>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => f.write_str("Telemetry(enabled)"),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// Creates an enabled registry; the wall clock starts now.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Creates a disabled handle: spans, counters, and gauges are all
    /// no-ops and [`Telemetry::report`] returns an empty report.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, State>> {
        self.inner
            .as_ref()
            .map(|inner| inner.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Opens a timing span named `name`, nested under any span already open
    /// on this handle. The returned guard records the elapsed time when it
    /// is dropped.
    ///
    /// Span nesting is tracked per *registry*, not per thread: concurrent
    /// spans from threads sharing a handle would interleave on one stack,
    /// so open spans from one thread at a time (counters and gauges are
    /// unrestricted). Guards dropped out of order are handled by
    /// truncating the stack to the guard's depth.
    #[must_use = "the span ends when the guard is dropped"]
    pub fn span(&self, name: &str) -> SpanGuard {
        let depth = match self.lock() {
            Some(mut state) => {
                let path = if state.stack.is_empty() {
                    name.to_string()
                } else {
                    format!("{}/{}", state.stack.join("/"), name)
                };
                state.stack.push(name.to_string());
                if !state.spans.contains_key(&path) {
                    state.span_order.push(path.clone());
                    state.spans.insert(path, SpanStat::default());
                }
                state.stack.len()
            }
            None => 0,
        };
        SpanGuard {
            telemetry: self.clone(),
            started: Instant::now(),
            depth,
        }
    }

    /// Records one completed interval of `nanos` directly under `path`,
    /// bypassing the nesting stack.
    ///
    /// This is the thread-safe complement to [`Telemetry::span`]: workers
    /// that time their own phases on the side (a pool worker's busy time) can
    /// fold the measurements in concurrently without interleaving on the
    /// registry's single span stack. The path is taken literally — it is
    /// not prefixed by any currently-open span.
    pub fn record_span(&self, path: &str, nanos: u128) {
        if let Some(mut state) = self.lock() {
            if !state.spans.contains_key(path) {
                state.span_order.push(path.to_string());
            }
            let stat = state.spans.entry(path.to_string()).or_default();
            stat.count += 1;
            stat.nanos += nanos;
        }
    }

    /// Adds `delta` to the monotonic counter `name` (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(mut state) = self.lock() {
            *state.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// The current value of counter `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.lock()
            .and_then(|state| state.counters.get(name).copied())
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(mut state) = self.lock() {
            state.gauges.insert(name.to_string(), value);
        }
    }

    /// The current value of gauge `name`, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock()
            .and_then(|state| state.gauges.get(name).copied())
    }

    /// Appends a structured event named `name` with string key/value
    /// fields, preserving arrival order.
    ///
    /// Events carry one-off structured records that do not aggregate the
    /// way counters and gauges do — e.g. a pipeline-guard incident with
    /// its stage, seed, and minimized failing probe.
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        if let Some(mut state) = self.lock() {
            state.events.push(EventEntry {
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            });
        }
    }

    /// Snapshots everything recorded so far into a [`Report`].
    pub fn report(&self) -> Report {
        let Some(inner) = &self.inner else {
            return Report::default();
        };
        let state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let spans = state
            .span_order
            .iter()
            .map(|path| {
                let stat = state.spans[path];
                SpanEntry {
                    path: path.clone(),
                    count: stat.count,
                    nanos: stat.nanos,
                }
            })
            .collect();
        Report {
            wall_nanos: inner.start.elapsed().as_nanos(),
            spans,
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            events: state.events.clone(),
        }
    }
}

/// RAII guard returned by [`Telemetry::span`]; records elapsed time into
/// the span's path when dropped.
pub struct SpanGuard {
    telemetry: Telemetry,
    started: Instant,
    /// Stack depth right after this span was pushed (0 for disabled handles).
    depth: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return; // disabled handle
        }
        let elapsed = self.started.elapsed().as_nanos();
        if let Some(mut state) = self.telemetry.lock() {
            // If inner guards leaked past this one (dropped out of order),
            // close them too by truncating to this guard's own frame.
            state.stack.truncate(self.depth);
            let path = state.stack.join("/");
            state.stack.pop();
            let stat = state.spans.entry(path).or_default();
            stat.count += 1;
            stat.nanos += elapsed;
        }
    }
}

/// One span row in a [`Report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEntry {
    /// Hierarchical `/`-joined path, e.g. `pipeline/redundancy`.
    pub path: String,
    /// How many times the span was entered and closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all entries.
    pub nanos: u128,
}

/// One structured event in a [`Report`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventEntry {
    /// Event name, e.g. `guard/incident`.
    pub name: String,
    /// String key/value payload.
    pub fields: BTreeMap<String, String>,
}

/// Immutable snapshot of a [`Telemetry`] registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Nanoseconds from registry creation to the snapshot.
    pub wall_nanos: u128,
    /// Spans in first-open order.
    pub spans: Vec<SpanEntry>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    /// Structured events in arrival order.
    pub events: Vec<EventEntry>,
}

impl Report {
    /// Whether nothing was recorded: no span, counter, gauge or event.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.events.is_empty()
    }

    /// The span at exactly `path`, if present.
    pub fn span(&self, path: &str) -> Option<&SpanEntry> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All events named `name`, in arrival order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventEntry> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Serializes to compact JSON with schema [`SCHEMA`].
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("schema".to_string(), Json::Str(SCHEMA.to_string()));
        root.insert("wall_nanos".to_string(), Json::Num(self.wall_nanos as f64));
        let spans = self
            .spans
            .iter()
            .map(|span| {
                let mut obj = BTreeMap::new();
                obj.insert("path".to_string(), Json::Str(span.path.clone()));
                obj.insert("count".to_string(), Json::Num(span.count as f64));
                obj.insert("nanos".to_string(), Json::Num(span.nanos as f64));
                Json::Obj(obj)
            })
            .collect();
        root.insert("spans".to_string(), Json::Arr(spans));
        root.insert(
            "counters".to_string(),
            Json::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        );
        root.insert(
            "gauges".to_string(),
            Json::Obj(
                self.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        );
        let events = self
            .events
            .iter()
            .map(|event| {
                let mut obj = BTreeMap::new();
                obj.insert("name".to_string(), Json::Str(event.name.clone()));
                obj.insert(
                    "fields".to_string(),
                    Json::Obj(
                        event
                            .fields
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    ),
                );
                Json::Obj(obj)
            })
            .collect();
        root.insert("events".to_string(), Json::Arr(events));
        Json::Obj(root).render()
    }

    /// Parses a report previously produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a missing/unknown schema tag,
    /// or structurally invalid fields.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let root = Json::parse(text)?;
        match root.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unknown schema `{other}`")),
            None => return Err("missing schema field".to_string()),
        }
        let wall_nanos = root
            .get("wall_nanos")
            .and_then(Json::as_f64)
            .ok_or("missing wall_nanos")? as u128;
        let mut spans = Vec::new();
        for entry in root
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("missing spans")?
        {
            spans.push(SpanEntry {
                path: entry
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("span missing path")?
                    .to_string(),
                count: entry
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or("span missing count")?,
                nanos: entry
                    .get("nanos")
                    .and_then(Json::as_f64)
                    .ok_or("span missing nanos")? as u128,
            });
        }
        let mut counters = BTreeMap::new();
        for (key, value) in root
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or("missing counters")?
        {
            counters.insert(
                key.clone(),
                value
                    .as_u64()
                    .ok_or_else(|| format!("counter `{key}` not a u64"))?,
            );
        }
        let mut gauges = BTreeMap::new();
        for (key, value) in root
            .get("gauges")
            .and_then(Json::as_obj)
            .ok_or("missing gauges")?
        {
            gauges.insert(
                key.clone(),
                value
                    .as_f64()
                    .ok_or_else(|| format!("gauge `{key}` not a number"))?,
            );
        }
        // `events` is absent from reports written before the field existed;
        // treat a missing array as empty rather than failing the parse.
        let mut events = Vec::new();
        if let Some(entries) = root.get("events").and_then(Json::as_arr) {
            for entry in entries {
                let name = entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("event missing name")?
                    .to_string();
                let mut fields = BTreeMap::new();
                for (key, value) in entry
                    .get("fields")
                    .and_then(Json::as_obj)
                    .ok_or("event missing fields")?
                {
                    fields.insert(
                        key.clone(),
                        value
                            .as_str()
                            .ok_or_else(|| format!("event field `{key}` not a string"))?
                            .to_string(),
                    );
                }
                events.push(EventEntry { name, fields });
            }
        }
        Ok(Report {
            wall_nanos,
            spans,
            counters,
            gauges,
            events,
        })
    }

    /// Formats a human-readable summary table: spans indented by nesting
    /// depth with times scaled to a readable unit, then counters, then
    /// gauges.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry report (wall {})",
            format_nanos(self.wall_nanos)
        );
        if !self.spans.is_empty() {
            let _ = writeln!(out, "  spans:");
            let width = self
                .spans
                .iter()
                .map(|s| s.path.len() + 2)
                .max()
                .unwrap_or(0)
                .max(24);
            // Indent below the nearest ancestor that is itself a recorded
            // span (a span *named* "sched/list" opened at the root is not
            // a child of anything, even though its name has a slash).
            let mut depths: BTreeMap<&str, usize> = BTreeMap::new();
            for span in &self.spans {
                let (depth, name) = longest_recorded_prefix(&span.path, &depths)
                    .map(|(prefix, d)| (d + 1, &span.path[prefix.len() + 1..]))
                    .unwrap_or((0, span.path.as_str()));
                depths.insert(&span.path, depth);
                let indent = "  ".repeat(depth);
                let label = format!("{indent}{name}");
                let _ = writeln!(
                    out,
                    "    {label:<width$} {:>10}  x{}",
                    format_nanos(span.nanos),
                    span.count,
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            let width = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "    {name:<width$} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "  gauges:");
            let width = self.gauges.keys().map(String::len).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "    {name:<width$} {value:>12.3}");
            }
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "  events:");
            for event in &self.events {
                let fields: Vec<String> = event
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let _ = writeln!(out, "    {} {}", event.name, fields.join(" "));
            }
        }
        out
    }
}

/// The longest proper `/`-prefix of `path` that is a recorded span, with
/// its table depth.
fn longest_recorded_prefix<'a>(
    path: &'a str,
    depths: &BTreeMap<&str, usize>,
) -> Option<(&'a str, usize)> {
    path.char_indices()
        .rev()
        .filter(|&(_, c)| c == '/')
        .map(|(i, _)| &path[..i])
        .find_map(|prefix| depths.get(prefix).map(|&d| (prefix, d)))
}

/// Renders a nanosecond quantity with a unit suited to its magnitude.
fn format_nanos(nanos: u128) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_open_order() {
        let tel = Telemetry::new();
        {
            let _a = tel.span("a");
            {
                let _b = tel.span("b");
                let _c = tel.span("c");
            }
            let _d = tel.span("d");
        }
        let report = tel.report();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["a", "a/b", "a/b/c", "a/d"]);
        assert!(report.spans.iter().all(|s| s.count == 1));
    }

    #[test]
    fn reentering_a_span_accumulates() {
        let tel = Telemetry::new();
        for _ in 0..3 {
            let _s = tel.span("phase");
        }
        let entry = tel.report().span("phase").cloned().unwrap();
        assert_eq!(entry.count, 3);
    }

    #[test]
    fn out_of_order_drop_closes_inner_spans() {
        let tel = Telemetry::new();
        let outer = tel.span("outer");
        let inner = tel.span("inner");
        drop(outer); // closes inner's frame too
        drop(inner); // records under a truncated (root) path, not a panic
        let report = tel.report();
        assert!(report.span("outer").is_some());
        assert!(report.span("outer/inner").is_some());
        // A fresh span after the mess nests at the root again.
        drop(tel.span("later"));
        assert!(tel.report().span("later").is_some());
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let tel = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = tel.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        handle.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(tel.report().counter("hits"), Some(4000));
    }

    #[test]
    fn record_span_aggregates_across_threads() {
        let tel = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = tel.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        handle.record_span("engine/worker/busy", 5);
                    }
                });
            }
        });
        let entry = tel.report().span("engine/worker/busy").cloned().unwrap();
        assert_eq!(entry.count, 400);
        assert_eq!(entry.nanos, 2000);
    }

    #[test]
    fn record_span_ignores_the_nesting_stack() {
        let tel = Telemetry::new();
        let _outer = tel.span("outer");
        tel.record_span("worker0/wait", 7);
        let report = tel.report();
        assert!(report.span("worker0/wait").is_some());
        assert!(report.span("outer/worker0/wait").is_none());
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let tel = Telemetry::new();
        tel.gauge_set("size", 10.0);
        tel.gauge_set("size", 4.0);
        assert_eq!(tel.report().gauge("size"), Some(4.0));
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        {
            let _s = tel.span("phase");
            tel.counter_add("hits", 5);
            tel.gauge_set("size", 1.0);
        }
        assert_eq!(tel.report(), Report::default());
    }

    #[test]
    fn a_report_is_empty_until_anything_is_recorded() {
        assert!(Telemetry::new().report().is_empty());
        let record: [fn(&Telemetry); 4] = [
            |tel| drop(tel.span("phase")),
            |tel| tel.counter_add("hits", 0),
            |tel| tel.gauge_set("size", 0.0),
            |tel| tel.event("guard/incident", &[]),
        ];
        for record in record {
            let tel = Telemetry::new();
            record(&tel);
            assert!(!tel.report().is_empty());
        }
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let tel = Telemetry::new();
        {
            let _outer = tel.span("pipeline");
            let _inner = tel.span("redundancy");
            tel.counter_add("usages_removed", 17);
            tel.gauge_set("options/before", 42.0);
        }
        let report = tel.report();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let bad = r#"{"schema":"other/9","wall_nanos":0,"spans":[],"counters":{},"gauges":{}}"#;
        assert!(Report::from_json(bad).is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("not json").is_err());
    }

    #[test]
    fn table_renders_all_sections() {
        let tel = Telemetry::new();
        {
            let _outer = tel.span("pipeline");
            let _inner = tel.span("redundancy");
        }
        tel.counter_add("checks", 12);
        tel.gauge_set("ratio", 0.5);
        let table = tel.report().to_table();
        assert!(table.contains("spans:"));
        assert!(table.contains("redundancy"));
        assert!(table.contains("counters:"));
        assert!(table.contains("checks"));
        assert!(table.contains("gauges:"));
        assert!(table.contains("ratio"));
    }

    #[test]
    fn events_record_round_trip_and_render() {
        let tel = Telemetry::new();
        tel.event("guard/incident", &[("stage", "factor"), ("seed", "42")]);
        tel.event("guard/incident", &[("stage", "shifting"), ("seed", "42")]);
        let report = tel.report();
        let incidents: Vec<_> = report.events_named("guard/incident").collect();
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].fields["stage"], "factor");
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        let table = report.to_table();
        assert!(table.contains("events:"));
        assert!(table.contains("stage=factor"));
    }

    #[test]
    fn from_json_tolerates_missing_events() {
        let old =
            r#"{"schema":"mdes-telemetry/1","wall_nanos":0,"spans":[],"counters":{},"gauges":{}}"#;
        let report = Report::from_json(old).unwrap();
        assert!(report.events.is_empty());
    }

    #[test]
    fn format_nanos_picks_sane_units() {
        assert_eq!(format_nanos(12), "12ns");
        assert_eq!(format_nanos(1_500), "1.5us");
        assert_eq!(format_nanos(2_000_000), "2.000ms");
        assert_eq!(format_nanos(3_000_000_000), "3.000s");
    }
}
