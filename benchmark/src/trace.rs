//! The span recorder behind the traced run.
//!
//! Spans are recorded around calls into each layer's public functions,
//! from the benchmark's side.  They go into a buffer allocated up front
//! and are written out when the run ends; a disabled tracer records
//! nothing, so the untraced run pays one branch per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer function, `<layer>.<function>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The request (or work item) the span belongs to.
    pub request: u32,
}

/// A single-threaded span recorder with a fixed capacity.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

/// A handle on an open span; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer holding at most `capacity` spans; `enabled = false` gives
    /// the no-op tracer of the untraced run.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the buffer has room for `more` spans.
    pub fn has_room(&self, more: usize) -> bool {
        self.spans.len() + more <= self.spans.capacity()
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if !self.has_room(1) {
            self.dropped += 1;
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let end = self.now();
            self.spans[index as usize].end = end;
            if let Some(at) = self.open.iter().rposition(|&i| i == index) {
                self.open.truncate(at);
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let result = f();
        self.exit(open);
        result
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as tab-separated lines: name, start, end, parent,
    /// request, self time (all times in nanoseconds).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
        for (span, own) in self.spans.iter().zip(own) {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.name, span.start, span.end, parent, span.request, own
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: (span count, summed self time in nanoseconds).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    totals
}

/// Mean self time in microseconds of the spans named `name`, or 0 when
/// the run recorded none (the layer is not on this workload's path).
pub fn mean_self_us(totals: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    match totals.get(name) {
        Some(&(count, nanos)) if count > 0 => nanos as f64 / count as f64 / 1e3,
        _ => 0.0,
    }
}
