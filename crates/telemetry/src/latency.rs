//! Thread-safe latency percentile tracking.
//!
//! Serving paths need `p50`/`p99` gauges without unbounded memory: a
//! [`LatencyRecorder`] keeps the most recent `capacity` observations in a
//! fixed ring shared across threads.  Percentiles are computed over a
//! snapshot copy, so recording stays O(1) under the lock and a reader
//! never blocks writers for longer than one `memcpy`.
//!
//! ```
//! use mdes_telemetry::latency::LatencyRecorder;
//!
//! let recorder = LatencyRecorder::new(1024);
//! for us in [10, 20, 30, 40, 50] {
//!     recorder.record(us);
//! }
//! assert_eq!(recorder.percentile(0.50), Some(30));
//! assert_eq!(recorder.percentile(0.99), Some(50));
//! ```

use std::sync::Mutex;

/// A bounded, thread-safe reservoir of `u64` observations (typically
/// microseconds) supporting percentile queries over the most recent
/// `capacity` samples.
#[derive(Debug)]
pub struct LatencyRecorder {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    samples: Vec<u64>,
    /// Next write position once the ring is full.
    cursor: usize,
    /// Total observations ever recorded (can exceed `samples.len()`).
    recorded: u64,
    capacity: usize,
}

impl Default for LatencyRecorder {
    /// A recorder over the latest 4096 samples.
    fn default() -> LatencyRecorder {
        LatencyRecorder::new(4096)
    }
}

impl LatencyRecorder {
    /// Creates a recorder keeping the latest `capacity` samples
    /// (clamped to at least one).
    pub fn new(capacity: usize) -> LatencyRecorder {
        let capacity = capacity.max(1);
        LatencyRecorder {
            inner: Mutex::new(Ring {
                samples: Vec::with_capacity(capacity.min(4096)),
                cursor: 0,
                recorded: 0,
                capacity,
            }),
        }
    }

    /// Records one observation.  A poisoned lock (a panic while holding
    /// it) is tolerated: the recorder keeps working on the data as-is,
    /// matching the serving daemon's keep-serving-through-faults policy.
    pub fn record(&self, value: u64) {
        let mut ring = match self.inner.lock() {
            Ok(ring) => ring,
            Err(poisoned) => poisoned.into_inner(),
        };
        ring.recorded += 1;
        if ring.samples.len() < ring.capacity {
            ring.samples.push(value);
        } else {
            let at = ring.cursor;
            ring.samples[at] = value;
            ring.cursor = (at + 1) % ring.capacity;
        }
    }

    /// Total observations ever recorded (not capped by capacity).
    pub fn recorded(&self) -> u64 {
        match self.inner.lock() {
            Ok(ring) => ring.recorded,
            Err(poisoned) => poisoned.into_inner().recorded,
        }
    }

    /// The value at quantile `q` (0.0 ..= 1.0) over the retained window,
    /// or `None` before the first observation: the [`nearest_rank`] cut,
    /// so `percentile(0.0)` is the minimum, `percentile(1.0)` the
    /// maximum.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let mut snapshot = match self.inner.lock() {
            Ok(ring) => ring.samples.clone(),
            Err(poisoned) => poisoned.into_inner().samples.clone(),
        };
        snapshot.sort_unstable();
        nearest_rank(&snapshot, q)
    }
}

/// The nearest-rank value at quantile `q` (clamped to 0.0 ..= 1.0) of
/// `sorted`, an ascending sample set, or `None` when it is empty.  The
/// rank is `ceil(q * n)`, at least 1, so `q = 0.0` is the minimum and
/// `q = 1.0` the maximum.
///
/// ```
/// use mdes_telemetry::latency::nearest_rank;
///
/// assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 0.50), Some(30));
/// assert_eq!(nearest_rank(&[], 0.50), None);
/// ```
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(last);
    Some(sorted[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_has_no_percentiles() {
        let recorder = LatencyRecorder::new(16);
        assert_eq!(recorder.percentile(0.5), None);
        assert_eq!(recorder.recorded(), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let recorder = LatencyRecorder::new(100);
        for v in 1..=100u64 {
            recorder.record(v);
        }
        assert_eq!(recorder.percentile(0.0), Some(1));
        assert_eq!(recorder.percentile(0.50), Some(50));
        assert_eq!(recorder.percentile(0.99), Some(99));
        assert_eq!(recorder.percentile(1.0), Some(100));
    }

    #[test]
    fn nearest_rank_cuts_at_ceil_q_n() {
        let samples: Vec<u64> = (1..=137).map(|i| i * 3).collect();
        let recorder = LatencyRecorder::new(1024);
        for &s in &samples {
            recorder.record(s);
        }
        // Ranks ceil(q * 137): 1, 69, 124, 136 and 137.
        for (q, want) in [(0.0, 3), (0.5, 207), (0.9, 372), (0.99, 408), (1.0, 411)] {
            assert_eq!(nearest_rank(&samples, q), Some(want), "q={q}");
            assert_eq!(recorder.percentile(q), Some(want), "q={q}");
        }
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn ring_keeps_only_the_latest_window() {
        let recorder = LatencyRecorder::new(4);
        for v in [1u64, 2, 3, 4, 100, 200, 300, 400] {
            recorder.record(v);
        }
        assert_eq!(recorder.recorded(), 8);
        assert_eq!(recorder.percentile(0.0), Some(100));
        assert_eq!(recorder.percentile(1.0), Some(400));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let recorder = std::sync::Arc::new(LatencyRecorder::new(256));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let recorder = std::sync::Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..100 {
                        recorder.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(recorder.recorded(), 400);
        assert!(recorder.percentile(0.5).is_some());
    }
}
