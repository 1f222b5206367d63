//! Thread-safe latency percentiles in fixed space: a [`LatencyHistogram`]
//! records without a lock, and its [`LatencySnapshot`]s sum exactly, so
//! several histograms (one per serving shard, say) fold into one.
//!
//! ```
//! use mdes_telemetry::latency::LatencyHistogram;
//!
//! let histogram = LatencyHistogram::default();
//! for us in [10, 20, 30, 40, 50] {
//!     histogram.record(us);
//! }
//! let snapshot = histogram.snapshot();
//! assert_eq!(snapshot.percentile(0.50), Some(30));
//! // 50 falls in the bucket 50..=51 and reads back as its upper bound.
//! assert_eq!(snapshot.percentile(0.99), Some(51));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per power of two; each value below it has a bucket of its own.
const SUB: u64 = 16;

/// The top bucket's upper bound: every value from `2^32` up counts as it.
const TOP: u64 = u32::MAX as u64;

/// One bucket per value below [`SUB`], then [`SUB`] for each power of two
/// from `2^4` to `2^31`.
const BUCKETS: usize = (32 - 3) * SUB as usize;

/// A fixed-size histogram of `u64` observations (typically microseconds)
/// shared across threads: recording is one relaxed `fetch_add`, with no
/// lock and no heap.
///
/// **Resolution.** Values below 16 are exact.  From 16 up, each power of
/// two `[2^k, 2^(k+1))` splits into 16 equal buckets, so `16..32` is
/// still exact and no bucket is wider than 1/16 of its lower bound.
/// Every value from `2^32` (about 71.6 minutes in microseconds) up counts
/// in the top bucket and reads back as `2^32 − 1`.  The 464 buckets take
/// 3712 bytes, held inline.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.  The count publishes nothing else, so the
    /// add is relaxed.
    pub fn record(&self, value: u64) {
        self.buckets[bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Every bucket's count, read once.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// The bucket counts of one [`LatencyHistogram`] at one instant, or their
/// sum over several.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySnapshot {
    counts: [u64; BUCKETS],
}

impl Default for LatencySnapshot {
    fn default() -> LatencySnapshot {
        LatencySnapshot {
            counts: [0; BUCKETS],
        }
    }
}

impl LatencySnapshot {
    /// This snapshot and `other` as one, exactly as if both streams had
    /// been recorded into one histogram.
    pub fn plus(mut self, other: &LatencySnapshot) -> LatencySnapshot {
        for (sum, n) in self.counts.iter_mut().zip(&other.counts) {
            *sum += n;
        }
        self
    }

    /// The upper bound of the bucket holding the observation of
    /// [`nearest_rank`] at quantile `q`, or `None` before the first
    /// observation: never below the exact percentile, and above it by
    /// less than the bucket resolution (see [`LatencyHistogram`]).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let rank = rank(self.counts.iter().sum(), q)?;
        let mut seen = 0;
        let index = self.counts.iter().position(|&n| {
            seen += n;
            seen >= rank
        })?;
        Some(upper_bound(index))
    }
}

/// The bucket counting `value`.
fn bucket(value: u64) -> usize {
    let value = value.min(TOP);
    if value < SUB {
        return value as usize;
    }
    // [2^exp, 2^(exp+1)) splits into 16 buckets 2^(exp-4) wide.
    let exp = value.ilog2();
    (exp as usize - 3) * SUB as usize + ((value >> (exp - 4)) - SUB) as usize
}

/// The largest value that bucket `index` counts.
fn upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let exp = index / SUB + 3;
    ((SUB + index % SUB + 1) << (exp - 4)) - 1
}

/// The 1-based nearest rank of quantile `q` (clamped to 0.0 ..= 1.0) among
/// `n` ascending observations: `ceil(q * n)`, at least 1, or `None` when
/// `n` is 0.
fn rank(n: u64, q: f64) -> Option<u64> {
    (n > 0).then(|| ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n))
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
    let rank = rank(sorted.len() as u64, q)?;
    Some(sorted[rank as usize - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(values: impl IntoIterator<Item = u64>) -> LatencySnapshot {
        let histogram = LatencyHistogram::default();
        for value in values {
            histogram.record(value);
        }
        histogram.snapshot()
    }

    #[test]
    fn an_empty_histogram_has_no_percentiles() {
        let snapshot = LatencyHistogram::default().snapshot();
        assert_eq!(snapshot.percentile(0.5), None);
        assert_eq!(snapshot, LatencySnapshot::default());
    }

    #[test]
    fn values_below_16_read_back_exactly() {
        for value in 0..SUB {
            assert_eq!(recorded([value]).percentile(0.5), Some(value));
        }
        let every = recorded(0..SUB);
        for value in 0..SUB {
            let q = (value + 1) as f64 / SUB as f64;
            assert_eq!(every.percentile(q), Some(value), "q={q}");
        }
    }

    #[test]
    fn every_bound_covers_its_value_within_a_sixteenth() {
        let mut value = 0u64;
        while value < TOP {
            let bound = upper_bound(bucket(value));
            assert!(bound >= value, "{value} reads back as {bound}");
            assert!(
                (bound - value) * 16 < value.max(1),
                "{value} reads back as {bound}"
            );
            assert_eq!(recorded([value]).percentile(1.0), Some(bound));
            value += 1 + value / 37;
        }
        // Buckets tile the range: each one starts just past the last.
        for index in 1..BUCKETS {
            assert_eq!(bucket(upper_bound(index - 1) + 1), index);
        }
        assert_eq!(upper_bound(BUCKETS - 1), TOP);
    }

    #[test]
    fn percentiles_take_the_nearest_rank() {
        let samples: Vec<u64> = (1..=137).map(|i| i * 3).collect();
        let snapshot = recorded(samples.iter().copied());
        for step in 0..=200 {
            let q = step as f64 / 200.0;
            let exact = nearest_rank(&samples, q).map(|value| upper_bound(bucket(value)));
            assert_eq!(snapshot.percentile(q), exact, "q={q}");
        }
        // Ranks ceil(q * 137): 1, 69, 124, 136 and 137.
        for (q, want) in [(0.0, 3), (0.5, 207), (0.9, 372), (0.99, 408), (1.0, 411)] {
            assert_eq!(nearest_rank(&samples, q), Some(want), "q={q}");
        }
        assert_eq!(snapshot.percentile(0.5), Some(207));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn four_threads_recording_at_once_sum_exactly() {
        let stream = |t: u64| (0..10_000u64).map(move |i| (i * 7919 + t * 104_729) % 1_000_000);
        let (histogram, start) = (LatencyHistogram::default(), std::sync::Barrier::new(4));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (histogram, start) = (&histogram, &start);
                scope.spawn(move || {
                    start.wait();
                    stream(t).for_each(|value| histogram.record(value));
                });
            }
        });
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.counts.iter().sum::<u64>(), 40_000);
        assert_eq!(snapshot, recorded((0..4).flat_map(stream)));
    }

    #[test]
    fn folding_two_histograms_equals_recording_both_streams() {
        let fast: Vec<u64> = (0..500).map(|i| 20 + i % 90).collect();
        let slow: Vec<u64> = (0..300).map(|i| 4_000 + i * 13).collect();
        let folded = recorded(fast.iter().copied()).plus(&recorded(slow.iter().copied()));
        let both = recorded(fast.iter().chain(&slow).copied());
        assert_eq!(folded, both);
        assert_eq!(folded.counts.iter().sum::<u64>(), 800);
        for q in [0.0, 0.5, 0.6, 0.99, 1.0] {
            assert_eq!(folded.percentile(q), both.percentile(q), "q={q}");
        }
    }

    #[test]
    fn a_value_past_the_top_bucket_saturates() {
        let snapshot = recorded([TOP, TOP + 1, u64::MAX]);
        assert_eq!(snapshot.counts[BUCKETS - 1], 3);
        assert_eq!(snapshot.percentile(0.0), Some(TOP));
        assert_eq!(snapshot.percentile(1.0), Some(TOP));
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }
}
