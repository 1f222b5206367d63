//! Sample statistics with one definition everywhere: nearest-rank
//! percentiles, and the rule that a tail percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` in `n` samples:
/// `ceil(q * n)`, clamped to `1..=n`.  `q` is taken in basis points so
/// that `0.99 * 1000` lands exactly on rank 990.
pub fn rank(n: usize, q: f64) -> usize {
    let bp = (q.clamp(0.0, 1.0) * 10_000.0).round() as u128;
    let rank = (bp * n as u128).div_ceil(10_000) as usize;
    rank.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Whether `n` samples support reporting quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// Nearest-rank percentile of an ascending-sorted sample, or `None` when
/// the sample is empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Samples per window of [`window_percentiles`]: enough that a p99 has
/// [`MIN_BEYOND`] samples beyond it.
pub const MIN_WINDOW: usize = 1000;

/// Cuts time-ordered `samples` into as many consecutive, equal windows
/// of at least [`MIN_WINDOW`] samples as they fill (one window when there
/// are too few samples) and returns each window's nearest-rank `q`
/// percentile.
pub fn window_percentiles<T: Copy + Ord>(samples: &[T], q: f64) -> Vec<T> {
    let n = samples.len();
    let windows = (n / MIN_WINDOW).max(1);
    (0..windows)
        .filter_map(|k| {
            let mut sorted = samples[k * n / windows..(k + 1) * n / windows].to_vec();
            sorted.sort_unstable();
            percentile(&sorted, q)
        })
        .collect()
}

/// Median of `values` (nearest rank, so always one of the values).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}
