//! The open-loop rate ladder: fixed-length steps at geometrically rising
//! rates, stopped after two consecutive steps miss the latency limit.

/// p99 latency limit a step must meet, milliseconds from the due time.
pub const P99_LIMIT_MS: f64 = 5.0;
/// Generator lateness limit (p99 of send time minus due time).
pub const LATENESS_LIMIT_MS: f64 = 1.0;
/// Rate multiplier between consecutive steps.
pub const STEP_FACTOR: f64 = 1.08;
/// Consecutive missed steps that end the ladder.
pub const MISSES_TO_STOP: usize = 2;

/// The rate of step `k` of a ladder starting at `base` requests/s.
pub fn step_rate(base: f64, k: usize) -> f64 {
    (base * STEP_FACTOR.powi(k as i32)).round()
}

/// What one step observed.
#[derive(Clone, Debug, PartialEq)]
pub struct StepResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent in the step.
    pub sent: u64,
    /// Requests shed, expired, failed, or never answered.
    pub failed: u64,
    /// p99 latency from due time, milliseconds.
    pub p99_ms: f64,
    /// p99 generator lateness, milliseconds.
    pub lateness_p99_ms: f64,
    /// Requests in flight at the end of the step's first half.
    pub inflight_mid: u64,
    /// Requests in flight when the step's last request was sent.
    pub inflight_end: u64,
}

impl StepResult {
    /// Whether requests in flight grew across the step by more than one
    /// percent of the step's requests (and more than a handful): the
    /// daemon is falling behind the offered rate.
    pub fn backlog_grew(&self) -> bool {
        let slack = (self.sent / 100).max(8);
        self.inflight_end > self.inflight_mid + slack
    }

    /// Whether the step meets every limit: p99 within
    /// [`P99_LIMIT_MS`], nothing failed, no growing backlog, and a
    /// generator that kept to its schedule.
    pub fn meets_limit(&self) -> bool {
        self.p99_ms <= P99_LIMIT_MS
            && self.failed == 0
            && !self.backlog_grew()
            && self.lateness_p99_ms <= LATENESS_LIMIT_MS
    }
}

/// Whether the ladder stops after `steps`: the last
/// [`MISSES_TO_STOP`] steps all missed.
pub fn should_stop(steps: &[StepResult]) -> bool {
    steps.len() >= MISSES_TO_STOP
        && steps[steps.len() - MISSES_TO_STOP..]
            .iter()
            .all(|step| !step.meets_limit())
}

/// The highest rate among the steps that met the limit, if any did.
pub fn max_rps(steps: &[StepResult]) -> Option<f64> {
    steps
        .iter()
        .filter(|step| step.meets_limit())
        .map(|step| step.rate)
        .max_by(f64::total_cmp)
}
