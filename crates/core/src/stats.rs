//! Scheduling-attempt statistics.
//!
//! The paper's evaluation is built on three counters gathered while the
//! scheduler queries the MDES:
//!
//! * **scheduling attempts** — one `try_reserve_into` of one operation at one
//!   candidate cycle (Table 5's "Avg. Sched. Attempts" divides these by
//!   operations scheduled);
//! * **options checked** — reservation-table options whose checks were
//!   started during an attempt (the "Avg. Options/Attempt" columns);
//! * **resource checks** — individual probes of the RU map (the
//!   "Avg. Checks/Attempt" columns; one probe covers one usage in the
//!   scalar encoding or one cycle's usages in the bit-vector encoding).
//!
//! [`CheckStats`] also records the Figure-2 histogram: the distribution of
//! options checked per attempt.

/// Histogram of a per-attempt quantity (e.g. options checked).
///
/// Buckets are exact counts; values beyond the configured capacity saturate
/// into the last bucket.  The buckets are allocated once, up front; the
/// histogram also tracks how many leading buckets have ever been recorded
/// into, so [`Histogram::reset`] and [`Histogram::merge`] touch only that
/// prefix instead of every bucket — a per-job histogram of a short region
/// costs a handful of bucket writes, not a walk of the full capacity.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    /// One past the highest bucket recorded into; every bucket at or
    /// beyond it is zero.
    used: usize,
}

impl Histogram {
    /// Creates a histogram able to distinguish counts `0..=max`.
    pub fn new(max: usize) -> Histogram {
        Histogram {
            buckets: vec![0; max + 1],
            used: 0,
        }
    }

    /// The buckets that may be non-zero.
    fn live(&self) -> &[u64] {
        &self.buckets[..self.used]
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        let idx = value.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.used = self.used.max(idx + 1);
    }

    /// Number of observations of exactly `value` (saturating bucket for the
    /// maximum).
    pub fn count(&self, value: usize) -> u64 {
        self.buckets.get(value).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.live().iter().sum()
    }

    /// Fraction of observations equal to `value`, or 0 when empty.
    pub fn fraction(&self, value: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(value) as f64 / total as f64
        }
    }

    /// Fraction of observations in `lo..=hi`.
    pub fn fraction_range(&self, lo: usize, hi: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let live = self.live();
        let sum: u64 = live
            .get(lo..=hi.min(live.len().saturating_sub(1)))
            .map_or(0, |range| range.iter().sum());
        sum as f64 / total as f64
    }

    /// Iterates over `(value, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.live()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }

    /// Zeroes the recorded buckets in place, keeping the capacity — a
    /// reset histogram compares equal to a freshly constructed one of the
    /// same capacity without reallocating.
    pub fn reset(&mut self) {
        self.buckets[..self.used].fill(0);
        self.used = 0;
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different capacities.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram capacities differ"
        );
        for (a, b) in self.buckets.iter_mut().zip(other.live()) {
            *a += b;
        }
        self.used = self.used.max(other.used);
    }
}

/// Equal capacity and equal counts; buckets never recorded into are zero
/// on both sides, so only the recorded prefixes are compared.
impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.buckets.len() == other.buckets.len() && self.live() == other.live()
    }
}

impl Eq for Histogram {}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new(1024)
    }
}

/// Counters for one scheduling run.
///
/// # Examples
///
/// ```
/// use mdes_core::CheckStats;
///
/// let mut stats = CheckStats::new();
/// stats.begin_attempt();
/// stats.count_option();   // first option probed ...
/// stats.count_check();    // ... with one RU-map check
/// stats.end_attempt(true);
/// stats.count_operation();
/// assert_eq!(stats.attempts_per_op(), 1.0);
/// assert_eq!(stats.checks_per_option(), 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CheckStats {
    /// Operations successfully scheduled.
    pub operations: u64,
    /// Scheduling attempts (successful + failed `try_reserve_into` calls).
    pub attempts: u64,
    /// Attempts that succeeded.
    pub successes: u64,
    /// Reservation-table options whose checks were started.
    pub options_checked: u64,
    /// RU-map probes performed.
    pub resource_checks: u64,
    /// Distribution of options checked per attempt (Figure 2).
    pub options_per_attempt: Histogram,
    /// Options checked so far in the current attempt.
    current_attempt_options: usize,
}

impl CheckStats {
    /// Creates zeroed counters.
    pub fn new() -> CheckStats {
        CheckStats {
            operations: 0,
            attempts: 0,
            successes: 0,
            options_checked: 0,
            resource_checks: 0,
            options_per_attempt: Histogram::default(),
            current_attempt_options: 0,
        }
    }

    /// Zeroes every counter and histogram bucket in place, keeping the
    /// histogram allocation.  A reset instance compares equal to
    /// [`CheckStats::new`], so hot loops (the engine's per-worker job
    /// scratch) can reuse one instance across runs instead of paying the
    /// histogram allocation per job.
    pub fn reset(&mut self) {
        self.operations = 0;
        self.attempts = 0;
        self.successes = 0;
        self.options_checked = 0;
        self.resource_checks = 0;
        self.options_per_attempt.reset();
        self.current_attempt_options = 0;
    }

    /// Marks the start of a scheduling attempt.
    pub fn begin_attempt(&mut self) {
        self.attempts += 1;
        self.current_attempt_options = 0;
    }

    /// Records that an option's checks were started.
    pub fn count_option(&mut self) {
        self.options_checked += 1;
        self.current_attempt_options += 1;
    }

    /// Records one RU-map probe.
    pub fn count_check(&mut self) {
        self.resource_checks += 1;
    }

    /// Marks the end of a scheduling attempt.
    pub fn end_attempt(&mut self, success: bool) {
        if success {
            self.successes += 1;
        }
        self.options_per_attempt
            .record(self.current_attempt_options);
        // Clear the in-attempt scratch so counters that went through the
        // same attempts compare equal however they were folded together
        // (merge starts from fresh scratch; a serial run must too).
        self.current_attempt_options = 0;
    }

    /// Records one successfully scheduled operation.
    pub fn count_operation(&mut self) {
        self.operations += 1;
    }

    /// Average scheduling attempts per scheduled operation.
    pub fn attempts_per_op(&self) -> f64 {
        ratio(self.attempts, self.operations)
    }

    /// Average options checked per attempt.
    pub fn options_per_attempt_avg(&self) -> f64 {
        ratio(self.options_checked, self.attempts)
    }

    /// Average RU-map probes per attempt.
    pub fn checks_per_attempt(&self) -> f64 {
        ratio(self.resource_checks, self.attempts)
    }

    /// Average RU-map probes per option checked (Table 12's
    /// "Checks/Option" column; 1.0 is the ideal).
    pub fn checks_per_option(&self) -> f64 {
        ratio(self.resource_checks, self.options_checked)
    }

    /// Folds these counters into a telemetry registry under `prefix`
    /// (e.g. `sched/list`), so scheduler query counts land in the same
    /// `--metrics` report as the pipeline and compile spans.
    ///
    /// Counters are *added* (so repeated publishes from merged runs
    /// accumulate); the derived per-attempt ratios are set as gauges
    /// (last publish wins).
    pub fn publish(&self, tel: &mdes_telemetry::Telemetry, prefix: &str) {
        tel.counter_add(&format!("{prefix}/operations"), self.operations);
        tel.counter_add(&format!("{prefix}/attempts"), self.attempts);
        tel.counter_add(&format!("{prefix}/successes"), self.successes);
        tel.counter_add(&format!("{prefix}/options_checked"), self.options_checked);
        tel.counter_add(&format!("{prefix}/resource_checks"), self.resource_checks);
        tel.gauge_set(&format!("{prefix}/attempts_per_op"), self.attempts_per_op());
        tel.gauge_set(
            &format!("{prefix}/options_per_attempt"),
            self.options_per_attempt_avg(),
        );
        tel.gauge_set(
            &format!("{prefix}/checks_per_attempt"),
            self.checks_per_attempt(),
        );
        tel.gauge_set(
            &format!("{prefix}/checks_per_option"),
            self.checks_per_option(),
        );
    }

    /// Merges counters from another run (e.g. per-block parallel stats).
    pub fn merge(&mut self, other: &CheckStats) {
        self.operations += other.operations;
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.options_checked += other.options_checked;
        self.resource_checks += other.resource_checks;
        self.options_per_attempt.merge(&other.options_per_attempt);
    }
}

impl Default for CheckStats {
    fn default() -> CheckStats {
        CheckStats::new()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Relative reduction `(from - to) / from`, as the paper's "% Checks
/// Reduced" / "% Size Reduced" columns.  Negative when `to` exceeds `from`
/// (e.g. the Pentium's AND-level overhead in Table 6).
///
/// # Examples
///
/// ```
/// use mdes_core::stats::percent_reduced;
/// assert_eq!(percent_reduced(35.49, 4.38), (35.49 - 4.38) / 35.49 * 100.0);
/// assert!(percent_reduced(14824.0, 15416.0) < 0.0); // grew
/// ```
pub fn percent_reduced(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (from - to) / from * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_lifecycle_updates_all_counters() {
        let mut stats = CheckStats::new();
        stats.begin_attempt();
        stats.count_option();
        stats.count_check();
        stats.count_check();
        stats.end_attempt(false);

        stats.begin_attempt();
        stats.count_option();
        stats.count_option();
        stats.count_check();
        stats.end_attempt(true);
        stats.count_operation();

        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.successes, 1);
        assert_eq!(stats.options_checked, 3);
        assert_eq!(stats.resource_checks, 3);
        assert_eq!(stats.operations, 1);
        assert!((stats.attempts_per_op() - 2.0).abs() < 1e-12);
        assert!((stats.options_per_attempt_avg() - 1.5).abs() < 1e-12);
        assert!((stats.checks_per_attempt() - 1.5).abs() < 1e-12);
        assert!((stats.checks_per_option() - 1.0).abs() < 1e-12);
        assert_eq!(stats.options_per_attempt.count(1), 1);
        assert_eq!(stats.options_per_attempt.count(2), 1);
    }

    #[test]
    fn ratios_are_zero_when_denominator_is_zero() {
        let stats = CheckStats::new();
        assert_eq!(stats.attempts_per_op(), 0.0);
        assert_eq!(stats.options_per_attempt_avg(), 0.0);
        assert_eq!(stats.checks_per_attempt(), 0.0);
        assert_eq!(stats.checks_per_option(), 0.0);
    }

    #[test]
    fn reset_compares_equal_to_fresh_counters() {
        let mut stats = CheckStats::new();
        stats.begin_attempt();
        stats.count_option();
        stats.count_check();
        stats.end_attempt(true);
        stats.count_operation();
        // Also leave mid-attempt scratch dirty, as a panicked run would.
        stats.begin_attempt();
        stats.count_option();

        stats.reset();
        assert_eq!(stats, CheckStats::new());

        // A reset instance accumulates exactly like a fresh one.
        stats.begin_attempt();
        stats.count_option();
        stats.end_attempt(true);
        let mut fresh = CheckStats::new();
        fresh.begin_attempt();
        fresh.count_option();
        fresh.end_attempt(true);
        assert_eq!(stats, fresh);
    }

    #[test]
    fn histogram_saturates_at_capacity() {
        let mut h = Histogram::new(4);
        h.record(3);
        h.record(4);
        h.record(400);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(4), 2); // 400 saturated into the last bucket
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = Histogram::new(10);
        for _ in 0..3 {
            h.record(1);
        }
        h.record(5);
        assert!((h.fraction(1) - 0.75).abs() < 1e-12);
        assert!((h.fraction_range(0, 4) - 0.75).abs() < 1e-12);
        assert!((h.fraction_range(5, 10) - 0.25).abs() < 1e-12);
        assert_eq!(Histogram::new(2).fraction(0), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CheckStats::new();
        a.begin_attempt();
        a.count_option();
        a.count_check();
        a.end_attempt(true);
        a.count_operation();

        let mut b = CheckStats::new();
        b.begin_attempt();
        b.count_option();
        b.count_check();
        b.end_attempt(false);

        a.merge(&b);
        assert_eq!(a.attempts, 2);
        assert_eq!(a.options_checked, 2);
        assert_eq!(a.resource_checks, 2);
        assert_eq!(a.operations, 1);
        assert_eq!(a.options_per_attempt.count(1), 2);
    }

    #[test]
    fn publish_folds_counters_and_ratios_into_telemetry() {
        let mut stats = CheckStats::new();
        stats.begin_attempt();
        stats.count_option();
        stats.count_check();
        stats.count_check();
        stats.end_attempt(true);
        stats.count_operation();

        let tel = mdes_telemetry::Telemetry::new();
        stats.publish(&tel, "sched/list");
        stats.publish(&tel, "sched/list"); // counters accumulate
        let report = tel.report();
        assert_eq!(report.counter("sched/list/attempts"), Some(2));
        assert_eq!(report.counter("sched/list/resource_checks"), Some(4));
        assert_eq!(report.counter("sched/list/operations"), Some(2));
        assert_eq!(report.gauge("sched/list/checks_per_attempt"), Some(2.0));
    }

    #[test]
    fn percent_reduced_matches_paper_convention() {
        assert!((percent_reduced(100.0, 50.0) - 50.0).abs() < 1e-12);
        // Pentium Table 6: AND/OR slightly larger → negative reduction.
        assert!(percent_reduced(14824.0, 15416.0) < 0.0);
        assert_eq!(percent_reduced(0.0, 5.0), 0.0);
    }

    #[test]
    fn histogram_iter_skips_empty_buckets() {
        let mut h = Histogram::new(8);
        h.record(2);
        h.record(2);
        h.record(7);
        let items: Vec<(usize, u64)> = h.iter().collect();
        assert_eq!(items, vec![(2, 2), (7, 1)]);
    }

    #[test]
    fn reset_after_a_high_value_clears_every_recorded_bucket() {
        let mut h = Histogram::new(1024);
        h.record(1);
        h.record(700);
        h.record(5000); // saturates into the last bucket
        h.reset();
        assert_eq!(h, Histogram::new(1024));
        assert_eq!(h.total(), 0);
        assert_eq!((h.count(700), h.count(1024)), (0, 0));
        assert_eq!(h.iter().count(), 0);

        // Recording again after the reset starts from a clean slate.
        h.record(2);
        let mut fresh = Histogram::new(1024);
        fresh.record(2);
        assert_eq!(h, fresh);
    }

    #[test]
    fn merging_histograms_with_different_high_water_marks() {
        let mut low = Histogram::new(16);
        low.record(1);
        low.record(2);
        let mut high = Histogram::new(16);
        high.record(2);
        high.record(9);
        high.record(40);

        // Merge in both directions: the result is the same either way.
        let mut a = low.clone();
        a.merge(&high);
        let mut b = high.clone();
        b.merge(&low);
        assert_eq!(a, b);
        let items: Vec<(usize, u64)> = a.iter().collect();
        assert_eq!(items, vec![(1, 1), (2, 2), (9, 1), (16, 1)]);
        assert_eq!(a.total(), 5);
        assert!((a.fraction_range(9, 100) - 0.4).abs() < 1e-12);

        // Merging an empty histogram changes nothing, and a merged-then-
        // reset histogram equals a fresh one.
        a.merge(&Histogram::new(16));
        assert_eq!(a, b);
        a.reset();
        assert_eq!(a, Histogram::new(16));
    }

    #[test]
    fn histograms_compare_by_capacity_and_counts() {
        let mut a = Histogram::new(8);
        let mut b = Histogram::new(8);
        a.record(3);
        assert_ne!(a, b);
        b.record(3);
        assert_eq!(a, b);
        assert_ne!(Histogram::new(8), Histogram::new(9));
    }

    #[test]
    #[should_panic(expected = "histogram capacities differ")]
    fn merging_mismatched_histograms_panics() {
        let mut a = Histogram::new(2);
        let b = Histogram::new(3);
        a.merge(&b);
    }
}
