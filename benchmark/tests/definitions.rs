//! The benchmark's definitions: percentiles, arrival schedules, the
//! ladder's stop rule, and span self time.

use mdes_benchmark::arrivals::{poisson_offsets, request_seed};
use mdes_benchmark::ladder::{max_rps, should_stop, step_rate, StepResult};
use mdes_benchmark::stats::{beyond, median, percentile, rank, supports};
use mdes_benchmark::trace::{self_by_name, self_times, Span, Tracer, NO_PARENT};

#[test]
fn percentiles_use_the_nearest_rank() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 0.5), Some(50));
    assert_eq!(percentile(&sorted, 0.99), Some(99));
    assert_eq!(percentile(&sorted, 0.991), Some(100));
    assert_eq!(percentile(&sorted, 0.0), Some(1));
    assert_eq!(percentile(&sorted, 1.0), Some(100));
    assert_eq!(percentile::<u64>(&[], 0.5), None);
    // ceil(0.99 * 1000) is exactly rank 990, not 991.
    assert_eq!(rank(1000, 0.99), 990);
    assert_eq!(rank(3, 0.5), 2);
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 0.99), 10);
    assert!(supports(1000, 0.99));
    assert!(!supports(999, 0.99));
    assert!(supports(100, 0.9));
    assert!(!supports(99, 0.9));
    assert!(supports(20, 0.5));
    assert!(!supports(0, 0.5));
}

#[test]
fn the_arrival_schedule_is_a_pure_function_of_the_seed() {
    let len = 2_000_000_000;
    let a = poisson_offsets(7, 2, 4000.0, len);
    assert_eq!(a, poisson_offsets(7, 2, 4000.0, len));
    assert_ne!(a, poisson_offsets(8, 2, 4000.0, len));
    assert_ne!(a, poisson_offsets(7, 3, 4000.0, len));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&at| at < len));
    // 8000 expected arrivals; a Poisson count stays within 5%.
    assert!((7600..8400).contains(&a.len()), "{} arrivals", a.len());

    assert_eq!(request_seed(1, 5), request_seed(1, 5));
    assert_ne!(request_seed(1, 5), request_seed(1, 6));
    assert_ne!(request_seed(1, 5), request_seed(2, 5));
    assert!((0..1000).all(|i| request_seed(3, i) < 1 << 53));
}

fn step(rate: f64, p99_ms: f64) -> StepResult {
    StepResult {
        rate,
        sent: 1000,
        failed: 0,
        p99_ms,
        lateness_p99_ms: 0.1,
        inflight_mid: 2,
        inflight_end: 3,
    }
}

#[test]
fn the_ladder_stops_after_two_consecutive_misses() {
    let pass = |rate| step(rate, 1.0);
    let miss = |rate| step(rate, 9.0);
    assert!(!should_stop(&[pass(4000.0)]));
    assert!(!should_stop(&[pass(4000.0), miss(4320.0)]));
    assert!(!should_stop(&[miss(4000.0), pass(4320.0), miss(4666.0)]));
    assert!(should_stop(&[pass(4000.0), miss(4320.0), miss(4666.0)]));

    // A pass after a single miss still counts toward the maximum.
    let steps = [
        pass(4000.0),
        miss(4320.0),
        pass(4666.0),
        miss(5039.0),
        miss(5442.0),
    ];
    assert!(should_stop(&steps));
    assert_eq!(max_rps(&steps), Some(4666.0));
    assert_eq!(max_rps(&[miss(4000.0)]), None);
    assert_eq!(step_rate(4000.0, 0), 4000.0);
    assert_eq!(step_rate(4000.0, 2), 4666.0);
}

#[test]
fn a_step_misses_on_failures_backlog_or_a_late_generator() {
    assert!(step(4000.0, 5.0).meets_limit());
    assert!(!step(4000.0, 5.01).meets_limit());
    let failed = StepResult {
        failed: 1,
        ..step(4000.0, 1.0)
    };
    assert!(!failed.meets_limit());
    let backlog = StepResult {
        inflight_end: 20,
        ..step(4000.0, 1.0)
    };
    assert!(backlog.backlog_grew() && !backlog.meets_limit());
    let late = StepResult {
        lateness_p99_ms: 1.5,
        ..step(4000.0, 1.0)
    };
    assert!(!late.meets_limit());
}

fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span("root", 0, 100, NO_PARENT),
        span("a", 10, 30, 0),
        span("b", 50, 60, 0),
        span("inner", 12, 20, 1),
        // Overlapping children of `b` count once.
        span("c", 51, 55, 2),
        span("d", 53, 58, 2),
    ];
    assert_eq!(self_times(&spans), vec![70, 12, 3, 8, 4, 5]);

    let totals = self_by_name(&spans);
    assert_eq!(totals["root"], (1, 70));
    assert_eq!(totals["inner"], (1, 8));
}

#[test]
fn the_tracer_nests_spans_and_stops_at_capacity() {
    let mut tracer = Tracer::new(true, 3);
    let outer = tracer.enter("outer", 1);
    tracer.time("leaf", 1, || ());
    tracer.exit(outer);
    tracer.time("next", 2, || ());
    tracer.time("refused", 2, || ());
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, 0);
    assert_eq!(spans[2].parent, NO_PARENT);
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    assert_eq!(tracer.dropped(), 1);

    let mut off = Tracer::new(false, 8);
    off.time("ignored", 0, || ());
    assert!(off.spans().is_empty());
}
