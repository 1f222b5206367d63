//! `CheckStats` uses plain non-atomic counters by design: every instance
//! is owned by exactly one worker and folded post-hoc with
//! [`CheckStats::merge`]. These regression tests pin the properties that
//! make the post-hoc fold safe — no counts are dropped under concurrent
//! folding, the fold is order-invariant, and partitioned runs fold to
//! the serial total.

use std::sync::Mutex;

use mdes_core::CheckStats;

/// A deterministic per-thread stats fragment: `rounds` attempts, each
/// probing `options` options with one check apiece.
fn fragment(rounds: u64, options: usize) -> CheckStats {
    let mut stats = CheckStats::new();
    for round in 0..rounds {
        stats.begin_attempt();
        for _ in 0..options {
            stats.count_option();
            stats.count_check();
        }
        let success = round % 2 == 0;
        stats.end_attempt(success);
        if success {
            stats.count_operation();
        }
    }
    stats
}

#[test]
fn concurrent_folding_never_drops_counts() {
    // 8 threads × 50 fragments × 40 attempts, all merged into one shared
    // accumulator under contention.
    let total = Mutex::new(CheckStats::new());
    std::thread::scope(|scope| {
        for thread in 0..8u64 {
            let total = &total;
            scope.spawn(move || {
                for fragment_index in 0..50u64 {
                    let part = fragment(40, 1 + ((thread + fragment_index) % 3) as usize);
                    total
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .merge(&part);
                }
            });
        }
    });
    let total = total.into_inner().unwrap_or_else(|p| p.into_inner());

    // Sequential replay of the exact same fragments.
    let mut expected = CheckStats::new();
    for thread in 0..8u64 {
        for fragment_index in 0..50u64 {
            expected.merge(&fragment(40, 1 + ((thread + fragment_index) % 3) as usize));
        }
    }
    assert_eq!(total, expected);
    assert_eq!(total.attempts, 8 * 50 * 40);
    assert_eq!(total.options_per_attempt.total(), total.attempts);
}

#[test]
fn folding_is_order_invariant() {
    let parts: Vec<CheckStats> = (0..6)
        .map(|i| fragment(10 + i, 1 + (i as usize % 4)))
        .collect();
    let mut forward = CheckStats::new();
    for part in &parts {
        forward.merge(part);
    }
    let mut backward = CheckStats::new();
    for part in parts.iter().rev() {
        backward.merge(part);
    }
    assert_eq!(forward, backward);
}

#[test]
fn partitioned_runs_fold_to_the_serial_total() {
    // One serial run vs. the same attempts split across two owned
    // instances — the shape the engine's per-worker stats take. This is
    // the regression test for the `end_attempt` scratch reset: the serial
    // run ends mid-lifecycle state cleared, so the fold compares equal.
    let mut serial = CheckStats::new();
    for round in 0..30u64 {
        serial.begin_attempt();
        serial.count_option();
        serial.count_check();
        serial.end_attempt(true);
        serial.count_operation();
        let _ = round;
    }

    let mut left = CheckStats::new();
    let mut right = CheckStats::new();
    for round in 0..30u64 {
        let part = if round % 2 == 0 {
            &mut left
        } else {
            &mut right
        };
        part.begin_attempt();
        part.count_option();
        part.count_check();
        part.end_attempt(true);
        part.count_operation();
    }
    let mut folded = CheckStats::new();
    folded.merge(&left);
    folded.merge(&right);
    assert_eq!(folded, serial);
}

#[test]
fn a_panicked_job_costs_only_its_own_counts() {
    // Drive the raw pool with a job that panics: the fold over the
    // surviving results must equal a serial fold that skips the same job
    // — a panic cannot corrupt or drop other workers' counters.
    let items: Vec<u64> = (0..24).collect();
    let (outcome, _) = mdes_engine::run_batch_stateful(
        &items,
        3,
        |_| (),
        |(), _, index, &item| {
            assert!(index != 7, "deliberate test panic");
            fragment(item + 1, 2)
        },
    );
    let panics: u64 = outcome.workers.iter().map(|w| w.panics).sum();
    assert_eq!(panics, 1);

    let mut folded = CheckStats::new();
    for slot in outcome.results.iter().flatten() {
        folded.merge(slot);
    }
    let mut expected = CheckStats::new();
    for &item in items.iter().filter(|&&item| item != 7) {
        expected.merge(&fragment(item + 1, 2));
    }
    assert_eq!(folded, expected);
}
