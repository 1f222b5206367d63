//! Differential testing of the exact branch-and-bound scheduler.
//!
//! Two invariants anchor the oracle's trustworthiness:
//!
//! 1. **Exactness** — on regions small enough to enumerate, the pruned
//!    branch-and-bound search must find exactly the schedule length of
//!    the independent brute-force enumerator
//!    ([`mdes::oracle::exhaustive_min_length`]), which shares none of
//!    its pruning machinery (no heights, no lower bounds, no placement
//!    heuristic, no option dedup).
//! 2. **Upper-bound soundness** — the production list scheduler may
//!    never produce a *shorter* schedule than the oracle: both replay
//!    the same `CompiledMdes` queries, so a below-oracle schedule means
//!    the production scheduler produced an unverifiable placement.
//!
//! Machines come from the synthetic fleet generator so the invariants
//! are exercised across interchangeable-unit groups, multi-cycle
//! staging, AND/OR classes and bypasses — not just the bundled six.
//! On the bundled six, the list scheduler's aggregate gap must also stay
//! inside the absolute ceiling the perf gate enforces
//! ([`mdes::perf::ORACLE_GAP_CEILING`]).

use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::oracle::{differential_gap, exhaustive_min_length, GapReport, OracleScheduler};
use mdes::perf::ORACLE_GAP_CEILING;
use mdes::sched::{DepGraph, ListScheduler};
use mdes::workload::{fleet_machine, generate_compiled_regions, RegionConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branch_and_bound_matches_brute_force_on_small_regions(
        machine_index in 0usize..24,
        region_seed in 0u64..1024,
    ) {
        // Mean 4 body ops bounds a region at 7 body + 1 terminator = 8
        // operations: small enough for the un-pruned enumerator.
        let machine = fleet_machine(0xF1EE7, machine_index);
        let mdes = CompiledMdes::compile(&machine.spec, UsageEncoding::BitVector).unwrap();
        let config = RegionConfig::new(2).with_mean_ops(4).with_seed(region_seed);
        let oracle = OracleScheduler::new(&mdes);
        for block in &generate_compiled_regions(&mdes, &config).blocks {
            let mut stats = CheckStats::new();
            let outcome = oracle
                .schedule(block, &mut stats)
                .expect("≤8-op regions are within the oracle's cap");
            prop_assert!(outcome.proved, "{}: search should finish on ≤8 ops", machine.name);

            let brute = exhaustive_min_length(&mdes, block, &mut stats);
            prop_assert_eq!(
                outcome.length(), brute,
                "{}: branch-and-bound disagrees with brute force", machine.name.clone()
            );

            let graph = DepGraph::build(block, &mdes);
            outcome
                .schedule
                .verify(&graph, &mdes)
                .unwrap_or_else(|e| panic!("{}: oracle schedule fails replay: {e}", machine.name));
        }
    }

    #[test]
    fn list_scheduler_never_beats_the_oracle(
        machine_index in 0usize..24,
        region_seed in 0u64..1024,
    ) {
        let machine = fleet_machine(0xF1EE7, machine_index);
        let mdes = CompiledMdes::compile(&machine.spec, UsageEncoding::BitVector).unwrap();
        let config = RegionConfig::new(2).with_mean_ops(4).with_seed(region_seed);
        let oracle = OracleScheduler::new(&mdes);
        let scheduler = ListScheduler::new(&mdes);
        for block in &generate_compiled_regions(&mdes, &config).blocks {
            let mut stats = CheckStats::new();
            let outcome = oracle.schedule(block, &mut stats).unwrap();
            let production = scheduler.schedule(block, &mut stats);
            prop_assert!(
                production.length >= outcome.length(),
                "{}: production schedule ({}) beats the proven minimum ({}) — \
                 it cannot be a valid schedule",
                machine.name.clone(), production.length, outcome.length()
            );
        }
    }
}

#[test]
fn list_gap_stays_under_the_perf_ceiling() {
    // Same node budget as the `oracle/bnb/*` perf family: regions that
    // exhaust it keep the list incumbent, which only pulls the measured
    // gap toward 1 — it cannot hide a blown ceiling.
    let mut total = GapReport::default();
    for (name, spec) in mdes::machines::bundled() {
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let blocks =
            generate_compiled_regions(&mdes, &RegionConfig::small(10).with_seed(42)).blocks;
        let oracle = OracleScheduler::new(&mdes).with_node_limit(200_000);
        let mut stats = CheckStats::new();
        let report = differential_gap(&mdes, &blocks, &oracle, &mut stats);
        assert_eq!(
            report.violations, 0,
            "{name}: {:?}",
            report.violation_details
        );
        total.merge(&report);
    }
    assert!(total.regions > 0, "differential measured nothing");
    assert!(
        total.gap() >= 1.0,
        "a gap below 1.0 means the list scheduler beat the oracle"
    );
    assert!(
        total.gap() <= ORACLE_GAP_CEILING,
        "optimality gap {:.3} blew the {ORACLE_GAP_CEILING} ceiling",
        total.gap()
    );
}
