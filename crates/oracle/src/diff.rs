//! The differential harness: production schedulers vs. the oracle.
//!
//! [`differential_gap`] runs the list scheduler and the oracle over the
//! same seeded regions and aggregates total cycles;
//! [`modulo_differential`] does the same for loops via the II sandwich.
//! The aggregate ratios become the `sched/optimality_gap` /
//! `sched/optimality_gap_modulo` gauges, and any inversion of the
//! invariants — an oracle or list schedule failing replay verification,
//! a list schedule strictly shorter than the oracle's, an II escaping its
//! sandwich — increments `sched/oracle_violations`, which CI requires to
//! be exactly zero.

use mdes_core::{CheckStats, CompiledMdes};
use mdes_sched::{Block, LoopBlock, SchedScratch};
use mdes_telemetry::Telemetry;

use crate::OracleScheduler;

/// How many violation descriptions are retained verbatim (the count is
/// always exact; the details are a debugging aid).
const MAX_DETAILS: usize = 8;

/// Aggregated differential results over any number of regions, loops and
/// machines (reports [`GapReport::merge`] into each other).
#[derive(Clone, Debug, Default)]
pub struct GapReport {
    /// Regions the oracle scheduled.
    pub regions: usize,
    /// Regions skipped for being empty or larger than the oracle's cap.
    pub skipped: usize,
    /// Regions whose minimality was proved (search ran to completion).
    pub proved: usize,
    /// Regions where the oracle beat the production list scheduler.
    pub improved: usize,
    /// Total oracle schedule cycles.
    pub oracle_cycles: u64,
    /// Total list-scheduler cycles over the same regions.
    pub list_cycles: u64,
    /// Search nodes explored.
    pub nodes: u64,
    /// Invariant inversions (must be zero on a healthy build).
    pub violations: u64,
    /// Up to [`MAX_DETAILS`] violation descriptions.
    pub violation_details: Vec<String>,
    /// Loops the II sandwich was tightened for.
    pub loops: usize,
    /// Loops skipped (empty or oversized bodies).
    pub loops_skipped: usize,
    /// Sum of classic MII lower bounds.
    pub mii_sum: u64,
    /// Sum of oracle-witnessed IIs.
    pub oracle_ii_sum: u64,
    /// Sum of production `ModuloScheduler` IIs.
    pub production_ii_sum: u64,
}

impl GapReport {
    /// Optimality gap: total list cycles ÷ total oracle cycles (1.0 when
    /// nothing was measured; never below 1.0 on a healthy build).
    pub fn gap(&self) -> f64 {
        ratio(self.list_cycles, self.oracle_cycles)
    }

    /// Modulo gap: total production IIs ÷ total oracle-witnessed IIs.
    pub fn modulo_gap(&self) -> f64 {
        ratio(self.production_ii_sum, self.oracle_ii_sum)
    }

    /// Folds `other` into `self` (multi-machine aggregation).
    pub fn merge(&mut self, other: &GapReport) {
        self.regions += other.regions;
        self.skipped += other.skipped;
        self.proved += other.proved;
        self.improved += other.improved;
        self.oracle_cycles += other.oracle_cycles;
        self.list_cycles += other.list_cycles;
        self.nodes += other.nodes;
        self.violations += other.violations;
        for detail in &other.violation_details {
            if self.violation_details.len() < MAX_DETAILS {
                self.violation_details.push(detail.clone());
            }
        }
        self.loops += other.loops;
        self.loops_skipped += other.loops_skipped;
        self.mii_sum += other.mii_sum;
        self.oracle_ii_sum += other.oracle_ii_sum;
        self.production_ii_sum += other.production_ii_sum;
    }

    /// Publishes the gauges and counters described in
    /// `docs/telemetry.md`.  `sched/oracle_violations` is always
    /// emitted, even at zero, so CI can grep for the exact value.
    pub fn publish(&self, tel: &Telemetry) {
        tel.gauge_set("sched/optimality_gap", self.gap());
        tel.gauge_set("sched/optimality_gap_modulo", self.modulo_gap());
        tel.counter_add("sched/oracle_regions", self.regions as u64);
        tel.counter_add("sched/oracle_skipped", self.skipped as u64);
        tel.counter_add("sched/oracle_proved", self.proved as u64);
        tel.counter_add("sched/oracle_improved", self.improved as u64);
        tel.counter_add("sched/oracle_loops", self.loops as u64);
        tel.counter_add("sched/oracle_nodes", self.nodes);
        tel.counter_add("sched/oracle_violations", self.violations);
    }

    fn violation(&mut self, detail: String) {
        self.violations += 1;
        if self.violation_details.len() < MAX_DETAILS {
            self.violation_details.push(detail);
        }
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        1.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Runs the acyclic differential over `blocks`: oracle vs. the list
/// scheduler, verifying every oracle and list schedule by RU-map replay
/// and checking that no list schedule is ever shorter than the oracle's.
/// The list schedule is the oracle's incumbent, which
/// [`OracleScheduler::schedule`] leaves in the scratch beside the
/// block's dependence graph, so each region is list-scheduled once and
/// its graph built once.
///
/// `stats` accumulates the oracle's search probes.
pub fn differential_gap(
    mdes: &CompiledMdes,
    blocks: &[Block],
    oracle: &OracleScheduler,
    stats: &mut CheckStats,
) -> GapReport {
    let mut report = GapReport::default();
    let mut scratch = SchedScratch::new();
    for (index, block) in blocks.iter().enumerate() {
        let n = block.ops.len();
        if n == 0 || n > oracle.max_ops() {
            report.skipped += 1;
            continue;
        }
        let Some(outcome) = oracle.schedule(block, &mut scratch, stats) else {
            report.skipped += 1;
            continue;
        };
        report.regions += 1;
        report.proved += outcome.proved as usize;
        report.improved += outcome.improved as usize;
        report.nodes += outcome.nodes;

        if let Err(err) = outcome.schedule.verify(scratch.graph(), mdes) {
            report.violation(format!(
                "region {index}: oracle schedule fails replay: {err}"
            ));
        }
        if let Err(err) = scratch.verify(mdes) {
            report.violation(format!("region {index}: list schedule fails replay: {err}"));
        }
        let list_length = scratch.schedule().length;
        if list_length < outcome.schedule.length {
            report.violation(format!(
                "region {index}: list schedule ({list_length}) beats the oracle ({})",
                outcome.schedule.length
            ));
        }
        report.oracle_cycles += outcome.schedule.length as u64;
        report.list_cycles += list_length as u64;
    }
    report
}

/// Runs the modulo differential over `loops`: for each loop the II
/// sandwich `MII ≤ II_oracle ≤ II_prod` is asserted and the oracle's
/// witness schedule is replay-verified.
pub fn modulo_differential(
    mdes: &CompiledMdes,
    loops: &[LoopBlock],
    oracle: &OracleScheduler,
    stats: &mut CheckStats,
) -> GapReport {
    let mut report = GapReport::default();
    for (index, looped) in loops.iter().enumerate() {
        let Some(outcome) = oracle.min_ii(looped, stats) else {
            report.loops_skipped += 1;
            continue;
        };
        report.loops += 1;
        report.nodes += outcome.nodes;
        if let Err(err) = outcome.schedule.verify(looped, mdes) {
            report.violation(format!("loop {index}: II witness fails replay: {err}"));
        }
        if outcome.ii < outcome.mii {
            report.violation(format!(
                "loop {index}: oracle II {} below MII {}",
                outcome.ii, outcome.mii
            ));
        }
        if outcome.ii > outcome.production_ii {
            report.violation(format!(
                "loop {index}: oracle II {} above production II {}",
                outcome.ii, outcome.production_ii
            ));
        }
        report.mii_sum += outcome.mii as u64;
        report.oracle_ii_sum += outcome.ii as u64;
        report.production_ii_sum += outcome.production_ii as u64;
    }
    report
}

/// Turns acyclic workload blocks into loop bodies for the modulo
/// differential: terminating branch / serializing operations are
/// dropped (a software-pipelined body has no interior control flow) and
/// a distance-1 carried dependence from the last remaining operation to
/// the first closes the recurrence.  Blocks left empty are skipped.
pub fn loops_from_blocks(mdes: &CompiledMdes, blocks: &[Block]) -> Vec<LoopBlock> {
    blocks
        .iter()
        .filter_map(|block| {
            let mut body = Block::new();
            for op in &block.ops {
                let flags = mdes.class(op.class).flags;
                if flags.branch || flags.serial {
                    continue;
                }
                body.push(*op);
            }
            let n = body.ops.len();
            if n == 0 {
                return None;
            }
            Some(LoopBlock {
                body,
                carried: vec![(n - 1, 0, 1, 1)],
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::UsageEncoding;
    use mdes_sched::{Op, Reg};

    fn compile(src: &str) -> CompiledMdes {
        let spec = mdes_lang::compile(src).unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    #[test]
    fn gap_report_aggregates_and_publishes() {
        let mdes = compile(
            "
            resource ALU[2];
            or_tree AnyAlu = first_of(for a in 0..2: { ALU[a] @ 0 });
            class alu { constraint = AnyAlu; latency = 1; }
        ",
        );
        let alu = mdes.class_by_name("alu").unwrap();
        let blocks: Vec<Block> = (0..4)
            .map(|b| {
                (0..4)
                    .map(|i| Op::new(alu, vec![Reg(b * 8 + i)], vec![]))
                    .collect()
            })
            .collect();
        let oracle = OracleScheduler::new(&mdes);
        let mut stats = CheckStats::new();
        let mut report = differential_gap(&mdes, &blocks, &oracle, &mut stats);
        assert_eq!(report.regions, 4);
        assert_eq!(report.violations, 0, "{:?}", report.violation_details);
        assert!(report.gap() >= 1.0);

        let loops = loops_from_blocks(&mdes, &blocks);
        let modulo = modulo_differential(&mdes, &loops, &oracle, &mut stats);
        assert_eq!(modulo.loops, 4);
        assert_eq!(modulo.violations, 0, "{:?}", modulo.violation_details);
        report.merge(&modulo);

        let tel = Telemetry::new();
        report.publish(&tel);
        let snapshot = tel.report();
        assert_eq!(snapshot.counter("sched/oracle_violations"), Some(0));
        assert_eq!(snapshot.counter("sched/oracle_regions"), Some(4));
        assert!(snapshot.gauge("sched/optimality_gap").unwrap() >= 1.0);
    }

    #[test]
    fn oversized_blocks_are_counted_not_scheduled() {
        let mdes = compile(
            "
            resource ALU;
            or_tree T = first_of({ ALU @ 0 });
            class alu { constraint = T; latency = 1; }
        ",
        );
        let alu = mdes.class_by_name("alu").unwrap();
        let big: Block = (0..6).map(|i| Op::new(alu, vec![Reg(i)], vec![])).collect();
        let oracle = OracleScheduler::new(&mdes).with_max_ops(4);
        let mut stats = CheckStats::new();
        let report = differential_gap(&mdes, &[big], &oracle, &mut stats);
        assert_eq!(report.regions, 0);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.gap(), 1.0);
    }
}
