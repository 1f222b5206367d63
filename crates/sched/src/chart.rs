//! ASCII resource-occupancy charts.
//!
//! Renders a scheduled block as the machine sees it: one row per
//! resource, one column per cycle, each cell naming the operation that
//! reserved the resource there.  This is the RU map made visible — the
//! paper's Figure-1 reservation tables, but for a whole schedule.

use std::fmt::Write as _;

use mdes_core::{CompiledMdes, MdesSpec};

use crate::list::Schedule;
use crate::operation::Block;

/// Renders the resource-occupancy chart of `schedule`.
///
/// `spec` supplies resource names (the compiled form keeps only bit
/// positions) and must be the description `mdes` was compiled from.
/// Operations are labeled `0-9A-Z` by index (wrapping for larger
/// blocks).
///
/// # Panics
///
/// Panics if the schedule does not belong to `block`/`mdes`.
pub fn occupancy_chart(
    spec: &MdesSpec,
    mdes: &CompiledMdes,
    block: &Block,
    schedule: &Schedule,
) -> String {
    assert_eq!(block.len(), schedule.len(), "schedule/block mismatch");
    if block.is_empty() {
        return String::from("(empty block)\n");
    }

    // Chart window: every reserved cycle.
    let (min_cycle, max_cycle) = window(mdes, schedule);
    let width = (max_cycle - min_cycle + 1) as usize;

    // grid[resource][cycle] = label of the occupying op.
    let num_resources = spec.resources().len();
    let mut grid = vec![vec![' '; width]; num_resources];
    for index in 0..schedule.len() {
        let label = op_label(index);
        for &opt_idx in schedule.selection(index) {
            for check in mdes.option_checks(opt_idx as usize) {
                let column = (schedule.cycle(index) + check.time - min_cycle) as usize;
                for bit in 0..64 {
                    if check.mask & (1 << bit) != 0 && (bit as usize) < num_resources {
                        grid[bit as usize][column] = label;
                    }
                }
            }
        }
    }

    let name_width = spec
        .resources()
        .iter()
        .map(|(_, n)| n.len())
        .max()
        .unwrap_or(4)
        .max(5);

    let mut out = String::new();
    let _ = write!(out, "{:>name_width$} |", "cycle");
    for cycle in min_cycle..=max_cycle {
        let _ = write!(out, "{:>3}", cycle);
    }
    out.push('\n');
    let _ = writeln!(out, "{}-+{}", "-".repeat(name_width), "-".repeat(3 * width));
    for (id, name) in spec.resources().iter() {
        let row = &grid[id.index()];
        if row.iter().all(|&c| c == ' ') {
            continue; // unused resource: keep the chart compact
        }
        let _ = write!(out, "{name:>name_width$} |");
        for &cell in row {
            let _ = write!(out, "  {cell}");
        }
        out.push('\n');
    }
    out
}

/// Per-resource utilization of a schedule: the fraction of cycles in the
/// schedule's occupied window during which each resource is reserved.
/// Returned in resource-id order; unused resources report 0.0.
///
/// # Examples
///
/// ```
/// use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
/// use mdes_sched::{chart::resource_utilization, Block, ListScheduler, Op, Reg};
///
/// let spec = mdes_lang::compile("
///     resource ALU;
///     or_tree T = first_of({ ALU @ 0 });
///     class alu { constraint = T; latency = 1; }
/// ").unwrap();
/// let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
/// let alu = mdes.class_by_name("alu").unwrap();
/// let mut block = Block::new();
/// for i in 0..3 {
///     block.push(Op::new(alu, vec![Reg(i)], vec![]));
/// }
/// let mut stats = CheckStats::new();
/// let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
/// // One ALU, three back-to-back ops: 100% busy.
/// assert_eq!(resource_utilization(&mdes, &schedule), vec![1.0]);
/// ```
pub fn resource_utilization(mdes: &CompiledMdes, schedule: &Schedule) -> Vec<f64> {
    let num_resources = mdes.num_resources();
    if schedule.is_empty() || num_resources == 0 {
        return vec![0.0; num_resources];
    }
    let (min_cycle, max_cycle) = window(mdes, schedule);
    let width = (max_cycle - min_cycle + 1) as usize;

    let mut busy = vec![vec![false; width]; num_resources];
    for index in 0..schedule.len() {
        for &opt_idx in schedule.selection(index) {
            for check in mdes.option_checks(opt_idx as usize) {
                let column = (schedule.cycle(index) + check.time - min_cycle) as usize;
                for (bit, row) in busy.iter_mut().enumerate().take(64) {
                    if check.mask & (1 << bit) != 0 {
                        row[column] = true;
                    }
                }
            }
        }
    }
    busy.into_iter()
        .map(|row| row.iter().filter(|&&b| b).count() as f64 / width as f64)
        .collect()
}

/// The first and last cycle any of `schedule`'s reservations can touch.
///
/// # Panics
///
/// Panics if the schedule is empty.
fn window(mdes: &CompiledMdes, schedule: &Schedule) -> (i32, i32) {
    let cycles = schedule.cycles();
    let first = cycles.iter().min().expect("a non-empty schedule");
    let last = cycles.iter().max().expect("a non-empty schedule");
    (first + mdes.min_check_time(), last + mdes.max_check_time())
}

/// Label for the `index`-th operation: `0-9`, then `A-Z`, wrapping.
fn op_label(index: usize) -> char {
    const ALPHABET: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    ALPHABET[index % ALPHABET.len()] as char
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::ListScheduler;
    use crate::operation::{Op, Reg};
    use mdes_core::{CheckStats, UsageEncoding};

    fn machine() -> (MdesSpec, CompiledMdes) {
        let spec = mdes_lang::compile(
            "
            resource Dec[2];
            resource M;
            or_tree AnyDec = first_of(for d in 0..2: { Dec[d] @ -1 });
            or_tree UseM = first_of({ M @ 0 });
            and_or_tree Load = all_of(UseM, AnyDec);
            and_or_tree Alu = all_of(AnyDec);
            class load { constraint = Load; latency = 2; flags = load; }
            class alu { constraint = Alu; latency = 1; }
        ",
        )
        .unwrap();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        (spec, compiled)
    }

    #[test]
    fn chart_shows_each_reservation_once() {
        let (spec, mdes) = machine();
        let load = mdes.class_by_name("load").unwrap();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut block = Block::new();
        block.push(Op::new(load, vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(alu, vec![Reg(2)], vec![Reg(3)]));
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);

        let chart = occupancy_chart(&spec, &mdes, &block, &schedule);
        // Op 0 (the load) occupies a decoder and M; op 1 a decoder.
        assert!(chart.contains("M |"), "{chart}");
        assert!(chart.contains("Dec[0]"), "{chart}");
        assert!(chart.matches('0').count() >= 2, "{chart}");
        assert!(chart.contains('1'), "{chart}");
        // Decode column (-1) is visible.
        assert!(chart.contains("-1"), "{chart}");
    }

    #[test]
    fn unused_resources_are_omitted() {
        let (spec, mdes) = machine();
        let alu = mdes.class_by_name("alu").unwrap();
        let mut block = Block::new();
        block.push(Op::new(alu, vec![Reg(1)], vec![]));
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let chart = occupancy_chart(&spec, &mdes, &block, &schedule);
        assert!(
            !chart.contains("M |"),
            "memory row should be omitted:\n{chart}"
        );
    }

    #[test]
    fn empty_block_renders_placeholder() {
        let (spec, mdes) = machine();
        let schedule = Schedule::default();
        assert_eq!(
            occupancy_chart(&spec, &mdes, &Block::new(), &schedule),
            "(empty block)\n"
        );
    }

    #[test]
    fn utilization_reflects_contention() {
        let (_, mdes) = machine();
        let load = mdes.class_by_name("load").unwrap();
        let mut block = Block::new();
        for i in 0..4 {
            block.push(Op::new(load, vec![Reg(i)], vec![Reg(10)]));
        }
        let mut stats = CheckStats::new();
        let schedule = ListScheduler::new(&mdes).schedule(&block, &mut stats);
        let util = resource_utilization(&mdes, &schedule);
        // Resources: Dec[0], Dec[1], M.  The single M port saturates its
        // window more than the second decoder.
        let m = util[2];
        let dec1 = util[1];
        assert!(m > 0.5, "{util:?}");
        assert!(dec1 <= m, "{util:?}");
        assert_eq!(util.len(), 3);
    }

    #[test]
    fn utilization_of_empty_schedule_is_zero() {
        let (_, mdes) = machine();
        let schedule = Schedule::default();
        assert_eq!(resource_utilization(&mdes, &schedule), vec![0.0; 3]);
    }

    #[test]
    fn labels_wrap_after_thirty_six_ops() {
        assert_eq!(op_label(0), '0');
        assert_eq!(op_label(10), 'A');
        assert_eq!(op_label(35), 'Z');
        assert_eq!(op_label(36), '0');
    }
}
