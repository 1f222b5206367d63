//! The experiment grid against fresh computations: a cell the grid
//! caches must equal the same cell computed from scratch, and the
//! rendered tables must regenerate byte for byte.

use mdes::core::UsageEncoding;
use mdes::machines::Machine;
use mdes_bench::experiment::{default_workload, prepare_spec, run_on, Grid, Rep, Stage};
use mdes_bench::tables::table5;
use mdes_workload::generate;

#[test]
fn grid_cells_equal_fresh_computations() {
    // Every cell of one machine, asked of one grid, against a
    // from-scratch prepare → generate → schedule of the same cell; a
    // cache key that lost a coordinate would hand one cell another's
    // measurements.
    let machine = Machine::Pa7100;
    let mut grid = Grid::new(1_200);
    for rep in Rep::both() {
        for stage in [Stage::Original, Stage::Cleaned, Stage::Shifted, Stage::Full] {
            for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
                let spec = prepare_spec(machine, rep, stage);
                let workload = generate(machine, &spec, &default_workload(machine, 1_200));
                let fresh = run_on(&spec, &workload, encoding);
                let cached = grid.cell(machine, (rep, stage, encoding));
                let cell = format!("{rep:?} {stage:?} {encoding:?}");
                assert_eq!(cached.stats, fresh.stats, "{cell}");
                assert_eq!(cached.memory, fresh.memory, "{cell}");
                assert_eq!(
                    grid.memory(machine, (rep, stage, encoding)),
                    fresh.memory,
                    "{cell}"
                );
            }
        }
    }
}

#[test]
fn table_rendering_is_byte_stable_across_regenerations() {
    // Two independent regenerations, each from its own grid, must render
    // the same bytes.
    let first = table5(&mut Grid::new(1_200));
    let second = table5(&mut Grid::new(1_200));
    assert_eq!(first, second);
    assert!(first.contains("MDES"), "unexpected table header:\n{first}");
}
