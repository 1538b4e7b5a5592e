//! The checks must catch corrupted results, and the layer run must
//! reproduce the orchestrator's cells exactly.

use crate::checks::check_cells;
use crate::grid::Grid;
use crate::{layers, setup};
use softerr::{CellKey, CellResult, MachineConfig, OptLevel, Orchestrator, StudyConfig, Workload};

/// One oracle cell of `grid` (A15, qsort, O2) over its oracle structures.
fn small(grid: Grid) -> StudyConfig {
    StudyConfig {
        machines: vec![MachineConfig::cortex_a15()],
        workloads: vec![Workload::Qsort],
        levels: vec![OptLevel::O2],
        structures: grid.oracle_structures()[..2].to_vec(),
        ..grid.config(7)
    }
}

fn failures(grid: Grid, cfg: &StudyConfig, cells: &[(CellKey, CellResult)]) -> usize {
    let setup = setup::set_up(cfg).expect("set-up");
    check_cells(grid, cfg, &setup, cells)
        .iter()
        .filter(|p| !p.is_empty())
        .count()
}

fn corrupt(
    cells: &[(CellKey, CellResult)],
    f: impl FnOnce(&mut CellResult),
) -> Vec<(CellKey, CellResult)> {
    let mut cells = cells.to_vec();
    f(&mut cells[0].1);
    cells
}

#[test]
fn corrupted_importance_cells_fail_the_checks() {
    let grid = Grid::Importance;
    let cfg = small(grid);
    let cells = Orchestrator::new(cfg.clone())
        .run()
        .expect("grid runs")
        .cells;
    assert_eq!(failures(grid, &cfg, &cells), 0, "the true cells pass");

    // A tally flipped from one class to another keeps the sum; only the
    // fresh-path oracle can see it.
    let flipped = corrupt(&cells, |cell| {
        let k = &mut cell.campaigns[0].counts;
        if k.masked > 0 {
            k.masked -= 1;
            k.sdc += 1;
        } else {
            k.masked += 1;
            k.sdc = k.sdc.checked_sub(1).expect("a non-masked tally");
        }
    });
    assert_eq!(failures(grid, &cfg, &flipped), 1, "flipped tally");

    let retired = corrupt(&cells, |cell| cell.golden_retired += 1);
    assert_eq!(failures(grid, &cfg, &retired), 1, "wrong retired count");

    let weight = corrupt(&cells, |cell| cell.campaigns[1].weight *= 1.0 + 1e-9);
    assert_eq!(failures(grid, &cfg, &weight), 1, "perturbed weight");
}

#[test]
fn corrupted_fixed_n_tallies_fail_the_checks() {
    let grid = Grid::Pruned;
    let cfg = small(grid);
    let cells = Orchestrator::new(cfg.clone())
        .run()
        .expect("grid runs")
        .cells;
    assert_eq!(failures(grid, &cfg, &cells), 0, "the true cells pass");
    let extra = corrupt(&cells, |cell| cell.campaigns[1].counts.masked += 1);
    assert_eq!(
        failures(grid, &cfg, &extra),
        1,
        "tallies no longer sum to n"
    );
    let cycles = corrupt(&cells, |cell| cell.campaigns[0].golden_cycles += 1);
    assert_eq!(
        failures(grid, &cfg, &cycles),
        1,
        "campaign golden cycles differ"
    );
}

#[test]
fn layer_run_matches_the_orchestrator() {
    for grid in Grid::ALL {
        let cfg = StudyConfig {
            machines: MachineConfig::paper_machines(),
            ..small(grid)
        };
        let root = std::path::Path::new(".studybench-work");
        let work = root.join(format!("test-{}-{}", grid.name(), std::process::id()));
        let run = layers::run(&cfg, &work).expect("layer run");
        std::fs::remove_dir_all(&work).expect("work dir removed");
        let _ = std::fs::remove_dir(root);
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        let cells = Orchestrator::new(cfg.clone())
            .run()
            .expect("grid runs")
            .cells;
        assert!(run.cells == cells, "{}: layer run differs", grid.name());
        assert_eq!(failures(grid, &cfg, &run.cells), 0);
    }
}
