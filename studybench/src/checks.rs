//! Correctness checks on a grid's results, run outside every timed region.
//!
//! Nothing here compares against a stored copy of earlier output. Each
//! cell is checked against independent oracles: the ISA reference
//! emulator (retired counts, outputs across levels), the sampling
//! mathematics (tallies, stop rule, Horvitz–Thompson weight), and on a
//! fixed subset of cells the fresh per-fault injection path from cycle 0.

use crate::grid::{is_oracle_cell, Grid};
use crate::setup::Setup;
use softerr::{
    fnv1a, weighted_error_margin, CampaignResult, CellKey, CellResult, ClassCounts, Injector,
    MachineConfig, Orchestrator, StopRule, StudyConfig, Z_99,
};

/// Problems found per cell, in plan order; an empty list means the cell
/// passed every check.
pub fn check_cells(
    grid: Grid,
    cfg: &StudyConfig,
    setup: &Setup,
    cells: &[(CellKey, CellResult)],
) -> Vec<Vec<String>> {
    let plan = Orchestrator::new(cfg.clone()).plan();
    let mut problems: Vec<Vec<String>> = vec![Vec::new(); plan.len().max(cells.len())];
    if cells.len() != plan.len() {
        for p in &mut problems {
            p.push(format!(
                "grid returned {} cells, plan has {}",
                cells.len(),
                plan.len()
            ));
        }
        return problems;
    }
    for (i, ((key, cell), planned)) in cells.iter().zip(&plan).enumerate() {
        let out = &mut problems[i];
        if key != planned {
            out.push(format!("cell {i} is {key}, plan order expects {planned}"));
            continue;
        }
        let machine = cfg
            .machines
            .iter()
            .find(|m| m.name == key.machine)
            .expect("plan keys name configured machines");
        check_cell(grid, cfg, setup, machine, key, cell, out);
    }
    problems
}

fn check_cell(
    grid: Grid,
    cfg: &StudyConfig,
    setup: &Setup,
    machine: &MachineConfig,
    key: &CellKey,
    cell: &CellResult,
    out: &mut Vec<String>,
) {
    let program = setup.program(machine.profile, key.workload, key.level);
    if cell.golden_retired != program.retired {
        out.push(format!(
            "{key}: golden retired {} but the emulator retired {}",
            cell.golden_retired, program.retired
        ));
    }
    for &level in &cfg.levels {
        let other = setup.program(machine.profile, key.workload, level);
        if other.output != program.output {
            out.push(format!(
                "{key}: reference output differs from {} at {level}",
                key.workload
            ));
        }
    }
    let structures: Vec<_> = cell.campaigns.iter().map(|c| c.structure).collect();
    if structures != cfg.structures {
        out.push(format!("{key}: campaigns cover {structures:?}"));
        return;
    }
    for c in &cell.campaigns {
        if c.golden_cycles != cell.golden_cycles {
            out.push(format!(
                "{key}/{}: campaign golden cycles {} but the cell's are {}",
                c.structure.name(),
                c.golden_cycles,
                cell.golden_cycles
            ));
        }
        if let StopRule::FixedN(n) = cfg.plan.stop {
            let population = c.bit_population.saturating_mul(c.golden_cycles.max(1));
            if c.total() != n.min(population) {
                out.push(format!(
                    "{key}/{}: tallies sum to {}, plan asks for {n}",
                    c.structure.name(),
                    c.total()
                ));
            }
        }
    }
    let oracle = is_oracle_cell(key);
    if grid != Grid::Importance && !oracle {
        return;
    }
    let injector = match Injector::new(machine, &program.compiled.program) {
        Ok(injector) => injector,
        Err(e) => {
            out.push(format!("{key}: golden run failed: {e}"));
            return;
        }
    };
    let golden = injector.golden();
    if (golden.cycles, golden.retired) != (cell.golden_cycles, cell.golden_retired) {
        out.push(format!(
            "{key}: a fresh golden run gives {} cycles / {} retired, the cell {} / {}",
            golden.cycles, golden.retired, cell.golden_cycles, cell.golden_retired
        ));
        return;
    }
    if golden.output != program.output {
        out.push(format!("{key}: golden output differs from the emulator's"));
    }
    if grid == Grid::Importance {
        for c in &cell.campaigns {
            if let Some(p) = check_importance(&injector, cfg, c) {
                out.push(format!("{key}/{p}"));
            }
        }
    }
    if oracle {
        for c in &cell.campaigns {
            if !grid.oracle_structures().contains(&c.structure) {
                continue;
            }
            if let Some(p) = check_oracle(&injector, grid, cfg, c) {
                out.push(format!("{key}/{p}"));
            }
        }
    }
}

/// Stop rule and weight of one importance-sampled campaign, recomputed from
/// the golden run's liveness map.
fn check_importance(
    injector: &Injector<'_>,
    cfg: &StudyConfig,
    c: &CampaignResult,
) -> Option<String> {
    let s = c.structure;
    let cycles = injector.golden().cycles.max(1);
    let bits = injector.bit_count(s);
    if bits != c.bit_population {
        return Some(format!(
            "{}: bit population {} but {bits} bits",
            s.name(),
            c.bit_population
        ));
    }
    let total = bits.saturating_mul(cycles);
    let live = injector
        .liveness()
        .vulnerable_site_count(s, cycles)
        .unwrap_or(total)
        .min(total);
    let weight = if total == 0 {
        1.0
    } else {
        live as f64 / total as f64
    };
    if c.weight != weight || c.live_population != Some(live) {
        return Some(format!(
            "{}: weight {} over {:?} live sites, liveness gives {weight} over {live}",
            s.name(),
            c.weight,
            c.live_population
        ));
    }
    let target = cfg
        .plan
        .target_margin()
        .expect("importance grid stops on a margin");
    let n = c.total();
    if n > live {
        return Some(format!(
            "{}: {n} faults drawn from {live} live sites",
            s.name()
        ));
    }
    if n != live && weighted_error_margin(n, live, weight, Z_99) > target {
        return Some(format!("{}: {n} faults miss the {target} margin", s.name()));
    }
    // Holds by construction (`CampaignResult::avf` is weight × the
    // unmasked share); kept as the property the estimator promises.
    if c.avf() > weight {
        return Some(format!(
            "{}: AVF {} exceeds weight {weight}",
            s.name(),
            c.avf()
        ));
    }
    None
}

/// Redraws a campaign's faults with the public samplers and classifies
/// each one on the fresh path from cycle 0; the tallies must match exactly.
fn check_oracle(
    injector: &Injector<'_>,
    grid: Grid,
    cfg: &StudyConfig,
    c: &CampaignResult,
) -> Option<String> {
    let s = c.structure;
    let faults = match (grid, cfg.plan.stop) {
        (Grid::Importance, _) => injector.sample_importance(s, c.total(), cfg.seed),
        (_, StopRule::FixedN(n)) => injector.sample_faults(s, n, cfg.seed),
        (_, StopRule::TargetMargin { .. }) => unreachable!("fixed-n grids stop on a count"),
    };
    if grid == Grid::Importance {
        let liveness = injector.liveness();
        if let Some(f) = faults
            .iter()
            .find(|f| !liveness.is_vulnerable(s, f.bit, f.cycle))
        {
            return Some(format!(
                "{}: importance fault at bit {} cycle {} is not vulnerable",
                s.name(),
                f.bit,
                f.cycle
            ));
        }
    }
    let mut counts = ClassCounts::default();
    for &fault in &faults {
        counts.record(injector.inject(fault));
    }
    (counts != c.counts).then(|| {
        format!(
            "{}: the fresh path classifies {counts:?}, the campaign tallied {:?}",
            s.name(),
            c.counts
        )
    })
}

/// One line per cell: golden cycles and retired count, then every
/// campaign's tallies (masked/sdc/crash/timeout/assert), weight and live
/// population. Identical lines mean identical simulated statistics.
pub fn digest_lines(cells: &[(CellKey, CellResult)]) -> Vec<String> {
    cells
        .iter()
        .map(|(key, cell)| {
            let mut line = format!(
                "{key} cycles={} retired={} code={}",
                cell.golden_cycles, cell.golden_retired, cell.code_words
            );
            for c in &cell.campaigns {
                let k = &c.counts;
                line.push_str(&format!(
                    " {}={}/{}/{}/{}/{}",
                    c.structure.name(),
                    k.masked,
                    k.sdc,
                    k.crash,
                    k.timeout,
                    k.assert_
                ));
                if let Some(live) = c.live_population {
                    line.push_str(&format!(":w={:?}:live={live}", c.weight));
                }
            }
            line
        })
        .collect()
}

/// FNV-1a hash of the digest lines.
pub fn digest(lines: &[String]) -> String {
    format!("{:016x}", fnv1a(lines.join("\n").as_bytes()))
}
