//! Study-grid benchmark for softerr.
//!
//! ```text
//! studybench --workload NAME --seed N --seconds S --trace 0|1
//! studybench digest --workload NAME --seed N
//! ```
//!
//! With `--trace 0` it sets the grid up several times, then runs whole
//! cold passes of `Orchestrator::execute` into fresh result stores for
//! about `--seconds` seconds, checks every cell, and prints the end-to-end
//! metrics. With `--trace 1` it runs the layer run instead (see
//! `layers.rs`) and prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": cells, "failed": cells, "metrics": {..}}`.
//!
//! `digest` runs one cold pass and the layer run, requires their cells to
//! be identical, and prints the digest of the simulated statistics.

mod checks;
mod grid;
mod layers;
mod setup;
#[cfg(test)]
mod tests;

use grid::Grid;
use softerr::{CellKey, CellResult, Orchestrator, ResultStore, StudyConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per end-to-end run: at least this many, and more until they
/// have taken `SETUP_MIN_S`; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

const USAGE: &str =
    "usage: studybench [digest] --workload grid_uniform|grid_pruned|grid_importance \
                     --seed N [--seconds S] [--trace 0|1]";

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric as measured.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    digest: bool,
    grid: Grid,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut digest = false;
    let (mut grid, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        if flag == "digest" {
            digest = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                grid = Some(Grid::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        digest,
        grid: grid.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What one run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Process high-water resident set size, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Prints the digest of a grid's simulated statistics.
fn print_digest(cells: &[(CellKey, CellResult)]) {
    let lines = checks::digest_lines(cells);
    for line in &lines {
        println!("cell {line}");
    }
    println!("digest {} ({} cells)", checks::digest(&lines), cells.len());
}

/// Reports failed cells on stderr; returns how many failed.
fn report_problems(problems: &[Vec<String>]) -> usize {
    for p in problems.iter().flatten() {
        eprintln!("check failed: {p}");
    }
    problems.iter().filter(|p| !p.is_empty()).count()
}

/// One cold pass of the whole grid into a fresh, empty result store:
/// (cells in plan order, wall seconds of `Orchestrator::execute`).
fn cold_pass(cfg: &StudyConfig, dir: &Path) -> Result<(Vec<(CellKey, CellResult)>, f64), String> {
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let orchestrator = Orchestrator::new(cfg.clone()).cell_workers(1).store(store);
    let t = Instant::now();
    let report = orchestrator.execute(&|_| {}).map_err(|e| e.to_string())?;
    let seconds = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    if report.executed != report.cells {
        return Err(format!(
            "a cold pass served {} of {} cells from its empty store",
            report.store_hits, report.cells
        ));
    }
    Ok((report.results.cells, seconds))
}

fn end_to_end(grid: Grid, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let cfg = grid.config(seed);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        let t = Instant::now();
        setup = Some(setup::set_up(&cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    // As many whole cold passes as come nearest to `seconds` at the first
    // pass's pace, at least one.
    let (first, first_s) = cold_pass(&cfg, &work.join("pass-0"))?;
    let count = ((seconds / first_s).round() as usize).max(1);
    let (mut passes, mut execute_s) = (vec![first], first_s);
    while passes.len() < count {
        let (cells, s) = cold_pass(&cfg, &work.join(format!("pass-{}", passes.len())))?;
        passes.push(cells);
        execute_s += s;
    }
    let cells_done: usize = passes.iter().map(Vec::len).sum();
    let peak = peak_rss_mib()?;

    let first = &passes[0];
    print_digest(first);
    let problems = checks::check_cells(grid, &cfg, &setup, first);
    let mut failed = report_problems(&problems);
    for pass in &passes[1..] {
        for (i, cell) in pass.iter().enumerate() {
            if !problems[i].is_empty() || *cell != first[i] {
                failed += 1;
            }
        }
    }
    Ok(Outcome {
        correct: true,
        attempted: cells_done,
        failed,
        metrics: vec![
            Metric::new("cells_per_s", cells_done as f64 / execute_s, "cells/s"),
            Metric::new("setup_s", median(setup_s), "s"),
            Metric::new("peak_rss_mib", peak, "MiB"),
        ],
    })
}

fn layer_run(grid: Grid, seed: u64, work: &Path) -> Result<Outcome, String> {
    let cfg = grid.config(seed);
    let run = layers::run(&cfg, work)?;
    print_digest(&run.cells);
    for line in &run.stage_table {
        println!("{line}");
    }
    for p in &run.problems {
        eprintln!("layer run: {p}");
    }
    let problems = checks::check_cells(grid, &cfg, &run.setup, &run.cells);
    Ok(Outcome {
        correct: run.problems.is_empty(),
        attempted: run.cells.len(),
        failed: report_problems(&problems),
        metrics: run.metrics,
    })
}

/// One cold pass and the layer run of the same seed; their cells must be
/// identical.
fn digest(grid: Grid, seed: u64, work: &Path) -> Result<(), String> {
    let cfg = grid.config(seed);
    let (cells, _) = cold_pass(&cfg, &work.join("digest"))?;
    let layered = layers::run(&cfg, work)?;
    print_digest(&cells);
    if layered.cells != cells {
        return Err("the layer run's cells differ from the orchestrator's".to_string());
    }
    println!("layer run cells are identical to the end-to-end run's");
    Ok(())
}

fn main() -> ExitCode {
    // Blowfish O2/O3 compiles emit dozens of lint warnings each; the
    // benchmark's own output is its result line.
    softerr::telemetry::set_max_level(None);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("studybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_root = PathBuf::from(".studybench-work");
    let work = work_root.join(std::process::id().to_string());
    let result = if args.digest {
        digest(args.grid, args.seed, &work).map(|()| None)
    } else if args.trace {
        layer_run(args.grid, args.seed, &work).map(Some)
    } else {
        end_to_end(args.grid, args.seed, args.seconds, &work).map(Some)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&work_root);
    match result {
        Ok(outcome) => {
            if let Some(outcome) = outcome {
                println!("{}", outcome.json());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("studybench: {e}");
            ExitCode::FAILURE
        }
    }
}
