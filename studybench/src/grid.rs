//! The three benchmark workloads: which study grid each one runs, under
//! which sampling plan, and which of its cells the oracle re-derives.

use softerr::{
    CellKey, MachineConfig, OptLevel, PruneMode, SamplerKind, SamplingPlan, Structure, StudyConfig,
    Workload,
};

/// Faults per campaign on `grid_uniform`: the n `repro` runs by default.
pub const UNIFORM_N: u64 = 16;
/// Faults per campaign on `grid_pruned`.
pub const PRUNED_N: u64 = 16;
/// Target 99% margin on `grid_importance` (the margin `repro sampling` uses).
pub const IMPORTANCE_MARGIN: f64 = 0.08;
/// Sample-growth batch on `grid_importance`.
pub const IMPORTANCE_BATCH: u64 = 16;

/// One benchmark workload: a study grid plus its sampling plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The paper's method at `repro`'s n on the 8 quick cells: uniform,
    /// fixed n, no pruning. Convoy classification dominates.
    Uniform,
    /// The same 64 cells with liveness and static-demand pruning on, so the
    /// liveness run and the prune filter carry a real share.
    Pruned,
    /// The 8 quick cells under importance sampling to a margin target, so
    /// rejection sampling dominates and the adaptive stop path runs.
    Importance,
}

impl Grid {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Grid; 3] = [Grid::Uniform, Grid::Pruned, Grid::Importance];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Grid::Uniform => "grid_uniform",
            Grid::Pruned => "grid_pruned",
            Grid::Importance => "grid_importance",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Grid> {
        Grid::ALL.into_iter().find(|g| g.name() == name)
    }

    /// The study this workload runs for one `--seed`: one campaign thread,
    /// golden-prefix checkpointing on, as `repro` runs it.
    pub fn config(self, seed: u64) -> StudyConfig {
        let base = |cells: StudyConfig| StudyConfig {
            seed,
            threads: 1,
            checkpoint: true,
            ..cells
        };
        match self {
            Grid::Uniform => StudyConfig {
                plan: SamplingPlan::fixed(UNIFORM_N),
                ..base(StudyConfig::quick(seed))
            },
            Grid::Pruned => StudyConfig {
                plan: SamplingPlan::fixed(PRUNED_N)
                    .prune(PruneMode::On)
                    .prune_static(PruneMode::On),
                ..base(StudyConfig::default())
            },
            Grid::Importance => StudyConfig {
                plan: SamplingPlan::adaptive(IMPORTANCE_MARGIN, IMPORTANCE_BATCH)
                    .sampler(SamplerKind::Importance),
                ..base(StudyConfig::quick(seed))
            },
        }
    }

    /// Structures whose campaigns the oracle re-runs fault by fault on the
    /// oracle cells. The fresh path re-simulates from cycle 0 per fault, so
    /// each fixed-n grid takes a cache array, the register file and a ROB
    /// field (on `grid_pruned`, where pruning settles the most faults);
    /// `grid_importance` skips `l2.data`, whose redraw alone is seconds of
    /// rejection sampling.
    pub fn oracle_structures(self) -> Vec<Structure> {
        match self {
            Grid::Uniform | Grid::Pruned => {
                vec![Structure::L1DData, Structure::RegFile, Structure::RobPc]
            }
            Grid::Importance => vec![Structure::L1DTag, Structure::RegFile],
        }
    }
}

/// The cells the oracle cross-checks: one per paper machine, each present
/// in all three grids.
pub fn is_oracle_cell(key: &CellKey) -> bool {
    let a15 = MachineConfig::cortex_a15().name;
    let a72 = MachineConfig::cortex_a72().name;
    (key.machine == a15 && key.workload == Workload::Qsort && key.level == OptLevel::O2)
        || (key.machine == a72 && key.workload == Workload::Sha && key.level == OptLevel::O2)
}

/// Short machine tag used in metric names (`a15`, `a72`).
pub fn machine_tag(machine: &MachineConfig) -> &'static str {
    if machine.name == MachineConfig::cortex_a72().name {
        "a72"
    } else {
        "a15"
    }
}

/// The per-layer group a structure's campaign time is booked under.
pub fn structure_group(s: Structure) -> &'static str {
    match s {
        Structure::L1IData
        | Structure::L1ITag
        | Structure::L1DData
        | Structure::L1DTag
        | Structure::L2Data
        | Structure::L2Tag => "cache",
        Structure::RegFile => "rf",
        Structure::LoadQueue | Structure::StoreQueue | Structure::IqSrc | Structure::IqDest => {
            "queue"
        }
        Structure::RobPc | Structure::RobDest | Structure::RobSeq | Structure::RobFlags => "rob",
    }
}
