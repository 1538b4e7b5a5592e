//! Set-up: generate the grid's MiniC sources, compile every program, and
//! run each one on the ISA reference emulator for the checks.

use softerr::{Compiled, Compiler, Emulator, OptLevel, Profile, StudyConfig, Workload};
use std::time::Instant;

/// Instruction limit of a reference run; every tiny-scale workload halts
/// far below it.
const EMULATE_LIMIT: u64 = 1 << 32;

/// One compile unit: the program plus its architectural reference run.
pub struct Program {
    /// ISA profile the program was compiled for.
    pub profile: Profile,
    /// Benchmark.
    pub workload: Workload,
    /// Optimization level.
    pub level: OptLevel,
    /// The compiled program.
    pub compiled: Compiled,
    /// Instructions the emulator retired.
    pub retired: u64,
    /// Values the program emitted.
    pub output: Vec<u64>,
}

/// Every compile unit of a grid, deduplicated per (profile, workload, level).
#[derive(Default)]
pub struct Setup {
    /// Compile units in first-use plan order.
    pub programs: Vec<Program>,
}

impl Setup {
    /// The compile unit a cell runs.
    pub fn program(&self, profile: Profile, workload: Workload, level: OptLevel) -> &Program {
        self.programs
            .iter()
            .find(|p| p.profile == profile && p.workload == workload && p.level == level)
            .expect("set-up covers every cell of the grid")
    }

    /// The index of a compile unit, compiled from `source` and run on the
    /// emulator first if it is new; the two calls' wall seconds are added
    /// to `timed` as (compile, emulate).
    pub fn unit(
        &mut self,
        profile: Profile,
        workload: Workload,
        level: OptLevel,
        source: &str,
        timed: &mut (f64, f64),
    ) -> Result<usize, String> {
        if let Some(i) = self
            .programs
            .iter()
            .position(|p| p.profile == profile && p.workload == workload && p.level == level)
        {
            return Ok(i);
        }
        let t = Instant::now();
        let compiled = Compiler::new(profile, level)
            .compile(source)
            .map_err(|e| format!("{workload} at {level}: {e}"))?;
        timed.0 += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let run = Emulator::new(&compiled.program)
            .run(EMULATE_LIMIT)
            .map_err(|trap| format!("{workload} at {level}: reference run trapped: {trap:?}"))?;
        timed.1 += t.elapsed().as_secs_f64();
        if !run.completed {
            return Err(format!(
                "{workload} at {level}: reference run did not halt in {EMULATE_LIMIT} instructions"
            ));
        }
        self.programs.push(Program {
            profile,
            workload,
            level,
            compiled,
            retired: run.retired,
            output: run.output,
        });
        Ok(self.programs.len() - 1)
    }
}

/// The whole set-up of a grid.
pub fn set_up(cfg: &StudyConfig) -> Result<Setup, String> {
    let mut setup = Setup::default();
    let mut timed = (0.0, 0.0);
    for machine in &cfg.machines {
        for &workload in &cfg.workloads {
            let source = workload.source(cfg.scale);
            for &level in &cfg.levels {
                setup.unit(machine.profile, workload, level, &source, &mut timed)?;
            }
        }
    }
    Ok(setup)
}
