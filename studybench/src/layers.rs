//! The layer run: the same cells as the end-to-end pass, driven call by
//! call through the public API with a timer around each call.
//!
//! The program's own span recorder is armed only around
//! `CampaignRun::execute`, to split it into the sample, prune and classify
//! stages; the benchmark adds no spans of its own. Every named layer time
//! below, plus `layer.residual_s`, sums to `layer.wall_s`.

use crate::grid::{machine_tag, structure_group};
use crate::setup::Setup;
use crate::{median, Metric};
use softerr::serve::{read_frame, write_frame, Request};
use softerr::{
    cell_config_hash, set_tracing, take_trace, CampaignConfig, CellKey, CellResult, Injector,
    Orchestrator, ResultStore, Sim, StopRule, Structure, StudyConfig, Trace,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Forks timed per cell on the mid-run golden simulator.
const FORKS_PER_CELL: usize = 5;

/// What the layer run produced.
pub struct LayerRun {
    /// Compile units and reference runs, made by the timed calls.
    pub setup: Setup,
    /// Cells in plan order, assembled exactly as the orchestrator does.
    pub cells: Vec<(CellKey, CellResult)>,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Per-structure stage table, for reading where `execute` spends.
    pub stage_table: Vec<String>,
    /// Problems outside any one cell (dropped spans, store or wire
    /// round trips that lost data).
    pub problems: Vec<String>,
}

#[derive(Default)]
struct Totals {
    compile_s: f64,
    emulate_s: f64,
    golden_s: f64,
    golden_cycles: u64,
    probe_s: f64,
    new_ms: BTreeMap<&'static str, Vec<f64>>,
    fork_us: BTreeMap<&'static str, Vec<f64>>,
    liveness_s: f64,
    stages: BTreeMap<Structure, Stages>,
    prefix_s: f64,
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    warm_s: f64,
    frame_s: Vec<f64>,
}

/// One structure's campaigns, summed over the grid's cells.
#[derive(Default)]
struct Stages {
    execute_s: f64,
    sample_s: f64,
    prune_s: f64,
    classify_s: f64,
    faults: u64,
    children: u64,
}

impl Totals {
    fn sum(&self, f: impl Fn(&Stages) -> f64) -> f64 {
        self.stages.values().map(f).sum()
    }

    fn group(&self, group: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(s, _)| structure_group(**s) == group)
            .map(|(_, st)| st.execute_s)
            .sum()
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Self time of every span named `name`: its duration minus its direct
/// children's, where the per-thread `campaign.worker` spans count as part
/// of their parent (the convention of `softerr::profile::stage_table`).
fn self_s(trace: &Trace, name: &str) -> f64 {
    let ns: u64 = trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let children: u64 = trace
                .spans
                .iter()
                .filter(|c| c.depth == s.depth + 1 && s.contains(c) && c.name != "campaign.worker")
                .map(|c| c.dur_ns)
                .sum();
            s.dur_ns.saturating_sub(children)
        })
        .sum();
    ns as f64 / 1e9
}

/// Runs every cell of `cfg` layer by layer. `work` is a scratch directory
/// for the result store.
pub fn run(cfg: &StudyConfig, work: &Path) -> Result<LayerRun, String> {
    let mut t = Totals::default();
    let mut problems = Vec::new();
    let mut setup = Setup::default();
    let mut cells = Vec::new();
    let campaign_cfg = CampaignConfig {
        plan: cfg.plan,
        seed: cfg.seed,
        threads: cfg.threads,
        checkpoint: cfg.checkpoint,
    };
    let needs_liveness = cfg.plan.prune.any_on() || cfg.plan.sampler.is_importance();
    // Uniform fixed-n campaigns without pruning: every sampled fault forks
    // a child, so the convoys' fault-free prefixes can be redrawn.
    let prefix_n = match cfg.plan.stop {
        StopRule::FixedN(n) if !needs_liveness => Some(n),
        _ => None,
    };
    let wall = Instant::now();
    for machine in &cfg.machines {
        let tag = machine_tag(machine);
        for &workload in &cfg.workloads {
            let source = workload.source(cfg.scale);
            for &level in &cfg.levels {
                let key = CellKey {
                    machine: machine.name.clone(),
                    workload,
                    level,
                };
                let mut timed = (t.compile_s, t.emulate_s);
                let unit = setup.unit(machine.profile, workload, level, &source, &mut timed)?;
                (t.compile_s, t.emulate_s) = timed;
                let compiled = &setup.programs[unit].compiled;

                let c = Instant::now();
                let injector = Injector::new(machine, &compiled.program)
                    .map_err(|e| format!("{key}: golden run failed: {e}"))?;
                let golden_s = secs(c);
                t.golden_s += golden_s;
                let golden_cycles = injector.golden().cycles;
                t.golden_cycles += golden_cycles;

                // Simulator probes: one construction, then forks of a
                // golden simulator stopped half way through the program.
                let probe = Instant::now();
                let c = Instant::now();
                let mut sim = Sim::new(machine, &compiled.program);
                t.new_ms.entry(tag).or_default().push(secs(c) * 1e3);
                let _ = sim.run_to_cycle(golden_cycles / 2);
                for _ in 0..FORKS_PER_CELL {
                    let c = Instant::now();
                    let child = std::hint::black_box(sim.fork());
                    t.fork_us.entry(tag).or_default().push(secs(c) * 1e6);
                    drop(child);
                }
                drop(sim);
                t.probe_s += secs(probe);

                if needs_liveness {
                    let c = Instant::now();
                    std::hint::black_box(injector.liveness());
                    t.liveness_s += secs(c);
                }

                let mut campaigns = Vec::with_capacity(cfg.structures.len());
                for &s in &cfg.structures {
                    set_tracing(true);
                    let c = Instant::now();
                    let out = injector.run(s, &campaign_cfg).execute();
                    let dt = secs(c);
                    let trace = take_trace();
                    if trace.dropped > 0 {
                        problems.push(format!(
                            "{key}/{}: the span recorder dropped {} spans",
                            s.name(),
                            trace.dropped
                        ));
                    }
                    let st = t.stages.entry(s).or_default();
                    st.execute_s += dt;
                    st.sample_s += self_s(&trace, "campaign.sample");
                    st.prune_s += self_s(&trace, "campaign.prune");
                    st.classify_s += self_s(&trace, "campaign.classify");
                    st.faults += out.result.total();
                    st.children += out.simulated;
                    if let Some(n) = prefix_n {
                        // A convoy advances its golden simulator from cycle
                        // 0 to its last fault: the fault-free prefix, at the
                        // cell's measured golden rate.
                        let last = injector
                            .sample_faults(s, n, cfg.seed)
                            .iter()
                            .map(|f| f.cycle)
                            .max()
                            .unwrap_or(0);
                        t.prefix_s += last as f64 / golden_cycles.max(1) as f64 * golden_s;
                    }
                    campaigns.push(out.result);
                }
                let golden = injector.golden();
                cells.push((
                    key,
                    CellResult {
                        golden_cycles: golden.cycles,
                        golden_retired: golden.retired,
                        code_words: compiled.stats.code_words as u64,
                        campaigns,
                    },
                ));
            }
        }
    }

    // Store: save every cell, load it back, then let the orchestrator
    // serve the whole grid from the populated store.
    let store_root = work.join("layer-store");
    let store = ResultStore::open(&store_root).map_err(|e| e.to_string())?;
    let hashes: Vec<String> = cells
        .iter()
        .map(|(key, _)| {
            let machine = cfg
                .machines
                .iter()
                .find(|m| m.name == key.machine)
                .expect("cell keys name configured machines");
            cell_config_hash(cfg, machine, key.workload, key.level)
        })
        .collect();
    for ((key, cell), hash) in cells.iter().zip(&hashes) {
        let c = Instant::now();
        store.save(hash, key, cell).map_err(|e| e.to_string())?;
        t.save_s.push(secs(c));
    }
    for ((key, cell), hash) in cells.iter().zip(&hashes) {
        let c = Instant::now();
        let loaded = store.load(hash, key);
        t.load_s.push(secs(c));
        if loaded.as_ref() != Some(cell) {
            problems.push(format!(
                "{key}: the result store did not return the saved cell"
            ));
        }
    }
    let warm = Orchestrator::new(cfg.clone())
        .cell_workers(1)
        .store(ResultStore::open(&store_root).map_err(|e| e.to_string())?);
    let c = Instant::now();
    let report = warm.execute(&|_| {}).map_err(|e| e.to_string())?;
    t.warm_s = secs(c);
    if report.executed != 0 || report.results.cells != cells {
        problems.push(format!(
            "warm sweep executed {} cells or served different results",
            report.executed
        ));
    }

    // Wire: each cell's submission through one frame round trip.
    for (lease, ((key, cell), hash)) in cells.iter().zip(&hashes).enumerate() {
        let submit = Request::Submit {
            lease: lease as u64,
            hash: hash.clone(),
            key: key.clone(),
            result: cell.clone(),
        };
        let mut buf = Vec::new();
        let c = Instant::now();
        write_frame(&mut buf, &submit).map_err(|e| e.to_string())?;
        let back: Request = read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?;
        t.frame_s.push(secs(c));
        if back != submit {
            problems.push(format!("{key}: a Submit frame did not round-trip"));
        }
    }
    let wall_s = secs(wall);

    Ok(LayerRun {
        setup,
        cells,
        metrics: metrics(&t, wall_s),
        stage_table: stage_table(&t),
        problems,
    })
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn metrics(t: &Totals, wall_s: f64) -> Vec<Metric> {
    let execute_s = t.sum(|st| st.execute_s);
    let classify_s = t.sum(|st| st.classify_s);
    let faults = t.sum(|st| st.faults as f64);
    let children = t.sum(|st| st.children as f64);
    let per_tag = |m: &BTreeMap<&'static str, Vec<f64>>, tag: &str| {
        median(m.get(tag).cloned().unwrap_or_default())
    };
    let save: f64 = t.save_s.iter().sum();
    let load: f64 = t.load_s.iter().sum();
    let frames: f64 = t.frame_s.iter().sum();
    let accounted = t.compile_s
        + t.emulate_s
        + t.golden_s
        + t.probe_s
        + t.liveness_s
        + execute_s
        + save
        + load
        + t.warm_s
        + frames;
    vec![
        Metric::new("cc.compile_s", t.compile_s, "s"),
        Metric::new("isa.emulate_s", t.emulate_s, "s"),
        Metric::new("sim.golden_s", t.golden_s, "s"),
        Metric::new(
            "sim.golden_mcycles_per_s",
            t.golden_cycles as f64 / t.golden_s / 1e6,
            "Mcycles/s",
        ),
        Metric::new("sim.new_ms.a15", per_tag(&t.new_ms, "a15"), "ms"),
        Metric::new("sim.new_ms.a72", per_tag(&t.new_ms, "a72"), "ms"),
        Metric::new("sim.fork_us.a15", per_tag(&t.fork_us, "a15"), "us"),
        Metric::new("sim.fork_us.a72", per_tag(&t.fork_us, "a72"), "us"),
        Metric::new("sim.probe_s", t.probe_s, "s"),
        Metric::new("sim.liveness_s", t.liveness_s, "s"),
        Metric::new("inject.execute_s", execute_s, "s"),
        Metric::new("inject.execute_s.cache", t.group("cache"), "s"),
        Metric::new("inject.execute_s.rf", t.group("rf"), "s"),
        Metric::new("inject.execute_s.queue", t.group("queue"), "s"),
        Metric::new("inject.execute_s.rob", t.group("rob"), "s"),
        Metric::new("inject.sample_s", t.sum(|st| st.sample_s), "s"),
        Metric::new("inject.prune_s", t.sum(|st| st.prune_s), "s"),
        Metric::new("inject.classify_s", classify_s, "s"),
        Metric::new("inject.children", children, "count"),
        Metric::new(
            "inject.pruned_share",
            (faults - children) / faults.max(1.0),
            "ratio",
        ),
        Metric::new("inject.children_per_s", children / classify_s, "1/s"),
        Metric::new("store.save_ms", mean(&t.save_s) * 1e3, "ms"),
        Metric::new("store.load_ms", mean(&t.load_s) * 1e3, "ms"),
        Metric::new("sched.warm_s", t.warm_s, "s"),
        Metric::new("serve.frame_ms", mean(&t.frame_s) * 1e3, "ms"),
        Metric::new("layer.wall_s", wall_s, "s"),
        Metric::new("layer.residual_s", wall_s - accounted, "s"),
    ]
}

/// Where `execute` spent, per structure: wall seconds and share of all
/// campaign time, then the sample / prune / classify self times and the
/// faults and child simulations behind them.
fn stage_table(t: &Totals) -> Vec<String> {
    let total = t.sum(|st| st.execute_s);
    let mut lines = vec![format!(
        "{:10} {:>9} {:>6} {:>9} {:>9} {:>9} {:>7} {:>8}",
        "structure", "execute_s", "share", "sample_s", "prune_s", "classify", "faults", "children"
    )];
    for (s, st) in &t.stages {
        lines.push(format!(
            "{:10} {:9.3} {:5.1}% {:9.3} {:9.3} {:9.3} {:7} {:8}",
            s.name(),
            st.execute_s,
            100.0 * st.execute_s / total,
            st.sample_s,
            st.prune_s,
            st.classify_s,
            st.faults,
            st.children
        ));
    }
    if t.prefix_s > 0.0 {
        let classify = t.sum(|st| st.classify_s);
        lines.push(format!(
            "fault-free prefixes re-run by the convoys, estimated (last fault's cycle \
             / golden cycles x the Injector::new time, not timed): ~{:.3} s \
             ({:.1}% of classify)",
            t.prefix_s,
            100.0 * t.prefix_s / classify
        ));
    }
    lines
}
