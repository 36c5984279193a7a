//! The two simulation workloads: the paper's own sweep and the metro-scale
//! sharded run.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cellsim::shard::BoxedController;
use cellsim::telemetry::{Registry, TelemetrySnapshot};
use cellsim::{Metrics, ShardConfig, ShardReport, ShardedSimulator, SimConfig, Simulator};
use sweep::{ControllerSpec, LoadMode, RunReport, ScenarioSpec, SweepRunner};

use crate::env::digest_str;
use crate::ledger::Ledger;
use crate::traced::{LayerLog, Sink, Traced};

/// Replications of the paper sweep per run of the workload.
pub const SWEEP_REPLICATIONS: usize = 40;
/// The metro load point the workload runs (arrivals per run).
pub const METRO_REQUESTS: usize = 600_000;
/// Spatial shards of the metro run.
pub const METRO_SHARDS: usize = 16;
/// Worker threads of the metro run.
pub const METRO_THREADS: usize = 2;

/// The paper sweep: `paper-default` with FACS-P, FACS-P-LUT, FACS and SCC.
pub fn sweep_spec(seed: u64) -> ScenarioSpec {
    sweep::builtin("paper-default")
        .expect("paper-default is built in")
        .with_controllers(vec![
            ControllerSpec::FacsP,
            ControllerSpec::FacsPLut,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
        ])
        .with_replications(SWEEP_REPLICATIONS)
        .with_base_seed(seed)
}

/// Set-up of the sweep: build the spec and one instance of every
/// controller, which pays the process-wide LUT tabulation.
pub fn sweep_setup(seed: u64) -> ScenarioSpec {
    let spec = sweep_spec(seed);
    spec.validate().expect("the built-in sweep spec is valid");
    for controller in &spec.controllers {
        drop(controller.build());
    }
    spec
}

/// Offered requests over every point of a sweep report.
pub fn sweep_offered(report: &RunReport) -> u64 {
    report
        .curves
        .iter()
        .flat_map(|c| &c.points)
        .map(|p| p.merged.offered())
        .sum()
}

/// Digest of a sweep report's canonical JSON.
pub fn sweep_digest(report: &RunReport) -> String {
    digest_str(&report.to_json())
}

/// One timed sweep run on one worker.
pub fn run_sweep(spec: &ScenarioSpec) -> (RunReport, Duration) {
    let started = Instant::now();
    let report = SweepRunner::with_threads(1)
        .run(spec)
        .expect("the built-in sweep spec runs");
    (report, started.elapsed())
}

/// The sweep's cells replayed one by one through
/// `ScenarioSpec::sim_config` and `Simulator::run_poisson`.
pub struct CellReplay {
    /// Merged metrics per `(controller, load point)`, in report order.
    pub merged: Vec<Metrics>,
    /// Events processed over every cell.
    pub events: u64,
    /// Offered requests over every cell.
    pub offered: u64,
    /// Wall time inside `run_poisson` over every cell.
    pub wall: Duration,
}

/// Replay every `(controller, load point, replication)` cell of `spec` in
/// the sweep's own order, building each controller through `wrap`.
pub fn replay_cells(
    spec: &ScenarioSpec,
    ledger: &mut Ledger,
    mut wrap: impl FnMut(BoxedController) -> BoxedController,
) -> CellReplay {
    assert!(
        matches!(spec.load_mode, LoadMode::RequestsPerWindow { .. }),
        "the paper sweep is a Poisson-window sweep"
    );
    let mut out = CellReplay {
        merged: Vec::new(),
        events: 0,
        offered: 0,
        wall: Duration::ZERO,
    };
    let mut sim: Option<Simulator> = None;
    for controller in &spec.controllers {
        for (point, &load) in spec.load_points.iter().enumerate() {
            let mut merged = Metrics::new();
            for rep in 0..spec.replications {
                let config = spec.sim_config(controller, point, rep);
                let mut boxed = wrap(controller.build());
                let sim = match &mut sim {
                    Some(sim) => {
                        sim.reset(config);
                        sim
                    }
                    None => sim.insert(Simulator::new(config)),
                };
                let started = Instant::now();
                let report = sim.run_poisson(boxed.as_mut(), load);
                let took = started.elapsed();
                drop(boxed);
                ledger.sim(
                    &format!("{} load {load} rep {rep}", controller.label()),
                    &report.metrics,
                );
                out.events += sim.events_processed();
                out.offered += report.metrics.offered();
                out.wall += took;
                merged.merge(&report.metrics);
            }
            out.merged.push(merged);
        }
    }
    out
}

/// Check a cell replay reproduces a sweep report point for point.
pub fn replay_matches(report: &RunReport, replay: &CellReplay) -> bool {
    let points: Vec<&Metrics> = report
        .curves
        .iter()
        .flat_map(|c| &c.points)
        .map(|p| &p.merged)
        .collect();
    points.len() == replay.merged.len() && points.iter().zip(&replay.merged).all(|(a, b)| *a == b)
}

/// A traced replay of the sweep's cells.
pub fn traced_replay(spec: &ScenarioSpec, ledger: &mut Ledger) -> (CellReplay, LayerLog) {
    let sink: Sink = Arc::new(Mutex::new(LayerLog::default()));
    let replay = replay_cells(spec, ledger, |c| Traced::wrap(c, &sink));
    let log = std::mem::take(&mut *crate::traced::lock(&sink));
    (replay, log)
}

/// The metro workload's configuration: the `metro` spec at its 600k load
/// point with the `threshold(0.95/1.00)` controller.
pub fn metro_config(seed: u64) -> (SimConfig, ControllerSpec) {
    let spec = sweep::builtin("metro")
        .expect("metro is built in")
        .with_base_seed(seed);
    let controller = ControllerSpec::Threshold {
        new_call: 0.95,
        handoff: 1.0,
    };
    let point = spec
        .load_points
        .iter()
        .position(|&n| n == METRO_REQUESTS)
        .expect("metro sweeps the 600k load point");
    (spec.sim_config(&controller, point, 0), controller)
}

/// The metro sharding: 16 shards on 2 threads.
pub fn metro_sharding() -> ShardConfig {
    ShardConfig::new(METRO_SHARDS).with_threads(METRO_THREADS)
}

/// Set-up of the metro run: the sharded world and one controller.
pub fn metro_setup(seed: u64) -> (ShardedSimulator, ControllerSpec) {
    let (config, controller) = metro_config(seed);
    let sim = ShardedSimulator::new(config, metro_sharding());
    drop(controller.build());
    (sim, controller)
}

/// Digest of a shard report's canonical JSON.
pub fn shard_digest(report: &ShardReport) -> String {
    digest_str(&serde_json::to_string(report).unwrap_or_default())
}

/// One untraced metro run.
pub fn run_metro(
    sim: &mut ShardedSimulator,
    controller: &ControllerSpec,
) -> (ShardReport, Duration) {
    let mut factory = || controller.build();
    let started = Instant::now();
    let report = sim.run_poisson(&mut factory, METRO_REQUESTS);
    (report, started.elapsed())
}

/// One traced metro run: the instrumented engine, every controller
/// wrapped in [`Traced`].
pub fn traced_metro(
    seed: u64,
    controller: &ControllerSpec,
) -> (ShardReport, Duration, TelemetrySnapshot, LayerLog, usize) {
    let (config, _) = metro_config(seed);
    let mut sim = ShardedSimulator::<Registry>::with_telemetry(config, metro_sharding());
    let sink: Sink = Arc::new(Mutex::new(LayerLog::default()));
    let mut factory = || Traced::wrap(controller.build(), &sink);
    let started = Instant::now();
    let report = sim.run_poisson(&mut factory, METRO_REQUESTS);
    let wall = started.elapsed();
    let telemetry = sim.telemetry();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = sim
        .sharding()
        .threads
        .min(sim.sharding().shards)
        .min(cores)
        .max(1);
    drop(sim);
    let log = std::mem::take(&mut *crate::traced::lock(&sink));
    (report, wall, telemetry, log, workers)
}

/// Total of a span series in a telemetry snapshot (ns).
pub fn span_total(snapshot: &TelemetrySnapshot, name: &str) -> (u64, u64) {
    snapshot
        .spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(total, count), s| {
            (total + s.total_ns, count + s.count)
        })
}

/// Sum and count of a histogram series in a telemetry snapshot.
pub fn histogram_total(snapshot: &TelemetrySnapshot, name: &str) -> (u64, u64) {
    snapshot
        .histograms
        .iter()
        .filter(|h| h.name == name)
        .fold((0, 0), |(sum, count), h| (sum + h.sum, count + h.count))
}
