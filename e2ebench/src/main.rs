//! `e2ebench` — the repository benchmark.
//!
//! ```text
//! e2ebench --workload <paper-sweep|metro-shard|admitd-poisson|admitd-groups>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! breakdown (see `README.md` in this directory).  The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it repeat every
//! metric for people, together with the run's provenance and the digest of
//! its result.  Any failed correctness check makes the exit code 1.

mod env;
mod layers;
mod ledger;
mod loadgen;
mod serve;
mod sims;
mod stats;
mod traced;

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use admitd::wire::{self, Status};
use facs::Flc2Lut;

use crate::ledger::Ledger;
use crate::stats::{median, tail};
use crate::traced::{LayerLog, Traced};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "paper-sweep",
    "metro-shard",
    "admitd-poisson",
    "admitd-groups",
];

/// End-to-end metrics (name, unit), reported by every untraced run and
/// gated by `BENCHMARK.json`'s bounds.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (name, unit), reported by every traced run.  A
/// layer the workload bypasses reports 0.  The first eight are end-to-end
/// timings, measured untraced like the gated metrics but reported here:
/// the throughput moves with the host's speed by more than any bound, and
/// the simulators have no serving latency (see `README.md`).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("requests_per_s", "req/s"),
    ("admit_p50_us.lo", "us"),
    ("admit_p50_us.mid", "us"),
    ("admit_p50_us.hi", "us"),
    ("admit_p99_us.lo", "us"),
    ("admit_p99_us.mid", "us"),
    ("admit_p99_us.hi", "us"),
    ("max_rps", "req/s"),
    ("fuzzy.flc1_ns", "ns"),
    ("fuzzy.flc2_ns", "ns"),
    ("fuzzy.lut_build_s", "s"),
    ("facs.decide_ns.facs-p", "ns"),
    ("facs.decide_ns.facs-p-lut", "ns"),
    ("facs.decide_ns.facs", "ns"),
    ("scc.decide_ns", "ns"),
    ("decide.ns", "ns"),
    ("decide.share", "ratio"),
    ("decide.accept_ratio", "ratio"),
    ("cellsim.events_per_request", "count"),
    ("cellsim.event_self_ns", "ns"),
    ("shard.events_per_request", "count"),
    ("shard.event_ns", "ns"),
    ("shard.handoffs_per_request", "count"),
    ("shard.merge_share", "ratio"),
    ("shard.worker_busy_ratio", "ratio"),
    ("shard.epoch_imbalance_permille", "permille"),
    ("shard.peak_users", "count"),
    ("sweep.cell_us", "us"),
    ("sweep.residual_share", "ratio"),
    ("admitd.encode_ns", "ns"),
    ("admitd.decode_ns", "ns"),
    ("admitd.bytes_per_frame", "bytes"),
    ("admitd.process_ns", "ns"),
    ("admitd.decides_per_admit", "count"),
    ("admitd.accept_ratio", "ratio"),
    ("admitd.release_share", "ratio"),
    ("admitd.same_cell_run_mean", "count"),
    ("admitd.socket_residual_us", "us"),
    ("admitd.overload_ratio", "ratio"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead", "ratio"),
];

/// Set-up is repeated in fresh child processes (the LUT tabulation is
/// cached per process, so only a fresh process pays it again) until there
/// are at least this many samples, counting the run's own...
const SETUP_MIN_SAMPLES: usize = 3;
/// ...and either this much time went into the probes...
const SETUP_PROBE_BUDGET_S: f64 = 5.0;
/// ...or this many samples were taken.
const SETUP_MAX_SAMPLES: usize = 41;

/// Share of `--seconds` each admitd rung runs for at most.
const RUNG_SHARE: f64 = 0.15;
/// Share of `--seconds` the pipelined admitd runs take together, at least
/// [`SATURATED_MIN_RUNS`] of them.
const SATURATED_SHARE: f64 = 0.45;
const SATURATED_MIN_RUNS: usize = 3;
/// Frames a pipelined admitd run keeps unanswered, as `admitd bench` does.
const SATURATED_WINDOW: usize = 64;
/// Share of `--seconds` each `max_rps` probe runs for at most.  A probe
/// replays the stream's prefix due within that time, so above the
/// stream's frames over that time it replays the whole stream, faster.
/// A host stall delays every frame due during it, so the longer the probe,
/// the longer a stall must be to push 1 % of its frames past the limit
/// (15 ms at 1.5 s).
const PROBE_SHARE: f64 = 0.06;
/// The highest rate the `max_rps` search tries (req/s), far above what
/// one connection to either admitd workload carried here.
const PROBE_CAP: f64 = 4e6;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The metrics and operation counts of one run.
#[derive(Default)]
struct Output {
    /// Every metric of both tables, in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    digest: String,
}

impl Output {
    /// An output with every end-to-end and per-layer metric at 0.
    fn new() -> Self {
        Self {
            metrics: END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .map(|&(n, u)| (n, 0.0, u))
                .collect(),
            ..Self::default()
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        &mut self
            .metrics
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .1
    }

    /// Set a declared metric.
    fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    /// A declared metric's value.
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .1
    }

    /// Record a failed correctness check.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }

    fn ledger(&mut self, ledger: Ledger) {
        self.attempted += ledger.checks;
        for violation in ledger.violations {
            self.fail(format!("conservation: {violation}"));
        }
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Record the digest of the run's result; a second, different digest
    /// (the traced part disagreeing with the untraced one) is a failure.
    fn digest(&mut self, digest: String) {
        if !self.digest.is_empty() && self.digest != digest {
            self.fail(format!(
                "result digest {digest} differs from {}",
                self.digest
            ));
        }
        self.digest = digest;
    }

    /// The final result line, carrying the metrics of `table`.
    fn json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| table.iter().any(|t| t.0 == m.0))
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(serve::SERVE_CHILD_FLAG) {
        if let Err(e) = serve::serve_child() {
            eprintln!("e2ebench: server process: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        let started = Instant::now();
        setup(&args.workload, args.seed);
        println!("{}", started.elapsed().as_secs_f64());
        return;
    }
    let prov = env::provenance();
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host available_parallelism={} nproc={} rustc=\"{}\" commit={} source_digest={}",
        prov.available_parallelism, prov.nproc, prov.rustc, prov.commit, prov.source_digest
    );
    // The traced run first repeats the untraced measurement (its timings
    // are per-layer diagnostics), then breaks it down.
    let mut out = Output::new();
    let groups = args.workload == "admitd-groups";
    match args.workload.as_str() {
        "paper-sweep" => paper_sweep(&args, &mut out),
        "metro-shard" => metro_shard(&args, &mut out),
        _ => admitd_run(&args, &mut out, groups),
    }
    if args.trace {
        match args.workload.as_str() {
            "paper-sweep" => paper_sweep_traced(&args, &mut out),
            "metro-shard" => metro_shard_traced(&args, &mut out),
            _ => admitd_traced(&args, &mut out, groups),
        }
    }
    for i in 0..out.metrics.len() {
        if !out.metrics[i].1.is_finite() {
            let name = out.metrics[i].0;
            out.metrics[i].1 = 0.0;
            out.fail(format!("metric {name} is not a finite number"));
        }
    }
    // The result line carries the mode's table; the `#` lines also show
    // whatever else the run measured (the untraced run's timings).
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, value, unit) in &out.metrics {
        if *value != 0.0 || table.iter().any(|t| t.0 == *name) {
            println!("# {name} = {value} {unit}");
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!("# digest {}", out.digest);
    println!("# attempted {} failed {}", out.attempted.max(1), out.failed);
    println!("{}", out.json(table));
    if out.failed > 0 {
        std::process::exit(1);
    }
}

/// Run a workload's set-up and drop what it built.
fn setup(workload: &str, seed: u64) {
    match workload {
        "paper-sweep" => drop(sims::sweep_setup(seed)),
        "metro-shard" => drop(sims::metro_setup(seed)),
        _ => drop(serve::setup().expect("admitd binds a loopback port")),
    }
}

/// Work done over time taken, pooled over a run's repetitions, so the
/// rate is that of the run as a whole.
#[derive(Default)]
struct Pooled {
    work: f64,
    seconds: f64,
}

impl Pooled {
    /// Add one repetition; returns its own rate.
    fn add(&mut self, work: f64, seconds: f64) -> f64 {
        self.work += work;
        self.seconds += seconds;
        work / seconds
    }

    fn rate(&self) -> f64 {
        self.work / self.seconds
    }
}

/// Set-up time over this run's own sample and repeated set-ups in fresh
/// child processes: their interquartile mean, because single set-ups of
/// the cheap metro world fall into two clusters (~0.17 and ~0.25 ms) in
/// proportions that vary from run to run.
fn setup_seconds(args: &Args, own: f64, out: &mut Output) -> f64 {
    let mut samples = vec![own];
    if args.trace {
        // `setup_s` is not reported by the traced run.
        return own;
    }
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let started = Instant::now();
    while samples.len() < SETUP_MIN_SAMPLES
        || (started.elapsed().as_secs_f64() < SETUP_PROBE_BUDGET_S
            && samples.len() < SETUP_MAX_SAMPLES)
    {
        let probe = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .output();
        match probe
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
        {
            Some(s) => samples.push(s),
            None => {
                out.fail("a set-up probe process failed".to_string());
                break;
            }
        }
    }
    out.note(format!(
        "setup_s (interquartile mean) over {} set-ups: {samples:?}",
        samples.len()
    ));
    stats::interquartile_mean(&samples)
}

/// Time the process's first `Flc2Lut::paper_shared()`, the FLC2 LUT
/// tabulation every LUT-backed controller shares (the first step of the
/// set-up of the workloads that build one).
fn lut_build(out: &mut Output) {
    let started = Instant::now();
    drop(Flc2Lut::paper_shared());
    out.set("fuzzy.lut_build_s", started.elapsed().as_secs_f64());
}

/// Set `admit_p50_us.<rung>` and `admit_p99_us.<rung>` from `samples`,
/// the tail at the percentile chosen by the ten-beyond rule, and note it.
fn rung_latency(out: &mut Output, rung: &str, samples: &[f64]) {
    let t = tail(samples, 99.0);
    out.set(&format!("admit_p50_us.{rung}"), median(samples));
    out.set(&format!("admit_p99_us.{rung}"), t.value);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| stats::percentile_sorted(&sorted, p);
    out.note(format!(
        "rung {rung}: {} samples, p{} {:.1} (the highest percentile with {} samples beyond it); \
         p90 {:.1} p95 {:.1} p99.9 {:.1} max {:.1}",
        t.samples,
        t.percentile,
        t.value,
        stats::TAIL_MIN_BEYOND,
        at(90.0),
        at(95.0),
        at(99.9),
        at(100.0)
    ));
}

fn paper_sweep(args: &Args, out: &mut Output) {
    let started = Instant::now();
    lut_build(out);
    let spec = sims::sweep_setup(args.seed);
    let own = started.elapsed().as_secs_f64();
    let setup_s = setup_seconds(args, own, out);
    out.set("setup_s", setup_s);

    let budget = Instant::now();
    let mut rates = Vec::new();
    let mut pooled = Pooled::default();
    let mut first: Option<sweep::RunReport> = None;
    while rates.len() < 3 || budget.elapsed().as_secs_f64() < 0.8 * args.seconds {
        let (report, wall) = sims::run_sweep(&spec);
        let offered = sims::sweep_offered(&report);
        out.attempted += offered;
        rates.push(pooled.add(offered as f64, wall.as_secs_f64()));
        match &first {
            None => first = Some(report),
            Some(f) if f != &report => out.fail("two sweeps of one seed differ".to_string()),
            Some(_) => {}
        }
    }
    let report = first.expect("at least one sweep ran");
    // The cell replay puts every cell's own report through the ledger.
    let mut ledger = Ledger::default();
    if !sims::replay_matches(&report, &sims::replay_cells(&spec, &mut ledger, |c| c)) {
        out.fail("the cell replay does not reproduce the sweep report".to_string());
    }
    out.ledger(ledger);
    out.digest(sims::sweep_digest(&report));
    out.set("requests_per_s", pooled.rate());
    out.note(format!(
        "sweep rates {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.note(format!(
        "{} sweeps, {} replications each",
        rates.len(),
        spec.replications
    ));
    out.set("peak_rss_mib", env::peak_rss_mib());
}

fn paper_sweep_traced(args: &Args, out: &mut Output) {
    let spec = sims::sweep_setup(args.seed);

    let (report, _) = sims::run_sweep(&spec);
    out.digest(sims::sweep_digest(&report));
    out.attempted += sims::sweep_offered(&report);
    let started = Instant::now();
    let (instrumented, snapshot) = sweep::SweepRunner::with_threads(1)
        .run_instrumented(&spec, None)
        .expect("the built-in sweep spec runs");
    let wall_i = started.elapsed().as_nanos() as f64;
    if sims::sweep_digest(&instrumented) != out.digest {
        out.fail("the instrumented sweep changed the report".to_string());
    }
    let (cell_ns, cells) = sims::span_total(&snapshot, "sim_run_poisson_ns");
    out.set("sweep.cell_us", cell_ns as f64 / cells.max(1) as f64 / 1e3);
    out.set("sweep.residual_share", (wall_i - cell_ns as f64) / wall_i);

    // Plain and traced replays alternate, so a slow spell of the host
    // touches both; the median pass of each kind is kept.
    let mut ledger = Ledger::default();
    let mut plains = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..3 {
        plains.push(sims::replay_cells(&spec, &mut ledger, |c| c));
        traces.push(sims::traced_replay(&spec, &mut ledger));
    }
    plains.sort_by_key(|r| r.wall);
    traces.sort_by_key(|r| r.0.wall);
    let plain = plains.swap_remove(1);
    let (replay, log) = traces.swap_remove(1);
    out.ledger(ledger);
    if !sims::replay_matches(&report, &replay) || !sims::replay_matches(&report, &plain) {
        out.fail("the traced cell replay does not reproduce the sweep report".to_string());
    }
    if (plain.events, plain.offered) != (replay.events, replay.offered) {
        out.fail("event counts differ between the plain and the traced replay".to_string());
    }
    let wall = replay.wall.as_nanos() as f64;
    decide_metrics(out, &log, wall);
    out.set(
        "cellsim.events_per_request",
        replay.events as f64 / replay.offered as f64,
    );
    out.set(
        "cellsim.event_self_ns",
        (wall - log.total().ns as f64) / replay.events as f64,
    );
    out.set("trace.overhead", wall / plain.wall.as_nanos() as f64 - 1.0);
    fuzzy_metrics(out, &log);
}

/// The decide-layer metrics of a traced run whose timed section had
/// `thread_ns` of thread time (its wall time times the threads that ran
/// decides).
fn decide_metrics(out: &mut Output, log: &LayerLog, thread_ns: f64) {
    let per_call = |label: &str| {
        log.by_label
            .get(label)
            .map_or(0.0, |t| t.ns as f64 / t.calls.max(1) as f64)
    };
    for label in ["facs-p", "facs-p-lut", "facs"] {
        out.set(&format!("facs.decide_ns.{label}"), per_call(label));
    }
    out.set("scc.decide_ns", per_call("scc"));
    let total = log.total();
    out.set("decide.ns", total.ns as f64 / total.calls.max(1) as f64);
    out.set("decide.share", total.ns as f64 / thread_ns);
    out.set(
        "decide.accept_ratio",
        total.accepts as f64 / total.calls.max(1) as f64,
    );
    out.note(format!("{} decide calls traced", total.calls));
}

fn fuzzy_metrics(out: &mut Output, log: &LayerLog) {
    let (flc1, flc2) = layers::fuzzy_ns(&log.inputs);
    out.set("fuzzy.flc1_ns", flc1);
    out.set("fuzzy.flc2_ns", flc2);
    out.note(format!("{} recorded fuzzy inputs", log.inputs.len()));
}

fn metro_shard(args: &Args, out: &mut Output) {
    let started = Instant::now();
    let (mut sim, controller) = sims::metro_setup(args.seed);
    let own = started.elapsed().as_secs_f64();
    let setup_s = setup_seconds(args, own, out);
    out.set("setup_s", setup_s);

    let budget = Instant::now();
    let mut rates = Vec::new();
    let mut pooled = Pooled::default();
    let mut first: Option<cellsim::ShardReport> = None;
    let mut ledger = Ledger::default();
    while rates.len() < 2 || budget.elapsed().as_secs_f64() < 0.75 * args.seconds {
        let (report, wall) = sims::run_metro(&mut sim, &controller);
        ledger.shard("metro", &report);
        out.attempted += report.offered;
        rates.push(pooled.add(report.offered as f64, wall.as_secs_f64()));
        match &first {
            None => first = Some(report),
            Some(f) if f != &report => out.fail("two metro runs of one seed differ".to_string()),
            Some(_) => {}
        }
    }
    out.ledger(ledger);
    let report = first.expect("at least one metro run");
    out.digest(sims::shard_digest(&report));
    out.set("requests_per_s", pooled.rate());
    out.note(format!(
        "metro rates {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.note(format!(
        "{} metro runs; {} offered per run, {:.3} accepted",
        rates.len(),
        report.offered,
        report.accepted as f64 / report.offered as f64
    ));
    out.set("peak_rss_mib", env::peak_rss_mib());
}

fn metro_shard_traced(args: &Args, out: &mut Output) {
    let (mut sim, controller) = sims::metro_setup(args.seed);
    let (report, wall_u) = sims::run_metro(&mut sim, &controller);
    drop(sim);
    out.digest(sims::shard_digest(&report));
    let (traced, wall, telemetry, log, workers) = sims::traced_metro(args.seed, &controller);
    let mut ledger = Ledger::default();
    ledger.shard("metro", &report);
    ledger.shard("metro traced", &traced);
    out.ledger(ledger);
    out.attempted += report.offered + traced.offered;
    if sims::shard_digest(&traced) != out.digest {
        out.fail("the traced metro run changed the report".to_string());
    }
    // Decides run on every worker thread, so the decide share is of the
    // run's thread time, and the engine's self time is the workers' busy
    // time plus the coordinator's merges, minus the decides in them.
    let wall_ns = wall.as_nanos() as f64;
    decide_metrics(out, &log, wall_ns * workers as f64);
    let n = sims::METRO_REQUESTS as f64;
    let events = traced.events_processed as f64;
    let (merge_ns, _) = sims::span_total(&telemetry, "shard_merge_phase_ns");
    let (parallel_ns, _) = sims::span_total(&telemetry, "shard_parallel_phase_ns");
    let (busy_ns, _) = sims::histogram_total(&telemetry, "shard_epoch_ns");
    let (imbalance, epochs) = sims::histogram_total(&telemetry, "shard_epoch_imbalance_permille");
    out.set("shard.events_per_request", events / n);
    out.set(
        "shard.event_ns",
        ((busy_ns + merge_ns) as f64 - log.total().ns as f64) / events,
    );
    out.set(
        "shard.handoffs_per_request",
        traced.handoffs_offered as f64 / n,
    );
    out.set("shard.merge_share", merge_ns as f64 / wall_ns);
    out.set(
        "shard.worker_busy_ratio",
        busy_ns as f64 / (parallel_ns as f64 * workers as f64),
    );
    out.set(
        "shard.epoch_imbalance_permille",
        imbalance as f64 / epochs.max(1) as f64,
    );
    out.set("shard.peak_users", traced.peak_concurrent_users as f64);
    out.set(
        "trace.overhead",
        wall.as_secs_f64() / wall_u.as_secs_f64() - 1.0,
    );
    out.note(format!(
        "{workers} worker threads, {} epochs",
        traced.epochs
    ));
}

/// The untraced admitd workload: pipelined runs (the throughput) and the
/// three rungs (the latencies), each against a fresh server in one server
/// process.
fn admitd_run(args: &Args, out: &mut Output, groups: bool) {
    let started = Instant::now();
    lut_build(out);
    drop(serve::setup().expect("admitd binds a loopback port"));
    let own = started.elapsed().as_secs_f64();
    let setup_s = setup_seconds(args, own, out);
    out.set("setup_s", setup_s);

    let stream = serve::build_stream(args.seed, groups, serve::ADMITS);
    out.digest(stream.digest());
    let spec = serve::controller();
    let rung_s = RUNG_SHARE * args.seconds;
    let schedules: Vec<_> = serve::RUNGS
        .iter()
        .map(|&(_, rate)| stream.schedule(rate, rung_s))
        .collect();
    // The `/state` each rung and each pipelined run must leave behind.
    let mut cuts: Vec<usize> = schedules.iter().map(Vec::len).collect();
    cuts.push(stream.batches.len());
    let (responses, _, states) = serve::replay(&stream, || spec.build(), &cuts);
    if responses != stream.expected {
        out.fail("an in-process replay differs from the reference replay".to_string());
    }

    let mut server = serve::ServerProcess::spawn().expect("the server process starts");
    let mut ledger = Ledger::default();
    let mut rates = Vec::new();
    let mut pooled = Pooled::default();
    let mut pipelined_s = 0.0;
    let mut rungs = serve::RUNGS.iter().zip(schedules).enumerate();
    // Pipelined runs alternate with the rungs, so a slow spell of the host
    // touches both alike.
    loop {
        let started = Instant::now();
        let run = serve::run_socket(
            &mut server,
            &stream,
            stream.saturated(stream.frames.len()),
            SATURATED_WINDOW,
        )
        .expect("a pipelined run completes");
        pipelined_s += started.elapsed().as_secs_f64();
        check_socket_run(out, &mut ledger, &stream, &run, "pipelined");
        if run.missing() == 0 && run.state != states[serve::RUNGS.len()] {
            out.fail("pipelined run: /state differs from the replay's".to_string());
        }
        rates.push(pooled.add(run.result.responses.len() as f64, run.answered_span_s()));
        let Some((k, (&(rung, rate), schedule))) = rungs.next() else {
            if rates.len() >= SATURATED_MIN_RUNS && pipelined_s >= SATURATED_SHARE * args.seconds {
                break;
            }
            continue;
        };
        let run = serve::run_socket(&mut server, &stream, schedule, usize::MAX)
            .expect("a loopback rung completes");
        check_socket_run(out, &mut ledger, &stream, &run, rung);
        if run.missing() == 0 && run.state != states[k] {
            out.fail(format!("rung {rung}: /state differs from the replay's"));
        }
        rung_latency(out, rung, &run.admit_latencies_us(&stream));
        let lag_p99 = tail(&lag_us(&run), 99.0).value;
        if rung == "mid" {
            out.set(
                "admitd.overload_ratio",
                run.count(Status::Overload) as f64 / run.sent().max(1) as f64,
            );
            out.set("loadgen.lag_p99_us", lag_p99);
            out.set("loadgen.backlog_max", run.result.backlog_max as f64);
        }
        out.note(format!(
            "rung {rung}: {rate} req/s offered, {} frames, accept ratio {:.3}, lag p99 {lag_p99:.1} us",
            run.sent(),
            stream.accept_ratio(run.sent()),
        ));
    }
    out.ledger(ledger);
    out.set("requests_per_s", pooled.rate());
    out.note(format!(
        "pipelined rates (window {SATURATED_WINDOW}, {} frames) {:?}",
        stream.frames.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    match server.finish() {
        Ok(mib) => out.set("peak_rss_mib", mib),
        Err(e) => out.fail(format!("the server process did not end cleanly: {e}")),
    }
}

/// Latency trend check for the `max_rps` search: the median of the final
/// tenth of the frames must itself stay within the latency limit.
fn backlog_grows(latencies_us: &[f64]) -> bool {
    let tail_start = latencies_us.len() - latencies_us.len() / 10;
    median(&latencies_us[tail_start..]) > serve::LATENCY_LIMIT_US
}

fn lag_us(run: &serve::SocketRun) -> Vec<f64> {
    run.result
        .lag_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect()
}

/// Correctness of one measured socket run: every frame answered, no
/// overload or error, the decisions equal the replay's, and the ledger
/// `sent = accept + reject + overload + error` holds on both sides.
fn check_socket_run(
    out: &mut Output,
    ledger: &mut Ledger,
    stream: &serve::Stream,
    run: &serve::SocketRun,
    rung: &str,
) {
    out.attempted += run.sent() as u64;
    let bad = run.missing() + run.count(Status::Overload) + run.count(Status::Error);
    if bad > 0 {
        out.failed += bad as u64;
        out.note(format!(
            "FAILED: rung {rung}: {} missing, {} overload, {} error responses",
            run.missing(),
            run.count(Status::Overload),
            run.count(Status::Error)
        ));
    }
    let mismatches = run.mismatches(stream);
    if mismatches > 0 {
        out.fail(format!(
            "rung {rung}: {mismatches} decisions differ from the replay"
        ));
    }
    ledger.check(run.ledger_ok, || {
        format!("rung {rung}: sent != accept + reject + overload + error")
    });
}

fn admitd_traced(args: &Args, out: &mut Output, groups: bool) {
    let stream = serve::build_stream(args.seed, groups, serve::ADMITS);
    out.digest(stream.digest());
    let spec = serve::controller();
    let frames = stream.frames.len() as f64;

    // Plain and traced replays alternate, so a slow spell of the host
    // touches both; the decide count must repeat exactly across the traced
    // ones, and the median pass of each kind gives the timings.
    let mut plain = Vec::new();
    let mut traced_runs: Vec<(LayerLog, f64)> = Vec::new();
    for _ in 0..3 {
        let (responses, spent, _) = serve::replay(&stream, || spec.build(), &[]);
        if responses != stream.expected {
            out.fail("an in-process replay differs from the reference replay".to_string());
        }
        plain.push(spent.as_secs_f64());
        let sink: traced::Sink = Arc::new(std::sync::Mutex::new(LayerLog::default()));
        let (responses, spent, _) =
            serve::replay(&stream, || Traced::wrap(spec.build(), &sink), &[]);
        if responses != stream.expected {
            out.fail("the traced replay changed the decisions".to_string());
        }
        let log = std::mem::take(&mut *traced::lock(&sink));
        traced_runs.push((log, spent.as_secs_f64()));
    }
    let process_s = median(&plain);
    let process_ns = process_s * 1e9 / frames;
    out.set("admitd.process_ns", process_ns);
    let calls: Vec<u64> = traced_runs.iter().map(|r| r.0.total().calls).collect();
    if calls.windows(2).any(|w| w[0] != w[1]) {
        out.fail(format!(
            "decide counts differ between identical replays: {calls:?}"
        ));
    }
    traced_runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (log, traced_s) = traced_runs.swap_remove(1);
    decide_metrics(out, &log, traced_s * 1e9);
    out.set("trace.overhead", traced_s / process_s - 1.0);
    out.set(
        "admitd.decides_per_admit",
        log.total().calls as f64 / stream.admits_past_capacity() as f64,
    );
    fuzzy_metrics(out, &log);

    let mut buf = Vec::with_capacity(stream.bytes.len());
    let encode_ns = layers::ns_per_call(stream.frames.len(), || {
        buf.clear();
        for frame in &stream.frames {
            wire::encode_request(std::hint::black_box(frame), &mut buf);
        }
    });
    let decode_ns = layers::ns_per_call(stream.frames.len(), || {
        for w in stream.offsets.windows(2) {
            let payload = &stream.bytes[w[0] + 4..w[1]];
            std::hint::black_box(wire::decode_request(std::hint::black_box(payload)).ok());
        }
    });
    if buf != stream.bytes {
        out.fail("re-encoding the stream gave different bytes".to_string());
    }
    out.set("admitd.encode_ns", encode_ns);
    out.set("admitd.decode_ns", decode_ns);
    out.set("admitd.bytes_per_frame", stream.bytes.len() as f64 / frames);
    let admits = stream.admits() as f64;
    out.set(
        "admitd.accept_ratio",
        stream.accept_ratio(stream.frames.len()),
    );
    out.set("admitd.release_share", (frames - admits) / frames);
    out.set("admitd.same_cell_run_mean", stream.same_cell_run_mean());

    // The socket-level numbers come from the untraced rungs measured just
    // before; only the `max_rps` search is added here.
    let residual_us = out.get("admit_p50_us.mid") - (process_ns + encode_ns + decode_ns) / 1e3;
    out.set("admitd.socket_residual_us", residual_us);
    let probe_s = PROBE_SHARE * args.seconds;
    let mut server = serve::ServerProcess::spawn().expect("the server process starts");
    let mut probes = Vec::new();
    let (max_rps, n) =
        loadgen::search_max_rate(serve::RUNGS[2].1, 1_000.0, PROBE_CAP, 0.02, |rate| {
            let schedule = stream.schedule(rate, probe_s);
            let run = serve::run_socket(&mut server, &stream, schedule, usize::MAX)
                .expect("a loopback probe completes");
            out.attempted += run.sent() as u64;
            let clean = run.missing() == 0 && run.count(Status::Overload) == 0;
            if clean && (run.mismatches(&stream) > 0 || run.count(Status::Error) > 0) {
                out.fail(format!(
                    "probe at {rate:.0} req/s: decisions differ from the replay"
                ));
            }
            let lat = run.admit_latencies_us(&stream);
            let p99 = tail(&lat, 99.0).value;
            let ok = clean && p99 <= serve::LATENCY_LIMIT_US && !backlog_grows(&lat);
            probes.push(format!(
                "{rate:.0}:{}:{p99:.0}us",
                if ok { "pass" } else { "fail" }
            ));
            ok
        });
    if let Err(e) = server.finish() {
        out.fail(format!("the server process did not end cleanly: {e}"));
    }
    out.set("max_rps", max_rps);
    out.note(format!(
        "max_rps search, {n} probes of at most {probe_s} s, cap {PROBE_CAP} req/s{} (rate:verdict:p99): {}",
        if max_rps >= PROBE_CAP {
            " REACHED"
        } else {
            " not reached"
        },
        probes.join(" ")
    ));
    out.attempted += stream.frames.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn the_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let json: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let serde::Value::Object(fields) = &json else {
                panic!("not an object")
            };
            let (_, serde::Value::Array(items)) =
                fields.iter().find(|(k, _)| k == key).expect("key present")
            else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|item| {
                    let serde::Value::Object(f) = item else {
                        panic!("not an object")
                    };
                    let get = |k: &str| match f.iter().find(|(key, _)| key == k) {
                        Some((_, serde::Value::String(s))) => s.clone(),
                        _ => String::new(),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut out = Output::new();
        out.set("setup_s", 1.25);
        out.set("fuzzy.flc1_ns", 2000.5);
        out.attempted = 7;
        for (table, want) in [
            (&END_TO_END[..], "setup_s"),
            (&PER_LAYER[..], "fuzzy.flc1_ns"),
        ] {
            let json: serde::Value =
                serde_json::from_str(&out.json(table)).expect("result line parses");
            let serde::Value::Object(fields) = json else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let serde::Value::Object(metrics) = &fields[3].1 else {
                panic!("metrics is not an object")
            };
            // Exactly the table's metrics, in table order.
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|t| t.0).collect();
            assert_eq!(names, expected);
            assert!(names.contains(&want));
        }
    }
}
