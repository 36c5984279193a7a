//! The two admitd workloads: a request stream served by an admitd
//! `Server` over loopback, checked frame by frame against an in-process
//! `World::process` replay of the same frames.
//!
//! The stream is built once per seed.  Calls arrive on the caller's clock
//! (the frame timestamps) over the 19-cell `highway-handoff` geometry,
//! with exponential holding times, so occupancy reaches a steady state;
//! a share of the admitted calls hang up early and send a release frame.
//! Which calls were admitted comes from the replay itself, so every
//! release names a live connection.  Each rung replays a prefix of the
//! stream against a fresh server, compressing caller time so the frames
//! arrive at the rung's wall rate; the decisions therefore depend only on
//! the stream, never on the wall rate.  The server runs in a child process
//! of the benchmark ([`serve_child`]), so its memory is its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use admitd::wire::{self, AdmitFrame, ReleaseFrame, Request, Response, Status};
use admitd::{Server, ServerConfig, ServerSummary, World, WorldConfig};
use cellsim::shard::BoxedController;
use cellsim::telemetry::TelemetrySnapshot;
use cellsim::traffic::{GroupConfig, SpawnCellAssigner, TrafficModel};
use cellsim::{SimRng, TrafficGenerator};
use sweep::ControllerSpec;

use crate::env::Fnv;
use crate::loadgen::{self, Due, LoopResult};

/// Admit frames in one stream.
pub const ADMITS: usize = 200_000;
/// Mean caller-clock gap between call arrivals across the 19 cells (s).
pub const ARRIVAL_GAP_S: f64 = 0.7;
/// Mean holding time of a call (s), exponentially distributed.
pub const HOLDING_S: f64 = 240.0;
/// Share of admitted calls that hang up early and send a release frame.
pub const HANGUP_SHARE: f64 = 0.3;
/// Lock shards of the served world.
pub const LOCK_SHARDS: usize = 2;
/// Bound on the frames the server decides per read window; frames beyond
/// it are shed with overload responses.  The server's default (1024) is
/// 14 ms of traffic at the `hi` rung, and a shared 2-vCPU host can
/// deschedule the server for longer than that, so the benchmark serves with
/// a bound of 0.87 s at `hi`, far beyond any host stall seen here.
pub const MAX_PENDING: usize = 65_536;
/// The latency limit `max_rps` is searched against (µs, on the p99).
///
/// On a small shared VM the p99 at every rate carries the host's
/// scheduling stalls: probes of `admitd-groups` read 5-17 ms at rates it
/// sustains, while rates beyond its capacity read 24 ms and up (the
/// backlog grows through the probe).  The limit sits between the two, so a
/// probe fails when queueing, not the host, moves the tail.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;
/// The three fixed rungs of the rate ladder, request frames per second.
/// `admitd-groups` is the slower admitd workload, and the host this was
/// built on swings its speed by up to 1.8x: its `max_rps` read 110,762
/// req/s at seed 1, and its pipelined throughput fell to 94.5k req/s in the
/// slowest of 40 runs.  `hi` stays below that (80 %), so no host state seen
/// here overloads it, and is 68 % of that `max_rps`; `lo` and `mid` are a
/// quarter and a half of 80k.  `admitd-poisson` (`max_rps` 504,538 req/s
/// at seed 1) sits in its lightly loaded range.
pub const RUNGS: [(&str, f64); 3] = [("lo", 20_000.0), ("mid", 40_000.0), ("hi", 75_000.0)];

/// The controller both admitd workloads serve.
pub fn controller() -> ControllerSpec {
    admitd::parse_controller("facs-p-lut").expect("facs-p-lut is a known controller")
}

/// The served world's shape: the `highway-handoff` grid (19 cells of
/// 300 m, 40 BU) behind [`LOCK_SHARDS`] locks.
pub fn world_config() -> WorldConfig {
    let spec = sweep::builtin("highway-handoff").expect("highway-handoff is built in");
    WorldConfig::from_sim_config(&spec.sim_config(&controller(), 0, 0), LOCK_SHARDS)
}

/// A fresh world whose shards build their controllers through `factory`.
pub fn new_world(factory: impl FnMut() -> BoxedController) -> World {
    World::new(&world_config(), &controller().label(), factory)
}

/// Everything set-up builds before the first request is offered:
/// controllers (including the LUT tabulation), the world and the bound
/// server.
pub fn setup() -> io::Result<(Arc<World>, Server)> {
    let spec = controller();
    let world = Arc::new(new_world(|| spec.build()));
    let server = Server::bind(Arc::clone(&world), "127.0.0.1:0", server_config())?;
    Ok((world, server))
}

/// The served configuration: the defaults with [`MAX_PENDING`].
pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_pending: MAX_PENDING,
        ..ServerConfig::default()
    }
}

/// One send batch: frames that share one caller-clock instant.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Caller-clock time (s).
    pub time: f64,
    /// First frame.
    pub start: usize,
    /// One past the last frame.
    pub end: usize,
}

/// A request stream with the replay's answer to every frame.
pub struct Stream {
    /// The frames, in send order.
    pub frames: Vec<Request>,
    /// Send batches, in order, covering every frame.
    pub batches: Vec<Batch>,
    /// The in-process replay's response to each frame.
    pub expected: Vec<Response>,
    /// Every frame encoded back to back.
    pub bytes: Vec<u8>,
    /// `bytes[offsets[i]..offsets[i + 1]]` is frame `i`.
    pub offsets: Vec<usize>,
}

/// Caller-clock release time, ordered for the pending-release heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct At(f64);

impl Eq for At {}

impl PartialOrd for At {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for At {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Build the stream of one seed with `admits` admit frames: independent
/// Poisson arrivals, or correlated same-cell groups of 5-15 calls when
/// `groups` is set.
pub fn build_stream(seed: u64, groups: bool, admits: usize) -> Stream {
    let spec = sweep::builtin("highway-handoff").expect("highway-handoff is built in");
    let mut traffic = spec.traffic.clone();
    traffic.mean_interarrival_s = ARRIVAL_GAP_S;
    traffic.mean_holding_s = HOLDING_S;
    let model = if groups {
        TrafficModel::Groups(GroupConfig::new(5, 15))
    } else {
        TrafficModel::Poisson
    };
    let base = SimRng::new(seed);
    let calls = TrafficGenerator::with_model(traffic, &model, base.derive(1).seed())
        .generate_poisson(admits);
    let mut cell_rng = base.derive(2);
    let mut hangup_rng = base.derive(3);
    let mut distance_rng = base.derive(4);
    let mut assigner = SpawnCellAssigner::new(&model);
    let config = world_config();
    let cells = cellsim::CellGrid::new(config.grid_radius_cells, config.cell_radius_m).len();

    let spec_controller = controller();
    let world = new_world(|| spec_controller.build());
    let mut frames = Vec::with_capacity(admits * 5 / 4);
    let mut batches = Vec::new();
    let mut expected = Vec::with_capacity(admits * 5 / 4);
    let mut pending: BinaryHeap<Reverse<(At, u64, u32)>> = BinaryHeap::new();
    let mut group: Vec<Request> = Vec::new();
    let mut i = 0;
    while i < calls.len() {
        let time = calls[i].arrival_time;
        // Hang-ups due before this instant go first, one batch each.
        while let Some(&Reverse((At(at), id, cell))) = pending.peek() {
            if at >= time {
                break;
            }
            pending.pop();
            let start = frames.len();
            frames.push(Request::Release(ReleaseFrame { cell, id, time: at }));
            world.process(&frames[start..], &mut expected);
            batches.push(Batch {
                time: at,
                start,
                end: frames.len(),
            });
        }
        group.clear();
        while i < calls.len() && calls[i].arrival_time.to_bits() == time.to_bits() {
            let call = &calls[i];
            let cell = assigner.assign(time, cells, &mut cell_rng);
            group.push(Request::Admit(AdmitFrame {
                cell,
                id: call.id,
                class: call.class,
                is_handoff: call.is_handoff,
                bandwidth: call.bandwidth,
                time,
                holding_time: call.holding_time,
                speed_kmh: call.speed_kmh,
                angle_deg: call.angle_deg,
                distance_m: Some(distance_rng.uniform(0.0, config.cell_radius_m)),
            }));
            i += 1;
        }
        let start = frames.len();
        frames.extend_from_slice(&group);
        world.process(&group, &mut expected);
        batches.push(Batch {
            time,
            start,
            end: frames.len(),
        });
        for (k, request) in group.iter().enumerate() {
            let Request::Admit(frame) = request else {
                continue;
            };
            if expected[start + k].status == Status::Accept && hangup_rng.chance(HANGUP_SHARE) {
                let at = frame.time + frame.holding_time * hangup_rng.uniform(0.1, 0.9);
                pending.push(Reverse((At(at), frame.id, frame.cell)));
            }
        }
    }
    let mut bytes = Vec::with_capacity(frames.len() * 64);
    let mut offsets = Vec::with_capacity(frames.len() + 1);
    offsets.push(0);
    for frame in &frames {
        wire::encode_request(frame, &mut bytes);
        offsets.push(bytes.len());
    }
    Stream {
        frames,
        batches,
        expected,
        bytes,
        offsets,
    }
}

impl Stream {
    /// Digest of the replay's decision sequence (status, id, score bits).
    pub fn digest(&self) -> String {
        let mut fnv = Fnv::new();
        for r in &self.expected {
            fnv.write(&[r.status as u8]);
            fnv.write(&r.id.to_le_bytes());
            fnv.write(&r.score.to_bits().to_le_bytes());
        }
        format!("{:016x}", fnv.finish())
    }

    /// Number of admit frames.
    pub fn admits(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| matches!(f, Request::Admit(_)))
            .count()
    }

    /// Is frame `i` an admit?
    pub fn is_admit(&self, i: usize) -> bool {
        matches!(self.frames[i], Request::Admit(_))
    }

    /// Accepted admits over admits in the first `frames` frames.
    pub fn accept_ratio(&self, frames: usize) -> f64 {
        let (mut admits, mut accepts) = (0u64, 0u64);
        for (f, r) in self.frames[..frames].iter().zip(&self.expected) {
            if matches!(f, Request::Admit(_)) {
                admits += 1;
                accepts += u64::from(r.status == Status::Accept);
            }
        }
        accepts as f64 / admits.max(1) as f64
    }

    /// Admits that reached the controller (not capacity rejects, which the
    /// world answers with the score `-1` without consulting it).
    pub fn admits_past_capacity(&self) -> u64 {
        self.frames
            .iter()
            .zip(&self.expected)
            .filter(|(f, r)| {
                matches!(f, Request::Admit(_)) && !(r.status == Status::Reject && r.score == -1.0)
            })
            .count() as u64
    }

    /// Mean length of the maximal runs of consecutive same-cell admits.
    pub fn same_cell_run_mean(&self) -> f64 {
        let (mut runs, mut admits, mut last) = (0u64, 0u64, None);
        for frame in &self.frames {
            match frame {
                Request::Admit(f) => {
                    admits += 1;
                    if last != Some(f.cell) {
                        runs += 1;
                    }
                    last = Some(f.cell);
                }
                Request::Release(_) => last = None,
            }
        }
        admits as f64 / runs.max(1) as f64
    }

    /// Every batch of the first `frames` frames, all due at once: with a
    /// window, a pipelined closed loop over the stream's prefix.
    pub fn saturated(&self, frames: usize) -> Vec<Due> {
        self.batches
            .iter()
            .take_while(|b| b.end <= frames)
            .map(|b| Due {
                due_ns: 0,
                end: b.end,
            })
            .collect()
    }

    /// The send schedule of the batches due within `seconds` of wall time
    /// at `rate` frames per second: caller time is compressed uniformly so
    /// the whole stream would arrive at `rate`.
    pub fn schedule(&self, rate: f64, seconds: f64) -> Vec<Due> {
        let t0 = self.batches.first().map_or(0.0, |b| b.time);
        let span = self.batches.last().map_or(0.0, |b| b.time) - t0;
        let wall_per_caller_s = self.frames.len() as f64 / rate / span.max(f64::MIN_POSITIVE);
        self.batches
            .iter()
            .map(|b| Due {
                due_ns: ((b.time - t0) * wall_per_caller_s * 1e9) as u64,
                end: b.end,
            })
            .take_while(|d| (d.due_ns as f64) < seconds * 1e9)
            .collect()
    }
}

/// Replay every batch through a fresh world built by `factory`, returning
/// the responses and the wall time spent inside `World::process`.  For
/// each entry of `state_at` (a batch count) the world's `/state` rendering
/// after that many batches is returned too, in the same order.
pub fn replay(
    stream: &Stream,
    factory: impl FnMut() -> BoxedController,
    state_at: &[usize],
) -> (Vec<Response>, Duration, Vec<String>) {
    let world = new_world(factory);
    let mut out = Vec::with_capacity(stream.frames.len());
    let mut spent = Duration::ZERO;
    let mut states = vec![String::new(); state_at.len()];
    let mut capture = |done: usize, world: &World| {
        for (state, _) in states
            .iter_mut()
            .zip(state_at)
            .filter(|(_, &at)| at == done)
        {
            *state = render_state(world);
        }
    };
    for (k, b) in stream.batches.iter().enumerate() {
        capture(k, &world);
        let started = Instant::now();
        world.process(&stream.frames[b.start..b.end], &mut out);
        spent += started.elapsed();
    }
    capture(stream.batches.len(), &world);
    (out, spent, states)
}

/// The `/state` body the server would serve for `world`.
fn render_state(world: &World) -> String {
    serde_json::to_string_pretty(&world.state()).unwrap_or_else(|_| "{}".to_string())
}

/// What one socket run observed.
pub struct SocketRun {
    /// The generator's observations.
    pub result: LoopResult,
    /// The schedule that was replayed.
    pub schedule: Vec<Due>,
    /// The `/state` body fetched after the last response.
    pub state: String,
    /// `sent = accept + reject + overload + error` on the client side, and
    /// the server's own per-status and frame counters agree with the
    /// client's.
    pub ledger_ok: bool,
}

impl SocketRun {
    /// Frames sent.
    pub fn sent(&self) -> usize {
        self.result.sent
    }

    /// Frames the generator never got an answer for.
    pub fn missing(&self) -> usize {
        self.schedule.last().map_or(0, |d| d.end) - self.result.responses.len()
    }

    /// Responses with the given status.
    pub fn count(&self, status: Status) -> usize {
        self.result
            .responses
            .iter()
            .filter(|r| r.status == status)
            .count()
    }

    /// Seconds from the run's start to its last answer.
    pub fn answered_span_s(&self) -> f64 {
        self.result.received_ns.last().copied().unwrap_or(0).max(1) as f64 / 1e9
    }

    /// Latency from due time (µs) of every answered admit frame.
    pub fn admit_latencies_us(&self, stream: &Stream) -> Vec<f64> {
        let mut due = self.schedule.iter();
        let mut current = due.next();
        let mut out = Vec::with_capacity(self.result.received_ns.len());
        for (i, &at) in self.result.received_ns.iter().enumerate() {
            while current.is_some_and(|d| d.end <= i) {
                current = due.next();
            }
            let Some(d) = current else { break };
            if stream.is_admit(i) {
                out.push(at.saturating_sub(d.due_ns) as f64 / 1e3);
            }
        }
        out
    }

    /// Answered frames whose response differs from the replay's.
    pub fn mismatches(&self, stream: &Stream) -> usize {
        self.result
            .responses
            .iter()
            .zip(&stream.expected)
            .filter(|(got, want)| got != want)
            .count()
    }
}

fn counter(snapshot: &TelemetrySnapshot, name: &str, status: Option<&str>) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| {
            c.name == name
                && status.is_none_or(|s| c.labels.iter().any(|l| l.key == "status" && l.value == s))
        })
        .map(|c| c.value)
        .sum()
}

/// The server's own totals of one session, read after it shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Accept responses.
    pub accepted: u64,
    /// Reject responses.
    pub rejected: u64,
    /// Overload responses.
    pub overloaded: u64,
    /// Error responses.
    pub errors: u64,
    /// Request frames the world processed.
    pub frames: u64,
}

/// A server of [`serve_child`]: its world, its stop flag and its thread.
type Session = (
    Arc<World>,
    Arc<AtomicBool>,
    JoinHandle<io::Result<ServerSummary>>,
);

/// The command-line flag that turns the benchmark binary into a server
/// process (see [`serve_child`]).
pub const SERVE_CHILD_FLAG: &str = "--serve-child";

/// The server side of the socket runs, run as a child process: reads
/// commands on standard input and answers on standard output.
///
/// - `serve`: bind a fresh world and server on an ephemeral loopback port
///   and answer `addr <address>`;
/// - `stop`: shut that server down and answer `served <accepted>
///   <rejected> <overloaded> <errors> <frames>`;
/// - end of input: answer `peak_rss_mib <value>` and exit.
///
/// Serving from its own process keeps the generator's buffers and the
/// benchmark's request stream out of the server's resident memory.
pub fn serve_child() -> io::Result<()> {
    let mut out = io::stdout().lock();
    let mut session: Option<Session> = None;
    for line in io::stdin().lock().lines() {
        match (line?.trim(), session.take()) {
            ("serve", None) => {
                let (world, server) = setup()?;
                let addr = server.local_addr()?;
                let stop = server.shutdown_handle();
                session = Some((world, stop, std::thread::spawn(move || server.run())));
                writeln!(out, "addr {addr}")?;
            }
            ("stop", Some((world, stop, serving))) => {
                stop.store(true, Ordering::SeqCst);
                let summary = serving
                    .join()
                    .map_err(|_| io::Error::other("admitd server thread panicked"))??;
                let telemetry = world.telemetry();
                writeln!(
                    out,
                    "served {} {} {} {} {}",
                    summary.accepted,
                    summary.rejected,
                    summary.overloaded,
                    counter(&telemetry, "admitd_responses_total", Some("error")),
                    counter(&telemetry, "admitd_frames_total", None)
                )?;
            }
            (command, _) => {
                return Err(io::Error::other(format!("unexpected command `{command}`")));
            }
        }
        out.flush()?;
    }
    // Input ended with a server still running: the benchmark stopped early.
    if let Some((_, stop, serving)) = session {
        stop.store(true, Ordering::SeqCst);
        let _ = serving.join();
    }
    writeln!(out, "peak_rss_mib {}", crate::env::peak_rss_mib())?;
    out.flush()
}

/// A running [`serve_child`] process.  Dropping it ends the process.
pub struct ServerProcess {
    child: Child,
    commands: Option<ChildStdin>,
    answers: BufReader<ChildStdout>,
}

impl ServerProcess {
    /// Start the server process (the benchmark binary itself).
    pub fn spawn() -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(SERVE_CHILD_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let commands = child.stdin.take();
        let answers = BufReader::new(
            child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("no stdout"))?,
        );
        Ok(Self {
            child,
            commands,
            answers,
        })
    }

    /// Send `command` and return the fields of the answer, which must
    /// start with `tag`.
    fn ask(&mut self, command: Option<&str>, tag: &str) -> io::Result<Vec<String>> {
        if let Some(command) = command {
            let commands = self
                .commands
                .as_mut()
                .ok_or_else(|| io::Error::other("closed"))?;
            writeln!(commands, "{command}")?;
            commands.flush()?;
        }
        let mut line = String::new();
        self.answers.read_line(&mut line)?;
        let mut fields = line.split_whitespace().map(str::to_string);
        if fields.next().as_deref() != Some(tag) {
            return Err(io::Error::other(format!(
                "server process answered `{}`, expected `{tag}`",
                line.trim()
            )));
        }
        Ok(fields.collect())
    }

    /// Bind a fresh world and server; returns its address.
    fn serve(&mut self) -> io::Result<std::net::SocketAddr> {
        let fields = self.ask(Some("serve"), "addr")?;
        fields
            .first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other("bad server address"))
    }

    /// Stop the current server; returns its totals.
    fn stop(&mut self) -> io::Result<Served> {
        let fields = self.ask(Some("stop"), "served")?;
        let n: Vec<u64> = fields.iter().filter_map(|f| f.parse().ok()).collect();
        match n[..] {
            [accepted, rejected, overloaded, errors, frames] => Ok(Served {
                accepted,
                rejected,
                overloaded,
                errors,
                frames,
            }),
            _ => Err(io::Error::other("bad server totals")),
        }
    }

    /// End the process; returns its peak resident memory (MiB).
    pub fn finish(mut self) -> io::Result<f64> {
        drop(self.commands.take());
        let fields = self.ask(None, "peak_rss_mib")?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "server process exited with {status}"
            )));
        }
        fields
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("bad peak_rss_mib"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        drop(self.commands.take());
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Serve `schedule` over one loopback connection to a fresh server of
/// `server`, with at most `window` frames unanswered (`usize::MAX`: a pure
/// open loop).
pub fn run_socket(
    server: &mut ServerProcess,
    stream: &Stream,
    schedule: Vec<Due>,
    window: usize,
) -> io::Result<SocketRun> {
    let addr = server.serve()?;
    let outcome = (|| {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.write_all(&wire::MAGIC)?;
        // The accept loop polls every 10 ms: let it pick the connection up
        // before the schedule's clock starts.
        std::thread::sleep(Duration::from_millis(30));
        let end = schedule.last().map_or(0, |d| d.end);
        let result = loadgen::open_loop(
            &mut conn,
            &stream.bytes[..stream.offsets[end]],
            &stream.offsets,
            &schedule,
            window,
            Duration::from_secs(2),
            |_| {},
        )?;
        drop(conn);
        let state = http_get(addr, "/state")?;
        Ok::<_, io::Error>((result, state))
    })();
    let served = server.stop()?;
    let (result, state) = outcome?;
    let mut run = SocketRun {
        result,
        schedule,
        state,
        ledger_ok: false,
    };
    let (accept, reject, overload, error) = (
        run.count(Status::Accept) as u64,
        run.count(Status::Reject) as u64,
        run.count(Status::Overload) as u64,
        run.count(Status::Error) as u64,
    );
    run.ledger_ok = run.sent() as u64 == accept + reject + overload + error
        && served.accepted == accept
        && served.rejected == reject
        && served.overloaded == overload
        && served.errors == error
        && served.frames == accept + reject + error;
    Ok(run)
}

/// A minimal HTTP/1.1 GET returning the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP body"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_every_release_names_a_live_call() {
        for groups in [false, true] {
            let a = build_stream(7, groups, 3_000);
            let b = build_stream(7, groups, 3_000);
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.digest(), b.digest());
            assert_ne!(a.digest(), build_stream(8, groups, 3_000).digest());
            assert_eq!(a.admits(), 3_000);
            // Releases only ever name admitted calls, so they all succeed.
            for (frame, response) in a.frames.iter().zip(&a.expected) {
                if matches!(frame, Request::Release(_)) {
                    assert_eq!(response.status, Status::Accept);
                }
            }
            // A second replay through fresh controllers answers alike, and
            // state captures line up with the requested batch counts.
            let spec = controller();
            let n = a.batches.len();
            let (responses, _, states) = replay(&a, || spec.build(), &[n, 0, n]);
            assert_eq!(responses, a.expected);
            assert_eq!(states.len(), 3);
            assert_eq!(states[0], states[2]);
            assert!(states[1].contains("\"occupied_total\": 0"));
            assert_ne!(states[0], states[1]);
        }
    }

    #[test]
    fn the_load_is_representative_on_both_streams() {
        let poisson = build_stream(1, false, 8_000);
        let groups = build_stream(1, true, 8_000);
        for stream in [&poisson, &groups] {
            // From a quarter of the stream on (past the empty-world warm-up)
            // to its end, the accept ratio stays inside [0.3, 0.9].
            for frames in [stream.frames.len() / 4, stream.frames.len()] {
                let ratio = stream.accept_ratio(frames);
                assert!((0.3..=0.9).contains(&ratio), "accept ratio {ratio}");
            }
        }
        // Independent arrivals rarely repeat a cell; groups do by design.
        assert!(poisson.same_cell_run_mean() < 1.2);
        assert!(groups.same_cell_run_mean() > 5.0);
    }

    #[test]
    fn schedules_compress_caller_time_to_the_rate() {
        let stream = build_stream(3, false, 4_000);
        let schedule = stream.schedule(10_000.0, 0.2);
        let frames = schedule.last().expect("frames are due").end as f64;
        // 0.2 s at 10k frames/s, within Poisson noise.
        assert!((1_500.0..=2_500.0).contains(&frames), "{frames} frames");
        assert!(schedule.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }
}
