//! Authoritative per-cell counter state behind sharded locks.
//!
//! The server owns one [`BaseStation`] per cell in the dense
//! [`CellIdx`](cellsim::geometry::CellIdx) layout `cellsim` uses,
//! partitioned into contiguous
//! shards each guarded by its own mutex.  Every shard also owns its
//! own controller instance (the same per-shard controller-bank
//! semantics as `cellsim::shard::ShardedSimulator`) plus a telemetry
//! registry, so concurrent connections touching different shards never
//! contend.
//!
//! # One offer per frame
//!
//! [`World::process`] takes consecutive same-cell admit frames under one
//! shard lock and offers them one at a time, in order, through the same
//! [`cellsim::offer`] core the simulation engines use: advance the cell
//! clock and release expired calls, then `can_fit`, `decide`, and on
//! accept `admit` and `on_admitted`.  Each frame is decided once, against
//! the cell's state after every earlier frame, so the answers are
//! bit-identical to the in-process engine's — which
//! `tests/determinism.rs` proves frame by frame.

use std::path::Path;
use std::sync::Mutex;

use cellsim::offer::{advance, offer};
use cellsim::{AdmissionRequest, Bandwidth, BaseStation, BoxedController, CellGrid, SimConfig};
use serde::{Deserialize, Serialize};
use telemetry::{Recorder, Registry, Stopwatch, TelemetrySnapshot};

use crate::metrics::{self, SCHEMA};
use crate::wire::{AdmitFrame, Request, Response, Status};

/// Everything needed to build a [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Hex-grid radius in cells (0 = single cell).
    pub grid_radius_cells: u32,
    /// Cell radius in metres.
    pub cell_radius_m: f64,
    /// Station capacity (BU).
    pub station_capacity: Bandwidth,
    /// Number of lock shards (clamped to `[1, cells]`).
    pub shards: usize,
}

impl WorldConfig {
    /// The paper's single 40-BU cell behind one lock.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            grid_radius_cells: 0,
            cell_radius_m: 1000.0,
            station_capacity: 40,
            shards: 1,
        }
    }

    /// Adopt the world-shaping fields of a simulator config (grid,
    /// cell radius, capacity).
    #[must_use]
    pub fn from_sim_config(config: &SimConfig, shards: usize) -> Self {
        Self {
            grid_radius_cells: config.grid_radius_cells,
            cell_radius_m: config.cell_radius_m,
            station_capacity: config.station_capacity,
            shards,
        }
    }
}

/// One lock shard: a contiguous run of stations plus its controller.
struct Shard {
    /// Dense index of the first cell in this shard.
    base: usize,
    stations: Vec<BaseStation>,
    /// Per-cell logical clocks (seconds); only move forward.
    clocks: Vec<f64>,
    controller: BoxedController,
    registry: Registry,
    /// Scratch for expired connections.
    expired: Vec<cellsim::station::ActiveConnection>,
}

impl Shard {
    /// Advance cell `local`'s clock to `time`, releasing expired calls.
    fn advance(&mut self, local: usize, time: f64) {
        advance(
            &mut *self.controller,
            &mut self.stations[local],
            &mut self.clocks[local],
            time,
            &mut self.expired,
        );
        self.registry
            .add(metrics::counter::EXPIRED, self.expired.len() as u64);
    }
}

/// Occupancy snapshot of one cell, as served by `/state`.
#[derive(Debug, Clone, Serialize)]
pub struct CellState {
    /// Axial `q` coordinate of the cell.
    pub q: i32,
    /// Axial `r` coordinate of the cell.
    pub r: i32,
    /// Occupied bandwidth (BU).
    pub occupied: Bandwidth,
    /// Station capacity (BU).
    pub capacity: Bandwidth,
    /// Live connection count.
    pub active: usize,
    /// Real-time counter (RTC) bandwidth.
    pub rtc: Bandwidth,
    /// Non-real-time counter (NRTC) bandwidth.
    pub nrtc: Bandwidth,
    /// Connections admitted over the cell's lifetime.
    pub total_admitted: u64,
    /// Connections released over the cell's lifetime.
    pub total_released: u64,
}

/// Whole-world snapshot of `/state`.
#[derive(Debug, Clone, Serialize)]
pub struct WorldState {
    /// Controller driving admissions.
    pub controller: String,
    /// Number of cells in the grid.
    pub cells: usize,
    /// Number of lock shards.
    pub shards: usize,
    /// Sum of `occupied` across cells (BU).
    pub occupied_total: u64,
    /// Sum of live connections across cells.
    pub active_total: u64,
    /// Per-cell occupancy in dense [`CellIdx`](cellsim::geometry::CellIdx)
    /// order.
    pub per_cell: Vec<CellState>,
}

/// The server's authoritative admission state.
pub struct World {
    grid: CellGrid,
    shards: Vec<Mutex<Shard>>,
    cells_per_shard: usize,
    controller_label: String,
}

impl World {
    /// Build a world whose shards each own a fresh controller from
    /// `build_controller`.
    pub fn new(
        config: &WorldConfig,
        controller_label: &str,
        mut build_controller: impl FnMut() -> BoxedController,
    ) -> Self {
        let grid = CellGrid::new(config.grid_radius_cells, config.cell_radius_m);
        let cells = grid.len();
        let shard_count = config.shards.clamp(1, cells);
        let cells_per_shard = cells.div_ceil(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        let mut base = 0usize;
        while base < cells {
            let end = (base + cells_per_shard).min(cells);
            let stations: Vec<BaseStation> = grid.cells()[base..end]
                .iter()
                .map(|&c| BaseStation::new(c, grid.center_of(&c), config.station_capacity))
                .collect();
            shards.push(Mutex::new(Shard {
                base,
                clocks: vec![0.0; stations.len()],
                stations,
                controller: build_controller(),
                registry: Registry::for_schema(&SCHEMA),
                expired: Vec::new(),
            }));
            base = end;
        }
        Self {
            grid,
            shards,
            cells_per_shard,
            controller_label: controller_label.to_string(),
        }
    }

    /// The world's cell grid.
    #[must_use]
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Label of the controller driving admissions.
    #[must_use]
    pub fn controller_label(&self) -> &str {
        &self.controller_label
    }

    fn shard_of(&self, cell: usize) -> usize {
        cell / self.cells_per_shard
    }

    /// Apply a run of request frames, appending exactly one response
    /// per frame to `out`, in order.
    ///
    /// Consecutive admit frames for the same cell are applied under one
    /// shard lock; every frame is decided once, in order.  Frames naming
    /// a cell outside the grid get [`Status::Error`] responses.
    pub fn process(&self, requests: &[Request], out: &mut Vec<Response>) {
        let mut i = 0;
        while i < requests.len() {
            match requests[i] {
                Request::Admit(first) => {
                    // Extend the group over consecutive same-cell admits.
                    let mut j = i + 1;
                    while j < requests.len() {
                        match requests[j] {
                            Request::Admit(f) if f.cell == first.cell => j += 1,
                            _ => break,
                        }
                    }
                    self.admit_group(&requests[i..j], out);
                    i = j;
                }
                Request::Release(frame) => {
                    out.push(self.release_one(frame.cell, frame.id, frame.time));
                    i += 1;
                }
            }
        }
    }

    /// Decide and apply one group of same-cell admit frames, one frame at
    /// a time, in order.
    fn admit_group(&self, group: &[Request], out: &mut Vec<Response>) {
        let cell = match group[0] {
            Request::Admit(f) => f.cell as usize,
            Request::Release(_) => unreachable!("admit_group only sees admit runs"),
        };
        if cell >= self.grid.len() {
            out.extend(group.iter().map(|r| Response::error(r.id())));
            return;
        }
        let shard = &mut *self.shards[self.shard_of(cell)].lock().expect("shard lock");
        let local = cell - shard.base;
        let watch = Stopwatch::started(true);
        let cell_id = shard.stations[local].cell();
        for request in group {
            let Request::Admit(frame) = request else {
                unreachable!("admit_group only sees admit runs");
            };
            shard.registry.add(metrics::counter::FRAMES_ADMIT, 1);
            let request = admission_request(frame, cell_id);
            shard.advance(local, request.time);
            // Idempotent replay: a client that reconnected after a lost
            // response window resends every unacknowledged frame, so an
            // id that is already admitted must answer Accept again
            // without re-admitting (or panicking on the duplicate).
            let response = if shard.stations[local].connection(request.id).is_some() {
                Response {
                    status: Status::Accept,
                    id: request.id,
                    score: 0.0,
                }
            } else {
                let decision = offer(&mut *shard.controller, &mut shard.stations[local], &request);
                Response {
                    status: if decision.accept {
                        Status::Accept
                    } else {
                        Status::Reject
                    },
                    id: request.id,
                    score: decision.score,
                }
            };
            shard
                .registry
                .add(metrics::response_counter(response.status), 1);
            out.push(response);
        }
        if let Some(ns) = watch.elapsed_ns() {
            shard.registry.span_ns(metrics::span::PROCESS, ns);
        }
    }

    /// Apply one release frame.
    fn release_one(&self, cell: u32, id: u64, time: f64) -> Response {
        let cell = cell as usize;
        if cell >= self.grid.len() {
            return Response::error(id);
        }
        let shard = &mut *self.shards[self.shard_of(cell)].lock().expect("shard lock");
        let local = cell - shard.base;
        shard.registry.add(metrics::counter::FRAMES_RELEASE, 1);
        shard.advance(local, time);
        let response = match shard.stations[local].release(id) {
            Ok(_) => {
                let Shard {
                    controller,
                    stations,
                    ..
                } = shard;
                controller.on_released(id, &stations[local]);
                Response {
                    status: Status::Accept,
                    id,
                    score: 0.0,
                }
            }
            Err(_) => Response::error(id),
        };
        let counted = if response.status == Status::Accept {
            Status::Accept
        } else {
            Status::Error
        };
        shard.registry.add(metrics::response_counter(counted), 1);
        response
    }

    /// Merge every shard's telemetry into one snapshot.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut merged = TelemetrySnapshot::default();
        for shard in &self.shards {
            let snap = shard.lock().expect("shard lock").registry.snapshot();
            merged.merge(&snap);
        }
        merged
    }

    /// Per-cell occupancy snapshot (the `/state` payload).
    #[must_use]
    pub fn state(&self) -> WorldState {
        let mut per_cell = Vec::with_capacity(self.grid.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for station in &shard.stations {
                per_cell.push(CellState {
                    q: station.cell().q,
                    r: station.cell().r,
                    occupied: station.occupied(),
                    capacity: station.capacity(),
                    active: station.active_connections(),
                    rtc: station.rtc(),
                    nrtc: station.nrtc(),
                    total_admitted: station.total_admitted(),
                    total_released: station.total_released(),
                });
            }
        }
        WorldState {
            controller: self.controller_label.clone(),
            cells: per_cell.len(),
            shards: self.shards.len(),
            occupied_total: per_cell.iter().map(|c| u64::from(c.occupied)).sum(),
            active_total: per_cell.iter().map(|c| c.active as u64).sum(),
            per_cell,
        }
    }

    /// Occupied bandwidth of one cell by dense index, if it exists.
    #[must_use]
    pub fn occupied(&self, cell: usize) -> Option<Bandwidth> {
        if cell >= self.grid.len() {
            return None;
        }
        let shard = self.shards[self.shard_of(cell)].lock().expect("shard lock");
        Some(shard.stations[cell - shard.base].occupied())
    }

    /// Release every `(cell, id)` a disconnected client left behind,
    /// at each cell's current clock.  Ids that are no longer active
    /// (already expired or explicitly released) are skipped silently.
    /// Returns the number of connections actually freed.
    pub fn release_abandoned(&self, connections: &[(u32, u64)]) -> u64 {
        let mut freed = 0;
        for &(cell, id) in connections {
            let cell = cell as usize;
            if cell >= self.grid.len() {
                continue;
            }
            let shard = &mut *self.shards[self.shard_of(cell)].lock().expect("shard lock");
            let local = cell - shard.base;
            if shard.stations[local].release(id).is_ok() {
                let Shard {
                    controller,
                    stations,
                    registry,
                    ..
                } = shard;
                controller.on_released(id, &stations[local]);
                registry.add(metrics::counter::DISCONNECT_RELEASES, 1);
                freed += 1;
            }
        }
        freed
    }

    /// Checkpoint the authoritative state: every station (active
    /// connections included) plus the per-cell clocks, in dense cell
    /// order.  Taken shard by shard under each shard's lock.
    #[must_use]
    pub fn snapshot(&self) -> WorldSnapshot {
        let mut stations = Vec::with_capacity(self.grid.len());
        let mut clocks = Vec::with_capacity(self.grid.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            stations.extend(shard.stations.iter().cloned());
            clocks.extend(shard.clocks.iter().copied());
        }
        WorldSnapshot {
            controller: self.controller_label.clone(),
            cells: stations.len(),
            stations,
            clocks,
        }
    }

    /// Install a checkpoint into this (freshly built) world: stations
    /// and clocks are restored exactly, and the per-shard controllers
    /// are re-warmed with one synthetic `on_admitted` per surviving
    /// connection.  Kinematics (speed, heading, distance) are not part
    /// of a checkpoint, so mobility-informed controller internals
    /// restart cold; the counter state every shipped controller decides
    /// against is bit-exact.  Returns the number of live connections
    /// restored.
    ///
    /// # Errors
    ///
    /// Fails without touching state when the snapshot's cell count does
    /// not match this world's grid.
    pub fn restore(&self, snapshot: &WorldSnapshot) -> Result<u64, String> {
        if snapshot.cells != self.grid.len()
            || snapshot.stations.len() != self.grid.len()
            || snapshot.clocks.len() != self.grid.len()
        {
            return Err(format!(
                "snapshot has {} cells but this world has {}",
                snapshot.stations.len(),
                self.grid.len()
            ));
        }
        let mut restored = 0;
        for shard in &self.shards {
            let shard = &mut *shard.lock().expect("shard lock");
            let base = shard.base;
            for local in 0..shard.stations.len() {
                shard.stations[local] = snapshot.stations[base + local].clone();
                shard.clocks[local] = snapshot.clocks[base + local];
                let Shard {
                    controller,
                    stations,
                    ..
                } = shard;
                let station = &stations[local];
                for conn in station.connections() {
                    controller.on_admitted(&replayed_request(conn, station), station);
                    restored += 1;
                }
            }
        }
        Ok(restored)
    }
}

/// A durable checkpoint of a [`World`]'s authoritative state, written
/// by `admitd serve --snapshot` and re-installed by `--restore`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldSnapshot {
    /// Label of the controller the world was running.
    pub controller: String,
    /// Number of cells (must match the restoring world's grid).
    pub cells: usize,
    /// Every station in dense cell order, active connections included.
    pub stations: Vec<BaseStation>,
    /// Per-cell logical clocks in dense cell order.
    pub clocks: Vec<f64>,
}

/// Serialize `world` and write it to `path` atomically (temp file in
/// the same directory, then rename), so a crash mid-write can never
/// leave a torn checkpoint behind.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn save_snapshot(world: &World, path: &Path) -> std::io::Result<()> {
    let snapshot = world.snapshot();
    let json = serde_json::to_string(&snapshot)
        .map_err(|e| std::io::Error::other(format!("cannot serialize snapshot: {e}")))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)
}

/// Read and parse a checkpoint written by [`save_snapshot`].
///
/// # Errors
///
/// Returns a message naming the path for unreadable files and parse
/// failures alike.
pub fn load_snapshot(path: &Path) -> Result<WorldSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("snapshot {} is not valid: {e}", path.display()))
}

/// The admission request re-announced to a controller for a connection
/// restored from a checkpoint.
fn replayed_request(
    conn: &cellsim::station::ActiveConnection,
    station: &BaseStation,
) -> AdmissionRequest {
    AdmissionRequest {
        id: conn.id,
        cell: station.cell(),
        time: conn.admitted_at,
        class: conn.class,
        bandwidth: conn.bandwidth,
        holding_time: conn.ends_at - conn.admitted_at,
        speed_kmh: 0.0,
        angle_deg: 0.0,
        distance_m: None,
        is_handoff: conn.was_handoff,
    }
}

/// Translate a wire frame into the engine's request type.
fn admission_request(frame: &AdmitFrame, cell: cellsim::CellId) -> AdmissionRequest {
    let mut request = AdmissionRequest {
        id: frame.id,
        cell,
        time: frame.time,
        class: frame.class,
        bandwidth: frame.bandwidth,
        holding_time: frame.holding_time,
        speed_kmh: frame.speed_kmh,
        angle_deg: frame.angle_deg,
        distance_m: None,
        is_handoff: frame.is_handoff,
    };
    if let Some(distance) = frame.distance_m {
        request = request.with_distance(distance);
    }
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::ServiceClass;
    use sweep::ControllerSpec;

    fn frame(id: u64, class: ServiceClass, time: f64, holding: f64) -> Request {
        Request::Admit(AdmitFrame {
            cell: 0,
            id,
            class,
            is_handoff: id % 3 == 0,
            bandwidth: class.paper_bandwidth(),
            time,
            holding_time: holding,
            speed_kmh: 40.0 + id as f64,
            angle_deg: (id as f64 * 37.0) % 180.0 - 90.0,
            distance_m: Some(200.0 + id as f64),
        })
    }

    fn workload(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let class = ServiceClass::ALL[(i % 3) as usize];
                frame(i, class, i as f64 * 0.25, 8.0 + (i % 5) as f64)
            })
            .collect()
    }

    /// Submitting a whole group at once (one lock) must answer exactly
    /// like submitting the same frames one by one, for every shipped
    /// controller.
    #[test]
    fn batched_processing_matches_frame_at_a_time() {
        let specs = [
            ControllerSpec::FacsP,
            ControllerSpec::FacsPLut,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
            ControllerSpec::AlwaysAccept,
            ControllerSpec::Threshold {
                new_call: 0.85,
                handoff: 0.95,
            },
        ];
        let requests = workload(160);
        for spec in specs {
            let config = WorldConfig::paper_default();
            let batched = World::new(&config, &spec.label(), || spec.build());
            let sequential = World::new(&config, &spec.label(), || spec.build());
            let mut batched_out = Vec::new();
            batched.process(&requests, &mut batched_out);
            let mut sequential_out = Vec::new();
            for request in &requests {
                sequential.process(std::slice::from_ref(request), &mut sequential_out);
            }
            assert_eq!(batched_out, sequential_out, "controller {}", spec.label());
            assert_eq!(batched.occupied(0), sequential.occupied(0));
        }
    }

    #[test]
    fn releases_free_capacity_and_unknown_ids_error() {
        let world = World::new(&WorldConfig::paper_default(), "always-accept", || {
            ControllerSpec::AlwaysAccept.build()
        });
        let mut out = Vec::new();
        world.process(&workload(4), &mut out);
        assert!(out.iter().all(|r| r.status == Status::Accept));
        let occupied = world.occupied(0).unwrap();
        assert!(occupied > 0);

        out.clear();
        world.process(
            &[Request::Release(crate::wire::ReleaseFrame {
                cell: 0,
                id: 1,
                time: 2.0,
            })],
            &mut out,
        );
        assert_eq!(out[0].status, Status::Accept);
        assert!(world.occupied(0).unwrap() < occupied);

        out.clear();
        world.process(
            &[Request::Release(crate::wire::ReleaseFrame {
                cell: 0,
                id: 999,
                time: 2.0,
            })],
            &mut out,
        );
        assert_eq!(out[0].status, Status::Error);
    }

    #[test]
    fn out_of_grid_cells_get_error_responses() {
        let world = World::new(&WorldConfig::paper_default(), "always-accept", || {
            ControllerSpec::AlwaysAccept.build()
        });
        let mut out = Vec::new();
        let mut bad = workload(1);
        if let Request::Admit(f) = &mut bad[0] {
            f.cell = 77;
        }
        world.process(&bad, &mut out);
        assert_eq!(out[0].status, Status::Error);
    }

    #[test]
    fn telemetry_snapshot_lints_clean() {
        let world = World::new(&WorldConfig::paper_default(), "FACS-P", || {
            ControllerSpec::FacsP.build()
        });
        let mut out = Vec::new();
        world.process(&workload(64), &mut out);
        telemetry::lint_prometheus(&world.telemetry().to_prometheus()).expect("clean exposition");
        let state = world.state();
        assert_eq!(state.cells, 1);
        assert_eq!(state.per_cell.len(), 1);
        assert_eq!(u64::from(state.per_cell[0].occupied), state.occupied_total);
    }
}
