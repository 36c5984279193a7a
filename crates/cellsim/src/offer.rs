//! The admission offer core: the one implementation of offering a
//! request to a cell, shared by [`crate::sim::Simulator`], the shards of
//! [`crate::shard::ShardedSimulator`] and the `admitd` server.
//!
//! The paper's decision is one sequential offer per request, scored
//! against the cell's current counter state.  [`offer`] is that offer —
//! `can_fit`, then `decide`, then `admit` and `on_admitted` — and
//! [`advance`] is the per-cell clock and expiry step that precedes it
//! wherever completions are not scheduled events.  Both are generic over
//! the controller, so a concrete controller is dispatched statically.
//!
//! The rest of the module is what the two simulation engines share on top
//! of that: a bank of cells with its metrics and telemetry bookkeeping,
//! arrival-request construction, handoff prediction, the outage
//! force-drop, and the pick between the four event streams.

use crate::event::{Event, EventKind, EventQueue};
use crate::fault::FaultEvent;
use crate::geometry::{CellGrid, CellIdx};
use crate::metrics::Metrics;
use crate::mobility::{spawn_uniform, UserState};
use crate::rng::SimRng;
use crate::sim::{AdmissionController, AdmissionDecision, AdmissionRequest};
use crate::slab::{Slab, SlotId};
use crate::station::{ActiveConnection, BaseStation};
use crate::telem;
use crate::traffic::{CallRequest, ServiceClass};
use crate::{Bandwidth, SimTime};
use telemetry::{CounterId, Recorder};

/// Offer `request` to `station`.
///
/// A request that does not fit is rejected with score `-1` and the
/// controller is not consulted; otherwise the controller decides, and an
/// accepted request is admitted and reported via `on_admitted`.
#[inline]
pub fn offer<C: AdmissionController + ?Sized>(
    controller: &mut C,
    station: &mut BaseStation,
    request: &AdmissionRequest,
) -> AdmissionDecision {
    if !station.can_fit(request.bandwidth) {
        return AdmissionDecision::reject(-1.0);
    }
    let decision = controller.decide(request, station);
    if decision.accept {
        station
            .admit(
                request.id,
                request.class,
                request.bandwidth,
                request.time,
                request.holding_time,
                request.is_handoff,
            )
            .expect("admission checked via can_fit");
        controller.on_admitted(request, station);
    }
    decision
}

/// Move a cell's `clock` forward to `time` (never back) and complete
/// every connection of `station` whose holding time has ended, reporting
/// each to `on_released`.  The completed connections are left in
/// `expired`.
#[inline]
pub fn advance<C: AdmissionController + ?Sized>(
    controller: &mut C,
    station: &mut BaseStation,
    clock: &mut SimTime,
    time: SimTime,
    expired: &mut Vec<ActiveConnection>,
) {
    *clock = clock.max(time);
    station.release_expired_into(*clock, expired);
    for conn in expired.iter() {
        controller.on_released(conn.id, station);
    }
}

/// One of the four event streams an engine merges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stream {
    /// The time-sorted fault plan.
    Fault,
    /// The pre-generated, time-sorted arrival buffer.
    Arrival,
    /// The computed utilisation-sampling ticks.
    Tick,
    /// Run-time events (departures and handoffs) in the event heap.
    Heap,
}

/// The stream whose next event fires first, with its time.
///
/// Ties go to the earlier stream in the order fault < arrival < tick <
/// heap: a fault changes the infrastructure before same-instant traffic,
/// and arrivals and ticks precede run-time events as in the sequence
/// numbering of the original single-heap engine.
#[inline]
pub(crate) fn next_stream(
    fault: Option<SimTime>,
    arrival: Option<SimTime>,
    tick: Option<SimTime>,
    heap: Option<SimTime>,
) -> Option<(Stream, SimTime)> {
    let before = |t: SimTime, later: Option<SimTime>| later.is_none_or(|l| t <= l);
    if let Some(f) = fault.filter(|&f| before(f, arrival) && before(f, tick) && before(f, heap)) {
        return Some((Stream::Fault, f));
    }
    if let Some(a) = arrival.filter(|&a| before(a, tick) && before(a, heap)) {
        return Some((Stream::Arrival, a));
    }
    if let Some(t) = tick.filter(|&t| before(t, heap)) {
        return Some((Stream::Tick, t));
    }
    heap.map(|h| (Stream::Heap, h))
}

/// When and where a user moving through `cell` hands off, if it leaves
/// the cell before its call ends at `departure_at`.
#[inline]
pub(crate) fn next_handoff(
    grid: &CellGrid,
    cell: CellIdx,
    user: &UserState,
    now: SimTime,
    departure_at: SimTime,
) -> Option<(SimTime, CellIdx)> {
    let cell_id = grid.cell_id(cell);
    let exit_in = user.time_to_exit(&grid.center_of(&cell_id), grid.cell_radius_m())?;
    let handoff_at = now + exit_in;
    if handoff_at >= departure_at {
        return None;
    }
    let target = grid.next_cell_along(&cell_id, user.heading_deg)?;
    let to = grid
        .index_of(&target)
        .expect("next_cell_along only returns grid cells");
    Some((handoff_at, to))
}

/// A connection on its way between two cells: already transferred out of
/// its source, waiting for the target's admission decision.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handoff {
    /// Time of the handoff.
    pub(crate) time: SimTime,
    /// The connection id.
    pub(crate) connection_id: u64,
    /// The target cell.
    pub(crate) to: CellIdx,
    /// Service class.
    pub(crate) class: ServiceClass,
    /// Reserved bandwidth (BU).
    pub(crate) bandwidth: Bandwidth,
    /// Scheduled completion time of the call.
    pub(crate) ends_at: SimTime,
    /// The user's kinematic state.
    pub(crate) user: UserState,
}

/// A contiguous range of cells — all of a [`crate::sim::Simulator`]'s, or
/// one shard's — with the state an engine keeps for them: stations, user
/// kinematics, the run-time event heap, the clock, and the metrics and
/// telemetry of every offer.
///
/// Cells are addressed by their global [`CellIdx`]; controllers are
/// passed in per call, so one controller can serve every cell or each
/// cell can have its own.
pub(crate) struct Cells<R: Recorder> {
    /// Global index of the first cell.
    start: u32,
    /// One station per cell, in cell order.
    pub(crate) stations: Vec<BaseStation>,
    /// Kinematic state of admitted users (multi-cell runs only).
    pub(crate) users: Slab<UserState>,
    /// Run-time events: departures and handoffs.
    pub(crate) queue: EventQueue,
    /// Offer, completion and drop counters of the current run.
    pub(crate) metrics: Metrics,
    /// Telemetry sink (observation-only).
    pub(crate) recorder: R,
    /// Time of the event being processed.
    pub(crate) clock: SimTime,
    /// Events processed since the last reset.
    pub(crate) events_processed: u64,
    /// Configured per-station capacity that faults are relative to.
    nominal: Bandwidth,
    /// Reused buffer for expired and outage-dropped connections.
    scratch: Vec<ActiveConnection>,
}

impl<R: Recorder> Cells<R> {
    /// Cells `start..start + len` of `grid`, each with a `capacity`-BU
    /// station.
    pub(crate) fn new(grid: &CellGrid, start: u32, len: usize, capacity: Bandwidth) -> Self {
        let mut cells = Self {
            start,
            stations: Vec::with_capacity(len),
            users: Slab::new(),
            queue: EventQueue::new(),
            metrics: Metrics::new(),
            recorder: R::for_schema(&telem::SCHEMA),
            clock: 0.0,
            events_processed: 0,
            nominal: capacity,
            scratch: Vec::new(),
        };
        cells.build_stations(grid, len, capacity);
        cells
    }

    /// Replace the stations with `len` fresh ones from `grid`, keeping
    /// the buffer.
    pub(crate) fn build_stations(&mut self, grid: &CellGrid, len: usize, capacity: Bandwidth) {
        self.stations.clear();
        self.stations
            .extend((self.start..self.start + len as u32).map(|i| {
                let cell = grid.cell_id(CellIdx(i));
                BaseStation::new(cell, grid.center_of(&cell), capacity)
            }));
    }

    /// Re-arm for a new run with `capacity`-BU stations, keeping every
    /// buffer.  The recorder is not reset: telemetry accumulates across
    /// runs.
    pub(crate) fn reset(&mut self, capacity: Bandwidth) {
        for station in &mut self.stations {
            station.reset_for_run(capacity);
        }
        self.users.clear();
        self.queue.clear();
        self.metrics.reset();
        self.clock = 0.0;
        self.events_processed = 0;
        self.nominal = capacity;
        self.scratch.clear();
    }

    /// Position of global cell `cell` within this range.
    #[inline]
    pub(crate) fn local(&self, cell: CellIdx) -> usize {
        (cell.0 - self.start) as usize
    }

    /// Move the clock to a streamed event at `time` and count it.
    #[inline]
    pub(crate) fn fire(&mut self, time: SimTime, counter: CounterId) {
        self.clock = time;
        self.events_processed += 1;
        self.recorder.add(counter, 1);
    }

    /// Pop the next run-time event, moving the clock to it.
    #[inline]
    pub(crate) fn pop_event(&mut self) -> Option<Event> {
        let event = self.queue.pop()?;
        self.clock = event.time;
        self.events_processed += 1;
        if R::ENABLED {
            // Depth *including* the popped event; gated so the disabled
            // build computes nothing here.
            let depth = self.queue.len() as u64 + 1;
            self.recorder.observe(telem::histogram::HEAP_DEPTH, depth);
            self.recorder.high_water(telem::gauge::HEAP_DEPTH, depth);
        }
        Some(event)
    }

    /// [`offer`] `request` to `cell` and record the outcome; `true` if
    /// admitted.
    #[inline]
    pub(crate) fn offer<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        cell: CellIdx,
        request: &AdmissionRequest,
    ) -> bool {
        let local = self.local(cell);
        let admitted = offer(controller, &mut self.stations[local], request).accept;
        let (class, is_handoff) = (request.class, request.is_handoff);
        self.metrics.record_offered(class, is_handoff);
        if admitted {
            self.metrics
                .record_accepted(class, request.bandwidth, is_handoff);
        } else {
            self.metrics.record_blocked(class, is_handoff);
        }
        if R::ENABLED {
            self.recorder
                .add(telem::admission_counter(class, admitted, is_handoff), 1);
        }
        admitted
    }

    /// [`advance`] the clock of `cell` to `time`, counting the completed
    /// connections.
    pub(crate) fn advance<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        cell: CellIdx,
        time: SimTime,
    ) {
        let local = self.local(cell);
        advance(
            controller,
            &mut self.stations[local],
            &mut self.clock,
            time,
            &mut self.scratch,
        );
        for conn in &self.scratch {
            self.metrics.record_completed(conn.class);
        }
    }

    /// Offer arrival `call` in `cell`.  On admission, track the user (in
    /// multi-cell grids) and schedule the call's departure and any handoff
    /// before it.
    pub(crate) fn arrive<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        grid: &CellGrid,
        rng: &SimRng,
        call: &CallRequest,
        cell: CellIdx,
    ) {
        let (request, user) = arrival_request(grid, cell, call, rng);
        if !self.offer(controller, cell, &request) {
            return;
        }
        // A single cell has no handoffs to predict, so its calls never
        // touch the slab.
        let slot = user.map(|user| self.users.insert(user));
        if R::ENABLED {
            self.recorder
                .high_water(telem::gauge::SLAB_USERS, self.users.len() as u64);
        }
        let departure_at = self.clock + call.holding_time;
        self.queue.schedule(
            departure_at,
            EventKind::Departure {
                cell,
                connection_id: call.id,
                user: slot,
            },
        );
        if let Some(slot) = slot {
            self.schedule_handoff(grid, cell, call.id, slot, departure_at);
        }
    }

    /// Schedule the handoff of the user in `slot` out of `cell`, if it
    /// leaves before `departure_at`.
    pub(crate) fn schedule_handoff(
        &mut self,
        grid: &CellGrid,
        cell: CellIdx,
        connection_id: u64,
        slot: SlotId,
        departure_at: SimTime,
    ) {
        let Some(user) = self.users.get(slot) else {
            return;
        };
        if let Some((at, to)) = next_handoff(grid, cell, user, self.clock, departure_at) {
            self.queue.schedule(
                at,
                EventKind::Handoff {
                    from: cell,
                    to,
                    connection_id,
                    user: slot,
                },
            );
        }
    }

    /// Complete `connection_id` in `cell`.  After an intervening handoff
    /// or outage the connection is gone and this is a no-op.
    pub(crate) fn depart<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        cell: CellIdx,
        connection_id: u64,
        user: Option<SlotId>,
    ) {
        let local = self.local(cell);
        if let Ok(conn) = self.stations[local].release(connection_id) {
            self.metrics.record_completed(conn.class);
            if let Some(slot) = user {
                self.users.remove(slot);
            }
            controller.on_released(connection_id, &self.stations[local]);
        }
    }

    /// Source side of a handoff at `time`: transfer `connection_id` out of
    /// `from` now and describe the admission it asks of `to`.  `None` if
    /// the connection already completed or was dropped.
    pub(crate) fn leave<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        from: CellIdx,
        to: CellIdx,
        connection_id: u64,
        slot: SlotId,
        time: SimTime,
    ) -> Option<Handoff> {
        let local = self.local(from);
        let conn = self.stations[local].transfer_out(connection_id).ok()?;
        controller.on_released(connection_id, &self.stations[local]);
        let user = *self.users.get(slot)?;
        Some(Handoff {
            time,
            connection_id,
            to,
            class: conn.class,
            bandwidth: conn.bandwidth,
            ends_at: conn.ends_at,
            user,
        })
    }

    /// Target side of a handoff: offer it to `handoff.to`, where a refusal
    /// drops the on-going call.  `true` if admitted.
    pub(crate) fn enter<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        grid: &CellGrid,
        handoff: &Handoff,
    ) -> bool {
        let cell = grid.cell_id(handoff.to);
        let center = grid.center_of(&cell);
        let request = AdmissionRequest {
            id: handoff.connection_id,
            cell,
            time: handoff.time,
            class: handoff.class,
            bandwidth: handoff.bandwidth,
            holding_time: (handoff.ends_at - handoff.time).max(0.0),
            speed_kmh: handoff.user.speed_kmh,
            angle_deg: handoff.user.angle_to_station(&center),
            distance_m: Some(handoff.user.distance_to(&center)),
            is_handoff: true,
        };
        let admitted = self.offer(controller, handoff.to, &request);
        if !admitted {
            self.metrics.record_dropped(handoff.class);
        }
        admitted
    }

    /// Apply one scheduled fault: retune the cell's capacity and, for an
    /// outage, force-drop every active connection in the station's dense
    /// connection order (counted per class and as outage drops).  The
    /// dropped users' queued events go stale and their slab slots stay
    /// allocated until the end of the run.
    pub(crate) fn apply_fault<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        fault: &FaultEvent,
    ) {
        let local = self.local(CellIdx(fault.cell));
        let station = &mut self.stations[local];
        station.set_capacity(fault.kind.capacity(self.nominal));
        if !fault.kind.drops_connections() {
            return;
        }
        station.drop_all_into(&mut self.scratch);
        for conn in &self.scratch {
            self.metrics.record_dropped(conn.class);
            self.metrics.record_dropped_by_outage();
            if R::ENABLED {
                self.recorder.add(telem::counter::OUTAGE_DROPPED, 1);
            }
            controller.on_released(conn.id, station);
        }
    }
}

/// The admission request of arrival `call` in `cell`, plus — on
/// multi-cell grids — the user's kinematics, spawned uniformly in the cell
/// and turned so the angle to the base station is the sampled one.
fn arrival_request(
    grid: &CellGrid,
    cell: CellIdx,
    call: &CallRequest,
    rng: &SimRng,
) -> (AdmissionRequest, Option<UserState>) {
    let cell_id = grid.cell_id(cell);
    let center = grid.center_of(&cell_id);
    let mut spawn_rng = rng.derive(call.id ^ 0xA11C);
    let (user, distance) = if grid.len() > 1 {
        let spawned = spawn_uniform(
            &center,
            grid.cell_radius_m(),
            (call.speed_kmh, call.speed_kmh),
            &mut spawn_rng,
        );
        let bearing = spawned.position.bearing_to(&center);
        let user = UserState::new(spawned.position, call.speed_kmh, bearing + call.angle_deg);
        (Some(user), user.distance_to(&center))
    } else {
        // Only the spawn distance is used.  Evaluate the exact prefix of
        // `spawn_uniform`'s draws and float expressions (radius, then
        // angle; the degenerate speed range draws nothing), so the
        // distance is bit-identical to the full path.
        let r = grid.cell_radius_m().max(0.0) * spawn_rng.uniform(0.0, 1.0).sqrt();
        let theta = spawn_rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);
        let pos = center.translated(r * theta.cos(), r * theta.sin());
        (None, pos.distance(&center))
    };
    (
        AdmissionRequest::from_call(call, cell_id).with_distance(distance),
        user,
    )
}
