//! An observation-only controller wrapper, injected through the engines'
//! public controller factories.
//!
//! [`Traced`] times and counts every `decide` call and records the fuzzy
//! inputs each request actually offered, so the fuzzy layers can be timed
//! afterwards on the workload's own inputs.  It never changes a decision:
//! every call is forwarded unchanged.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cellsim::shard::BoxedController;
use cellsim::{AdmissionController, AdmissionDecision, AdmissionRequest, BaseStation};
use facs::{FacsConfig, PriorityPolicy, RequestPriority};

/// Which fuzzy cascade a controller runs, by its reported name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cascade {
    /// FACS-P: FLC1 over (speed, angle, BU), compiled FLC2.
    FacsP,
    /// FACS-P with the LUT FLC2 backend.
    FacsPLut,
    /// FACS: FLC1 over (speed, angle, distance), compiled FLC2.
    Facs,
}

impl Cascade {
    fn of(name: &str) -> Option<Self> {
        match name {
            "facs-p" => Some(Cascade::FacsP),
            "facs-p-lut" => Some(Cascade::FacsPLut),
            "facs" => Some(Cascade::Facs),
            _ => None,
        }
    }
}

/// The inputs one request offered to a fuzzy controller.
#[derive(Debug, Clone, Copy)]
pub struct FuzzyInput {
    /// The controller's cascade.
    pub cascade: Cascade,
    /// FLC1 speed input (km/h).
    pub speed_kmh: f64,
    /// FLC1 angle input (degrees).
    pub angle_deg: f64,
    /// Requested bandwidth (BU): FLC1's `Sr` for FACS-P, FLC2's `Rq`.
    pub request_bu: f64,
    /// FLC1 distance input for FACS (metres).
    pub distance_m: f64,
    /// FLC2 counter-state input `Cs` as the controller computes it.
    pub counter_state_bu: f64,
}

/// Decide-call totals of one controller label.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecideTotals {
    /// `decide` calls.
    pub calls: u64,
    /// Accepting decisions.
    pub accepts: u64,
    /// Wall time inside `decide`, nanoseconds.
    pub ns: u64,
}

impl DecideTotals {
    fn add(&mut self, other: &DecideTotals) {
        self.calls += other.calls;
        self.accepts += other.accepts;
        self.ns += other.ns;
    }
}

/// Everything the traced controllers of one run recorded.
#[derive(Debug, Default)]
pub struct LayerLog {
    /// Totals per controller name.
    pub by_label: BTreeMap<&'static str, DecideTotals>,
    /// Every fuzzy request's inputs, in flush order.
    pub inputs: Vec<FuzzyInput>,
}

impl LayerLog {
    /// Totals over every label.
    pub fn total(&self) -> DecideTotals {
        let mut total = DecideTotals::default();
        for t in self.by_label.values() {
            total.add(t);
        }
        total
    }
}

/// A shared sink the traced controllers flush into when dropped.
pub type Sink = Arc<Mutex<LayerLog>>;

/// Lock a sink; a panic elsewhere cannot leave a `LayerLog` half-updated,
/// so a poisoned lock still holds valid data.
pub fn lock(sink: &Sink) -> MutexGuard<'_, LayerLog> {
    sink.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A timing and counting wrapper around one controller instance.
pub struct Traced {
    inner: BoxedController,
    label: &'static str,
    cascade: Option<Cascade>,
    totals: DecideTotals,
    inputs: Vec<FuzzyInput>,
    sink: Sink,
}

impl Traced {
    /// Wrap `inner`, flushing into `sink` when the wrapper is dropped.
    pub fn wrap(inner: BoxedController, sink: &Sink) -> BoxedController {
        let label = inner.name();
        Box::new(Self {
            inner,
            label,
            cascade: Cascade::of(label),
            totals: DecideTotals::default(),
            inputs: Vec::new(),
            sink: Arc::clone(sink),
        })
    }
}

impl AdmissionController for Traced {
    fn name(&self) -> &'static str {
        self.label
    }

    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        if let Some(cascade) = self.cascade {
            let counter_state_bu = match cascade {
                Cascade::FacsP | Cascade::FacsPLut => PriorityPolicy::paper_default()
                    .effective_counter_state_with_request_priority(
                        station,
                        request.is_handoff,
                        RequestPriority::Normal,
                    ),
                Cascade::Facs => f64::from(station.counter_state()),
            };
            self.inputs.push(FuzzyInput {
                cascade,
                speed_kmh: request.speed_kmh,
                angle_deg: request.angle_deg,
                request_bu: f64::from(request.bandwidth),
                distance_m: request
                    .distance_m
                    .unwrap_or(FacsConfig::paper_default().default_distance_m),
                counter_state_bu,
            });
        }
        let started = Instant::now();
        let decision = self.inner.decide(request, station);
        let ns = started.elapsed().as_nanos();
        self.totals.calls += 1;
        self.totals.accepts += u64::from(decision.accept);
        self.totals.ns += u64::try_from(ns).unwrap_or(u64::MAX);
        decision
    }

    fn on_admitted(&mut self, request: &AdmissionRequest, station: &BaseStation) {
        self.inner.on_admitted(request, station);
    }

    fn on_released(&mut self, connection_id: u64, station: &BaseStation) {
        self.inner.on_released(connection_id, station);
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        let mut log = lock(&self.sink);
        log.by_label
            .entry(self.label)
            .or_default()
            .add(&self.totals);
        log.inputs.append(&mut self.inputs);
    }
}
