//! Work counter of the admission offer path: every request that passes
//! `can_fit` is decided exactly once — in the server, in the sequential
//! engine and in the sharded engine alike.  A controller that counts its
//! `decide` calls and accepts everything makes the count exact: with it,
//! the offers that passed `can_fit` are precisely the accepted ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use admitd::wire::{AdmitFrame, Request, Status};
use admitd::{World, WorldConfig};
use cellsim::traffic::TrafficConfig;
use cellsim::{
    AdmissionController, AdmissionDecision, AdmissionRequest, BaseStation, BoxedController,
    ServiceClass, ShardConfig, ShardedSimulator, SimConfig, Simulator,
};

/// Accepts everything and counts `decide` calls in a shared counter.
struct Counting(Arc<AtomicU64>);

impl AdmissionController for Counting {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn decide(&mut self, _request: &AdmissionRequest, _station: &BaseStation) -> AdmissionDecision {
        self.0.fetch_add(1, Ordering::Relaxed);
        AdmissionDecision::accept(1.0)
    }
}

fn counter() -> Arc<AtomicU64> {
    Arc::new(AtomicU64::new(0))
}

fn factory(decides: &Arc<AtomicU64>) -> impl FnMut() -> BoxedController + '_ {
    move || Box::new(Counting(Arc::clone(decides)))
}

/// `n` voice admits for cell 0, all at time 0 and long-lived.
fn same_cell_admits(n: u64) -> Vec<Request> {
    (0..n)
        .map(|id| {
            Request::Admit(AdmitFrame {
                cell: 0,
                id,
                class: ServiceClass::Voice,
                is_handoff: false,
                bandwidth: 5,
                time: 0.0,
                holding_time: 600.0,
                speed_kmh: 30.0,
                angle_deg: 0.0,
                distance_m: None,
            })
        })
        .collect()
}

/// Feed `frames` through one `World::process` call; returns the accepts
/// and the `decide` calls it took.
fn serve(capacity: u32, frames: &[Request]) -> (u64, u64) {
    let decides = counter();
    let config = WorldConfig {
        station_capacity: capacity,
        ..WorldConfig::paper_default()
    };
    let world = World::new(&config, "counting", factory(&decides));
    let mut out = Vec::new();
    world.process(frames, &mut out);
    assert_eq!(out.len(), frames.len(), "one response per frame");
    let accepted = out.iter().filter(|r| r.status == Status::Accept).count() as u64;
    (accepted, decides.load(Ordering::Relaxed))
}

#[test]
fn the_server_decides_each_admit_frame_once() {
    let n = 2_000;
    let frames = same_cell_admits(n);
    // Room for every call: all n frames pass `can_fit` and are accepted,
    // so a re-decided tail (n(n+1)/2 calls) would show here.
    let (accepted, decides) = serve(1_000_000, &frames);
    assert_eq!(accepted, n);
    assert_eq!(decides, n, "one decide per admit frame");
    // The paper's 40-BU cell holds 8 voice calls; the other frames fail
    // `can_fit` and never reach the controller.
    let (accepted, decides) = serve(40, &frames);
    assert_eq!(accepted, 8);
    assert_eq!(decides, accepted, "capacity rejections are not decided");
}

fn multi_cell_config() -> SimConfig {
    SimConfig::paper_default()
        .with_seed(0xDEC1DE)
        .with_grid_radius(1)
        .with_cell_radius(300.0)
        .with_traffic(TrafficConfig {
            mean_interarrival_s: 1.0,
            mean_holding_s: 300.0,
            min_speed_kmh: 60.0,
            max_speed_kmh: 120.0,
            ..TrafficConfig::paper_default()
        })
}

#[test]
fn the_sequential_engine_decides_each_fitting_offer_once() {
    let decides = counter();
    let mut controller = Counting(Arc::clone(&decides));
    let mut sim = Simulator::new(SimConfig::paper_default().with_seed(3));
    let report = sim.run_batch(&mut controller, 200);
    assert!(report.accepted < report.offered, "the cell must fill up");
    assert_eq!(decides.swap(0, Ordering::Relaxed), report.accepted);

    let mut sim = Simulator::new(multi_cell_config());
    let report = sim.run_poisson(&mut controller, 1_500);
    assert!(report.metrics.handoffs().0 > 0, "handoffs must be offered");
    assert_eq!(decides.load(Ordering::Relaxed), report.accepted);
}

#[test]
fn the_sharded_engine_decides_each_fitting_offer_once() {
    let decides = counter();
    let mut sim = ShardedSimulator::new(multi_cell_config(), ShardConfig::new(3));
    let report = sim.run_poisson(&mut factory(&decides), 1_500);
    assert!(report.handoffs_offered > 0, "handoffs must be offered");
    assert!(report.accepted < report.offered, "cells must fill up");
    assert_eq!(decides.load(Ordering::Relaxed), report.accepted);
}
