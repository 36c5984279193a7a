//! Criterion suite over the admission hot path: one benchmark per
//! execution model (interpreted, compiled, LUT) at each layer (single
//! inference, decision, end-to-end controller `decide`).
//!
//! The `perf` bin times the same paths with plain `Instant` loops and
//! writes the `BENCH_perf.json` baseline; this suite is the interactive
//! `cargo bench -p facs-bench --bench perf` view.

use cellsim::geometry::CellId;
use cellsim::sim::{AdmissionController, AdmissionRequest};
use cellsim::station::BaseStation;
use cellsim::traffic::ServiceClass;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use facs::{FacsController, FacsPController, Flc1, Flc2};

fn request(class: ServiceClass, speed: f64, angle: f64) -> AdmissionRequest {
    AdmissionRequest {
        id: 1,
        cell: CellId::origin(),
        time: 0.0,
        class,
        bandwidth: class.paper_bandwidth(),
        holding_time: 180.0,
        speed_kmh: speed,
        angle_deg: angle,
        distance_m: Some(420.0),
        is_handoff: false,
    }
}

fn bench_inference_models(c: &mut Criterion) {
    let flc1 = Flc1::paper_default().unwrap();
    let engine = flc1.engine().clone();
    let compiled = flc1.compiled().clone();
    let mut scratch = compiled.scratch();
    let inputs = [63.0, 27.0, 5.0];

    let mut group = c.benchmark_group("inference");
    group.bench_function("interpreted (string-keyed)", |b| {
        b.iter(|| {
            engine
                .infer(black_box(&inputs))
                .unwrap()
                .crisp_or("Cv", 0.5)
        })
    });
    group.bench_function("compiled infer_into", |b| {
        b.iter(|| black_box(compiled.infer_into(black_box(&inputs), &mut scratch)[0]))
    });
    group.finish();
}

fn bench_lut_decision(c: &mut Criterion) {
    let flc2 = Flc2::paper_default().unwrap();
    let lut = flc2.compile_lut().unwrap();
    let mut group = c.benchmark_group("decision");
    group.bench_function("flc2 compiled", |b| {
        b.iter(|| black_box(flc2.decision_value(black_box(0.7), black_box(5.0), black_box(23.0))))
    });
    group.bench_function("flc2 lut", |b| {
        b.iter(|| black_box(lut.decision_value(black_box(0.7), black_box(5.0), black_box(23.0))))
    });
    group.finish();
}

fn bench_controller_decide(c: &mut Criterion) {
    let mut station = BaseStation::paper_default();
    station
        .admit(100, ServiceClass::Video, 10, 0.0, 600.0, false)
        .unwrap();
    station
        .admit(101, ServiceClass::Voice, 5, 0.0, 600.0, false)
        .unwrap();
    let req = request(ServiceClass::Voice, 72.0, 15.0);

    let mut group = c.benchmark_group("decide");
    let mut facsp = FacsPController::paper_default();
    group.bench_function("facs-p", |b| {
        b.iter(|| black_box(facsp.decide(black_box(&req), black_box(&station))))
    });
    let mut facsp_lut = FacsPController::paper_default_lut();
    group.bench_function("facs-p-lut", |b| {
        b.iter(|| black_box(facsp_lut.decide(black_box(&req), black_box(&station))))
    });
    let mut facs = FacsController::paper_default();
    group.bench_function("facs", |b| {
        b.iter(|| black_box(facs.decide(black_box(&req), black_box(&station))))
    });
    let mut scc = scc::SccAdmission::default();
    group.bench_function("scc", |b| {
        b.iter(|| black_box(scc.decide(black_box(&req), black_box(&station))))
    });
    group.finish();
}

criterion_group!(
    name = perf;
    config = Criterion::default().sample_size(50);
    targets = bench_inference_models, bench_lut_decision, bench_controller_decide
);
criterion_main!(perf);
