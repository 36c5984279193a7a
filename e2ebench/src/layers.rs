//! Timings of single layers on the inputs a workload actually offered.

use std::hint::black_box;
use std::time::Instant;

use facs::{DistanceFlc1, Flc1, Flc2, Flc2Lut};

use crate::stats::median;
use crate::traced::{Cascade, FuzzyInput};

/// Passes over the recorded inputs; the median pass is reported.
const PASSES: usize = 3;

/// Mean nanoseconds per call of `f` over `n` calls, median of
/// [`PASSES`] passes.
pub fn ns_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&passes)
}

/// Nanoseconds per FLC1 correction and per FLC2 decision over every
/// recorded input, each on the cascade's own engines: `(Sp, An, Sr)` FLC1
/// for FACS-P, `(Sp, An, Di)` FLC1 for FACS, the compiled FLC2 or the LUT
/// backend as the controller runs it.  `(0, 0)` when the workload offered
/// no fuzzy decisions.
pub fn fuzzy_ns(inputs: &[FuzzyInput]) -> (f64, f64) {
    if inputs.is_empty() {
        return (0.0, 0.0);
    }
    let flc1 = Flc1::paper_default().expect("paper FLC1 parameters are valid");
    let distance_flc1 = DistanceFlc1::paper_default().expect("paper FLC1 parameters are valid");
    let flc2 = Flc2::paper_default().expect("paper FLC2 parameters are valid");
    let lut = Flc2Lut::paper_shared();
    let correction = |input: &FuzzyInput| match input.cascade {
        Cascade::FacsP | Cascade::FacsPLut => {
            flc1.correction_value(input.speed_kmh, input.angle_deg, input.request_bu)
        }
        Cascade::Facs => {
            distance_flc1.correction_value(input.speed_kmh, input.angle_deg, input.distance_m)
        }
    };
    let flc1_ns = ns_per_call(inputs.len(), || {
        for input in inputs {
            black_box(correction(black_box(input)));
        }
    });
    let cvs: Vec<f64> = inputs.iter().map(correction).collect();
    let flc2_ns = ns_per_call(inputs.len(), || {
        for (input, &cv) in inputs.iter().zip(&cvs) {
            let score = match input.cascade {
                Cascade::FacsPLut => {
                    lut.decision_value(black_box(cv), input.request_bu, input.counter_state_bu)
                }
                Cascade::FacsP | Cascade::Facs => {
                    flc2.decision_value(black_box(cv), input.request_bu, input.counter_state_bu)
                }
            };
            black_box(score);
        }
    });
    (flc1_ns, flc2_ns)
}
