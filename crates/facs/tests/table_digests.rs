//! Pinned digests of the FACS-P tables: any moved output bit fails here.
//!
//! The compiled kernel and the `Flc2Lut` tabulation are performance
//! sensitive and promise bit-identical results across optimisations.  The
//! equivalence suites compare compiled against interpreted at a few
//! hundred thousand points; these digests pin the *published* numbers
//! themselves — every lookup of the shared paper-default table on a dense
//! lattice, its measured error bound, its refinement shape and its size,
//! plus compiled FLC1 over a dense (speed, angle) lattice per class.  The
//! constants were recorded from the implementation before the active-rule
//! kernel and must never need regenerating for a pure speed change.
//!
//! Only the public API is used.

use facs::{
    Flc1, Flc2, Flc2Lut, DEFAULT_LUT_BASE_RESOLUTION, DEFAULT_LUT_MAX_PATCH_NODES,
    DEFAULT_LUT_TARGET_ERROR,
};
use fuzzy::Lut2d;

/// The paper's request classes (text, voice, video), in BU.
const CLASSES: [f64; 3] = [1.0, 5.0, 10.0];

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of `Flc2Lut::paper_shared()` lookups on a 1025 × 1025
/// `(Cv, Cs)` lattice per class, then its `max_error`, per-class
/// `patch_count` and `sample_bytes`.
const FLC2_LUT_DIGEST: u64 = 0x9c11_2b58_2b66_c342;

/// Digest of compiled `Flc1::correction_value` over speed 0..=120 km/h in
/// 0.5 km/h steps × angle -180..=180° in 0.75° steps × Sr ∈ {1, 5, 10}.
const FLC1_DIGEST: u64 = 0xa363_5aef_0a41_89b2;

#[test]
fn paper_shared_flc2_lut_is_pinned() {
    let lut = Flc2Lut::paper_shared();
    assert_eq!(lut.tabulated_classes(), CLASSES.to_vec());
    let capacity = lut.capacity_bu();
    let mut digest = Fnv1a::new();
    for rq in CLASSES {
        for i in 0..=1024u32 {
            let cv = f64::from(i) / 1024.0;
            for j in 0..=1024u32 {
                let cs = f64::from(j) / 1024.0 * capacity;
                digest.word(lut.decision_value(cv, rq, cs).to_bits());
            }
        }
    }
    digest.word(lut.max_error().to_bits());
    // `Flc2Lut` does not expose its surfaces, so the refinement shape is
    // read off the same per-class tabulation rebuilt through `Lut2d`.
    let flc2 = Flc2::paper_default().unwrap();
    let mut scratch = flc2.compiled().scratch();
    let mut surface_bytes = 0;
    for rq in CLASSES {
        let surface = Lut2d::tabulate_fn_refined(
            0.0,
            1.0,
            0.0,
            flc2.capacity_bu(),
            DEFAULT_LUT_BASE_RESOLUTION,
            DEFAULT_LUT_TARGET_ERROR,
            DEFAULT_LUT_MAX_PATCH_NODES,
            |cv, cs| flc2.compiled().infer_into(&[cv, rq, cs], &mut scratch)[0].clamp(-1.0, 1.0),
        )
        .unwrap();
        digest.word(surface.patch_count() as u64);
        surface_bytes += surface.sample_bytes();
    }
    assert_eq!(surface_bytes, lut.sample_bytes());
    digest.word(lut.sample_bytes() as u64);
    assert_eq!(
        digest.0, FLC2_LUT_DIGEST,
        "paper_shared() FLC2 table moved: digest {:#018x}",
        digest.0
    );
}

#[test]
fn compiled_flc1_outputs_are_pinned() {
    let flc1 = Flc1::paper_default().unwrap();
    let mut digest = Fnv1a::new();
    for sr in CLASSES {
        for s in 0..=240u32 {
            let speed = f64::from(s) * 0.5;
            for a in 0..=480u32 {
                let angle = -180.0 + f64::from(a) * 0.75;
                digest.word(flc1.correction_value(speed, angle, sr).to_bits());
            }
        }
    }
    assert_eq!(
        digest.0, FLC1_DIGEST,
        "compiled FLC1 outputs moved: digest {:#018x}",
        digest.0
    );
}
