//! Recorded bit-level digests of the base DNN's two taps.
//!
//! The GEMM, depthwise and stem kernels may be rewritten for speed, but
//! never in a way that moves a single output bit. This test pins that: it
//! hashes the f32 bit patterns of both taps (FNV-1a, 64-bit) through the
//! single-frame `extract` and the batched `extract_batch` entry points and
//! compares them with digests recorded before any kernel rewrite.
//!
//! The geometry is chosen to reach every kernel edge case: an odd
//! 100×57 frame gives SAME-padding borders on every side and row counts
//! that are not multiples of the GEMM tile height, and α = 0.25 gives
//! channel counts that leave ragged 16-wide weight panels. Calibration
//! fits non-trivial folded norms, so the fused bias → scale/shift → ReLU
//! tail runs with real values.
//!
//! The digests hold for the repository's build target (x86-64-v3: AVX2 and
//! FMA). Without FMA the GEMM rounds each product separately, which gives
//! different (equally deterministic) bits, so the test is gated on it.

#![cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]

use ff_core::extractor::FeatureMaps;
use ff_core::FeatureExtractor;
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_tensor::Tensor;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, t: &Tensor) -> u64 {
    for v in t.data() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

fn taps() -> Vec<String> {
    vec![
        LAYER_LOCALIZED_TAP.to_string(),
        LAYER_FULL_FRAME_TAP.to_string(),
    ]
}

/// Digest of both taps of every frame's maps, taps in depth order.
fn digest(maps: &[FeatureMaps]) -> u64 {
    maps.iter().fold(FNV_OFFSET, |h, m| {
        fnv1a(
            fnv1a(h, m.get(LAYER_LOCALIZED_TAP)),
            m.get(LAYER_FULL_FRAME_TAP),
        )
    })
}

fn frame(seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (h, w) = (57, 100);
    Tensor::from_vec(
        vec![h, w, 3],
        (0..h * w * 3).map(|_| rng.gen_range(0.0..1.0)).collect(),
    )
}

/// `(extract digest of frame 0, extract_batch digest of frames 0 and 1)`.
fn digests(alpha: f32) -> (u64, u64) {
    let mut ex = FeatureExtractor::new(MobileNetConfig::with_width(alpha), taps());
    ex.calibrate(&[frame(11), frame(12)]);
    let single = digest(std::slice::from_ref(ex.extract(&frame(1))));
    let batched = digest(ex.extract_batch(&[frame(1), frame(2)]));
    (single, batched)
}

#[test]
fn base_dnn_taps_match_recorded_digests() {
    let got = [digests(1.0), digests(0.25)];
    let want: [(u64, u64); 2] = [
        (0xc2d6_a5b5_ca7f_5deb, 0xa554_ad61_faea_d32d),
        (0x1d4c_76b6_fb17_c910, 0xe689_af45_75f9_d4e1),
    ];
    assert_eq!(
        got, want,
        "tap digests moved (got {got:#x?}): [(alpha 1: extract, extract_batch), (alpha 0.25: ...)]"
    );
}
