//! Depthwise 2-D convolution (channel multiplier 1), the building block of
//! MobileNet's separable convolutions.

use ff_tensor::{f16_to_f32, f32_to_f16, Conv2dGeometry, Padding, Precision, Tensor, Workspace};
use rand::SeedableRng;

use crate::{Layer, Param, Phase};

/// Lazily-maintained quantize-roundtripped copy of a depthwise layer's tap
/// weights, backing [`Layer::set_precision`] for the depthwise units.
///
/// Depthwise weights are tiny (`k²·C` floats — the packed GEMM panels of
/// the pointwise convolutions dominate weight bytes by orders of
/// magnitude), so the point here is not memory but **numeric consistency**:
/// a backbone set to f16/int8 quantizes *every* conv's weights under one
/// semantics. The store keeps an f32 working copy of the roundtripped
/// weights (f16: element-wise narrow+widen; int8: one symmetric scale per
/// channel over its `k²` taps), rebuilt only when the owning layer's weight
/// epoch moves, so streaming inference pays no per-frame quantization.
pub(crate) struct TapWeightStore {
    precision: Precision,
    deq: Vec<f32>,
    /// Weight epoch `deq` was built at (0 = dirty).
    epoch: u64,
}

impl TapWeightStore {
    pub(crate) fn new() -> Self {
        TapWeightStore {
            precision: Precision::F32,
            deq: Vec::new(),
            epoch: 0,
        }
    }

    pub(crate) fn precision(&self) -> Precision {
        self.precision
    }

    pub(crate) fn set_precision(&mut self, precision: Precision) {
        if self.precision != precision {
            self.precision = precision;
            self.epoch = 0;
        }
    }

    /// The weights inference should run with: the raw slice at f32, else
    /// the cached roundtripped copy (rebuilt if `weight_epoch` moved).
    pub(crate) fn effective<'a>(
        &'a mut self,
        w: &'a [f32],
        c: usize,
        weight_epoch: u64,
    ) -> &'a [f32] {
        if self.precision == Precision::F32 {
            return w;
        }
        if self.epoch != weight_epoch {
            self.deq.clear();
            self.deq.extend_from_slice(w);
            match self.precision {
                Precision::F32 => unreachable!("handled above"),
                Precision::F16 => {
                    for v in &mut self.deq {
                        *v = f16_to_f32(f32_to_f16(*v));
                    }
                }
                // Depthwise taps have no GEMM lowering, so the whole-int8
                // rung quantizes them exactly like the weight-only int8
                // rung: per-channel symmetric roundtrip.
                Precision::Int8 | Precision::Int8Act => {
                    let taps = w.len() / c;
                    for ch in 0..c {
                        let mut amax = 0.0f32;
                        for t in 0..taps {
                            amax = amax.max(w[t * c + ch].abs());
                        }
                        if amax == 0.0 {
                            continue;
                        }
                        let scale = amax / 127.0;
                        let inv = 127.0 / amax;
                        for t in 0..taps {
                            let q = (w[t * c + ch] * inv).round().clamp(-127.0, 127.0);
                            self.deq[t * c + ch] = q * scale;
                        }
                    }
                }
            }
            self.epoch = weight_epoch;
        }
        &self.deq
    }
}

/// A depthwise convolution: each input channel is filtered by its own
/// `k×k` kernel; channels never mix (the following 1×1 pointwise conv does
/// the mixing).
///
/// Weights are `[kh, kw, c]`, bias `[c]`.
pub struct DepthwiseConv2d {
    k: usize,
    stride: usize,
    padding: Padding,
    c: usize,
    weight: Param,
    bias: Param,
    cache: Vec<(Conv2dGeometry, Tensor)>,
    /// Inference weight store for [`Layer::set_precision`]; training always
    /// uses the raw f32 weights.
    taps: TapWeightStore,
    /// Bumped by every mutation access point ([`Layer::params_mut`],
    /// [`Layer::backward`]) so the quantized cache notices weight changes.
    weight_epoch: u64,
}

impl std::fmt::Debug for DepthwiseConv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DepthwiseConv2d({0}x{0} s{1} c{2})",
            self.k, self.stride, self.c
        )
    }
}

impl DepthwiseConv2d {
    /// Creates a SAME-padded depthwise convolution with He-initialized
    /// weights.
    pub fn new(k: usize, stride: usize, c: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = k * k;
        DepthwiseConv2d {
            k,
            stride,
            padding: Padding::Same,
            c,
            weight: Param::new(ff_tensor::he_normal(&mut rng, vec![k, k, c], fan_in)),
            bias: Param::new(Tensor::zeros(vec![c])),
            cache: Vec::new(),
            taps: TapWeightStore::new(),
            weight_epoch: 1,
        }
    }

    /// The storage precision of the inference weights.
    pub fn precision(&self) -> Precision {
        self.taps.precision()
    }

    fn geometry(&self, in_shape: &[usize]) -> Conv2dGeometry {
        assert_eq!(in_shape.len(), 3, "DepthwiseConv2d expects HWC input");
        assert_eq!(
            in_shape[2], self.c,
            "DepthwiseConv2d expects {} channels, got {}",
            self.c, in_shape[2]
        );
        Conv2dGeometry::resolve(
            (in_shape[0], in_shape[1], in_shape[2]),
            (self.k, self.k),
            self.stride,
            self.padding,
        )
    }
}

/// Per-application geometry shared by every output row of one depthwise
/// pass: the conv geometry plus the interior-column bounds, resolved once.
#[derive(Clone, Copy)]
pub(crate) struct DwGeom {
    k: usize,
    c: usize,
    in_h: usize,
    in_w: usize,
    out_w: usize,
    stride: usize,
    pad_top: usize,
    pad_left: usize,
    /// Output columns in `ix_lo..ix_hi` have their tap rectangle fully
    /// inside `0..in_w`: `ox·stride ≥ pad_left` and
    /// `ox·stride + k ≤ in_w + pad_left`.
    ix_lo: usize,
    ix_hi: usize,
}

impl DwGeom {
    fn new(geo: &Conv2dGeometry, k: usize) -> Self {
        let ix_lo = geo.pad_left.div_ceil(geo.stride).min(geo.out_w);
        let ix_hi = if geo.in_w + geo.pad_left >= k {
            ((geo.in_w + geo.pad_left - k) / geo.stride + 1).clamp(ix_lo, geo.out_w)
        } else {
            ix_lo
        };
        DwGeom {
            k,
            c: geo.in_c,
            in_h: geo.in_h,
            in_w: geo.in_w,
            out_w: geo.out_w,
            stride: geo.stride,
            pad_top: geo.pad_top,
            pad_left: geo.pad_left,
            ix_lo,
            ix_hi,
        }
    }
}

/// Output columns processed together by the strip kernel.
const STRIP: usize = 4;
/// Longest input window any dispatched strip slides: stride 2 at `K = 5`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
const MAX_WINDOW: usize = 2 * (STRIP - 1) + 5;

/// One output row of the depthwise kernel (see [`depthwise_row`]).
type RowKernel = fn(&[f32], &[f32], &[f32], Option<(&[f32], &[f32])>, &DwGeom, usize, &mut [f32]);

/// The row kernel for kernel size `k`: specialized (`K = k`, window kept in
/// registers, strips at strides 1 and 2) for the sizes MobileNet and the
/// tests use, the runtime-`k` cell-at-a-time kernel (`K = 0`) otherwise.
fn row_kernel(k: usize) -> RowKernel {
    match k {
        1 => depthwise_row::<1>,
        3 => depthwise_row::<3>,
        5 => depthwise_row::<5>,
        _ => depthwise_row::<0>,
    }
}

/// The shared depthwise-convolution kernel, split into **interior** and
/// **border** output columns per row:
///
/// - Interior cells (tap rectangle fully inside the input in x) run a
///   branch-free kernel with explicit 8-wide SIMD over channels and the
///   accumulator held in registers across all `k²` taps — the hot path,
///   covering almost every cell at stream resolutions. At strides 1 and 2
///   they are processed in strips of [`STRIP`] adjacent columns whose
///   overlapping tap windows share input loads (`stride·(STRIP - 1) + k`
///   loads per kernel row instead of `STRIP·k`) and reuse each weight load
///   across the whole strip. The kernel size is a const generic, so the
///   tap loops unroll and the sliding window lives in registers.
/// - Border cells (clipped by SAME padding) keep the per-cell-clipped
///   scalar loops.
///
/// All paths accumulate `bias + Σ_ky Σ_kx x·w` per channel in the same
/// order with the same mul-then-add semantics (no FMA contraction), so the
/// split — the SIMD width, and the strip blocking — never changes a single
/// bit of the output. The optional fused `·scale + shift → ReLU` tail is
/// applied while each cell is register/L1-resident.
///
/// Used by both [`DepthwiseConv2d`] (no tail) and
/// [`crate::layers::fused::DepthwiseBnRelu`] (folded-norm tail), so the two
/// layers cannot drift apart.
pub(crate) fn depthwise_forward(
    x: &Tensor,
    geo: &ff_tensor::Conv2dGeometry,
    k: usize,
    weight: &[f32],
    bias: &[f32],
    norm_relu_tail: Option<(&[f32], &[f32])>,
    out: &mut Tensor,
) {
    let g = DwGeom::new(geo, k);
    let row = row_kernel(k);
    let xd = x.data();
    ff_tensor::parallel::parallel_rows_mut(out.data_mut(), g.out_w * g.c, |oy, out_row| {
        row(xd, weight, bias, norm_relu_tail, &g, oy, out_row);
    });
}

/// Batched [`depthwise_forward`]: `x` is `batch` stacked HWC frames
/// (`[batch, in_h, in_w, in_c]`), `out` is `[batch, out_h, out_w, c]`.
/// Every output cell is a pure function of its own frame, computed by the
/// exact same row kernel as the single-frame path, so frame `b` of the
/// output is bit-identical to running [`depthwise_forward`] on frame `b`
/// alone; batching only widens the parallel row sweep to `batch·out_h`
/// rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn depthwise_forward_batch(
    x: &Tensor,
    batch: usize,
    geo: &ff_tensor::Conv2dGeometry,
    k: usize,
    weight: &[f32],
    bias: &[f32],
    norm_relu_tail: Option<(&[f32], &[f32])>,
    out: &mut Tensor,
) {
    let g = DwGeom::new(geo, k);
    let row = row_kernel(k);
    let out_h = geo.out_h;
    assert_eq!(
        x.dims(),
        &[batch, g.in_h, g.in_w, g.c],
        "depthwise batch input shape"
    );
    assert_eq!(
        out.dims(),
        &[batch, out_h, g.out_w, g.c],
        "depthwise batch output shape"
    );
    let xd = x.data();
    let frame_len = g.in_h * g.in_w * g.c;
    ff_tensor::parallel::parallel_rows_mut(out.data_mut(), g.out_w * g.c, |r, out_row| {
        let b = r / out_h;
        let oy = r % out_h;
        row(
            &xd[b * frame_len..(b + 1) * frame_len],
            weight,
            bias,
            norm_relu_tail,
            &g,
            oy,
            out_row,
        );
    });
}

/// One output row: border cells at the clipped fringes, interior cells in
/// load-sharing strips (strides 1 and 2) or one at a time. `K` is the
/// kernel size, or 0 for the runtime-`g.k` cell-at-a-time fallback.
fn depthwise_row<const K: usize>(
    xd: &[f32],
    weight: &[f32],
    bias: &[f32],
    tail: Option<(&[f32], &[f32])>,
    g: &DwGeom,
    oy: usize,
    row: &mut [f32],
) {
    debug_assert!(K == 0 || K == g.k, "row kernel K={K} for k={}", g.k);
    let (k, c) = (g.k, g.c);
    let y0 = (oy * g.stride) as isize - g.pad_top as isize;
    // Vertical clip is shared by every cell of the row.
    let ky_lo = (-y0).clamp(0, k as isize) as usize;
    let ky_hi = ((g.in_h as isize - y0).clamp(0, k as isize)) as usize;
    for ox in (0..g.ix_lo).chain(g.ix_hi..g.out_w) {
        border_cell(
            xd,
            weight,
            bias,
            tail,
            &mut row[ox * c..(ox + 1) * c],
            (ox * g.stride) as isize - g.pad_left as isize,
            y0,
            (ky_lo, ky_hi),
            k,
            c,
            g.in_w,
        );
    }
    let mut ox = g.ix_lo;
    let strip: Option<StripKernel> = match (K, g.stride) {
        (0, _) => None,
        (_, 1) => Some(interior_strip::<K, 1>),
        (_, 2) => Some(interior_strip::<K, 2>),
        _ => None,
    };
    if let Some(strip) = strip {
        // Row-level tap reuse: neighbouring windows overlap in k - stride
        // input columns, so a strip of STRIP cells shares its loads.
        while ox + STRIP <= g.ix_hi {
            strip(
                xd,
                weight,
                bias,
                tail,
                &mut row[ox * c..(ox + STRIP) * c],
                ox * g.stride - g.pad_left,
                y0,
                (ky_lo, ky_hi),
                c,
                g.in_w,
            );
            ox += STRIP;
        }
    }
    while ox < g.ix_hi {
        interior_cell::<K>(
            xd,
            weight,
            bias,
            tail,
            &mut row[ox * c..(ox + 1) * c],
            ox * g.stride - g.pad_left,
            y0,
            (ky_lo, ky_hi),
            k,
            c,
            g.in_w,
        );
        ox += 1;
    }
}

/// A strip of [`STRIP`] interior cells (see [`interior_strip`]).
type StripKernel = fn(
    &[f32],
    &[f32],
    &[f32],
    Option<(&[f32], &[f32])>,
    &mut [f32],
    usize,
    isize,
    (usize, usize),
    usize,
    usize,
);

/// A padding-clipped output cell: tap ranges clamped per cell, scalar
/// accumulation over the surviving taps.
#[allow(clippy::too_many_arguments)]
#[inline]
fn border_cell(
    xd: &[f32],
    weight: &[f32],
    bias: &[f32],
    tail: Option<(&[f32], &[f32])>,
    cell: &mut [f32],
    x0: isize,
    y0: isize,
    (ky_lo, ky_hi): (usize, usize),
    k: usize,
    c: usize,
    in_w: usize,
) {
    cell.copy_from_slice(bias);
    let kx_lo = (-x0).clamp(0, k as isize) as usize;
    let kx_hi = ((in_w as isize - x0).clamp(0, k as isize)) as usize;
    for ky in ky_lo..ky_hi {
        let y = (y0 + ky as isize) as usize;
        for kx in kx_lo..kx_hi {
            let xx = (x0 + kx as isize) as usize;
            let xs = &xd[(y * in_w + xx) * c..][..c];
            let ws = &weight[(ky * k + kx) * c..][..c];
            for ((o, &xv), &wv) in cell.iter_mut().zip(xs).zip(ws) {
                *o += xv * wv;
            }
        }
    }
    if let Some((scale, shift)) = tail {
        for ((o, &s), &t) in cell.iter_mut().zip(scale).zip(shift) {
            *o = (*o * s + t).max(0.0);
        }
    }
}

/// An interior output cell (no x-clipping): channels are processed eight at
/// a time with AVX2, the accumulator staying in a `ymm` register across all
/// `k²` taps. Mul-then-add (`_mm256_mul_ps` + `_mm256_add_ps`, matching the
/// scalar `acc + x·w` — rustc does not contract) keeps the result
/// bit-identical to [`border_cell`]'s accumulation on the same taps. `K` is
/// the kernel size (tap loops unrolled), or 0 to use the runtime `k`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn interior_cell<const K: usize>(
    xd: &[f32],
    weight: &[f32],
    bias: &[f32],
    tail: Option<(&[f32], &[f32])>,
    cell: &mut [f32],
    x0: usize,
    y0: isize,
    (ky_lo, ky_hi): (usize, usize),
    k: usize,
    c: usize,
    in_w: usize,
) {
    use std::arch::x86_64::*;
    let k = if K == 0 { k } else { K };
    let simd_c = c - c % 8;
    assert!(
        ky_lo <= ky_hi
            && ky_hi <= k
            && y0 + ky_lo as isize >= 0
            && ((y0 + ky_hi as isize) as usize).saturating_sub(1) * in_w * c + (x0 + k) * c
                <= xd.len()
            && k * k * c <= weight.len()
            && bias.len() >= c
            && cell.len() == c
            && tail.is_none_or(|(s, t)| s.len() >= c && t.len() >= c),
        "depthwise interior cell out of bounds"
    );
    // SAFETY: avx2 is a compile-time target feature here. The assert above
    // bounds every access: rows `y0 + ky` for `ky in ky_lo..ky_hi` are
    // non-negative and their taps `x0..x0 + k` end inside `xd`; weight taps
    // end inside `k²·c`; and every 8-lane load or store touches channels
    // `< simd_c ≤ c`.
    unsafe {
        let mut ch = 0;
        while ch < simd_c {
            let mut acc = _mm256_loadu_ps(bias.as_ptr().add(ch));
            for ky in ky_lo..ky_hi {
                let y = (y0 + ky as isize) as usize;
                let xrow = xd.as_ptr().add((y * in_w + x0) * c + ch);
                let wrow = weight.as_ptr().add(ky * k * c + ch);
                for kx in 0..k {
                    let xv = _mm256_loadu_ps(xrow.add(kx * c));
                    let wv = _mm256_loadu_ps(wrow.add(kx * c));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, wv));
                }
            }
            if let Some((scale, shift)) = tail {
                let s = _mm256_loadu_ps(scale.as_ptr().add(ch));
                let t = _mm256_loadu_ps(shift.as_ptr().add(ch));
                acc = _mm256_max_ps(_mm256_add_ps(_mm256_mul_ps(acc, s), t), _mm256_setzero_ps());
            }
            _mm256_storeu_ps(cell.as_mut_ptr().add(ch), acc);
            ch += 8;
        }
    }
    interior_cell_scalar(
        xd,
        weight,
        bias,
        tail,
        cell,
        x0,
        y0,
        (ky_lo, ky_hi),
        k,
        c,
        in_w,
        simd_c,
    );
}

/// Scalar interior path: the whole cell on non-AVX2 builds.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn interior_cell<const K: usize>(
    xd: &[f32],
    weight: &[f32],
    bias: &[f32],
    tail: Option<(&[f32], &[f32])>,
    cell: &mut [f32],
    x0: usize,
    y0: isize,
    ky: (usize, usize),
    k: usize,
    c: usize,
    in_w: usize,
) {
    let k = if K == 0 { k } else { K };
    interior_cell_scalar(xd, weight, bias, tail, cell, x0, y0, ky, k, c, in_w, 0);
}

/// A strip of [`STRIP`] adjacent interior cells at stride `S`, computed
/// together: per kernel row the `S·(STRIP - 1) + K` input vectors the strip's
/// windows cover are loaded once into a register window, and each weight
/// vector is loaded once for all [`STRIP`] cells — versus `STRIP·K` input
/// and `STRIP·K` weight loads for cell-at-a-time execution. Cell `s` reads
/// window entries `S·s..S·s + K`; with `K` and `S` const every index is a
/// constant after unrolling, so the window never leaves registers.
///
/// Each cell's accumulator still runs `bias + Σ_ky Σ_kx x·w` in exactly the
/// order of [`interior_cell`] (ky then kx ascending, mul-then-add, no FMA
/// contraction), so the strip blocking is bit-invisible in the output.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn interior_strip<const K: usize, const S: usize>(
    xd: &[f32],
    weight: &[f32],
    bias: &[f32],
    tail: Option<(&[f32], &[f32])>,
    cells: &mut [f32],
    x0: usize,
    y0: isize,
    (ky_lo, ky_hi): (usize, usize),
    c: usize,
    in_w: usize,
) {
    use std::arch::x86_64::*;
    let window = S * (STRIP - 1) + K;
    const { assert!(S * (STRIP - 1) + K <= MAX_WINDOW) };
    let simd_c = c - c % 8;
    assert!(
        ky_lo <= ky_hi
            && ky_hi <= K
            && y0 + ky_lo as isize >= 0
            && ((y0 + ky_hi as isize) as usize).saturating_sub(1) * in_w * c + (x0 + window) * c
                <= xd.len()
            && K * K * c <= weight.len()
            && bias.len() >= c
            && cells.len() == STRIP * c
            && tail.is_none_or(|(s, t)| s.len() >= c && t.len() >= c),
        "depthwise strip out of bounds"
    );
    // SAFETY: avx2 is a compile-time target feature here. The assert above
    // bounds every access: rows `y0 + ky` for `ky in ky_lo..ky_hi` are
    // non-negative and the strip's window `x0..x0 + window` ends inside
    // `xd`; weight taps end inside `K²·c`; and every 8-lane load or store
    // touches channels `< simd_c ≤ c` of a cell inside `cells`.
    unsafe {
        let mut ch = 0;
        while ch < simd_c {
            let b = _mm256_loadu_ps(bias.as_ptr().add(ch));
            let mut acc = [b; STRIP];
            for ky in ky_lo..ky_hi {
                let y = (y0 + ky as isize) as usize;
                let xrow = xd.as_ptr().add((y * in_w + x0) * c + ch);
                // One sliding window of input vectors for the whole strip.
                let mut xv = [_mm256_setzero_ps(); MAX_WINDOW];
                for (i, v) in xv.iter_mut().enumerate().take(window) {
                    *v = _mm256_loadu_ps(xrow.add(i * c));
                }
                let wrow = weight.as_ptr().add(ky * K * c + ch);
                for kx in 0..K {
                    let wv = _mm256_loadu_ps(wrow.add(kx * c));
                    for (s, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(xv[S * s + kx], wv));
                    }
                }
            }
            if let Some((scale, shift)) = tail {
                let s = _mm256_loadu_ps(scale.as_ptr().add(ch));
                let t = _mm256_loadu_ps(shift.as_ptr().add(ch));
                for a in &mut acc {
                    *a = _mm256_max_ps(_mm256_add_ps(_mm256_mul_ps(*a, s), t), _mm256_setzero_ps());
                }
            }
            for (s, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(cells.as_mut_ptr().add(s * c + ch), *a);
            }
            ch += 8;
        }
    }
    // Ragged channel tail, cell at a time.
    for s in 0..STRIP {
        interior_cell_scalar(
            xd,
            weight,
            bias,
            tail,
            &mut cells[s * c..(s + 1) * c],
            x0 + S * s,
            y0,
            (ky_lo, ky_hi),
            K,
            c,
            in_w,
            simd_c,
        );
    }
}

/// Strip fallback without AVX2: the cells one at a time (the scalar
/// interior kernel already keeps its accumulator in registers).
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn interior_strip<const K: usize, const S: usize>(
    xd: &[f32],
    weight: &[f32],
    bias: &[f32],
    tail: Option<(&[f32], &[f32])>,
    cells: &mut [f32],
    x0: usize,
    y0: isize,
    ky: (usize, usize),
    c: usize,
    in_w: usize,
) {
    for s in 0..STRIP {
        interior_cell::<K>(
            xd,
            weight,
            bias,
            tail,
            &mut cells[s * c..(s + 1) * c],
            x0 + S * s,
            y0,
            ky,
            K,
            c,
            in_w,
        );
    }
}

/// Register-accumulated scalar kernel for channels `ch0..c` of an interior
/// cell — the ragged tail of the SIMD path (and the whole cell without
/// AVX2). Same tap order and mul-then-add semantics as the vector body.
#[allow(clippy::too_many_arguments)]
#[inline]
fn interior_cell_scalar(
    xd: &[f32],
    weight: &[f32],
    bias: &[f32],
    tail: Option<(&[f32], &[f32])>,
    cell: &mut [f32],
    x0: usize,
    y0: isize,
    (ky_lo, ky_hi): (usize, usize),
    k: usize,
    c: usize,
    in_w: usize,
    ch0: usize,
) {
    for ch in ch0..c {
        let mut acc = bias[ch];
        for ky in ky_lo..ky_hi {
            let y = (y0 + ky as isize) as usize;
            let base_x = (y * in_w + x0) * c + ch;
            let base_w = ky * k * c + ch;
            for kx in 0..k {
                acc += xd[base_x + kx * c] * weight[base_w + kx * c];
            }
        }
        cell[ch] = if let Some((scale, shift)) = tail {
            (acc * scale[ch] + shift[ch]).max(0.0)
        } else {
            acc
        };
    }
}

impl Layer for DepthwiseConv2d {
    fn layer_type(&self) -> &'static str {
        "depthwise_conv2d"
    }

    fn forward(&mut self, x: &Tensor, phase: Phase) -> Tensor {
        self.forward_ws(x, phase, &mut Workspace::new())
    }

    fn forward_ws(&mut self, x: &Tensor, phase: Phase, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(x.dims());
        // Every output cell is seeded from the bias inside the kernel, so
        // stale workspace contents are fine.
        let mut out = ws.take(&[geo.out_h, geo.out_w, self.c]);
        // Training must see the raw trainable weights; inference runs the
        // precision store's (possibly quantize-roundtripped) copy.
        let w = if phase == Phase::Inference {
            self.taps
                .effective(self.weight.value.data(), self.c, self.weight_epoch)
        } else {
            self.weight.value.data()
        };
        depthwise_forward(x, &geo, self.k, w, self.bias.value.data(), None, &mut out);
        if phase == Phase::Train {
            self.cache.push((geo, x.clone()));
        }
        out
    }

    fn forward_batch_ws(&mut self, x: &Tensor, batch: usize, ws: &mut Workspace) -> Tensor {
        assert!(batch > 0, "empty batch");
        assert_eq!(x.rank(), 4, "batched DepthwiseConv2d expects [B, H, W, C]");
        let geo = self.geometry(&x.dims()[1..]);
        let mut out = ws.take(&[batch, geo.out_h, geo.out_w, self.c]);
        let w = self
            .taps
            .effective(self.weight.value.data(), self.c, self.weight_epoch);
        depthwise_forward_batch(
            x,
            batch,
            &geo,
            self.k,
            w,
            self.bias.value.data(),
            None,
            &mut out,
        );
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (geo, x) = self
            .cache
            .pop()
            .expect("DepthwiseConv2d::backward without cached forward");
        let c = self.c;
        let k = self.k;
        let (in_h, in_w) = (geo.in_h, geo.in_w);
        assert_eq!(grad_out.dims(), &[geo.out_h, geo.out_w, c]);
        let mut dx = Tensor::zeros(vec![in_h, in_w, c]);
        let mut dw = Tensor::zeros(vec![k, k, c]);
        let mut db = Tensor::zeros(vec![c]);
        let gd = grad_out.data();
        let xd = x.data();
        let wd = self.weight.value.data();
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let g = &gd[(oy * geo.out_w + ox) * c..][..c];
                for (d, &gv) in db.data_mut().iter_mut().zip(g) {
                    *d += gv;
                }
                let y0 = (oy * geo.stride) as isize - geo.pad_top as isize;
                let x0 = (ox * geo.stride) as isize - geo.pad_left as isize;
                for ky in 0..k {
                    let y = y0 + ky as isize;
                    if y < 0 || y >= in_h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let xx = x0 + kx as isize;
                        if xx < 0 || xx >= in_w as isize {
                            continue;
                        }
                        let base_x = (y as usize * in_w + xx as usize) * c;
                        let base_w = (ky * k + kx) * c;
                        for ch in 0..c {
                            dw.data_mut()[base_w + ch] += xd[base_x + ch] * g[ch];
                            dx.data_mut()[base_x + ch] += wd[base_w + ch] * g[ch];
                        }
                    }
                }
            }
        }
        self.weight_epoch += 1; // weights are about to change
        self.weight.accumulate(&dw);
        self.bias.accumulate(&db);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weight_epoch += 1; // caller may mutate weights through these
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        self.taps.set_precision(precision);
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(in_shape);
        vec![geo.out_h, geo.out_w, self.c]
    }

    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        let geo = self.geometry(in_shape);
        // Depthwise half of the paper's separable formula: (H/S)(W/S)·M·K².
        (geo.out_h * geo.out_w * self.c * self.k * self.k) as u64
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_tensor::{Conv2dGeometry, Padding};

    #[test]
    fn channels_do_not_mix() {
        let mut dw = DepthwiseConv2d::new(3, 1, 2, 3);
        // Zero channel 1's kernel; output channel 1 must then be pure bias.
        for ky in 0..3 {
            for kx in 0..3 {
                let i = (ky * 3 + kx) * 2 + 1;
                dw.weight.value.data_mut()[i] = 0.0;
            }
        }
        dw.bias.value.data_mut()[1] = 0.5;
        let x = Tensor::filled(vec![4, 4, 2], 1.0);
        let out = dw.forward(&x, Phase::Inference);
        for h in 0..4 {
            for w in 0..4 {
                assert_eq!(out.at3(h, w, 1), 0.5);
            }
        }
    }

    #[test]
    fn forward_matches_manual_center() {
        let mut dw = DepthwiseConv2d::new(3, 1, 1, 1);
        for (i, v) in dw.weight.value.data_mut().iter_mut().enumerate() {
            *v = i as f32; // kernel 0..9
        }
        let x = Tensor::filled(vec![3, 3, 1], 1.0);
        let out = dw.forward(&x, Phase::Inference);
        // Center position sees the full kernel: Σ 0..9 = 36.
        assert_eq!(out.at3(1, 1, 0), 36.0);
        // Top-left misses the first row and column: Σ {4,5,7,8} = 24.
        assert_eq!(out.at3(0, 0, 0), 24.0);
    }

    #[test]
    fn gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut dw = DepthwiseConv2d::new(3, 2, 2, 4);
        let x = Tensor::from_vec(
            vec![5, 5, 2],
            (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let out = dw.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = dw.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 13, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (dw.forward(&xp, Phase::Inference).sum()
                - dw.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        for &i in &[0usize, 9, 17] {
            let orig = dw.weight.value.data()[i];
            dw.weight.value.data_mut()[i] = orig + eps;
            let fp = dw.forward(&x, Phase::Inference).sum();
            dw.weight.value.data_mut()[i] = orig - eps;
            let fm = dw.forward(&x, Phase::Inference).sum();
            dw.weight.value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - dw.weight.grad.data()[i]).abs() < 1e-2, "dW[{i}]");
        }
    }

    /// Naive depthwise reference: same tap order, same mul-then-add.
    fn naive_depthwise(
        x: &Tensor,
        geo: &Conv2dGeometry,
        k: usize,
        weight: &[f32],
        bias: &[f32],
        tail: Option<(&[f32], &[f32])>,
    ) -> Tensor {
        let (h, w, c) = (geo.in_h, geo.in_w, geo.in_c);
        let mut want = Tensor::zeros(vec![geo.out_h, geo.out_w, c]);
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                for ch in 0..c {
                    let mut acc = bias[ch];
                    for ky in 0..k {
                        let y = (oy * geo.stride + ky) as isize - geo.pad_top as isize;
                        if y < 0 || y >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let xx = (ox * geo.stride + kx) as isize - geo.pad_left as isize;
                            if xx < 0 || xx >= w as isize {
                                continue;
                            }
                            acc +=
                                x.at3(y as usize, xx as usize, ch) * weight[(ky * k + kx) * c + ch];
                        }
                    }
                    if let Some((s, t)) = tail {
                        acc = (acc * s[ch] + t[ch]).max(0.0);
                    }
                    want.data_mut()[(oy * geo.out_w + ox) * c + ch] = acc;
                }
            }
        }
        want
    }

    /// Runs the kernel on random data at `(h, w, c, k, stride)`, with and
    /// without the fused tail, against [`naive_depthwise`].
    fn check_against_naive(h: usize, w: usize, c: usize, k: usize, stride: usize) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let x = Tensor::from_vec(
            vec![h, w, c],
            (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let weight: Vec<f32> = (0..k * k * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias: Vec<f32> = (0..c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let scale: Vec<f32> = (0..c).map(|_| rng.gen_range(0.5..1.5)).collect();
        let shift: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
        for tail in [None, Some((&scale[..], &shift[..]))] {
            let mut got = Tensor::zeros(vec![geo.out_h, geo.out_w, c]);
            depthwise_forward(&x, &geo, k, &weight, &bias, tail, &mut got);
            let want = naive_depthwise(&x, &geo, k, &weight, &bias, tail);
            assert_eq!(
                got.data(),
                want.data(),
                "h{h} w{w} c{c} k{k} s{stride} tail={}",
                tail.is_some()
            );
        }
    }

    #[test]
    fn interior_border_split_matches_naive_reference_bit_for_bit() {
        // Geometries chosen to hit every path: channel counts off the
        // 8-lane SIMD width (scalar tail), widths where interior is empty,
        // strides > 1, kernels larger than the input, and rows wide enough
        // for the load-sharing strip kernel (full strips, strip remainders,
        // and multi-strip rows).
        for &(h, w, c, k, stride) in &[
            (9usize, 7usize, 5usize, 3usize, 1usize),
            (8, 11, 8, 3, 2),
            (6, 6, 11, 3, 1),
            (5, 4, 16, 5, 2),
            (4, 2, 3, 3, 1),   // interior empty in x
            (2, 2, 9, 5, 1),   // kernel larger than input
            (7, 16, 8, 3, 1),  // three strips + remainder
            (6, 13, 12, 5, 1), // k=5 strips, ragged channels
            (5, 14, 4, 7, 1),  // runtime-k fallback, cell at a time
        ] {
            check_against_naive(h, w, c, k, stride);
        }
    }

    #[test]
    fn specialized_and_fallback_kernels_match_naive_reference_bit_for_bit() {
        // The const-K row kernels (K = 1, 3, 5, with strips at strides 1
        // and 2) and the runtime-k fallback (even and large k), at channel
        // counts that are not multiples of 8 and widths that leave strip
        // remainders at both strides.
        for k in [1, 2, 3, 4, 5, 7] {
            for stride in [1, 2, 3] {
                for c in [5, 13, 20] {
                    check_against_naive(7, 23, c, k, stride);
                }
            }
        }
    }

    #[test]
    fn batched_kernel_matches_per_frame_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for &(h, w, c, k, stride, batch) in &[
            (7usize, 9usize, 8usize, 3usize, 1usize, 3usize),
            (6, 5, 5, 3, 2, 4),
            (5, 8, 16, 5, 1, 2),
        ] {
            let frames: Vec<Tensor> = (0..batch)
                .map(|_| {
                    Tensor::from_vec(
                        vec![h, w, c],
                        (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    )
                })
                .collect();
            let weight: Vec<f32> = (0..k * k * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let bias: Vec<f32> = (0..c).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let scale: Vec<f32> = (0..c).map(|_| rng.gen_range(0.5..1.5)).collect();
            let shift: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
            let mut stacked_data = Vec::new();
            for f in &frames {
                stacked_data.extend_from_slice(f.data());
            }
            let stacked = Tensor::from_vec(vec![batch, h, w, c], stacked_data);
            for tail in [None, Some((&scale[..], &shift[..]))] {
                let mut got = Tensor::zeros(vec![batch, geo.out_h, geo.out_w, c]);
                depthwise_forward_batch(&stacked, batch, &geo, k, &weight, &bias, tail, &mut got);
                let frame_out = geo.out_h * geo.out_w * c;
                for (b, f) in frames.iter().enumerate() {
                    let mut want = Tensor::zeros(vec![geo.out_h, geo.out_w, c]);
                    depthwise_forward(f, &geo, k, &weight, &bias, tail, &mut want);
                    assert_eq!(
                        &got.data()[b * frame_out..(b + 1) * frame_out],
                        want.data(),
                        "frame {b} (k{k} s{stride} tail={})",
                        tail.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn cost_formula() {
        let dw = DepthwiseConv2d::new(3, 2, 16, 0);
        // 10x10 → 5x5; 5·5·16·9.
        assert_eq!(dw.multiply_adds(&[10, 10, 16]), 5 * 5 * 16 * 9);
    }
}
