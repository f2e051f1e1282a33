//! im2col/col2im lowering for 2-D convolutions on HWC tensors.
//!
//! A convolution with kernel `kh×kw` over an `H×W×C` input becomes a single
//! GEMM: `im2col(x) [out_h·out_w, kh·kw·C] · W [kh·kw·C, F]`. The backward
//! pass uses [`col2im`] to scatter column gradients back into image space.

use crate::matmul::MIN_ELEMS_FOR_THREADS;
use crate::parallel::{parallel_row_blocks_mut, parallel_rows_mut, threads};
use crate::Tensor;

/// Padding policy for convolution-like ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// No padding; output shrinks by `k - 1`.
    Valid,
    /// TensorFlow-style "SAME": output is `ceil(in / stride)`, zero padding
    /// split evenly with the extra cell at the bottom/right.
    Same,
}

/// Resolved geometry of one conv application: output size and pad offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height/width/channels.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Input channels.
    pub in_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both axes, as in the paper's architectures).
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Zero rows added above.
    pub pad_top: usize,
    /// Zero columns added left.
    pub pad_left: usize,
}

impl Conv2dGeometry {
    /// Resolves output size and padding for the given input and kernel.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`, the kernel is empty, or a `Valid` conv does
    /// not fit the input.
    pub fn resolve(
        (in_h, in_w, in_c): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
        padding: Padding,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(kh > 0 && kw > 0, "kernel must be non-empty");
        let (out_h, out_w, pad_top, pad_left) = match padding {
            Padding::Valid => {
                assert!(
                    in_h >= kh && in_w >= kw,
                    "valid conv {kh}x{kw} does not fit {in_h}x{in_w}"
                );
                ((in_h - kh) / stride + 1, (in_w - kw) / stride + 1, 0, 0)
            }
            Padding::Same => {
                let out_h = in_h.div_ceil(stride);
                let out_w = in_w.div_ceil(stride);
                let pad_h = ((out_h - 1) * stride + kh).saturating_sub(in_h);
                let pad_w = ((out_w - 1) * stride + kw).saturating_sub(in_w);
                (out_h, out_w, pad_h / 2, pad_w / 2)
            }
        };
        Conv2dGeometry {
            in_h,
            in_w,
            in_c,
            kh,
            kw,
            stride,
            out_h,
            out_w,
            pad_top,
            pad_left,
        }
    }

    /// Number of output spatial positions.
    pub fn positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Fan-in of each output position (`kh·kw·in_c`).
    pub fn fan_in(&self) -> usize {
        self.kh * self.kw * self.in_c
    }
}

/// Lowers an HWC image to the im2col matrix `[positions, fan_in]`.
///
/// Out-of-bounds taps (from padding) are zero.
///
/// # Panics
///
/// Panics if `x` is not rank-3 or does not match `geo`'s input shape.
pub fn im2col(x: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let mut out = Tensor::zeros(vec![geo.positions(), geo.fan_in()]);
    im2col_into(x, geo, &mut out);
    out
}

/// [`im2col`] into a pre-allocated `[positions, fan_in]` output (e.g. a
/// [`crate::Workspace`] buffer). Every element is overwritten.
///
/// # Panics
///
/// Panics if `x` or `out` do not match `geo`.
pub fn im2col_into(x: &Tensor, geo: &Conv2dGeometry, out: &mut Tensor) {
    assert_eq!(
        x.dims(),
        &[geo.in_h, geo.in_w, geo.in_c],
        "im2col input shape"
    );
    let fan_in = geo.fan_in();
    assert_eq!(
        out.dims(),
        &[geo.positions(), fan_in],
        "im2col output shape"
    );
    let xd = x.data();
    parallel_rows_mut(out.data_mut(), fan_in, |pos, row| {
        fill_patch_row(xd, geo, pos, row);
    });
}

/// Batched [`im2col_into`]: lowers `batch` stacked HWC frames
/// (`x: [batch, in_h, in_w, in_c]`, frames contiguous) into one row-wise
/// stacked patch matrix `out: [batch·positions, fan_in]`, so a convolution
/// over the whole batch becomes a **single** GEMM per layer. Row
/// `b·positions + p` of the output is bit-identical to row `p` of
/// [`im2col_into`] applied to frame `b` alone — each row is a pure function
/// of its frame — so batched and per-frame lowering are interchangeable.
///
/// # Panics
///
/// Panics if `x` is not `[batch, in_h, in_w, in_c]` or `out` is not
/// `[batch·positions, fan_in]`.
pub fn im2col_batch_into(x: &Tensor, batch: usize, geo: &Conv2dGeometry, out: &mut Tensor) {
    assert_eq!(
        x.dims(),
        &[batch, geo.in_h, geo.in_w, geo.in_c],
        "im2col batch input shape"
    );
    let positions = geo.positions();
    let fan_in = geo.fan_in();
    assert_eq!(
        out.dims(),
        &[batch * positions, fan_in],
        "im2col batch output shape"
    );
    let xd = x.data();
    let frame_len = geo.in_h * geo.in_w * geo.in_c;
    parallel_rows_mut(out.data_mut(), fan_in, |row_idx, row| {
        let b = row_idx / positions;
        let pos = row_idx % positions;
        fill_patch_row(&xd[b * frame_len..(b + 1) * frame_len], geo, pos, row);
    });
}

/// Floats in the stack tile [`im2col_gemm_streamed`] gathers patch rows
/// into: 16 KiB, so the tile and the rows the GEMM writes from it stay in
/// L1.
const STREAM_TILE: usize = 4096;

/// A convolution's GEMM over `batch` stacked HWC frames (`x: [batch, in_h,
/// in_w, in_c]`, frames contiguous) **without materializing the im2col
/// matrix**: each worker gathers a few patch rows at a time into a stack
/// tile (zeros for SAME-padding taps, exactly as [`im2col_batch_into`]
/// writes them) and hands the tile to `gemm(tile, out_rows, rows)`, which
/// must compute `out_rows[rows × n] = tile[rows × fan_in] · W`.
///
/// Every output row sees the same patch values a materialized matrix would
/// hold, and GEMM rows are independent, so the result is bit-identical to
/// `im2col_batch_into` followed by one GEMM over the whole matrix — for
/// any thread count. What it saves is the matrix's round trip through
/// memory: for a 3-channel stem, the `rows × 27` matrix is ~7 MB per
/// 2-frame 480×270 batch, written and read once each, while its useful
/// work is a few hundred FLOPs per row. Worth it only where `fan_in · n` is
/// small (a stem conv: few input channels); deep convolutions would
/// re-stream their weight panels once per tile.
///
/// # Panics
///
/// Panics if `x` or `out` do not match `geo`, `batch` and `n`, or if one
/// patch row (`fan_in`) does not fit the tile.
pub fn im2col_gemm_streamed(
    x: &[f32],
    batch: usize,
    geo: &Conv2dGeometry,
    out: &mut [f32],
    n: usize,
    gemm: impl Fn(&[f32], &mut [f32], usize) + Sync,
) {
    let positions = geo.positions();
    let fan_in = geo.fan_in();
    assert_eq!(
        x.len(),
        batch * geo.in_h * geo.in_w * geo.in_c,
        "streamed im2col input shape"
    );
    assert_eq!(
        out.len(),
        batch * positions * n,
        "streamed im2col output shape"
    );
    assert!(
        (1..=STREAM_TILE).contains(&fan_in),
        "streamed im2col: fan_in {fan_in} outside 1..={STREAM_TILE}"
    );
    // Whole micro-kernel tiles per gather where at least one fits.
    let tile_rows = match STREAM_TILE / fan_in {
        r if r >= 8 => r - r % 4,
        r => r,
    };
    let rows = batch * positions;
    let t = if rows * n >= MIN_ELEMS_FOR_THREADS {
        threads()
    } else {
        1
    };
    parallel_row_blocks_mut(out, n, t, |row0, block| {
        let mut tile = [0.0f32; STREAM_TILE];
        for (i, out_rows) in block.chunks_mut(tile_rows * n).enumerate() {
            let first = row0 + i * tile_rows;
            let m = out_rows.len() / n;
            let a = &mut tile[..m * fan_in];
            gather_patches(x, geo, first, a);
            gemm(a, out_rows, m);
        }
    });
}

/// Fills `tile` with consecutive rows of the stacked im2col matrix of
/// `x` (frames of `geo`'s input shape), starting at row `first`. Patches
/// that SAME padding does not clip — nearly all of them — are `kh` straight
/// span copies from the frame; the rest take [`fill_patch`].
fn gather_patches(x: &[f32], geo: &Conv2dGeometry, first: usize, tile: &mut [f32]) {
    let (in_w, c) = (geo.in_w, geo.in_c);
    let frame_len = geo.in_h * in_w * c;
    let (span, row_stride) = (geo.kw * c, in_w * c);
    let positions = geo.positions();
    let (mut b, pos) = (first / positions, first % positions);
    let (mut oy, mut ox) = (pos / geo.out_w, pos % geo.out_w);
    for patch in tile.chunks_exact_mut(geo.fan_in()) {
        let y0 = (oy * geo.stride) as isize - geo.pad_top as isize;
        let x0 = (ox * geo.stride) as isize - geo.pad_left as isize;
        let inside =
            y0 >= 0 && x0 >= 0 && y0 as usize + geo.kh <= geo.in_h && x0 as usize + geo.kw <= in_w;
        if inside {
            let base = b * frame_len + (y0 as usize * in_w + x0 as usize) * c;
            let src = &x[base..base + (geo.kh - 1) * row_stride + span];
            for (ky, dst) in patch.chunks_exact_mut(span).enumerate() {
                copy_span(dst, &src[ky * row_stride..ky * row_stride + span]);
            }
        } else {
            fill_patch(&x[b * frame_len..(b + 1) * frame_len], geo, oy, ox, patch);
        }
        ox += 1;
        if ox == geo.out_w {
            ox = 0;
            oy += 1;
            if oy == geo.out_h {
                oy = 0;
                b += 1;
            }
        }
    }
}

/// Fills one im2col row (`fan_in` taps of output position `pos`) from one
/// frame's HWC data. Shared by the single-frame, batched and streamed
/// lowerings so they can never diverge.
///
/// The `kw` taps of one kernel row are adjacent input columns, which in HWC
/// layout are **contiguous** memory — so each kernel row is written as one
/// span memcpy (plus zeroed fringes where SAME padding clips), not `kw`
/// cell-sized copies. For the 3-channel stem conv that turns nine 3-float
/// copies per row into one 27-float copy, removing most of the lowering's
/// bound-check and call overhead.
#[inline]
fn fill_patch_row(xd: &[f32], geo: &Conv2dGeometry, pos: usize, row: &mut [f32]) {
    fill_patch(xd, geo, pos / geo.out_w, pos % geo.out_w, row);
}

/// [`fill_patch_row`] for output cell `(oy, ox)`.
#[inline]
fn fill_patch(xd: &[f32], geo: &Conv2dGeometry, oy: usize, ox: usize, row: &mut [f32]) {
    let (w, c) = (geo.in_w, geo.in_c);
    let row_c = geo.kw * c; // one kernel row of taps
    let y0 = (oy * geo.stride) as isize - geo.pad_top as isize;
    let x0 = (ox * geo.stride) as isize - geo.pad_left as isize;
    // Horizontal clip is shared by every kernel row of the position.
    let kx_lo = (-x0).clamp(0, geo.kw as isize) as usize;
    let kx_hi = ((w as isize - x0).clamp(0, geo.kw as isize)) as usize;
    for ky in 0..geo.kh {
        let y = y0 + ky as isize;
        let dst = &mut row[ky * row_c..(ky + 1) * row_c];
        if y < 0 || y >= geo.in_h as isize || kx_lo >= kx_hi {
            dst.fill(0.0);
            continue;
        }
        let y = y as usize;
        dst[..kx_lo * c].fill(0.0);
        // `x0 + kx_lo ≥ 0` by construction, so the sums below are in range.
        let base = (y * w) as isize + x0;
        let (lo, hi) = (
            (base + kx_lo as isize) as usize,
            (base + kx_hi as isize) as usize,
        );
        copy_span(&mut dst[kx_lo * c..kx_hi * c], &xd[lo * c..hi * c]);
        dst[kx_hi * c..].fill(0.0);
    }
}

/// Copies one kernel row's taps — a short span (9 floats for an RGB 3×3
/// stem) — in register-sized moves instead of a `memcpy` call.
#[inline(always)]
fn copy_span(dst: &mut [f32], src: &[f32]) {
    let n = dst.len();
    let mut i = 0;
    while i + 8 <= n {
        dst[i..i + 8].copy_from_slice(&src[i..i + 8]);
        i += 8;
    }
    while i < n {
        dst[i] = src[i];
        i += 1;
    }
}

/// Lowers a **quantized** u8 HWC map into quad-padded im2col rows for the
/// whole-int8 GEMM ([`crate::gemm_prepacked_i8i8`]): `out` holds
/// `positions` rows of [`crate::i8i8_padded_k`]`(fan_in)` bytes each.
/// SAME-padding taps write the map's zero point `zp` — the exact u8
/// encoding of 0.0 under the asymmetric scheme — and the quad pad at the
/// end of each row writes code 0, which the zero-coded padded weight rows
/// annihilate. The quantized activations go straight from the per-frame
/// map to the GEMM's byte layout with no f32 round-trip.
///
/// Row `p` is a pure function of the map, so batched lowering (one call
/// per frame into consecutive row ranges) is bit-identical to the serial
/// path by construction, mirroring [`im2col_batch_into`].
///
/// # Panics
///
/// Panics if `qmap` or `out` do not match `geo`.
pub fn im2col_u8_into(qmap: &[u8], zp: u8, geo: &Conv2dGeometry, out: &mut [u8]) {
    assert_eq!(
        qmap.len(),
        geo.in_h * geo.in_w * geo.in_c,
        "im2col u8 input shape"
    );
    let fan_in = geo.fan_in();
    let kp = crate::i8i8_padded_k(fan_in);
    assert_eq!(out.len(), geo.positions() * kp, "im2col u8 output shape");
    for pos in 0..geo.positions() {
        let row = &mut out[pos * kp..(pos + 1) * kp];
        fill_patch_row_u8(qmap, geo, pos, zp, &mut row[..fan_in]);
        row[fan_in..].fill(0);
    }
}

/// u8 twin of [`fill_patch_row`]: same span-copy structure, but padding
/// taps write the zero point instead of 0.0.
#[inline]
fn fill_patch_row_u8(xd: &[u8], geo: &Conv2dGeometry, pos: usize, zp: u8, row: &mut [u8]) {
    let (w, c) = (geo.in_w, geo.in_c);
    let row_c = geo.kw * c;
    let oy = pos / geo.out_w;
    let ox = pos % geo.out_w;
    let y0 = (oy * geo.stride) as isize - geo.pad_top as isize;
    let x0 = (ox * geo.stride) as isize - geo.pad_left as isize;
    let kx_lo = (-x0).clamp(0, geo.kw as isize) as usize;
    let kx_hi = ((w as isize - x0).clamp(0, geo.kw as isize)) as usize;
    for ky in 0..geo.kh {
        let y = y0 + ky as isize;
        let dst = &mut row[ky * row_c..(ky + 1) * row_c];
        if y < 0 || y >= geo.in_h as isize || kx_lo >= kx_hi {
            dst.fill(zp);
            continue;
        }
        let y = y as usize;
        dst[..kx_lo * c].fill(zp);
        let base = (y * w) as isize + x0;
        let (lo, hi) = (
            (base + kx_lo as isize) as usize,
            (base + kx_hi as isize) as usize,
        );
        dst[kx_lo * c..kx_hi * c].copy_from_slice(&xd[lo * c..hi * c]);
        dst[kx_hi * c..].fill(zp);
    }
}

/// Scatters an im2col-shaped gradient back into image space (the adjoint of
/// [`im2col`]): overlapping taps accumulate.
///
/// # Panics
///
/// Panics if `cols` does not have shape `[positions, fan_in]`.
pub fn col2im(cols: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    assert_eq!(
        cols.dims(),
        &[geo.positions(), geo.fan_in()],
        "col2im input shape"
    );
    let mut img = Tensor::zeros(vec![geo.in_h, geo.in_w, geo.in_c]);
    let cd = cols.data();
    let (w, c) = (geo.in_w, geo.in_c);
    let fan_in = geo.fan_in();
    let imgd = img.data_mut();
    for pos in 0..geo.positions() {
        let oy = pos / geo.out_w;
        let ox = pos % geo.out_w;
        let y0 = (oy * geo.stride) as isize - geo.pad_top as isize;
        let x0 = (ox * geo.stride) as isize - geo.pad_left as isize;
        let row = &cd[pos * fan_in..(pos + 1) * fan_in];
        for ky in 0..geo.kh {
            let y = y0 + ky as isize;
            if y < 0 || y >= geo.in_h as isize {
                continue;
            }
            let y = y as usize;
            for kx in 0..geo.kw {
                let xx = x0 + kx as isize;
                if xx < 0 || xx >= w as isize {
                    continue;
                }
                let src = &row[(ky * geo.kw + kx) * c..(ky * geo.kw + kx + 1) * c];
                let dst = (y * w + xx as usize) * c;
                for (d, &s) in imgd[dst..dst + c].iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_padding_geometry_matches_tf() {
        // 5x5 input, 3x3 kernel, stride 2 → ceil(5/2)=3, pad_total = (3-1)*2+3-5 = 2.
        let g = Conv2dGeometry::resolve((5, 5, 1), (3, 3), 2, Padding::Same);
        assert_eq!((g.out_h, g.out_w), (3, 3));
        assert_eq!((g.pad_top, g.pad_left), (1, 1));
        // Even input: 4x4, stride 2, 3x3 → out 2, pad_total = (2-1)*2+3-4 = 1, top gets 0.
        let g = Conv2dGeometry::resolve((4, 4, 1), (3, 3), 2, Padding::Same);
        assert_eq!((g.out_h, g.out_w), (2, 2));
        assert_eq!((g.pad_top, g.pad_left), (0, 0));
    }

    #[test]
    fn streamed_gemm_matches_materialized_im2col_bit_for_bit() {
        use crate::matmul::gemm_fused;
        use crate::Epilogue;
        use rand::{Rng, SeedableRng};
        // Odd frames (SAME borders on every side), B = 1 and 3 (tiles that
        // straddle frames), and fan-ins from a 3×3 RGB stem up to rows so
        // wide a tile holds fewer than 8 of them (the unpacked GEMM path).
        for &((h, w, c), k, stride, n) in &[
            ((13, 17, 3), 3, 2, 32),
            ((9, 7, 3), 3, 1, 20),
            ((11, 10, 4), 5, 2, 8),
            ((6, 5, 200), 3, 1, 16),
        ] {
            let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
            let fan_in = geo.fan_in();
            let mut rng = rand::rngs::StdRng::seed_from_u64((h * w + c) as u64);
            let wts: Vec<f32> = (0..fan_in * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let scale: Vec<f32> = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
            let shift: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let ep = Epilogue {
                bias: Some(&bias),
                scale_shift: Some((&scale, &shift)),
                relu: true,
            };
            for batch in [1, 3] {
                let x = Tensor::from_vec(
                    vec![batch, h, w, c],
                    (0..batch * h * w * c)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect(),
                );
                let rows = batch * geo.positions();
                let mut cols = Tensor::zeros(vec![rows, fan_in]);
                im2col_batch_into(&x, batch, &geo, &mut cols);
                let mut want = vec![0.0; rows * n];
                gemm_fused(cols.data(), &wts, &mut want, rows, fan_in, n, ep);
                let mut got = vec![f32::NAN; rows * n];
                im2col_gemm_streamed(x.data(), batch, &geo, &mut got, n, |a, out, m| {
                    gemm_fused(a, &wts, out, m, fan_in, n, ep)
                });
                assert_eq!(got, want, "{h}x{w}x{c} k{k} s{stride} B={batch}");
            }
        }
    }

    #[test]
    fn valid_geometry() {
        let g = Conv2dGeometry::resolve((5, 7, 3), (3, 3), 1, Padding::Valid);
        assert_eq!((g.out_h, g.out_w), (3, 5));
        assert_eq!(g.fan_in(), 27);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn valid_rejects_oversized_kernel() {
        let _ = Conv2dGeometry::resolve((2, 2, 1), (3, 3), 1, Padding::Valid);
    }

    #[test]
    fn im2col_1x1_is_reshape() {
        let x = Tensor::from_vec(vec![2, 2, 2], (0..8).map(|i| i as f32).collect());
        let g = Conv2dGeometry::resolve((2, 2, 2), (1, 1), 1, Padding::Same);
        let m = im2col(&x, &g);
        assert_eq!(m.dims(), &[4, 2]);
        assert_eq!(m.data(), x.data());
    }

    #[test]
    fn im2col_center_tap() {
        // 3x3 single-channel image, 3x3 SAME conv, stride 1: the center
        // output position sees the whole image.
        let x = Tensor::from_vec(vec![3, 3, 1], (1..=9).map(|i| i as f32).collect());
        let g = Conv2dGeometry::resolve((3, 3, 1), (3, 3), 1, Padding::Same);
        let m = im2col(&x, &g);
        assert_eq!(m.dims(), &[9, 9]);
        let center: Vec<f32> = m.data()[4 * 9..5 * 9].to_vec();
        assert_eq!(center, (1..=9).map(|i| i as f32).collect::<Vec<_>>());
        // Top-left position: padded corner → first row and column of taps are 0.
        let tl: Vec<f32> = m.data()[0..9].to_vec();
        assert_eq!(tl, vec![0., 0., 0., 0., 1., 2., 0., 4., 5.]);
    }

    #[test]
    fn batched_im2col_stacks_per_frame_matrices_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for &(h, w, c, k, stride, batch) in &[
            (5usize, 4usize, 3usize, 3usize, 1usize, 1usize),
            (5, 4, 3, 3, 2, 3),
            (4, 4, 2, 1, 1, 4),
            (6, 7, 5, 3, 1, 2),
        ] {
            let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
            let frames: Vec<Tensor> = (0..batch)
                .map(|_| {
                    Tensor::from_vec(
                        vec![h, w, c],
                        (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    )
                })
                .collect();
            let mut stacked_data = Vec::new();
            for f in &frames {
                stacked_data.extend_from_slice(f.data());
            }
            let stacked = Tensor::from_vec(vec![batch, h, w, c], stacked_data);
            let mut got = Tensor::zeros(vec![batch * geo.positions(), geo.fan_in()]);
            im2col_batch_into(&stacked, batch, &geo, &mut got);
            for (b, f) in frames.iter().enumerate() {
                let want = im2col(f, &geo);
                let rows = geo.positions() * geo.fan_in();
                assert_eq!(
                    &got.data()[b * rows..(b + 1) * rows],
                    want.data(),
                    "frame {b} of {batch} (k{k} s{stride})"
                );
            }
        }
    }

    #[test]
    fn u8_im2col_matches_f32_im2col_on_codes() {
        // Lowering the quantized map must place exactly the map's codes at
        // in-bounds taps and the zero point at padding taps — verified
        // against the f32 lowering run on the zp-shifted codes (whose
        // padding value 0.0 is the shift of zp).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for &(h, w, c, k, stride) in &[
            (5usize, 4usize, 3usize, 3usize, 1usize),
            (5, 4, 3, 3, 2),
            (4, 4, 2, 1, 1),
            (6, 7, 5, 3, 2),
        ] {
            let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
            let x: Vec<f32> = (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut qmap = vec![0u8; x.len()];
            let (_, zp) = crate::quantize_map_u8_into(&x, &mut qmap);
            let kp = crate::i8i8_padded_k(geo.fan_in());
            let mut got = vec![0u8; geo.positions() * kp];
            im2col_u8_into(&qmap, zp, &geo, &mut got);
            let shifted = Tensor::from_vec(
                vec![h, w, c],
                qmap.iter().map(|&q| f32::from(q) - f32::from(zp)).collect(),
            );
            let want = im2col(&shifted, &geo);
            for pos in 0..geo.positions() {
                let grow = &got[pos * kp..(pos + 1) * kp];
                let wrow = &want.data()[pos * geo.fan_in()..(pos + 1) * geo.fan_in()];
                for (j, (&g, &wv)) in grow.iter().zip(wrow).enumerate() {
                    assert_eq!(
                        f32::from(g) - f32::from(zp),
                        wv,
                        "{h}x{w}x{c} k{k} s{stride} pos {pos} tap {j}"
                    );
                }
                for &g in &grow[geo.fan_in()..] {
                    assert_eq!(g, 0, "quad pad byte");
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint, which is exactly what backprop needs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let g = Conv2dGeometry::resolve((5, 4, 3), (3, 3), 2, Padding::Same);
        let x = Tensor::from_vec(
            vec![5, 4, 3],
            (0..60).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let y = Tensor::from_vec(
            vec![g.positions(), g.fan_in()],
            (0..g.positions() * g.fan_in())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let lhs: f32 = im2col(&x, &g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &g).data())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
