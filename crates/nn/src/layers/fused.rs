//! Fused MobileNet units: convolution + folded batch-norm + ReLU as one
//! layer.
//!
//! Every MobileNet unit is `conv → BN → ReLU`; executed as three separate
//! layers the two element-wise passes are memory-bound and, on the Figure 5
//! geometry, cost more than the convolution's GEMM itself. These layers run
//! the whole unit in a single output pass: the GEMM (or depthwise kernel)
//! applies the folded norm + ReLU to its accumulators before storing them
//! (see [`ff_tensor::Epilogue`]).
//!
//! Training still works — the backward pass decomposes the unit exactly the
//! way the separate layers would — but the implementation optimizes the
//! inference path: the paper's throughput results (Figures 5/6) measure
//! streaming inference only.

use ff_tensor::{
    col2im, gemm_fused, im2col_batch_into, im2col_gemm_streamed, im2col_into, matmul_transpose_a,
    matmul_transpose_b, Conv2dGeometry, Epilogue, PackedPanels, Padding, Precision, Tensor,
    Workspace,
};
use rand::SeedableRng;

use crate::{Layer, Param, Phase};

/// Shared folded-norm state for the fused units.
#[derive(Debug, Clone)]
struct FoldedNorm {
    scale: Vec<f32>,
    shift: Vec<f32>,
    calibrated: bool,
}

impl FoldedNorm {
    fn identity(c: usize) -> Self {
        FoldedNorm {
            scale: vec![1.0; c],
            shift: vec![0.0; c],
            calibrated: false,
        }
    }

    /// Fits per-channel standardization from pre-norm activations via the
    /// same helper `ChannelNorm::calibrate` uses, so fused and staged
    /// calibration stay numerically identical.
    fn fit(&mut self, samples: &[Tensor]) {
        if let Some((scale, shift)) =
            crate::layers::norm::fit_channel_stats(samples, self.scale.len())
        {
            self.scale = scale;
            self.shift = shift;
            self.calibrated = true;
        }
    }
}

/// Fused standard convolution + folded BN + ReLU (a MobileNet `conv` or
/// `sep` unit).
///
/// Weights are GEMM-ready `[kh·kw·in_c, out_c]` like [`crate::Conv2d`];
/// the norm's scale/shift are calibration state, not trainable parameters.
pub struct ConvBnRelu {
    k: usize,
    stride: usize,
    padding: Padding,
    in_c: usize,
    out_c: usize,
    weight: Param,
    bias: Param,
    norm: FoldedNorm,
    /// Train-phase cache: (geometry, im2col matrix, pre-ReLU output).
    cache: Vec<(Conv2dGeometry, Tensor, Tensor)>,
    /// Weight panels pre-packed for the GEMM micro-kernel — in the format
    /// chosen by [`Layer::set_precision`] (f32, f16, or int8 + per-column
    /// scale) — refreshed lazily whenever `weight_epoch` moves. Weights are
    /// static during streaming, so inference never pays per-call packing
    /// (or quantization) traffic.
    packed_weights: PackedPanels,
    packed_epoch: u64,
    /// Bumped by every mutation access point ([`Layer::params_mut`],
    /// [`Layer::backward`]); code that writes `weight.value` directly must
    /// call `params_mut` (the path optimizers and weight loading already
    /// take) for the packed cache to notice.
    weight_epoch: u64,
}

impl std::fmt::Debug for ConvBnRelu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ConvBnRelu({0}x{0} s{1} {2}→{3})",
            self.k, self.stride, self.in_c, self.out_c
        )
    }
}

impl ConvBnRelu {
    /// Creates a SAME-padded fused unit with He-initialized weights.
    pub fn new(k: usize, stride: usize, in_c: usize, out_c: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = k * k * in_c;
        ConvBnRelu {
            k,
            stride,
            padding: Padding::Same,
            in_c,
            out_c,
            weight: Param::new(ff_tensor::he_normal(&mut rng, vec![fan_in, out_c], fan_in)),
            bias: Param::new(Tensor::zeros(vec![out_c])),
            norm: FoldedNorm::identity(out_c),
            cache: Vec::new(),
            packed_weights: PackedPanels::empty(Precision::F32),
            packed_epoch: 0,
            weight_epoch: 1,
        }
    }

    /// Whether calibration has fit the folded norm.
    pub fn is_calibrated(&self) -> bool {
        self.norm.calibrated
    }

    /// Refreshes the packed weight panels if the weights changed.
    fn ensure_packed(&mut self) {
        if self.packed_epoch == self.weight_epoch {
            return;
        }
        let fan_in = self.k * self.k * self.in_c;
        self.packed_weights
            .repack(self.weight.value.data(), fan_in, self.out_c);
        self.packed_epoch = self.weight_epoch;
    }

    /// The storage precision of the inference weight panels.
    pub fn precision(&self) -> Precision {
        self.packed_weights.precision()
    }

    fn geometry(&self, in_shape: &[usize]) -> Conv2dGeometry {
        assert_eq!(
            in_shape.len(),
            3,
            "ConvBnRelu expects HWC input, got {in_shape:?}"
        );
        assert_eq!(
            in_shape[2], self.in_c,
            "ConvBnRelu expects {} channels, got {}",
            self.in_c, in_shape[2]
        );
        Conv2dGeometry::resolve(
            (in_shape[0], in_shape[1], in_shape[2]),
            (self.k, self.k),
            self.stride,
            self.padding,
        )
    }

    /// Runs the convolution over `batch` frames (`x` is one `[h, w, c]`
    /// frame or `[batch, h, w, c]` stacked frames) into `out` (shape
    /// `[batch·positions, out_c]`) with the requested epilogue, returning
    /// the im2col matrix when `keep_cols`. Uses the pre-packed weight panels
    /// when `prepacked` (inference).
    ///
    /// The patch matrix is materialized only when training needs it back
    /// (`keep_cols`) or when the layer is too wide to stream it: a stem-like
    /// unit (`k > 1`, at most [`STREAMED_MAX_IN_C`] input channels) gathers
    /// its patches tile by tile into L1 instead
    /// ([`ff_tensor::im2col_gemm_streamed`]), bit-identically.
    #[allow(clippy::too_many_arguments)]
    fn run_gemm(
        &self,
        x: &Tensor,
        batch: usize,
        geo: &Conv2dGeometry,
        out: &mut Tensor,
        ep: Epilogue,
        ws: &mut Workspace,
        keep_cols: bool,
        prepacked: bool,
    ) -> Option<Tensor> {
        let rows = batch * geo.positions();
        let fan_in = geo.fan_in();
        // Whole-int8 inference: quantize each frame once and gather straight
        // into a u8 buffer, with the folded-norm epilogue fused into the
        // int8 GEMM's dequant pass (train/calibration never take this
        // branch — they run `prepacked == false`).
        if prepacked && self.packed_weights.precision() == Precision::Int8Act {
            debug_assert!(!keep_cols, "whole-int8 path is inference-only");
            crate::layers::int8act::forward_int8act(
                x.data(),
                batch,
                geo,
                &self.packed_weights,
                out.data_mut(),
                self.out_c,
                ep,
            );
            return None;
        }
        let run = |a: &[f32], out: &mut [f32], m: usize| {
            if prepacked {
                self.packed_weights.gemm(a, out, m, fan_in, self.out_c, ep);
            } else {
                gemm_fused(a, self.weight.value.data(), out, m, fan_in, self.out_c, ep);
            }
        };
        if self.k == 1 && self.stride == 1 {
            // Stacked HWC frames are already the stacked im2col matrix.
            run(x.data(), out.data_mut(), rows);
            keep_cols.then(|| x.clone().reshape(vec![rows, self.in_c]))
        } else if !keep_cols && self.in_c <= STREAMED_MAX_IN_C {
            im2col_gemm_streamed(x.data(), batch, geo, out.data_mut(), self.out_c, run);
            None
        } else {
            let mut cols = ws.take(&[rows, fan_in]);
            if x.rank() == 3 {
                im2col_into(x, geo, &mut cols);
            } else {
                im2col_batch_into(x, batch, geo, &mut cols);
            }
            run(cols.data(), out.data_mut(), rows);
            if keep_cols {
                Some(cols)
            } else {
                ws.recycle(cols);
                None
            }
        }
    }
}

/// Widest input (channels) a `k > 1` [`ConvBnRelu`] streams its im2col
/// patches for instead of materializing them. A stem's patch matrix is
/// large next to its GEMM work (27 taps per output row for RGB 3×3), and
/// its weight panels fit in L1, so re-reading them once per gathered tile
/// is free; deeper convolutions have the opposite balance.
const STREAMED_MAX_IN_C: usize = 4;

impl Layer for ConvBnRelu {
    fn layer_type(&self) -> &'static str {
        "conv_bn_relu"
    }

    fn forward(&mut self, x: &Tensor, phase: Phase) -> Tensor {
        self.forward_ws(x, phase, &mut Workspace::new())
    }

    fn forward_ws(&mut self, x: &Tensor, phase: Phase, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(x.dims());
        let positions = geo.positions();
        let mut out = ws.take(&[positions, self.out_c]);
        if phase == Phase::Inference {
            // The whole unit in one pass: GEMM + bias + folded norm + ReLU,
            // against the cached pre-packed weight panels.
            self.ensure_packed();
            let ep = Epilogue {
                bias: Some(self.bias.value.data()),
                scale_shift: Some((&self.norm.scale, &self.norm.shift)),
                relu: true,
            };
            self.run_gemm(x, 1, &geo, &mut out, ep, ws, false, true);
        } else {
            // Training: stage at pre-ReLU so backward can mask exactly.
            let ep = Epilogue {
                bias: Some(self.bias.value.data()),
                scale_shift: Some((&self.norm.scale, &self.norm.shift)),
                relu: false,
            };
            let cols = self
                .run_gemm(x, 1, &geo, &mut out, ep, ws, true, false)
                .expect("train path keeps cols");
            let pre_relu = out.clone();
            for v in out.data_mut() {
                *v = v.max(0.0);
            }
            self.cache.push((geo, cols, pre_relu));
        }
        out.reshape_to(&[geo.out_h, geo.out_w, self.out_c]);
        out
    }

    fn forward_batch_ws(&mut self, x: &Tensor, batch: usize, ws: &mut Workspace) -> Tensor {
        assert!(batch > 0, "empty batch");
        assert_eq!(x.rank(), 4, "batched ConvBnRelu expects [B, H, W, C]");
        let geo = self.geometry(&x.dims()[1..]);
        // The whole unit for the whole batch in one pass: a single
        // prepacked GEMM over the stacked im2col rows streams each packed
        // weight panel once per *batch* instead of once per frame — the
        // panel-reuse amortization that motivates batching. Per-row
        // accumulation order and the fused epilogue are unchanged, so each
        // frame's slice is bit-identical to the single-frame inference path.
        self.ensure_packed();
        let ep = Epilogue {
            bias: Some(self.bias.value.data()),
            scale_shift: Some((&self.norm.scale, &self.norm.shift)),
            relu: true,
        };
        let mut out = ws.take(&[batch * geo.positions(), self.out_c]);
        self.run_gemm(x, batch, &geo, &mut out, ep, ws, false, true);
        out.reshape_to(&[batch, geo.out_h, geo.out_w, self.out_c]);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (geo, cols, pre_relu) = self
            .cache
            .pop()
            .expect("ConvBnRelu::backward without cached forward");
        let positions = geo.positions();
        // ReLU mask, then the folded norm's scale, gives the gradient at the
        // conv (pre-bias-norm) output.
        let mut g = grad_out.clone().reshape(vec![positions, self.out_c]);
        for (row, pre) in g
            .data_mut()
            .chunks_mut(self.out_c)
            .zip(pre_relu.data().chunks(self.out_c))
        {
            for ((gv, &z), &s) in row.iter_mut().zip(pre).zip(&self.norm.scale) {
                *gv = if z > 0.0 { *gv * s } else { 0.0 };
            }
        }
        self.weight_epoch += 1; // weights are about to change
        self.weight.accumulate(&matmul_transpose_a(&cols, &g));
        let mut db = Tensor::zeros(vec![self.out_c]);
        for row in g.data().chunks(self.out_c) {
            for (d, &gv) in db.data_mut().iter_mut().zip(row) {
                *d += gv;
            }
        }
        self.bias.accumulate(&db);
        let dcols = matmul_transpose_b(&g, &self.weight.value);
        if self.k == 1 && self.stride == 1 {
            dcols.reshape(vec![geo.in_h, geo.in_w, self.in_c])
        } else {
            col2im(&dcols, &geo)
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weight_epoch += 1; // caller may mutate weights through these
        vec![&mut self.weight, &mut self.bias]
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(in_shape);
        vec![geo.out_h, geo.out_w, self.out_c]
    }

    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        // The norm folds into the conv in deployment; ReLU is free. Same
        // accounting as the separate layers (paper §4.5).
        let geo = self.geometry(in_shape);
        crate::cost::conv_madds(geo.out_h, geo.out_w, self.in_c, self.k, self.out_c)
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }

    fn set_precision(&mut self, precision: Precision) {
        if self.packed_weights.precision() == precision {
            return;
        }
        self.packed_weights = PackedPanels::empty(precision);
        self.packed_epoch = 0; // force a repack at the next inference
    }

    fn calibrate(&mut self, samples: Vec<Tensor>) -> Vec<Tensor> {
        // Conv (with bias, no norm/ReLU) on every sample, fit the norm from
        // those activations, then return the full unit's outputs — exactly
        // the calibration flow of the separate conv → bn → relu layers.
        let mut ws = Workspace::new();
        let pre: Vec<Tensor> = samples
            .iter()
            .map(|x| {
                let geo = self.geometry(x.dims());
                let mut out = ws.take(&[geo.positions(), self.out_c]);
                let ep = Epilogue {
                    bias: Some(self.bias.value.data()),
                    ..Epilogue::default()
                };
                self.run_gemm(x, 1, &geo, &mut out, ep, &mut ws, false, false);
                out.reshape_to(&[geo.out_h, geo.out_w, self.out_c]);
                out
            })
            .collect();
        self.norm.fit(&pre);
        pre.into_iter()
            .map(|mut t| {
                for cell in t.data_mut().chunks_mut(self.out_c) {
                    for ((v, &s), &b) in cell.iter_mut().zip(&self.norm.scale).zip(&self.norm.shift)
                    {
                        *v = (*v * s + b).max(0.0);
                    }
                }
                t
            })
            .collect()
    }
}

/// Fused depthwise convolution + folded BN + ReLU (a MobileNet `dw` unit).
///
/// Weights are `[kh, kw, c]` like [`crate::DepthwiseConv2d`].
pub struct DepthwiseBnRelu {
    k: usize,
    stride: usize,
    padding: Padding,
    c: usize,
    weight: Param,
    bias: Param,
    norm: FoldedNorm,
    /// Train-phase cache: (geometry, input, pre-ReLU output).
    cache: Vec<(Conv2dGeometry, Tensor, Tensor)>,
    /// Inference weight store for [`Layer::set_precision`]; training and
    /// calibration always use the raw f32 weights.
    taps: crate::layers::depthwise::TapWeightStore,
    /// Bumped by every mutation access point so the quantized cache
    /// notices weight changes.
    weight_epoch: u64,
}

impl std::fmt::Debug for DepthwiseBnRelu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DepthwiseBnRelu({0}x{0} s{1} c{2})",
            self.k, self.stride, self.c
        )
    }
}

impl DepthwiseBnRelu {
    /// Creates a SAME-padded fused depthwise unit.
    pub fn new(k: usize, stride: usize, c: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = k * k;
        DepthwiseBnRelu {
            k,
            stride,
            padding: Padding::Same,
            c,
            weight: Param::new(ff_tensor::he_normal(&mut rng, vec![k, k, c], fan_in)),
            bias: Param::new(Tensor::zeros(vec![c])),
            norm: FoldedNorm::identity(c),
            cache: Vec::new(),
            taps: crate::layers::depthwise::TapWeightStore::new(),
            weight_epoch: 1,
        }
    }

    /// Whether calibration has fit the folded norm.
    pub fn is_calibrated(&self) -> bool {
        self.norm.calibrated
    }

    /// The storage precision of the inference weights.
    pub fn precision(&self) -> Precision {
        self.taps.precision()
    }

    fn geometry(&self, in_shape: &[usize]) -> Conv2dGeometry {
        assert_eq!(in_shape.len(), 3, "DepthwiseBnRelu expects HWC input");
        assert_eq!(
            in_shape[2], self.c,
            "DepthwiseBnRelu expects {} channels, got {}",
            self.c, in_shape[2]
        );
        Conv2dGeometry::resolve(
            (in_shape[0], in_shape[1], in_shape[2]),
            (self.k, self.k),
            self.stride,
            self.padding,
        )
    }

    /// The shared depthwise kernel (see
    /// [`crate::layers::depthwise::depthwise_forward`]) with the folded
    /// `norm+ReLU` tail fused when `fuse_tail`, run against `weight`
    /// (the raw trainable weights, or the precision store's copy).
    fn run(
        &self,
        x: &Tensor,
        geo: &Conv2dGeometry,
        weight: &[f32],
        out: &mut Tensor,
        fuse_tail: bool,
    ) {
        let tail = fuse_tail.then_some((&self.norm.scale[..], &self.norm.shift[..]));
        crate::layers::depthwise::depthwise_forward(
            x,
            geo,
            self.k,
            weight,
            self.bias.value.data(),
            tail,
            out,
        );
    }
}

impl Layer for DepthwiseBnRelu {
    fn layer_type(&self) -> &'static str {
        "depthwise_bn_relu"
    }

    fn forward(&mut self, x: &Tensor, phase: Phase) -> Tensor {
        self.forward_ws(x, phase, &mut Workspace::new())
    }

    fn forward_ws(&mut self, x: &Tensor, phase: Phase, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(x.dims());
        let mut out = ws.take(&[geo.out_h, geo.out_w, self.c]);
        if phase == Phase::Inference {
            let w = self
                .taps
                .effective(self.weight.value.data(), self.c, self.weight_epoch);
            let tail = Some((&self.norm.scale[..], &self.norm.shift[..]));
            crate::layers::depthwise::depthwise_forward(
                x,
                &geo,
                self.k,
                w,
                self.bias.value.data(),
                tail,
                &mut out,
            );
        } else {
            self.run(x, &geo, self.weight.value.data(), &mut out, false);
            // Stage: apply norm (pre-ReLU) for the cache, then ReLU.
            for cell in out.data_mut().chunks_mut(self.c) {
                for ((v, &s), &t) in cell.iter_mut().zip(&self.norm.scale).zip(&self.norm.shift) {
                    *v = *v * s + t;
                }
            }
            let pre_relu = out.clone();
            for v in out.data_mut() {
                *v = v.max(0.0);
            }
            self.cache.push((geo, x.clone(), pre_relu));
        }
        out
    }

    fn forward_batch_ws(&mut self, x: &Tensor, batch: usize, ws: &mut Workspace) -> Tensor {
        assert!(batch > 0, "empty batch");
        assert_eq!(x.rank(), 4, "batched DepthwiseBnRelu expects [B, H, W, C]");
        let geo = self.geometry(&x.dims()[1..]);
        let mut out = ws.take(&[batch, geo.out_h, geo.out_w, self.c]);
        let w = self
            .taps
            .effective(self.weight.value.data(), self.c, self.weight_epoch);
        crate::layers::depthwise::depthwise_forward_batch(
            x,
            batch,
            &geo,
            self.k,
            w,
            self.bias.value.data(),
            Some((&self.norm.scale[..], &self.norm.shift[..])),
            &mut out,
        );
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (geo, x, pre_relu) = self
            .cache
            .pop()
            .expect("DepthwiseBnRelu::backward without cached forward");
        let c = self.c;
        let k = self.k;
        let (in_h, in_w) = (geo.in_h, geo.in_w);
        assert_eq!(grad_out.dims(), &[geo.out_h, geo.out_w, c]);
        // ReLU mask + norm scale.
        let mut g = grad_out.clone();
        for (row, pre) in g.data_mut().chunks_mut(c).zip(pre_relu.data().chunks(c)) {
            for ((gv, &z), &s) in row.iter_mut().zip(pre).zip(&self.norm.scale) {
                *gv = if z > 0.0 { *gv * s } else { 0.0 };
            }
        }
        let mut dx = Tensor::zeros(vec![in_h, in_w, c]);
        let mut dw = Tensor::zeros(vec![k, k, c]);
        let mut db = Tensor::zeros(vec![c]);
        let gd = g.data();
        let xd = x.data();
        let wd = self.weight.value.data();
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let gcell = &gd[(oy * geo.out_w + ox) * c..][..c];
                for (d, &gv) in db.data_mut().iter_mut().zip(gcell) {
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
                            dw.data_mut()[base_w + ch] += xd[base_x + ch] * gcell[ch];
                            dx.data_mut()[base_x + ch] += wd[base_w + ch] * gcell[ch];
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
        (geo.out_h * geo.out_w * self.c * self.k * self.k) as u64
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }

    fn calibrate(&mut self, samples: Vec<Tensor>) -> Vec<Tensor> {
        let mut ws = Workspace::new();
        let pre: Vec<Tensor> = samples
            .iter()
            .map(|x| {
                let geo = self.geometry(x.dims());
                let mut out = ws.take(&[geo.out_h, geo.out_w, self.c]);
                self.run(x, &geo, self.weight.value.data(), &mut out, false);
                out
            })
            .collect();
        self.norm.fit(&pre);
        pre.into_iter()
            .map(|mut t| {
                for cell in t.data_mut().chunks_mut(self.c) {
                    for ((v, &s), &b) in cell.iter_mut().zip(&self.norm.scale).zip(&self.norm.shift)
                    {
                        *v = (*v * s + b).max(0.0);
                    }
                }
                t
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationKind, ChannelNorm, Conv2d, DepthwiseConv2d, Sequential};

    fn staged_unit(k: usize, stride: usize, in_c: usize, out_c: usize, seed: u64) -> Sequential {
        let mut s = Sequential::new();
        s.push("conv", Conv2d::new(k, stride, in_c, out_c, seed));
        s.push("bn", ChannelNorm::identity(out_c));
        s.push("relu", Activation::new(ActivationKind::Relu));
        s
    }

    fn random(dims: Vec<usize>, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn fused_conv_matches_staged_unit() {
        for &(k, s) in &[(3usize, 1usize), (3, 2), (1, 1)] {
            let mut fused = ConvBnRelu::new(k, s, 3, 5, 42);
            let mut staged = staged_unit(k, s, 3, 5, 42);
            let x = random(vec![6, 7, 3], 9);
            let got = fused.forward(&x, Phase::Inference);
            let want = staged.forward(&x, Phase::Inference);
            assert!(got.approx_eq(&want, 1e-5), "k{k} s{s}");
        }
    }

    #[test]
    fn fused_conv_calibration_matches_staged() {
        let mut fused = ConvBnRelu::new(3, 1, 2, 4, 7);
        let mut staged = staged_unit(3, 1, 2, 4, 7);
        let samples: Vec<Tensor> = (0..3).map(|i| random(vec![5, 5, 2], i)).collect();
        let out_f = fused.calibrate(samples.clone());
        let out_s = staged.calibrate(samples.clone());
        assert!(fused.is_calibrated());
        for (a, b) in out_f.iter().zip(&out_s) {
            assert!(a.approx_eq(b, 1e-4));
        }
        // Post-calibration inference agrees too.
        let x = random(vec![5, 5, 2], 99);
        assert!(fused
            .forward(&x, Phase::Inference)
            .approx_eq(&staged.forward(&x, Phase::Inference), 1e-4));
    }

    #[test]
    fn fused_depthwise_matches_staged_unit() {
        let mut fused = DepthwiseBnRelu::new(3, 2, 4, 11);
        let mut staged = Sequential::new();
        staged.push("dw", DepthwiseConv2d::new(3, 2, 4, 11));
        staged.push("bn", ChannelNorm::identity(4));
        staged.push("relu", Activation::new(ActivationKind::Relu));
        let samples: Vec<Tensor> = (0..3).map(|i| random(vec![7, 6, 4], 50 + i)).collect();
        let out_f = fused.calibrate(samples.clone());
        let out_s = staged.calibrate(samples);
        for (a, b) in out_f.iter().zip(&out_s) {
            assert!(a.approx_eq(b, 1e-4));
        }
        let x = random(vec![7, 6, 4], 123);
        assert!(fused
            .forward(&x, Phase::Inference)
            .approx_eq(&staged.forward(&x, Phase::Inference), 1e-4));
    }

    #[test]
    fn fused_conv_gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut unit = ConvBnRelu::new(3, 1, 2, 3, 7);
        // Calibrate so the norm is non-trivial (scale ≠ 1).
        let _ = unit.calibrate((0..3).map(|i| random(vec![4, 4, 2], i)).collect());
        let x = Tensor::from_vec(
            vec![4, 4, 2],
            (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let out = unit.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = unit.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 7, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (unit.forward(&xp, Phase::Inference).sum()
                - unit.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
        for &i in &[0usize, 10, 50] {
            // Direct weight pokes go through params_mut so the packed-panel
            // cache notices (the documented mutation contract).
            let orig = unit.params_mut()[0].value.data()[i];
            unit.params_mut()[0].value.data_mut()[i] = orig + eps;
            let fp = unit.forward(&x, Phase::Inference).sum();
            unit.params_mut()[0].value.data_mut()[i] = orig - eps;
            let fm = unit.forward(&x, Phase::Inference).sum();
            unit.params_mut()[0].value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = unit.weight.grad.data()[i];
            assert!((num - ana).abs() < 2e-2, "dW[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn fused_depthwise_gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut unit = DepthwiseBnRelu::new(3, 2, 2, 4);
        let _ = unit.calibrate((0..3).map(|i| random(vec![5, 5, 2], i)).collect());
        let x = Tensor::from_vec(
            vec![5, 5, 2],
            (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let out = unit.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = unit.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 13, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (unit.forward(&xp, Phase::Inference).sum()
                - unit.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 2e-2, "dx[{i}]");
        }
    }

    #[test]
    fn stem_matches_materialized_im2col_gemm_bit_for_bit() {
        use ff_tensor::{im2col_batch_into, Padding};
        // An RGB 3×3 stride-2 stem streams its patches; the reference
        // lowers the whole im2col matrix and runs one GEMM with the same
        // fused epilogue. Odd sizes put SAME padding on every border.
        let mut stem = ConvBnRelu::new(3, 2, 3, 20, 5);
        let _ = stem.calibrate((0..2).map(|i| random(vec![13, 11, 3], 70 + i)).collect());
        for &(h, w) in &[(13usize, 11usize), (9, 16), (5, 3)] {
            for batch in [1usize, 3] {
                let frames: Vec<Tensor> = (0..batch)
                    .map(|b| random(vec![h, w, 3], (h * w + b) as u64))
                    .collect();
                let stacked = Tensor::from_vec(
                    vec![batch, h, w, 3],
                    frames.iter().flat_map(|f| f.data().to_vec()).collect(),
                );
                let geo = Conv2dGeometry::resolve((h, w, 3), (3, 3), 2, Padding::Same);
                let rows = batch * geo.positions();
                let mut cols = Tensor::zeros(vec![rows, geo.fan_in()]);
                im2col_batch_into(&stacked, batch, &geo, &mut cols);
                let mut want = vec![0.0; rows * 20];
                let ep = Epilogue {
                    bias: Some(stem.bias.value.data()),
                    scale_shift: Some((&stem.norm.scale, &stem.norm.shift)),
                    relu: true,
                };
                let wts = stem.weight.value.data().to_vec();
                gemm_fused(cols.data(), &wts, &mut want, rows, geo.fan_in(), 20, ep);
                let got = stem.forward_batch_ws(&stacked, batch, &mut Workspace::new());
                assert_eq!(got.data(), &want[..], "{h}x{w} B={batch}");
                let per_frame = geo.positions() * 20;
                for (b, f) in frames.iter().enumerate() {
                    let single = stem.forward(f, Phase::Inference);
                    assert_eq!(
                        single.data(),
                        &want[b * per_frame..(b + 1) * per_frame],
                        "{h}x{w} frame {b} alone"
                    );
                }
            }
        }
    }

    #[test]
    fn cost_and_params_match_separate_layers() {
        let fused = ConvBnRelu::new(3, 2, 8, 16, 0);
        let conv = Conv2d::new(3, 2, 8, 16, 0);
        assert_eq!(
            fused.multiply_adds(&[10, 10, 8]),
            conv.multiply_adds(&[10, 10, 8])
        );
        assert_eq!(fused.param_count(), conv.param_count());
        assert_eq!(fused.out_shape(&[10, 10, 8]), conv.out_shape(&[10, 10, 8]));
    }
}
