//! Packed, cache-blocked, threaded matrix multiplication.
//!
//! `C[M,N] = A[M,K] · B[K,N]`, the single hot kernel of the whole
//! reproduction: convolutions lower to it through im2col (or directly, for
//! 1×1 kernels), and dense layers call it for `M = 1`.
//!
//! # Kernel structure
//!
//! For matrices big enough to care, `B` is first packed into `NR`-wide
//! column panels laid out k-major (`panel[k][0..NR]` contiguous), then row
//! blocks of `C` are computed in parallel with an `MR×NR` register-tiled
//! micro-kernel that streams each packed panel sequentially. The packing
//! buffer is a reused thread-local, so steady-state calls allocate nothing.
//!
//! Tiny problems (`M < 8`, e.g. dense layers on vectors) skip packing: a
//! plain k-major loop is already optimal when the single output row stays
//! in L1.
//!
//! # Determinism
//!
//! Every output element accumulates its `K` products in ascending-`k` order
//! in **all** paths (packed, unpacked, any thread count), so results are
//! bit-for-bit identical across `set_threads(1..)` and equal to the naive
//! triple loop.

use crate::parallel::{parallel_row_blocks_mut, parallel_rows_mut, threads};
use crate::Tensor;
use std::cell::RefCell;

/// Micro-kernel tile height (rows of `A`/`C` per register tile). Shared with
/// the reduced-precision kernels in [`crate::lowp`].
pub(crate) const MR: usize = 4;
/// Micro-kernel tile width (columns of packed `B` per register tile).
/// Sixteen `f32` lanes = two AVX2 vectors per row; `MR·NR/8 = 8` ymm
/// accumulators leave registers for broadcasts and panel loads.
pub(crate) const NR: usize = 16;

/// Fused (or plain, off FMA targets) multiply-add. Every GEMM path — packed,
/// unpacked, both transpose kernels, and the reduced-precision panel kernels
/// in [`crate::lowp`] — funnels through this, so all paths share one
/// rounding behavior and stay bit-identical to each other.
#[inline(always)]
pub(crate) fn fmadd(acc: f32, a: f32, b: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}
/// Below this many `A` rows the packed path cannot amortize packing `B`.
const MIN_ROWS_FOR_PACKING: usize = 8;
/// Minimum `M·N` before a GEMM is worth dispatching to the thread pool.
pub(crate) const MIN_ELEMS_FOR_THREADS: usize = 32 * 1024;

thread_local! {
    /// Reused packing buffer for `B` panels (and the transpose scratch of
    /// [`matmul_transpose_a`]); grows to the largest problem seen, then
    /// steady-state GEMMs allocate nothing.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `A · B` for rank-2 tensors.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = mat_dims(a, "A");
    let (_, n) = mat_dims(b, "B");
    let mut out = Tensor::zeros(vec![m, n]);
    matmul_into(a, b, &mut out);
    out
}

/// `A · B` written into a pre-allocated `out` (shape `[M, N]`).
///
/// Every element of `out` is overwritten; its prior contents are ignored.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = mat_dims(a, "A");
    let (k2, n) = mat_dims(b, "B");
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    assert_eq!(out.dims(), &[m, n], "matmul output shape");
    gemm(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// Per-column epilogue fused into a GEMM: the packed path applies it to each
/// micro-kernel tile's accumulators just before the store, in the order
/// `acc + bias` → `·scale + shift` → `max(0, ·)`. This is what lets a
/// convolution, its folded batch-norm, and its ReLU write their output
/// **once** instead of making three passes over it
/// (separate layer passes are memory-bound and were costing more than the
/// GEMM itself on the MobileNet hot path).
#[derive(Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-output-column bias, added first.
    pub bias: Option<&'a [f32]>,
    /// Per-output-column affine `(scale, shift)` — a folded batch-norm.
    pub scale_shift: Option<(&'a [f32], &'a [f32])>,
    /// Clamp at zero (ReLU) as the final step.
    pub relu: bool,
}

impl Epilogue<'_> {
    fn is_noop(&self) -> bool {
        self.bias.is_none() && self.scale_shift.is_none() && !self.relu
    }

    /// Applies the epilogue to one `[rows × n]` row block.
    pub(crate) fn apply(&self, block: &mut [f32], n: usize) {
        if self.is_noop() {
            return;
        }
        for row in block.chunks_mut(n) {
            self.apply_cols(row, 0);
        }
    }

    /// Applies the epilogue to output columns `j0..j0 + row.len()` of one
    /// row — a micro-kernel tile row still held in its accumulators.
    #[inline(always)]
    fn apply_cols(&self, row: &mut [f32], j0: usize) {
        if let Some(bias) = self.bias {
            for (v, &b) in row.iter_mut().zip(&bias[j0..]) {
                *v += b;
            }
        }
        if let Some((scale, shift)) = self.scale_shift {
            for ((v, &s), &t) in row.iter_mut().zip(&scale[j0..]).zip(&shift[j0..]) {
                *v = fmadd(t, *v, s);
            }
        }
        if self.relu {
            for v in row.iter_mut() {
                // Written the way `maxps(v, 0)` evaluates it (0 for -0.0
                // and NaN), so the scalar and SIMD epilogues agree in every
                // build: unoptimized, `f32::max` calls libm, which keeps
                // -0.0.
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
    }
}

/// Raw-slice GEMM: `out[M,N] = a[M,K] · b[K,N]`, all row-major. The public
/// entry point for callers that already hold correctly-shaped buffers (the
/// 1×1-convolution fast path feeds HWC feature maps here directly, skipping
/// both im2col and any reshape copy).
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_fused(a, b, out, m, k, n, Epilogue::default());
}

/// [`gemm`] with a fused per-column [`Epilogue`].
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions, or an
/// epilogue slice is shorter than `n`.
pub fn gemm_fused(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    assert_eq!(b.len(), k * n, "gemm B buffer");
    check_gemm_args(a, out, m, k, n, &ep);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        ep.apply(out, n);
        return;
    }
    if m < MIN_ROWS_FOR_PACKING {
        gemm_unpacked(a, b, out, k, n);
        ep.apply(out, n);
        return;
    }
    PACK_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let packed_len = packed_panels_len(k, n);
        if buf.len() < packed_len {
            buf.resize(packed_len, 0.0);
        }
        let packed = &mut buf[..packed_len];
        pack_b(b, packed, k, n);
        gemm_packed_driver(a, packed, out, m, k, n, ep);
    });
}

/// Length of the panel buffer [`pack_b_panels_into`] needs for a `[K, N]`
/// matrix.
pub fn packed_panels_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs a row-major `[K, N]` matrix into the micro-kernel's panel layout.
/// Callers with a static `B` (e.g. convolution weights during streaming
/// inference) pack once and reuse via [`gemm_prepacked`], eliminating the
/// per-call packing traffic.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the dimensions.
pub fn pack_b_panels_into(b: &[f32], packed: &mut [f32], k: usize, n: usize) {
    assert_eq!(b.len(), k * n, "pack B buffer");
    assert_eq!(packed.len(), packed_panels_len(k, n), "pack output buffer");
    pack_b(b, packed, k, n);
}

/// [`gemm_fused`] against a pre-packed `B` (see [`pack_b_panels_into`]).
/// Bit-identical to the packing variants for the same operands.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the dimensions, or an epilogue
/// slice is shorter than `n`.
pub fn gemm_prepacked(
    a: &[f32],
    packed_b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    assert_eq!(
        packed_b.len(),
        packed_panels_len(k, n),
        "gemm packed-B buffer"
    );
    check_gemm_args(a, out, m, k, n, &ep);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        ep.apply(out, n);
        return;
    }
    gemm_packed_driver(a, packed_b, out, m, k, n, ep);
}

pub(crate) fn check_gemm_args(a: &[f32], out: &[f32], m: usize, k: usize, n: usize, ep: &Epilogue) {
    assert_eq!(a.len(), m * k, "gemm A buffer");
    assert_eq!(out.len(), m * n, "gemm C buffer");
    if let Some(b) = ep.bias {
        assert!(b.len() >= n, "epilogue bias too short");
    }
    if let Some((s, t)) = ep.scale_shift {
        assert!(
            s.len() >= n && t.len() >= n,
            "epilogue scale/shift too short"
        );
    }
}

/// Shared packed-path driver: splits `out` into row blocks (thread pool when
/// big enough) and runs the micro-kernels per block. The micro-kernels apply
/// the epilogue to their accumulators before the store, so every output
/// element is written exactly once.
fn gemm_packed_driver(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    let parallel = m * n >= MIN_ELEMS_FOR_THREADS;
    let t = if parallel { threads() } else { 1 };
    parallel_row_blocks_mut(out, n, t, |row0, block| {
        gemm_packed_rows(a, packed, block, row0, k, n, &ep);
    });
}

/// Packs row-major `b[K,N]` into `ceil(N/NR)` k-major panels of width `NR`,
/// zero-padding the ragged final panel.
fn pack_b(b: &[f32], packed: &mut [f32], k: usize, n: usize) {
    let panels = n.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = (n - j0).min(NR);
        let dst = &mut packed[jp * NR * k..(jp + 1) * NR * k];
        for kk in 0..k {
            let src = &b[kk * n + j0..kk * n + j0 + w];
            let cell = &mut dst[kk * NR..kk * NR + NR];
            cell[..w].copy_from_slice(src);
            cell[w..].fill(0.0);
        }
    }
}

/// Computes `block` (rows `row0..row0 + block.len()/n` of `C`) from `a` and
/// packed `B` panels, epilogue included.
fn gemm_packed_rows(
    a: &[f32],
    packed: &[f32],
    block: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    ep: &Epilogue,
) {
    let rows = block.len() / n;
    let panels = n.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = (n - j0).min(NR);
        let panel = &packed[jp * NR * k..(jp + 1) * NR * k];
        let mut r = 0;
        while r + MR <= rows {
            micro_kernel_mr(a, panel, block, row0 + r, r, j0, w, k, n, ep);
            r += MR;
        }
        while r < rows {
            micro_kernel_1(a, panel, block, row0 + r, r, j0, w, k, n, ep);
            r += 1;
        }
    }
}

/// `MR×NR` register tile: C[r..r+MR][j0..j0+w] = ep(Σ_k A[r..][k] · panel[k][..]).
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel_mr(
    a: &[f32],
    panel: &[f32],
    block: &mut [f32],
    a_row: usize,
    c_row: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    ep: &Epilogue,
) {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        assert!(
            a.len() >= (a_row + MR) * k
                && panel.len() >= k * NR
                && block.len() >= (c_row + MR - 1) * n + j0 + w
                && j0 + w <= n
                && w <= NR
                && ep.bias.is_none_or(|b| b.len() >= n)
                && ep
                    .scale_shift
                    .is_none_or(|(s, t)| s.len() >= n && t.len() >= n),
            "micro-kernel tile out of bounds"
        );
        // SAFETY: avx2+fma are compile-time target features here, and the
        // assert above is exactly the contract of `micro_kernel_mr_avx2`.
        unsafe { micro_kernel_mr_avx2(a, panel, block, a_row, c_row, j0, w, k, n, ep) }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        micro_kernel_mr_generic(a, panel, block, a_row, c_row, j0, w, k, n, ep)
    }
}

/// Portable `MR×NR` tile (LLVM auto-vectorizes the inner loop).
#[allow(clippy::too_many_arguments)]
#[allow(dead_code)]
#[inline]
fn micro_kernel_mr_generic(
    a: &[f32],
    panel: &[f32],
    block: &mut [f32],
    a_row: usize,
    c_row: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    ep: &Epilogue,
) {
    let mut acc = [[0.0f32; NR]; MR];
    let a0 = &a[a_row * k..(a_row + 1) * k];
    let a1 = &a[(a_row + 1) * k..(a_row + 2) * k];
    let a2 = &a[(a_row + 2) * k..(a_row + 3) * k];
    let a3 = &a[(a_row + 3) * k..(a_row + 4) * k];
    for kk in 0..k {
        let bk = &panel[kk * NR..kk * NR + NR];
        let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
        for (accr, &ar) in acc.iter_mut().zip(&av) {
            for (c, &bv) in accr.iter_mut().zip(bk) {
                *c = fmadd(*c, ar, bv);
            }
        }
    }
    for (r, accr) in acc.iter_mut().enumerate() {
        ep.apply_cols(&mut accr[..w], j0);
        let dst = &mut block[(c_row + r) * n + j0..(c_row + r) * n + j0 + w];
        dst.copy_from_slice(&accr[..w]);
    }
}

/// Hand-scheduled AVX2+FMA `4×16` tile: eight ymm accumulators, two panel
/// loads and four broadcasts per `k` step. Lane-wise FMAs accumulate in the
/// same ascending-`k` order as the portable kernel's `mul_add` chain, so
/// results are bit-identical to it.
///
/// The epilogue runs on the accumulators before the store, lane for lane
/// the scalar [`Epilogue::apply_cols`]: `add` (bias), `fmadd(v, scale,
/// shift)` (folded norm), then `max(v, 0)` — `maxps` returns its second
/// operand on ties and NaNs, exactly like the scalar ReLU. Ragged
/// tiles (`w < NR`) spill to a stack row and run the scalar epilogue, so no
/// epilogue slice is read past column `n`.
///
/// # Safety
///
/// Caller must guarantee avx2+fma are available (compile-time gated at the
/// call site) and the geometry invariants: `a` holds rows `a_row..a_row +
/// MR` of length `k`, `panel` holds `k·NR` floats, `block` holds rows
/// `c_row..c_row + MR` of length `n` with `j0 + w ≤ n` and `w ≤ NR`, and
/// every epilogue slice holds at least `n` columns.
#[allow(clippy::too_many_arguments)]
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
#[inline]
unsafe fn micro_kernel_mr_avx2(
    a: &[f32],
    panel: &[f32],
    block: &mut [f32],
    a_row: usize,
    c_row: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    ep: &Epilogue,
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 16 && MR == 4) };
    // SAFETY: every pointer offset below stays inside the slices by the
    // function's geometry contract: A reads `(a_row + r)·k + kk < (a_row +
    // MR)·k`, panel reads `kk·NR + 15 < k·NR`, full-tile stores and
    // epilogue loads touch columns `j0..j0 + NR ≤ n`.
    unsafe {
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(pp.add(kk * NR));
            let b1 = _mm256_loadu_ps(pp.add(kk * NR + 8));
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add((a_row + r) * k + kk));
                accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
            }
        }
        if w == NR {
            if let Some(bias) = ep.bias {
                let b = [0, 8].map(|h| _mm256_loadu_ps(bias.as_ptr().add(j0 + h)));
                for accr in &mut acc {
                    accr[0] = _mm256_add_ps(accr[0], b[0]);
                    accr[1] = _mm256_add_ps(accr[1], b[1]);
                }
            }
            if let Some((scale, shift)) = ep.scale_shift {
                let s = [0, 8].map(|h| _mm256_loadu_ps(scale.as_ptr().add(j0 + h)));
                let t = [0, 8].map(|h| _mm256_loadu_ps(shift.as_ptr().add(j0 + h)));
                for accr in &mut acc {
                    accr[0] = _mm256_fmadd_ps(accr[0], s[0], t[0]);
                    accr[1] = _mm256_fmadd_ps(accr[1], s[1], t[1]);
                }
            }
            if ep.relu {
                let zero = _mm256_setzero_ps();
                for accr in &mut acc {
                    accr[0] = _mm256_max_ps(accr[0], zero);
                    accr[1] = _mm256_max_ps(accr[1], zero);
                }
            }
            let cp = block.as_mut_ptr();
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(cp.add((c_row + r) * n + j0), accr[0]);
                _mm256_storeu_ps(cp.add((c_row + r) * n + j0 + 8), accr[1]);
            }
        } else {
            let mut tmp = [0.0f32; NR];
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(tmp.as_mut_ptr(), accr[0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(8), accr[1]);
                ep.apply_cols(&mut tmp[..w], j0);
                block[(c_row + r) * n + j0..(c_row + r) * n + j0 + w].copy_from_slice(&tmp[..w]);
            }
        }
    }
}

/// Single-row remainder of [`micro_kernel_mr`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel_1(
    a: &[f32],
    panel: &[f32],
    block: &mut [f32],
    a_row: usize,
    c_row: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    ep: &Epilogue,
) {
    let mut acc = [0.0f32; NR];
    let ar = &a[a_row * k..(a_row + 1) * k];
    for (kk, &av) in ar.iter().enumerate() {
        let bk = &panel[kk * NR..kk * NR + NR];
        for (c, &bv) in acc.iter_mut().zip(bk) {
            *c = fmadd(*c, av, bv);
        }
    }
    ep.apply_cols(&mut acc[..w], j0);
    block[c_row * n + j0..c_row * n + j0 + w].copy_from_slice(&acc[..w]);
}

/// Small-`M` path: dense k-major accumulation without packing. The output
/// row stays resident in L1, and `B` is streamed row-major exactly once per
/// output row.
fn gemm_unpacked(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    for (i, c_row) in out.chunks_mut(n).enumerate() {
        c_row.fill(0.0);
        let a_row = &a[i * k..(i + 1) * k];
        for (kk, &aik) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c = fmadd(*c, aik, bv);
            }
        }
    }
}

/// `Aᵀ · B` without materializing the transpose.
///
/// Used by convolution backward passes (weight gradients): with `A` the
/// im2col matrix `[positions, fan_in]` and `B` the output gradient
/// `[positions, c_out]`, this yields the weight gradient `[fan_in, c_out]`.
///
/// Output rows are tiled by four so each streamed row of `B` feeds four
/// accumulator rows (4× less `B` traffic than the row-at-a-time loop).
///
/// # Panics
///
/// Panics if operands are not rank-2 or the row counts disagree.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A"); // computes Aᵀ (k×m) · B (m×n)
    let (m2, n) = mat_dims(b, "B");
    assert_eq!(m, m2, "matmul_transpose_a outer dims: {m} vs {m2}");
    let mut out = Tensor::zeros(vec![k, n]);
    let (ad, bd) = (a.data(), b.data());
    let t = if k * n >= MIN_ELEMS_FOR_THREADS {
        threads()
    } else {
        1
    };
    parallel_row_blocks_mut(out.data_mut(), n, t, |row0, block| {
        let rows = block.len() / n;
        let mut r = 0;
        // Four output rows (= four adjacent A columns) per pass over B.
        while r + 4 <= rows {
            let (rs, rest) = block[r * n..].split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3x) = rest.split_at_mut(n);
            let r3 = &mut r3x[..n];
            for i in 0..m {
                let ai = &ad[i * k + row0 + r..i * k + row0 + r + 4];
                let b_row = &bd[i * n..(i + 1) * n];
                for ((((c0, c1), c2), c3), &bv) in rs
                    .iter_mut()
                    .zip(r1.iter_mut())
                    .zip(r2.iter_mut())
                    .zip(r3.iter_mut())
                    .zip(b_row)
                {
                    *c0 = fmadd(*c0, ai[0], bv);
                    *c1 = fmadd(*c1, ai[1], bv);
                    *c2 = fmadd(*c2, ai[2], bv);
                    *c3 = fmadd(*c3, ai[3], bv);
                }
            }
            r += 4;
        }
        while r < rows {
            let c_row = &mut block[r * n..(r + 1) * n];
            let kk = row0 + r;
            for i in 0..m {
                let aik = ad[i * k + kk];
                let b_row = &bd[i * n..(i + 1) * n];
                for (c, &bv) in c_row.iter_mut().zip(b_row) {
                    *c = fmadd(*c, aik, bv);
                }
            }
            r += 1;
        }
    });
    out
}

/// `A · Bᵀ` without materializing the transpose.
///
/// Used by dense-layer backward passes (input gradients). Output columns
/// are tiled by eight so each pass over an `A` row computes eight dot
/// products against eight streamed `B` rows.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the column counts disagree.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (n, k2) = mat_dims(b, "B"); // B is n x k, we use B^T: k x n
    assert_eq!(k, k2, "matmul_transpose_b inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(vec![m, n]);
    let (ad, bd) = (a.data(), b.data());
    parallel_rows_mut(out.data_mut(), n, |i, c_row| {
        let a_row = &ad[i * k..(i + 1) * k];
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = [0.0f32; 8];
            for (kk, &av) in a_row.iter().enumerate() {
                for (c, jj) in acc.iter_mut().zip(j..j + 8) {
                    *c = fmadd(*c, av, bd[jj * k + kk]);
                }
            }
            c_row[j..j + 8].copy_from_slice(&acc);
            j += 8;
        }
        for jj in j..n {
            let b_row = &bd[jj * k..(jj + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc = fmadd(acc, av, bv);
            }
            c_row[jj] = acc;
        }
    });
    out
}

fn mat_dims(t: &Tensor, which: &str) -> (usize, usize) {
    assert_eq!(
        t.rank(),
        2,
        "matmul operand {which} must be rank-2, got {:?}",
        t.dims()
    );
    (t.dims()[0], t.dims()[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc = fmadd(acc, a.at2(i, kk), b.at2(kk, j));
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn random(dims: Vec<usize>, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn matches_naive_small() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-5));
    }

    #[test]
    fn matches_naive_odd_sizes() {
        // Shapes straddling every path: unpacked (m < 8), packed with
        // ragged row and column tiles, and pool-dispatched.
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 7, 3),
            (17, 33, 9),
            (64, 10, 100),
            (8, 8, 8),
            (9, 16, 17),
            (33, 5, 31),
            (128, 64, 96),
            (257, 40, 130),
        ] {
            let a = random(vec![m, k], m as u64 * 31 + n as u64);
            let b = random(vec![k, n], k as u64 * 17 + 1);
            assert!(
                matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-3),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_path_is_bit_identical_to_naive() {
        // Same per-element accumulation order ⇒ bit-for-bit equality, not
        // just approximate agreement.
        let a = random(vec![40, 23], 5);
        let b = random(vec![23, 19], 6);
        assert_eq!(matmul(&a, &b), naive(&a, &b));
    }

    #[test]
    fn in_register_epilogue_matches_block_apply_bit_for_bit() {
        // Reference: the plain GEMM, then `Epilogue::apply` over the whole
        // output — the separate pass the micro-kernels replaced. Shapes
        // cover the unpacked path (m < 8), ragged MR and NR tiles, and a
        // single narrow panel; rows of zeros make exact-zero accumulators,
        // which a negative scale with a -0.0 shift turns into -0.0 before
        // the ReLU, and a NaN row checks that ReLU maps NaN to 0 in both.
        for &(m, k, n) in &[
            (3, 5, 7),
            (7, 9, 20),
            (8, 27, 32),
            (13, 27, 8),
            (37, 16, 33),
            (64, 10, 100),
        ] {
            let mut a = random(vec![m, k], (m * 7 + n) as u64).into_vec();
            a[..k].fill(0.0);
            a[2 * k..3 * k].fill(f32::NAN);
            let b = random(vec![k, n], k as u64 + 3).into_vec();
            let bias: Vec<f32> = (0..n).map(|j| [0.25, -0.0, -0.5][j % 3]).collect();
            let scale: Vec<f32> = (0..n).map(|j| [-1.5, 0.75, -0.0][j % 3]).collect();
            let shift: Vec<f32> = (0..n).map(|j| [-0.0, 0.125, -0.0][j % 3]).collect();
            let mut packed = vec![0.0; packed_panels_len(k, n)];
            pack_b_panels_into(&b, &mut packed, k, n);
            for bias in [None, Some(&bias[..])] {
                for scale_shift in [None, Some((&scale[..], &shift[..]))] {
                    for relu in [false, true] {
                        let ep = Epilogue {
                            bias,
                            scale_shift,
                            relu,
                        };
                        let mut want = vec![0.0; m * n];
                        gemm(&a, &b, &mut want, m, k, n);
                        ep.apply(&mut want, n);
                        let mut fused = vec![0.0; m * n];
                        gemm_fused(&a, &b, &mut fused, m, k, n, ep);
                        let mut prepacked = vec![0.0; m * n];
                        gemm_prepacked(&a, &packed, &mut prepacked, m, k, n, ep);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let label = format!(
                            "{m}x{k}x{n} bias={} norm={} relu={relu}",
                            bias.is_some(),
                            scale_shift.is_some()
                        );
                        assert_eq!(bits(&fused), bits(&want), "gemm_fused {label}");
                        assert_eq!(bits(&prepacked), bits(&want), "gemm_prepacked {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_k_dimension_yields_zeros() {
        let a = Tensor::zeros(vec![3, 0]);
        let b = Tensor::zeros(vec![0, 4]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[3, 4]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transpose_a_matches_explicit() {
        for &(m, k, n) in &[(7, 4, 5), (16, 9, 12), (65, 13, 33)] {
            let a = random(vec![m, k], 3);
            let b = random(vec![m, n], 4);
            let got = matmul_transpose_a(&a, &b);
            let want = matmul(&a.transpose2(), &b);
            assert!(got.approx_eq(&want, 1e-3), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn transpose_b_matches_explicit() {
        for &(m, k, n) in &[(4, 6, 5), (9, 16, 19), (33, 12, 40)] {
            let a = random(vec![m, k], 11);
            let b = random(vec![n, k], 12);
            let got = matmul_transpose_b(&a, &b);
            let want = matmul(&a, &b.transpose2());
            assert!(got.approx_eq(&want, 1e-3), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_on_raw_slices() {
        // The 1×1-conv fast path: HWC feature map as [positions, channels].
        let a = random(vec![12, 6], 7);
        let b = random(vec![6, 10], 8);
        let mut out = vec![0.0f32; 12 * 10];
        gemm(a.data(), b.data(), &mut out, 12, 6, 10);
        assert!(Tensor::from_vec(vec![12, 10], out).approx_eq(&naive(&a, &b), 1e-4));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        use crate::parallel::set_threads;
        let a = random(vec![96, 41], 21);
        let b = random(vec![41, 77], 22);
        set_threads(1);
        let gold = matmul(&a, &b);
        for t in 2..=8 {
            set_threads(t);
            assert_eq!(matmul(&a, &b), gold, "thread count {t}");
        }
        set_threads(0);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn rejects_mismatched_inner() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        let _ = matmul(&a, &b);
    }
}
