//! The [`Tensor`] type: a contiguous, row-major, `f32` n-dimensional array.

use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// Image-like data uses HWC layout (height, width, channels); matrices are
/// `[rows, cols]`. The struct keeps no strides — views are materialized by
/// copying, which keeps every downstream kernel (GEMM, im2col, the codec)
/// operating on contiguous memory.
pub struct Tensor {
    dims: Vec<usize>,
    data: Vec<f32>,
    /// High-water mark of `data`: its first `init` slots (`data.len() ≤
    /// init ≤ data.capacity()`) hold initialized floats, so
    /// [`Self::reinit`] can regrow a recycled buffer over them without
    /// zero-filling it again.
    init: usize,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let data = self.data.clone();
        Tensor {
            dims: self.dims.clone(),
            init: data.len(),
            data,
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.dims)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{}, {}, … ; {} values]",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(vec![0])
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given dimensions.
    ///
    /// ```
    /// let t = ff_tensor::Tensor::zeros(vec![2, 2]);
    /// assert_eq!(t.len(), 4);
    /// ```
    pub fn zeros(dims: Vec<usize>) -> Self {
        let n = dims.iter().product();
        Tensor {
            dims,
            data: vec![0.0; n],
            init: n,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(dims: Vec<usize>, value: f32) -> Self {
        let n = dims.iter().product();
        Tensor {
            dims,
            data: vec![value; n],
            init: n,
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`.
    pub fn from_vec(dims: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = dims.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {dims:?} needs {n} values, got {}",
            data.len()
        );
        Tensor {
            dims,
            init: data.len(),
            data,
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Dimensions of the tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: Vec<usize>) -> Self {
        let n: usize = dims.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} to {dims:?}",
            self.dims
        );
        self.dims = dims;
        self
    }

    /// Reshapes in place, reusing the shape vector's capacity (no
    /// allocation once the vector has grown to the largest rank seen).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_to(&mut self, dims: &[usize]) {
        let n: usize = dims.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} to {dims:?}",
            self.dims
        );
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// An empty tensor whose data buffer can hold `n` elements without
    /// reallocating — the seed state for [`crate::Workspace`] pooling.
    pub fn with_capacity(n: usize) -> Self {
        Tensor {
            dims: Vec::new(),
            data: Vec::with_capacity(n),
            init: 0,
        }
    }

    /// Data-buffer capacity in elements.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Shape-vector capacity (used by [`crate::Workspace`] bookkeeping).
    pub fn dims_capacity(&self) -> usize {
        self.dims.capacity()
    }

    /// Re-sizes this tensor to `dims`, reusing both vectors' capacity.
    /// Elements keep whatever the buffer last held there (zero where it
    /// never held anything). Regrowing over slots an earlier, larger use
    /// already wrote costs nothing — a recycled feature-map buffer is not
    /// zero-filled again each time a bigger map reuses it.
    pub(crate) fn reinit(&mut self, dims: &[usize]) {
        let n: usize = dims.iter().product();
        if n <= self.init {
            // SAFETY: `n ≤ init ≤ capacity`, and every slot below `init` was
            // written while this vector held it; `f32` has no drop glue, so
            // shortening the vector since then left those slots initialized.
            unsafe { self.data.set_len(n) };
        } else {
            self.data.resize(n, 0.0);
            self.init = n;
        }
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Element at `(row, col)` of a rank-2 tensor.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.dims[1] + c]
    }

    /// Element at `(h, w, c)` of a rank-3 (HWC) tensor.
    #[inline]
    pub fn at3(&self, h: usize, w: usize, c: usize) -> f32 {
        debug_assert_eq!(self.rank(), 3);
        self.data[(h * self.dims[1] + w) * self.dims[2] + c]
    }

    /// Sets the element at `(h, w, c)` of a rank-3 (HWC) tensor.
    #[inline]
    pub fn set3(&mut self, h: usize, w: usize, c: usize, v: f32) {
        debug_assert_eq!(self.rank(), 3);
        self.data[(h * self.dims[1] + w) * self.dims[2] + c] = v;
    }

    /// Copies a spatial crop `[h0..h1, w0..w1, :]` out of a rank-3 tensor.
    ///
    /// This is the feature-map crop from §3.2 of the paper: microclassifiers
    /// crop *activations*, never pixels, so the shared base-DNN pass is
    /// unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty or out of bounds.
    pub fn crop3(&self, h0: usize, h1: usize, w0: usize, w1: usize) -> Tensor {
        let mut out = Tensor::zeros(vec![
            h1.saturating_sub(h0),
            w1.saturating_sub(w0),
            self.dims().last().copied().unwrap_or(0),
        ]);
        self.crop3_into(h0, h1, w0, w1, &mut out);
        out
    }

    /// [`Self::crop3`] into a pre-allocated `[h1-h0, w1-w0, c]` tensor
    /// (e.g. from a workspace). Every element is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty/out of bounds or `out` has the
    /// wrong shape.
    pub fn crop3_into(&self, h0: usize, h1: usize, w0: usize, w1: usize, out: &mut Tensor) {
        assert_eq!(self.rank(), 3, "crop3 needs an HWC tensor");
        let (h, w, c) = (self.dims[0], self.dims[1], self.dims[2]);
        assert!(
            h0 < h1 && h1 <= h && w0 < w1 && w1 <= w,
            "crop [{h0}..{h1}, {w0}..{w1}] out of bounds for {h}x{w}"
        );
        assert_eq!(
            out.dims(),
            &[h1 - h0, w1 - w0, c],
            "crop3_into output shape"
        );
        let row_len = (w1 - w0) * c;
        for (oy, y) in (h0..h1).enumerate() {
            let src = (y * w + w0) * c;
            let dst = oy * row_len;
            out.data[dst..dst + row_len].copy_from_slice(&self.data[src..src + row_len]);
        }
    }

    /// Matrix product of two rank-2 tensors (see [`crate::matmul`]).
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        crate::matmul(self, rhs)
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 needs a matrix");
        let (r, c) = (self.dims[0], self.dims[1]);
        let mut out = Tensor::zeros(vec![c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.dims.clone(), self.data.iter().map(|&x| f(x)).collect())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.dims, rhs.dims, "zip_map shape mismatch");
        Tensor::from_vec(
            self.dims.clone(),
            self.data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// `self += rhs`, element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.dims, rhs.dims, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// `self *= s`, element-wise.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element and its flat index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max_with_index(&self) -> (f32, usize) {
        assert!(!self.data.is_empty(), "max of empty tensor");
        let mut best = (self.data[0], 0);
        for (i, &x) in self.data.iter().enumerate().skip(1) {
            if x > best.0 {
                best = (x, i);
            }
        }
        best
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        self.max_with_index().0
    }

    /// True when both tensors share a shape and all elements differ by at
    /// most `tol`.
    pub fn approx_eq(&self, rhs: &Tensor, tol: f32) -> bool {
        self.dims == rhs.dims
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(vec![3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert_eq!(t.dims(), &[3, 4, 5]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.into_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "needs 4 values")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1., 2., 3.]);
    }

    #[test]
    fn hwc_indexing() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        t.set3(1, 2, 3, 7.5);
        assert_eq!(t.at3(1, 2, 3), 7.5);
        // Row-major HWC: (h*W + w)*C + c.
        assert_eq!(t.data()[(3 + 2) * 4 + 3], 7.5);
    }

    #[test]
    fn crop3_extracts_rectangle() {
        // 3x3 image, 1 channel, values = 10h + w.
        let mut t = Tensor::zeros(vec![3, 3, 1]);
        for h in 0..3 {
            for w in 0..3 {
                t.set3(h, w, 0, (10 * h + w) as f32);
            }
        }
        let c = t.crop3(1, 3, 0, 2);
        assert_eq!(c.dims(), &[2, 2, 1]);
        assert_eq!(c.data(), &[10., 11., 20., 21.]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn crop3_rejects_out_of_bounds() {
        let t = Tensor::zeros(vec![2, 2, 1]);
        let _ = t.crop3(0, 3, 0, 1);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.transpose2().transpose2(), t);
        assert_eq!(t.transpose2().at2(2, 1), 6.0);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![2], vec![1., -2.]);
        let b = a.map(|x| x.abs());
        assert_eq!(b.data(), &[1., 2.]);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c.data(), &[2., 0.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![1., 5., 2., -1.]);
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.mean(), 1.75);
        assert_eq!(t.max_with_index(), (5.0, 1));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![2, 2], vec![3., 1., 4., 1.]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn debug_is_never_empty() {
        let t = Tensor::zeros(vec![0]);
        assert!(!format!("{t:?}").is_empty());
    }
}
