//! [`Workspace`]: a scratch arena that recycles tensor buffers across
//! kernel and layer invocations.
//!
//! Streaming inference runs the same network shape frame after frame; every
//! intermediate buffer needed for frame `t + 1` has an identically-sized
//! twin freed at frame `t`. A `Workspace` holds those freed tensors —
//! data buffer *and* shape vector — and hands them back on request, so a
//! warmed-up forward pass performs **zero heap allocations**: im2col
//! matrices, GEMM outputs, and activations all cycle through the arena.
//!
//! The arena is deliberately dumb — a capacity-sorted free list — because
//! the working set is small (a handful of distinct shapes per network) and
//! lookups must be cheap. Tensors are matched best-fit by data capacity, so
//! a request can be satisfied by any buffer at least as large; mixed
//! networks converge on a stable set after one frame.
//!
//! # Contents of recycled buffers
//!
//! [`Workspace::take`] returns tensors with **unspecified contents** (the
//! stale values of whatever last used them) sized to the requested shape.
//! Kernels that overwrite every element (GEMM, im2col, element-wise maps)
//! use it directly; accumulating kernels ask for [`Workspace::take_zeroed`].

use crate::Tensor;

/// A recycling arena for tensors.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Free tensors, sorted ascending by data capacity.
    free: Vec<Tensor>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of tensors currently parked in the arena.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Total `f32` capacity parked in the arena.
    pub fn pooled_elems(&self) -> usize {
        self.free.iter().map(|t| t.capacity()).sum()
    }

    /// Takes a tensor of the given shape with unspecified contents.
    ///
    /// Reuses the smallest pooled tensor whose capacity suffices; allocates
    /// only when none fits (and then grows the largest pooled buffer rather
    /// than stranding it).
    pub fn take(&mut self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        let idx = self.free.partition_point(|t| t.capacity() < n);
        let mut t = if idx < self.free.len() {
            self.free.remove(idx)
        } else if let Some(t) = self.free.pop() {
            t
        } else {
            Tensor::with_capacity(n)
        };
        t.reinit(dims);
        t
    }

    /// Takes a zero-filled tensor of the given shape.
    pub fn take_zeroed(&mut self, dims: &[usize]) -> Tensor {
        let mut t = self.take(dims);
        t.data_mut().fill(0.0);
        t
    }

    /// Returns a tensor (buffer and shape vector) to the arena for reuse.
    pub fn recycle(&mut self, t: Tensor) {
        if t.capacity() == 0 && t.dims_capacity() == 0 {
            return;
        }
        let idx = self.free.partition_point(|p| p.capacity() < t.capacity());
        self.free.insert(idx, t);
    }

    /// Drops every pooled tensor.
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_take_reuses_the_buffer() {
        let mut ws = Workspace::new();
        let t = ws.take(&[4, 8]);
        let ptr = t.data().as_ptr();
        ws.recycle(t);
        assert_eq!(ws.pooled(), 1);
        let t2 = ws.take(&[8, 4]);
        assert_eq!(t2.data().as_ptr(), ptr, "buffer must be reused");
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        ws.recycle(Tensor::zeros(vec![100]));
        ws.recycle(Tensor::zeros(vec![10]));
        let t = ws.take(&[8]);
        assert!(t.data().len() == 8);
        // The 10-capacity buffer should have been chosen; 100 remains.
        assert_eq!(ws.pooled(), 1);
        assert!(ws.pooled_elems() >= 100);
    }

    #[test]
    fn grows_largest_when_nothing_fits() {
        let mut ws = Workspace::new();
        ws.recycle(Tensor::zeros(vec![4]));
        let t = ws.take(&[64]);
        assert_eq!(t.len(), 64);
        assert_eq!(ws.pooled(), 0, "undersized buffer was grown, not stranded");
    }

    #[test]
    fn regrowing_a_recycled_buffer_does_not_zero_it_again() {
        let mut ws = Workspace::new();
        let mut big = ws.take(&[64]);
        big.data_mut().fill(3.0);
        ws.recycle(big);
        let small = ws.take(&[8]);
        let mut copy = small.clone();
        ws.recycle(small);
        let again = ws.take(&[64]);
        assert!(
            again.data().iter().all(|&v| v == 3.0),
            "stale contents kept"
        );
        // A clone owns only the elements it was given: growing it zeroes.
        copy.reinit(&[64]);
        assert!(copy.data()[..8].iter().all(|&v| v == 3.0));
        assert!(copy.data()[8..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut ws = Workspace::new();
        ws.recycle(Tensor::filled(vec![6], 7.0));
        let t = ws.take_zeroed(&[6]);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shapes_are_correct_after_reuse() {
        let mut ws = Workspace::new();
        ws.recycle(Tensor::zeros(vec![2, 3, 4]));
        let t = ws.take(&[6, 2]);
        assert_eq!(t.dims(), &[6, 2]);
        assert_eq!(t.len(), 12);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        // After one warm-up cycle over a shape set, take() must always be
        // served from the pool (observable as pointer reuse).
        let mut ws = Workspace::new();
        let shapes: [&[usize]; 3] = [&[3, 5], &[16], &[2, 2, 4]];
        let mut ptrs = Vec::new();
        for s in shapes {
            let t = ws.take(s);
            ptrs.push(t.data().as_ptr() as usize);
            ws.recycle(t);
        }
        for _ in 0..10 {
            for s in shapes {
                let t = ws.take(s);
                assert!(
                    ptrs.contains(&(t.data().as_ptr() as usize)),
                    "steady-state take allocated a fresh buffer"
                );
                ws.recycle(t);
            }
        }
    }
}
