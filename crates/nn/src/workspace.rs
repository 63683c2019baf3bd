//! [`Workspace`]: a scratch-buffer arena for allocation-free training.
//!
//! Every forward/backward pass through a [`crate::net::Sequential`] needs a
//! handful of intermediate matrices (activations, gradients). Allocating
//! them per call is what made the hot path allocation-bound; a `Workspace`
//! instead keeps a pool of retired [`Tensor`] buffers and hands them back
//! out on request. Because a training loop repeats the same shapes every
//! step, the pool converges after one warmup iteration and every
//! subsequent [`Workspace::take`] is a capacity-reusing reshape — zero
//! heap traffic (asserted by the allocation-counter test in `osa-bench`).
//!
//! The protocol is explicit rather than RAII: `take` a buffer, use it,
//! `recycle` it when its contents are dead. Forgetting to recycle is not
//! unsafe — the buffer is simply dropped and the pool refills on a later
//! `recycle` — but it reintroduces allocations, which the counting
//! allocator in `osa-bench` will flag.

use crate::tensor::Tensor;

/// A pool of reusable [`Tensor`] buffers.
///
/// `take(rows, cols)` prefers the smallest pooled buffer whose capacity
/// already fits the request (best-fit), so a workspace shared by layers of
/// different widths does not ping-pong one big buffer while small ones
/// idle. A fresh workspace starts empty; the first pass through a network
/// allocates normally and later passes run out of the pool.
#[derive(Default)]
pub struct Workspace {
    pool: Vec<Tensor>,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Get a `(rows × cols)` tensor, reusing a pooled buffer when one has
    /// enough capacity. Element values are unspecified — callers overwrite
    /// them (every `_into` kernel does).
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let need = rows * cols;
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, t) in self.pool.iter().enumerate() {
            let cap = t.capacity();
            if cap >= need && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut t = self.pool.swap_remove(i);
                t.resize_shape(rows, cols);
                t
            }
            None => Tensor::zeros(rows, cols),
        }
    }

    /// Like [`Workspace::take`], but initialized as a copy of `src`.
    pub(crate) fn take_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.take(src.rows(), src.cols());
        t.copy_from(src);
        t
    }

    /// Return a dead buffer to the pool for a later [`Workspace::take`].
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_recycled_capacity() {
        let mut ws = Workspace::new();
        let t = ws.take(4, 8);
        let cap = t.capacity();
        ws.recycle(t);
        assert_eq!(ws.pool.len(), 1);
        // Smaller request fits in the same buffer: pool drains, capacity
        // is carried over.
        let t2 = ws.take(2, 8);
        assert_eq!(ws.pool.len(), 0);
        assert_eq!(t2.capacity(), cap);
        assert_eq!((t2.rows(), t2.cols()), (2, 8));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        ws.recycle(Tensor::zeros(16, 16)); // 256
        ws.recycle(Tensor::zeros(4, 4)); // 16
        let t = ws.take(2, 5); // needs 10 → should pick the 16-cap buffer
        assert!(t.capacity() < 256);
        assert_eq!(ws.pool.len(), 1);
    }

    #[test]
    fn take_copy_matches_source() {
        let mut ws = Workspace::new();
        let src = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let t = ws.take_copy(&src);
        assert_eq!(t, src);
    }
}
