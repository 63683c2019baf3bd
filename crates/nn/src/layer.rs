//! The [`Layer`] trait and the dense/activation layers.
//!
//! A layer maps a batch matrix `(batch × in_dim)` to `(batch × out_dim)`.
//! `forward_ws` caches whatever the backward pass needs; `backward_ws`
//! consumes `dL/d(output)` and returns `dL/d(input)`, overwriting the
//! stored parameter gradients. Gradients carry whatever scaling the
//! upstream gradient carries — the loss functions in [`crate::loss`]
//! average over the batch, so parameter gradients come out
//! batch-averaged.

use crate::init::{init_tensor, Init};
use crate::rng::Rng;
use crate::serialize::LayerSpec;
use crate::tensor::{softmax_row, Act, Tensor};
use crate::workspace::Workspace;

/// A mutable view of one parameter tensor paired with its gradient.
pub struct ParamGrad<'a> {
    pub(crate) value: &'a mut Tensor,
    pub(crate) grad: &'a mut Tensor,
}

/// A differentiable batch-to-batch transformation.
///
/// Every intermediate buffer comes from a caller-owned [`Workspace`], so
/// a warmed-up training loop runs without heap allocation.
///
/// Layers must be `Send`: the trainer in `osa-mdp` gives each of its
/// synchronous rollout streams a [`crate::net::Sequential`] replica and
/// runs the streams on the thread pool's lanes. Every layer here owns
/// plain buffers, so the bound costs nothing.
pub trait Layer: Send {
    /// Compute outputs into a workspace-drawn buffer and cache what
    /// `backward_ws` will need. The returned tensor belongs to the caller,
    /// who recycles it into `ws` when done.
    fn forward_ws(&mut self, input: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Given `dL/d(output)`, store `dL/d(params)` and return `dL/d(input)`
    /// in a workspace-drawn buffer.
    ///
    /// Must be called after a forward pass; panics otherwise.
    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Visit parameter/gradient pairs in a stable order. Layers with
    /// parameters override this; parameter-free layers keep the no-op.
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamGrad<'_>)) {}

    /// Snapshot for serialization.
    fn spec(&self) -> LayerSpec;
}

/// Refill an `Option<Tensor>` cache slot from `src`, reusing the existing
/// allocation after the first call.
pub(crate) fn cache_slot(slot: &mut Option<Tensor>, src: &Tensor) {
    match slot {
        Some(t) => t.copy_from(src),
        None => *slot = Some(src.clone()),
    }
}

/// Fully connected layer: `y = act(x·W + b)` with `W: (in × out)`,
/// `b: (1 × out)`.
///
/// The activation defaults to [`Act::Identity`]; [`Dense::with_act`] fuses
/// an elementwise activation into the GEMM epilogue, which is bit-identical
/// to (and cheaper than) following the layer with a standalone [`ReLU`].
pub struct Dense {
    w: Tensor,
    b: Tensor,
    act: Act,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
    /// Post-activation output, cached only when `act` is not `Identity`
    /// (the backward mask needs it).
    cached_output: Option<Tensor>,
}

impl Dense {
    pub fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut Rng) -> Self {
        let w = init_tensor(init, in_dim, out_dim, in_dim, out_dim, rng);
        Dense {
            grad_w: Tensor::zeros(in_dim, out_dim),
            grad_b: Tensor::zeros(1, out_dim),
            b: Tensor::zeros(1, out_dim),
            w,
            act: Act::Identity,
            cached_input: None,
            cached_output: None,
        }
    }

    /// Rebuild from saved parameters (see [`LayerSpec::Dense`]).
    pub fn from_params(w: Tensor, b: Tensor) -> Self {
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        assert_eq!(b.cols(), w.cols(), "bias width must match weight cols");
        Dense {
            grad_w: Tensor::zeros(w.rows(), w.cols()),
            grad_b: Tensor::zeros(1, b.cols()),
            act: Act::Identity,
            cached_input: None,
            cached_output: None,
            w,
            b,
        }
    }

    /// Fuse an elementwise activation into the forward pass.
    pub fn with_act(mut self, act: Act) -> Self {
        self.act = act;
        self
    }

    pub(crate) fn in_dim(&self) -> usize {
        self.w.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }
}

impl Layer for Dense {
    fn forward_ws(&mut self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.cols(), self.w.rows(), "Dense input width mismatch");
        let mut out = ws.take(input.rows(), self.w.cols());
        input.matmul_bias_act_into(&self.w, &self.b, self.act, &mut out);
        cache_slot(&mut self.cached_input, input);
        if self.act != Act::Identity {
            cache_slot(&mut self.cached_output, &out);
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward_ws before forward_ws");
        // Push the upstream gradient back through the fused activation
        // first: relu'(z) is 1 exactly where the cached output is positive.
        let mut masked: Option<Tensor> = None;
        let gz: &Tensor = match self.act {
            Act::Identity => grad_out,
            Act::Relu => {
                let y = self
                    .cached_output
                    .as_ref()
                    .expect("Dense::backward_ws before forward_ws");
                let mut g = ws.take(grad_out.rows(), grad_out.cols());
                for ((o, &gv), &yv) in g.data_mut().iter_mut().zip(grad_out.data()).zip(y.data()) {
                    *o = gv * if yv > 0.0 { 1.0 } else { 0.0 };
                }
                masked.insert(g)
            }
        };
        x.tmatmul_into(gz, &mut self.grad_w);
        gz.col_sum_into(&mut self.grad_b);
        // Stage wᵀ in scratch so the input gradient runs on the blocked
        // `matmul_into` kernel (vector accumulators) rather than the
        // serial-dot `matmul_t_into` kernel; the per-element accumulation
        // order is the same, so the result is bit-identical — the
        // transpose is cheap data movement next to the (batch × out × in)
        // GEMM it unlocks.
        let mut wt = ws.take(self.w.cols(), self.w.rows());
        self.w.transpose_into(&mut wt);
        let mut out = ws.take(grad_out.rows(), self.w.rows());
        gz.matmul_into(&wt, &mut out);
        ws.recycle(wt);
        if let Some(g) = masked {
            ws.recycle(g);
        }
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamGrad<'_>)) {
        f(ParamGrad {
            value: &mut self.w,
            grad: &mut self.grad_w,
        });
        f(ParamGrad {
            value: &mut self.b,
            grad: &mut self.grad_b,
        });
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            w: self.w.clone(),
            b: self.b.clone(),
            act: self.act,
        }
    }
}

/// Rectified linear unit, elementwise `max(0, x)` with NaN passed
/// through (the same function as `Act::Relu`, see `tensor::relu`).
#[derive(Default)]
pub struct ReLU {
    cached_input: Option<Tensor>,
}

impl ReLU {
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward_ws(&mut self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        cache_slot(&mut self.cached_input, input);
        let mut out = ws.take(input.rows(), input.cols());
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            *o = crate::tensor::relu(x);
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("ReLU::backward_ws before forward_ws");
        let mut out = ws.take(grad_out.rows(), grad_out.cols());
        for ((o, &g), &xv) in out.data_mut().iter_mut().zip(grad_out.data()).zip(x.data()) {
            *o = g * if xv > 0.0 { 1.0 } else { 0.0 };
        }
        out
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::ReLU
    }
}

/// Row-wise softmax with the max-subtraction trick.
///
/// For training a classifier/actor head, prefer feeding *logits* to
/// [`crate::loss::softmax_cross_entropy_into`], which fuses the two for
/// stability; this layer exists for inference-time probability outputs and
/// for nets whose downstream loss consumes probabilities.
#[derive(Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    pub fn new() -> Self {
        Softmax::default()
    }
}

impl Layer for Softmax {
    fn forward_ws(&mut self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut out = ws.take(input.rows(), input.cols());
        for r in 0..out.rows() {
            softmax_row(input.row(r), out.row_mut(r));
        }
        cache_slot(&mut self.cached_output, &out);
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("Softmax::backward_ws before forward_ws");
        // dx_i = y_i * (g_i - Σ_j g_j y_j), per row; every element of the
        // scratch buffer is overwritten below.
        let mut out = ws.take(y.rows(), y.cols());
        for r in 0..y.rows() {
            let yr = y.row(r);
            let gr = grad_out.row(r);
            let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
            let or = out.row_mut(r);
            for ((o, &yi), &gi) in or.iter_mut().zip(yr).zip(gr) {
                *o = yi * (gi - dot);
            }
        }
        out
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Softmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_known_values() {
        let w = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        let b = Tensor::from_rows(&[vec![0.5, -0.5]]);
        let mut d = Dense::from_params(w, b);
        let y = d.forward_ws(&Tensor::from_rows(&[vec![3.0, 4.0]]), &mut Workspace::new());
        assert_eq!(y.data(), &[3.5, 7.5]);
    }

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let (mut r, mut ws) = (ReLU::new(), Workspace::new());
        let y = r.forward_ws(&Tensor::from_rows(&[vec![-1.0, 0.0, 2.0]]), &mut ws);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let dx = r.backward_ws(&Tensor::from_rows(&[vec![5.0, 5.0, 5.0]]), &mut ws);
        assert_eq!(dx.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn softmax_rows_normalize() {
        let mut s = Softmax::new();
        let x = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![1000.0, 1000.0, 1000.0]]);
        let y = s.forward_ws(&x, &mut Workspace::new());
        for r in 0..2 {
            let sum: f32 = y.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // The large-logit row must not overflow to NaN.
        assert!(y.is_finite());
        assert!((y.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_gradient_sums_to_zero_per_row() {
        // Softmax outputs sum to 1, so the input gradient must sum to 0
        // along each row for any upstream gradient.
        let (mut s, mut ws) = (Softmax::new(), Workspace::new());
        s.forward_ws(&Tensor::from_rows(&[vec![0.3, -1.2, 2.0, 0.0]]), &mut ws);
        let dx = s.backward_ws(&Tensor::from_rows(&[vec![1.0, -2.0, 0.5, 3.0]]), &mut ws);
        let sum: f32 = dx.row(0).iter().sum();
        assert!(sum.abs() < 1e-6, "row gradient sum {sum}");
    }
}
