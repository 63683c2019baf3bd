//! [`Sequential`]: an ordered stack of layers with a shared
//! forward/backward/step interface and spec-based persistence.

use std::path::Path;

use crate::conv::Conv1d;
use crate::json::Value;
use crate::layer::{Dense, Layer, ParamGrad, ReLU, Softmax};
use crate::optim::Optimizer;
use crate::serialize::{LayerSpec, LoadError, NetSpec};
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// A feed-forward chain of layers.
///
/// Parameter slots are numbered by (layer index, parameter index) in
/// traversal order; the numbering is stable for a fixed architecture, which
/// is what lets slot-keyed optimizers ([`crate::optim`]) keep per-parameter
/// state across steps.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Builder-style push.
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Run the batch through every layer, caching intermediates for
    /// `backward`. Allocating wrapper over [`Sequential::forward_ws`].
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.forward_ws(input, &mut Workspace::new())
    }

    /// Workspace-threaded forward pass: every intermediate activation is
    /// drawn from (and recycled back into) `ws`, so a warmed-up training
    /// loop allocates nothing. The returned tensor belongs to the caller,
    /// who recycles it into `ws` when done with it.
    pub fn forward_ws(&mut self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut iter = self.layers.iter_mut();
        let Some(first) = iter.next() else {
            return ws.take_copy(input);
        };
        let mut x = first.forward_ws(input, ws);
        for layer in iter {
            let y = layer.forward_ws(&x, ws);
            ws.recycle(x);
            x = y;
        }
        x
    }

    /// Propagate `dL/d(output)` back through every layer; parameter
    /// gradients end up stored in the layers, and `dL/d(input)` is
    /// returned. Allocating wrapper over [`Sequential::backward_ws`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// Workspace-threaded backward pass; the returned input gradient
    /// belongs to the caller, who recycles it into `ws` when done.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut iter = self.layers.iter_mut().rev();
        let Some(first) = iter.next() else {
            return ws.take_copy(grad_out);
        };
        let mut g = first.backward_ws(grad_out, ws);
        for layer in iter {
            let h = layer.backward_ws(&g, ws);
            ws.recycle(g);
            g = h;
        }
        g
    }

    /// Visit every parameter/gradient pair in slot order — the same stable
    /// numbering `step` uses — without allocating per-layer vectors.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamGrad<'_>)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Apply one optimizer step to every parameter using the gradients
    /// stored by the last `backward`.
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        opt.begin_step();
        let mut slot = 0;
        self.visit_params(&mut |pg| {
            opt.update(slot, pg.value, pg.grad);
            slot += 1;
        });
    }

    /// All parameter/gradient pairs in slot order — the same numbering
    /// `step` uses. Gradient checks and custom training loops use this to
    /// inspect or perturb individual parameters.
    pub fn params_flat(&mut self) -> Vec<crate::layer::ParamGrad<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Forward through a single layer by index (caching for backward as
    /// usual). Lets tests and branched architectures drive layers
    /// individually.
    pub fn layer_forward(&mut self, idx: usize, input: &Tensor) -> Tensor {
        self.layers[idx].forward(input)
    }

    /// Total number of trainable scalars.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |pg| n += pg.value.len());
        n
    }

    /// True iff every parameter is finite.
    pub fn params_finite(&mut self) -> bool {
        let mut finite = true;
        self.visit_params(&mut |pg| finite &= pg.value.is_finite());
        finite
    }

    // -- parameter/gradient vectors ------------------------------------------
    //
    // The A3C-style trainer in `osa-mdp` (and later the ensembles in
    // `osa-core`) syncs weights between a shared parameter server and
    // per-worker replicas many times per second; JSON round-trips would
    // dominate the training loop. These flat-vector views copy raw `f32`s
    // in slot order — the same stable numbering `step` uses — so a
    // snapshot taken from one net applies to any architecturally identical
    // net.

    /// Copy every parameter into one contiguous vector, in slot order.
    pub fn params_to_vec(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.copy_params_into(&mut out);
        out
    }

    /// Refill `out` with every parameter in slot order, reusing its
    /// capacity — the zero-alloc counterpart of
    /// [`Sequential::params_to_vec`] for per-step parameter-server syncs.
    pub fn copy_params_into(&mut self, out: &mut Vec<f32>) {
        out.clear();
        self.visit_params(&mut |pg| out.extend_from_slice(pg.value.data()));
    }

    /// Overwrite every parameter from a flat vector produced by
    /// [`Sequential::params_to_vec`] on an architecturally identical net.
    /// Panics if the total length does not match.
    pub fn set_params_from_vec(&mut self, flat: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |pg| {
            let n = pg.value.len();
            assert!(off + n <= flat.len(), "parameter vector too short");
            pg.value.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "parameter vector too long");
    }

    /// Copy every stored gradient into one contiguous vector, in slot
    /// order. Meaningful after a `backward` pass.
    pub fn grads_to_vec(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.copy_grads_into(&mut out);
        out
    }

    /// Refill `out` with every stored gradient in slot order, reusing its
    /// capacity — the zero-alloc counterpart of
    /// [`Sequential::grads_to_vec`].
    pub fn copy_grads_into(&mut self, out: &mut Vec<f32>) {
        out.clear();
        self.visit_params(&mut |pg| out.extend_from_slice(pg.grad.data()));
    }

    /// Overwrite every stored gradient from a flat vector, so a gradient
    /// computed on a worker replica can be applied to the shared net via
    /// [`Sequential::step`]. Panics if the total length does not match.
    pub fn set_grads_from_vec(&mut self, flat: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |pg| {
            let n = pg.grad.len();
            assert!(off + n <= flat.len(), "gradient vector too short");
            pg.grad.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "gradient vector too long");
    }

    /// L2 norm of the concatenation of every stored gradient, accumulated
    /// in `f64` so large nets don't lose precision.
    pub fn grad_global_norm(&mut self) -> f32 {
        let mut sq = 0.0f64;
        self.visit_params(&mut |pg| {
            for &g in pg.grad.data() {
                sq += (g as f64) * (g as f64);
            }
        });
        sq.sqrt() as f32
    }

    /// Scale every stored gradient so the global L2 norm is at most
    /// `max_norm` (a no-op when it already is). Returns the pre-clip norm.
    ///
    /// This is the standard global-norm clip A3C/A2C training uses to keep
    /// a single noisy rollout from destroying the shared parameters; it
    /// preserves the gradient's direction, unlike per-element clamping.
    pub fn clip_grad_global_norm(&mut self, max_norm: f32) -> f32 {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.grad_global_norm();
        if norm > max_norm {
            let scale = max_norm / norm;
            self.visit_params(&mut |pg| pg.grad.scale(scale));
        }
        norm
    }

    // -- persistence ---------------------------------------------------------

    pub fn to_spec(&self) -> NetSpec {
        NetSpec::new(self.layers.iter().map(|l| l.spec()).collect())
    }

    pub fn from_spec(spec: &NetSpec) -> Self {
        let mut net = Sequential::new();
        for layer in &spec.layers {
            match layer {
                LayerSpec::Dense { w, b, act } => {
                    net.push(Dense::from_params(w.clone(), b.clone()).with_act(*act))
                }
                LayerSpec::Conv1d {
                    in_channels,
                    length,
                    out_channels,
                    kernel,
                    w,
                    b,
                    act,
                } => net.push(
                    Conv1d::from_params(
                        *in_channels,
                        *length,
                        *out_channels,
                        *kernel,
                        w.clone(),
                        b.clone(),
                    )
                    .with_act(*act),
                ),
                LayerSpec::ReLU => net.push(ReLU::new()),
                LayerSpec::Softmax => net.push(Softmax::new()),
                LayerSpec::Branches { parts } => {
                    net.push(crate::branches::Branches::from_specs(parts))
                }
            }
        }
        net
    }

    pub fn to_json(&self) -> String {
        self.to_spec().to_json()
    }

    pub fn from_json(text: &str) -> Result<Self, LoadError> {
        Ok(Self::from_spec(&NetSpec::from_json(text)?))
    }

    /// Rebuild a network from an already-parsed [`NetSpec`] document
    /// tree (e.g. one field of a larger artifact).
    pub fn from_value(doc: &Value) -> Result<Self, LoadError> {
        Ok(Self::from_spec(&NetSpec::from_value(doc)?))
    }

    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.to_spec().save(path)
    }

    pub fn load(path: impl AsRef<Path>) -> Result<Self, LoadError> {
        Ok(Self::from_spec(&NetSpec::load(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::loss;
    use crate::optim::Adam;
    use crate::rng::Rng;

    fn tiny_net(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        Sequential::new()
            .with(Dense::new(3, 8, Init::HeUniform, &mut rng))
            .with(ReLU::new())
            .with(Dense::new(8, 2, Init::XavierUniform, &mut rng))
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny_net(1);
        let y = net.forward(&Tensor::zeros(5, 3));
        assert_eq!((y.rows(), y.cols()), (5, 2));
    }

    #[test]
    fn num_params_counts_all_tensors() {
        let mut net = tiny_net(1);
        assert_eq!(net.num_params(), 3 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn training_reduces_regression_loss() {
        let mut net = tiny_net(2);
        let mut opt = Adam::new(0.01);
        let x = Tensor::from_rows(&[
            vec![0.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let t = Tensor::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
        ]);
        let initial = loss::mse(&net.forward(&x), &t).0;
        for _ in 0..200 {
            let y = net.forward(&x);
            let (_, grad) = loss::mse(&y, &t);
            net.backward(&grad);
            net.step(&mut opt);
        }
        let trained = loss::mse(&net.forward(&x), &t).0;
        assert!(
            trained < initial / 10.0,
            "loss did not drop: {initial} -> {trained}"
        );
        assert!(net.params_finite());
    }

    #[test]
    fn spec_rebuild_preserves_forward() {
        let mut net = tiny_net(3);
        let x = Tensor::from_rows(&[vec![0.2, -0.4, 0.6]]);
        let y1 = net.forward(&x);
        let mut rebuilt = Sequential::from_spec(&net.to_spec());
        let y2 = rebuilt.forward(&x);
        assert_eq!(y1, y2);
    }
}
