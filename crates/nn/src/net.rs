//! [`Sequential`]: an ordered stack of layers with a shared
//! forward/backward/step interface and spec-based persistence.

use std::path::Path;

use crate::conv::Conv1d;
use crate::json::Value;
use crate::layer::{Dense, Layer, ParamGrad, ReLU, Softmax};
use crate::optim::Adam;
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

    pub(crate) fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Run the batch through every layer, caching intermediates for
    /// `backward_ws`. Every intermediate activation is drawn from (and
    /// recycled back into) `ws`, so a warmed-up training loop allocates
    /// nothing. The returned tensor belongs to the caller, who recycles
    /// it into `ws` when done with it.
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
    /// returned in a buffer that belongs to the caller, who recycles it
    /// into `ws` when done.
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
    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(ParamGrad<'_>)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Apply one optimizer step to every parameter using the gradients
    /// stored by the last `backward_ws`.
    pub fn step(&mut self, opt: &mut Adam) {
        opt.begin_step();
        let mut slot = 0;
        self.visit_params(&mut |pg| {
            opt.update(slot, pg.value, pg.grad);
            slot += 1;
        });
    }

    /// Total number of trainable scalars.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |pg| n += pg.value.len());
        n
    }

    // -- parameter/gradient vectors ------------------------------------------
    //
    // The trainer in `osa-mdp` syncs weights between the server nets and
    // per-stream replicas every round; JSON round-trips would dominate
    // the training loop. These flat-vector views copy raw `f32`s
    // in slot order — the same stable numbering `step` uses — so a
    // snapshot taken from one net applies to any architecturally identical
    // net.

    /// Refill `out` with every parameter in slot order, reusing its
    /// capacity, for per-step parameter-server syncs.
    pub fn copy_params_into(&mut self, out: &mut Vec<f32>) {
        out.clear();
        self.visit_params(&mut |pg| out.extend_from_slice(pg.value.data()));
    }

    /// Overwrite every parameter from a flat vector filled by
    /// [`Sequential::copy_params_into`] on an architecturally identical net.
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

    /// Refill `out` with every stored gradient in slot order, reusing its
    /// capacity. Meaningful after a `backward_ws` pass.
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
        let y = net.forward_ws(&Tensor::zeros(5, 3), &mut Workspace::new());
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
        let (mut ws, mut grad) = (Workspace::new(), Tensor::default());
        let mse = |net: &mut Sequential, ws: &mut Workspace, grad: &mut Tensor| {
            let y = net.forward_ws(&x, ws);
            let l = loss::mse_into(&y, &t, grad);
            ws.recycle(y);
            l
        };
        let initial = mse(&mut net, &mut ws, &mut grad);
        for _ in 0..200 {
            mse(&mut net, &mut ws, &mut grad);
            let dx = net.backward_ws(&grad, &mut ws);
            ws.recycle(dx);
            net.step(&mut opt);
        }
        let trained = mse(&mut net, &mut ws, &mut grad);
        assert!(
            trained < initial / 10.0,
            "loss did not drop: {initial} -> {trained}"
        );
        let mut params = Vec::new();
        net.copy_params_into(&mut params);
        assert!(params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn spec_rebuild_preserves_forward() {
        let mut net = tiny_net(3);
        let x = Tensor::from_rows(&[vec![0.2, -0.4, 0.6]]);
        let mut ws = Workspace::new();
        let y1 = net.forward_ws(&x, &mut ws);
        let mut rebuilt = Sequential::from_spec(&net.to_spec());
        let y2 = rebuilt.forward_ws(&x, &mut ws);
        assert_eq!(y1, y2);
    }
}
