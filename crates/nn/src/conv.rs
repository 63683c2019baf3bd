//! 1-D convolution over fixed-geometry flattened inputs.
//!
//! Pensieve's actor/critic networks run small Conv1d branches over short
//! feature histories (e.g. the last 8 throughput samples). Because every
//! layer in this engine maps `(batch × in_dim)` matrices, `Conv1d` fixes
//! its signal geometry `(in_channels, length)` at construction and
//! interprets each input row as the channel-major flattening
//! `[c0 t0 … c0 t(L-1), c1 t0 …]`. Output rows are the same layout with
//! `out_channels` channels of length `length − kernel + 1` (valid
//! convolution, stride 1, no padding — what Pensieve uses).

use crate::init::{init_tensor, Init};
use crate::layer::{cache_slot, Layer, ParamGrad};
use crate::rng::Rng;
use crate::serialize::LayerSpec;
use crate::tensor::{Act, Tensor};
use crate::workspace::Workspace;

/// Valid (no-padding), stride-1 1-D convolution.
///
/// Weights are stored as `(out_channels × in_channels·kernel)`; bias is one
/// scalar per output channel. Like [`crate::layer::Dense`], an elementwise
/// activation can be fused into the forward pass with
/// [`Conv1d::with_act`].
pub struct Conv1d {
    in_channels: usize,
    length: usize,
    out_channels: usize,
    kernel: usize,
    w: Tensor,
    b: Tensor,
    act: Act,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
    /// Post-activation output, cached only when `act` is not `Identity`.
    cached_output: Option<Tensor>,
}

impl Conv1d {
    pub fn new(
        in_channels: usize,
        length: usize,
        out_channels: usize,
        kernel: usize,
        init: Init,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            kernel >= 1 && kernel <= length,
            "kernel must fit the signal"
        );
        let fan_in = in_channels * kernel;
        let fan_out = out_channels * kernel;
        let w = init_tensor(init, out_channels, fan_in, fan_in, fan_out, rng);
        Conv1d {
            in_channels,
            length,
            out_channels,
            kernel,
            grad_w: Tensor::zeros(out_channels, fan_in),
            grad_b: Tensor::zeros(1, out_channels),
            b: Tensor::zeros(1, out_channels),
            w,
            act: Act::Identity,
            cached_input: None,
            cached_output: None,
        }
    }

    /// Fuse an elementwise activation into the forward pass.
    pub fn with_act(mut self, act: Act) -> Self {
        self.act = act;
        self
    }

    /// Rebuild from saved parameters (see [`LayerSpec::Conv1d`]).
    pub(crate) fn from_params(
        in_channels: usize,
        length: usize,
        out_channels: usize,
        kernel: usize,
        w: Tensor,
        b: Tensor,
    ) -> Self {
        assert!(
            kernel >= 1 && kernel <= length,
            "kernel must fit the signal"
        );
        assert_eq!(w.rows(), out_channels, "weight rows must be out_channels");
        assert_eq!(
            w.cols(),
            in_channels * kernel,
            "weight cols must be in_channels*kernel"
        );
        assert_eq!((b.rows(), b.cols()), (1, out_channels), "bias shape");
        Conv1d {
            in_channels,
            length,
            out_channels,
            kernel,
            grad_w: Tensor::zeros(out_channels, in_channels * kernel),
            grad_b: Tensor::zeros(1, out_channels),
            act: Act::Identity,
            cached_input: None,
            cached_output: None,
            w,
            b,
        }
    }

    /// Output signal length: `length − kernel + 1`.
    pub fn out_len(&self) -> usize {
        self.length - self.kernel + 1
    }

    /// Flattened input width this layer expects.
    pub fn in_dim(&self) -> usize {
        self.in_channels * self.length
    }

    /// Flattened output width this layer produces.
    pub fn out_dim(&self) -> usize {
        self.out_channels * self.out_len()
    }
}

impl Layer for Conv1d {
    fn forward_ws(&mut self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "Conv1d expects rows of width in_channels*length"
        );
        let out_len = self.out_len();
        let (k, l) = (self.kernel, self.length);
        let (in_ch, out_ch, out_dim) = (self.in_channels, self.out_channels, self.out_dim());
        let rows = input.rows();
        let patch = in_ch * k;
        // Tiny batches (the per-chunk decision path) skip the im2row
        // staging below and dot each receptive field directly — the same
        // product enumeration through the same lane-fold primitive, so
        // the bits are identical to the GEMM route.
        if rows < crate::tensor::PACK_MIN_ROWS {
            let mut out = ws.take(rows, out_dim);
            let mut gather = ws.take(1, patch);
            for r in 0..rows {
                let x = input.row(r);
                let orow = out.row_mut(r);
                for t in 0..out_len {
                    let field: &[f32] = if in_ch == 1 {
                        &x[t..t + k]
                    } else {
                        let g = gather.row_mut(0);
                        for ic in 0..in_ch {
                            g[ic * k..(ic + 1) * k].copy_from_slice(&x[ic * l + t..ic * l + t + k]);
                        }
                        gather.row(0)
                    };
                    for oc in 0..out_ch {
                        let acc = crate::tensor::dot_lane8(field, self.w.row(oc));
                        orow[oc * out_len + t] = self.act.apply(acc + self.b.get(0, oc));
                    }
                }
            }
            ws.recycle(gather);
            cache_slot(&mut self.cached_input, input);
            if self.act != Act::Identity {
                cache_slot(&mut self.cached_output, &out);
            }
            return out;
        }
        // im2row: one row per (batch row, output position) holding the
        // receptive field `[x[ic·l+t .. +k] for ic]`, so the convolution
        // becomes `X̃ · Wᵀ` through the shared lane8 GEMM — the whole
        // tree has exactly one accumulation order (see `tensor::KLANES`),
        // and batch sharding/threading is inherited from the kernel.
        let m = rows * out_len;
        let mut xim = ws.take(m, patch);
        for r in 0..rows {
            let x = input.row(r);
            for t in 0..out_len {
                let dst = xim.row_mut(r * out_len + t);
                for ic in 0..in_ch {
                    dst[ic * k..(ic + 1) * k].copy_from_slice(&x[ic * l + t..ic * l + t + k]);
                }
            }
        }
        let mut prod = ws.take(m, out_ch);
        xim.matmul_t_into(&self.w, &mut prod);
        // Scatter epilogue: GEMM rows are time-major `(t, oc)` while the
        // flattened layout is channel-major `oc·out_len + t`; bias and
        // activation are fused into the same pass. Every element of the
        // scratch output is written here.
        let mut out = ws.take(rows, out_dim);
        let (b, act) = (&self.b, self.act);
        for r in 0..rows {
            let orow = out.row_mut(r);
            for t in 0..out_len {
                let prow = prod.row(r * out_len + t);
                for (oc, (&pv, &bv)) in prow.iter().zip(b.data()).enumerate() {
                    orow[oc * out_len + t] = act.apply(pv + bv);
                }
            }
        }
        ws.recycle(prod);
        ws.recycle(xim);
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
            .expect("Conv1d::backward_ws before forward_ws");
        let out_len = self.out_len();
        let (k, l) = (self.kernel, self.length);
        assert_eq!(grad_out.cols(), self.out_dim(), "Conv1d grad width");
        assert_eq!(grad_out.rows(), x.rows(), "Conv1d grad batch");

        // Mask the upstream gradient back through the fused activation.
        let mut masked: Option<Tensor> = None;
        let gz: &Tensor = match self.act {
            Act::Identity => grad_out,
            Act::Relu => {
                let y = self
                    .cached_output
                    .as_ref()
                    .expect("Conv1d::backward_ws before forward_ws");
                let mut g = ws.take(grad_out.rows(), grad_out.cols());
                for ((o, &gv), &yv) in g.data_mut().iter_mut().zip(grad_out.data()).zip(y.data()) {
                    *o = gv * if yv > 0.0 { 1.0 } else { 0.0 };
                }
                masked.insert(g)
            }
        };

        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
        let mut grad_in = ws.take(x.rows(), self.in_dim());
        grad_in.fill(0.0);

        for r in 0..x.rows() {
            let xr = x.row(r);
            let gr = gz.row(r);
            for oc in 0..self.out_channels {
                let gslice = &gr[oc * out_len..(oc + 1) * out_len];
                let gsum: f32 = gslice.iter().sum();
                *self
                    .grad_b
                    .row_mut(0)
                    .get_mut(oc)
                    .expect("bias index in range") += gsum;
                let wrow = self.w.row(oc);
                let gwrow = self.grad_w.row_mut(oc);
                let girow = grad_in.row_mut(r);
                for (t, &g) in gslice.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..self.in_channels {
                        for dk in 0..k {
                            gwrow[ic * k + dk] += g * xr[ic * l + t + dk];
                            girow[ic * l + t + dk] += g * wrow[ic * k + dk];
                        }
                    }
                }
            }
        }
        if let Some(g) = masked {
            ws.recycle(g);
        }
        grad_in
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
        LayerSpec::Conv1d {
            in_channels: self.in_channels,
            length: self.length,
            out_channels: self.out_channels,
            kernel: self.kernel,
            w: self.w.clone(),
            b: self.b.clone(),
            act: self.act,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-checkable single-channel case: kernel [1, 2] over [1, 2, 3, 4].
    #[test]
    fn forward_known_values() {
        let w = Tensor::from_rows(&[vec![1.0, 2.0]]);
        let b = Tensor::from_rows(&[vec![0.5]]);
        let mut c = Conv1d::from_params(1, 4, 1, 2, w, b);
        let y = c.forward_ws(
            &Tensor::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]),
            &mut Workspace::new(),
        );
        // [1+4, 2+6, 3+8] + 0.5
        assert_eq!(y.data(), &[5.5, 8.5, 11.5]);
    }

    /// Two input channels sum their contributions.
    #[test]
    fn forward_multi_channel() {
        let w = Tensor::from_rows(&[vec![1.0, 0.0, 0.0, 1.0]]); // ch0 kernel [1,0], ch1 kernel [0,1]
        let b = Tensor::from_rows(&[vec![0.0]]);
        let mut c = Conv1d::from_params(2, 3, 1, 2, w, b);
        // ch0 = [1,2,3], ch1 = [10,20,30]
        let x = Tensor::from_rows(&[vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]]);
        let y = c.forward_ws(&x, &mut Workspace::new());
        // out[t] = ch0[t]*1 + ch1[t+1]*1
        assert_eq!(y.data(), &[21.0, 32.0]);
    }

    #[test]
    fn kernel_equal_to_length_degenerates_to_dense() {
        let w = Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[vec![0.0]]);
        let mut c = Conv1d::from_params(1, 3, 1, 3, w, b);
        let y = c.forward_ws(
            &Tensor::from_rows(&[vec![4.0, 5.0, 6.0]]),
            &mut Workspace::new(),
        );
        assert_eq!(y.data(), &[32.0]);
        assert_eq!(c.out_len(), 1);
    }

    /// The tiny-batch direct path and the im2row GEMM path are the same
    /// lane-fold arithmetic: running rows one at a time must reproduce
    /// the batched result bit-for-bit.
    #[test]
    fn direct_and_im2row_paths_are_bit_identical() {
        let mut rng = Rng::seed_from_u64(11);
        let mut c = Conv1d::new(3, 9, 7, 4, Init::HeUniform, &mut rng).with_act(Act::Relu);
        let x: Vec<Vec<f32>> = (0..6)
            .map(|r| {
                (0..27)
                    .map(|i| ((r * 31 + i * 17) % 23) as f32 / 7.0 - 1.5)
                    .collect()
            })
            .collect();
        let mut ws = Workspace::new();
        let batched = c.forward_ws(&Tensor::from_rows(&x), &mut ws);
        for (r, row) in x.iter().enumerate() {
            let single = c.forward_ws(&Tensor::from_rows(std::slice::from_ref(row)), &mut ws);
            for (a, b) in single.data().iter().zip(batched.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn shapes_roundtrip() {
        let mut rng = Rng::seed_from_u64(5);
        let mut c = Conv1d::new(3, 8, 16, 4, Init::HeUniform, &mut rng);
        assert_eq!(c.in_dim(), 24);
        assert_eq!(c.out_dim(), 16 * 5);
        let x = Tensor::zeros(7, 24);
        let mut ws = Workspace::new();
        let y = c.forward_ws(&x, &mut ws);
        assert_eq!((y.rows(), y.cols()), (7, 80));
        let dx = c.backward_ws(&Tensor::zeros(7, 80), &mut ws);
        assert_eq!((dx.rows(), dx.cols()), (7, 24));
    }
}
