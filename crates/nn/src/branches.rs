//! [`Branches`]: parallel per-feature sub-layers over disjoint column
//! ranges of one input row.
//!
//! Pensieve's actor/critic networks (SIGCOMM '17, §4.2) do not feed the
//! whole state vector through one stack: each feature group (throughput
//! history, download-time history, next-chunk sizes, scalars) gets its
//! own Conv1d or Dense head, and the flattened head outputs are
//! concatenated before the shared dense merge layer. `Branches` models
//! exactly that split-apply-concat step as a single [`Layer`], so the
//! branched architecture composes with [`crate::net::Sequential`] — and
//! therefore with the optimizer slot numbering, the workspace-threaded
//! zero-alloc path, and JSON persistence — without any special casing
//! downstream.
//!
//! Input rows are the concatenation of each part's expected input
//! (`Σ in_dim`, in part order); output rows concatenate each part's
//! output (`Σ out_dim`, same order). Parts run sequentially over
//! workspace scratch: gather the part's column slice, forward/backward
//! through the part, scatter into the joint result.

use crate::conv::Conv1d;
use crate::layer::{Dense, Layer, ParamGrad};
use crate::serialize::LayerSpec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// One parallel head inside a [`Branches`] layer. Only parameterized
/// feed-forward layers with fixed geometry make sense here, so the enum
/// is closed over [`Dense`] and [`Conv1d`] rather than boxing `dyn Layer`
/// (which could not report its input width).
pub enum Branch {
    Dense(Dense),
    Conv1d(Conv1d),
}

impl Branch {
    /// Input columns this head consumes.
    pub(crate) fn in_dim(&self) -> usize {
        match self {
            Branch::Dense(d) => d.in_dim(),
            Branch::Conv1d(c) => c.in_dim(),
        }
    }

    /// Output columns this head produces.
    pub(crate) fn out_dim(&self) -> usize {
        match self {
            Branch::Dense(d) => d.out_dim(),
            Branch::Conv1d(c) => c.out_dim(),
        }
    }

    fn as_layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            Branch::Dense(d) => d,
            Branch::Conv1d(c) => c,
        }
    }

    fn spec(&self) -> LayerSpec {
        match self {
            Branch::Dense(d) => d.spec(),
            Branch::Conv1d(c) => c.spec(),
        }
    }

    /// Rebuild one head from its serialized spec. Panics on layer types
    /// that cannot be a branch; the JSON loader rejects those earlier
    /// with a proper schema error.
    pub(crate) fn from_spec(spec: &LayerSpec) -> Branch {
        match spec {
            LayerSpec::Dense { w, b, act } => {
                Branch::Dense(Dense::from_params(w.clone(), b.clone()).with_act(*act))
            }
            LayerSpec::Conv1d {
                in_channels,
                length,
                out_channels,
                kernel,
                w,
                b,
                act,
            } => Branch::Conv1d(
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
            other => panic!("{other:?} cannot be a branch"),
        }
    }
}

impl From<Dense> for Branch {
    fn from(d: Dense) -> Self {
        Branch::Dense(d)
    }
}

impl From<Conv1d> for Branch {
    fn from(c: Conv1d) -> Self {
        Branch::Conv1d(c)
    }
}

/// Split-apply-concat over parallel heads; see the module docs.
pub struct Branches {
    parts: Vec<Branch>,
}

impl Branches {
    /// Build from heads in column order. Panics on an empty list — a
    /// zero-width layer has no meaningful geometry.
    pub fn new(parts: Vec<Branch>) -> Self {
        assert!(!parts.is_empty(), "Branches needs at least one part");
        Branches { parts }
    }

    /// Rebuild from serialized part specs (see [`LayerSpec::Branches`]).
    pub(crate) fn from_specs(specs: &[LayerSpec]) -> Self {
        Branches::new(specs.iter().map(Branch::from_spec).collect())
    }

    /// Total input width: `Σ part.in_dim()`.
    pub fn in_dim(&self) -> usize {
        self.parts.iter().map(Branch::in_dim).sum()
    }

    /// Total output width: `Σ part.out_dim()`.
    pub fn out_dim(&self) -> usize {
        self.parts.iter().map(Branch::out_dim).sum()
    }
}

impl Layer for Branches {
    fn forward_ws(&mut self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.cols(), self.in_dim(), "Branches input width mismatch");
        let rows = input.rows();
        // Every column range of the scratch output is written by exactly
        // one part below.
        let mut out = ws.take(rows, self.out_dim());
        let (mut in_off, mut out_off) = (0, 0);
        for part in &mut self.parts {
            let (di, dq) = (part.in_dim(), part.out_dim());
            let mut xs = ws.take(rows, di);
            for r in 0..rows {
                xs.row_mut(r)
                    .copy_from_slice(&input.row(r)[in_off..in_off + di]);
            }
            let ys = part.as_layer_mut().forward_ws(&xs, ws);
            for r in 0..rows {
                out.row_mut(r)[out_off..out_off + dq].copy_from_slice(ys.row(r));
            }
            ws.recycle(xs);
            ws.recycle(ys);
            in_off += di;
            out_off += dq;
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(grad_out.cols(), self.out_dim(), "Branches grad width");
        let rows = grad_out.rows();
        let mut grad_in = ws.take(rows, self.in_dim());
        let (mut in_off, mut out_off) = (0, 0);
        for part in &mut self.parts {
            let (di, dq) = (part.in_dim(), part.out_dim());
            let mut gs = ws.take(rows, dq);
            for r in 0..rows {
                gs.row_mut(r)
                    .copy_from_slice(&grad_out.row(r)[out_off..out_off + dq]);
            }
            let gi = part.as_layer_mut().backward_ws(&gs, ws);
            for r in 0..rows {
                grad_in.row_mut(r)[in_off..in_off + di].copy_from_slice(gi.row(r));
            }
            ws.recycle(gs);
            ws.recycle(gi);
            in_off += di;
            out_off += dq;
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamGrad<'_>)) {
        for part in &mut self.parts {
            part.as_layer_mut().visit_params(f);
        }
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Branches {
            parts: self.parts.iter().map(Branch::spec).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::net::Sequential;
    use crate::rng::Rng;
    use crate::tensor::Act;

    /// Two dense parts with hand-picked weights: part 0 doubles its
    /// column, part 1 sums its two columns with bias 1.
    fn tiny() -> Branches {
        let d0 = Dense::from_params(
            Tensor::from_rows(&[vec![2.0]]),
            Tensor::from_rows(&[vec![0.0]]),
        );
        let d1 = Dense::from_params(
            Tensor::from_rows(&[vec![1.0], vec![1.0]]),
            Tensor::from_rows(&[vec![1.0]]),
        );
        Branches::new(vec![d0.into(), d1.into()])
    }

    #[test]
    fn forward_concatenates_part_outputs() {
        let mut b = tiny();
        assert_eq!((b.in_dim(), b.out_dim()), (3, 2));
        let x = Tensor::from_rows(&[vec![1.0, 10.0, 20.0], vec![-1.0, 0.5, 0.5]]);
        let y = b.forward_ws(&x, &mut Workspace::new());
        assert_eq!(y.row(0), &[2.0, 31.0]);
        assert_eq!(y.row(1), &[-2.0, 2.0]);
    }

    #[test]
    fn backward_routes_gradients_to_the_owning_part() {
        let (mut b, mut ws) = (tiny(), Workspace::new());
        b.forward_ws(&Tensor::from_rows(&[vec![1.0, 10.0, 20.0]]), &mut ws);
        let dx = b.backward_ws(&Tensor::from_rows(&[vec![1.0, 3.0]]), &mut ws);
        // d/dx0 = 2 (part 0 weight); d/dx1 = d/dx2 = 3 (part 1 weights).
        assert_eq!(dx.row(0), &[2.0, 3.0, 3.0]);
    }

    #[test]
    fn mixed_conv_dense_branches_match_separate_layers() {
        let mut rng = Rng::seed_from_u64(11);
        let conv = Conv1d::new(1, 6, 3, 4, Init::HeUniform, &mut rng).with_act(Act::Relu);
        let dense = Dense::new(2, 4, Init::HeUniform, &mut rng).with_act(Act::Relu);
        // Clone the parts through their specs so the branched net and the
        // separate layers share identical weights.
        let mut conv_solo = match Branch::from_spec(&conv.spec()) {
            Branch::Conv1d(c) => c,
            _ => unreachable!(),
        };
        let mut dense_solo = match Branch::from_spec(&dense.spec()) {
            Branch::Dense(d) => d,
            _ => unreachable!(),
        };
        let mut b = Branches::new(vec![conv.into(), dense.into()]);

        let mut rng = Rng::seed_from_u64(12);
        let x_data: Vec<f32> = (0..2 * 8).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let x = Tensor::from_vec(2, 8, x_data);
        let mut ws = Workspace::new();
        let y = b.forward_ws(&x, &mut ws);

        let mut xc = Tensor::zeros(2, 6);
        let mut xd = Tensor::zeros(2, 2);
        for r in 0..2 {
            xc.row_mut(r).copy_from_slice(&x.row(r)[..6]);
            xd.row_mut(r).copy_from_slice(&x.row(r)[6..]);
        }
        let yc = conv_solo.forward_ws(&xc, &mut ws);
        let yd = dense_solo.forward_ws(&xd, &mut ws);
        for r in 0..2 {
            assert_eq!(&y.row(r)[..yc.cols()], yc.row(r));
            assert_eq!(&y.row(r)[yc.cols()..], yd.row(r));
        }
    }

    #[test]
    fn spec_roundtrip_preserves_forward_inside_sequential() {
        let mut rng = Rng::seed_from_u64(3);
        let mut net = Sequential::new()
            .with(Branches::new(vec![
                Conv1d::new(1, 8, 4, 4, Init::HeUniform, &mut rng)
                    .with_act(Act::Relu)
                    .into(),
                Dense::new(3, 4, Init::HeUniform, &mut rng)
                    .with_act(Act::Relu)
                    .into(),
            ]))
            .with(Dense::new(4 * 5 + 4, 5, Init::XavierUniform, &mut rng));
        let x = Tensor::from_vec(1, 11, (0..11).map(|i| 0.1 * i as f32).collect());
        let mut ws = Workspace::new();
        let y1 = net.forward_ws(&x, &mut ws);
        let mut rebuilt = Sequential::from_json(&net.to_json()).unwrap();
        let y2 = rebuilt.forward_ws(&x, &mut ws);
        assert_eq!(y1, y2);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn empty_branches_rejected() {
        Branches::new(Vec::new());
    }
}
