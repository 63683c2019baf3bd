//! [`StackedNet`]: batched inference across an ensemble of identical
//! networks as one grouped GEMM per layer.
//!
//! The OSAP uncertainty signals (`osa-core`) need the outputs of all
//! `R = 5` ensemble replicas for *every* decision. Running five
//! `Sequential::forward_ws` passes costs five dispatches, five workspace
//! round-trips and five strided weight walks per layer; a `StackedNet`
//! instead stores the replicas' weights contiguously stacked and computes
//! each layer for all replicas in **one** kernel dispatch — the
//! "single batched GEMM across the replicas" design from ROADMAP item 1,
//! and the building block for session-major batched serving (item 2).
//!
//! # Layout
//!
//! Outputs are *replica-major*: a batch of `s` observation rows becomes
//! an `(R·s × out_dim)` matrix whose rows `[r·s, (r+1)·s)` belong to
//! replica `r`. Every replica sees the same `s` rows, so the first layer
//! reads them from `x` directly for each replica (there is no `R×`
//! broadcast copy); deeper layers read the replica-major activations of
//! the layer before. Each layer holds every replica's lowered
//! `(in × out)` weights **packed once** at construction
//! (`PackedB`): the cache-aligned `NR`-wide column panels that
//! [`Tensor::matmul_into`] would build on every call, each with its
//! nonzero K band (first nonzero row rounded down to a `KLANES` group,
//! one past the last). The packed panels are the only copy of the
//! weights. The grouped kernel walks the stacked output rows exactly like
//! [`Tensor::matmul_into`] walks a plain GEMM, routing each replica's row
//! run to its packed weights, and applies `act(sum + bias)` as each tile
//! is stored, so the whole ensemble forward is one `par_rows` dispatch
//! per layer and one write of each activation.
//!
//! # Lowering
//!
//! Construction lowers every supported layer to a dense equivalent:
//!
//! - `Dense` is taken as-is — for finite inputs the stacked forward
//!   reproduces the replica's own forward **bit-for-bit** (same pack
//!   routine, same micro-kernel, same bias-after-sum epilogue; the bands
//!   only skip products that are `±0`);
//! - `Conv1d` is scattered into its equivalent `(in_dim × out_dim)`
//!   matrix (a convolution is a linear map), a Toeplitz band. The
//!   replica's `Conv1d` puts receptive-field tap `t` in lane `t`, the
//!   dense form puts input row `p` in lane `p % KLANES`, so conv-lowered
//!   layers match the replica forward to rounding (~1e-6 relative), not
//!   bit-for-bit;
//! - `Branches` becomes the block-diagonal of its lowered parts (the
//!   parts must share one activation, which Pensieve's towers do).
//!
//! Both lowerings are mostly zeros — Pensieve's first layer keeps 440 of
//! 2800 weights per replica — and the panel bands skip the all-zero
//! `KLANES` groups, which is bit-neutral for finite inputs (see
//! [`crate::tensor::KLANES`]).
//!
//! The determinism contract is carried by the stacked path itself: row
//! arithmetic depends only on that row's replica and input, never on the
//! batch size, the run split, or the worker count — pinned by
//! `tests/stacked.rs` across pools {1, 2, 4, 8}, batch regroupings and a
//! replica-by-replica lowered-dense reference.

use crate::net::Sequential;
use crate::serialize::{LayerSpec, NetSpec};
use crate::tensor::{par_rows, Act, Epilogue, PackedB, Tensor};
use crate::workspace::Workspace;

/// Error constructing a [`StackedNet`].
#[derive(Debug)]
pub enum StackError {
    /// No replicas were supplied.
    Empty,
    /// A replica's architecture disagrees with replica 0's.
    Mismatch(String),
    /// A layer kind the lowering does not support (standalone `ReLU` /
    /// `Softmax`; use fused activations and apply softmax downstream).
    Unsupported(String),
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::Empty => write!(f, "stacked net needs at least one replica"),
            StackError::Mismatch(msg) => write!(f, "replica architecture mismatch: {msg}"),
            StackError::Unsupported(msg) => write!(f, "unsupported layer for stacking: {msg}"),
        }
    }
}

impl std::error::Error for StackError {}

/// One lowered layer: every replica's dense-equivalent weights packed
/// once, plus per-replica bias rows and the shared activation.
/// `pub(crate)` so `crate::quant` can calibrate and quantize from the
/// lowered form.
pub(crate) struct StackedLayer {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// Replica `r`'s lowered `in_dim × out_dim` weights, packed.
    pub(crate) w: Vec<PackedB>,
    /// `replicas × out_dim`.
    pub(crate) b: Tensor,
    pub(crate) act: Act,
}

/// An ensemble of `R` identical-architecture feed-forward networks
/// evaluated as one grouped GEMM per layer. See the module docs.
pub struct StackedNet {
    replicas: usize,
    layers: Vec<StackedLayer>,
}

/// A layer lowered to dense form: `(in × out)` weights, `1 × out` bias.
struct Lowered {
    w: Tensor,
    b: Tensor,
    act: Act,
}

/// Lower one serialized layer to its dense equivalent.
fn lower(spec: &LayerSpec) -> Result<Lowered, StackError> {
    match spec {
        LayerSpec::Dense { w, b, act } => Ok(Lowered {
            w: w.clone(),
            b: b.clone(),
            act: *act,
        }),
        LayerSpec::Conv1d {
            in_channels,
            length,
            out_channels,
            kernel,
            w,
            b,
            act,
        } => {
            let (ic_n, len, oc_n, ker) = (*in_channels, *length, *out_channels, *kernel);
            let out_len = len - ker + 1;
            let (in_dim, out_dim) = (ic_n * len, oc_n * out_len);
            let mut dw = Tensor::zeros(in_dim, out_dim);
            let mut db = Tensor::zeros(1, out_dim);
            for oc in 0..oc_n {
                for t in 0..out_len {
                    let col = oc * out_len + t;
                    db.set(0, col, b.get(0, oc));
                    for ic in 0..ic_n {
                        for kk in 0..ker {
                            dw.set(ic * len + t + kk, col, w.get(oc, ic * ker + kk));
                        }
                    }
                }
            }
            Ok(Lowered {
                w: dw,
                b: db,
                act: *act,
            })
        }
        LayerSpec::Branches { parts } => {
            let lowered = parts.iter().map(lower).collect::<Result<Vec<_>, _>>()?;
            let act = lowered[0].act;
            if lowered.iter().any(|p| p.act != act) {
                return Err(StackError::Unsupported(
                    "branches parts with differing activations".into(),
                ));
            }
            let in_dim: usize = lowered.iter().map(|p| p.w.rows()).sum();
            let out_dim: usize = lowered.iter().map(|p| p.w.cols()).sum();
            let mut dw = Tensor::zeros(in_dim, out_dim);
            let mut db = Tensor::zeros(1, out_dim);
            let (mut ro, mut co) = (0, 0);
            for p in &lowered {
                for r in 0..p.w.rows() {
                    for c in 0..p.w.cols() {
                        dw.set(ro + r, co + c, p.w.get(r, c));
                    }
                }
                for c in 0..p.b.cols() {
                    db.set(0, co + c, p.b.get(0, c));
                }
                ro += p.w.rows();
                co += p.w.cols();
            }
            Ok(Lowered { w: dw, b: db, act })
        }
        LayerSpec::ReLU => Err(StackError::Unsupported(
            "standalone ReLU layer (use a fused Dense/Conv1d activation)".into(),
        )),
        LayerSpec::Softmax => Err(StackError::Unsupported(
            "softmax layer (stack logits and apply softmax downstream)".into(),
        )),
    }
}

impl StackedNet {
    /// Stack replicas given by their serialized specs. All replicas must
    /// share one architecture (layer count, geometry, activations).
    pub fn from_specs(specs: &[NetSpec]) -> Result<StackedNet, StackError> {
        if specs.is_empty() {
            return Err(StackError::Empty);
        }
        let replicas = specs.len();
        let depth = specs[0].layers.len();
        for (r, s) in specs.iter().enumerate() {
            if s.layers.len() != depth {
                return Err(StackError::Mismatch(format!(
                    "replica {r} has {} layers, replica 0 has {depth}",
                    s.layers.len()
                )));
            }
        }
        let mut layers = Vec::with_capacity(depth);
        for li in 0..depth {
            let lowered = specs
                .iter()
                .map(|s| lower(&s.layers[li]))
                .collect::<Result<Vec<_>, _>>()?;
            let (in_dim, out_dim, act) = (lowered[0].w.rows(), lowered[0].w.cols(), lowered[0].act);
            for (r, p) in lowered.iter().enumerate() {
                if p.w.rows() != in_dim || p.w.cols() != out_dim || p.act != act {
                    return Err(StackError::Mismatch(format!(
                        "layer {li}: replica {r} is {}x{} ({:?}), replica 0 is \
                         {in_dim}x{out_dim} ({act:?})",
                        p.w.rows(),
                        p.w.cols(),
                        p.act
                    )));
                }
            }
            let w = lowered.iter().map(|p| PackedB::pack(&p.w)).collect();
            let mut b = Tensor::zeros(replicas, out_dim);
            for (r, p) in lowered.iter().enumerate() {
                b.row_mut(r).copy_from_slice(p.b.row(0));
            }
            layers.push(StackedLayer {
                in_dim,
                out_dim,
                w,
                b,
                act,
            });
        }
        // Widths must chain.
        for pair in layers.windows(2) {
            if pair[0].out_dim != pair[1].in_dim {
                return Err(StackError::Mismatch(format!(
                    "layer widths do not chain: {} -> {}",
                    pair[0].out_dim, pair[1].in_dim
                )));
            }
        }
        Ok(StackedNet { replicas, layers })
    }

    /// Stack live networks (snapshot of their current weights).
    pub fn from_nets(nets: &[&Sequential]) -> Result<StackedNet, StackError> {
        let specs: Vec<NetSpec> = nets.iter().map(|n| n.to_spec()).collect();
        StackedNet::from_specs(&specs)
    }

    pub fn replicas(&self) -> usize {
        self.replicas
    }

    pub(crate) fn layers_internal(&self) -> &[StackedLayer] {
        &self.layers
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty net").out_dim
    }

    /// Forward `x` (`batch × in_dim`) through every replica:
    /// `out` becomes `(replicas·batch) × out_dim`, replica-major (see the
    /// module docs). Allocation-free once `ws` and `out` are warm.
    pub fn forward_into(&self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        self.forward_inspect(x, ws, out, |_, _| {});
    }

    /// [`StackedNet::forward_into`], calling `inspect(layer, input)`
    /// before each layer runs; the first layer's input is `x` itself.
    /// `crate::quant` calibrates its activation scales through this.
    pub(crate) fn forward_inspect(
        &self,
        x: &Tensor,
        ws: &mut Workspace,
        out: &mut Tensor,
        mut inspect: impl FnMut(&StackedLayer, &Tensor),
    ) {
        assert_eq!(x.cols(), self.in_dim(), "stacked input width mismatch");
        let batch = x.rows();
        let last = self.layers.len() - 1;
        let mut cur: Option<Tensor> = None;
        for (li, layer) in self.layers.iter().enumerate() {
            let input = cur.as_ref().unwrap_or(x);
            inspect(layer, input);
            if li == last {
                layer.forward(batch, input, out);
            } else {
                let mut next = ws.take(self.replicas * batch, layer.out_dim);
                layer.forward(batch, input, &mut next);
                if let Some(done) = cur.replace(next) {
                    ws.recycle(done);
                }
            }
        }
        if let Some(done) = cur {
            ws.recycle(done);
        }
    }
}

impl StackedLayer {
    /// `out = act(x · W_rep + b_rep)` for every stacked row, in one
    /// grouped dispatch. `x` is either the shared `batch × in_dim` input
    /// every replica reads (the first layer) or the `(R·batch) × in_dim`
    /// replica-major output of the layer before.
    pub(crate) fn forward(&self, batch: usize, x: &Tensor, out: &mut Tensor) {
        let r = self.w.len();
        let (k, n) = (self.in_dim, self.out_dim);
        let m = r * batch;
        // The shared input has `batch` rows; with one replica both forms
        // index alike.
        let shared = x.rows() == batch;
        debug_assert!(shared || x.rows() == m);
        out.resize_shape(m, n);
        let a = x.data();
        // One dispatch over all stacked rows: each lane's contiguous row
        // range is split at replica boundaries and each run multiplies
        // against its replica's packed weights, bias and activation fused
        // into the store. Per-row arithmetic is that of the banded
        // micro-kernel every GEMM shares, so the result is bit-identical
        // for any worker count and any batch regrouping.
        par_rows(out.data_mut(), m, n, m * k * n, |rows, o| {
            let mut start = rows.start;
            while start < rows.end {
                let rep = start / batch;
                let run_end = rows.end.min((rep + 1) * batch);
                let first = if shared { start - rep * batch } else { start };
                let len = run_end - start;
                let off = (start - rows.start) * n;
                self.w[rep].gemm(
                    len,
                    &a[first * k..(first + len) * k],
                    Epilogue::BiasAct(self.b.row(rep), self.act),
                    &mut o[off..off + len * n],
                );
                start = run_end;
            }
        });
    }
}
