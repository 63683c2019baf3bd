//! [`QuantStacked`]: int8 post-training quantization of a lowered
//! ensemble — an offline f32-vs-int8 measurement probe, not a serving
//! path.
//!
//! Serving runs f32 only: although `i8` weights cut weight traffic 4×,
//! this forward measures slower than the packed f32 kernels at every
//! shape the fleet serves, and its outputs are not bit-identical to
//! f32 (EXPERIMENTS.md "Int8 leaves the serving path"). The fleet
//! benchmark times it against the f32 forward on the served shard
//! (`nn.actor_fwd_int8_us`, `nn.critic_fwd_int8_us`). This module
//! quantizes a [`StackedNet`] (the lowered, replica-stacked form the
//! serving engine runs) with the classic post-training recipe:
//!
//! - **per-output-channel symmetric weights**: each output channel `j`
//!   of each replica gets its own scale `w_scale = max|w_:,j| / 127`,
//!   `wq = round(w / w_scale)` clamped to `[-127, 127]`;
//! - **per-tensor activation scales**: each layer's input scale
//!   `in_scale = max|x| / 127` is recorded by running the f32 net over a
//!   calibration split (the caller passes validation observations);
//! - **i32 accumulation**: the kernel computes
//!   `acc = Σ_p xq[p] · wq[p]` in `i32`. Integer addition is
//!   associative, so the accumulated value is **exactly** the same for
//!   any vectorization, blocking, or worker count — a determinism
//!   guarantee even stronger than the f32 kernels' fixed lane-fold
//!   order (`tensor::KLANES`), and the reason the quantized path needs
//!   no fold-order contract of its own;
//! - **f32 dequant epilogue**: `y = act(acc · w_scale · in_scale + b)`
//!   with the f32 bias added after the sum, mirroring the stacked f32
//!   epilogue.
//!
//! Quantized activations are stored widened to `i16` (values still in
//! `[-127, 127]`): the measured `i16 × i8 → i32` dot is ~40% faster
//! than `i8 × i8` here because the kernel skips one sign-extension per
//! operand load, and `k ≤ 16·2¹⁶` rows cannot overflow (`127·127·k`
//! stays far below `i32::MAX` for every geometry this engine builds).
//!
//! Rounding is ties-to-even (banker's rounding) everywhere — the rule
//! is part of the contract because the probe's outputs are pinned bit
//! for bit across worker counts, and it is chosen deliberately for the
//! hot path:
//! ties-to-even is the hardware's native FP rounding mode, which lets
//! the activation-quantize pass extract rounded integers with the
//! [`ROUND_MAGIC`] bit trick instead of a scalar float→int cast per
//! element. `f32::round`'s half-away-from-zero semantics would cost a
//! libm call per element (measured ~2× on the whole quantized forward —
//! activation quantization is a per-layer, per-element pass).

use crate::stacked::StackedNet;
use crate::tensor::{par_rows, Act, Tensor};
use crate::workspace::Workspace;

/// Symmetric int8 quantization of one value: `round_ties_even(x /
/// scale)` clamped to `[-127, 127]`. `scale` must be positive and
/// finite. See the module docs for why ties-to-even is the contract.
#[inline]
pub fn quantize_symmetric(x: f32, scale: f32) -> i8 {
    let q = (x / scale).round_ties_even();
    q.clamp(-127.0, 127.0) as i8
}

/// Reduction depth at which the transposed-dot kernel overtakes the
/// broadcast kernel. Short reductions (the stacked branch layer's
/// k = 25) drown in per-dot loop overhead, so they run row-broadcast
/// axpy instead; deep reductions (the merge layer's k = 1792) vectorize
/// best as a straight `i16 × i8` streaming dot. The threshold also
/// guards the Wide kernel's exactness bound: it accumulates integer
/// values in f32, which is exact while every partial sum stays below
/// 2²⁴, i.e. while `in_dim · 127² < 2²⁴` (`in_dim ≤ 1040`).
const DEEP_MIN_K: usize = 256;

/// How one quantized layer stores weights and runs its kernel. Both
/// layouts produce the **same exact integer sums** — the choice is
/// purely about which loop shape vectorizes for the layer's geometry.
enum QuantLayout {
    /// `(replica, out, in)` — each output channel's weights contiguous,
    /// served by the streaming [`dot_q`]. Chosen when
    /// `in_dim >= DEEP_MIN_K`.
    Deep,
    /// `(replica, in, out)` — each input row's weights contiguous,
    /// served by the broadcast axpy kernel: each activation is
    /// broadcast across its whole weight row and accumulated straight
    /// into the f32 output row. Every product and partial sum is an
    /// integer below 2²⁴ (guarded by [`DEEP_MIN_K`]), so the f32
    /// accumulation is exact and order-free, the same determinism
    /// guarantee as i32. Zero activations are skipped outright — an
    /// exact shortcut that pays off on post-ReLU rows.
    Wide,
}

/// One quantized lowered layer.
struct QuantLayer {
    in_dim: usize,
    out_dim: usize,
    act: Act,
    /// Per-tensor input activation scale for this layer (from
    /// calibration).
    in_scale: f32,
    /// Quantized weights in the layout `layout` prescribes.
    wq: Vec<i8>,
    layout: QuantLayout,
    /// `replicas · out_dim` dequantization factors
    /// `w_scale[r][j] · in_scale`.
    deq: Vec<f32>,
    /// `replicas × out_dim` f32 bias.
    b: Tensor,
}

/// Reusable buffers for [`QuantStacked::forward_into`] — allocation-free
/// once warm, like [`Workspace`] for the f32 path.
#[derive(Default)]
pub struct QuantScratch {
    /// Quantized activations for the current layer, `rows × in_dim`,
    /// i8 values widened to `i16` (see the module docs).
    xq: Vec<i16>,
    /// f32 activations flowing between layers.
    cur: Tensor,
    next: Tensor,
}

impl QuantScratch {
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

/// An int8-quantized [`StackedNet`]: same replica-major layout, same
/// `forward_into` shape contract, ~4× smaller weights.
pub struct QuantStacked {
    replicas: usize,
    layers: Vec<QuantLayer>,
}

impl QuantStacked {
    /// Quantize `net`, calibrating per-layer activation scales by
    /// running the f32 forward over `calib` (`rows × in_dim`,
    /// validation-split observations).
    ///
    /// Deterministic: scales are max-abs reductions (order-free) over a
    /// deterministic f32 forward, so identical inputs give bit-identical
    /// quantized nets on every run and worker count.
    pub fn from_stacked(net: &StackedNet, calib: &Tensor, ws: &mut Workspace) -> QuantStacked {
        assert!(calib.rows() > 0, "calibration split must be non-empty");
        assert_eq!(calib.cols(), net.in_dim(), "calibration width mismatch");
        let replicas = net.replicas();
        // Walk the f32 layers over the calibration rows, recording each
        // layer's input max-abs (the first layer's input is `calib`
        // itself, shared by every replica).
        let mut layers = Vec::with_capacity(net.layers_internal().len());
        let mut out = Tensor::default();
        net.forward_inspect(calib, ws, &mut out, |layer, input| {
            layers.push(quantize_layer(
                layer,
                replicas,
                activation_scale(input.data()),
            ));
        });
        QuantStacked { replicas, layers }
    }

    pub fn replicas(&self) -> usize {
        self.replicas
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty net").out_dim
    }

    /// The calibrated per-layer input activation scales, first layer
    /// first.
    pub fn activation_scales(&self) -> Vec<f32> {
        self.layers.iter().map(|l| l.in_scale).collect()
    }

    /// Forward `x` (`batch × in_dim`) through every replica:
    /// `out` becomes `(replicas·batch) × out_dim`, replica-major —
    /// the same shape contract as [`StackedNet::forward_into`].
    /// Allocation-free once `scratch` and `out` are warm.
    pub fn forward_into(&self, x: &Tensor, scratch: &mut QuantScratch, out: &mut Tensor) {
        assert_eq!(x.cols(), self.in_dim(), "quant input width mismatch");
        let (r, batch) = (self.replicas, x.rows());
        let m = r * batch;
        scratch.cur.resize_shape(m, self.in_dim());
        for rep in 0..r {
            for s in 0..batch {
                scratch
                    .cur
                    .row_mut(rep * batch + s)
                    .copy_from_slice(x.row(s));
            }
        }
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            if li == last {
                layer.forward(batch, &scratch.cur, &mut scratch.xq, out);
            } else {
                layer.forward(batch, &scratch.cur, &mut scratch.xq, &mut scratch.next);
                std::mem::swap(&mut scratch.cur, &mut scratch.next);
            }
        }
    }
}

/// Per-tensor activation scale: `max|x| / 127`, with an all-zero (or
/// empty) tensor falling back to scale 1.0.
fn activation_scale(xs: &[f32]) -> f32 {
    let maxabs = xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if maxabs > 0.0 {
        maxabs / 127.0
    } else {
        1.0
    }
}

/// Quantize one lowered layer: per-output-channel symmetric weight
/// scales within each replica block, `i8` storage in the layout the
/// layer's kernel wants, fused dequant factors.
fn quantize_layer(
    layer: &crate::stacked::StackedLayer,
    replicas: usize,
    in_scale: f32,
) -> QuantLayer {
    let (ind, outd) = (layer.in_dim, layer.out_dim);
    let mut deq = vec![0.0f32; replicas * outd];
    let mut scales = vec![0.0f32; replicas * outd];
    for rep in 0..replicas {
        for j in 0..outd {
            let mut maxabs = 0.0f32;
            for i in 0..ind {
                maxabs = maxabs.max(layer.w[rep].get(i, j).abs());
            }
            let w_scale = if maxabs > 0.0 { maxabs / 127.0 } else { 1.0 };
            scales[rep * outd + j] = w_scale;
            deq[rep * outd + j] = w_scale * in_scale;
        }
    }
    let (layout, wq) = if ind >= DEEP_MIN_K {
        let mut wq = vec![0i8; replicas * outd * ind];
        for rep in 0..replicas {
            for j in 0..outd {
                let block = &mut wq[(rep * outd + j) * ind..(rep * outd + j + 1) * ind];
                for (i, q) in block.iter_mut().enumerate() {
                    *q = quantize_symmetric(layer.w[rep].get(i, j), scales[rep * outd + j]);
                }
            }
        }
        (QuantLayout::Deep, wq)
    } else {
        let mut wq = vec![0i8; replicas * ind * outd];
        for rep in 0..replicas {
            for i in 0..ind {
                let row = &mut wq[(rep * ind + i) * outd..(rep * ind + i + 1) * outd];
                for (j, q) in row.iter_mut().enumerate() {
                    *q = quantize_symmetric(layer.w[rep].get(i, j), scales[rep * outd + j]);
                }
            }
        }
        (QuantLayout::Wide, wq)
    };
    QuantLayer {
        in_dim: ind,
        out_dim: outd,
        act: layer.act,
        in_scale,
        wq,
        layout,
        deq,
        b: layer.b.clone(),
    }
}

/// `i16 × i8 → i32` dot product. Plain iterator form — the LLVM loop
/// vectorizer turns this into wide sign-extend + multiply-accumulate;
/// measured faster than manual lane blocking here. Any vectorization is
/// fine: i32 addition is associative, so the result is exact and
/// order-free.
#[inline(always)]
fn dot_q(a: &[i16], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// 1.5 · 2²³. Adding it to an f32 whose magnitude is ≤ 2²² forces the
/// hardware's round-to-nearest-even into the low mantissa bits, so the
/// rounded integer can be read back with bit masking — no float→int
/// cast. The cast is the expensive part: Rust's saturating `as i16`
/// compiles to a scalar per-element sequence the loop vectorizer
/// refuses, measured ~12× slower than this bit extraction on the
/// activation-quantize pass. The result is **exactly**
/// `round_ties_even` for every finite input in range, so the module's
/// rounding contract is unchanged.
const ROUND_MAGIC: f32 = 12_582_912.0;

impl QuantLayer {
    /// `out = act(dequant(xq · Wq) + b)` for every stacked row;
    /// `x` is `(R·batch) × in_dim` replica-major f32.
    fn forward(&self, batch: usize, x: &Tensor, xq: &mut Vec<i16>, out: &mut Tensor) {
        let (ind, outd) = (self.in_dim, self.out_dim);
        let m = x.rows();
        debug_assert_eq!(x.cols(), ind);
        // Quantize this layer's input activations once, up front: clamp,
        // then round via ROUND_MAGIC bit extraction. The 23-bit mantissa
        // field of `clamped + 1.5·2²³` holds `2²² + round(clamped)`.
        xq.resize(m * ind, 0);
        let inv = 1.0 / self.in_scale;
        for (q, &v) in xq.iter_mut().zip(x.data()) {
            let r = (v * inv).clamp(-127.0, 127.0) + ROUND_MAGIC;
            *q = ((r.to_bits() & 0x7F_FFFF) as i32 - (1 << 22)) as i16;
        }
        out.resize_shape(m, outd);
        let (xq, wq, deq, b, act) = (&*xq, &self.wq, &self.deq, &self.b, self.act);
        // Row sharding is free to vary: every output element is an exact
        // i32 sum plus a per-element epilogue, so any split is
        // bit-identical.
        par_rows(out.data_mut(), m, outd, m * ind * outd, |rows, o| {
            for (dr, orow) in o.chunks_exact_mut(outd).enumerate() {
                let row = rows.start + dr;
                let rep = row / batch;
                let xrow = &xq[row * ind..(row + 1) * ind];
                let brow = b.row(rep);
                match self.layout {
                    QuantLayout::Deep => {
                        for (j, ov) in orow.iter_mut().enumerate() {
                            let wrow = &wq[(rep * outd + j) * ind..(rep * outd + j + 1) * ind];
                            let acc = dot_q(xrow, wrow);
                            *ov = act.apply(acc as f32 * deq[rep * outd + j] + brow[j]);
                        }
                    }
                    QuantLayout::Wide => {
                        // Broadcast axpy with integer-valued f32
                        // accumulation in the output row itself — exact
                        // below 2²⁴ (see QuantLayout::Wide), so no i32
                        // scratch row is needed.
                        orow.fill(0.0);
                        let wrep = &wq[rep * ind * outd..(rep + 1) * ind * outd];
                        for (p, &xv) in xrow.iter().enumerate() {
                            // Exact skip: a zero activation adds
                            // nothing, and post-ReLU rows are rich in
                            // zeros.
                            if xv == 0 {
                                continue;
                            }
                            let xv = xv as f32;
                            let wrow = &wrep[p * outd..(p + 1) * outd];
                            for (o, &w) in orow.iter_mut().zip(wrow) {
                                *o += xv * w as f32;
                            }
                        }
                        let drep = &deq[rep * outd..(rep + 1) * outd];
                        for ((o, &d), &bv) in orow.iter_mut().zip(drep).zip(brow) {
                            *o = act.apply(*o * d + bv);
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layer::Dense;
    use crate::net::Sequential;
    use crate::rng::Rng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(12, 16, Init::HeUniform, &mut rng).with_act(Act::Relu));
        net.push(Dense::new(16, 4, Init::HeUniform, &mut rng));
        net
    }

    fn calib_rows(seed: u64, rows: usize, cols: usize) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::from_rows(
            &(0..rows)
                .map(|_| (0..cols).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn quantized_forward_tracks_f32_within_quant_error() {
        let nets: Vec<Sequential> = (0..3).map(small_net).collect();
        let refs: Vec<&Sequential> = nets.iter().collect();
        let stacked = StackedNet::from_nets(&refs).expect("stack");
        let mut ws = Workspace::new();
        let calib = calib_rows(7, 32, 12);
        let q = QuantStacked::from_stacked(&stacked, &calib, &mut ws);
        let x = calib_rows(8, 5, 12);
        let mut yf = Tensor::zeros(0, 0);
        stacked.forward_into(&x, &mut ws, &mut yf);
        let mut scratch = QuantScratch::new();
        let mut yq = Tensor::zeros(0, 0);
        q.forward_into(&x, &mut scratch, &mut yq);
        assert_eq!((yq.rows(), yq.cols()), (yf.rows(), yf.cols()));
        let scale = yf.data().iter().fold(1.0f32, |m, &v| m.max(v.abs()));
        for (&a, &b) in yq.data().iter().zip(yf.data()) {
            assert!(
                (a - b).abs() <= 0.05 * scale,
                "quantized output drifted: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn per_channel_scales_make_row_scaling_exact() {
        // Scaling one output channel's weights by a power of two scales
        // its quantized output exactly — per-channel scales absorb it.
        let mut rng = Rng::seed_from_u64(3);
        let w: Vec<Vec<f32>> = (0..6)
            .map(|_| (0..8).map(|_| rng.next_f32() - 0.5).collect())
            .collect();
        let mut w2 = w.clone();
        for v in &mut w2[2] {
            *v *= 4.0;
        }
        let build = |wrows: &[Vec<f32>]| {
            let mut net = Sequential::new();
            let mut wt = Tensor::zeros(8, 6);
            for (j, row) in wrows.iter().enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    wt.set(i, j, v);
                }
            }
            net.push(Dense::from_params(wt, Tensor::zeros(1, 6)));
            net
        };
        let (n1, n2) = (build(&w), build(&w2));
        let s1 = StackedNet::from_nets(&[&n1]).expect("stack");
        let s2 = StackedNet::from_nets(&[&n2]).expect("stack");
        let mut ws = Workspace::new();
        let calib = calib_rows(9, 16, 8);
        let q1 = QuantStacked::from_stacked(&s1, &calib, &mut ws);
        let q2 = QuantStacked::from_stacked(&s2, &calib, &mut ws);
        let x = calib_rows(10, 3, 8);
        let (mut y1, mut y2) = (Tensor::zeros(0, 0), Tensor::zeros(0, 0));
        let mut scratch = QuantScratch::new();
        q1.forward_into(&x, &mut scratch, &mut y1);
        q2.forward_into(&x, &mut scratch, &mut y2);
        for r in 0..y1.rows() {
            for c in 0..y1.cols() {
                let (a, b) = (y1.get(r, c), y2.get(r, c));
                let expect = if c == 2 { a * 4.0 } else { a };
                assert_eq!(
                    expect.to_bits(),
                    b.to_bits(),
                    "channel {c}: {a} scaled vs {b}"
                );
            }
        }
    }

    #[test]
    fn saturation_clamps_to_i8_range() {
        assert_eq!(quantize_symmetric(1e6, 1.0), 127);
        assert_eq!(quantize_symmetric(-1e6, 1.0), -127);
        assert_eq!(quantize_symmetric(126.5, 1.0), 126); // ties to even
        assert_eq!(quantize_symmetric(-126.5, 1.0), -126);
        assert_eq!(quantize_symmetric(126.75, 1.0), 127);
        assert_eq!(quantize_symmetric(127.5, 1.0), 127); // clamp after round
        assert_eq!(quantize_symmetric(0.0, 1.0), 0);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let mut rng = Rng::seed_from_u64(21);
        for _ in 0..200 {
            let x = (rng.next_f32() - 0.5) * 10.0;
            let scale = 10.0 / 127.0 * 0.5; // covers |x| ≤ 5 exactly
            let q = quantize_symmetric(x, scale);
            let back = q as f32 * scale;
            assert!(
                (x - back).abs() <= scale * 0.5 + 1e-6,
                "round trip {x} -> {q} -> {back} (step {scale})"
            );
        }
    }

    #[test]
    fn calibrated_scales_are_deterministic_across_seeds_and_repeats() {
        for seed in 0..50u64 {
            let nets: Vec<Sequential> = (0..2).map(|i| small_net(seed * 100 + i)).collect();
            let refs: Vec<&Sequential> = nets.iter().collect();
            let stacked = StackedNet::from_nets(&refs).expect("stack");
            let mut ws = Workspace::new();
            let calib = calib_rows(seed, 24, 12);
            let a = QuantStacked::from_stacked(&stacked, &calib, &mut ws);
            let b = QuantStacked::from_stacked(&stacked, &calib, &mut ws);
            let (sa, sb) = (a.activation_scales(), b.activation_scales());
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}");
            }
            assert!(sa.iter().all(|s| s.is_finite() && *s > 0.0));
        }
    }
}
