//! Novelty detectors behind the U_S uncertainty signal.
//!
//! The paper's classic-ND baseline is a one-class SVM ([`OcSvm`]), the
//! one implementation of the [`NoveltyDetector`] contract: `fit` on a
//! matrix of in-distribution feature rows, then score queries — higher
//! means more novel — either one row at a time
//! ([`NoveltyDetector::score`]) or a whole batch in one call
//! ([`NoveltyDetector::score_batch_into`]).
//!
//! # The batched scoring engine
//!
//! [`OcSvm`] scoring is dominated by `Σᵢ αᵢ exp(-γ‖z(x) − svᵢ‖²)` over
//! ~650 support vectors. The engine decomposes the distance,
//! `‖z − svᵢ‖² = ‖z‖² + ‖svᵢ‖² − 2·z·svᵢ`, with the support-vector norms
//! precomputed at fit time and each query standardized exactly once.
//! Each row then makes one fused pass over the support vectors, stored
//! feature-major, eight at a time: the eight cross terms, the distances,
//! the exponentials and the α-weighted sum, vectorized across the eight
//! support vectors. The stored α are pre-scaled by [`ALPHA_SCALE`] so no
//! product goes subnormal, and a far window costs what a near one does.
//!
//! The batched path is the *canonical* computation: the scalar `score`
//! delegates to a batch of one, so scores are bit-identical at every
//! batch size — rows are computed independently (and sharded by row
//! across the pool), so grouping queries can never change a row's bits,
//! at any `OSA_THREADS`. Scratch lives in a thread-local [`Workspace`]
//! arena, so neither path allocates after its first call on a given
//! thread.

use crate::kernel::{exp_fast, sq_norm};
use crate::smo::{solve_one_class, SmoConfig, SmoResult};
use osa_nn::tensor::{fold8, par_rows, Tensor, KLANES};
use osa_nn::workspace::Workspace;

/// A novelty scorer: fit on in-distribution rows, then score queries.
/// Higher scores mean *more novel* for every implementation.
pub trait NoveltyDetector {
    /// Short stable identifier used in benchmark and figure artifacts.
    fn name(&self) -> &'static str;
    /// Fit on a matrix whose rows are in-distribution feature vectors.
    /// Panics if `x` is empty.
    fn fit(&mut self, x: &Tensor);
    /// Novelty score of one feature vector (same dimensionality as the
    /// training rows). Panics if called before `fit`. Never allocates
    /// (implementations may warm a thread-local scratch arena on their
    /// first call per thread).
    fn score(&self, x: &[f32]) -> f32;
    /// Score every row of `x` into `out` in one call. Bit-identical to
    /// scoring the rows one at a time with [`NoveltyDetector::score`] —
    /// for [`OcSvm`] the batch *is* the canonical path and the scalar
    /// call delegates here. Panics if `out.len() != x.rows()` or before
    /// `fit`.
    fn score_batch_into(&self, x: &Tensor, out: &mut [f32]);
}

/// Per-dimension standardization statistics of a training set.
#[derive(Clone, Debug, Default)]
struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    fn fit(x: &Tensor) -> Standardizer {
        let (n, d) = (x.rows(), x.cols());
        assert!(n > 0, "cannot standardize an empty training set");
        let mut mean = vec![0.0f64; d];
        for i in 0..n {
            for (m, &v) in mean.iter_mut().zip(x.row(i)) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; d];
        for i in 0..n {
            for ((s, &v), &m) in var.iter_mut().zip(x.row(i)).zip(&mean) {
                let dv = v as f64 - m;
                *s += dv * dv;
            }
        }
        Standardizer {
            mean: mean.iter().map(|&m| m as f32).collect(),
            std: var
                .iter()
                .map(|&s| ((s / n as f64).sqrt() as f32).max(1e-6))
                .collect(),
        }
    }

    fn apply(&self, x: &Tensor) -> Tensor {
        let mut z = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            self.apply_row_into(x.row(i), z.row_mut(i));
        }
        z
    }

    /// Standardize one raw row into `z`. Dimensions are checked by
    /// `debug_assert!` only — callers validate query width once at the
    /// batch boundary, not per row.
    #[inline]
    fn apply_row_into(&self, x: &[f32], z: &mut [f32]) {
        debug_assert_eq!(x.len(), self.mean.len(), "standardizer dimension");
        debug_assert_eq!(z.len(), self.mean.len(), "standardizer dimension");
        for (j, zv) in z.iter_mut().enumerate() {
            *zv = (x[j] - self.mean[j]) / self.std[j];
        }
    }
}

/// Configuration for [`OcSvm`].
#[derive(Clone, Copy, Debug)]
pub struct OcSvmConfig {
    /// Schölkopf ν: upper-bounds the training outlier fraction and
    /// lower-bounds the support-vector fraction.
    pub nu: f64,
    /// RBF width; `None` picks `1/d` on standardized data.
    pub gamma: Option<f32>,
    /// SMO convergence controls.
    pub smo: SmoConfig,
}

impl Default for OcSvmConfig {
    fn default() -> Self {
        OcSvmConfig {
            nu: 0.1,
            gamma: None,
            smo: SmoConfig::default(),
        }
    }
}

/// The paper's one-class SVM (§3.1): RBF kernel, ν-parameterized dual
/// solved by [`solve_one_class`]. The novelty score is the negated
/// decision function `ρ − Σᵢ αᵢ K(z(x), svᵢ)` — positive outside the
/// learned region, negative inside.
#[derive(Clone, Debug)]
pub struct OcSvm {
    cfg: OcSvmConfig,
    std: Standardizer,
    gamma: f32,
    /// Support-vector count (the stored vectors below are zero-padded
    /// to a whole number of `KLANES` blocks).
    nsv: usize,
    /// Standardized support vectors, feature-major: feature `p` of
    /// support vector `s` at `svs_t[p · nsv.next_multiple_of(KLANES) + s]`,
    /// so one load reads a feature of a `KLANES`-SV block.
    svs_t: Vec<f32>,
    /// Dual coefficient of each support vector times [`ALPHA_SCALE`]
    /// (f32 is plenty for the score sum; the solver works in f64).
    sv_alphas: Vec<f32>,
    /// `‖svᵢ‖²` in the lane-8 accumulation order, precomputed at fit
    /// time for the distance decomposition.
    sv_norms: Vec<f32>,
    rho: f32,
    /// `ln(max(ρ, LOG_FLOOR))`, precomputed so the score epilogue is one
    /// `ln` per row instead of two.
    ln_rho: f32,
    diag: Option<FitDiag>,
}

/// Solver diagnostics surfaced for tests and the runtime-cost table.
#[derive(Clone, Copy, Debug)]
pub struct FitDiag {
    pub iters: usize,
    pub kkt_gap: f64,
    pub support_vectors: usize,
    /// Training rows at the box ceiling (the margin-error count that ν
    /// upper-bounds as a fraction).
    pub bounded_svs: usize,
    /// Smallest dual coefficient of a support vector, as stored (f32,
    /// before [`ALPHA_SCALE`]).
    pub min_alpha: f32,
}

impl OcSvm {
    pub fn new(cfg: OcSvmConfig) -> OcSvm {
        OcSvm {
            cfg,
            std: Standardizer::default(),
            gamma: 0.0,
            nsv: 0,
            svs_t: Vec::new(),
            sv_alphas: Vec::new(),
            sv_norms: Vec::new(),
            rho: 0.0,
            ln_rho: 0.0,
            diag: None,
        }
    }

    pub fn support_vectors(&self) -> usize {
        self.nsv
    }

    pub fn diag(&self) -> Option<FitDiag> {
        self.diag
    }

    /// Decision function `Σᵢ αᵢ K(z(x), svᵢ) − ρ` (positive inside).
    pub fn decision(&self, x: &[f32]) -> f32 {
        self.kernel_sum(x) - self.rho
    }

    /// Raw linear-domain novelty `ρ − Σᵢ αᵢ K(z(x), svᵢ)` (positive
    /// outside). Saturates at ρ for far inputs — see
    /// [`NoveltyDetector::score`] for the monitoring-friendly transform.
    pub fn raw_score(&self, x: &[f32]) -> f32 {
        self.rho - self.kernel_sum(x)
    }

    /// Kernel expansions `Σᵢ αᵢ K(z(xⱼ), svᵢ)` for every row of `x` in
    /// one pass: standardize the batch, then one fused pass per row over
    /// the support vectors, eight at a time — cross terms, distances,
    /// exponentials and the α-weighted sum, vectorized across the eight.
    /// Rows are independent, so a large batch is split by row across the
    /// `osa-runtime` pool without moving a bit. This is the canonical
    /// evaluation — the scalar accessors ([`OcSvm::decision`],
    /// [`OcSvm::raw_score`], [`NoveltyDetector::score`]) all route
    /// through it as a batch of one, so results are bit-identical at
    /// every batch size and pool width. The cost per row does not depend on the query: every
    /// product stays a normal f32 (see [`ALPHA_SCALE`]). Panics if
    /// called before `fit`, on a query-width mismatch, or if
    /// `out.len() != x.rows()`.
    pub fn kernel_sums_into(&self, x: &Tensor, out: &mut [f32]) {
        assert!(self.nsv > 0, "OcSvm::score before fit");
        let d = self.std.mean.len();
        assert_eq!(x.cols(), d, "feature dimension");
        assert_eq!(x.rows(), out.len(), "kernel_sums_into output length");
        let s = x.rows();
        if s == 0 {
            return;
        }
        let mut z = SCORE_ARENA.with(|w| w.borrow_mut().take(s, d));
        for i in 0..s {
            self.std.apply_row_into(x.row(i), z.row_mut(i));
        }
        par_rows(out, s, 1, s * d * self.nsv, |rows, o| {
            for (i, o) in rows.zip(o) {
                *o = self.kernel_sum_row(z.row(i));
            }
        });
        SCORE_ARENA.with(|w| w.borrow_mut().recycle(z));
    }

    /// One row's kernel sum: support vector `s` accumulates into lane
    /// `s mod KLANES`, the lanes fold through [`fold8`], and the exact
    /// `2⁻⁶⁴` undoes [`ALPHA_SCALE`]. The last block's zero padding has
    /// α = 0, so for a finite query its lanes add exactly `+0.0`.
    #[inline]
    fn kernel_sum_row(&self, z: &[f32]) -> f32 {
        let xn = sq_norm(z);
        let mut lanes = [0.0f32; KLANES];
        for s0 in (0..self.nsv).step_by(KLANES) {
            let t = self.block_terms(z, xn, s0);
            for (lane, &v) in lanes.iter_mut().zip(&t) {
                *lane += v;
            }
        }
        fold8(lanes) * ALPHA_UNSCALE
    }

    /// `αᵢ·exp(-γ‖z − svᵢ‖²)` for the `KLANES` support vectors from
    /// `s0`, vectorized across them. Each cross term `z·svᵢ` has one
    /// accumulator per lane: feature `p` lands in lane `p mod KLANES` in
    /// ascending `p`, and the lanes fold through the [`fold8`] tree —
    /// the `osa-nn` lane-8 contract, so it has the bits of
    /// [`dot8`](crate::kernel::dot8) and of a GEMM cross term. The
    /// squared distance is reconstructed as `‖z‖² + ‖svᵢ‖² − 2·z·svᵢ`;
    /// the floor at 0 guards it against tiny negative values from
    /// cancellation (exact zero is guaranteed only when the operands are
    /// bit-identical, e.g. a query that *is* a support vector). It
    /// passes NaN through, so a non-finite query yields a NaN sum rather
    /// than `K = 1`, the most in-distribution value.
    #[inline(always)]
    fn block_terms(&self, z: &[f32], xn: f32, s0: usize) -> [f32; KLANES] {
        let stride = self.nsv.next_multiple_of(KLANES);
        let mut acc = [[0.0f32; KLANES]; KLANES];
        let madd = |lane: &mut [f32; KLANES], p: usize| {
            let sv: &[f32; KLANES] = self.svs_t[p * stride + s0..][..KLANES]
                .try_into()
                .expect("lane group");
            for j in 0..KLANES {
                lane[j] += z[p] * sv[j];
            }
        };
        let k = z.len();
        let mut p = 0;
        while p + KLANES <= k {
            for (l, lane) in acc.iter_mut().enumerate() {
                madd(lane, p + l);
            }
            p += KLANES;
        }
        let rem = k - p; // tail: feature p + l lands in lane l
        for (l, lane) in acc.iter_mut().enumerate() {
            if l < rem {
                madd(lane, p + l);
            }
        }
        let norms: &[f32; KLANES] = self.sv_norms[s0..][..KLANES]
            .try_into()
            .expect("lane group");
        let alphas: &[f32; KLANES] = self.sv_alphas[s0..][..KLANES]
            .try_into()
            .expect("lane group");
        let mut terms = [0.0f32; KLANES];
        for j in 0..KLANES {
            let cross = ((acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j]))
                + ((acc[4][j] + acc[5][j]) + (acc[6][j] + acc[7][j]));
            let d2 = floor_nan(xn + norms[j] - 2.0 * cross, 0.0);
            terms[j] = alphas[j] * exp_fast(-self.gamma * d2);
        }
        terms
    }

    fn kernel_sum(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.std.mean.len(), "feature dimension");
        let mut q = SCORE_ARENA.with(|w| w.borrow_mut().take(1, x.len()));
        q.row_mut(0).copy_from_slice(x);
        let mut out = [0.0f32];
        self.kernel_sums_into(&q, &mut out);
        SCORE_ARENA.with(|w| w.borrow_mut().recycle(q));
        out[0]
    }
}

thread_local! {
    /// Scratch for the batched scorer: the standardized query block.
    /// Thread-local (mirroring the pack arena in `osa_nn::tensor`) so
    /// scoring stays `&self` and allocation-free after the first call
    /// per thread — each fleet lane warms its own pool once.
    static SCORE_ARENA: std::cell::RefCell<Workspace> =
        std::cell::RefCell::new(Workspace::new());
}

/// Exact power-of-two scale on the stored dual coefficients, `2⁶⁴`.
///
/// The kernel floor `exp_fast(-87) ≈ 1.6·10⁻³⁸` is a normal f32, but
/// `αᵢ < 1` times it is not: unscaled, every far support vector's term
/// would be a subnormal product, which costs a microcode assist per
/// lane, and an out-of-distribution window would score several times
/// slower than an in-distribution one. Scaled, `αᵢ·2⁶⁴·exp_fast(-87)` stays normal for
/// every `αᵢ ≥ 2⁻⁶⁴` (checked in `fit`), and the sum cannot overflow
/// because `Σαᵢ = 1`. Scaling by a power of two is exact, so every sum
/// that was normal before — every sum at or above [`LOG_FLOOR`] — keeps
/// its bits; only sums that already floor may differ.
pub const ALPHA_SCALE: f32 = f32::from_bits((127 + 64) << 23);

/// `2⁻⁶⁴`, the exact inverse of [`ALPHA_SCALE`].
const ALPHA_UNSCALE: f32 = f32::from_bits((127 - 64) << 23);

/// Floor for the kernel expansion before taking logs: far inputs
/// underflow `Σ αᵢ K` to exactly 0, and score `ln ρ − ln LOG_FLOOR`.
pub const LOG_FLOOR: f32 = 1e-30;

/// `max(x, floor)` that keeps NaN: `floor > NaN` is false. One compare,
/// so it lowers to a single `maxps(floor, x)`, which returns its second
/// operand on NaN (`f32::max` would return `floor` instead and turn a
/// non-finite query into an in-distribution score).
#[inline(always)]
fn floor_nan(x: f32, floor: f32) -> f32 {
    if floor > x {
        floor
    } else {
        x
    }
}

impl NoveltyDetector for OcSvm {
    fn name(&self) -> &'static str {
        "ocsvm"
    }

    fn fit(&mut self, x: &Tensor) {
        self.std = Standardizer::fit(x);
        let z = self.std.apply(x);
        self.gamma = self.cfg.gamma.unwrap_or(1.0 / x.cols().max(1) as f32);
        let r: SmoResult = solve_one_class(&z, self.gamma, self.cfg.nu, &self.cfg.smo);
        let c = 1.0 / (self.cfg.nu * x.rows() as f64);
        let sv_idx: Vec<usize> = (0..x.rows()).filter(|&i| r.alphas[i] > 0.0).collect();
        let (nsv, d) = (sv_idx.len(), x.cols());
        let stride = nsv.next_multiple_of(KLANES);
        let mut svs_t = vec![0.0f32; d * stride];
        for (s, &i) in sv_idx.iter().enumerate() {
            for (p, &v) in z.row(i).iter().enumerate() {
                svs_t[p * stride + s] = v;
            }
        }
        let mut sv_alphas = vec![0.0f32; stride];
        let mut sv_norms = vec![0.0f32; stride];
        for (s, &i) in sv_idx.iter().enumerate() {
            sv_alphas[s] = r.alphas[i] as f32 * ALPHA_SCALE;
            sv_norms[s] = sq_norm(z.row(i));
        }
        // Precondition of the constant-cost kernel (see ALPHA_SCALE):
        // every scaled α times the exp floor is a normal f32, i.e.
        // α ≳ 4·10⁻²⁰. SMO sets an α to exactly 0 when a step reaches the
        // bound, so a positive α this small takes a step that stops just
        // short of it — possible in principle, e.g. on the tiny rounding
        // residue of the feasible start. It would only bring back slow
        // subnormal products on far windows. The support vector is kept
        // either way: dropping it would move the sums.
        debug_assert!(
            sv_alphas[..nsv]
                .iter()
                .all(|&a| (a * exp_fast(-87.0)).is_normal()),
            "a scaled dual coefficient times the exp floor is subnormal"
        );
        self.nsv = nsv;
        self.svs_t = svs_t;
        self.sv_alphas = sv_alphas;
        self.sv_norms = sv_norms;
        self.rho = r.rho as f32;
        self.ln_rho = self.rho.max(LOG_FLOOR).ln();
        self.diag = Some(FitDiag {
            iters: r.iters,
            kkt_gap: r.kkt_gap,
            support_vectors: nsv,
            min_alpha: sv_idx
                .iter()
                .map(|&i| r.alphas[i] as f32)
                .fold(f32::INFINITY, f32::min),
            bounded_svs: sv_idx
                .iter()
                .filter(|&&i| r.alphas[i] >= c * (1.0 - 1e-8))
                .count(),
        });
    }

    /// Log-domain novelty `ln ρ − ln Σᵢ αᵢ K(z(x), svᵢ)`.
    ///
    /// A strictly monotone transform of [`OcSvm::raw_score`]: same sign
    /// at the decision boundary (`f = ρ`), same induced ordering. The
    /// linear-domain value saturates at ρ as the kernels underflow, so
    /// under a *sustained* distribution shift it goes constant and its
    /// k-window variance collapses back below any threshold; the log
    /// domain keeps growing like `γ·d²`, which is what the variance
    /// monitor needs to see. A window holding NaN or ±∞ scores
    /// non-finite, which the monitor counts as an exceedance.
    fn score(&self, x: &[f32]) -> f32 {
        self.ln_rho - floor_nan(self.kernel_sum(x), LOG_FLOOR).ln()
    }

    /// The batched engine: [`OcSvm::kernel_sums_into`], then the log
    /// epilogue per row. [`NoveltyDetector::score`] is a batch of one
    /// through the same code, so the bits never depend on batch size.
    fn score_batch_into(&self, x: &Tensor, out: &mut [f32]) {
        self.kernel_sums_into(x, out);
        for o in out.iter_mut() {
            *o = self.ln_rho - floor_nan(*o, LOG_FLOOR).ln();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::rng::Rng;

    fn cluster(n: usize, d: usize, center: f32, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = Tensor::zeros(n, d);
        for v in t.data_mut() {
            *v = center + rng.range_f32(-0.5, 0.5);
        }
        t
    }

    fn far_point(d: usize) -> Vec<f32> {
        vec![25.0; d]
    }

    #[test]
    fn ocsvm_ranks_far_points_above_training_points() {
        let x = cluster(120, 4, 1.0, 11);
        let mut det = OcSvm::new(OcSvmConfig::default());
        det.fit(&x);
        let inlier = det.score(x.row(0));
        let outlier = det.score(&far_point(4));
        assert!(outlier > inlier, "outlier {outlier} <= inlier {inlier}");
    }

    #[test]
    fn ocsvm_score_variants_agree_on_the_boundary_sign() {
        let x = cluster(80, 3, 0.0, 5);
        let mut det = OcSvm::new(OcSvmConfig::default());
        det.fit(&x);
        // Inliers near the cluster, outliers far away: decision,
        // raw_score, and the log-domain score must classify alike.
        for q in [[0.1f32, -0.2, 0.05], [0.3, 0.1, -0.1], [8.0, -9.0, 7.5]] {
            assert_eq!(det.decision(&q).to_bits(), (-det.raw_score(&q)).to_bits());
            assert_eq!(
                det.raw_score(&q) > 0.0,
                det.score(&q) > 0.0,
                "log transform must preserve the boundary at {q:?}"
            );
        }
        // Monotone: a far point scores strictly above a near one.
        assert!(det.score(&[9.0, 9.0, 9.0]) > det.score(&[0.1, -0.2, 0.05]));
    }
}
