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
//! Rows then go through the support vectors four at a time, two rows
//! per 16-lane register, in one fused pass over blocks of eight support
//! vectors stored feature-major: the cross terms, the distances, the
//! exponentials and the α-weighted sums of all four rows, vectorized
//! across (row, support vector) lanes. Each block is loaded once per
//! group of four. The stored α are pre-scaled by [`ALPHA_SCALE`] so no
//! product goes subnormal, and a far window costs what a near one does.
//!
//! The batched path is the *canonical* computation: the scalar `score`
//! delegates to a batch of one, so scores are bit-identical at every
//! batch size — every lane runs one row's operation sequence and lanes
//! never mix, so grouping queries (and sharding rows across the pool)
//! can never change a row's bits, at any `OSA_THREADS`. Scratch lives
//! in a thread-local [`Workspace`] arena, so neither path allocates
//! after its first call on a given thread.

use crate::kernel::{cross_terms, exp_fast, sq_norm};
use crate::smo::{solve_one_class, SmoConfig, SmoResult};
use osa_nn::tensor::{fold8, par_rows, Tensor, KLANES};
use osa_nn::workspace::Workspace;

/// A novelty scorer: fit on in-distribution rows, then score queries.
/// Higher scores mean *more novel* for every implementation.
pub trait NoveltyDetector {
    /// Short stable identifier used in benchmark and figure artifacts.
    fn name(&self) -> &'static str;
    /// Fit on a matrix whose rows are in-distribution feature vectors.
    /// Fails closed: an empty matrix or one holding a NaN or ±∞ returns
    /// a [`FitError`] and leaves the detector as it was, never a
    /// detector that scores every window NaN.
    fn fit(&mut self, x: &Tensor) -> Result<(), FitError>;
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

/// Why [`NoveltyDetector::fit`] refused a training matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitError {
    /// The matrix has no rows or no columns.
    Empty,
    /// The value at (`row`, `col`) is NaN or ±∞, or overflows f32 once
    /// standardized.
    NonFinite { row: usize, col: usize },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::Empty => write!(f, "empty training matrix"),
            FitError::NonFinite { row, col } => {
                write!(f, "non-finite training value at row {row}, column {col}")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// The first (row, column) of `x` holding a NaN or ±∞, as a [`FitError`].
fn check_finite(x: &Tensor) -> Result<(), FitError> {
    match x.data().iter().position(|v| !v.is_finite()) {
        Some(i) => Err(FitError::NonFinite {
            row: i / x.cols(),
            col: i % x.cols(),
        }),
        None => Ok(()),
    }
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
    /// Standardized support vectors in blocks of `KLANES`, each block
    /// feature-major: feature `p` of support vector `s` at
    /// `sv_blocks[(s / KLANES · d + p) · KLANES + s mod KLANES]`, so one
    /// load reads a feature of a block and a block is contiguous.
    sv_blocks: Vec<f32>,
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
            sv_blocks: Vec::new(),
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
    /// one call. Rows go through the support vectors four at a time, two
    /// per 16-lane register: each group of four is standardized and
    /// staged once, then one pass over the support-vector blocks computes
    /// cross terms, distances, exponentials and the α-weighted sums of
    /// all four (see [`OcSvm::group_sums`]). Every lane holds one (row,
    /// support vector) pair and runs the one-row operation sequence, so a
    /// row's bits never depend on its group-mates. A row range that is
    /// not a multiple of four pads its last group with zero rows whose
    /// sums are discarded. Rows are independent, so a large batch is
    /// split by row across the `osa-runtime` pool without moving a bit.
    /// This is the canonical evaluation — the scalar accessors
    /// ([`OcSvm::decision`], [`OcSvm::raw_score`],
    /// [`NoveltyDetector::score`]) all route through it as a batch of
    /// one, so results are bit-identical at every batch size and pool
    /// width. The cost per row does not depend on the query: every
    /// product stays a normal f32 (see [`ALPHA_SCALE`]). Panics if called
    /// before `fit`, on a query-width mismatch, or if
    /// `out.len() != x.rows()`.
    pub fn kernel_sums_into(&self, x: &Tensor, out: &mut [f32]) {
        assert!(self.nsv > 0, "OcSvm::score before fit");
        let d = self.std.mean.len();
        assert_eq!(x.cols(), d, "feature dimension");
        assert_eq!(x.rows(), out.len(), "kernel_sums_into output length");
        let s = x.rows();
        par_rows(out, s, 1, s * d * self.nsv, |rows, o| {
            // One group's staging: d broadcast features, then the
            // broadcast ‖z‖², and d floats for one standardized row.
            let mut stage = SCORE_ARENA.with(|w| w.borrow_mut().take(1, (d + 1) * QUAD + d));
            let (q, z) = stage.data_mut().split_at_mut((d + 1) * QUAD);
            let (q, _) = q.as_chunks_mut::<PAIR>();
            let (q, _) = q.as_chunks_mut::<2>();
            for (g, og) in o.chunks_mut(GROUP).enumerate() {
                let first = rows.start + g * GROUP;
                for r in 0..GROUP {
                    if r < og.len() {
                        self.std.apply_row_into(x.row(first + r), z);
                    } else {
                        z.fill(0.0);
                    }
                    let (reg, lanes) = (r / 2, r % 2 * KLANES..(r % 2 + 1) * KLANES);
                    for (q, &v) in q.iter_mut().zip(z.iter()) {
                        q[reg][lanes.clone()].fill(v);
                    }
                    q[d][reg][lanes].fill(sq_norm(z));
                }
                let sums = self.group_sums(q);
                og.copy_from_slice(&sums[..og.len()]);
            }
            SCORE_ARENA.with(|w| w.borrow_mut().recycle(stage));
        });
    }

    /// Kernel sums of one staged group of four rows. Rows 0 and 1 share
    /// the first 16-lane register (row 0 in lanes 0–7, row 1 in lanes
    /// 8–15), rows 2 and 3 the second: `q[p]` holds feature `p` of the
    /// four rows, each broadcast over its row's eight lanes, and `q[d]`
    /// their `‖z‖²`. Each support-vector block's features, norms and α
    /// are loaded once and serve all four rows.
    ///
    /// Per block, every lane runs the one-row sequence: the cross term
    /// `z·svᵢ` comes from the shared block kernel `kernel::cross_terms`
    /// (the solver's kernel rows use it too), in the `osa-nn` lane-8
    /// order, so it has the bits of [`dot8`](crate::kernel::dot8). The
    /// squared distance is reconstructed as `‖z‖² + ‖svᵢ‖² − 2·z·svᵢ`;
    /// the floor at 0 guards it against tiny negative values from
    /// cancellation (exact zero is guaranteed only when the operands are
    /// bit-identical, e.g. a query that *is* a support vector). It passes
    /// NaN through, so a non-finite query yields a NaN sum rather than
    /// `K = 1`, the most in-distribution value. Support vector `s` adds
    /// `αₛ·exp(−γd²)` into lane `s mod KLANES` of its row; after the last
    /// block each row's eight lanes fold through [`fold8`] and the exact
    /// `2⁻⁶⁴` undoes [`ALPHA_SCALE`]. The last block's zero padding has
    /// α = 0, so for a finite query its lanes add exactly `+0.0`.
    ///
    /// Out of line on purpose: alone in its function, the block loop
    /// keeps its 16 accumulators and the exponential's constants in
    /// registers.
    #[inline(never)]
    fn group_sums(&self, q: &[Quad]) -> [f32; GROUP] {
        let d = q.len() - 1;
        let (feats, xn) = (&q[..d], &q[d]);
        let blocks = self.sv_blocks.chunks_exact(d * KLANES);
        let norms = self.sv_norms.as_chunks::<KLANES>().0;
        let alphas = self.sv_alphas.as_chunks::<KLANES>().0;
        let mut sums: Quad = [[0.0; PAIR]; 2];
        for ((block, norms), alphas) in blocks.zip(norms).zip(alphas) {
            let cross = cross_terms(feats, block.as_chunks::<KLANES>().0, pair);
            let (norms, alphas) = (pair(norms), pair(alphas));
            for ((sums, xn), cross) in sums.iter_mut().zip(xn).zip(&cross) {
                for j in 0..PAIR {
                    let d2 = floor_nan(xn[j] + norms[j] - 2.0 * cross[j], 0.0);
                    sums[j] += alphas[j] * exp_fast(-self.gamma * d2);
                }
            }
        }
        std::array::from_fn(|r| {
            let row = &sums[r / 2][r % 2 * KLANES..][..KLANES];
            fold8(row.try_into().expect("row lanes")) * ALPHA_UNSCALE
        })
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

/// Rows scored per pass over the support vectors.
const GROUP: usize = 4;

/// Lanes of one register: two rows of `KLANES` support vectors each.
const PAIR: usize = 2 * KLANES;

/// Lanes of one group of four rows.
const QUAD: usize = GROUP * KLANES;

/// One value per lane of two rows: the first in lanes 0–7, the second
/// in lanes 8–15.
type Pair = [f32; PAIR];

/// One value per lane of a group: rows 0–1, then rows 2–3.
type Quad = [Pair; 2];

/// A block's eight support-vector values, once for each row of a pair.
#[inline(always)]
fn pair(v: &[f32; KLANES]) -> Pair {
    std::array::from_fn(|j| v[j % KLANES])
}

thread_local! {
    /// Scratch for the batched scorer: one group's staged queries.
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

    fn fit(&mut self, x: &Tensor) -> Result<(), FitError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(FitError::Empty);
        }
        // The raw values first, so the error names the offending cell;
        // then the standardized ones, which can overflow on their own.
        check_finite(x)?;
        let std = Standardizer::fit(x);
        let z = std.apply(x);
        check_finite(&z)?;
        self.std = std;
        self.gamma = self.cfg.gamma.unwrap_or(1.0 / x.cols() as f32);
        let r: SmoResult = solve_one_class(&z, self.gamma, self.cfg.nu, &self.cfg.smo);
        let c = 1.0 / (self.cfg.nu * x.rows() as f64);
        let sv_idx: Vec<usize> = (0..x.rows()).filter(|&i| r.alphas[i] > 0.0).collect();
        let (nsv, d) = (sv_idx.len(), x.cols());
        let stride = nsv.next_multiple_of(KLANES);
        let mut sv_blocks = vec![0.0f32; d * stride];
        for (s, &i) in sv_idx.iter().enumerate() {
            for (p, &v) in z.row(i).iter().enumerate() {
                sv_blocks[(s / KLANES * d + p) * KLANES + s % KLANES] = v;
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
        self.sv_blocks = sv_blocks;
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
        Ok(())
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
        det.fit(&x).expect("finite training set");
        let inlier = det.score(x.row(0));
        let outlier = det.score(&far_point(4));
        assert!(outlier > inlier, "outlier {outlier} <= inlier {inlier}");
    }

    #[test]
    fn ocsvm_score_variants_agree_on_the_boundary_sign() {
        let x = cluster(80, 3, 0.0, 5);
        let mut det = OcSvm::new(OcSvmConfig::default());
        det.fit(&x).expect("finite training set");
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
