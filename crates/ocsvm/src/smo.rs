//! Working-set SMO solver specialized to the Schölkopf one-class dual.
//!
//! The ν-parameterized one-class SVM (Schölkopf et al., 2001) solves
//!
//! ```text
//! min_α  ½ Σᵢⱼ αᵢαⱼ K(xᵢ, xⱼ)   s.t.  0 ≤ αᵢ ≤ 1/(νn),  Σᵢ αᵢ = 1
//! ```
//!
//! All labels are +1, so the usual two-class working-set machinery
//! collapses: every step picks the *maximal violating pair*
//! `i_up = argmin g over {αᵢ < C}`, `i_low = argmax g over {αᵢ > 0}`
//! (where `g = Kα` is the dual gradient) and moves mass from `i_low` to
//! `i_up` along the equality constraint, clipped to the box. The
//! gradient is maintained incrementally from the two kernel rows the
//! step touches, so memory stays O(n) — no Gram matrix is materialized,
//! which is what lets the detector train on tens of thousands of §3.1
//! windows.
//!
//! Accumulation runs in f64 and the point selection breaks ties toward
//! the lowest index, so a fit is a pure function of its inputs —
//! bit-identical across runs and (trivially, being serial) across pool
//! widths.
//!
//! Kernel rows use the same distance decomposition as the batched
//! scorer (`‖xᵢ − xⱼ‖² = ‖xᵢ‖² + ‖xⱼ‖² − 2·xᵢ·xⱼ`) and come from one
//! fused kernel, [`KernelRows`]: the corpus is copied once into blocks
//! of 16 rows stored feature-major, with the row norms beside it, and
//! each pass computes two rows — the working pair of an iteration, or
//! two columns of the initial gradient — cross terms, distances and
//! exponentials together, every lane in the lane-8 order of
//! [`dot8`](crate::kernel::dot8). Because [`sq_norm`] has that order
//! too, the diagonal cancels *exactly* — `K(i, i) = 1` bit-for-bit —
//! which the curvature floor (`eta`) relies on. Scratch is the O(n·d)
//! copy; no Gram matrix and no kernel-row cache is kept.
//!
//! ν is both a box parameter and a guarantee: at the optimum the
//! fraction of margin errors is ≤ ν ≤ the fraction of support vectors
//! (pinned by `tests/properties.rs`).

use crate::kernel::{cross_terms, exp_fast, sq_norm};
use osa_nn::tensor::Tensor;

/// Convergence controls for [`solve_one_class`].
#[derive(Clone, Copy, Debug)]
pub struct SmoConfig {
    /// Stop when the maximal KKT violation `g[i_low] − g[i_up]` drops
    /// below this.
    pub tol: f64,
    /// Hard iteration cap (each iteration is one pair update).
    pub(crate) max_iter: usize,
}

impl Default for SmoConfig {
    fn default() -> Self {
        SmoConfig {
            tol: 1e-5,
            max_iter: 200_000,
        }
    }
}

/// Solution of the one-class dual.
#[derive(Clone, Debug)]
pub struct SmoResult {
    /// Dual coefficients, `Σ = 1`, each in `[0, 1/(νn)]`.
    pub alphas: Vec<f64>,
    /// Decision offset: `f(x) = Σᵢ αᵢ K(x, xᵢ) − ρ`, averaged over
    /// margin support vectors.
    pub rho: f64,
    /// Pair updates performed.
    pub iters: usize,
    /// Final maximal KKT violation (`< tol` unless `max_iter` hit).
    pub kkt_gap: f64,
}

/// Solve the one-class dual over the rows of `x` with an RBF kernel.
///
/// # Panics
/// If `x` has no rows, holds a NaN or ±∞, or `nu` is outside `(0, 1]`.
/// [`OcSvm::fit`](crate::NoveltyDetector::fit) checks its input first and returns a typed
/// error instead.
pub fn solve_one_class(x: &Tensor, gamma: f32, nu: f64, cfg: &SmoConfig) -> SmoResult {
    let n = x.rows();
    assert!(n >= 1, "one-class SMO needs at least one sample");
    assert!(nu > 0.0 && nu <= 1.0, "nu must be in (0, 1], got {nu}");
    assert!(
        x.data().iter().all(|v| v.is_finite()),
        "one-class SMO needs finite samples"
    );
    let c = 1.0 / (nu * n as f64);

    // Feasible start: the first ⌊νn⌋ points at the box ceiling, the
    // remainder of the unit mass on the next point.
    let mut alphas = vec![0.0f64; n];
    let nf = (nu * n as f64).floor() as usize;
    let mut mass = 1.0f64;
    for a in alphas.iter_mut().take(nf.min(n)) {
        *a = c;
        mass -= c;
    }
    if mass > 0.0 && nf < n {
        alphas[nf] = mass;
    }

    // g = Kα, built from the initially non-zero coefficients two rows
    // per pass. Each g[i] adds its terms in ascending j: that order
    // fixes g's bits, and with them every later step.
    let mut rows = KernelRows::new(x, gamma);
    let mut g = vec![0.0f64; n];
    let mut row = vec![0.0f32; rows.row_len()];
    let mut row_low = vec![0.0f32; rows.row_len()];
    let start: Vec<usize> = (0..n).filter(|&j| alphas[j] > 0.0).collect();
    for js in start.chunks(2) {
        let (a, b) = (js[0], js[js.len() - 1]);
        rows.pair_into(a, b, &mut row, &mut row_low);
        let (aa, ab) = (alphas[a], alphas[b]);
        if js.len() == 2 {
            for ((gi, &ka), &kb) in g.iter_mut().zip(&row).zip(&row_low) {
                *gi += aa * ka as f64;
                *gi += ab * kb as f64;
            }
        } else {
            for (gi, &ka) in g.iter_mut().zip(&row) {
                *gi += aa * ka as f64;
            }
        }
    }

    let mut iters = 0;
    let mut kkt_gap = 0.0;
    while iters < cfg.max_iter {
        let (i_up, i_low) = match select_pair(&alphas, &g, c) {
            Some(pair) => pair,
            None => {
                kkt_gap = 0.0;
                break;
            }
        };
        kkt_gap = g[i_low] - g[i_up];
        if kkt_gap < cfg.tol {
            break;
        }
        rows.pair_into(i_up, i_low, &mut row, &mut row_low);
        // Curvature along e_up − e_low; K_ii = 1 for RBF, so this is
        // 2 − 2K(up, low), floored against degenerate duplicates.
        let eta = (row[i_up] as f64 + row_low[i_low] as f64 - 2.0 * row[i_low] as f64).max(1e-12);
        let delta = (kkt_gap / eta).min(c - alphas[i_up]).min(alphas[i_low]);
        alphas[i_up] += delta;
        alphas[i_low] -= delta;
        for ((gi, &ku), &kl) in g.iter_mut().zip(&row).zip(&row_low) {
            *gi += delta * (ku as f64 - kl as f64);
        }
        iters += 1;
    }

    SmoResult {
        rho: estimate_rho(&alphas, &g, c),
        alphas,
        iters,
        kkt_gap,
    }
}

/// Training rows per block of [`KernelRows`]' corpus copy: one 16-lane
/// register.
const BLOCK: usize = 16;

/// One value per training row of a block.
type Lanes = [f32; BLOCK];

/// Kernel rows `K(i, ·)` of the one-class dual against every training
/// row, two rows per pass.
///
/// The training set is copied once into blocks
/// of `BLOCK` rows, each block feature-major (feature `p` of row `j`
/// at `blocks[j / BLOCK · d + p][j mod BLOCK]`), with the row norms
/// beside it; the last block is zero-padded. A pass stages the two query
/// rows' features, each broadcast over a register, and streams the
/// blocks once: every block load serves both rows. Per lane it runs the
/// sequence of one kernel value,
///
/// ```text
/// c = x_a·x_j            (lane-8 order, kernel::cross_terms)
/// K = exp_fast(−γ · (‖x_a‖² + ‖x_j‖² − 2c).max(0))
/// ```
///
/// so every value has the bits of the same decomposition written with
/// [`dot8`](crate::kernel::dot8) and [`sq_norm`], and `K(i, i) = 1`
/// exactly (the norm cancels the cross term), which the solver's
/// curvature floor relies on. Scratch is the `n × d` copy plus `O(d)`
/// staging, set up once per solve; a pass allocates nothing and runs
/// serially on the calling thread, so a fit is bit-identical at every
/// `OSA_THREADS`.
pub struct KernelRows<'a> {
    x: &'a Tensor,
    gamma: f32,
    blocks: Vec<Lanes>,
    norms: Vec<Lanes>,
    /// Feature `p` of the two query rows, each over its own register.
    stage: Vec<[Lanes; 2]>,
}

impl<'a> KernelRows<'a> {
    /// Copy the rows of `x` into the block layout.
    pub fn new(x: &'a Tensor, gamma: f32) -> KernelRows<'a> {
        let (n, d) = (x.rows(), x.cols());
        let nb = n.div_ceil(BLOCK);
        let mut blocks = vec![[0.0f32; BLOCK]; nb * d];
        let mut norms = vec![[0.0f32; BLOCK]; nb];
        for j in 0..n {
            let (b, l) = (j / BLOCK, j % BLOCK);
            for (p, &v) in x.row(j).iter().enumerate() {
                blocks[b * d + p][l] = v;
            }
            norms[b][l] = sq_norm(x.row(j));
        }
        KernelRows {
            x,
            gamma,
            blocks,
            norms,
            stage: vec![[[0.0; BLOCK]; 2]; d],
        }
    }

    /// Length of a row buffer: the row count rounded up to a whole
    /// block. Entries past the last training row are padding.
    pub fn row_len(&self) -> usize {
        self.norms.len() * BLOCK
    }

    /// `K(a, ·)` into `ka` and `K(b, ·)` into `kb` in one pass over the
    /// blocks (`a == b` is allowed). Panics unless both buffers are
    /// [`KernelRows::row_len`] long.
    pub fn pair_into(&mut self, a: usize, b: usize, ka: &mut [f32], kb: &mut [f32]) {
        assert!(
            ka.len() == self.row_len() && kb.len() == self.row_len(),
            "kernel row buffers must be row_len() long"
        );
        let (xa, xb) = (self.x.row(a), self.x.row(b));
        for (q, (&va, &vb)) in self.stage.iter_mut().zip(xa.iter().zip(xb)) {
            *q = [[va; BLOCK], [vb; BLOCK]];
        }
        let (ka, kb) = (ka.as_chunks_mut().0, kb.as_chunks_mut().0);
        let qn = [sq_norm(xa), sq_norm(xb)];
        let (q, blocks, norms) = (&self.stage, &self.blocks, &self.norms);
        rows_pass(q, blocks, norms, self.gamma, qn, ka, kb);
    }
}

/// The blocked pass of [`KernelRows::pair_into`]: `q` holds the staged
/// query features, `qn` their norms. Out of line on purpose: alone in
/// its function, the block loop keeps its 16 accumulators and the
/// exponential's constants in registers (written as a method that
/// reads the staging through `self`, LLVM spilled them to the stack and
/// the fit ran about 4× slower).
#[inline(never)]
fn rows_pass(
    q: &[[Lanes; 2]],
    blocks: &[Lanes],
    norms: &[Lanes],
    gamma: f32,
    qn: [f32; 2],
    ka: &mut [Lanes],
    kb: &mut [Lanes],
) {
    let blocks = blocks.chunks_exact(q.len());
    for ((block, nj), (ka, kb)) in blocks.zip(norms).zip(ka.iter_mut().zip(kb)) {
        let cross = cross_terms(q, block, |s: &Lanes| *s);
        for (out, (c, qn)) in [ka, kb].into_iter().zip(cross.iter().zip(qn)) {
            for j in 0..BLOCK {
                let d2 = (qn + nj[j] - 2.0 * c[j]).max(0.0);
                out[j] = exp_fast(-gamma * d2);
            }
        }
    }
}

/// Maximal violating pair: `i_up` minimizes `g` over the still-raisable
/// set (`α < C`), `i_low` maximizes `g` over the still-lowerable set
/// (`α > 0`). Ties break toward the lowest index. `None` when either set
/// is empty.
///
/// Branch-free: one masked pass per set takes the extreme [`order_key`]
/// (an element outside the set counts as `i64::MAX` or `i64::MIN`), then
/// a scan finds the first index in the set that reaches it, a lane group
/// at a time. Integer keys make the pass a plain vectorizable min/max
/// reduction; on the solver's `g`, which is finite and never `-0.0` (it
/// starts at `+0.0` and only gains sums), key order and key equality are
/// float order and float equality, so this is the pair a sequential
/// strict-comparison scan finds.
fn select_pair(alphas: &[f64], g: &[f64], c: f64) -> Option<(usize, usize)> {
    let keys = || alphas.iter().zip(g).map(|(&a, &g)| (a, order_key(g)));
    let lo = keys()
        .map(|(a, k)| if a < c { k } else { i64::MAX })
        .min()?;
    let hi = keys()
        .map(|(a, k)| if a > 0.0 { k } else { i64::MIN })
        .max()?;
    let i_up = first_hit(alphas, g, |a, g| (a < c) & (order_key(g) == lo))?;
    let i_low = first_hit(alphas, g, |a, g| (a > 0.0) & (order_key(g) == hi))?;
    Some((i_up, i_low))
}

/// The bits of a non-NaN `x` as an `i64` that orders like `x` (negative
/// values have their magnitude bits flipped).
#[inline(always)]
fn order_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Lane group of [`first_hit`]'s scan: one 512-bit register of f64.
const SCAN: usize = 8;

/// The first index `i` with `hit(alphas[i], g[i])`: the first lane group
/// holding a hit, tested without branches, then the index within it (or
/// within the tail, if no whole group hits).
fn first_hit(alphas: &[f64], g: &[f64], hit: impl Fn(f64, f64) -> bool) -> Option<usize> {
    let a_groups = alphas.as_chunks::<SCAN>().0;
    let g_groups = g.as_chunks::<SCAN>().0;
    let group = a_groups
        .iter()
        .zip(g_groups)
        .position(|(a, g)| (0..SCAN).fold(false, |any, l| any | hit(a[l], g[l])))
        .unwrap_or(a_groups.len());
    (group * SCAN..g.len()).find(|&i| hit(alphas[i], g[i]))
}

/// ρ from the KKT conditions: margin SVs (`0 < α < C`) satisfy
/// `g_i = ρ` exactly at the optimum, so average `g` over them. With no
/// margin SVs, ρ lies between the bound groups — take the midpoint.
fn estimate_rho(alphas: &[f64], g: &[f64], c: f64) -> f64 {
    let eps = c * 1e-8;
    let mut sum = 0.0;
    let mut count = 0usize;
    for (&a, &gi) in alphas.iter().zip(g) {
        if a > eps && a < c - eps {
            sum += gi;
            count += 1;
        }
    }
    if count > 0 {
        return sum / count as f64;
    }
    let mut hi = f64::NEG_INFINITY; // max g over α at the ceiling
    let mut lo = f64::INFINITY; // min g over α at the floor
    for (&a, &gi) in alphas.iter().zip(g) {
        if a >= c - eps {
            hi = hi.max(gi);
        } else if a <= eps {
            lo = lo.min(gi);
        }
    }
    match (hi.is_finite(), lo.is_finite()) {
        (true, true) => 0.5 * (hi + lo),
        (true, false) => hi,
        (false, true) => lo,
        (false, false) => g.iter().sum::<f64>() / g.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::rng::Rng;

    fn blob(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = Tensor::zeros(n, d);
        for v in t.data_mut() {
            *v = rng.range_f32(-1.0, 1.0);
        }
        t
    }

    #[test]
    fn alphas_stay_feasible_and_sum_to_one() {
        let x = blob(60, 4, 3);
        let r = solve_one_class(&x, 0.5, 0.2, &SmoConfig::default());
        let c = 1.0 / (0.2 * 60.0);
        let sum: f64 = r.alphas.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(r.alphas.iter().all(|&a| (-1e-12..=c + 1e-12).contains(&a)));
        assert!(r.kkt_gap < 1e-5, "gap {}", r.kkt_gap);
    }

    #[test]
    fn nu_one_fixes_every_alpha_at_the_ceiling() {
        // ν = 1 ⇒ C = 1/n and Σα = 1 force α ≡ 1/n; the solver must
        // recognize the fully-bounded point and stop immediately.
        let x = blob(20, 3, 9);
        let r = solve_one_class(&x, 1.0, 1.0, &SmoConfig::default());
        for &a in &r.alphas {
            assert!((a - 0.05).abs() < 1e-12);
        }
        assert_eq!(r.iters, 0);
    }

    #[test]
    fn solving_twice_is_bit_identical() {
        let x = blob(40, 5, 17);
        let a = solve_one_class(&x, 0.8, 0.1, &SmoConfig::default());
        let b = solve_one_class(&x, 0.8, 0.1, &SmoConfig::default());
        assert_eq!(a.rho.to_bits(), b.rho.to_bits());
        assert_eq!(a.iters, b.iters);
        for (x1, x2) in a.alphas.iter().zip(&b.alphas) {
            assert_eq!(x1.to_bits(), x2.to_bits());
        }
    }
}
