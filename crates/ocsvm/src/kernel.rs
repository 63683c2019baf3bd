//! The RBF (Gaussian) kernel behind the one-class SVM, plus the
//! deterministic primitives the batched scoring engine is built from.
//!
//! `K(a, b) = exp(-γ‖a − b‖²)` — symmetric, bounded in (0, 1], and
//! positive semi-definite for γ > 0 (Mercer), which the property tests
//! spot-check on random Gram matrices.
//!
//! # One kernel, one reference
//!
//! [`rbf`] is the tests' independent reference kernel: the squared
//! distance accumulates in ascending index order, so `K(a, b)` is
//! bit-identical to `K(b, a)` (each term `(aᵢ−bᵢ)²` equals `(bᵢ−aᵢ)²`
//! exactly in IEEE arithmetic), and the property tests check symmetry,
//! bounds and PSD Gram matrices on it. Neither production path calls
//! it. The SMO solver builds its kernel rows in `smo::kernel_row` from
//! GEMM cross terms, and the scorer in [`crate::detector`] *decomposes*
//! the distance — `‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b` — with the
//! support-vector norms precomputed at fit time and the cross terms
//! computed per row, eight support vectors at a time, in the lane-8
//! order of [`dot8`]. These orders agree with [`rbf`] to f32 rounding
//! but not bit-for-bit; the scorer uses its order at every batch size,
//! so scores never depend on how queries were grouped.
//!
//! Solver and scorer share one exponential, [`exp_fast`]: branchless polynomial
//! arithmetic that LLVM auto-vectorizes across the eight support
//! vectors of a block, bit-deterministic on every input, < 5·10⁻⁷ max
//! relative error (tested against `f32::exp` below). With about 650
//! support vectors per decision, the exponential and the ten-feature
//! cross terms are the whole U_S cost; `expf` calls through libm would
//! keep the loop scalar.
//!
//! [`dot8`] and [`sq_norm`] fix the `osa-nn` lane-8 accumulation
//! contract (product `p` → lane `p mod 8`, fixed fold tree), and the
//! scorer's cross terms follow it too, so a norm computed here cancels
//! *exactly* against the cross term when the operands are identical —
//! `‖x‖² + ‖x‖² − 2·x·x ≡ 0`, giving `K(x, x) = 1` on both paths.

use osa_nn::tensor::{fold8, KLANES};

/// `exp(x)` as branchless, auto-vectorizable f32 arithmetic.
///
/// Splits `x = r·ln 2 + f` with `r` integer and `|f| ≤ ½ ln 2`, takes
/// `e^f` by a degree-6 polynomial and `2^r` through exponent bits. The
/// residual `f` is recovered by Cody-Waite two-constant reduction
/// (`ln 2` split into a short-mantissa head and a tail), so no
/// precision is lost to the `x·log₂e` product even at the clamp edge.
/// The input is clamped to `[-87, 88]` — beyond that f32 underflows /
/// overflows anyway; the clamp floor returns ~1.6·10⁻³⁸, a normal f32,
/// instead of a subnormal or 0. That floor sits just above the normal
/// range, so any factor below 1 — a dual coefficient αᵢ — pushes the
/// product into subnormals, which cost a microcode assist per lane; the
/// OC-SVM scorer stores αᵢ pre-scaled by 2⁶⁴ for that reason (see
/// `ALPHA_SCALE` in [`crate::detector`]). `exp_fast(0.0) == 1.0` exactly
/// (the polynomial's constant term), which [`rbf`]'s `K(x, x) = 1`
/// contract relies on.
#[inline(always)]
pub fn exp_fast(x: f32) -> f32 {
    // 1.5·2²³: adding and subtracting rounds to the nearest integer in
    // default round-to-nearest-even, with no cvt round trip.
    const ROUND_MAGIC: f32 = 12_582_912.0;
    // ln 2 = HI + LO with HI's mantissa short enough that r·HI is exact
    // for |r| ≤ 127 (the classic Cody-Waite split).
    const LN2_HI: f32 = 0.693_145_75;
    const LN2_LO: f32 = 1.428_606_8e-6;
    let x = x.clamp(-87.0, 88.0);
    let t = x * std::f32::consts::LOG2_E;
    let m = t + ROUND_MAGIC;
    let r = m - ROUND_MAGIC;
    let f = (x - r * LN2_HI) - r * LN2_LO;
    // e^f Taylor through f⁶/720; truncation ≤ 1.7·10⁻⁷ relative at
    // |f| = ½ ln 2.
    const C3: f32 = 1.0 / 6.0;
    const C4: f32 = 1.0 / 24.0;
    const C5: f32 = 1.0 / 120.0;
    const C6: f32 = 1.0 / 720.0;
    let p = 1.0 + f * (1.0 + f * (0.5 + f * (C3 + f * (C4 + f * (C5 + f * C6)))));
    // 2^r through exponent bits, read straight out of the magic-rounded
    // sum: `m = ROUND_MAGIC + r` exactly, so m's low mantissa bits hold
    // r and `(bits + 127) << 23` is the biased-exponent pattern of 2^r
    // (r ∈ [-126, 127] after the clamp keeps it in normal range). A
    // `r as i32` cvt here would block the vectorizer — same lesson as
    // the int8 quantize pass in `osa-nn::quant`.
    let scale = f32::from_bits(m.to_bits().wrapping_add(127) << 23);
    p * scale
}

/// Lane-8 dot product of two equal-length slices, mirroring the
/// `osa-nn` kernel contract: product `p` accumulates into lane
/// `p mod 8`, lanes reduce through the fixed [`fold8`] tree. Any dot of
/// the same operands computed by the GEMM kernels returns these bits.
#[inline]
pub fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot8 dimension mismatch");
    let k = a.len();
    let mut lanes = [0.0f32; KLANES];
    let mut p = 0;
    while p + KLANES <= k {
        let ax: &[f32; KLANES] = a[p..][..KLANES].try_into().expect("lane group");
        let bx: &[f32; KLANES] = b[p..][..KLANES].try_into().expect("lane group");
        for (lane, (&av, &bv)) in lanes.iter_mut().zip(ax.iter().zip(bx)) {
            *lane += av * bv;
        }
        p += KLANES;
    }
    let rem = k - p; // tail: product p + l lands in lane l
    for l in 0..KLANES {
        if l < rem {
            lanes[l] += a[p + l] * b[p + l];
        }
    }
    fold8(lanes)
}

/// `‖a‖²` in the lane-8 contract order — `dot8(a, a)`, named for the
/// call sites that precompute norms for the distance decomposition.
#[inline]
pub fn sq_norm(a: &[f32]) -> f32 {
    dot8(a, a)
}

/// `exp(-gamma · ‖a − b‖²)`, ascending-index distance accumulation.
///
/// Dimensions are validated by `debug_assert!` only — callers (the SMO
/// solver, the detectors) check query width once at the fit/batch
/// boundary, not per kernel evaluation inside the hot loop.
#[inline]
pub fn rbf(gamma: f32, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "rbf kernel dimension mismatch");
    let mut d2 = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        d2 += d * d;
    }
    exp_fast(-gamma * d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_points_score_one() {
        let x = [0.3, -1.2, 4.0];
        assert_eq!(rbf(0.7, &x, &x), 1.0);
    }

    #[test]
    fn known_value() {
        // ‖a-b‖² = 1 + 4 = 5; K = exp(-0.5 * 5).
        let k = rbf(0.5, &[1.0, 0.0], &[0.0, 2.0]);
        assert!((k - (-2.5f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn exp_fast_tracks_std_exp() {
        // Sweep the whole working range of -γ‖·‖² arguments.
        let mut worst = 0.0f64;
        let mut x = -86.0f32;
        while x <= 0.0 {
            let got = exp_fast(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.0137;
        }
        assert!(worst < 5e-7, "worst relative error {worst:e}");
        assert_eq!(exp_fast(0.0), 1.0);
        assert_eq!(exp_fast(-0.0), 1.0);
        // Deep underflow clamps to a tiny positive normal, never NaN or
        // a garbage exponent.
        let deep = exp_fast(-1.0e4);
        assert!(deep > 0.0 && deep < 1e-37, "clamp floor, got {deep:e}");
    }

    #[test]
    fn exp_fast_is_monotone_near_the_decision_scale() {
        // Novelty scores compare kernel sums; a non-monotone exp could
        // invert orderings. Check fine-grained monotonicity where the
        // scores live.
        let mut prev = exp_fast(-20.0);
        let mut x = -20.0f32 + 1e-3;
        while x <= 0.0 {
            let v = exp_fast(x);
            assert!(v >= prev, "exp_fast not monotone at {x}");
            prev = v;
            x += 1e-3;
        }
    }

    #[test]
    fn dot8_matches_plain_dot_to_rounding_and_norm_cancels_exactly() {
        let a: Vec<f32> = (0..25).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..25).map(|i| (i as f32 * 0.91).cos()).collect();
        let want: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as f64).sum();
        assert!((dot8(&a, &b) as f64 - want).abs() < 1e-5);
        // The exact-cancellation contract behind K(x, x) = 1 on the
        // decomposed path: ‖a‖² + ‖a‖² − 2·(a·a) with the norm and the
        // cross term in the same accumulation order.
        let n = sq_norm(&a);
        let cross = dot8(&a, &a);
        assert_eq!(n + n - 2.0 * cross, 0.0);
    }
}
