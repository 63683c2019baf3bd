//! Bit pins of the SMO solver.
//!
//! - Every fused kernel row ([`KernelRows`], two rows per pass over a
//!   block-major copy of the corpus) equals the reference decomposition
//!   `exp_fast(−γ·(‖a‖² + ‖b‖² − 2·dot8(a, b)).max(0))` bit for bit, at
//!   row counts around the 16-row block and feature counts around the
//!   8-lane group, and `K(i, i) == 1.0` exactly.
//! - A fixed-seed solve keeps its α/ρ/iteration/KKT-gap fingerprint. The
//!   pinned values were recorded on the solver that built each kernel
//!   row from a GEMM cross term, so the fused rows reproduce those bits
//!   on every iteration.

use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;
use osa_ocsvm::{dot8, exp_fast, sq_norm, KernelRows};

/// Throughput-window-like rows: a tight main mode, a second mode and a
/// few scattered rows.
fn dataset(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Tensor::zeros(n, d);
    for i in 0..n {
        let (center, spread) = match i % 10 {
            9 => (3.0, 2.0),
            k if k < 6 => (0.0, 0.5),
            _ => (1.5, 0.3),
        };
        for v in t.row_mut(i) {
            *v = center + rng.range_f32(-spread, spread);
        }
    }
    t
}

/// `K(a, b)` through the reference decomposition.
fn reference(gamma: f32, a: &[f32], b: &[f32]) -> f32 {
    let d2 = (sq_norm(a) + sq_norm(b) - 2.0 * dot8(a, b)).max(0.0);
    exp_fast(-gamma * d2)
}

#[test]
fn fused_kernel_rows_equal_the_reference_decomposition() {
    for n in [1, 15, 16, 17, 33, 65] {
        for d in [1, 8, 10, 17] {
            let x = dataset(n, d, (n * 100 + d) as u64);
            let gamma = 1.0 / d as f32;
            let mut rows = KernelRows::new(&x, gamma);
            assert_eq!(rows.row_len(), n.next_multiple_of(16));
            // Dirty buffers: every entry below n must be overwritten.
            let mut ka = vec![f32::NAN; rows.row_len()];
            let mut kb = vec![f32::NAN; rows.row_len()];
            for a in 0..n {
                for b in [a, (a * 7 + 3) % n, n - 1 - a] {
                    rows.pair_into(a, b, &mut ka, &mut kb);
                    for j in 0..n {
                        for (i, k) in [(a, ka[j]), (b, kb[j])] {
                            let want = reference(gamma, x.row(i), x.row(j));
                            assert_eq!(
                                k.to_bits(),
                                want.to_bits(),
                                "n {n}, d {d}: K({i}, {j}) = {k} vs {want}"
                            );
                        }
                    }
                    assert_eq!(ka[a], 1.0, "n {n}, d {d}: K({a}, {a})");
                    assert_eq!(kb[b], 1.0, "n {n}, d {d}: K({b}, {b})");
                }
            }
        }
    }
}

/// FNV-1a over the bits of every dual coefficient.
fn alpha_hash(alphas: &[f64]) -> u64 {
    alphas.iter().fold(0xcbf2_9ce4_8422_2325, |h, a| {
        (h ^ a.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A solve's inputs: (n, d, γ, ν, seed).
type Problem = (usize, usize, f32, f64, u64);

/// A solve's fingerprint: (iters, ρ bits, kkt_gap bits, α hash).
type Fingerprint = (usize, u64, u64, u64);

#[test]
fn fixed_seed_solves_keep_their_fingerprint() {
    let cases: [(Problem, Fingerprint); 3] = [
        (
            (600, 10, 0.1, 0.1, 0x51_0E),
            (
                185,
                0x3fbc_f5cd_a59c_8cc0,
                0x3ee3_241f_03ea_8000,
                0x0692_bde8_a76e_1bad,
            ),
        ),
        (
            (257, 3, 0.7, 0.25, 0x51_0F),
            (
                215,
                0x3fcc_9c19_cf02_26f2,
                0x3ee2_b648_cce2_4000,
                0x61d2_ec3c_e974_d387,
            ),
        ),
        (
            (131, 17, 0.05, 0.05, 0x51_10),
            (
                281,
                0x3fc3_9c6f_2406_88df,
                0x3ee2_23f1_fbf9_8000,
                0xfa1e_22df_dd5a_c4f5,
            ),
        ),
    ];
    for ((n, d, gamma, nu, seed), want) in cases {
        let x = dataset(n, d, seed);
        let r = solve_one_class(&x, gamma, nu, &SmoConfig::default());
        let got = (
            r.iters,
            r.rho.to_bits(),
            r.kkt_gap.to_bits(),
            alpha_hash(&r.alphas),
        );
        assert_eq!(
            got, want,
            "n {n}, d {d}: iters {}, ρ {:e}, gap {:e}",
            r.iters, r.rho, r.kkt_gap
        );
    }
}
