//! Bit pin of the fused OC-SVM scorer against the evaluation it
//! replaced.
//!
//! The reference below is the earlier scoring path, rebuilt from the
//! public pieces: the same standardization and SMO fit, then unscaled
//! f32 dual coefficients, the cross terms of the whole batch as one
//! `matmul_t_into` GEMM, and the lane-8 `αᵢ·exp_fast(−γd²)` reduction per
//! row. The fused kernel pre-scales α by an exact power of two and
//! computes the cross terms per block of support vectors in the same
//! lane order, so:
//!
//! - every kernel sum at or above `LOG_FLOOR` is bit-equal (below it the
//!   reference's subnormal products round differently, and those rows
//!   floor anyway);
//! - every score is bit-equal;
//! - a window holding NaN or ±∞ still scores non-finite.
//!
//! The queries cover the support vectors themselves (`K = 1` exactly on
//! the self term), rows bracketing the decision boundary (score ≈ 0),
//! a radial sweep through the range where the reference's products go
//! subnormal, and far windows whose sums floor.
//!
//! The scorer runs four rows per pass, two per 16-lane register, and
//! pads a row range that is not a multiple of four with zero rows. The
//! grouped tests below pin that every padding remainder, at every pool
//! width, keeps the reference bits, and that lanes never mix: a
//! non-finite window in any group position poisons only its own row.

use osa_nn::rng::Rng;
use osa_nn::tensor::{fold8, Tensor, KLANES};
use osa_ocsvm::detector::LOG_FLOOR;
use osa_ocsvm::prelude::*;
use osa_ocsvm::{exp_fast, sq_norm};
use osa_runtime::{with_pool, ThreadPool};

/// The earlier scorer, fitted exactly as `OcSvm::fit` fits.
struct Reference {
    mean: Vec<f32>,
    std: Vec<f32>,
    gamma: f32,
    svs: Tensor,
    alphas: Vec<f32>,
    norms: Vec<f32>,
    rho: f32,
}

impl Reference {
    fn fit(x: &Tensor, cfg: &OcSvmConfig) -> Reference {
        let (n, d) = (x.rows(), x.cols());
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
        let mut r = Reference {
            mean: mean.iter().map(|&m| m as f32).collect(),
            std: var
                .iter()
                .map(|&s| ((s / n as f64).sqrt() as f32).max(1e-6))
                .collect(),
            gamma: cfg.gamma.unwrap_or(1.0 / d as f32),
            svs: Tensor::zeros(0, d),
            alphas: Vec::new(),
            norms: Vec::new(),
            rho: 0.0,
        };
        let z = r.standardize(x);
        let sol = solve_one_class(&z, r.gamma, cfg.nu, &cfg.smo);
        for i in (0..n).filter(|&i| sol.alphas[i] > 0.0) {
            r.svs.push_row(z.row(i));
            r.alphas.push(sol.alphas[i] as f32);
            r.norms.push(sq_norm(z.row(i)));
        }
        r.rho = sol.rho as f32;
        r
    }

    fn standardize(&self, x: &Tensor) -> Tensor {
        let mut z = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            for (j, zv) in z.row_mut(i).iter_mut().enumerate() {
                *zv = (x.row(i)[j] - self.mean[j]) / self.std[j];
            }
        }
        z
    }

    fn kernel_sums(&self, x: &Tensor) -> Vec<f32> {
        let z = self.standardize(x);
        let mut cross = Tensor::default();
        z.matmul_t_into(&self.svs, &mut cross);
        (0..x.rows())
            .map(|i| self.weighted_row(sq_norm(z.row(i)), cross.row(i)))
            .collect()
    }

    /// Support vector `p` into lane `p mod 8`, unscaled α.
    fn weighted_row(&self, xn: f32, cross: &[f32]) -> f32 {
        let mut lanes = [0.0f32; KLANES];
        for (p, &c) in cross.iter().enumerate() {
            let d2 = floor_nan(xn + self.norms[p] - 2.0 * c);
            lanes[p % KLANES] += self.alphas[p] * exp_fast(-self.gamma * d2);
        }
        fold8(lanes)
    }

    fn score(&self, kernel_sum: f32) -> f32 {
        let floored = if LOG_FLOOR > kernel_sum {
            LOG_FLOOR
        } else {
            kernel_sum
        };
        self.rho.max(LOG_FLOOR).ln() - floored.ln()
    }
}

fn floor_nan(x: f32) -> f32 {
    if 0.0 > x {
        0.0
    } else {
        x
    }
}

/// Throughput-window-like training rows: a tight main mode, a second
/// mode, and a few scattered rows.
fn training(n: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Tensor::zeros(n, FEATURE_DIM);
    for i in 0..n {
        let (center, spread) = match i % 10 {
            9 => (3.0, 2.0),
            k if k < 6 => (1.0, 0.4),
            _ => (2.0, 0.3),
        };
        for v in t.row_mut(i) {
            *v = center + rng.range_f32(-spread, spread);
        }
    }
    t
}

/// Training rows (every support vector among them), then a radial sweep
/// from the data mean out to 10⁴ in 40 random directions — through the
/// boundary, the subnormal range and the floor — then the two sweep
/// rows that bracket each direction's boundary crossing, found on the
/// reference.
fn queries(train: &Tensor, reference: &Reference, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let mut q = Tensor::zeros(0, FEATURE_DIM);
    for i in 0..train.rows() {
        q.push_row(train.row(i));
    }
    let mut bracket = Tensor::zeros(0, FEATURE_DIM);
    for _ in 0..40 {
        let dir: Vec<f32> = (0..FEATURE_DIM).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let mut sweep = Tensor::zeros(0, FEATURE_DIM);
        let mut t = 0.0f32;
        while t < 1e4 {
            let row: Vec<f32> = (0..FEATURE_DIM)
                .map(|j| reference.mean[j] + t * dir[j] * reference.std[j])
                .collect();
            sweep.push_row(&row);
            t = if t < 8.0 { t + 0.05 } else { t * 1.15 };
        }
        let sums = reference.kernel_sums(&sweep);
        let crossing = (1..sweep.rows())
            .find(|&i| reference.score(sums[i]) > 0.0 && reference.score(sums[i - 1]) <= 0.0)
            .expect("every direction leaves the learned region");
        bracket.push_row(sweep.row(crossing - 1));
        bracket.push_row(sweep.row(crossing));
        for i in 0..sweep.rows() {
            q.push_row(sweep.row(i));
        }
    }
    for i in 0..bracket.rows() {
        q.push_row(bracket.row(i));
    }
    q
}

fn check(train: &Tensor, cfg: OcSvmConfig) {
    let reference = Reference::fit(train, &cfg);
    let mut svm = OcSvm::new(cfg);
    svm.fit(train).expect("finite training set");
    assert_eq!(svm.support_vectors(), reference.alphas.len());
    let q = queries(train, &reference, 0xB175);
    let want = reference.kernel_sums(&q);
    let mut got = vec![0.0f32; q.rows()];
    svm.kernel_sums_into(&q, &mut got);
    let mut scores = vec![0.0f32; q.rows()];
    svm.score_batch_into(&q, &mut scores);
    let (mut live, mut floored, mut boundary) = (0, 0, 0);
    for i in 0..q.rows() {
        if want[i] >= LOG_FLOOR {
            live += 1;
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "row {i}: kernel sum {} vs reference {}",
                got[i],
                want[i]
            );
        } else {
            floored += 1;
        }
        let ref_score = reference.score(want[i]);
        boundary += usize::from(ref_score.abs() < 0.5);
        assert_eq!(
            scores[i].to_bits(),
            ref_score.to_bits(),
            "row {i}: score {} vs reference {ref_score}",
            scores[i]
        );
    }
    // The sweep reaches every regime.
    assert!(live > train.rows(), "too few rows above the floor: {live}");
    assert!(floored >= 40, "too few floored rows: {floored}");
    assert!(boundary >= 40, "too few rows near the boundary: {boundary}");
    // Support vectors are queried exactly: the self term is K = 1.
    let mut sums = vec![0.0f32; train.rows()];
    svm.kernel_sums_into(train, &mut sums);
    assert!(sums.iter().all(|&s| s > 0.0 && s.is_finite()));

    // Non-finite windows still score non-finite, and lanes never mix:
    // in two full groups of four (rows 0–1 share a register, 2–3 the
    // other), a hostile window in any position leaves the other seven
    // rows at their clean bits.
    let mut batch = Tensor::zeros(0, FEATURE_DIM);
    for i in 0..8 {
        batch.push_row(train.row(i % train.rows()));
    }
    let mut clean = vec![0.0f32; batch.rows()];
    svm.score_batch_into(&batch, &mut clean);
    let mut out = vec![0.0f32; batch.rows()];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for pos in 0..batch.rows() {
            for f in 0..FEATURE_DIM {
                let mut x = batch.clone();
                x.set(pos, f, bad);
                svm.score_batch_into(&x, &mut out);
                assert!(
                    !out[pos].is_finite(),
                    "{bad} in row {pos}, feature {f}: {}",
                    out[pos]
                );
                assert!(!reference.score(reference.kernel_sums(&x)[pos]).is_finite());
                for r in (0..batch.rows()).filter(|&r| r != pos) {
                    assert_eq!(
                        out[r].to_bits(),
                        clean[r].to_bits(),
                        "{bad} in row {pos}, feature {f} moved row {r}"
                    );
                }
            }
        }
    }
}

#[test]
fn fused_kernel_matches_the_gemm_reference_bit_for_bit() {
    check(&training(400, 0x5EED), OcSvmConfig::default());
}

#[test]
fn fewer_support_vectors_than_one_block_match_too() {
    // Fewer support vectors than one block: the only block is the
    // zero-padded tail.
    let train = training(6, 0x7A11);
    let cfg = OcSvmConfig::default();
    let mut svm = OcSvm::new(cfg);
    svm.fit(&train).expect("finite training set");
    let nsv = svm.support_vectors();
    assert!(nsv < KLANES, "{nsv} support vectors");
    check(&train, cfg);
}

#[test]
fn every_scaled_dual_coefficient_keeps_the_exp_floor_normal() {
    for (n, seed) in [(40, 1u64), (400, 2), (1000, 3)] {
        let mut svm = OcSvm::new(OcSvmConfig::default());
        svm.fit(&training(n, seed)).expect("finite training set");
        let d = svm.diag().expect("fitted");
        let floor = d.min_alpha * osa_ocsvm::detector::ALPHA_SCALE * exp_fast(-87.0);
        assert!(floor.is_normal(), "n {n}: min α {:e}", d.min_alpha);
    }
}

/// A fit whose support-vector count puts a batch of 7 or more rows over
/// the pool's work threshold, so those batches split across lanes at
/// row ranges that are not multiples of four.
fn grouped_fixture() -> (Tensor, Reference, OcSvm) {
    let train = training(1000, 0x6A0F);
    let cfg = OcSvmConfig {
        nu: 0.5,
        ..OcSvmConfig::default()
    };
    let reference = Reference::fit(&train, &cfg);
    let mut svm = OcSvm::new(cfg);
    svm.fit(&train).expect("finite training set");
    assert!(svm.support_vectors() >= 500, "{}", svm.support_vectors());
    (train, reference, svm)
}

/// Kernel sums and scores of `x` against the reference, bit for bit
/// (kernel sums only where the reference sum is at or above the floor).
fn assert_matches_reference(svm: &OcSvm, reference: &Reference, x: &Tensor, what: &str) {
    let want = reference.kernel_sums(x);
    let mut sums = vec![0.0f32; x.rows()];
    svm.kernel_sums_into(x, &mut sums);
    let mut scores = vec![0.0f32; x.rows()];
    svm.score_batch_into(x, &mut scores);
    for i in 0..x.rows() {
        if want[i] >= LOG_FLOOR {
            assert_eq!(
                sums[i].to_bits(),
                want[i].to_bits(),
                "{what}, row {i}: kernel sum"
            );
        }
        let ref_score = reference.score(want[i]);
        assert_eq!(
            scores[i].to_bits(),
            ref_score.to_bits(),
            "{what}, row {i}: score {} vs reference {ref_score}",
            scores[i]
        );
    }
}

#[test]
fn every_padding_remainder_at_every_pool_width_matches_the_reference() {
    let (train, reference, svm) = grouped_fixture();
    let q = queries(&train, &reference, 0x9A1D);
    let sizes = (1..=9).chain([63, 64, 65]);
    for size in sizes {
        // Rows spread over the whole query set: support vectors, sweep
        // rows near and far, boundary brackets.
        let mut x = Tensor::zeros(0, FEATURE_DIM);
        for i in 0..size {
            x.push_row(q.row((i * 7919 + size * 31) % q.rows()));
        }
        for width in [1, 2, 4, 8] {
            let pool = ThreadPool::new(width);
            with_pool(&pool, || {
                assert_matches_reference(
                    &svm,
                    &reference,
                    &x,
                    &format!("batch {size}, pool {width}"),
                )
            });
        }
    }
}

#[test]
fn a_group_mixing_floored_and_near_windows_keeps_every_rows_bits() {
    let (train, reference, svm) = grouped_fixture();
    // Far windows: the data mean pushed 40 standard deviations out
    // along a few directions, every one of them floored on the
    // reference.
    let mut far = Tensor::zeros(0, FEATURE_DIM);
    for k in 0..4 {
        let row: Vec<f32> = (0..FEATURE_DIM)
            .map(|j| {
                let sign = if (j + k) % 3 == 0 { -1.0 } else { 1.0 };
                reference.mean[j] + sign * 40.0 * reference.std[j]
            })
            .collect();
        far.push_row(&row);
    }
    assert!(reference.kernel_sums(&far).iter().all(|&k| k < LOG_FLOOR));
    for pattern in [
        [true, false, false, true],
        [false, true, true, false],
        [true, true, false, true],
    ] {
        let mut x = Tensor::zeros(0, FEATURE_DIM);
        for (i, &is_far) in pattern.iter().enumerate() {
            x.push_row(if is_far {
                far.row(i)
            } else {
                train.row(i * 13)
            });
        }
        assert_matches_reference(&svm, &reference, &x, &format!("pattern {pattern:?}"));
    }
}
