//! Property tests for the one-class SVM:
//!
//! - the ν guarantee: margin-error fraction ≤ ν ≤ support-vector
//!   fraction (Schölkopf et al., 2001, Proposition 3);
//! - RBF kernel symmetry (bit-exact) and PSD spot checks on random Gram
//!   matrices;
//! - SMO KKT residuals below tolerance, re-verified *from scratch*
//!   (gradient recomputed from the returned α, not trusted from the
//!   solver's own bookkeeping);
//! - fit determinism;
//! - failing closed: a window holding NaN or ±∞ scores non-finite, a
//!   far finite window scores exactly the log floor, and `fit` refuses
//!   an empty or non-finite training matrix with a typed error.

use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;

/// A mixture of two Gaussian-ish blobs plus a few scattered outliers —
/// shaped like real feature windows (mostly tight, occasional junk).
fn random_dataset(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Tensor::zeros(n, d);
    for i in 0..n {
        let (center, spread) = match i % 10 {
            9 => (4.0, 3.0), // ~10% scattered
            k if k < 6 => (0.0, 0.6),
            _ => (1.5, 0.4),
        };
        for v in t.row_mut(i) {
            *v = center + rng.range_f32(-spread, spread);
        }
    }
    t
}

#[test]
fn nu_bounds_outliers_below_and_support_vectors_above() {
    for (seed, nu) in [(1u64, 0.05f64), (2, 0.1), (3, 0.2), (4, 0.35), (5, 0.5)] {
        let x = random_dataset(160, 6, seed);
        let n = x.rows() as f64;
        let mut det = OcSvm::new(OcSvmConfig {
            nu,
            ..OcSvmConfig::default()
        });
        det.fit(&x).expect("finite training set");
        let diag = det.diag().unwrap();
        assert!(
            diag.kkt_gap < 1e-5,
            "seed {seed} nu {nu}: did not converge (gap {})",
            diag.kkt_gap
        );
        // Outliers (rows at the box ceiling are exactly the margin
        // errors at the optimum): fraction ≤ ν, up to one sample of
        // discretization slack.
        let outlier_frac = diag.bounded_svs as f64 / n;
        assert!(
            outlier_frac <= nu + 1.0 / n + 1e-9,
            "seed {seed}: outlier fraction {outlier_frac} exceeds nu {nu}"
        );
        // Support vectors: fraction ≥ ν, same slack.
        let sv_frac = diag.support_vectors as f64 / n;
        assert!(
            sv_frac >= nu - 1.0 / n - 1e-9,
            "seed {seed}: SV fraction {sv_frac} below nu {nu}"
        );
    }
}

#[test]
fn rbf_is_symmetric_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(42);
    for _ in 0..200 {
        let a: Vec<f32> = (0..8).map(|_| rng.range_f32(-3.0, 3.0)).collect();
        let b: Vec<f32> = (0..8).map(|_| rng.range_f32(-3.0, 3.0)).collect();
        let gamma = rng.range_f32(0.01, 2.0);
        assert_eq!(rbf(gamma, &a, &b).to_bits(), rbf(gamma, &b, &a).to_bits());
        // Mathematically positive, but exp underflows to exactly 0.0
        // for very distant points — allow it.
        assert!(rbf(gamma, &a, &b) >= 0.0 && rbf(gamma, &a, &b) <= 1.0);
    }
}

#[test]
fn rbf_gram_matrices_are_positive_semidefinite() {
    // Mercer says zᵀKz ≥ 0 for any z; spot-check random quadratic forms
    // on random Gram matrices (f64 accumulation, small negative slack
    // for rounding).
    let mut rng = Rng::seed_from_u64(7);
    for trial in 0..20 {
        let n = 12;
        let x = random_dataset(n, 5, 100 + trial);
        let gamma = rng.range_f32(0.05, 1.0);
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                k[i * n + j] = rbf(gamma, x.row(i), x.row(j)) as f64;
            }
        }
        for _ in 0..10 {
            let z: Vec<f64> = (0..n).map(|_| rng.range_f32(-1.0, 1.0) as f64).collect();
            let mut q = 0.0f64;
            for i in 0..n {
                for j in 0..n {
                    q += z[i] * k[i * n + j] * z[j];
                }
            }
            assert!(q >= -1e-6, "trial {trial}: zᵀKz = {q}");
        }
    }
}

#[test]
fn kkt_residual_verified_from_scratch() {
    for seed in [11u64, 12, 13] {
        let x = random_dataset(100, 4, seed);
        let nu = 0.15f64;
        let cfg = SmoConfig::default();
        // Standardize the same way OcSvm::fit does not matter here — the
        // KKT conditions must hold for whatever data the solver saw.
        let r = solve_one_class(&x, 0.25, nu, &cfg);
        let n = x.rows();
        let c = 1.0 / (nu * n as f64);

        // Feasibility.
        let sum: f64 = r.alphas.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "seed {seed}: sum {sum}");
        for &a in &r.alphas {
            assert!((-1e-12..=c + 1e-12).contains(&a), "seed {seed}: α {a}");
        }

        // Recompute g = Kα independently and measure the violation
        // max_{α>0} g − min_{α<C} g.
        let mut g = vec![0.0f64; n];
        for (i, gi) in g.iter_mut().enumerate() {
            for j in 0..n {
                *gi += r.alphas[j] * rbf(0.25, x.row(i), x.row(j)) as f64;
            }
        }
        let g_up = (0..n)
            .filter(|&i| r.alphas[i] < c)
            .map(|i| g[i])
            .fold(f64::INFINITY, f64::min);
        let g_low = (0..n)
            .filter(|&i| r.alphas[i] > 0.0)
            .map(|i| g[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let gap = g_low - g_up;
        // The solver tracks g incrementally in f64; allow rounding drift
        // on top of the convergence tolerance.
        assert!(gap < cfg.tol + 1e-7, "seed {seed}: recomputed gap {gap}");
        assert!(
            (gap - r.kkt_gap).abs() < 1e-7,
            "seed {seed}: reported {} vs recomputed {gap}",
            r.kkt_gap
        );
    }
}

#[test]
fn fits_are_deterministic() {
    let x = random_dataset(150, 6, 99);
    let mut a = OcSvm::new(OcSvmConfig::default());
    let mut b = OcSvm::new(OcSvmConfig::default());
    a.fit(&x).expect("finite training set");
    b.fit(&x).expect("finite training set");
    assert_eq!(a.support_vectors(), b.support_vectors());
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..50 {
        let q: Vec<f32> = (0..6).map(|_| rng.range_f32(-2.0, 5.0)).collect();
        assert_eq!(a.score(&q).to_bits(), b.score(&q).to_bits());
    }
}

#[test]
fn scores_separate_training_mass_from_far_points() {
    // End-to-end sanity on §3.1-shaped features: fit on windows of a
    // stationary throughput process, then a shifted process must score
    // strictly higher than the training median.
    let mut rng = Rng::seed_from_u64(2020);
    let calm: Vec<f32> = (0..400).map(|_| 3.0 + rng.range_f32(-0.5, 0.5)).collect();
    let rows = window_features(&calm);
    let mut x = Tensor::zeros(rows.len(), FEATURE_DIM);
    for (i, row) in rows.iter().enumerate() {
        x.row_mut(i).copy_from_slice(row);
    }
    let mut det = OcSvm::new(OcSvmConfig::default());
    det.fit(&x).expect("finite training set");

    let mut calm_scores: Vec<f32> = (0..x.rows()).map(|i| det.score(x.row(i))).collect();
    calm_scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = calm_scores[calm_scores.len() / 2];

    let wild: Vec<f32> = (0..60).map(|_| 0.2 + rng.range_f32(-0.15, 0.15)).collect();
    for row in window_features(&wild) {
        assert!(det.score(&row) > median, "shifted window not flagged");
    }
}

/// 300 rows of `FEATURE_DIM` features around 1.0 ± 0.5 (the training set
/// of `batch_invariance.rs`), and an OC-SVM fitted on them.
fn boxed_fit() -> (Tensor, OcSvm) {
    let mut rng = Rng::seed_from_u64(0x0541);
    let mut train = Tensor::zeros(300, FEATURE_DIM);
    for v in train.data_mut() {
        *v = 1.0 + rng.range_f32(-0.5, 0.5);
    }
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(&train).expect("finite training set");
    (train, svm)
}

#[test]
fn non_finite_windows_score_non_finite() {
    let (train, svm) = boxed_fit();
    // A poisoned window in the middle of a batch of training windows.
    let clean = Tensor::from_rows(&(0..3).map(|i| train.row(i).to_vec()).collect::<Vec<_>>());
    let mut want = vec![0.0f32; 3];
    svm.score_batch_into(&clean, &mut want);
    assert!(want.iter().all(|v| v.is_finite()));
    let mut got = vec![0.0f32; 3];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for f in 0..FEATURE_DIM {
            let mut x = clean.clone();
            x.set(1, f, bad);
            let scalar = svm.score(x.row(1));
            assert!(!scalar.is_finite(), "{bad} in feature {f}: score {scalar}");
            svm.score_batch_into(&x, &mut got);
            assert!(
                !got[1].is_finite(),
                "{bad} in feature {f}: batch {}",
                got[1]
            );
            for r in [0, 2] {
                assert_eq!(got[r].to_bits(), want[r].to_bits(), "{bad} in {f}, row {r}");
            }
        }
    }
}

#[test]
fn a_far_finite_window_scores_the_log_floor() {
    let (train, svm) = boxed_fit();
    let far = vec![1e6f32; FEATURE_DIM];
    // Every kernel underflows, so the raw score is ρ itself.
    let rho = svm.raw_score(&far);
    let floor = rho.ln() - osa_ocsvm::detector::LOG_FLOOR.ln();
    assert!(floor.is_finite());
    let mut batch = [0.0f32];
    svm.score_batch_into(&Tensor::from_rows(std::slice::from_ref(&far)), &mut batch);
    for s in [svm.score(&far), batch[0]] {
        assert_eq!(
            s.to_bits(),
            floor.to_bits(),
            "{s} vs ln ρ − ln LOG_FLOOR {floor}"
        );
    }
    for i in 0..train.rows() {
        let s = svm.score(train.row(i));
        assert!(s < floor, "training row {i} scores {s} ≥ the floor {floor}");
    }
}

#[test]
fn fit_refuses_a_non_finite_or_empty_corpus_and_keeps_its_state() {
    let x = random_dataset(500, FEATURE_DIM, 7);
    let (_, fitted) = boxed_fit();
    let probe = vec![1.0f32; FEATURE_DIM];
    let before = fitted.score(&probe);
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for (row, col) in [(0, 0), (250, 3), (499, FEATURE_DIM - 1)] {
            let mut poisoned = x.clone();
            poisoned.set(row, col, bad);
            let mut fresh = OcSvm::new(OcSvmConfig::default());
            assert_eq!(
                fresh.fit(&poisoned),
                Err(FitError::NonFinite { row, col }),
                "{bad} at ({row}, {col})"
            );
            assert!(fresh.diag().is_none(), "a refused fit left a diagnosis");
            // A refused refit leaves a fitted detector as it was.
            let mut svm = fitted.clone();
            assert!(svm.fit(&poisoned).is_err());
            assert_eq!(svm.score(&probe).to_bits(), before.to_bits());
        }
    }
    // Finite values whose standardized form overflows f32: the column
    // mean is −10³⁸, so the first row sits 4·10³⁸ above it.
    let mut wide = Tensor::zeros(3, 2);
    for (i, v) in [3e38f32, -3e38, -3e38].into_iter().enumerate() {
        wide.set(i, 1, v);
    }
    assert_eq!(
        OcSvm::new(OcSvmConfig::default()).fit(&wide),
        Err(FitError::NonFinite { row: 0, col: 1 })
    );
    for empty in [Tensor::zeros(0, FEATURE_DIM), Tensor::zeros(4, 0)] {
        assert_eq!(
            OcSvm::new(OcSvmConfig::default()).fit(&empty),
            Err(FitError::Empty)
        );
    }
}
