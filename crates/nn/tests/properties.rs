//! Randomized property-style invariant tests.
//!
//! The offline build has no `proptest` (DESIGN.md §5 substitution), so
//! these tests hand-roll the same idea: generate a few hundred random
//! cases from the workspace PRNG and assert invariants on each. Seeds are
//! fixed, so failures reproduce exactly.

use osa_nn::prelude::*;

const CASES: usize = 200;

fn random_tensor(rows: usize, cols: usize, scale: f32, rng: &mut Rng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| rng.range_f32(-scale, scale))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Softmax rows are probability distributions: entries in (0, 1], rows sum
/// to 1, even for extreme logits.
#[test]
fn softmax_rows_always_normalize() {
    let mut rng = Rng::seed_from_u64(100);
    for case in 0..CASES {
        let rows = 1 + rng.below(4);
        let cols = 2 + rng.below(8);
        // Mix moderate and extreme scales to stress the max-subtraction.
        let scale = if case % 3 == 0 { 1e4 } else { 5.0 };
        let x = random_tensor(rows, cols, scale, &mut rng);
        let y = Softmax::new().forward_ws(&x, &mut Workspace::new());
        assert!(y.is_finite(), "case {case}: non-finite softmax");
        for r in 0..rows {
            let row = y.row(r);
            assert!(
                row.iter().all(|p| (0.0..=1.0).contains(p)),
                "case {case}: entry out of [0,1]"
            );
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: row sums to {sum}");
        }
    }
}

/// ReLU output is non-negative and fixes positive inputs.
#[test]
fn relu_nonnegative_and_identity_on_positives() {
    let mut rng = Rng::seed_from_u64(101);
    for case in 0..CASES {
        let rows = 1 + rng.below(4);
        let cols = 1 + rng.below(16);
        let x = random_tensor(rows, cols, 10.0, &mut rng);
        let y = ReLU::new().forward_ws(&x, &mut Workspace::new());
        for (xi, yi) in x.data().iter().zip(y.data()) {
            assert!(*yi >= 0.0, "case {case}: negative ReLU output");
            if *xi > 0.0 {
                assert_eq!(*yi, *xi, "case {case}: positive input altered");
            } else {
                assert_eq!(*yi, 0.0, "case {case}: non-positive input not zeroed");
            }
        }
    }
}

/// Adam steps stay finite under wild gradients (huge, tiny, zero, mixed
/// sign) — the invariant the acceptance criteria name.
#[test]
fn adam_steps_stay_finite_under_extreme_gradients() {
    let mut rng = Rng::seed_from_u64(102);
    for case in 0..50 {
        let n = 1 + rng.below(32);
        let mut value = random_tensor(1, n, 1.0, &mut rng);
        let mut opt = Adam::new(0.01);
        for step in 0..100 {
            let scale: f32 = match step % 4 {
                0 => 1e6,
                1 => 1e-6,
                2 => 0.0,
                _ => 1.0,
            };
            let grad = random_tensor(1, n, scale.max(f32::MIN_POSITIVE), &mut rng);
            opt.begin_step();
            opt.update(0, &mut value, &grad);
            assert!(
                value.is_finite(),
                "case {case} step {step}: non-finite parameter"
            );
        }
    }
}

/// Uniform init schemes respect their theoretical bound for arbitrary fan
/// configurations.
#[test]
fn uniform_init_respects_bounds() {
    let mut rng = Rng::seed_from_u64(104);
    for case in 0..CASES {
        let fan_in = 1 + rng.below(256);
        let fan_out = 1 + rng.below(256);
        for init in [Init::XavierUniform, Init::HeUniform] {
            let t = osa_nn::init::init_tensor(init, 4, 8, fan_in, fan_out, &mut rng);
            let limit = osa_nn::init::uniform_limit(init, fan_in, fan_out).unwrap();
            assert!(
                t.data().iter().all(|x| x.abs() <= limit),
                "case {case}: {init:?} exceeded ±{limit}"
            );
        }
    }
}

/// `matmul_into` agrees with a naive triple loop (the i-k-j ordering is
/// an optimization, not a semantic change).
#[test]
fn matmul_matches_naive_reference() {
    let mut rng = Rng::seed_from_u64(105);
    let mut fast = Tensor::default();
    for case in 0..CASES {
        let (m, k, n) = (1 + rng.below(6), 1 + rng.below(6), 1 + rng.below(6));
        let a = random_tensor(m, k, 2.0, &mut rng);
        let b = random_tensor(k, n, 2.0, &mut rng);
        a.matmul_into(&b, &mut fast);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.get(i, p) * b.get(p, j);
                }
                assert!(
                    (fast.get(i, j) - acc).abs() <= 1e-4 * (1.0 + acc.abs()),
                    "case {case}: ({i},{j}) {} vs naive {acc}",
                    fast.get(i, j)
                );
            }
        }
    }
}

/// Cross-entropy is bounded below by the target's own entropy (Gibbs), so
/// in particular it is non-negative.
#[test]
fn cross_entropy_respects_gibbs_inequality() {
    let mut rng = Rng::seed_from_u64(107);
    for case in 0..CASES {
        let cols = 2 + rng.below(6);
        let logits = random_tensor(1, cols, 5.0, &mut rng);
        let mut target = Tensor::zeros(1, cols);
        let hot = rng.below(cols);
        target.set(0, hot, 1.0);
        let ce = loss::softmax_cross_entropy_into(&logits, &target, &mut Tensor::default());
        assert!(ce >= 0.0, "case {case}: negative cross-entropy {ce}");
    }
}

/// Training dynamics sanity: a single Dense layer fits a random linear map
/// (existence of a perfect solution ⇒ loss must approach 0).
#[test]
fn dense_fits_linear_targets() {
    let mut rng = Rng::seed_from_u64(108);
    for case in 0..5 {
        let w_true = random_tensor(3, 2, 1.0, &mut rng);
        let x = random_tensor(16, 3, 1.0, &mut rng);
        let mut t = Tensor::default();
        x.matmul_into(&w_true, &mut t);
        let mut net = Sequential::new().with(Dense::new(3, 2, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(0.05);
        let (mut ws, mut g) = (Workspace::new(), Tensor::default());
        for _ in 0..300 {
            let y = net.forward_ws(&x, &mut ws);
            loss::mse_into(&y, &t, &mut g);
            ws.recycle(y);
            let dx = net.backward_ws(&g, &mut ws);
            ws.recycle(dx);
            net.step(&mut opt);
        }
        let y = net.forward_ws(&x, &mut ws);
        let final_loss = loss::mse_into(&y, &t, &mut g);
        assert!(final_loss < 1e-3, "case {case}: loss stuck at {final_loss}");
    }
}
