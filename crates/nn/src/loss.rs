//! Loss functions: each returns a scalar loss and writes its gradient
//! w.r.t. its input into a caller-owned buffer.
//!
//! All reductions average over the batch (and, for MSE, over output
//! elements), so the gradients handed back into `Sequential::backward_ws`
//! produce batch-averaged parameter gradients. Scalar accumulation happens
//! in `f64` so the numerical gradient checks aren't drowned in `f32`
//! rounding noise.

use crate::tensor::Tensor;

/// Mean squared error over all elements, `Σ (p − t)² / (rows·cols)`,
/// with its gradient written into a caller-owned buffer so steady-state
/// training loops do not allocate.
pub fn mse_into(pred: &Tensor, target: &Tensor, grad: &mut Tensor) -> f32 {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse shape mismatch"
    );
    let n = pred.len() as f64;
    let mut loss = 0.0f64;
    grad.resize_shape(pred.rows(), pred.cols());
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = (p - t) as f64;
        loss += d * d;
        *g = (2.0 * d / n) as f32;
    }
    (loss / n) as f32
}

/// Softmax cross-entropy on *logits*, fused for numerical stability, with
/// its gradient written into a caller-owned buffer like [`mse_into`].
///
/// `targets` holds one probability distribution per row (one-hot for plain
/// classification, arbitrary for distillation/advantage-weighted targets).
/// Loss is averaged over rows; the gradient is the classic
/// `(softmax(logits) − target) / batch`.
pub fn softmax_cross_entropy_into(logits: &Tensor, targets: &Tensor, grad: &mut Tensor) -> f32 {
    assert_eq!(
        (logits.rows(), logits.cols()),
        (targets.rows(), targets.cols()),
        "cross-entropy shape mismatch"
    );
    let batch = logits.rows();
    let mut loss = 0.0f64;
    grad.resize_shape(batch, logits.cols());
    for r in 0..batch {
        let lr = logits.row(r);
        let tr = targets.row(r);
        let max = lr.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let sum_exp: f64 = lr.iter().map(|&l| ((l - max) as f64).exp()).sum();
        let lse = max as f64 + sum_exp.ln();
        let gr = grad.row_mut(r);
        for ((g, &l), &t) in gr.iter_mut().zip(lr).zip(tr) {
            let p = ((l as f64 - lse).exp()) as f32;
            *g = (p - t) / batch as f32;
            loss += t as f64 * (lse - l as f64);
        }
    }
    (loss / batch as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_when_equal() {
        let a = Tensor::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
        let mut g = Tensor::default();
        let l = mse_into(&a, &a, &mut g);
        assert_eq!(l, 0.0);
        assert!(g.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mse_known_value() {
        let p = Tensor::vector(vec![1.0, 2.0]);
        let t = Tensor::vector(vec![0.0, 0.0]);
        let mut g = Tensor::default();
        let l = mse_into(&p, &t, &mut g);
        assert!((l - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert_eq!(g.data(), &[1.0, 2.0]); // 2 d / 2
    }

    #[test]
    fn cross_entropy_matches_neg_log_prob_for_one_hot() {
        let logits = Tensor::from_rows(&[vec![2.0, 0.5, -1.0]]);
        let target = Tensor::from_rows(&[vec![0.0, 1.0, 0.0]]);
        let l = softmax_cross_entropy_into(&logits, &target, &mut Tensor::default());
        // Reference softmax.
        let exps: Vec<f64> = [2.0f64, 0.5, -1.0].iter().map(|x| x.exp()).collect();
        let z: f64 = exps.iter().sum();
        let expected = -(exps[1] / z).ln();
        assert!((l as f64 - expected).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_is_stable_for_huge_logits() {
        let logits = Tensor::from_rows(&[vec![1e4, -1e4, 0.0]]);
        let target = Tensor::from_rows(&[vec![1.0, 0.0, 0.0]]);
        let mut g = Tensor::default();
        let l = softmax_cross_entropy_into(&logits, &target, &mut g);
        assert!(l.is_finite());
        assert!(g.is_finite());
        assert!(l.abs() < 1e-3); // the target class dominates entirely
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        // Both softmax and a proper target distribution sum to 1, so the
        // logit gradient must sum to 0 per row.
        let logits = Tensor::from_rows(&[vec![0.1, -0.7, 1.3, 0.0]]);
        let target = Tensor::from_rows(&[vec![0.25; 4]]);
        let mut g = Tensor::default();
        softmax_cross_entropy_into(&logits, &target, &mut g);
        let sum: f32 = g.row(0).iter().sum();
        assert!(sum.abs() < 1e-6);
    }
}
