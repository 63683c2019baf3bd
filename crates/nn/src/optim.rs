//! Adam, the one optimizer every trainer in the workspace uses.
//!
//! [`crate::net::Sequential`] assigns every parameter tensor a stable slot
//! index (layer order × parameter order) and calls [`Adam::update`] once
//! per slot per step. Adam keys its moment buffers by that slot, so one
//! optimizer instance serves a whole network — but must not be shared
//! across networks with different architectures.

use std::collections::HashMap;

use crate::tensor::Tensor;

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    moments: HashMap<usize, (Vec<f32>, Vec<f32>)>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// Advance the bias-correction clock; called once per optimization
    /// step before any `update`.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Update the parameter tensor in `slot` from its gradient.
    pub fn update(&mut self, slot: usize, value: &mut Tensor, grad: &Tensor) {
        debug_assert_eq!(value.len(), grad.len());
        // Tolerate a missing begin_step (standalone use in tests).
        let t = self.t.max(1);
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        let (m, v) = self
            .moments
            .entry(slot)
            .or_insert_with(|| (vec![0.0; value.len()], vec![0.0; value.len()]));
        assert_eq!(m.len(), value.len(), "slot reused with a different shape");
        for (((p, &g), mi), vi) in value
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_a_quadratic() {
        let mut x = Tensor::from_rows(&[vec![10.0]]);
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            opt.begin_step();
            let g = Tensor::from_rows(&[vec![2.0 * (x.get(0, 0) - 3.0)]]);
            opt.update(0, &mut x, &g);
        }
        assert!((x.get(0, 0) - 3.0).abs() < 1e-2, "got {}", x.get(0, 0));
    }

    #[test]
    fn slots_are_independent() {
        let mut a = Tensor::from_rows(&[vec![1.0]]);
        let mut b = Tensor::from_rows(&[vec![1.0]]);
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        opt.update(0, &mut a, &Tensor::from_rows(&[vec![1.0]]));
        opt.update(1, &mut b, &Tensor::from_rows(&[vec![-1.0]]));
        assert!(a.get(0, 0) < 1.0);
        assert!(b.get(0, 0) > 1.0);
    }
}
