//! Numerical-vs-analytic gradient checks for every layer and loss
//! (acceptance criterion: max relative error < 1e-3).
//!
//! Method: central differences, `(L(θ+ε) − L(θ−ε)) / 2ε`, with ε = 1e-2 —
//! large enough that `f32` forward-pass rounding does not swamp the
//! difference, small enough that truncation error stays below tolerance
//! on these O(1)-scale problems. Agreement is judged by
//! `|a − n| ≤ rtol·(|a| + |n|) + atol`, the symmetric allclose form, with
//! rtol = 1e-3.

use osa_nn::prelude::*;

const EPS: f32 = 1e-2;
const RTOL: f32 = 1e-3;
const ATOL: f32 = 1e-4;

fn close(analytic: f32, numeric: f32) -> bool {
    (analytic - numeric).abs() <= RTOL * (analytic.abs() + numeric.abs()) + ATOL
}

/// A scalar objective over a network's output: returns the loss and
/// writes `dL/d(output)` into `grad`.
trait Objective {
    fn loss(&self, y: &Tensor, grad: &mut Tensor) -> f32;
}

struct MseTo(Tensor);

impl Objective for MseTo {
    fn loss(&self, y: &Tensor, grad: &mut Tensor) -> f32 {
        loss::mse_into(y, &self.0, grad)
    }
}

struct CrossEntropyTo(Tensor);

impl Objective for CrossEntropyTo {
    fn loss(&self, y: &Tensor, grad: &mut Tensor) -> f32 {
        loss::softmax_cross_entropy_into(y, &self.0, grad)
    }
}

/// Check every parameter gradient and the input gradient of `net` against
/// central differences of the objective.
fn check_all_grads(net: &mut Sequential, x: &Tensor, objective: &dyn Objective, label: &str) {
    let (mut ws, mut grad_y) = (Workspace::new(), Tensor::default());

    // Analytic pass: stores param grads in the net, returns input grad.
    let y = net.forward_ws(x, &mut ws);
    objective.loss(&y, &mut grad_y);
    ws.recycle(y);
    let analytic_dx = net.backward_ws(&grad_y, &mut ws);
    let (mut analytic, mut theta) = (Vec::new(), Vec::new());
    net.copy_grads_into(&mut analytic);
    net.copy_params_into(&mut theta);

    let mut loss_at = |net: &mut Sequential, x: &Tensor| {
        let y = net.forward_ws(x, &mut ws);
        let l = objective.loss(&y, &mut grad_y);
        ws.recycle(y);
        l
    };

    // Numeric parameter gradients, over the flat slot-order vector.
    for i in 0..theta.len() {
        let orig = theta[i];
        theta[i] = orig + EPS;
        net.set_params_from_vec(&theta);
        let lp = loss_at(net, x);
        theta[i] = orig - EPS;
        net.set_params_from_vec(&theta);
        let lm = loss_at(net, x);
        theta[i] = orig;
        let numeric = (lp - lm) / (2.0 * EPS);
        assert!(
            close(analytic[i], numeric),
            "{label}: param {i}: analytic {} vs numeric {numeric}",
            analytic[i]
        );
    }
    net.set_params_from_vec(&theta);

    // Numeric input gradients.
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = x.data()[i];
        xp.data_mut()[i] = orig + EPS;
        let lp = loss_at(net, &xp);
        xp.data_mut()[i] = orig - EPS;
        let lm = loss_at(net, &xp);
        xp.data_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * EPS);
        let analytic = analytic_dx.data()[i];
        assert!(
            close(analytic, numeric),
            "{label}: input elem {i}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

fn random_tensor(rows: usize, cols: usize, scale: f32, rng: &mut Rng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| rng.range_f32(-scale, scale))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Random probability rows bounded away from zero, for cross-entropy
/// targets.
fn random_prob_rows(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for r in 0..rows {
        let mut sum = 0.0;
        for c in 0..cols {
            let v = 0.2 + rng.next_f32();
            t.set(r, c, v);
            sum += v;
        }
        for c in 0..cols {
            t.set(r, c, t.get(r, c) / sum);
        }
    }
    t
}

/// ReLU kinks break central differences; nudge net + input (deterministic
/// seed scan) until no pre-activation is near zero.
fn relu_safe_case(
    build: &dyn Fn(&mut Rng) -> Sequential,
    rows: usize,
    in_dim: usize,
    probe_layers: usize,
) -> (Sequential, Tensor) {
    for seed in 0..1000u64 {
        let mut rng = Rng::seed_from_u64(1000 + seed);
        let net = build(&mut rng);
        let x = random_tensor(rows, in_dim, 1.0, &mut rng);
        // Probe pre-activations layer by layer: a kink is near zero iff
        // some intermediate output magnitude is tiny.
        let (mut h, mut ws) = (x.clone(), Workspace::new());
        let safe = net.to_spec().layers[..probe_layers].iter().all(|layer| {
            let mut one = Sequential::from_spec(&NetSpec::new(vec![layer.clone()]));
            h = one.forward_ws(&h, &mut ws);
            !h.data().iter().any(|v| v.abs() < 0.05)
        });
        if safe {
            return (net, x);
        }
    }
    panic!("no kink-free seed found");
}

#[test]
fn dense_gradients_match_numeric() {
    let mut rng = Rng::seed_from_u64(10);
    let mut net = Sequential::new().with(Dense::new(3, 4, Init::XavierUniform, &mut rng));
    let x = random_tensor(2, 3, 1.0, &mut rng);
    let t = random_tensor(2, 4, 1.0, &mut rng);
    check_all_grads(&mut net, &x, &MseTo(t), "dense+mse");
}

#[test]
fn dense_relu_dense_gradients_match_numeric() {
    let (mut net, x) = relu_safe_case(
        &|rng| {
            Sequential::new()
                .with(Dense::new(3, 5, Init::HeUniform, rng))
                .with(ReLU::new())
                .with(Dense::new(5, 2, Init::XavierUniform, rng))
        },
        2,
        3,
        1, // probe the first Dense output (the ReLU input)
    );
    let mut rng = Rng::seed_from_u64(11);
    let t = random_tensor(2, 2, 1.0, &mut rng);
    check_all_grads(&mut net, &x, &MseTo(t), "dense+relu+dense+mse");
}

#[test]
fn conv1d_gradients_match_numeric() {
    let mut rng = Rng::seed_from_u64(12);
    let conv = Conv1d::new(2, 6, 3, 3, Init::XavierUniform, &mut rng);
    let out_dim = conv.out_dim();
    let mut net = Sequential::new().with(conv);
    let x = random_tensor(2, 12, 1.0, &mut rng);
    let t = random_tensor(2, out_dim, 1.0, &mut rng);
    check_all_grads(&mut net, &x, &MseTo(t), "conv1d+mse");
}

#[test]
fn conv1d_relu_stack_gradients_match_numeric() {
    let (mut net, x) = relu_safe_case(
        &|rng| {
            Sequential::new()
                .with(Conv1d::new(1, 8, 4, 4, Init::HeUniform, rng))
                .with(ReLU::new())
                .with(Dense::new(20, 3, Init::XavierUniform, rng))
        },
        1,
        8,
        1, // probe the Conv1d output (the ReLU input)
    );
    let mut rng = Rng::seed_from_u64(13);
    let t = random_tensor(1, 3, 1.0, &mut rng);
    check_all_grads(&mut net, &x, &MseTo(t), "conv1d+relu+dense+mse");
}

#[test]
fn softmax_layer_gradients_match_numeric() {
    let mut rng = Rng::seed_from_u64(14);
    let mut net = Sequential::new()
        .with(Dense::new(3, 4, Init::XavierUniform, &mut rng))
        .with(Softmax::new());
    let x = random_tensor(2, 3, 1.0, &mut rng);
    let t = random_prob_rows(2, 4, &mut rng);
    check_all_grads(&mut net, &x, &MseTo(t), "dense+softmax+mse");
}

#[test]
fn cross_entropy_through_net_matches_numeric() {
    let mut rng = Rng::seed_from_u64(15);
    let mut net = Sequential::new().with(Dense::new(4, 3, Init::XavierUniform, &mut rng));
    let x = random_tensor(3, 4, 1.0, &mut rng);
    let t = random_prob_rows(3, 3, &mut rng);
    check_all_grads(&mut net, &x, &CrossEntropyTo(t), "dense+cross_entropy");
}

#[test]
fn mse_input_gradient_matches_numeric() {
    let mut rng = Rng::seed_from_u64(16);
    let pred = random_tensor(3, 4, 2.0, &mut rng);
    let target = random_tensor(3, 4, 2.0, &mut rng);
    let (mut analytic, mut scratch) = (Tensor::default(), Tensor::default());
    loss::mse_into(&pred, &target, &mut analytic);
    let mut p = pred.clone();
    for i in 0..p.len() {
        let orig = p.data()[i];
        p.data_mut()[i] = orig + EPS;
        let lp = loss::mse_into(&p, &target, &mut scratch);
        p.data_mut()[i] = orig - EPS;
        let lm = loss::mse_into(&p, &target, &mut scratch);
        p.data_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * EPS);
        assert!(
            close(analytic.data()[i], numeric),
            "mse elem {i}: {} vs {numeric}",
            analytic.data()[i]
        );
    }
}

#[test]
fn cross_entropy_logit_gradient_matches_numeric() {
    let mut rng = Rng::seed_from_u64(17);
    let logits = random_tensor(3, 5, 2.0, &mut rng);
    let targets = random_prob_rows(3, 5, &mut rng);
    let (mut analytic, mut scratch) = (Tensor::default(), Tensor::default());
    loss::softmax_cross_entropy_into(&logits, &targets, &mut analytic);
    let mut l = logits.clone();
    for i in 0..l.len() {
        let orig = l.data()[i];
        l.data_mut()[i] = orig + EPS;
        let lp = loss::softmax_cross_entropy_into(&l, &targets, &mut scratch);
        l.data_mut()[i] = orig - EPS;
        let lm = loss::softmax_cross_entropy_into(&l, &targets, &mut scratch);
        l.data_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * EPS);
        assert!(
            close(analytic.data()[i], numeric),
            "cross-entropy elem {i}: {} vs {numeric}",
            analytic.data()[i]
        );
    }
}

#[test]
fn branches_gradients_match_numeric() {
    // Identity-activation parts: the ReLU-fused paths are covered by the
    // dense/conv cases above, while this pins the split/concat routing
    // (column gather on forward, scatter on backward) itself.
    let mut rng = Rng::seed_from_u64(14);
    let conv = Conv1d::new(1, 6, 3, 3, Init::XavierUniform, &mut rng);
    let dense = Dense::new(2, 4, Init::XavierUniform, &mut rng);
    let merged = conv.out_dim() + dense.out_dim();
    let mut net = Sequential::new()
        .with(Branches::new(vec![conv.into(), dense.into()]))
        .with(Dense::new(merged, 3, Init::XavierUniform, &mut rng));
    let x = random_tensor(2, 8, 1.0, &mut rng);
    let t = random_tensor(2, 3, 1.0, &mut rng);
    check_all_grads(&mut net, &x, &MseTo(t), "branches+dense+mse");
}
