//! Tests for the flat parameter/gradient vector API and global-norm
//! gradient clipping on [`Sequential`] — the surface the `osa-mdp` A3C
//! trainer uses to sync worker replicas with the shared parameter server.
//!
//! The norm/clip tests are backed by central differences: the analytic
//! global gradient norm must match the norm of a numerically estimated
//! gradient, so a bookkeeping bug in the flat traversal (skipped slot,
//! double-counted tensor) cannot pass.

use osa_nn::prelude::*;

const EPS: f32 = 1e-2;

fn tiny_net(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from_u64(seed);
    Sequential::new()
        .with(Dense::new(4, 6, Init::XavierUniform, &mut rng))
        .with(Dense::new(6, 3, Init::XavierUniform, &mut rng))
}

fn random_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Run forward + MSE backward so the net holds a real gradient.
fn populate_grads(net: &mut Sequential, x: &Tensor, t: &Tensor) {
    let (mut ws, mut g) = (Workspace::new(), Tensor::default());
    let y = net.forward_ws(x, &mut ws);
    loss::mse_into(&y, t, &mut g);
    net.backward_ws(&g, &mut ws);
}

#[test]
fn params_vec_round_trips_bit_exact() {
    let mut net = tiny_net(1);
    let mut flat = Vec::new();
    net.copy_params_into(&mut flat);
    assert_eq!(flat.len(), net.num_params());

    let mut other = tiny_net(2);
    let mut copy = Vec::new();
    other.copy_params_into(&mut copy);
    assert_ne!(copy, flat, "distinct seeds must differ");
    other.set_params_from_vec(&flat);
    other.copy_params_into(&mut copy);
    assert_eq!(copy, flat);

    // Identical parameters ⇒ identical forward pass, bit for bit.
    let mut rng = Rng::seed_from_u64(3);
    let x = random_tensor(5, 4, &mut rng);
    let mut ws = Workspace::new();
    assert_eq!(net.forward_ws(&x, &mut ws), other.forward_ws(&x, &mut ws));
}

#[test]
fn grads_vec_round_trips_and_applies_through_step() {
    let mut rng = Rng::seed_from_u64(4);
    let x = random_tensor(3, 4, &mut rng);
    let t = random_tensor(3, 3, &mut rng);

    // Worker replica computes the gradient...
    let mut worker = tiny_net(5);
    populate_grads(&mut worker, &x, &t);
    let mut grads = Vec::new();
    worker.copy_grads_into(&mut grads);
    assert_eq!(grads.len(), worker.num_params());

    // ...the server applies it without ever running backward itself.
    let mut server = tiny_net(5);
    server.set_grads_from_vec(&grads);
    let mut copy = Vec::new();
    server.copy_grads_into(&mut copy);
    assert_eq!(copy, grads);
    let (mut before, mut after) = (Vec::new(), Vec::new());
    server.copy_params_into(&mut before);
    server.step(&mut Adam::new(0.1));
    server.copy_params_into(&mut after);
    // Adam's bias-corrected first step is lr · g / (|g| + ε).
    for ((b, a), g) in before.iter().zip(&after).zip(&grads) {
        assert!((a - (b - 0.1 * g / (g.abs() + 1e-8))).abs() < 1e-6);
    }
}

#[test]
#[should_panic(expected = "parameter vector too short")]
fn set_params_rejects_wrong_length() {
    let mut net = tiny_net(6);
    let n = net.num_params();
    net.set_params_from_vec(&vec![0.0; n - 1]);
}

#[test]
fn grad_global_norm_matches_central_differences() {
    let mut net = tiny_net(7);
    let mut rng = Rng::seed_from_u64(8);
    let x = random_tensor(2, 4, &mut rng);
    let t = random_tensor(2, 3, &mut rng);
    populate_grads(&mut net, &x, &t);
    let analytic_norm = net.grad_global_norm();

    // Numeric gradient of the same loss w.r.t. every parameter, via the
    // flat vector API itself (which the round-trip tests above pin down).
    let mut theta = Vec::new();
    net.copy_params_into(&mut theta);
    let (mut ws, mut g) = (Workspace::new(), Tensor::default());
    let mut loss_at = |net: &mut Sequential, params: &[f32]| {
        net.set_params_from_vec(params);
        let y = net.forward_ws(&x, &mut ws);
        let l = loss::mse_into(&y, &t, &mut g);
        ws.recycle(y);
        l
    };
    let mut numeric_sq = 0.0f64;
    for i in 0..theta.len() {
        let mut tp = theta.clone();
        tp[i] = theta[i] + EPS;
        let lp = loss_at(&mut net, &tp);
        tp[i] = theta[i] - EPS;
        let lm = loss_at(&mut net, &tp);
        let g = ((lp - lm) / (2.0 * EPS)) as f64;
        numeric_sq += g * g;
    }
    net.set_params_from_vec(&theta);
    let numeric_norm = numeric_sq.sqrt() as f32;

    let rel = (analytic_norm - numeric_norm).abs() / numeric_norm.max(1e-6);
    assert!(
        rel < 1e-2,
        "global norm mismatch: analytic {analytic_norm} vs numeric {numeric_norm}"
    );
}

#[test]
fn clip_caps_norm_and_preserves_direction() {
    let mut net = tiny_net(9);
    let mut rng = Rng::seed_from_u64(10);
    let x = random_tensor(2, 4, &mut rng);
    // A far-away target makes the gradient large enough to clip.
    let mut t = random_tensor(2, 3, &mut rng);
    t.scale(100.0);
    populate_grads(&mut net, &x, &t);

    let mut before = Vec::new();
    net.copy_grads_into(&mut before);
    let norm_before = net.grad_global_norm();
    assert!(norm_before > 1.0, "test setup: gradient too small to clip");

    let reported = net.clip_grad_global_norm(1.0);
    assert_eq!(reported, norm_before, "clip must report the pre-clip norm");
    let norm_after = net.grad_global_norm();
    assert!((norm_after - 1.0).abs() < 1e-4, "clipped norm {norm_after}");

    // Direction preserved: every component scaled by the same factor.
    let mut after = Vec::new();
    net.copy_grads_into(&mut after);
    let scale = 1.0 / norm_before;
    for (b, a) in before.iter().zip(&after) {
        assert!((a - b * scale).abs() < 1e-6);
    }
}

#[test]
fn clip_is_noop_below_threshold() {
    let mut net = tiny_net(11);
    let mut rng = Rng::seed_from_u64(12);
    let x = random_tensor(2, 4, &mut rng);
    let t = random_tensor(2, 3, &mut rng);
    populate_grads(&mut net, &x, &t);
    let (mut before, mut after) = (Vec::new(), Vec::new());
    net.copy_grads_into(&mut before);
    let norm = net.grad_global_norm();
    net.clip_grad_global_norm(norm + 1.0);
    net.copy_grads_into(&mut after);
    assert_eq!(after, before, "no-op clip must not touch grads");
}
