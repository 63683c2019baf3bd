//! Serialization round-trip: save → load must reproduce forward outputs
//! bit-for-bit for models containing every layer type.
//!
//! Randomized property-style coverage (the offline stand-in for proptest):
//! many random architectures and weight draws, each checked for exact
//! equality of specs and of forward-pass bits.

use osa_nn::prelude::*;

fn random_input(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.range_f32(-2.0, 2.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// A network exercising every serializable layer type, with randomized
/// geometry.
fn random_full_net(rng: &mut Rng) -> (Sequential, usize) {
    let channels = 1 + rng.below(3);
    let length = 6 + rng.below(5);
    let kernel = 2 + rng.below(3);
    let filters = 1 + rng.below(6);
    let conv = Conv1d::new(channels, length, filters, kernel, Init::HeUniform, rng);
    let conv_out = conv.out_dim();
    let in_dim = conv.in_dim();
    let hidden = 1 + rng.below(12);
    let classes = 2 + rng.below(5);
    let net = Sequential::new()
        .with(conv)
        .with(ReLU::new())
        .with(Dense::new(conv_out, hidden, Init::HeNormal, rng))
        .with(ReLU::new())
        .with(Dense::new(hidden, classes, Init::XavierUniform, rng))
        .with(Softmax::new());
    (net, in_dim)
}

#[test]
fn json_roundtrip_preserves_forward_bits_for_random_models() {
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(900 + seed);
        let (mut net, in_dim) = random_full_net(&mut rng);

        let text = net.to_json();
        let mut loaded = Sequential::from_json(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: load failed: {e}"));

        assert_eq!(
            net.to_spec(),
            loaded.to_spec(),
            "seed {seed}: specs differ after round-trip"
        );

        let mut ws = Workspace::new();
        for _ in 0..3 {
            let batch = 1 + rng.below(4);
            let x = random_input(batch, in_dim, &mut rng);
            let y1 = net.forward_ws(&x, &mut ws);
            let y2 = loaded.forward_ws(&x, &mut ws);
            assert_eq!(
                (y1.rows(), y1.cols()),
                (y2.rows(), y2.cols()),
                "seed {seed}: shape drift"
            );
            for (a, b) in y1.data().iter().zip(y2.data()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed}: outputs differ bitwise: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn double_roundtrip_is_stable() {
    // JSON → model → JSON must be a fixed point (same canonical text).
    let mut rng = Rng::seed_from_u64(77);
    let (net, _) = random_full_net(&mut rng);
    let once = net.to_json();
    let twice = Sequential::from_json(&once).unwrap().to_json();
    assert_eq!(once, twice);
}

#[test]
fn file_roundtrip() {
    let mut rng = Rng::seed_from_u64(88);
    let (mut net, in_dim) = random_full_net(&mut rng);
    let path = std::env::temp_dir().join(format!("osa_nn_roundtrip_{}.json", std::process::id()));
    net.save(&path).expect("save");
    let mut loaded = Sequential::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let x = random_input(2, in_dim, &mut rng);
    let mut ws = Workspace::new();
    let y1 = net.forward_ws(&x, &mut ws);
    let y2 = loaded.forward_ws(&x, &mut ws);
    for (a, b) in y1.data().iter().zip(y2.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn trained_weights_survive_roundtrip() {
    // Round-tripping after training (weights far from init) is the case
    // the bench harness's model cache actually depends on.
    let mut rng = Rng::seed_from_u64(99);
    let mut net = Sequential::new()
        .with(Dense::new(2, 8, Init::HeUniform, &mut rng))
        .with(ReLU::new())
        .with(Dense::new(8, 2, Init::XavierUniform, &mut rng));
    let x = Tensor::from_rows(&[
        vec![0.0, 0.0],
        vec![0.0, 1.0],
        vec![1.0, 0.0],
        vec![1.0, 1.0],
    ]);
    let t = Tensor::from_rows(&[
        vec![1.0, 0.0],
        vec![0.0, 1.0],
        vec![0.0, 1.0],
        vec![1.0, 0.0],
    ]);
    let mut opt = Adam::new(0.05);
    let mut ws = Workspace::new();
    let mut g = Tensor::default();
    for _ in 0..100 {
        let y = net.forward_ws(&x, &mut ws);
        loss::softmax_cross_entropy_into(&y, &t, &mut g);
        let dx = net.backward_ws(&g, &mut ws);
        ws.recycle(dx);
        ws.recycle(y);
        net.step(&mut opt);
    }
    let mut loaded = Sequential::from_json(&net.to_json()).unwrap();
    let y1 = net.forward_ws(&x, &mut ws);
    let y2 = loaded.forward_ws(&x, &mut ws);
    for (a, b) in y1.data().iter().zip(y2.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn load_rejects_corrupted_documents() {
    let mut rng = Rng::seed_from_u64(111);
    let (net, _) = random_full_net(&mut rng);
    let good = net.to_json();
    // Truncations at arbitrary places must error, never panic or
    // mis-load.
    for cut in [1, good.len() / 3, good.len() - 2] {
        assert!(Sequential::from_json(&good[..cut]).is_err(), "cut {cut}");
    }
}
