//! End-to-end proof that the hand-written backprop in `osa-nn` is correct:
//! train a tiny MLP to solve XOR from a fixed seed, deterministically, in
//! well under a second.
//!
//! ```sh
//! cargo run --release --example nn_quickstart
//! ```

use osa::nn::prelude::*;
use osa::nn::tensor::argmax;

fn main() {
    let seed = 42;
    let mut rng = Rng::seed_from_u64(seed);

    // XOR: the canonical not-linearly-separable problem. One hidden layer
    // of 8 ReLU units is plenty.
    let x = Tensor::from_rows(&[
        vec![0.0, 0.0],
        vec![0.0, 1.0],
        vec![1.0, 0.0],
        vec![1.0, 1.0],
    ]);
    let labels = [0usize, 1, 1, 0];
    let mut targets = Tensor::zeros(4, 2);
    for (row, &class) in labels.iter().enumerate() {
        targets.set(row, class, 1.0);
    }

    let mut net = Sequential::new()
        .with(Dense::new(2, 8, Init::HeUniform, &mut rng))
        .with(ReLU::new())
        .with(Dense::new(8, 2, Init::XavierUniform, &mut rng));
    let mut opt = Adam::new(0.05);
    let mut ws = Workspace::new();
    let mut grad = Tensor::default();

    let start = std::time::Instant::now();
    let epochs = 500;
    for epoch in 0..epochs {
        let logits = net.forward_ws(&x, &mut ws);
        let loss = loss::softmax_cross_entropy_into(&logits, &targets, &mut grad);
        let dx = net.backward_ws(&grad, &mut ws);
        ws.recycle(dx);
        ws.recycle(logits);
        net.step(&mut opt);
        if epoch % 100 == 0 {
            println!("epoch {epoch:>4}  cross-entropy {loss:.6}");
        }
    }
    let elapsed = start.elapsed();

    let logits = net.forward_ws(&x, &mut ws);
    let predictions: Vec<usize> = (0..logits.rows()).map(|r| argmax(logits.row(r))).collect();
    let correct = predictions
        .iter()
        .zip(&labels)
        .filter(|(p, l)| p == l)
        .count();
    let accuracy = correct as f64 / labels.len() as f64;

    println!();
    println!("seed {seed}: trained {epochs} epochs in {elapsed:.2?}");
    for (row, &pred) in predictions.iter().enumerate() {
        println!(
            "  {} XOR {} -> class {} (want {})",
            x.get(row, 0),
            x.get(row, 1),
            pred,
            labels[row]
        );
    }
    println!("accuracy: {:.0}%", accuracy * 100.0);

    assert!(
        accuracy > 0.95,
        "XOR training failed: accuracy {accuracy} <= 0.95"
    );
    assert!(
        elapsed.as_secs_f64() < 1.0,
        "XOR training too slow: {elapsed:.2?}"
    );
    println!("OK: accuracy > 95% within {elapsed:.2?}");
}
