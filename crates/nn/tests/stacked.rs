//! Contracts of the stacked-ensemble forward (`osa_nn::stacked`):
//!
//! 1. For Dense-only replicas the stacked path reproduces each replica's
//!    own `Sequential` forward **bit-for-bit** (same GEMM kernel, same
//!    bias/activation epilogue).
//! 2. For conv/branched towers (Pensieve-shaped) it matches to rounding
//!    (`Conv1d` seeds its accumulator with the bias; the dense lowering
//!    adds the bias in the epilogue).
//! 3. The stacked result itself is bit-identical across pool sizes
//!    {1, 2, 4, 8} and across batch regroupings — each output row depends
//!    only on its replica and its input row.
//! 4. The prepacked, banded, direct-input, fused-epilogue forward equals
//!    a replica-by-replica forward through the lowered dense layers,
//!    computed with the naive contract reduction, bit-for-bit.

use osa_nn::prelude::*;
use osa_nn::tensor::{fold8, KLANES};
use osa_runtime::{with_pool, ThreadPool};

fn random_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for v in t.data_mut() {
        *v = rng.range_f32(-1.0, 1.0);
    }
    t
}

fn mlp(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut Rng) -> Sequential {
    Sequential::new()
        .with(Dense::new(in_dim, hidden, Init::HeUniform, rng).with_act(Act::Relu))
        .with(Dense::new(hidden, out_dim, Init::XavierUniform, rng))
}

fn tower(filters: usize, merge: usize, out_dim: usize, rng: &mut Rng) -> Sequential {
    let conv = |len: usize, rng: &mut Rng| {
        Conv1d::new(1, len, filters, 4, Init::HeUniform, rng).with_act(Act::Relu)
    };
    let branches = Branches::new(vec![
        Branch::from(conv(8, rng)),
        Branch::from(conv(8, rng)),
        Branch::from(conv(6, rng)),
        Branch::from(Dense::new(3, filters, Init::HeUniform, rng).with_act(Act::Relu)),
    ]);
    let merge_in = branches.out_dim();
    Sequential::new()
        .with(branches)
        .with(Dense::new(merge_in, merge, Init::HeUniform, rng).with_act(Act::Relu))
        .with(Dense::new(merge, out_dim, Init::XavierUniform, rng))
}

#[test]
fn dense_replicas_match_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(31);
    let mut nets: Vec<Sequential> = (0..5).map(|_| mlp(12, 16, 4, &mut rng)).collect();
    let stacked = {
        let refs: Vec<&Sequential> = nets.iter().collect();
        StackedNet::from_nets(&refs).unwrap()
    };
    assert_eq!(stacked.replicas(), 5);
    assert_eq!((stacked.in_dim(), stacked.out_dim()), (12, 4));

    let x = random_tensor(3, 12, &mut rng);
    let mut ws = Workspace::new();
    let mut out = Tensor::zeros(0, 0);
    stacked.forward_into(&x, &mut ws, &mut out);
    assert_eq!((out.rows(), out.cols()), (15, 4));

    for (r, net) in nets.iter_mut().enumerate() {
        let y = net.forward(&x);
        for s in 0..3 {
            for (a, b) in out.row(r * 3 + s).iter().zip(y.row(s)) {
                assert_eq!(a.to_bits(), b.to_bits(), "replica {r} row {s}");
            }
        }
    }
}

#[test]
fn pensieve_shaped_towers_match_within_rounding() {
    let mut rng = Rng::seed_from_u64(7);
    let mut nets: Vec<Sequential> = (0..5).map(|_| tower(4, 16, 6, &mut rng)).collect();
    let stacked = {
        let refs: Vec<&Sequential> = nets.iter().collect();
        StackedNet::from_nets(&refs).unwrap()
    };
    let x = random_tensor(2, 25, &mut rng);
    let mut ws = Workspace::new();
    let mut out = Tensor::zeros(0, 0);
    stacked.forward_into(&x, &mut ws, &mut out);
    for (r, net) in nets.iter_mut().enumerate() {
        let y = net.forward(&x);
        for s in 0..2 {
            for (j, (&a, &b)) in out.row(r * 2 + s).iter().zip(y.row(s)).enumerate() {
                let scale = b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= 1e-5 * scale,
                    "replica {r} row {s} col {j}: stacked {a} vs sequential {b}"
                );
            }
        }
    }
}

#[test]
fn stacked_forward_is_bit_identical_across_pools() {
    let mut rng = Rng::seed_from_u64(99);
    // Big enough that m·k·n clears the parallel threshold, so the pool
    // sweep genuinely exercises sharded dispatch.
    let nets: Vec<Sequential> = (0..5).map(|_| mlp(64, 48, 32, &mut rng)).collect();
    let refs: Vec<&Sequential> = nets.iter().collect();
    let stacked = StackedNet::from_nets(&refs).unwrap();
    let x = random_tensor(16, 64, &mut rng);

    let reference = {
        let pool = ThreadPool::new(1);
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(0, 0);
        with_pool(&pool, || stacked.forward_into(&x, &mut ws, &mut out));
        out
    };
    for workers in [2, 4, 8] {
        let pool = ThreadPool::new(workers);
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(0, 0);
        with_pool(&pool, || stacked.forward_into(&x, &mut ws, &mut out));
        for (a, b) in out.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
        }
    }
}

#[test]
fn batch_rows_are_independent() {
    // Row s of a batch-4 stacked forward must equal the batch-1 forward
    // of row s alone — per-row arithmetic never depends on the batch.
    let mut rng = Rng::seed_from_u64(55);
    let nets: Vec<Sequential> = (0..3).map(|_| tower(4, 16, 6, &mut rng)).collect();
    let refs: Vec<&Sequential> = nets.iter().collect();
    let stacked = StackedNet::from_nets(&refs).unwrap();
    let x = random_tensor(4, 25, &mut rng);

    let mut ws = Workspace::new();
    let mut batched = Tensor::zeros(0, 0);
    stacked.forward_into(&x, &mut ws, &mut batched);

    for s in 0..4 {
        let mut one = Tensor::zeros(1, 25);
        one.row_mut(0).copy_from_slice(x.row(s));
        let mut out = Tensor::zeros(0, 0);
        stacked.forward_into(&one, &mut ws, &mut out);
        for r in 0..3 {
            for (a, b) in out.row(r).iter().zip(batched.row(r * 4 + s)) {
                assert_eq!(a.to_bits(), b.to_bits(), "replica {r} row {s}");
            }
        }
    }
}

#[test]
fn architecture_mismatches_are_rejected() {
    let mut rng = Rng::seed_from_u64(1);
    let a = mlp(8, 16, 4, &mut rng);
    let b = mlp(8, 12, 4, &mut rng); // different hidden width
    assert!(StackedNet::from_nets(&[&a, &b]).is_err());
    let c = Sequential::new().with(Dense::new(8, 4, Init::HeUniform, &mut rng));
    assert!(StackedNet::from_nets(&[&a, &c]).is_err());
    assert!(StackedNet::from_specs(&[]).is_err());
    // Standalone activation layers are not stackable.
    let d = Sequential::new()
        .with(Dense::new(8, 4, Init::HeUniform, &mut rng))
        .with(ReLU::new());
    assert!(StackedNet::from_nets(&[&d, &d]).is_err());
}

/// One layer's dense equivalent: `(in × out)` weights, bias row, act —
/// written out independently of the library's lowering.
fn lowered(spec: &LayerSpec) -> (Tensor, Vec<f32>, Act) {
    match spec {
        LayerSpec::Dense { w, b, act } => (w.clone(), b.row(0).to_vec(), *act),
        LayerSpec::Conv1d {
            in_channels,
            length,
            out_channels,
            kernel,
            w,
            b,
            act,
        } => {
            let out_len = length - kernel + 1;
            let mut dw = Tensor::zeros(in_channels * length, out_channels * out_len);
            let mut db = vec![0.0; out_channels * out_len];
            for oc in 0..*out_channels {
                for t in 0..out_len {
                    db[oc * out_len + t] = b.get(0, oc);
                    for ic in 0..*in_channels {
                        for kk in 0..*kernel {
                            dw.set(
                                ic * length + t + kk,
                                oc * out_len + t,
                                w.get(oc, ic * kernel + kk),
                            );
                        }
                    }
                }
            }
            (dw, db, *act)
        }
        LayerSpec::Branches { parts } => {
            let parts: Vec<_> = parts.iter().map(lowered).collect();
            let k: usize = parts.iter().map(|p| p.0.rows()).sum();
            let n: usize = parts.iter().map(|p| p.0.cols()).sum();
            let (mut dw, mut db) = (Tensor::zeros(k, n), Vec::new());
            let (mut r0, mut c0) = (0, 0);
            for (w, b, _) in &parts {
                for r in 0..w.rows() {
                    for c in 0..w.cols() {
                        dw.set(r0 + r, c0 + c, w.get(r, c));
                    }
                }
                db.extend_from_slice(b);
                (r0, c0) = (r0 + w.rows(), c0 + w.cols());
            }
            (dw, db, parts[0].2)
        }
        other => panic!("not lowerable: {other:?}"),
    }
}

/// Replica-by-replica reference: every row through every lowered layer,
/// each output the contract lane-fold over all `k` products, then
/// `act(sum + bias)`.
fn lowered_forward(net: &Sequential, x: &Tensor) -> Tensor {
    let mut cur = x.clone();
    for spec in &net.to_spec().layers {
        let (w, b, act) = lowered(spec);
        let mut next = Tensor::zeros(cur.rows(), w.cols());
        for i in 0..cur.rows() {
            for (j, &bias) in b.iter().enumerate() {
                let mut lanes = [0.0f32; KLANES];
                for p in 0..w.rows() {
                    lanes[p % KLANES] += cur.get(i, p) * w.get(p, j);
                }
                next.set(i, j, act.apply(fold8(lanes) + bias));
            }
        }
        cur = next;
    }
    cur
}

#[test]
fn prepacked_forward_matches_the_lowered_dense_reference() {
    let mut rng = Rng::seed_from_u64(77);
    // A Pensieve-shaped tower (banded first layer, 6-column edge head)
    // and a deep MLP whose 800-wide input takes the streaming path at
    // 1 and 3 rows and whose 1-column head is a single edge column.
    let towers: Vec<Sequential> = (0..5).map(|_| tower(8, 32, 6, &mut rng)).collect();
    let deep: Vec<Sequential> = (0..3).map(|_| mlp(800, 16, 1, &mut rng)).collect();
    for (what, nets) in [("tower", &towers), ("deep", &deep)] {
        let refs: Vec<&Sequential> = nets.iter().collect();
        let stacked = StackedNet::from_nets(&refs).unwrap();
        for workers in [1, 4] {
            let pool = ThreadPool::new(workers);
            let mut ws = Workspace::new();
            let mut out = Tensor::from_vec(1, 1, vec![f32::NAN]); // poisoned start
            for shard in [1usize, 3, 64, 65] {
                let x = random_tensor(shard, stacked.in_dim(), &mut rng);
                with_pool(&pool, || stacked.forward_into(&x, &mut ws, &mut out));
                assert_eq!(out.rows(), nets.len() * shard);
                for (r, net) in nets.iter().enumerate() {
                    let y = lowered_forward(net, &x);
                    for s in 0..shard {
                        for (j, (a, b)) in out.row(r * shard + s).iter().zip(y.row(s)).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{what} pool{workers} shard {shard} replica {r} row {s} col {j}"
                            );
                        }
                    }
                }
            }
        }
    }
}
