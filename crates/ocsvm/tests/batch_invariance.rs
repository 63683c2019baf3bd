//! Batch-size and pool-width invariance of the novelty scorer.
//!
//! The batched engine's contract (`detector.rs`): scoring a window
//! through `score_batch_into` returns the same bits no matter how the
//! batch is grouped — sizes 1, 3, 16, 257 all agree with each other and
//! with the scalar `score` path, at every pool width. For [`OcSvm`] the
//! batch *is* the canonical path (scalar delegates to a batch of one).

use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;
use osa_runtime::{with_pool, ThreadPool};

const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];
const BATCH_SIZES: [usize; 4] = [1, 3, 16, 257];
const QUERIES: usize = 257;
const DIM: usize = FEATURE_DIM;

/// In-distribution-ish training cluster plus a query set that straddles
/// the boundary (near points, moderate points, far outliers).
fn training_and_queries() -> (Tensor, Tensor) {
    let mut rng = Rng::seed_from_u64(0x0541);
    let mut train = Tensor::zeros(300, DIM);
    for v in train.data_mut() {
        *v = 1.0 + rng.range_f32(-0.5, 0.5);
    }
    let mut queries = Tensor::zeros(QUERIES, DIM);
    for i in 0..QUERIES {
        let spread = match i % 3 {
            0 => 0.5,  // inlier
            1 => 2.0,  // boundary-ish
            _ => 12.0, // far outlier
        };
        for v in queries.row_mut(i) {
            *v = 1.0 + rng.range_f32(-spread, spread);
        }
    }
    (train, queries)
}

/// Score all queries through batches of `size` (last batch ragged).
fn batched_scores(det: &OcSvm, queries: &Tensor, size: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; queries.rows()];
    let mut chunk = Tensor::zeros(0, queries.cols());
    let mut start = 0;
    while start < queries.rows() {
        let end = (start + size).min(queries.rows());
        chunk.reset_rows(queries.cols());
        for i in start..end {
            chunk.push_row(queries.row(i));
        }
        det.score_batch_into(&chunk, &mut out[start..end]);
        start = end;
    }
    out
}

#[test]
fn ocsvm_is_batch_size_and_pool_width_invariant() {
    let (train, queries) = training_and_queries();
    let mut det = OcSvm::new(OcSvmConfig::default());
    det.fit(&train).expect("finite training set");
    // Reference: the scalar path at pool width 1.
    let reference: Vec<u32> = {
        let pool = ThreadPool::new(1);
        with_pool(&pool, || {
            (0..queries.rows())
                .map(|i| det.score(queries.row(i)).to_bits())
                .collect()
        })
    };
    assert!(
        reference.iter().any(|&b| f32::from_bits(b) > 0.0),
        "query set never left the learned region"
    );
    for width in POOL_WIDTHS {
        let pool = ThreadPool::new(width);
        with_pool(&pool, || {
            for size in BATCH_SIZES {
                let got = batched_scores(&det, &queries, size);
                for (i, (&g, &want)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        want,
                        "batch {size}, pool {width}, query {i}: {g} != {}",
                        f32::from_bits(want)
                    );
                }
            }
        });
    }
}

#[test]
fn ocsvm_batched_path_is_the_canonical_scalar_path() {
    // The scalar accessors route through the batched kernel: decision
    // and raw_score must stay exact negations and the log score must
    // agree bit-for-bit with a hand-run batch of one.
    let (train, queries) = training_and_queries();
    let mut det = OcSvm::new(OcSvmConfig::default());
    det.fit(&train).expect("finite training set");
    let mut one = Tensor::zeros(1, DIM);
    let mut out = [0.0f32];
    for i in 0..queries.rows() {
        let q = queries.row(i);
        one.row_mut(0).copy_from_slice(q);
        det.score_batch_into(&one, &mut out);
        assert_eq!(out[0].to_bits(), det.score(q).to_bits());
        assert_eq!(det.decision(q).to_bits(), (-det.raw_score(q)).to_bits());
    }
}
