//! Bit-exactness contracts for the blocked GEMM kernels and fused
//! epilogues.
//!
//! The lane-group kernels in `tensor.rs` (`matmul_into`, `tmatmul_into`,
//! `matmul_t_into`, `matmul_bias_act_into`) are only allowed to change
//! *when* arithmetic happens, never *what* arithmetic happens: every
//! output element accumulates product `p` into lane `p % KLANES`
//! (ascending `p` within each lane, lanes starting from `+0.0`) and
//! folds the eight lanes with the fixed `fold8` tree. That fold order is
//! the kernel's public contract — blocking, B-panel packing, buffer
//! reuse, activation fusion, streaming-path selection, and thread count
//! are all invisible to every seeded test in the workspace. These
//! property-style tests (hand-rolled, no `proptest` offline) pin the
//! contract with `f32::to_bits` equality across random shapes —
//! including the degenerate `1×N` row-vector and `N×1` column-vector
//! cases that bypass whole blocks of the register kernel, shapes big
//! enough to engage B-panel packing, `k ≥ 768` shapes that take the
//! streaming zero-skip path, and banded right operands (lowered conv and
//! `Branches` weights) whose all-zero lane groups the kernel skips.

use osa_nn::prelude::*;
use osa_nn::tensor::{fold8, Act, KLANES};

const CASES: usize = 100;

fn random_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.range_f32(-2.0, 2.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Like [`random_tensor`] but with roughly a third of entries exactly
/// `0.0` — exercises the streaming path's zero-skip compaction, which
/// must be bit-neutral.
fn sparse_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.below(3) == 0 {
                0.0
            } else {
                rng.range_f32(-2.0, 2.0)
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Random GEMM dimensions, forcing the degenerate edges every 4th case.
fn random_dims(case: usize, rng: &mut Rng) -> (usize, usize, usize) {
    // Up to 20 so full register tiles, partial tiles, and leftover
    // rows/columns all occur.
    let (mut m, mut k, mut n) = (1 + rng.below(20), 1 + rng.below(20), 1 + rng.below(20));
    match case % 4 {
        0 => m = 1, // (1×k)·(k×n): a single output row
        1 => n = 1, // (m×k)·(k×1): a single output column
        2 => k = 1, // outer product: one accumulation step per element
        _ => {}
    }
    (m, k, n)
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str, case: usize) {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "{what} shape, case {case}"
    );
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}, case {case}, elem {i}: {x} vs {y}"
        );
    }
}

/// The contract reduction: product `p` lands in lane `p % KLANES`
/// (ascending `p` per lane, lanes start at `+0.0`), folded with the
/// fixed [`fold8`] tree. Every kernel path must match this bit-for-bit.
fn lane8_dot(products: impl Iterator<Item = f32>) -> f32 {
    let mut lanes = [0.0f32; KLANES];
    for (p, prod) in products.enumerate() {
        lanes[p % KLANES] += prod;
    }
    fold8(lanes)
}

/// Naive reference: per output element, the contract lane-fold reduction.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let dot = lane8_dot((0..a.cols()).map(|p| a.get(i, p) * b.get(p, j)));
            *out.row_mut(i).get_mut(j).unwrap() = dot;
        }
    }
    out
}

/// Naive `aᵀ·b`: shapes `(k,m)ᵀ·(k,n) → (m,n)`, contract lane-fold.
fn naive_tmatmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let dot = lane8_dot((0..a.rows()).map(|p| a.get(p, i) * b.get(p, j)));
            *out.row_mut(i).get_mut(j).unwrap() = dot;
        }
    }
    out
}

/// Naive `a·bᵀ`: shapes `(m,k)·(n,k)ᵀ → (m,n)`, contract lane-fold.
fn naive_matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let dot = lane8_dot((0..a.cols()).map(|p| a.get(i, p) * b.get(j, p)));
            *out.row_mut(i).get_mut(j).unwrap() = dot;
        }
    }
    out
}

#[test]
#[should_panic(expected = "ragged rows")]
fn from_rows_rejects_ragged_rows() {
    let _ = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
}

#[test]
fn blocked_matmul_is_bit_identical_to_the_naive_loop() {
    let mut rng = Rng::seed_from_u64(400);
    for case in 0..CASES {
        let (m, k, n) = random_dims(case, &mut rng);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        assert_bits_eq(&a.matmul(&b), &naive_matmul(&a, &b), "matmul", case);
    }
}

#[test]
fn blocked_tmatmul_is_bit_identical_to_the_naive_loop() {
    let mut rng = Rng::seed_from_u64(401);
    for case in 0..CASES {
        let (m, k, n) = random_dims(case, &mut rng);
        let a = random_tensor(k, m, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        assert_bits_eq(&a.tmatmul(&b), &naive_tmatmul(&a, &b), "tmatmul", case);
    }
}

#[test]
fn blocked_matmul_t_is_bit_identical_to_the_naive_loop() {
    let mut rng = Rng::seed_from_u64(402);
    for case in 0..CASES {
        let (m, k, n) = random_dims(case, &mut rng);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(n, k, &mut rng);
        assert_bits_eq(&a.matmul_t(&b), &naive_matmul_t(&a, &b), "matmul_t", case);
    }
}

/// The packed-panel path (rows ≥ 4, full `NR`-wide panels) against the
/// naive reference, at shapes chosen so the B panel, its column fringe,
/// the `MR`-row pairs, and the single-row tail are all live at once —
/// e.g. 9×21·13: packing on, one full panel + 5 fringe columns, four
/// row pairs + one leftover row, 21 = 2 full lane groups + 5-step tail.
#[test]
fn packed_panel_path_is_bit_identical_to_the_naive_loop() {
    let mut rng = Rng::seed_from_u64(406);
    let shapes = [
        (9usize, 21usize, 13usize), // panel + fringe + row tail + k tail
        (4, 8, 8),                  // minimal packing: exactly one panel
        (5, 16, 9),                 // one panel + 1 fringe column
        (32, 40, 24),               // several panels, even everything
        (4, 7, 17),                 // k below one lane group
        (3, 24, 16),                // below PACK_MIN_ROWS: unpacked tiles
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        assert_bits_eq(&a.matmul(&b), &naive_matmul(&a, &b), "packed matmul", case);
    }
}

/// Row-vector (`1×N`) and column-vector (`N×1`) edges against the packed
/// kernel specifically: `n` wide enough for full B panels while `m = 1`
/// skips packing, and `n = 1` takes the pure edge-column dot path — each
/// threaded through one dirty reused buffer.
#[test]
fn edge_shapes_hit_the_packed_kernel_paths() {
    let mut rng = Rng::seed_from_u64(407);
    let mut out = Tensor::from_vec(3, 3, vec![f32::NAN; 9]); // poisoned start
    for case in 0..CASES {
        let k = 1 + rng.below(40);
        let n = 8 + rng.below(24); // ≥ NR: full panels exist
        let row = random_tensor(1, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        row.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &naive_matmul(&row, &b), "1xN matmul", case);

        let m = 4 + rng.below(24); // ≥ PACK_MIN_ROWS rows, single column
        let a = random_tensor(m, k, &mut rng);
        let col = random_tensor(k, 1, &mut rng);
        a.matmul_into(&col, &mut out);
        assert_bits_eq(&out, &naive_matmul(&a, &col), "Nx1 matmul", case);
    }
}

/// Edge columns (`n = 16·panels + edge`, `edge ∈ 1..=15`: every edge
/// width of panels up to 16 wide) against the naive reference at every
/// pool width: two or more ride a zero-padded panel
/// through the micro-kernel; a single one packs as a bare column and
/// takes a lane-fold dot — with or without full panels beside them. Row
/// counts
/// cover the packed `MR` pairs, the single-row tail, a 64-row serving
/// shard (the actor's 32→6 head), and enough work to shard rows across
/// the pool.
#[test]
fn edge_columns_are_bit_identical_at_every_pool_width() {
    for &workers in &[1usize, 2, 4, 8] {
        let pool = osa_runtime::ThreadPool::new(workers);
        osa_runtime::with_pool(&pool, || {
            let mut rng = Rng::seed_from_u64(410);
            let mut out = Tensor::from_vec(2, 2, vec![f32::NAN; 4]); // poisoned start
            let mut case = 0;
            for edge in 1..16usize {
                for panels in 0..3usize {
                    for &(m, k) in &[(1usize, 13usize), (5, 8), (64, 32), (96, 41)] {
                        let n = panels * 16 + edge;
                        let a = random_tensor(m, k, &mut rng);
                        let b = random_tensor(k, n, &mut rng);
                        a.matmul_into(&b, &mut out);
                        let what = format!("pool{workers} {m}x{k}·{k}x{n}");
                        assert_bits_eq(&out, &naive_matmul(&a, &b), &what, case);
                        case += 1;
                    }
                }
            }
        });
    }
}

/// A `k × n` matrix holding random weights where `keep(p, j)` and zeros
/// elsewhere, the zeros alternating `+0.0`/`-0.0` so that a group of
/// "all-zero" weights is only ever zero up to sign.
fn banded(k: usize, n: usize, rng: &mut Rng, keep: impl Fn(usize, usize) -> bool) -> Tensor {
    let mut t = Tensor::zeros(k, n);
    for p in 0..k {
        for j in 0..n {
            let v = if keep(p, j) {
                rng.range_f32(-2.0, 2.0)
            } else if (p + j) % 2 == 0 {
                0.0
            } else {
                -0.0
            };
            t.set(p, j, v);
        }
    }
    t
}

/// A lowered `Conv1d` (`in_ch` channels of length `len`, `out_ch`
/// filters of width `ker`): column `oc·out_len + t` holds filter `oc` on
/// rows `ic·len + t .. + ker` — a Toeplitz band per channel.
fn toeplitz(in_ch: usize, len: usize, out_ch: usize, ker: usize, rng: &mut Rng) -> Tensor {
    let out_len = len - ker + 1;
    let filters = random_tensor(out_ch, in_ch * ker, rng);
    let mut t = Tensor::zeros(in_ch * len, out_ch * out_len);
    for oc in 0..out_ch {
        for s in 0..out_len {
            for ic in 0..in_ch {
                for kk in 0..ker {
                    t.set(
                        ic * len + s + kk,
                        oc * out_len + s,
                        filters.get(oc, ic * ker + kk),
                    );
                }
            }
        }
    }
    t
}

/// A lowered `Branches`: part `i` maps input rows `rows[i]` to output
/// columns `cols[i]`, zeros everywhere else.
fn block_diagonal(
    rows: &[std::ops::Range<usize>],
    cols: &[std::ops::Range<usize>],
    rng: &mut Rng,
) -> Tensor {
    let (k, n) = (rows.last().unwrap().end, cols.last().unwrap().end);
    banded(k, n, rng, |p, j| {
        rows.iter()
            .zip(cols)
            .any(|(r, c)| r.contains(&p) && c.contains(&j))
    })
}

/// Right operands with all-zero `KLANES` row groups — the structure the
/// stacked ensemble lowers its first layer to — against the naive
/// lane-fold reference, through both the raw and the fused bias+ReLU
/// epilogue, at every pool width: per call (`matmul_into`, which reduces
/// over every row) and packed once (a one-replica [`StackedNet`], whose
/// panels reduce over their nonzero band only). The cases pin every way
/// a band can sit in a panel.
#[test]
fn banded_b_matrices_are_bit_identical_at_every_pool_width() {
    for &workers in &[1usize, 2, 4, 8] {
        let pool = osa_runtime::ThreadPool::new(workers);
        osa_runtime::with_pool(&pool, || {
            let mut rng = Rng::seed_from_u64(411);
            let cases: Vec<(&str, Tensor)> = vec![
                // Two channels of a width-4 conv over 12 samples: 24×27,
                // three full panels plus a 3-column padded edge panel.
                ("toeplitz", toeplitz(2, 12, 3, 4, &mut rng)),
                // Pensieve's first-layer shape (25 inputs, conv towers,
                // a dense scalar part): 25×33, the last part's band
                // starts mid-group (row 19 → 16) and ends in the tail
                // (row 25), and column 32 is a single edge column.
                (
                    "block-diagonal",
                    block_diagonal(&[0..8, 8..19, 19..25], &[0..16, 16..24, 24..33], &mut rng),
                ),
                // Columns 16..32 hold only zeros: a whole panel with the
                // empty band.
                (
                    "all-zero panel",
                    banded(21, 40, &mut rng, |_, j| !(16..32).contains(&j)),
                ),
                // Nonzeros on rows 11..14 only: lo = 8, hi = 14.
                (
                    "mid-group band",
                    banded(30, 16, &mut rng, |p, _| (11..14).contains(&p)),
                ),
                // Nonzeros from row 17 to the last row of k = 21.
                ("tail band", banded(21, 8, &mut rng, |p, _| p >= 17)),
                // A padded edge panel (10 columns) and a single edge
                // column (17 = 16 + 1), both banded.
                (
                    "edge panel",
                    banded(40, 10, &mut rng, |p, j| (p * 3 + j) % 7 == 0 && p > 9),
                ),
                (
                    "edge column",
                    banded(40, 17, &mut rng, |p, _| (20..31).contains(&p)),
                ),
                // Deep enough for the streaming path at 1 and 3 rows.
                (
                    "deep block-diagonal",
                    block_diagonal(&[0..300, 300..800], &[0..8, 8..17], &mut rng),
                ),
            ];
            let mut out = Tensor::from_vec(2, 2, vec![f32::NAN; 4]); // poisoned start
            let mut ws = Workspace::new();
            for (case, (what, b)) in cases.iter().enumerate() {
                let bias = random_tensor(1, b.cols(), &mut rng);
                for m in [1usize, 3, 64, 97] {
                    let a = random_tensor(m, b.rows(), &mut rng);
                    let reference = naive_matmul(&a, b);
                    let what = format!("pool{workers} {what} {m} rows");
                    a.matmul_into(b, &mut out);
                    assert_bits_eq(&out, &reference, &what, case);

                    let mut fused = reference.clone();
                    for r in 0..m {
                        for (o, &bv) in fused.row_mut(r).iter_mut().zip(bias.row(0)) {
                            *o = Act::Relu.apply(*o + bv);
                        }
                    }
                    a.matmul_bias_act_into(b, &bias, Act::Relu, &mut out);
                    assert_bits_eq(&out, &fused, &format!("{what} fused"), case);

                    let mut plain = reference.clone();
                    for r in 0..m {
                        for (o, &bv) in plain.row_mut(r).iter_mut().zip(bias.row(0)) {
                            *o += bv;
                        }
                    }
                    for (act, want) in [(Act::Identity, &plain), (Act::Relu, &fused)] {
                        let dense = Dense::from_params(b.clone(), bias.clone()).with_act(act);
                        let net = Sequential::new().with(dense);
                        let packed = StackedNet::from_nets(&[&net]).unwrap();
                        packed.forward_into(&a, &mut ws, &mut out);
                        assert_bits_eq(&out, want, &format!("{what} packed {act:?}"), case);
                    }
                }
            }
        });
    }
}

/// Per-call products never skip a weight, so a non-finite activation
/// reaches every output of its row — on the packed-panel, edge-column
/// and streaming paths alike, at every pool width — and leaves the other
/// rows bit-unchanged. (Weights packed once skip their all-zero groups,
/// which the `KLANES` contract states for finite activations only.)
#[test]
fn a_non_finite_activation_poisons_its_row_on_every_per_call_path() {
    for &workers in &[1usize, 2, 4, 8] {
        let pool = osa_runtime::ThreadPool::new(workers);
        osa_runtime::with_pool(&pool, || {
            let mut rng = Rng::seed_from_u64(419);
            // Every column has all-zero lane groups; the first case ends
            // in a single edge column, the last streams at 1 and 3 rows.
            let cases = [
                block_diagonal(&[0..8, 8..19, 19..25], &[0..16, 16..24, 24..33], &mut rng),
                banded(30, 10, &mut rng, |p, _| (11..14).contains(&p)),
                block_diagonal(&[0..300, 300..800], &[0..8, 8..17], &mut rng),
            ];
            let mut out = Tensor::default();
            for (case, b) in cases.iter().enumerate() {
                for m in [1usize, 3, 64, 97] {
                    let clean = random_tensor(m, b.rows(), &mut rng);
                    let bias = random_tensor(1, b.cols(), &mut rng);
                    let mut want = Tensor::default();
                    clean.matmul_into(b, &mut want);
                    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                        let (i, p) = (rng.below(m), rng.below(b.rows()));
                        let mut a = clean.clone();
                        a.set(i, p, bad);
                        a.matmul_into(b, &mut out);
                        let what = format!("pool{workers} {m} rows, a[{i},{p}] = {bad}");
                        for r in 0..m {
                            for j in 0..b.cols() {
                                let (got, clean) = (out.get(r, j), want.get(r, j));
                                if r == i {
                                    assert!(!got.is_finite(), "{what}: out[{r},{j}] = {got}");
                                } else {
                                    assert_eq!(
                                        got.to_bits(),
                                        clean.to_bits(),
                                        "{what}, case {case}"
                                    );
                                }
                            }
                        }
                        if bad.is_nan() {
                            a.matmul_bias_act_into(b, &bias, Act::Relu, &mut out);
                            assert!(out.row(i).iter().all(|v| v.is_nan()), "{what} fused");
                        }
                    }
                }
            }
        });
    }
}

/// The streaming path (`k ≥ 768`, `n ≥ 8`) with its branchless zero-skip
/// compaction must match the naive lane-fold reference bit-for-bit even
/// when the left operand is ~1/3 exact zeros — skipping a `±0.0`
/// product never changes an accumulator bit because lanes start at
/// `+0.0` and can never become `-0.0`.
#[test]
fn streaming_path_zero_skip_is_bit_neutral() {
    let mut rng = Rng::seed_from_u64(408);
    for (case, &(m, k, n)) in [(1usize, 800usize, 24usize), (3, 768, 8), (2, 1000, 13)]
        .iter()
        .enumerate()
    {
        let a = sparse_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        assert_bits_eq(&a.matmul(&b), &naive_matmul(&a, &b), "stream matmul", case);
    }
}

/// The `_into` kernels must fully overwrite a reused buffer: one dirty
/// `Tensor` is threaded through all 100 cases with shapes that never
/// match its previous contents, and each result must equal a fresh
/// allocation bit-for-bit.
#[test]
fn into_kernels_overwrite_dirty_reused_buffers() {
    let mut rng = Rng::seed_from_u64(403);
    let mut out = Tensor::from_vec(5, 7, vec![f32::NAN; 35]); // poisoned start
    for case in 0..CASES {
        let (m, k, n) = random_dims(case, &mut rng);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &a.matmul(&b), "matmul_into reuse", case);

        let bt = random_tensor(n, k, &mut rng);
        a.matmul_t_into(&bt, &mut out);
        assert_bits_eq(&out, &a.matmul_t(&bt), "matmul_t_into reuse", case);

        let at = random_tensor(k, m, &mut rng);
        at.tmatmul_into(&b, &mut out);
        assert_bits_eq(&out, &at.tmatmul(&b), "tmatmul_into reuse", case);
    }
}

/// Dirty-buffer reuse specifically through the packed-panel path: every
/// case has rows ≥ `PACK_MIN_ROWS` and `n ≥ 8` so the arena-packed
/// kernel (not just the blocked fallback) proves it overwrites rather
/// than accumulates into stale contents.
#[test]
fn packed_kernel_overwrites_dirty_reused_buffers() {
    let mut rng = Rng::seed_from_u64(409);
    let mut out = Tensor::from_vec(6, 6, vec![f32::NAN; 36]); // poisoned start
    for case in 0..CASES {
        let m = 4 + rng.below(16);
        let k = 1 + rng.below(32);
        let n = 8 + rng.below(16);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &naive_matmul(&a, &b), "packed reuse", case);
    }
}

/// Fused bias + activation epilogue == matmul, then broadcast bias add,
/// then elementwise activation — bit-for-bit, for both epilogues.
#[test]
fn fused_bias_act_matches_the_unfused_sequence() {
    let mut rng = Rng::seed_from_u64(404);
    let mut out = Tensor::default();
    for case in 0..CASES {
        let (m, k, n) = random_dims(case, &mut rng);
        let a = random_tensor(m, k, &mut rng);
        let w = random_tensor(k, n, &mut rng);
        let bias = random_tensor(1, n, &mut rng);
        let act = if case % 2 == 0 {
            Act::Relu
        } else {
            Act::Identity
        };

        let mut reference = a.matmul(&w);
        for r in 0..m {
            for (o, &bv) in reference.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o = act.apply(*o + bv);
            }
        }
        a.matmul_bias_act_into(&w, &bias, act, &mut out);
        assert_bits_eq(&out, &reference, "fused bias+act", case);
    }
}

/// The kernels must be bit-identical for every pool size. Shapes here are
/// drawn large enough (`m·k·n` up to ~190k multiply-adds) that many cases
/// cross the internal parallel threshold and genuinely shard rows across
/// workers, while the `m = 1` / `n = 1` / `k = 1` edges every 4th case
/// keep exercising the inline path under an active pool. Each sweep
/// compares against the naive lane-fold reference, and a dirty shared
/// output buffer is threaded through like the reuse test above.
#[test]
fn kernels_are_bit_identical_across_worker_counts() {
    for &workers in &[1usize, 2, 4, 8] {
        let pool = osa_runtime::ThreadPool::new(workers);
        osa_runtime::with_pool(&pool, || {
            let mut rng = Rng::seed_from_u64(405);
            let mut out = Tensor::from_vec(5, 7, vec![f32::NAN; 35]); // poisoned start
            for case in 0..40 {
                let (mut m, mut k, mut n) =
                    (2 + rng.below(48), 2 + rng.below(64), 2 + rng.below(48));
                match case % 4 {
                    0 => m = 1,
                    1 => n = 1,
                    2 => k = 1,
                    _ => {}
                }
                let what = format!("pool{workers}");
                let a = random_tensor(m, k, &mut rng);
                let b = random_tensor(k, n, &mut rng);
                a.matmul_into(&b, &mut out);
                assert_bits_eq(&out, &naive_matmul(&a, &b), &format!("{what} matmul"), case);

                let bt = random_tensor(n, k, &mut rng);
                a.matmul_t_into(&bt, &mut out);
                assert_bits_eq(
                    &out,
                    &naive_matmul_t(&a, &bt),
                    &format!("{what} matmul_t"),
                    case,
                );

                let at = random_tensor(k, m, &mut rng);
                at.tmatmul_into(&b, &mut out);
                assert_bits_eq(
                    &out,
                    &naive_tmatmul(&at, &b),
                    &format!("{what} tmatmul"),
                    case,
                );
            }
        });
    }
}

/// A `Dense` with a fused ReLU must be indistinguishable from the same
/// `Dense` followed by a standalone `ReLU` layer — the refactor that
/// removed the separate layers from `ActorCritic::mlp` and the bench
/// actor relies on this.
#[test]
fn fused_dense_forward_matches_dense_then_relu_layer() {
    for seed in 0..20u64 {
        let mut rng_a = Rng::seed_from_u64(500 + seed);
        let mut rng_b = Rng::seed_from_u64(500 + seed);
        let mut shape_rng = Rng::seed_from_u64(600 + seed);
        let (m, k, n) = random_dims(seed as usize, &mut shape_rng);
        let mut fused = Dense::new(k, n, Init::HeUniform, &mut rng_a).with_act(Act::Relu);
        let mut plain = Dense::new(k, n, Init::HeUniform, &mut rng_b);
        let x = random_tensor(m, k, &mut shape_rng);
        let fused_y = fused.forward(&x);
        let plain_y = ReLU::new().forward(&plain.forward(&x));
        assert_bits_eq(&fused_y, &plain_y, "fused Dense", seed as usize);
    }
}
