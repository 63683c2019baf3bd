//! A minimal row-major matrix type.
//!
//! Everything the layers need — and nothing more. A `Tensor` is a dense
//! `(rows × cols)` matrix of `f32` backed by a single `Vec`; 1-D data is a
//! `(1 × n)` row vector. Loss reductions accumulate in `f64` to keep the
//! numerical gradient checks meaningful at `f32` precision.

/// Elementwise activation fused into the GEMM epilogues
/// ([`Tensor::matmul_bias_act_into`]) and the fused `Dense`/`Conv1d`
/// forward passes. Applying `Identity` reproduces the unfused pipeline
/// bit-for-bit; `Relu` is `max(0, x)` for every non-NaN `x` and passes
/// NaN through, the same function the standalone `ReLU` layer applies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Act {
    #[default]
    Identity,
    Relu,
}

impl Act {
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Act::Identity => x,
            Act::Relu => relu(x),
        }
    }
}

/// `max(0, x)` that fails closed: NaN propagates instead of becoming
/// `0` (`f32::max` returns the non-NaN operand), so a NaN input reaches
/// the network output rather than reading as an all-zero hidden layer.
/// For finite `x` at most the sign of a zero differs from `x.max(0.0)`,
/// and a zero of either sign adds nothing to a lane that starts at `+0`
/// (see [`KLANES`]).
#[inline(always)]
pub(crate) fn relu(x: f32) -> f32 {
    // One compare, so it compiles to a select: `NaN <= 0` is false.
    if x <= 0.0 {
        0.0
    } else {
        x
    }
}

/// Number of interleaved accumulation lanes in the canonical fold order —
/// the SIMD width the kernels are written for (eight `f32`, one AVX/AVX2
/// register; two SSE registers; half an AVX-512 register).
///
/// # The fixed 8-lane fold order (kernel contract)
///
/// Every dot product of length `k` in this crate — `matmul_into`,
/// `tmatmul_into`, `matmul_t_into`, the fused bias+act epilogues, the
/// stacked ensemble GEMM, and the Conv1d im2row path — accumulates in
/// exactly this order and no other:
///
/// 1. **Lane assignment.** Partial product `p` (ascending, `0..k`)
///    accumulates into lane `p % KLANES`; each lane starts at `+0.0` and
///    adds its products in ascending `p`.
/// 2. **Fold tree.** The eight lanes reduce with the fixed pairwise tree
///    `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))` — see [`fold8`].
///
/// The bits of the result depend *only* on this lane assignment and fold
/// tree, never on blocking: row tiles ([`MR`]), column panels ([`NR`]),
/// panel packing, column-block widths ([`NB`]), and path selection are
/// free to change (even per-architecture) without changing a single
/// output bit, which is what keeps results bit-identical at any
/// `OSA_THREADS` and lets autovectorization run at full SIMD width.
/// (The previous contract pinned a single ascending-`k` accumulator,
/// which serializes the reduction behind one add-latency chain and
/// forbids vectorizing the `k` axis.)
///
/// Skipping products where `a[i,p] == 0.0` is bit-neutral under this
/// contract for finite `b`: lanes start at `+0.0`, a zero `x` contributes
/// `±0.0`, IEEE-754 addition never turns a running lane into `-0.0`
/// (`+0.0 + -0.0 == +0.0`, and `x + (-x) == +0.0`), so adding or
/// skipping the term produces identical bits. The streaming path uses
/// this to skip zero activations (about half of all post-ReLU inputs).
///
/// The same argument covers zero *weights* for finite `a`: a product
/// `a[i,p] · (±0.0)` is `±0.0`, so a `KLANES` group of `b` rows whose
/// weights are all `±0.0` can be skipped without changing a bit. Weights
/// packed once ([`PackedB`], the stacked ensemble's layers) record each
/// panel's nonzero band — the first row holding a nonzero weight,
/// rounded down to a `KLANES` group so each product keeps its lane, and
/// one past the last — and the micro-kernel reduces over that band only.
/// Lowered convolutions (Toeplitz) and lowered `Branches`
/// (block-diagonal) are mostly zero groups. A non-finite activation in a
/// skipped row would have turned its `±0.0` products into NaN; outside
/// the band it is dropped instead, which is why the skip is stated for
/// finite activations. Per-call products (`matmul_into` and friends)
/// never skip weights, so there a non-finite activation reaches every
/// output of its row on every path.
pub const KLANES: usize = 8;

/// Row-block size of the packed-panel micro-kernel: two rows of the left
/// operand stream together so each packed `b` panel row loaded from
/// cache feeds two output rows. Blocking only — does not affect bits.
const MR: usize = 2;

/// Column-panel width of the micro-kernel and of packed B panels: 16
/// `f32`, one AVX-512 register (two AVX2 registers). Blocking only —
/// never bits. Measured end to end (fleet benchmark `steady_uv`, 10
/// alternating pairs, 2-vCPU AVX-512 Xeon): 16 beats 8 on the AVX-512
/// build (0.77 vs 1.07 ms per round, 10/10 pairs), and an AVX2 build
/// (`-C target-cpu=haswell`) on the same host cannot tell them apart
/// (1.51 vs 1.47 ms, 8 ahead in 7/10 pairs by less than the spread), so
/// one width serves every target.
const NR: usize = 16;

/// Column-block width of the streaming (large-`k`) path's lane-buffer
/// accumulator: `KLANES × NB` f32 = 8 KiB, L1-resident. Blocking only.
const NB: usize = 256;

/// Reduction length at which the kernels switch from the packed-panel
/// path (B panel of `k × NR` stays cache-resident across all rows) to
/// the streaming path (B streamed once per row in `p`-major order with
/// the zero-activation skip). Path choice never affects bits.
const STREAM_MIN_K: usize = 768;

/// Row count below which the large-`k` streaming path is preferred over
/// packed panels: the streaming path re-reads all of `b` once per row,
/// so it only wins for a handful of rows (the batch-1 decision path),
/// where it replaces the pack pass entirely and skips zero activations
/// (same arithmetic, same bits). Also used by `Conv1d` to route tiny
/// batches straight through [`dot_lane8`] instead of im2row + GEMM.
pub(crate) const PACK_MIN_ROWS: usize = 4;

/// `f32`s in one 64-byte cache line — packed panels are aligned to this.
const CACHE_LINE_F32S: usize = 16;

/// The fixed lane-fold tree of the kernel contract (see [`KLANES`]):
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`, evaluated exactly as
/// parenthesized.
#[inline(always)]
pub fn fold8(l: [f32; KLANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Row-wise max-subtracted softmax, `logits` → `probs` (equal lengths).
/// The one softmax every actor head, ensemble and [`crate::Softmax`]
/// layer runs, so their probabilities agree bit for bit.
#[inline]
pub fn softmax_row(logits: &[f32], probs: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (p, &l) in probs.iter_mut().zip(logits) {
        *p = (l - max).exp();
        sum += *p;
    }
    for p in probs {
        *p /= sum;
    }
}

/// Index of the largest entry, ties to the lowest index — the
/// deterministic greedy action. A comparison with NaN is false, so an
/// all-NaN slice gives 0.
#[inline]
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Identifier of the accumulation-order contract the compiled kernels
/// implement. Recorded in every bench report; `bench_compare` refuses to
/// compare reports from different kernel variants (timings from
/// different accumulation contracts are not like-for-like).
pub fn kernel_variant() -> &'static str {
    "lane8"
}

/// Dense row-major `f32` matrix. 1-D vectors are `(1 × n)`.
/// `Default` is the empty `(0 × 0)` tensor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wrap an existing row-major buffer. Panics if the length does not
    /// match the shape.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Build from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `(1 × n)` row vector.
    pub fn vector(data: Vec<f32>) -> Self {
        Tensor {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Capacity of the underlying buffer in elements — how large this
    /// tensor can be reshaped without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Raw row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Matrix product `self · other`. Shapes `(m,k)·(k,n) → (m,n)`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// In-place matrix product `out = self · other`, reshaping `out` to
    /// `(m,n)` without reallocating when its buffer already has capacity.
    ///
    /// Every output element accumulates its `k` products in the fixed
    /// 8-lane fold order (see [`KLANES`]), so results are bit-identical
    /// across row sharding, panel packing, and path selection — pinned
    /// against a naive lane-fold reference by `tests/kernels.rs`. For
    /// moderate `k` the kernel packs `NR`-wide column panels of `other`
    /// into a cache-aligned per-thread [`Workspace`] arena and runs an
    /// [`MR`]`×`[`NR`] register micro-kernel over them; for large `k` it
    /// streams `other` once per row through an L1-resident lane buffer,
    /// skipping zero activations (bit-neutral, see [`KLANES`]).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({},{}) x ({},{})",
            self.rows, self.cols, other.rows, other.cols
        );
        self.gemm_into(other, Epilogue::Sum, out);
    }

    /// In-place fused dense forward:
    /// `out = act(self · w + bias)` with `bias` broadcast to every row.
    ///
    /// The bias add and activation are applied to each accumulated tile
    /// as the kernel stores it, after the full sum, so `Identity`
    /// activation reproduces `matmul` + `add_row_broadcast` bit-for-bit
    /// and `Relu` reproduces a subsequent ReLU layer bit-for-bit — with no
    /// second pass over the output and zero intermediate buffers.
    pub fn matmul_bias_act_into(&self, w: &Tensor, bias: &Tensor, act: Act, out: &mut Tensor) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "bias width mismatch");
        assert_eq!(self.cols, w.rows, "matmul shape mismatch");
        self.gemm_into(w, Epilogue::BiasAct(&bias.data, act), out);
    }

    /// `out = epi(self · other)`, row-sharded across the current pool.
    fn gemm_into(&self, other: &Tensor, epi: Epilogue, out: &mut Tensor) {
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.resize_shape(m, n);
        let (a, b) = (&self.data, &other.data);
        par_rows(&mut out.data, m, n, m * k * n, |rows, o| {
            let a = &a[rows.start * k..rows.end * k];
            gemm_rows(rows.len(), k, n, a, b, epi, o)
        });
    }

    /// `selfᵀ · other` without materializing the transpose.
    /// Shapes `(k,m)ᵀ·(k,n) → (m,n)`.
    pub fn tmatmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.tmatmul_into(other, &mut out);
        out
    }

    /// In-place `out = selfᵀ · other`, reshaping `out` without
    /// reallocating when possible.
    ///
    /// Tiled into [`MR`]`×`[`NR`] register blocks like
    /// [`Tensor::matmul_into`]; because the left operand is stored
    /// `(k × m)`, the `MR` `x` values each `k` step needs are one
    /// contiguous load. Accumulation follows the fixed 8-lane fold order
    /// (see [`KLANES`]), matching the other kernels bit-for-bit.
    pub fn tmatmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "tmatmul shape mismatch: ({},{})T x ({},{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        out.resize_shape(m, n);
        let (a, b) = (&self.data, &other.data);
        par_rows(&mut out.data, m, n, m * k * n, |rows, o| {
            tmatmul_rows(rows, k, m, n, a, b, o)
        });
    }

    /// `self · otherᵀ` without materializing the transpose.
    /// Shapes `(m,k)·(n,k)ᵀ → (m,n)`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// In-place `out = self · otherᵀ`, reshaping `out` without
    /// reallocating when possible.
    ///
    /// Both operands are contiguous along `k`, so each dot runs all
    /// eight lanes as one vector accumulator, blocked four `other` rows
    /// at a time to reuse the streamed `self` row. Accumulation follows
    /// the fixed 8-lane fold order (see [`KLANES`]), bit-identical to
    /// staging `otherᵀ` and calling [`Tensor::matmul_into`].
    pub fn matmul_t_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t shape mismatch: ({},{}) x ({},{})T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        out.resize_shape(m, n);
        let (a, b) = (&self.data, &other.data);
        par_rows(&mut out.data, m, n, m * k * n, |rows, o| {
            matmul_t_rows(rows, k, n, a, b, o)
        });
    }

    /// Reshape to `(rows, cols)`, reusing the existing buffer whenever its
    /// capacity suffices. Element values are unspecified afterwards —
    /// callers are expected to overwrite them (all `_into` kernels do).
    pub fn resize_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrite every element with a constant.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Make `self` an exact copy of `other` (shape and contents), reusing
    /// the existing allocation when capacity suffices.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Reset to zero rows of the given width, keeping the allocation so
    /// subsequent [`Tensor::push_row`] calls append without reallocating.
    pub fn reset_rows(&mut self, cols: usize) {
        self.rows = 0;
        self.cols = cols;
        self.data.clear();
    }

    /// Append one row. Panics if the slice width does not match `cols`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Drop the last row, keeping the allocation.
    pub fn pop_row(&mut self) {
        assert!(self.rows > 0, "pop_row on empty tensor");
        self.rows -= 1;
        self.data.truncate(self.rows * self.cols);
    }

    /// Consume `self` into its underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// In-place column sums: `out` becomes a `(1 × cols)` row vector.
    pub fn col_sum_into(&self, out: &mut Tensor) {
        out.resize_shape(1, self.cols);
        out.data.fill(0.0);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &s) in out.data.iter_mut().zip(src) {
                *o += s;
            }
        }
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// In-place transpose into a caller-owned buffer, reshaping it
    /// without reallocating when capacity suffices.
    ///
    /// Pure data movement — `Dense::backward_ws` stages `wᵀ` through a
    /// workspace buffer this way so the input-gradient product can reuse
    /// the packed-panel [`Tensor::matmul_into`] kernel; both kernels
    /// accumulate in the fixed 8-lane fold order (see [`KLANES`]), so
    /// staging the transpose does not change a single output bit.
    pub fn transpose_into(&self, out: &mut Tensor) {
        out.resize_shape(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        // 8×8 tiles: a row-major pass touches one destination cache line
        // per element; tiling keeps 8 destination lines hot while 64
        // elements land in them, which is what makes the transpose run at
        // memory bandwidth instead of cache-miss latency.
        const TB: usize = 8;
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + TB).min(rows);
            let mut c0 = 0;
            while c0 < cols {
                let c1 = (c0 + TB).min(cols);
                for r in r0..r1 {
                    let src = &self.data[r * cols..(r + 1) * cols];
                    for (c, &v) in src.iter().enumerate().take(c1).skip(c0) {
                        out.data[c * rows + r] = v;
                    }
                }
                c0 = c1;
            }
            r0 = r1;
        }
    }

    /// Elementwise sum, in place. Shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise difference `self - other` as a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Elementwise map as a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise (Hadamard) product as a new tensor.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Add a `(1 × cols)` row vector to every row, in place.
    pub fn add_row_broadcast(&mut self, row: &Tensor) {
        assert_eq!(row.rows, 1, "broadcast source must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, &s) in dst.iter_mut().zip(&row.data) {
                *d += s;
            }
        }
    }

    /// Column sums as a `(1 × cols)` row vector.
    pub fn col_sum(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &s) in out.data.iter_mut().zip(src) {
                *o += s;
            }
        }
        out
    }

    /// Sum of all elements, accumulated in `f64`.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Index of the largest element in each row (first on ties).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows).map(|r| argmax(self.row(r))).collect()
    }

    /// True iff every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Minimum multiply-add count (`m·k·n`) before a GEMM kernel is worth
/// dispatching to the thread pool. Below this the serial kernel finishes
/// in a few microseconds and the dispatch hand-off would dominate; it
/// also keeps every small test/hot-loop GEMM off the pool entirely, so
/// `OSA_THREADS` has no effect on workloads that should stay inline.
pub(crate) const PAR_MIN_MADDS: usize = 32 * 1024;

/// Shard the `m` output rows of `out` (row stride `n`) across the current
/// thread pool when `work = m·k·n` clears `PAR_MIN_MADDS` (32 Ki),
/// otherwise run `run(0..m, out)` inline. Each lane receives a contiguous, disjoint row
/// range and its matching sub-slice of `out`, so every output element is
/// computed by exactly one lane with the same ascending-`k` accumulation
/// as the serial kernel — the result is bit-identical for any worker
/// count (pinned by the worker sweep in `tests/kernels.rs`). Public for
/// row-independent kernels outside this crate (the OC-SVM scorer).
pub fn par_rows(
    out: &mut [f32],
    m: usize,
    n: usize,
    work: usize,
    run: impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
) {
    if m >= 2 && n >= 1 && work >= PAR_MIN_MADDS {
        osa_runtime::with_current(|pool| {
            pool.parallel_for_slice(out, n, |_, first, rows| {
                run(first..first + rows.len() / n, rows);
            });
        });
    } else {
        run(0..m, out);
    }
}

thread_local! {
    /// Per-thread arena for packed B panels and nonzero-index scratch.
    /// `matmul_into` has no workspace parameter and pool lanes pack
    /// independently, so the pack buffers live in thread-local storage:
    /// each thread allocates once, then reuses — steady state performs
    /// no heap allocation (covered by the bench `allocs_per_iter` gate).
    static PACK_ARENA: std::cell::RefCell<crate::workspace::Workspace> =
        std::cell::RefCell::new(crate::workspace::Workspace::new());
}

/// Offset into `buf` of the first 64-byte-aligned element, so packed
/// panels start on a cache-line boundary regardless of where the arena's
/// allocation landed.
#[inline]
fn cache_align_offset(buf: &[f32]) -> usize {
    let addr = buf.as_ptr() as usize;
    (addr.next_multiple_of(64) - addr) / std::mem::size_of::<f32>()
}

/// One `KLANES`-product group of a packed `b` panel: `KLANES` rows of
/// `NR` columns, contiguous. Viewing the panel through fixed-size groups
/// lets every index in the micro-kernel be a compile-time constant.
const GROUP: usize = NR * KLANES;

/// The nonzero reduction band of one packed panel: rows `[lo, hi)` of
/// the panel hold every nonzero weight, with `lo` a multiple of
/// [`KLANES`] so that product `p` still lands in lane `p % KLANES`. The
/// micro-kernel reduces over the band only (bit-neutral for finite
/// activations, see [`KLANES`]); an all-zero panel has the empty band.
#[derive(Clone, Copy)]
struct Band {
    lo: usize,
    hi: usize,
}

/// What a GEMM stores for each output element: the raw sum, or the
/// fused dense epilogue `act(sum + bias[j])` — bias added after the
/// whole sum, the order of every fused forward in this crate — applied
/// as each tile is stored instead of in a second pass over the output.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    Sum,
    BiasAct(&'a [f32], Act),
}

impl Epilogue<'_> {
    /// Store the first `dst.len()` of `sums` (output columns from `j`)
    /// into `dst`, matching the activation once per store rather than
    /// once per element.
    #[inline(always)]
    fn store<const W: usize>(self, dst: &mut [f32], sums: &[f32; W], j: usize) {
        let w = dst.len();
        match self {
            Epilogue::Sum => match <&mut [f32; W]>::try_from(&mut *dst) {
                Ok(full) => *full = *sums,
                Err(_) => dst.copy_from_slice(&sums[..w]),
            },
            Epilogue::BiasAct(bias, act) => {
                let bias = &bias[j..j + w];
                match act {
                    Act::Identity => {
                        for ((d, &s), &b) in dst.iter_mut().zip(sums).zip(bias) {
                            *d = s + b;
                        }
                    }
                    Act::Relu => {
                        for ((d, &s), &b) in dst.iter_mut().zip(sums).zip(bias) {
                            *d = relu(s + b);
                        }
                    }
                }
            }
        }
    }
}

/// Floats one packed panel of `w` columns occupies: `k` rows of `NR`
/// (zero-padded past `w`), or the bare `k`-vector for a single column,
/// where a panel would be almost all padding.
#[inline]
fn panel_stride(w: usize) -> usize {
    if w == 1 {
        1
    } else {
        NR
    }
}

/// The one pack routine: copy columns `[j, j + w)` (`w ≤ NR`) of the
/// row-major `(k × n)` matrix `b` into `dst` in the micro-kernel's panel
/// layout (`dst[p·stride + c] = b[p][j + c]`, zero past `w`, stride
/// from [`panel_stride`]).
fn pack_panel(b: &[f32], k: usize, n: usize, j: usize, w: usize, dst: &mut [f32]) {
    // A literal `NR` specializes the full panels' row copies to
    // fixed-width moves; only the edge panel copies variable widths.
    if w == NR {
        pack_rows(b, k, n, j, NR, dst)
    } else {
        pack_rows(b, k, n, j, w, dst)
    }
}

#[inline(always)]
fn pack_rows(b: &[f32], k: usize, n: usize, j: usize, w: usize, dst: &mut [f32]) {
    let stride = panel_stride(w);
    for p in 0..k {
        let d = &mut dst[p * stride..][..stride];
        d[..w].copy_from_slice(&b[p * n + j..][..w]);
        d[w..].fill(0.0);
    }
}

/// The nonzero [`Band`] of a packed panel of `w` columns and `k` rows,
/// its ends scanned inward.
fn panel_band(panel: &[f32], k: usize, w: usize) -> Band {
    let stride = panel_stride(w);
    let nonzero = |p: &usize| panel[p * stride..][..w].iter().any(|&v| v != 0.0);
    match (0..k).find(nonzero) {
        None => Band { lo: 0, hi: 0 },
        Some(first) => Band {
            lo: first / KLANES * KLANES,
            hi: (first..k).rev().find(nonzero).unwrap_or(first) + 1,
        },
    }
}

/// The MR×NR register micro-kernel: `R` rows of `a` against one packed
/// `NR`-wide column panel of `b` (`panel[p*NR + c]` holds `b[p][j + c]`;
/// exactly `k·NR` floats). Callers pass a panel's band: rows and panel
/// both start at the band's first group, which keeps every product in
/// its contract lane.
///
/// The `R × KLANES × NR` running sums live in registers across the whole
/// `k` loop; product `p` lands in lane `p % KLANES` and the lanes reduce
/// through [`fold8`] — the contract order, see [`KLANES`]. Two codegen
/// invariants keep this at SIMD speed: every accumulator index is a
/// compile-time constant after the `l`/`r` unrolls (one variable lane
/// index would spill the whole array to the stack), and panel/row loads
/// go through fixed-size array views converted once per group (one
/// bounds check per group instead of per lane).
#[inline(always)]
fn tile<const R: usize>(ars: [&[f32]; R], k: usize, panel: &[f32]) -> [[f32; NR]; R] {
    let mut acc = [[[0.0f32; NR]; KLANES]; R];
    let groups = k / KLANES;
    for g in 0..groups {
        let bg: &[f32; GROUP] = panel[g * GROUP..][..GROUP].try_into().expect("panel group");
        let ags: [&[f32; KLANES]; R] = std::array::from_fn(|r| {
            ars[r][g * KLANES..][..KLANES]
                .try_into()
                .expect("lane group")
        });
        for l in 0..KLANES {
            let brow: &[f32; NR] = bg[l * NR..][..NR].try_into().expect("NR-wide tile");
            for r in 0..R {
                acc[r][l] = fma_nr(acc[r][l], ags[r][l], brow);
            }
        }
    }
    // Tail: `p` is a multiple of `KLANES` here, so product `p + l` lands
    // in lane `l` — the guarded constant-`l` unroll keeps the
    // accumulator indices compile-time constants.
    let p = groups * KLANES;
    let rem = k - p;
    for l in 0..KLANES {
        if l < rem {
            let brow: &[f32; NR] = panel[(p + l) * NR..][..NR]
                .try_into()
                .expect("NR-wide tile");
            for r in 0..R {
                acc[r][l] = fma_nr(acc[r][l], ars[r][p + l], brow);
            }
        }
    }
    let mut out = [[0.0f32; NR]; R];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        *outr = fold8_wide(accr);
    }
    out
}

/// One lane step of the micro-kernel as a whole-array value operation:
/// `acc + x·b` element-wise. Returning a fresh array (instead of
/// mutating through `iter_mut`) is what lets LLVM's SLP vectorizer treat
/// each lane accumulator as a single SIMD register — the in-place form
/// compiles to scalar adds at ~7× the cost.
#[inline(always)]
fn fma_nr(acc: [f32; NR], x: f32, b: &[f32; NR]) -> [f32; NR] {
    std::array::from_fn(|c| acc[c] + x * b[c])
}

/// Element-wise lane fold for a whole `NR`-wide accumulator block: the
/// [`fold8`] tree applied per column, but as seven vector adds over the
/// lane rows instead of `NR` scalar folds with horizontal extracts.
/// `fold8_wide(acc)[c] == fold8([acc[0][c], …, acc[7][c]])` bit-for-bit
/// because f32 addition is element-wise — same tree, same operands.
#[inline(always)]
fn fold8_wide(l: &[[f32; NR]; KLANES]) -> [f32; NR] {
    fn add(a: &[f32; NR], b: &[f32; NR]) -> [f32; NR] {
        std::array::from_fn(|c| a[c] + b[c])
    }
    add(
        &add(&add(&l[0], &l[1]), &add(&l[2], &l[3])),
        &add(&add(&l[4], &l[5]), &add(&l[6], &l[7])),
    )
}

/// Run one packed panel (output columns `[j, j + w)`, nonzero `band`)
/// over the `m` rows of `a` (row stride `k`), storing through `epi` into
/// `o` (row stride `n`): the micro-kernel two rows at a time with a
/// single-row tail, or a lane-fold dot per row for a single column.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel_rows(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    j: usize,
    w: usize,
    panel: &[f32],
    band: Band,
    epi: Epilogue,
    o: &mut [f32],
) {
    let Band { lo, hi } = band;
    let row = |i: usize| &a[i * k + lo..i * k + hi];
    if w == 1 {
        let col = &panel[lo..hi];
        for i in 0..m {
            epi.store(&mut o[i * n + j..][..1], &[dot_lane8(row(i), col)], j);
        }
        return;
    }
    let panel = &panel[lo * NR..hi * NR];
    let mut i = 0;
    while i + MR <= m {
        let t = tile::<MR>([row(i), row(i + 1)], hi - lo, panel);
        for (r, trow) in t.iter().enumerate() {
            epi.store(&mut o[(i + r) * n + j..][..w], trow, j);
        }
        i += MR;
    }
    while i < m {
        let t = tile::<1>([row(i)], hi - lo, panel);
        epi.store(&mut o[i * n + j..][..w], &t[0], j);
        i += 1;
    }
}

/// GEMM core over one row shard: `o = epi(a[m×k] · b[k×n])`, where `a`
/// and `o` hold exactly the shard's rows. Every output element
/// accumulates in the fixed 8-lane fold order (see [`KLANES`]) on every
/// path below, so path and blocking choices are pure performance tuning:
///
/// - **Packed-panel path**: each `NR`-wide column panel of `b` is packed
///   by [`pack_panel`] into a cache-aligned buffer from the per-thread
///   [`Workspace`](crate::workspace::Workspace) arena, and an
///   [`MR`]`×`[`NR`]`×`[`KLANES`] register micro-kernel streams every
///   row block over the resident panel. Packing is
///   unconditional: the micro-kernel's bounds checks only vanish when
///   the panel layout is exact, which is worth one extra copy of `b`
///   even at one row. Weights that multiply many operands are packed
///   once instead ([`PackedB`]), through the same routine and kernel.
/// - **Streaming path** (`k ≥ `[`STREAM_MIN_K`], where a panel would no
///   longer be cache-resident): per row, `b` streams exactly once in
///   `p`-major order through an L1 lane buffer of [`NB`] columns; rows
///   with zero activations (about half, post-ReLU) are skipped via a
///   branchless nonzero-index compaction — bit-neutral, see [`KLANES`].
/// - **Edge columns** (`n % NR`): two or more of them ride one
///   zero-padded `NR`-wide panel through the same micro-kernel (each
///   output column is an independent SIMD lane, so the padding never
///   touches a kept bit). A single edge column, where the panel would be
///   almost all padding, packs as a bare column and takes a lane-fold
///   dot.
pub(crate) fn gemm_rows(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    epi: Epilogue,
    o: &mut [f32],
) {
    // The streaming path reads all of `b` once *per row*, so it only
    // wins for row counts too small to amortize a packed panel (the
    // batch-1 decision path); batches re-use each packed panel across
    // every row instead. The column floor is one lane group whatever
    // the panel width, so path selection does not follow `NR`.
    if k >= STREAM_MIN_K && n >= KLANES && m < PACK_MIN_ROWS {
        return stream_rows(m, k, n, a, b, epi, o);
    }
    PACK_ARENA.with(|arena| {
        let mut ws = arena.borrow_mut();
        let mut buf = ws.take(1, k * NR + CACHE_LINE_F32S);
        let data = buf.data_mut();
        let off = cache_align_offset(data);
        let panel = &mut data[off..off + k * NR];
        // Per-call operands reduce over every row, so a non-finite
        // activation poisons its whole output row on every path, whatever
        // the panel width or row sharding. Only weights packed once
        // (`PackedB`) skip their zero groups.
        let full = Band { lo: 0, hi: k };
        for j in (0..n).step_by(NR) {
            let w = (n - j).min(NR);
            pack_panel(b, k, n, j, w, panel);
            panel_rows(m, k, n, a, j, w, panel, full, epi, o);
        }
        ws.recycle(buf);
    });
}

/// The streaming (large-`k`) GEMM path: per output row, `b` is read
/// exactly once top to bottom while `KLANES` lane rows of up to [`NB`]
/// columns accumulate in an 8 KiB L1 buffer; the lane rows then reduce
/// with the contract fold tree. Zero activations skip their `b` row
/// entirely — the skip list is built with a branchless compaction so the
/// hot loop runs unpredicted. Bits are identical to the packed-panel
/// path (same lane assignment, same fold — see [`KLANES`]).
fn stream_rows(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], epi: Epilogue, o: &mut [f32]) {
    PACK_ARENA.with(|arena| {
        let mut ws = arena.borrow_mut();
        // Nonzero indices as f32 bit-patterns so the scratch rides the
        // same f32 arena as the pack buffers (u32 -> f32 bit casts are
        // exact in both directions).
        let mut nz_buf = ws.take(1, k);
        let nz_data = nz_buf.data_mut();
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            // Branchless nonzero compaction: the write always happens,
            // the cursor only advances on nonzero — no mispredicted
            // branch per element, unlike `if x != 0 { push }`.
            let mut nnz = 0usize;
            for (p, &x) in arow.iter().enumerate() {
                nz_data[nnz] = f32::from_bits(p as u32);
                nnz += (x != 0.0) as usize;
            }
            let nz = &nz_data[..nnz];
            let orow = &mut o[i * n..(i + 1) * n];
            let mut j0 = 0;
            while j0 < n {
                let nb = (n - j0).min(NB);
                let mut acc = [[0.0f32; NB]; KLANES];
                for &pv in nz {
                    let p = pv.to_bits() as usize;
                    let x = arow[p];
                    let lane = &mut acc[p % KLANES];
                    let brow = &b[p * n + j0..p * n + j0 + nb];
                    for (av, &bv) in lane[..nb].iter_mut().zip(brow) {
                        *av += x * bv;
                    }
                }
                let sums: [f32; NB] =
                    std::array::from_fn(|jj| fold8(std::array::from_fn(|l| acc[l][jj])));
                epi.store(&mut orow[j0..j0 + nb], &sums, j0);
                j0 += nb;
            }
        }
        ws.recycle(nz_buf);
    });
}

/// A right-hand GEMM operand packed once, for weights that multiply
/// many left operands (every replica layer of a
/// [`StackedNet`](crate::stacked::StackedNet)): the panels
/// [`gemm_rows`] would build on every call, built by the same
/// [`pack_panel`] and served by the same micro-kernel, plus each panel's
/// nonzero [`Band`]. For finite activations a product against a
/// `PackedB` is bit-identical to [`Tensor::matmul_into`] against the
/// matrix it packs (see [`KLANES`]).
///
/// Panel `q` covers columns `[q·NR, q·NR + w)` and starts at float
/// `q·k·NR` of a 64-byte-aligned buffer. This is the only copy of the
/// weights: [`PackedB::get`] reads single entries back for consumers of
/// the dense form.
pub(crate) struct PackedB {
    k: usize,
    n: usize,
    buf: Vec<f32>,
    /// Offset of the first cache-line-aligned float of `buf`; a `Vec`'s
    /// heap buffer never moves, so the alignment holds for its lifetime.
    off: usize,
    bands: Vec<Band>,
}

impl PackedB {
    /// Pack `b` (`k × n`): every panel and its nonzero band.
    pub(crate) fn pack(b: &Tensor) -> PackedB {
        let (k, n) = (b.rows, b.cols);
        let panels = n.div_ceil(NR);
        let mut buf = vec![0.0f32; panels * k * NR + CACHE_LINE_F32S];
        let off = cache_align_offset(&buf);
        let bands = (0..panels)
            .map(|q| {
                let (j, dst) = (q * NR, &mut buf[off + q * k * NR..]);
                let w = (n - j).min(NR);
                pack_panel(&b.data, k, n, j, w, dst);
                panel_band(dst, k, w)
            })
            .collect();
        PackedB {
            k,
            n,
            buf,
            off,
            bands,
        }
    }

    /// Entry `(p, j)` of the packed matrix.
    pub(crate) fn get(&self, p: usize, j: usize) -> f32 {
        debug_assert!(p < self.k && j < self.n);
        let q = j / NR;
        let stride = panel_stride((self.n - q * NR).min(NR));
        self.panel(q)[p * stride + j % NR]
    }

    fn panel(&self, q: usize) -> &[f32] {
        &self.buf[self.off + q * self.k * NR..]
    }

    /// `o = epi(a · self)` for the `m` rows of `a` (`m × k`, row-major);
    /// `o` is `m × n`. Always the packed-panel path: the streaming path
    /// exists to skip the pack pass for a few rows, and a `PackedB` has
    /// none to skip.
    pub(crate) fn gemm(&self, m: usize, a: &[f32], epi: Epilogue, o: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        for (q, j) in (0..n).step_by(NR).enumerate() {
            let w = (n - j).min(NR);
            panel_rows(m, k, n, a, j, w, self.panel(q), self.bands[q], epi, o);
        }
    }
}

/// `tmatmul` core over output rows `rows`: `o = a[k×m]ᵀ · b[k×n]` rows
/// `rows`, with `o` holding exactly those rows. The row slice of `aᵀ` is
/// staged contiguously in the arena (one pass over `a`, read row-major),
/// then the shared [`gemm_rows`] kernel runs — one code path, one
/// accumulation order. `k` here is a training batch size, so the staged
/// slice is small relative to the `m·k·n` multiply volume it feeds.
fn tmatmul_rows(
    rows: std::ops::Range<usize>,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    o: &mut [f32],
) {
    let (i0, i1) = (rows.start, rows.end);
    let mrows = i1 - i0;
    // Take the staging buffer, then release the arena borrow before
    // `gemm_rows` takes its own pack buffer from the same arena.
    let mut at_buf = PACK_ARENA.with(|arena| arena.borrow_mut().take(1, mrows * k));
    let at = at_buf.data_mut();
    for p in 0..k {
        let arow = &a[p * m + i0..p * m + i1];
        for (c, &v) in arow.iter().enumerate() {
            at[c * k + p] = v;
        }
    }
    gemm_rows(mrows, k, n, at, b, Epilogue::Sum, o);
    PACK_ARENA.with(|arena| arena.borrow_mut().recycle(at_buf));
}

/// Output-column block of the `matmul_t` kernel: rows of `b` dotted
/// against one streamed row of `a` per sweep, reusing each loaded `a`
/// lane group `JT` times.
const JT: usize = 4;

/// One lane-fold dot of two contiguous `k`-vectors — all eight lanes run
/// as one vector accumulator over `KLANES`-element groups. Contract
/// order (see [`KLANES`]).
#[inline(always)]
pub(crate) fn dot_lane8(arow: &[f32], brow: &[f32]) -> f32 {
    let k = arow.len();
    let mut lanes = [0.0f32; KLANES];
    let mut p = 0;
    while p + KLANES <= k {
        let ax: &[f32; KLANES] = arow[p..][..KLANES].try_into().expect("lane group");
        let bx: &[f32; KLANES] = brow[p..][..KLANES].try_into().expect("lane group");
        for (lane, (&av, &bv)) in lanes.iter_mut().zip(ax.iter().zip(bx)) {
            *lane += av * bv;
        }
        p += KLANES;
    }
    let rem = k - p; // tail: lane == l, constant-indexed (see `tile`)
    for l in 0..KLANES {
        if l < rem {
            lanes[l] += arow[p + l] * brow[p + l];
        }
    }
    fold8(lanes)
}

/// `matmul_t` core over output rows `rows`: `o = a[m×k] · b[n×k]ᵀ` rows
/// `rows`, with `o` holding exactly those rows. Both operands are
/// contiguous along `k`, so every dot is a full-width lane-fold dot
/// ([`dot_lane8`]), blocked [`JT`] `b` rows per sweep of the streamed
/// `a` row. Contract lane order (see [`KLANES`]).
fn matmul_t_rows(
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    o: &mut [f32],
) {
    let i0 = rows.start;
    for i in rows {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut o[(i - i0) * n..(i - i0 + 1) * n];
        let mut j = 0;
        while j + JT <= n {
            let mut lanes = [[0.0f32; KLANES]; JT];
            let mut p = 0;
            while p + KLANES <= k {
                let ax: &[f32; KLANES] = arow[p..][..KLANES].try_into().expect("lane group");
                for (r, lr) in lanes.iter_mut().enumerate() {
                    let bx: &[f32; KLANES] = b[(j + r) * k + p..][..KLANES]
                        .try_into()
                        .expect("lane group");
                    for (lane, (&av, &bv)) in lr.iter_mut().zip(ax.iter().zip(bx)) {
                        *lane += av * bv;
                    }
                }
                p += KLANES;
            }
            let rem = k - p; // tail: lane == l, constant-indexed (see `tile`)
            for l in 0..KLANES {
                if l < rem {
                    for (r, lr) in lanes.iter_mut().enumerate() {
                        lr[l] += arow[p + l] * b[(j + r) * k + p + l];
                    }
                }
            }
            for (r, lr) in lanes.iter().enumerate() {
                orow[j + r] = fold8(*lr);
            }
            j += JT;
        }
        while j < n {
            orow[j] = dot_lane8(arow, &b[j * k..(j + 1) * k]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Tensor;

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let id = Tensor::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn tmatmul_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Tensor::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0], vec![-3.0, 0.0]]);
        assert_eq!(a.tmatmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn broadcast_and_col_sum() {
        let mut a = Tensor::zeros(3, 2);
        a.add_row_broadcast(&Tensor::vector(vec![1.0, -2.0]));
        assert_eq!(a.col_sum().data(), &[3.0, -6.0]);
    }

    #[test]
    fn argmax_rows_first_on_ties() {
        let a = Tensor::from_rows(&[vec![1.0, 3.0, 2.0], vec![5.0, 5.0, 1.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
