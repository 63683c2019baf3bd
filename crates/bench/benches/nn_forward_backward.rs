//! Microbenchmark: forward and forward+backward passes of the
//! Pensieve-shaped actor network (per-feature Conv1d branches merged into a
//! 128-unit dense layer, softmax head over 6 bitrates).
//!
//! The offline build has no `criterion`, so this uses the hand-rolled
//! harness in `osa_bench::run_bench` (`harness = false`): per-iteration
//! wall-clock sampling with warmup, reporting mean / median / p95 plus
//! heap allocations per iteration (the process runs under
//! [`osa_bench::counting_alloc::CountingAlloc`]). Run with
//!
//! ```sh
//! cargo bench -p osa-bench
//! ```
//!
//! which rewrites `BENCH_nn.json` at the repo root — the baseline the
//! `bench_compare` gate measures later PRs against. Sample counts can be
//! scaled with the env var `OSA_BENCH_SAMPLES` (default 200). A
//! `thread_scaling` section re-times the batch-32 pass under explicit
//! `osa_runtime::ThreadPool` widths from 1 up to the effective thread
//! budget (`OSA_THREADS` or the host's parallelism), one entry per
//! `pool_workers` value.
//!
//! The actor exercises the zero-allocation hot path end to end: ReLUs are
//! fused into their producing layers (`with_act`), every intermediate
//! lives in a shared [`Workspace`], and the branch concat/split runs
//! through reusable buffers — so after warmup the steady state performs
//! no heap allocation (visible in the `allocs_per_iter` column).

use osa_abr::OBS_DIM;
use osa_bench::{counting_alloc::CountingAlloc, hardware_threads, run_bench, BenchStats};
use osa_nn::json::{obj, Value};
use osa_nn::prelude::*;
use osa_nn::stacked::StackedNet;
use osa_nn::tensor::Act;
use osa_pensieve::{PensieveAgent, PensieveConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The Pensieve actor: three Conv1d feature branches + a scalar branch,
/// concatenated into a dense merge. `Sequential` is a linear chain, so the
/// branch fan-in is composed explicitly here — exactly how
/// `osa-pensieve` will build it.
struct PensieveActor {
    conv_throughput: Conv1d, // (1 x 8) history -> 128 filters, kernel 4, fused ReLU
    conv_delay: Conv1d,      // (1 x 8) history -> 128 filters, kernel 4, fused ReLU
    conv_sizes: Conv1d,      // (1 x 6) next-chunk sizes -> 128 filters, kernel 4, fused ReLU
    dense_scalars: Dense,    // buffer, chunks-left, last bitrate -> 128, fused ReLU
    merge: Dense,            // concat -> 128, fused ReLU
    head: Dense,             // 128 -> 6 bitrates
    softmax: Softmax,
}

const HIST: usize = 8;
const SIZES: usize = 6;
const SCALARS: usize = 3;
const FILTERS: usize = 128;
const KERNEL: usize = 4;
const MERGE: usize = 128;
const ACTIONS: usize = 6;

impl PensieveActor {
    fn new(rng: &mut Rng) -> Self {
        let conv_throughput =
            Conv1d::new(1, HIST, FILTERS, KERNEL, Init::HeUniform, rng).with_act(Act::Relu);
        let conv_delay =
            Conv1d::new(1, HIST, FILTERS, KERNEL, Init::HeUniform, rng).with_act(Act::Relu);
        let conv_sizes =
            Conv1d::new(1, SIZES, FILTERS, KERNEL, Init::HeUniform, rng).with_act(Act::Relu);
        let dense_scalars = Dense::new(SCALARS, MERGE, Init::HeUniform, rng).with_act(Act::Relu);
        let merge_in =
            conv_throughput.out_dim() + conv_delay.out_dim() + conv_sizes.out_dim() + MERGE;
        PensieveActor {
            conv_throughput,
            conv_delay,
            conv_sizes,
            dense_scalars,
            merge: Dense::new(merge_in, MERGE, Init::HeUniform, rng).with_act(Act::Relu),
            head: Dense::new(MERGE, ACTIONS, Init::XavierUniform, rng),
            softmax: Softmax::new(),
        }
    }

    fn branch_widths(&self) -> [usize; 4] {
        [
            self.conv_throughput.out_dim(),
            self.conv_delay.out_dim(),
            self.conv_sizes.out_dim(),
            MERGE,
        ]
    }

    fn forward_ws(&mut self, state: &PensieveState, ws: &mut Workspace) -> Tensor {
        let a = self.conv_throughput.forward_ws(&state.throughput, ws);
        let b = self.conv_delay.forward_ws(&state.delay, ws);
        let c = self.conv_sizes.forward_ws(&state.sizes, ws);
        let d = self.dense_scalars.forward_ws(&state.scalars, ws);
        let merged = concat_cols(&[&a, &b, &c, &d], ws);
        ws.recycle(a);
        ws.recycle(b);
        ws.recycle(c);
        ws.recycle(d);
        let m = self.merge.forward_ws(&merged, ws);
        ws.recycle(merged);
        let h = self.head.forward_ws(&m, ws);
        ws.recycle(m);
        let probs = self.softmax.forward_ws(&h, ws);
        ws.recycle(h);
        probs
    }

    /// One training-style backward pass: policy-gradient-shaped upstream
    /// gradient through the softmax head and every branch.
    fn backward_ws(&mut self, grad_probs: &Tensor, ws: &mut Workspace) {
        let g = self.softmax.backward_ws(grad_probs, ws);
        let g2 = self.head.backward_ws(&g, ws);
        ws.recycle(g);
        let g3 = self.merge.backward_ws(&g2, ws);
        ws.recycle(g2);
        let widths = self.branch_widths();
        let mut off = 0;
        for (i, &w) in widths.iter().enumerate() {
            let mut part = ws.take(g3.rows(), w);
            for r in 0..g3.rows() {
                part.row_mut(r).copy_from_slice(&g3.row(r)[off..off + w]);
            }
            let gi = match i {
                0 => self.conv_throughput.backward_ws(&part, ws),
                1 => self.conv_delay.backward_ws(&part, ws),
                2 => self.conv_sizes.backward_ws(&part, ws),
                _ => self.dense_scalars.backward_ws(&part, ws),
            };
            ws.recycle(gi);
            ws.recycle(part);
            off += w;
        }
        ws.recycle(g3);
    }

    /// Analytic floating-point operation count of one forward pass at the
    /// given batch size (multiply-adds counted as 2 FLOPs; bias and
    /// activation traffic ignored — they are two orders of magnitude
    /// below the GEMMs).
    fn forward_flops(&self, batch: usize) -> f64 {
        let conv = |out_ch: usize, out_len: usize, in_ch: usize| {
            (batch * out_ch * out_len * in_ch * KERNEL * 2) as f64
        };
        let dense = |k: usize, n: usize| (batch * k * n * 2) as f64;
        conv(FILTERS, self.conv_throughput.out_len(), 1)
            + conv(FILTERS, self.conv_delay.out_len(), 1)
            + conv(FILTERS, self.conv_sizes.out_len(), 1)
            + dense(SCALARS, MERGE)
            + dense(self.branch_widths().iter().sum(), MERGE)
            + dense(MERGE, ACTIONS)
    }
}

struct PensieveState {
    throughput: Tensor,
    delay: Tensor,
    sizes: Tensor,
    scalars: Tensor,
}

impl PensieveState {
    fn random(batch: usize, rng: &mut Rng) -> Self {
        let rand_t = |rows: usize, cols: usize, rng: &mut Rng| {
            let data = (0..rows * cols).map(|_| rng.range_f32(0.0, 1.0)).collect();
            Tensor::from_vec(rows, cols, data)
        };
        PensieveState {
            throughput: rand_t(batch, HIST, rng),
            delay: rand_t(batch, HIST, rng),
            sizes: rand_t(batch, SIZES, rng),
            scalars: rand_t(batch, SCALARS, rng),
        }
    }
}

fn concat_cols(parts: &[&Tensor], ws: &mut Workspace) -> Tensor {
    let rows = parts[0].rows();
    let cols: usize = parts.iter().map(|p| p.cols()).sum();
    let mut out = ws.take(rows, cols);
    for r in 0..rows {
        let orow = out.row_mut(r);
        let mut off = 0;
        for p in parts {
            orow[off..off + p.cols()].copy_from_slice(p.row(r));
            off += p.cols();
        }
    }
    out
}

/// Attach a derived MFLOP/s throughput column to a result entry.
fn with_mflops(stats: &BenchStats, flops: f64) -> Value {
    let mut entry = stats.to_json();
    if let Value::Obj(map) = &mut entry {
        let mflops = flops / (stats.median_ns as f64 * 1e-9) / 1e6;
        map.insert("mflops".into(), Value::Num(mflops.round()));
    }
    entry
}

fn main() {
    let samples: usize = std::env::var("OSA_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let mut rng = Rng::seed_from_u64(42);
    let mut actor = PensieveActor::new(&mut rng);
    let mut ws = Workspace::new();
    println!("pensieve actor: conv branches {FILTERS}x{KERNEL}, merge {MERGE}, {ACTIONS} actions");

    let mut results = Vec::new();

    // Per-decision inference latency: batch of one state, what the online
    // SafeAgent pays on every chunk decision.
    let state1 = PensieveState::random(1, &mut rng);
    let stats = run_bench("actor_forward_batch1", samples, || {
        let probs = actor.forward_ws(&state1, &mut ws);
        std::hint::black_box(&probs);
        ws.recycle(probs);
    });
    results.push(with_mflops(&stats, actor.forward_flops(1)));

    // Training step shape: batch of 32 states, forward + full backward.
    // Backward runs two GEMMs (dW, dX) for every forward GEMM, so the
    // pass costs roughly 3x the forward FLOPs.
    let state32 = PensieveState::random(32, &mut rng);
    let upstream = {
        let data = (0..32 * ACTIONS)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect();
        Tensor::from_vec(32, ACTIONS, data)
    };
    let stats = run_bench("actor_fwd_bwd_batch32", samples, || {
        let probs = actor.forward_ws(&state32, &mut ws);
        std::hint::black_box(&probs);
        ws.recycle(probs);
        actor.backward_ws(&upstream, &mut ws);
    });
    results.push(with_mflops(&stats, 3.0 * actor.forward_flops(32)));

    // Serving shape: the 5-replica paper-scale ensemble actor as one
    // stacked grouped GEMM over a batch of 32 sessions — what a fleet
    // shard pays per round (`core::serve` decides session-major batches
    // through exactly this forward).
    let replicas = 5;
    let agents: Vec<PensieveAgent> = (0..replicas)
        .map(|_| PensieveAgent::new(PensieveConfig::paper(), &mut rng))
        .collect();
    let nets: Vec<_> = agents.iter().map(|a| &a.actor_critic().actor).collect();
    let stacked = StackedNet::from_nets(&nets).expect("paper towers stack");
    let mut sws = Workspace::new();
    let obs32 = {
        let data = (0..32 * OBS_DIM).map(|_| rng.range_f32(0.0, 1.0)).collect();
        Tensor::from_vec(32, OBS_DIM, data)
    };
    let mut stacked_out = Tensor::zeros(0, 0);
    let stats = run_bench("ensemble_forward_batch32", samples, || {
        stacked.forward_into(&obs32, &mut sws, &mut stacked_out);
        std::hint::black_box(&stacked_out);
    });
    // Dense-lowered FLOPs: the conv branches become one block-diagonal
    // (OBS_DIM x merge_in) GEMM per replica in the stacked layout.
    let stacked_flops = {
        let cfg = PensieveConfig::paper();
        let dims = [
            (OBS_DIM, cfg.merge_in()),
            (cfg.merge_in(), cfg.merge),
            (cfg.merge, ACTIONS),
        ];
        let per_row: usize = dims.iter().map(|(k, n)| 2 * k * n).sum();
        (replicas * 32 * per_row) as f64
    };
    results.push(with_mflops(&stats, stacked_flops));

    // The int8 probe (`osa_nn::quant`; not a serving path): the same
    // stacked ensemble quantized — per-output-channel symmetric weights,
    // activation scales calibrated on a held-out batch, i32 accumulate
    // with an f32 dequant epilogue.
    // Steady state must stay allocation-free, same as the f32 path.
    let calib = {
        let data = (0..64 * OBS_DIM).map(|_| rng.range_f32(0.0, 1.0)).collect();
        Tensor::from_vec(64, OBS_DIM, data)
    };
    let qstacked = QuantStacked::from_stacked(&stacked, &calib, &mut sws);
    let mut qscratch = QuantScratch::new();
    let mut qout = Tensor::zeros(0, 0);
    let stats = run_bench("ensemble_forward_batch32_int8", samples, || {
        qstacked.forward_into(&obs32, &mut qscratch, &mut qout);
        std::hint::black_box(&qout);
    });
    results.push(with_mflops(&stats, stacked_flops));

    // Int8 probe at batch 1: the single-replica dense-lowered actor, the
    // f32 `actor_forward_batch1`'s counterpart (int8 ops counted like
    // FLOPs for comparability).
    let single = StackedNet::from_nets(&[&agents[0].actor_critic().actor]).expect("tower stacks");
    let qsingle = QuantStacked::from_stacked(&single, &calib, &mut sws);
    let obs1 = {
        let data = (0..OBS_DIM).map(|_| rng.range_f32(0.0, 1.0)).collect();
        Tensor::from_vec(1, OBS_DIM, data)
    };
    let stats = run_bench("actor_forward_batch1_int8", samples, || {
        qsingle.forward_into(&obs1, &mut qscratch, &mut qout);
        std::hint::black_box(&qout);
    });
    results.push(with_mflops(&stats, stacked_flops / (replicas * 32) as f64));

    // Thread-scaling sweep: the same fwd+bwd workload pinned to explicit
    // pool widths 1..=thread_budget(). Outputs are bit-identical across
    // widths (the osa-runtime contract); only the latency may move. Under
    // `OSA_THREADS=1` — how CI takes baselines — the sweep collapses to
    // the single `pool_workers: 1` entry, so reports stay comparable
    // across hosts with different core counts.
    let mut thread_scaling = Vec::new();
    for w in 1..=osa_runtime::thread_budget() {
        let pool = osa_runtime::ThreadPool::new(w);
        let stats = osa_runtime::with_pool(&pool, || {
            run_bench(&format!("actor_fwd_bwd_batch32_pool{w}"), samples, || {
                let probs = actor.forward_ws(&state32, &mut ws);
                std::hint::black_box(&probs);
                ws.recycle(probs);
                actor.backward_ws(&upstream, &mut ws);
            })
        });
        let mut entry = with_mflops(&stats, 3.0 * actor.forward_flops(32));
        if let Value::Obj(map) = &mut entry {
            map.insert("pool_workers".into(), Value::Num(w as f64));
        }
        thread_scaling.push(entry);
    }

    let report = obj(vec![
        ("bench", Value::Str("nn_forward_backward".into())),
        ("seed", Value::Num(42.0)),
        ("hardware_threads", Value::Num(hardware_threads() as f64)),
        (
            "kernel_variant",
            Value::Str(osa_bench::kernel_variant().into()),
        ),
        ("target_cpu", Value::Str(osa_bench::target_cpu().into())),
        ("results", Value::Arr(results)),
        ("thread_scaling", Value::Arr(thread_scaling)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nn.json");
    osa_bench::write_report(path, report).expect("write BENCH_nn.json");
    println!("baseline written to BENCH_nn.json");
}
