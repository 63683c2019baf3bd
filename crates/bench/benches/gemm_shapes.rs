//! GEMM shape sweep: per-shape medians for the kernels behind every
//! forward/backward in the tree (`matmul_into`, `tmatmul_into`,
//! `matmul_t_into`), at the shapes the Pensieve towers and the fleet
//! engine actually run.
//!
//! Results merge into `BENCH_nn.json` under a `gemm_shapes` key (run
//! `nn_forward_backward` first so the rest of the report is fresh), so
//! the `bench_compare` gate covers kernel regressions shape-by-shape:
//!
//! ```sh
//! cargo bench -p osa-bench --bench nn_forward_backward
//! cargo bench -p osa-bench --bench gemm_shapes
//! ```
//!
//! Shapes: the paper-scale merge layer at batch 1 and 32, the 5-replica
//! stacked layers at serving batches, the committed-artifact widths the
//! fleet engine serves, plus the backward-pass `tmatmul_into` / `matmul_t_into`
//! orientations.

use osa_bench::{counting_alloc::CountingAlloc, hardware_threads, run_bench};
use osa_nn::json::{obj, Value};
use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Which kernel a sweep entry exercises.
#[derive(Clone, Copy)]
enum Kernel {
    /// `a (m×k) · b (k×n)` — every forward pass.
    Matmul,
    /// `aᵀ (k×m)ᵀ · b (k×n)` — the dW orientation in backward passes.
    Tmatmul,
    /// `a (m×k) · b (n×k)ᵀ` — dot-of-rows orientation.
    MatmulT,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::Tmatmul => "tmatmul",
            Kernel::MatmulT => "matmul_t",
        }
    }
}

/// (kernel, m, k, n) — out is always m×n over a length-k reduction.
const SHAPES: &[(Kernel, usize, usize, usize)] = &[
    // Paper-scale merge layer (1792 -> 128) per decision and per batch.
    (Kernel::Matmul, 1, 1792, 128),
    (Kernel::Matmul, 32, 1792, 128),
    // 5-replica stacked serving shapes at batch 32 (160 stacked rows):
    // the block-diagonal branch layer and the merge layer.
    (Kernel::Matmul, 160, 25, 1792),
    (Kernel::Matmul, 160, 1792, 128),
    // Committed-artifact widths (filters 8, merge 32) the fleet serves:
    // batch-1 merge and a 256-session shard through the branch layer.
    (Kernel::Matmul, 1, 136, 32),
    (Kernel::Matmul, 1280, 25, 136),
    // Backward orientations at the training batch.
    (Kernel::Tmatmul, 1792, 32, 128),
    (Kernel::MatmulT, 32, 128, 1792),
];

fn random_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

fn main() {
    let samples: usize = std::env::var("OSA_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let mut rng = Rng::seed_from_u64(7);
    let mut entries = Vec::new();
    println!(
        "{} shapes, {samples} samples, {} hardware thread(s)",
        SHAPES.len(),
        hardware_threads()
    );

    for &(kernel, m, k, n) in SHAPES {
        let (a, b) = match kernel {
            Kernel::Matmul => (random_tensor(m, k, &mut rng), random_tensor(k, n, &mut rng)),
            Kernel::Tmatmul => (random_tensor(k, m, &mut rng), random_tensor(k, n, &mut rng)),
            Kernel::MatmulT => (random_tensor(m, k, &mut rng), random_tensor(n, k, &mut rng)),
        };
        let mut out = Tensor::zeros(m, n);
        let name = format!("{}_{m}x{k}x{n}", kernel.name());
        let stats = run_bench(&name, samples, || {
            match kernel {
                Kernel::Matmul => a.matmul_into(&b, &mut out),
                Kernel::Tmatmul => a.tmatmul_into(&b, &mut out),
                Kernel::MatmulT => a.matmul_t_into(&b, &mut out),
            }
            std::hint::black_box(&out);
        });
        let mflops = (2 * m * k * n) as f64 / (stats.median_ns as f64 * 1e-9) / 1e6;
        let mut entry = stats.to_json();
        if let Value::Obj(map) = &mut entry {
            map.insert("m".into(), Value::Num(m as f64));
            map.insert("k".into(), Value::Num(k as f64));
            map.insert("n".into(), Value::Num(n as f64));
            map.insert("mflops".into(), Value::Num(mflops.round()));
        }
        entries.push(entry);
    }

    // Merge into BENCH_nn.json: the sweep is part of the nn baseline,
    // not a separate report. Start a minimal doc if none exists yet.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nn.json");
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Value::parse(&text).ok())
        .unwrap_or_else(|| {
            obj(vec![
                ("bench", Value::Str("nn_forward_backward".into())),
                ("hardware_threads", Value::Num(hardware_threads() as f64)),
                (
                    "kernel_variant",
                    Value::Str(osa_bench::kernel_variant().into()),
                ),
                ("target_cpu", Value::Str(osa_bench::target_cpu().into())),
            ])
        });
    if let Value::Obj(map) = &mut report {
        map.insert("gemm_shapes".into(), Value::Arr(entries));
        // Stamp the kernel context of *this* run: merging fresh sweep
        // entries into a report taken from different kernels must not
        // leave the old stamp claiming them.
        map.insert(
            "kernel_variant".into(),
            Value::Str(osa_bench::kernel_variant().into()),
        );
        map.insert(
            "target_cpu".into(),
            Value::Str(osa_bench::target_cpu().into()),
        );
    }
    osa_bench::write_report(path, report).expect("write BENCH_nn.json");
    println!("gemm_shapes merged into BENCH_nn.json");
}
