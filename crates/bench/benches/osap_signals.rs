//! Microbenchmark: what the safety layer's signals cost.
//!
//! Two questions, one report (`BENCH_osap.json` at the repo root):
//!
//! 1. **SMO train time** — fitting the U_S one-class SVM on the §3.1
//!    feature corpus (~6.3k windows), the offline cost a deployment
//!    pays per calibration — plus **batched U_S scoring**
//!    (`u_s_batched`): a 64-window shard through one
//!    `score_batch_into`, the fleet path's per-decision signal cost —
//!    and its worst case (`u_s_batched_far`), 64 far Belgium windows
//!    whose kernel sums floor.
//! 2. **Batched vs sequential ensemble forward** — the 5-replica
//!    stacked actor forward against five per-replica forwards of the
//!    same weights, pinning the win that makes the ensemble signals
//!    affordable.
//!
//! The per-decision cost of each guarded signal inside a serving round
//! is gated in `benches/serve.rs` (`serve_round_256`,
//! `serve_round_256_upi`, `serve_round_256_us`).
//!
//! ```sh
//! cargo bench -p osa-bench --bench osap_signals
//! ```
//!
//! `OSA_BENCH_SAMPLES` scales sample counts (never the work per timed
//! iteration), so smoke runs stay comparable on the gated medians.

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_bench::{counting_alloc::CountingAlloc, hardware_threads, run_bench};
use osa_core::prelude::*;
use osa_mdp::Policy;
use osa_nn::json::{obj, Value};
use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ensemble forwards timed per iteration (both layouts).
const FORWARDS_PER_ITER: usize = 64;

fn samples() -> usize {
    std::env::var("OSA_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// Plausible observation bank: forward cost is content-independent,
/// but cycling inputs defeats any lazy caching a constant obs would hit.
fn obs_bank(rng: &mut Rng) -> Vec<Vec<f32>> {
    (0..16)
        .map(|_| (0..OBS_DIM).map(|_| rng.next_f32() * 0.5).collect())
        .collect()
}

fn main() {
    let samples = samples();
    let fit_samples = (samples / 20).max(3);
    println!(
        "{FORWARDS_PER_ITER} forwards per iteration, {samples} samples, {} hardware thread(s)",
        hardware_threads()
    );

    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let mut ens = osap::load_ensemble();
    let mut rng = Rng::seed_from_u64(9);
    let bank = obs_bank(&mut rng);
    let mut results = Vec::new();

    // 1. Offline SMO fit on the real §3.1 corpus.
    let x = osap::us_feature_corpus(&ens, &video, &cfg, &split.train);
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(&x).expect("finite training set");
    let sv_count = svm.diag().expect("fitted").support_vectors;
    let mut per_decision = Vec::new();
    let stats = run_bench("ocsvm_fit", fit_samples, || {
        let mut fresh = OcSvm::new(OcSvmConfig::default());
        fresh.fit(&x).expect("finite training set");
        std::hint::black_box(fresh.diag().map(|d| d.support_vectors));
    });
    let mut entry = stats.to_json();
    if let Value::Obj(map) = &mut entry {
        map.insert("windows".into(), Value::Num(x.rows() as f64));
        map.insert("support_vectors".into(), Value::Num(sv_count as f64));
    }
    results.push(entry);

    // 1b. Batched U_S scoring: the fleet path stages a shard's ready
    //    feature windows and scores them in one `score_batch_into`
    //    call. 64 rows matches the fleet benchmark's
    //    decisions-per-iteration.
    const US_BATCH: usize = 64;
    let mut batch = Tensor::zeros(US_BATCH, FEATURE_DIM);
    for i in 0..US_BATCH {
        batch.row_mut(i).copy_from_slice(x.row(i % x.rows()));
    }
    let mut scores = vec![0.0f32; US_BATCH];
    let stats = run_bench("u_s_batched", samples, || {
        svm.score_batch_into(&batch, &mut scores);
        std::hint::black_box(&scores);
    });
    let ns = stats.median_ns as f64 / US_BATCH as f64;
    per_decision.push(("u_s_batched", ns));
    let mut entry = stats.to_json();
    if let Value::Obj(map) = &mut entry {
        map.insert("ns_per_decision".into(), Value::Num(ns.round()));
        map.insert("batch".into(), Value::Num(US_BATCH as f64));
    }
    results.push(entry);

    // 1c. The worst case (`u_s_batched_far`): 64 feature windows slid
    //    over the Belgium shift traces' bandwidth samples, every one with
    //    a kernel sum below the log floor. Scoring costs the same at any distance, so this median
    //    should track `u_s_batched`: a product gone subnormal would cost
    //    a microcode assist per support vector on exactly these windows.
    let mut shifted = Tensor::zeros(0, FEATURE_DIM);
    for (name, t) in osap::ood_scenarios(&split) {
        if name.starts_with("belgium") {
            for w in window_features(&t.mbps) {
                shifted.push_row(&w);
            }
        }
    }
    let mut sums = vec![0.0f32; shifted.rows()];
    svm.kernel_sums_into(&shifted, &mut sums);
    let floored: Vec<usize> = (0..shifted.rows())
        .filter(|&i| sums[i] < osa_ocsvm::detector::LOG_FLOOR)
        .collect();
    assert!(!floored.is_empty(), "no Belgium window floors");
    for i in 0..US_BATCH {
        batch
            .row_mut(i)
            .copy_from_slice(shifted.row(floored[i % floored.len()]));
    }
    let stats = run_bench("u_s_batched_far", samples, || {
        svm.score_batch_into(&batch, &mut scores);
        std::hint::black_box(&scores);
    });
    let ns = stats.median_ns as f64 / US_BATCH as f64;
    per_decision.push(("u_s_batched_far", ns));
    let mut entry = stats.to_json();
    if let Value::Obj(map) = &mut entry {
        map.insert("ns_per_decision".into(), Value::Num(ns.round()));
        map.insert("batch".into(), Value::Num(US_BATCH as f64));
        map.insert("floored_windows".into(), Value::Num(floored.len() as f64));
    }
    results.push(entry);

    // 2. Stacked vs sequential: the same five replicas, one batched
    //    GEMM against five single-replica forwards.
    let text = std::fs::read_to_string(osap::ARTIFACT).expect("artifact");
    let mut agents = PensieveEnsemble::agents_from_json(&text).expect("replicas parse");
    let mut i = 0usize;
    let stacked = run_bench("stacked_forward", samples, || {
        for _ in 0..FORWARDS_PER_ITER {
            ens.policy_eval(&bank[i % bank.len()]);
            std::hint::black_box(ens.mean_probs());
            i += 1;
        }
    });
    let (mut x, mut probs) = (Tensor::zeros(1, OBS_DIM), Tensor::default());
    let mut i = 0usize;
    let sequential = run_bench("sequential_forward", samples, || {
        for _ in 0..FORWARDS_PER_ITER {
            x.row_mut(0).copy_from_slice(&bank[i % bank.len()]);
            for agent in agents.iter_mut() {
                agent.actor_critic_mut().action_probs(&x, &mut probs);
                std::hint::black_box(&probs);
            }
            i += 1;
        }
    });
    let speedup = sequential.median_ns as f64 / stacked.median_ns as f64;
    println!("stacked over sequential: {speedup:.2}x");
    for (stats, label) in [(stacked, "stacked"), (sequential, "sequential")] {
        let mut entry = stats.to_json();
        if let Value::Obj(map) = &mut entry {
            map.insert(
                "forwards_per_iter".into(),
                Value::Num(FORWARDS_PER_ITER as f64),
            );
            if label == "stacked" {
                map.insert(
                    "speedup_vs_sequential".into(),
                    Value::Num((speedup * 100.0).round() / 100.0),
                );
            }
        }
        results.push(entry);
    }

    println!("per-decision: {per_decision:?}");
    let report = obj(vec![
        ("bench", Value::Str("osap_signals".into())),
        ("video", Value::Str("envivio-synthetic".into())),
        ("dataset", Value::Str("norway".into())),
        ("hardware_threads", Value::Num(hardware_threads() as f64)),
        (
            "kernel_variant",
            Value::Str(osa_bench::kernel_variant().into()),
        ),
        ("target_cpu", Value::Str(osa_bench::target_cpu().into())),
        ("results", Value::Arr(results)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_osap.json");
    osa_bench::write_report(path, report).expect("write BENCH_osap.json");
    println!("baseline written to BENCH_osap.json");
}
