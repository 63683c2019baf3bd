//! Runtime-cost table (§4 remarks) — the safety layer's price tag.
//!
//! A compact re-measurement shaped as the paper's runtime table:
//! per-decision cost of each guarded signal (a steady-state
//! `FleetEngine` round of 64 sessions, divided by 64), the
//! stacked-vs-sequential ensemble forward, and the offline SMO fit,
//! alongside the structural quantities that explain them (support
//! vector count, replica count). Timings vary run to run — the
//! authoritative tracked baseline is `BENCH_osap.json`; this artifact
//! exists so the figure set is self-contained.
//!
//! Writes `artifacts/figures/table_runtime.json`.

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_bench::{counting_alloc::CountingAlloc, hardware_threads, run_bench};
use osa_core::prelude::*;
use osa_mdp::Policy;
use osa_nn::json::{obj, Value};
use osa_nn::rng::Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DECISIONS_PER_ITER: usize = 64;
const SAMPLES: usize = 40;

fn main() {
    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let mut ens = osap::load_ensemble();
    let svm = osap::fit_svm(&ens, &video, &cfg, &split.train);
    let sv_count = svm.diag().expect("fitted").support_vectors;
    let mut rng = Rng::seed_from_u64(9);
    let bank: Vec<Vec<f32>> = (0..16)
        .map(|_| (0..OBS_DIM).map(|_| rng.next_f32() * 0.5).collect())
        .collect();
    let mut rows = Vec::new();

    for (name, signal) in osap::signals(svm) {
        let serve = ServeConfig {
            auto_reset: true,
            ..ServeConfig::default()
        };
        let mut engine = FleetEngine::new(
            osap::load_ensemble(),
            signal,
            video.clone(),
            cfg.clone(),
            split.test.clone(),
            DECISIONS_PER_ITER,
            &serve,
        );
        let stats = run_bench(&format!("{name}_decision"), SAMPLES, || {
            std::hint::black_box(engine.round());
        });
        rows.push(obj(vec![
            ("item", Value::Str(format!("{name}_per_decision"))),
            (
                "ns",
                Value::Num((stats.median_ns as f64 / DECISIONS_PER_ITER as f64).round()),
            ),
        ]));
    }

    let text = std::fs::read_to_string(osap::ARTIFACT).expect("artifact");
    let mut agents = PensieveEnsemble::agents_from_json(&text).expect("replicas parse");
    let mut i = 0usize;
    let stacked = run_bench("stacked_forward", SAMPLES, || {
        for _ in 0..DECISIONS_PER_ITER {
            ens.policy_eval(&bank[i % bank.len()]);
            std::hint::black_box(ens.mean_probs());
            i += 1;
        }
    });
    let mut probs = Vec::new();
    let mut i = 0usize;
    let sequential = run_bench("sequential_forward", SAMPLES, || {
        for _ in 0..DECISIONS_PER_ITER {
            let obs = &bank[i % bank.len()];
            for agent in agents.iter_mut() {
                agent.actor_critic_mut().action_probs_into(obs, &mut probs);
                std::hint::black_box(&probs);
            }
            i += 1;
        }
    });
    let speedup = sequential.median_ns as f64 / stacked.median_ns as f64;
    rows.push(obj(vec![
        ("item", Value::Str("stacked_forward".into())),
        (
            "ns",
            Value::Num((stacked.median_ns as f64 / DECISIONS_PER_ITER as f64).round()),
        ),
        (
            "speedup_vs_sequential",
            Value::Num((speedup * 100.0).round() / 100.0),
        ),
    ]));
    println!("stacked over sequential: {speedup:.2}x");

    let report = obj(vec![
        ("figure", Value::Str("table_runtime".into())),
        ("hardware_threads", Value::Num(hardware_threads() as f64)),
        (
            "kernel_variant",
            Value::Str(osa_bench::kernel_variant().into()),
        ),
        ("target_cpu", Value::Str(osa_bench::target_cpu().into())),
        ("support_vectors", Value::Num(sv_count as f64)),
        ("replicas", Value::Num(ENSEMBLE_SIZE as f64)),
        ("rows", Value::Arr(rows)),
    ]);
    let path = osap::figure_path("table_runtime.json");
    osa_bench::write_report(&path, report).expect("write figure artifact");
    println!("written to {}", path.display());
}
