//! Train the committed 5-replica Pensieve ensemble
//! (`artifacts/pensieve_ensemble_norway.json`).
//!
//! The OSAP U_π/U_V signals read uncertainty off the disagreement of
//! i = 5 agent replicas trained from different seeds (§3.1). This
//! example trains those replicas on the Norway train split (the same
//! corpus contract as `examples/pensieve_train.rs`), reports the
//! ensemble-mean policy against the Random/BB anchors, and writes the
//! replica weights to the artifact the figure binaries and
//! `crates/core/tests/ensemble_artifact.rs` load.
//!
//! The replicas are *reduced-scale* (8 filters / 32 merge units): the
//! safety layer must be cheap — the per-decision stacked forwards of
//! the whole ensemble have to undercut the one-class SVM's support
//! vector loop (see `BENCH_osap.json`).
//!
//! ```sh
//! cargo run --release --example osap_ensemble_train
//! ```
//!
//! Deterministic: a re-run reproduces the artifact byte-for-byte.

use osa::abr::prelude::*;
use osa::core::prelude::*;
use osa::mdp::prelude::A2cConfig;
use osa::nn::prelude::Rng;
use osa::pensieve::{PensieveAgent, PensieveConfig};
use osa::trace::prelude::*;

/// Corpus contract shared with `examples/pensieve_train.rs` and
/// `crates/core/tests/ensemble_artifact.rs`.
const CORPUS_COUNT: usize = 60;
const CORPUS_LEN: usize = 400;
const CORPUS_SEED: u64 = 2020;

/// One seed per ensemble replica (§3.1: i = 5).
const REPLICA_SEEDS: [u64; ENSEMBLE_SIZE] = [101, 102, 103, 104, 105];

/// Replica architecture: reduced further than the single committed
/// Pensieve agent — five of these run every decision.
const FILTERS: usize = 8;
const MERGE: usize = 32;

/// Two-phase schedule (updates, actor_lr, critic_lr, entropy_coef):
/// explore, then sharpen.
const PHASES: [(usize, f32, f32, f32); 2] = [(6000, 0.003, 0.01, 0.05), (3000, 0.001, 0.003, 0.02)];

fn main() {
    let start = std::time::Instant::now();
    let split = Split::generate(Dataset::Norway, CORPUS_COUNT, CORPUS_LEN, CORPUS_SEED);
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    println!(
        "norway corpus: {} train / {} validation / {} test traces",
        split.train.len(),
        split.validation.len(),
        split.test.len()
    );

    let replica_cfg = PensieveConfig {
        filters: FILTERS,
        merge: MERGE,
    };
    let mut agents: Vec<PensieveAgent> = Vec::with_capacity(ENSEMBLE_SIZE);
    for (r, seed) in REPLICA_SEEDS.into_iter().enumerate() {
        let t0 = std::time::Instant::now();
        let mut agent = PensieveAgent::new(replica_cfg, &mut Rng::seed_from_u64(seed));
        // Seed diversity alone leaves small replicas agreeing even far
        // out of distribution (they generalize identically, so U_π goes
        // blind there); bagging fixes that — each replica drops a
        // different quarter of the train traces, so the five extrapolate
        // differently where no shared data pins them down.
        let subset: Vec<Trace> = split
            .train
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + r) % 4 != 0)
            .map(|(_, t)| t.clone())
            .collect();
        let mut recent = 0.0;
        for (i, (updates, actor_lr, critic_lr, entropy_coef)) in PHASES.iter().enumerate() {
            let a2c = A2cConfig {
                gamma: 0.9,
                rollout_len: 48,
                workers: 8,
                updates: *updates,
                actor_lr: *actor_lr,
                critic_lr: *critic_lr,
                entropy_coef: *entropy_coef,
                seed: seed + 1000 * i as u64,
                ..A2cConfig::default()
            };
            recent = agent
                .train_on_traces(&video, &cfg, &subset, &a2c)
                .recent_mean_return(50);
        }
        let val = evaluate_policy(&video, &cfg, &split.validation, &mut agent, seed);
        println!(
            "replica seed {seed}: recent mean return {recent:+.2}, validation QoE {:+.4} \
             ({:.1?})",
            val.mean_qoe,
            t0.elapsed()
        );
        agents.push(agent);
    }

    // Score the ensemble-mean policy (what a guard serves while quiet)
    // on the held-out test split against the anchors.
    let ens = PensieveEnsemble::from_agents(&agents).expect("replicas share one arch");
    let anch = anchors(&video, &cfg, &split.test, CORPUS_SEED);
    let score = summarize(&evaluate(
        &ens,
        &FleetSignal::Null,
        &ServeConfig::default(),
        &video,
        &cfg,
        &split.test,
        false,
    ));
    let norm = normalized(score.mean_qoe, &anch);
    println!("\ntest-split scores:");
    println!("policy              mean QoE   normalized");
    println!("random            {:+9.3}   {:+10.3}", anch.random_qoe, 0.0);
    println!("bb                {:+9.3}   {:+10.3}", anch.bb_qoe, 1.0);
    println!("ensemble-mean     {:+9.3}   {norm:+10.3}", score.mean_qoe);
    assert!(
        norm > 0.5,
        "ensemble-mean policy regressed to {norm:.3} (should land well above Random)"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/artifacts/pensieve_ensemble_norway.json"
    );
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap())
        .expect("create artifacts/");
    let doc = PensieveEnsemble::agents_to_json(&agents).expect("replica docs serialize");
    std::fs::write(path, doc).expect("write artifact");
    println!(
        "\nensemble written to artifacts/pensieve_ensemble_norway.json ({:.2?})",
        start.elapsed()
    );
}
