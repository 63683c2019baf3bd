//! Pins the committed ensemble artifact
//! (`artifacts/pensieve_ensemble_norway.json`, regenerated by
//! `examples/osap_ensemble_train.rs`).
//!
//! If any of these fail after retraining, the training example or the
//! serialization format drifted — fix the cause or regenerate and
//! re-pin deliberately.

use osa_abr::prelude::*;
use osa_core::prelude::*;
use osa_trace::prelude::*;

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

/// Same corpus contract as `examples/osap_ensemble_train.rs`.
fn corpus() -> Split {
    Split::generate(Dataset::Norway, 60, 400, 2020)
}

fn load() -> PensieveEnsemble {
    let text = std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`");
    PensieveEnsemble::from_json(&text).expect("artifact parses into an ensemble")
}

#[test]
fn artifact_has_five_reduced_scale_replicas() {
    let ens = load();
    assert_eq!(ens.replicas(), ENSEMBLE_SIZE);
    assert_eq!(ens.keep(), ENSEMBLE_KEEP);
    let cfg = ens.config();
    assert_eq!((cfg.filters, cfg.merge), (8, 32));
}

#[test]
fn artifact_round_trips_byte_for_byte() {
    let text = std::fs::read_to_string(ARTIFACT).unwrap();
    let agents = PensieveEnsemble::agents_from_json(&text).unwrap();
    assert_eq!(
        PensieveEnsemble::agents_to_json(&agents).expect("replica docs serialize"),
        text,
        "serialize(parse(artifact)) must reproduce the committed bytes"
    );
}

#[test]
fn ensemble_mean_policy_beats_random_on_test_split() {
    let split = corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let anch = anchors(&video, &cfg, &split.test, 2020);
    let runs = evaluate(
        &load(),
        &FleetSignal::Null,
        &ServeConfig::default(),
        &video,
        &cfg,
        &split.test,
        false,
    );
    let score = summarize(&runs);
    let norm = normalized(score.mean_qoe, &anch);
    // Observed +1.106 at training time; leave slack for deliberate
    // retrains but catch real regressions.
    assert!(
        norm > 0.8,
        "committed ensemble scored {norm:.3} normalized (expected > 0.8)"
    );
    assert_eq!(
        score.switched_sessions, 0,
        "the unguarded fleet never trips"
    );
}

#[test]
fn disagreement_signals_are_finite_and_small_in_distribution() {
    let split = corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = load();
    for (signal, name) in [
        (FleetSignal::PolicyDisagreement, "u_pi"),
        (FleetSignal::ValueDisagreement, "u_v"),
    ] {
        let serve = ServeConfig::default();
        let run = evaluate(&ens, &signal, &serve, &video, &cfg, &split.test[..1], true).remove(0);
        assert!(!run.raw.is_empty());
        for &v in &run.raw {
            assert!(
                v.is_finite() && (0.0..10.0).contains(&v),
                "{name} raw value {v} out of the plausible in-distribution range"
            );
        }
    }
}

/// Fail closed through the nets: a NaN anywhere in an observation must
/// reach every actor logit and critic value of that row, never read as
/// an all-zero hidden layer with a finite (and possibly quiet) U_V. The
/// other rows of the shard are untouched, bit for bit.
#[test]
fn a_nan_observation_column_poisons_every_output_of_its_row() {
    let (actor, critic, _) = load().into_serving_nets();
    let mut rng = osa_nn::rng::Rng::seed_from_u64(17);
    let rows = 5;
    let mut clean = osa_nn::Tensor::zeros(rows, OBS_DIM);
    for v in clean.data_mut() {
        *v = rng.range_f32(0.0, 1.0);
    }
    let mut ws = osa_nn::Workspace::new();
    let forward = |net: &osa_nn::StackedNet, x: &osa_nn::Tensor, ws: &mut osa_nn::Workspace| {
        let mut out = osa_nn::Tensor::zeros(0, 0);
        net.forward_into(x, ws, &mut out);
        out
    };
    let base = [
        forward(&actor, &clean, &mut ws),
        forward(&critic, &clean, &mut ws),
    ];
    let poisoned_row = 2;
    for col in 0..OBS_DIM {
        let mut x = clean.clone();
        x.set(poisoned_row, col, f32::NAN);
        for (net, base, what) in [(&actor, &base[0], "actor"), (&critic, &base[1], "critic")] {
            let out = forward(net, &x, &mut ws);
            for r in 0..ENSEMBLE_SIZE {
                for s in 0..rows {
                    let (got, want) = (out.row(r * rows + s), base.row(r * rows + s));
                    if s == poisoned_row {
                        assert!(
                            got.iter().all(|v| v.is_nan()),
                            "{what}: NaN in column {col} left replica {r} finite: {got:?}"
                        );
                    } else {
                        for (a, b) in got.iter().zip(want) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{what} col {col} replica {r} row {s}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The fleet benchmark's int8 probe, on the chain it runs: calibrate on
/// the observations the f32 policy sees on four validation traces,
/// quantize, and split the nets off the ensemble. Every actor logit and
/// critic value is bit-identical at pools {1, 2, 4, 8} and at any shard
/// size (row by row, against the 65-row shard at pool 1), and tracks
/// the f32 nets within quantization error.
#[test]
fn int8_probe_is_pool_and_shard_invariant_and_tracks_f32() {
    use osa_nn::quant::QuantScratch;
    use osa_nn::{Tensor, Workspace};
    use osa_runtime::{with_pool, ThreadPool};

    let split = corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let mut ens = load();
    let calib = calibration_observations(&mut ens, &video, &cfg, &split.validation[..4], 64);
    ens.calibrate_int8(&calib);
    // Held-out inputs: what the policy sees on two test traces.
    let obs = calibration_observations(&mut ens, &video, &cfg, &split.test[..2], 64);
    let (actor, critic, int8) = ens.into_serving_nets();
    let (qa, qc) = int8.expect("calibrated above");

    const SHARDS: [usize; 4] = [1, 3, 64, 65];
    let widest = SHARDS[SHARDS.len() - 1];
    assert!(obs.rows() >= widest, "{} observation rows", obs.rows());
    let shard =
        |b: usize| Tensor::from_rows(&(0..b).map(|s| obs.row(s).to_vec()).collect::<Vec<_>>());

    let mut ws = Workspace::new();
    let mut scratch = QuantScratch::new();
    let x = shard(widest);
    for (f32_net, q, what) in [(&actor, &qa, "actor"), (&critic, &qc, "critic")] {
        let mut want = Tensor::zeros(0, 0);
        q.forward_into(&x, &mut scratch, &mut want);

        let mut yf = Tensor::zeros(0, 0);
        f32_net.forward_into(&x, &mut ws, &mut yf);
        assert_eq!((want.rows(), want.cols()), (yf.rows(), yf.cols()));
        // Quantization error relative to the output scale, as in
        // `osa_nn::quant`'s unit test, which holds 5 % on a two-layer
        // net. These nets are deeper and the error compounds per layer:
        // the worst case here is 2.4 % (actor) and 5.7 % (critic).
        let scale = yf.data().iter().fold(1.0f32, |m, &v| m.max(v.abs()));
        for (&a, &b) in want.data().iter().zip(yf.data()) {
            assert!(
                (a - b).abs() <= 0.1 * scale,
                "{what}: int8 {a} vs f32 {b} (scale {scale})"
            );
        }

        for width in [1, 2, 4, 8] {
            let pool = ThreadPool::new(width);
            for b in SHARDS {
                let got = with_pool(&pool, || {
                    let mut out = Tensor::zeros(0, 0);
                    q.forward_into(&shard(b), &mut QuantScratch::new(), &mut out);
                    out
                });
                assert_eq!(got.rows(), ENSEMBLE_SIZE * b);
                for r in 0..ENSEMBLE_SIZE {
                    for s in 0..b {
                        let (g, w) = (got.row(r * b + s), want.row(r * widest + s));
                        for (c, (u, v)) in g.iter().zip(w).enumerate() {
                            assert_eq!(
                                u.to_bits(),
                                v.to_bits(),
                                "{what}: pool {width}, shard {b}, replica {r}, row {s}, col {c}"
                            );
                        }
                    }
                }
            }
        }
    }
}
