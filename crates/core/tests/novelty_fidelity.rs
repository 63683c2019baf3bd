//! U_S safety behavior on the paper's two headline scenarios, end to
//! end on the serving engine.
//!
//! The batched scoring engine computes OC-SVM scores in its own
//! arithmetic order (distance decomposition + `exp_fast`), so raw score
//! bits are not those of a textbook per-support-vector loop. What must
//! not drift is the safety behavior:
//!
//! - **fig1 scenario (in-distribution Norway):** a calibrated U_S guard
//!   never switches on held-out in-distribution traces — zero spurious
//!   trips tolerated.
//! - **fig2 scenario (shifted Belgium 4G):** the shift trips most
//!   sessions, each within the video.
//!
//! These bounds are quoted in EXPERIMENTS.md — widen only with a
//! documented reason.

use osa_abr::prelude::*;
use osa_core::prelude::*;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;
use osa_trace::prelude::*;

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

fn load_ensemble() -> PensieveEnsemble {
    let text = std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`");
    PensieveEnsemble::from_json(&text).expect("artifact parses")
}

/// Fit the U_S one-class SVM on the throughput the learned policy
/// actually sees on a few training traces — in-distribution by
/// construction.
fn fitted_svm(
    ens: &PensieveEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    train: &[Trace],
) -> OcSvm {
    let serve = ServeConfig::default();
    let runs = evaluate(ens, &FleetSignal::Null, &serve, video, cfg, train, true);
    let rates: Vec<f32> = runs
        .iter()
        .flat_map(|r| r.tput_mbps.iter().copied())
        .collect();
    let windows = window_features(&rates);
    let mut x = Tensor::zeros(windows.len(), FEATURE_DIM);
    for (i, w) in windows.iter().enumerate() {
        x.row_mut(i).copy_from_slice(w);
    }
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(&x).expect("finite training set");
    svm
}

#[test]
fn batched_us_keeps_fig1_quiet_and_fig2_tripping() {
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let ens = load_ensemble();
    let u_s = FleetSignal::Novelty(fitted_svm(&ens, &video, &cfg, &split.train[..4]));

    let mut serve = ServeConfig {
        shard: 3, // smaller than the fleets below: forces sub-batched lanes
        ..ServeConfig::default()
    };
    let val = &split.validation[..3];
    let cal = calibrate_guard(&ens, &u_s, &mut serve, &video, &cfg, val, DEFAULT_MARGIN);
    assert!(cal.alpha.is_finite() && cal.alpha > 0.0);

    // fig1: held-out in-distribution traces must never switch.
    let in_dist = &split.test[..4];
    for (run, t) in evaluate(&ens, &u_s, &serve, &video, &cfg, in_dist, false)
        .iter()
        .zip(in_dist)
    {
        assert_eq!(
            run.first_trip, None,
            "fig1: calibrated U_S guard spuriously switched on {}",
            t.id
        );
    }

    // fig2: the Belgium 4G shift must trip most sessions.
    let shifted = Dataset::Belgium.generate(4, 400, 77);
    let runs = evaluate(&ens, &u_s, &serve, &video, &cfg, &shifted, false);
    let tripped = runs.iter().filter(|r| r.first_trip.is_some()).count();
    assert!(
        tripped >= shifted.len() / 2,
        "fig2: the shift must trip most sessions ({tripped}/{})",
        shifted.len()
    );
}
