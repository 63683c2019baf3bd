//! Bit-identity of the whole safety layer across worker-pool widths.
//!
//! The OSAP contract is that deployment behavior is a pure function of
//! the inputs — never of the thread budget. These tests run the same
//! workloads under pools of 1, 2, 4, and 8 workers (via
//! `osa_runtime::with_pool`, overriding `OSA_THREADS`) and demand the
//! exact bits back every time: ensemble inference (the stacked batched
//! GEMM fans out over the pool), each signal's calibration and raw/
//! variance time series on the serving engine, and its switch decisions.

use osa_abr::prelude::*;
use osa_core::prelude::*;
use osa_runtime::{with_pool, ThreadPool};
use osa_trace::prelude::*;

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn artifact_text() -> String {
    std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`")
}

/// Fresh ensemble per invocation, so no width sees another's warm
/// scratch state.
fn load(text: &str) -> PensieveEnsemble {
    PensieveEnsemble::from_json(text).expect("artifact parses")
}

/// Run `f` under each pool width and assert every width reproduces the
/// first width's bits.
fn assert_pool_invariant<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) {
    let mut reference: Option<(usize, T)> = None;
    for width in POOL_WIDTHS {
        let pool = ThreadPool::new(width);
        let got = with_pool(&pool, &f);
        match &reference {
            None => reference = Some((width, got)),
            Some((w0, want)) => {
                assert_eq!(
                    &got, want,
                    "{label}: pool width {width} diverged from width {w0}"
                );
            }
        }
    }
}

#[test]
fn ensemble_inference_bits_are_pool_invariant() {
    let text = artifact_text();
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    assert_pool_invariant("stacked policy forward + unguarded session", || {
        let mut ens = load(&text);
        let run = evaluate(
            &ens,
            &FleetSignal::Null,
            &ServeConfig::default(),
            &video,
            &cfg,
            &split.test[..1],
            false,
        )
        .remove(0);
        ens.policy_eval(&[0.25f32; osa_abr::OBS_DIM]);
        let bits: Vec<u32> = ens.mean_probs().iter().map(|p| p.to_bits()).collect();
        (run.qoe.to_bits(), run.chunks, bits)
    });
}

#[test]
fn signal_series_and_switches_are_pool_invariant() {
    let text = artifact_text();
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let traces = [
        split.test[0].clone(),
        Dataset::Belgium.generate(1, 400, 77).pop().unwrap(),
    ];

    // U_π and U_V over one in-distribution and one shifted session;
    // calibration runs too, so α itself must be pool-invariant.
    assert_pool_invariant("U_pi/U_V series + switch indices", || {
        type SessionBits = (u32, Vec<u32>, Vec<u32>, Option<usize>);
        let ens = load(&text);
        let mut out: Vec<SessionBits> = Vec::new();
        for signal in [
            FleetSignal::PolicyDisagreement,
            FleetSignal::ValueDisagreement,
        ] {
            let mut serve = ServeConfig::default();
            let val = &split.validation[..4];
            let cal = calibrate_guard(&ens, &signal, &mut serve, &video, &cfg, val, DEFAULT_MARGIN);
            for run in evaluate(&ens, &signal, &serve, &video, &cfg, &traces, true) {
                out.push((
                    cal.alpha.to_bits(),
                    run.raw.iter().map(|v| v.to_bits()).collect(),
                    run.variance.iter().map(|v| v.to_bits()).collect(),
                    run.first_trip,
                ));
            }
        }
        out
    });
}
