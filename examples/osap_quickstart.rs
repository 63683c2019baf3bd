//! OSAP end-to-end quickstart — the CI smoke test for the safety layer.
//!
//! Builds the paper's §3.1 pipeline from the committed ensemble
//! artifact: fit the U_S one-class SVM on in-distribution throughput
//! windows, guard the 5-replica Pensieve ensemble with U_S and with
//! U_V, calibrate (α, l) on the validation split, then deploy on one
//! in-distribution Norway session (must stay quiet) and one Belgium 4G
//! session (distribution shift — both signals must trip, and the
//! decision-aware U_V at least as early as the input-side U_S). Every
//! run is the fleet serving engine, one session per trace.
//! The whole run executes twice and must produce identical transcripts
//! — the safety layer is bit-deterministic at any `OSA_THREADS`.
//!
//! ```sh
//! cargo run --release --example osap_quickstart
//! ```

use osa::abr::prelude::*;
use osa::core::prelude::*;
use osa::trace::prelude::*;
use osa_bench::osap::fit_svm;

/// Corpus contract shared with `examples/osap_ensemble_train.rs`.
const CORPUS_COUNT: usize = 60;
const CORPUS_LEN: usize = 400;
const CORPUS_SEED: u64 = 2020;

fn trip_report(name: &str, quiet: Option<usize>, shifted: Option<usize>) -> String {
    let fmt = |s: Option<usize>| match s {
        Some(i) => format!("switched at decision {i}"),
        None => "never switched".to_string(),
    };
    format!(
        "{name}: in-distribution {}, Belgium {}",
        fmt(quiet),
        fmt(shifted)
    )
}

fn run_once() -> Vec<String> {
    let split = Split::generate(Dataset::Norway, CORPUS_COUNT, CORPUS_LEN, CORPUS_SEED);
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/artifacts/pensieve_ensemble_norway.json"
    ))
    .expect("run `cargo run --release --example osap_ensemble_train` first");
    let ens = PensieveEnsemble::from_json(&text).expect("valid ensemble artifact");
    let mut lines = Vec::new();

    // U_S one-class SVM, fitted on throughput windows harvested from
    // in-distribution sessions driven by the ensemble-mean policy.
    let svm = fit_svm(&ens, &video, &cfg, &split.train);
    let diag = svm.diag().expect("fitted");
    lines.push(format!(
        "U_S one-class SVM: {} support vectors ({} bounded), KKT gap {:.3e}",
        diag.support_vectors, diag.bounded_svs, diag.kkt_gap
    ));

    let u_s = FleetSignal::Novelty(svm);
    let u_v = FleetSignal::ValueDisagreement;
    let (mut serve_s, mut serve_v) = (ServeConfig::default(), ServeConfig::default());
    let val = &split.validation;
    let cal_s = calibrate_guard(&ens, &u_s, &mut serve_s, &video, &cfg, val, DEFAULT_MARGIN);
    let cal_v = calibrate_guard(&ens, &u_v, &mut serve_v, &video, &cfg, val, DEFAULT_MARGIN);
    lines.push(format!(
        "calibrated: U_S alpha {:.4e}, U_V alpha {:.4e} (k {}, l {}, margin {DEFAULT_MARGIN})",
        cal_s.alpha, cal_v.alpha, cal_s.k, cal_s.l
    ));

    // Deployment: a held-out Norway session (in-distribution) and a
    // Belgium 4G session (the paper's distribution-shift scenario).
    let deploy = [
        split.test[0].clone(),
        Dataset::Belgium
            .generate(1, CORPUS_LEN, 77)
            .pop()
            .expect("one Belgium trace"),
    ];
    let trips = |signal: &FleetSignal, serve: &ServeConfig| -> Vec<Option<usize>> {
        evaluate(&ens, signal, serve, &video, &cfg, &deploy, false)
            .iter()
            .map(|run| run.first_trip)
            .collect()
    };
    let (s_trips, v_trips) = (trips(&u_s, &serve_s), trips(&u_v, &serve_v));
    let (s_quiet, s_shift) = (s_trips[0], s_trips[1]);
    let (v_quiet, v_shift) = (v_trips[0], v_trips[1]);
    lines.push(trip_report("U_S", s_quiet, s_shift));
    lines.push(trip_report("U_V", v_quiet, v_shift));

    assert_eq!(s_quiet, None, "U_S must stay quiet in distribution");
    assert_eq!(v_quiet, None, "U_V must stay quiet in distribution");
    let s_at = s_shift.expect("U_S must trip on the Belgium shift");
    let v_at = v_shift.expect("U_V must trip on the Belgium shift");
    assert!(
        v_at <= s_at,
        "decision-aware U_V ({v_at}) must trip at least as early as input-side U_S ({s_at})"
    );
    lines
}

fn main() {
    let start = std::time::Instant::now();
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "quickstart must be bit-deterministic");
    for line in &first {
        println!("{line}");
    }
    println!("two runs identical ({:.2?})", start.elapsed());
}
