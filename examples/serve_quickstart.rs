//! Fleet-serving quickstart — the CI smoke test for `osa::core::serve`.
//!
//! Stands up a small multi-tenant fleet from the committed ensemble
//! artifact: 48 concurrent sessions guarded by an anchored, calibrated
//! U_S novelty monitor with reverse switching enabled, streaming a mix
//! of in-distribution Norway links and links with a transient outage
//! (capped at 0.4 Mbit/s for a minute) spliced in. Runs every session
//! to completion and prints the aggregate telemetry: the outage
//! sessions must trip the guard and come home once the link recovers,
//! the in-distribution majority must stay on the learned policy. The
//! whole run executes twice and must produce identical transcripts —
//! fleet serving is bit-deterministic at any `OSA_THREADS`.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use osa::abr::prelude::*;
use osa::core::prelude::*;
use osa::core::serve::FleetEngine;
use osa::trace::prelude::*;
use osa_bench::osap::fit_svm;

/// Corpus contract shared with `examples/osap_ensemble_train.rs`.
const CORPUS_COUNT: usize = 60;
const CORPUS_LEN: usize = 400;
const CORPUS_SEED: u64 = 2020;

const SESSIONS: usize = 48;

fn load_ensemble() -> PensieveEnsemble {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/artifacts/pensieve_ensemble_norway.json"
    ))
    .expect("run `cargo run --release --example osap_ensemble_train` first");
    PensieveEnsemble::from_json(&text).expect("valid ensemble artifact")
}

/// Six held-out Norway links plus two with a transient outage spliced
/// in — enough shift to exercise the trip-and-recover path.
fn fleet_traces(split: &Split) -> Vec<Trace> {
    let mut traces = split.test[..6].to_vec();
    for (i, norway) in split.test[6..8].iter().enumerate() {
        let mut mbps = norway.mbps.clone();
        let end = 70.min(mbps.len());
        for v in &mut mbps[10..end] {
            *v = v.min(0.4);
        }
        traces.push(Trace::new(format!("outage{i}"), norway.interval_s, mbps));
    }
    traces
}

fn run_once() -> Vec<String> {
    let split = Split::generate(Dataset::Norway, CORPUS_COUNT, CORPUS_LEN, CORPUS_SEED);
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = load_ensemble();
    let svm = fit_svm(&ens, &video, &cfg, &split.train);

    // Two-pass calibration: unanchored for the in-distribution score
    // mean μ₀, anchored there for α (see `benches/serve.rs`).
    let signal = FleetSignal::Novelty(svm);
    let val = &split.validation[..4];
    let mut serve = ServeConfig::default();
    let unanchored = calibrate_guard(&ens, &signal, &mut serve, &video, &cfg, val, DEFAULT_MARGIN);
    serve.anchor = Some(unanchored.mu);
    let anchored = calibrate_guard(&ens, &signal, &mut serve, &video, &cfg, val, DEFAULT_MARGIN);

    let mut lines = vec![format!(
        "calibration: U_S alpha {:.4e} anchored at {:.4e}",
        anchored.alpha, unanchored.mu
    )];
    let serve = ServeConfig {
        reverse: Some(ReverseConfig::new(3, 8)),
        shard: 16,
        ..serve
    };
    let mut fleet = FleetEngine::new(
        ens,
        signal,
        video,
        cfg,
        fleet_traces(&split),
        SESSIONS,
        &serve,
    );
    while fleet.round() {}

    let t = fleet.telemetry();
    lines.push(format!(
        "fleet: {} sessions over {} rounds ({} decisions)",
        t.sessions, t.rounds, t.decisions
    ));
    lines.push(format!(
        "QoE: {:.4} mean/chunk; per-session p10 {:.4}, p50 {:.4}, p90 {:.4}",
        t.mean_qoe_per_chunk, t.qoe_p10, t.qoe_p50, t.qoe_p90
    ));
    lines.push(format!(
        "safety: {} switched, {} recovered, {} locked (switch rate {:.3}, recovery rate {:.3})",
        t.switched_sessions,
        t.recovered_sessions,
        t.locked_sessions,
        t.switch_rate,
        t.recovery_rate
    ));

    // The outage sessions trip and come home, the in-distribution
    // majority stays on the learned policy.
    assert!(
        t.switched_sessions >= 2,
        "outage sessions must trip the guard"
    );
    assert!(
        t.recovered_sessions >= 1,
        "reverse switching must recover at least one session"
    );
    assert!(
        t.switched_sessions <= SESSIONS / 2,
        "in-distribution sessions must stay on the learned policy"
    );
    lines
}

fn main() {
    let start = std::time::Instant::now();
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "fleet serving must be bit-deterministic");
    for line in &first {
        println!("{line}");
    }
    // Timing goes to stderr so stdout stays byte-identical across runs.
    eprintln!("two runs identical ({:.2?})", start.elapsed());
}
