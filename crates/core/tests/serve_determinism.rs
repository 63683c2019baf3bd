//! The serving engine's contracts, pinned end to end:
//!
//! 1. **Pool invariance.** Fleet telemetry and per-session monitor
//!    state are bit-identical at any worker count, for every signal arm,
//!    including uneven session counts that split ragged across lanes and
//!    shard sizes that force sub-batching inside a lane.
//! 2. **Hysteresis.** The reverse-switching state machine keeps its
//!    invariants on random streams.

use osa_abr::prelude::*;
use osa_core::prelude::*;
use osa_core::serve::FleetMonitors;
use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;
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

fn load_ensemble(text: &str) -> PensieveEnsemble {
    PensieveEnsemble::from_json(text).expect("artifact parses")
}

/// A trace mix with both in-distribution and shifted links, so some
/// sessions trip and some stay quiet.
fn mixed_traces() -> Vec<Trace> {
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let mut traces: Vec<Trace> = split.test[..5].to_vec();
    traces.extend(Dataset::Belgium.generate(3, 400, 77));
    traces
}

fn fitted_svm() -> OcSvm {
    let mut rng = Rng::seed_from_u64(41);
    let rates: Vec<f32> = (0..160).map(|_| 1.0 + rng.next_f32() * 3.0).collect();
    let windows = window_features(&rates);
    let mut x = Tensor::zeros(windows.len(), FEATURE_DIM);
    for (i, w) in windows.iter().enumerate() {
        x.row_mut(i).copy_from_slice(w);
    }
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(&x);
    svm
}

/// Calibrate `signal` once on in-distribution traces — the α a fleet
/// guarded by it deploys, like production would.
fn calibrated_alpha(signal: &FleetSignal, text: &str, video: &VideoModel, cfg: &AbrConfig) -> f32 {
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let mut serve = ServeConfig::default();
    calibrate_guard(
        &load_ensemble(text),
        signal,
        &mut serve,
        video,
        cfg,
        &split.validation[..4],
        DEFAULT_MARGIN,
    )
    .alpha
}

#[test]
fn fleet_telemetry_is_pool_invariant() {
    let text = artifact_text();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    // U_S margins live on their own scale; a small fixed α trips on the
    // shifted links.
    for (signal, alpha) in [
        (FleetSignal::PolicyDisagreement, None),
        (FleetSignal::ValueDisagreement, None),
        (FleetSignal::Novelty(fitted_svm()), Some(0.05)),
    ] {
        let alpha = alpha.unwrap_or_else(|| calibrated_alpha(&signal, &text, &video, &cfg));
        let switched = assert_pool_invariant(&signal, alpha, &text, &video, &cfg);
        // U_π detects nothing at this replica scale (EXPERIMENTS.md);
        // the other two must trip on the shifted links.
        if !matches!(signal, FleetSignal::PolicyDisagreement) {
            assert!(switched > 0, "the shifted links must trip some sessions");
        }
    }
}

/// Serve the mixed fleet at every pool width and demand the first
/// width's bits back; returns how many sessions switched.
fn assert_pool_invariant(
    signal: &FleetSignal,
    alpha: f32,
    text: &str,
    video: &VideoModel,
    cfg: &AbrConfig,
) -> u64 {
    let traces = mixed_traces();
    // 37 sessions: prime, so every pool width splits the fleet unevenly
    // across lanes; shard 16 forces sub-batching inside lanes too.
    let n = 37;
    let rounds = 60;
    let serve = ServeConfig {
        alpha,
        reverse: Some(ReverseConfig::new(2, 4)),
        shard: 16,
        auto_reset: true,
        ..ServeConfig::default()
    };

    let mut reference: Option<(usize, Vec<u64>)> = None;
    for width in POOL_WIDTHS {
        let pool = ThreadPool::new(width);
        let bits = with_pool(&pool, || {
            let mut fleet = FleetEngine::new(
                load_ensemble(text),
                signal.clone(),
                video.clone(),
                cfg.clone(),
                traces.clone(),
                n,
                &serve,
            );
            fleet.run(rounds);
            let t = fleet.telemetry();
            let mut bits: Vec<u64> = vec![
                t.sessions as u64,
                t.rounds,
                t.decisions,
                t.mean_qoe_per_chunk.to_bits(),
                t.mean_rebuffer_s.to_bits(),
                t.qoe_p10.to_bits(),
                t.qoe_p50.to_bits(),
                t.qoe_p90.to_bits(),
                t.switched_sessions as u64,
                t.recovered_sessions as u64,
                t.locked_sessions as u64,
                t.total_switches,
                t.total_recoveries,
                t.mean_first_switch.to_bits(),
            ];
            for i in 0..n {
                bits.push(fleet.sim().qoe_total(i).to_bits());
                bits.push(fleet.monitors().variance(i).to_bits() as u64);
                bits.push(fleet.monitors().switches(i) as u64);
                bits.push(fleet.monitors().recoveries(i) as u64);
                bits.push(fleet.monitors().last_trip(i).map_or(u64::MAX, |v| v as u64));
                bits.push(
                    fleet
                        .monitors()
                        .last_recovery(i)
                        .map_or(u64::MAX, |v| v as u64),
                );
                bits.push(fleet.monitors().locked(i) as u64);
            }
            bits
        });
        match &reference {
            None => reference = Some((width, bits)),
            Some((w0, want)) => {
                assert_eq!(
                    &bits, want,
                    "serve telemetry: pool width {width} diverged from width {w0}"
                );
            }
        }
    }
    reference.expect("ran").1[8]
}

#[test]
fn fleet_monitor_hysteresis_properties_hold_on_random_streams() {
    // Drive SoA monitors with pseudo-random variance streams and check
    // the reverse-switching invariants the paper's hysteresis needs:
    // no recovery within m windows of a trip, every recovery is
    // preceded by a trip, a re-trip is a counted second switch, and a
    // locked session never recovers again.
    let m = 3usize;
    let guard = 5usize;
    let cfg = ServeConfig {
        k: 4,
        alpha: 0.3,
        l: 2,
        reverse: Some(ReverseConfig::new(m, guard)),
        ..ServeConfig::default()
    };
    let sessions = 24usize;
    let mut mon = FleetMonitors::new(sessions, &cfg);
    let mut rng = Rng::seed_from_u64(2026);
    let mut was_tripped = vec![false; sessions];
    let mut last_trip = vec![None::<usize>; sessions];
    let mut observed_switches = vec![0usize; sessions];
    let mut observed_recoveries = vec![0usize; sessions];

    for step in 0..600 {
        for i in 0..sessions {
            // Bursty stream: mostly quiet, occasional loud stretches.
            let loud = rng.next_f32() < 0.18;
            let raw = if loud {
                2.0 + rng.next_f32() * 3.0
            } else {
                0.1 * rng.next_f32()
            };
            let locked_before = mon.locked(i);
            let tripped = if mon.observing(i) {
                mon.update(i, raw)
            } else {
                mon.tripped(i)
            };
            if tripped && !was_tripped[i] {
                observed_switches[i] += 1;
                last_trip[i] = Some(step);
            }
            if !tripped && was_tripped[i] {
                observed_recoveries[i] += 1;
                let t = last_trip[i].expect("recovery implies a prior trip");
                assert!(
                    step - t >= m,
                    "session {i} recovered {} steps after its trip (< m = {m})",
                    step - t
                );
            }
            if locked_before {
                assert!(tripped, "session {i} recovered after locking");
            }
            was_tripped[i] = tripped;
        }
    }

    let mut total_switches = 0usize;
    let mut total_recoveries = 0usize;
    for i in 0..sessions {
        assert_eq!(mon.switches(i), observed_switches[i], "session {i}");
        assert_eq!(mon.recoveries(i), observed_recoveries[i], "session {i}");
        total_switches += mon.switches(i);
        total_recoveries += mon.recoveries(i);
    }
    // The bursty streams must actually exercise the machine.
    assert!(total_switches > sessions, "streams too quiet to test trips");
    assert!(total_recoveries > 0, "streams never recovered");
}
