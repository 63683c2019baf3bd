//! The serving engine's two contracts, pinned end to end:
//!
//! 1. **Fleet ≡ scalar.** A [`FleetEngine`] session must produce the
//!    exact bits of a per-session [`SafeAgent`] on the same trace —
//!    QoE accounting, switch/recovery indices, lifetime counters —
//!    sticky and reverse-switching alike. Both paths share the monitor
//!    and the ensemble reductions, but the fleet runs its own simulator
//!    (`MultiSession`), batched forwards and signal arms
//!    ([`FleetSignal`]); this test is what keeps those from drifting
//!    from the per-stream ones.
//! 2. **Pool invariance.** Fleet telemetry and per-session monitor
//!    state are bit-identical at any worker count, including uneven
//!    session counts that split ragged across lanes and shard sizes
//!    that force sub-batching inside a lane.

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

/// Everything a session pair must agree on, in bits.
#[derive(Debug, PartialEq)]
struct SessionBits {
    qoe: u64,
    rebuffer: u64,
    first_switch: Option<usize>,
    switches: usize,
    recoveries: usize,
    tripped: bool,
    locked: bool,
}

/// Run `traces.len()` fleet sessions (one per trace) to completion and
/// the scalar safe agent over the same traces, and demand bit-equality.
fn assert_fleet_matches_scalar(
    signal_fleet: impl Fn() -> FleetSignal,
    scalar_run: impl Fn(&Trace, f32, Option<ReverseConfig>) -> SessionBits,
    alpha: f32,
    reverse: Option<ReverseConfig>,
) {
    let text = artifact_text();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let traces = mixed_traces();
    let n = traces.len();

    let serve = ServeConfig {
        alpha,
        reverse,
        shard: 3, // smaller than the fleet: forces sub-batched lanes
        ..ServeConfig::default()
    };
    let mut fleet = FleetEngine::new(
        load_ensemble(&text),
        signal_fleet(),
        video.clone(),
        cfg.clone(),
        traces.clone(),
        n,
        &serve,
    );
    while fleet.round() {}

    for (i, trace) in traces.iter().enumerate() {
        let want = scalar_run(trace, alpha, reverse);
        let got = SessionBits {
            qoe: fleet.sim().qoe_total(i).to_bits(),
            rebuffer: fleet.sim().rebuffer_total(i).to_bits(),
            first_switch: fleet.monitors().tripped_at(i),
            switches: fleet.monitors().switches(i),
            recoveries: fleet.monitors().recoveries(i),
            tripped: fleet.monitors().tripped(i),
            locked: fleet.monitors().locked(i),
        };
        assert_eq!(got, want, "fleet session {i} ({}) diverged", trace.id);
    }
}

fn scalar_bits<S: UncertaintySignal>(
    signal: S,
    trace: &Trace,
    alpha: f32,
    reverse: Option<ReverseConfig>,
    video: &VideoModel,
    cfg: &AbrConfig,
    text: &str,
) -> SessionBits {
    let ens = shared(load_ensemble(text));
    let monitor = match reverse {
        Some(r) => Monitor::with_reverse(DEFAULT_K, alpha, DEFAULT_L, r),
        None => Monitor::new(DEFAULT_K, alpha, DEFAULT_L),
    };
    let mut agent = abr_safe_agent(ens, signal, monitor);
    let run = run_session(&mut agent, video, cfg, trace);
    SessionBits {
        qoe: run.qoe.to_bits(),
        rebuffer: run.rebuffer_s.to_bits(),
        first_switch: run.switch_index,
        switches: run.switches,
        recoveries: run.recoveries,
        tripped: agent.tripped(),
        locked: agent.monitor().locked(),
    }
}

/// Calibrate U_V once on in-distribution traces — both implementations
/// then deploy the same α, like production would.
fn calibrated_alpha(text: &str, video: &VideoModel, cfg: &AbrConfig) -> f32 {
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let ens = shared(load_ensemble(text));
    let mut agent = abr_safe_agent(
        ens.clone(),
        ValueDisagreement::new(ens),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    calibrate(
        &mut agent,
        video,
        cfg,
        &split.validation[..4],
        DEFAULT_MARGIN,
    )
    .alpha
}

#[test]
fn fleet_value_disagreement_matches_scalar_sticky() {
    let text = artifact_text();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let alpha = calibrated_alpha(&text, &video, &cfg);
    assert_fleet_matches_scalar(
        || FleetSignal::ValueDisagreement,
        |trace, alpha, reverse| {
            let ens = shared(load_ensemble(&text));
            scalar_bits(
                ValueDisagreement::new(ens),
                trace,
                alpha,
                reverse,
                &video,
                &cfg,
                &text,
            )
        },
        alpha,
        None,
    );
}

#[test]
fn fleet_value_disagreement_matches_scalar_with_reverse_switching() {
    let text = artifact_text();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let alpha = calibrated_alpha(&text, &video, &cfg);
    assert_fleet_matches_scalar(
        || FleetSignal::ValueDisagreement,
        |trace, alpha, reverse| {
            let ens = shared(load_ensemble(&text));
            scalar_bits(
                ValueDisagreement::new(ens),
                trace,
                alpha,
                reverse,
                &video,
                &cfg,
                &text,
            )
        },
        alpha,
        Some(ReverseConfig::new(3, 8)),
    );
}

#[test]
fn fleet_novelty_matches_scalar() {
    let text = artifact_text();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    // U_S margins live on their own scale; a small fixed α that trips on
    // the shifted links exercises the freeze-while-tripped path.
    let alpha = 0.05f32;
    let svm = fitted_svm();
    assert_fleet_matches_scalar(
        || FleetSignal::Novelty(svm.clone()),
        |trace, alpha, reverse| {
            scalar_bits(
                NoveltySignal::new(svm.clone()),
                trace,
                alpha,
                reverse,
                &video,
                &cfg,
                &text,
            )
        },
        alpha,
        None,
    );
}

#[test]
fn fleet_telemetry_is_pool_invariant() {
    let text = artifact_text();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let traces = mixed_traces();
    let alpha = calibrated_alpha(&text, &video, &cfg);

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
                load_ensemble(&text),
                FleetSignal::ValueDisagreement,
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
    let switched = reference.expect("ran").1[8];
    assert!(switched > 0, "the shifted links must trip some sessions");
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
