//! Evaluating a guard on the serving engine, and the normalized
//! scoring (0 = Random, 1 = Buffer-Based, §3.3) every figure binary
//! shares.
//!
//! [`evaluate`] serves a test set as one [`FleetEngine`] with one
//! session per trace and `auto_reset` off: each trace streams one video
//! from trace time 0, the same protocol as `osa_abr::evaluate_policy`.
//! Calibration, the figures and the examples all measure the code that
//! serves fleets.

use osa_abr::eval::evaluate_policy;
use osa_abr::policy::{BufferBased, RandomPolicy};
use osa_abr::sim::{AbrConfig, SessionCursor};
use osa_abr::video::VideoModel;
use osa_abr::{HISTORY_LEN, OBS_DIM};
use osa_nn::tensor::Tensor;
use osa_trace::{link, Trace};

use crate::ensemble::PensieveEnsemble;
use crate::serve::{FleetEngine, FleetSignal, ServeConfig};

/// What one trace's session produced under a guard.
#[derive(Clone, Debug, Default)]
pub struct SessionOutcome {
    /// Sum of per-chunk linear QoE.
    pub qoe: f64,
    pub rebuffer_s: f64,
    pub chunks: u64,
    /// Decision index at which the session *first* switched to the
    /// fallback.
    pub first_trip: Option<usize>,
    /// Learned→fallback switches (> 1 only with reverse switching).
    pub switches: usize,
    /// Per-decision series, recorded only on request. `raw` is the
    /// value the monitor consumed ([`FleetEngine::raw`]: frozen while a
    /// sticky fallback is not observing), `variance` the k-window
    /// variance after it, and `tput_mbps` the newest throughput sample
    /// the observation carried — the U_S feature pipeline's input.
    pub raw: Vec<f32>,
    pub variance: Vec<f32>,
    pub tput_mbps: Vec<f32>,
}

/// Serve one session per trace of `traces` under `signal` and `serve`'s
/// monitor settings (its `auto_reset` is ignored), run to completion on
/// the current `osa-runtime` pool. `series` records the per-decision
/// series of each [`SessionOutcome`]. The engine shares `ens`'s stacked
/// nets; results are bit-identical at any worker count.
pub fn evaluate(
    ens: &PensieveEnsemble,
    signal: &FleetSignal,
    serve: &ServeConfig,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    series: bool,
) -> Vec<SessionOutcome> {
    assert!(!traces.is_empty(), "evaluation needs traces");
    let n = traces.len();
    let serve = ServeConfig {
        auto_reset: false,
        ..serve.clone()
    };
    let mut engine = FleetEngine::sharing(
        ens,
        signal.clone(),
        video.clone(),
        cfg.clone(),
        traces.to_vec(),
        n,
        &serve,
    );
    let mut out = vec![SessionOutcome::default(); n];
    let mut obs = Tensor::zeros(n, OBS_DIM);
    let mut active = vec![false; n];
    loop {
        if series {
            engine.sim().fill_observations(&mut obs);
            for (i, o) in out.iter_mut().enumerate() {
                active[i] = engine.sim().active(i);
                if active[i] {
                    o.tput_mbps.push(obs.get(i, HISTORY_LEN - 1) * 10.0);
                }
            }
        }
        let more = engine.round();
        if series {
            for (i, o) in out.iter_mut().enumerate() {
                if active[i] {
                    o.raw.push(engine.raw(i));
                    o.variance.push(engine.monitors().variance(i));
                }
            }
        }
        if !more {
            break;
        }
    }
    for (i, o) in out.iter_mut().enumerate() {
        o.qoe = engine.sim().qoe_total(i);
        o.rebuffer_s = engine.sim().rebuffer_total(i);
        o.chunks = engine.sim().chunks_total(i);
        o.first_trip = engine.monitors().tripped_at(i);
        o.switches = engine.monitors().switches(i);
    }
    out
}

/// Aggregate of a guard over a trace set (one session per trace).
#[derive(Clone, Debug)]
pub struct Summary {
    /// Mean linear QoE per chunk — comparable to
    /// `osa_abr::PolicyScore::mean_qoe`.
    pub mean_qoe: f64,
    pub mean_rebuffer_s: f64,
    /// Sessions that switched to the fallback.
    pub switched_sessions: usize,
    /// Mean first-trip decision index over the switched sessions (NaN
    /// when none switched).
    pub mean_switch_index: f64,
}

/// Sum the sessions in trace order and average.
pub fn summarize(runs: &[SessionOutcome]) -> Summary {
    let (mut qoe, mut rebuf, mut chunks) = (0.0f64, 0.0f64, 0u64);
    let (mut switched, mut switch_sum) = (0usize, 0.0f64);
    for run in runs {
        qoe += run.qoe;
        rebuf += run.rebuffer_s;
        chunks += run.chunks;
        if let Some(i) = run.first_trip {
            switched += 1;
            switch_sum += i as f64;
        }
    }
    Summary {
        mean_qoe: qoe / chunks as f64,
        mean_rebuffer_s: rebuf / runs.len() as f64,
        switched_sessions: switched,
        mean_switch_index: if switched > 0 {
            switch_sum / switched as f64
        } else {
            f64::NAN
        },
    }
}

/// Collect the observation rows the learned policy actually sees while
/// streaming `traces` — the calibration set for the offline int8
/// probe, [`PensieveEnsemble::calibrate_int8`]. Each trace is streamed
/// end to end under the ensemble's own (f32) decisions, so the recorded
/// distribution matches serving, and the first `max_per_trace`
/// observations of each session are kept. Fully deterministic: same
/// ensemble + traces → bit-identical rows, and therefore bit-identical
/// calibrated activation scales.
///
/// Kept for `benchmark/`'s int8 probe until the ROADMAP item 2
/// benchmark PR removes the probe.
pub fn calibration_observations(
    ens: &mut PensieveEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    max_per_trace: usize,
) -> Tensor {
    assert!(!traces.is_empty(), "calibration needs traces");
    assert!(max_per_trace >= 1, "max_per_trace must be >= 1");
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut obs = [0.0f32; OBS_DIM];
    for trace in traces {
        let per = link::bytes_per_period(trace);
        let mut cur = SessionCursor::new();
        let mut kept = 0usize;
        while !cur.done(video) {
            cur.encode_obs(video, &mut obs);
            if kept < max_per_trace {
                rows.push(obs.to_vec());
                kept += 1;
            }
            let level = ens.act(&obs[..]);
            cur.step(video, cfg, trace, per, level);
        }
    }
    Tensor::from_rows(&rows)
}

/// The two QoE anchors of the normalized score.
#[derive(Clone, Copy, Debug)]
pub struct Anchors {
    pub random_qoe: f64,
    pub bb_qoe: f64,
}

/// Evaluate Random and Buffer-Based over `traces` to anchor the
/// normalized scale. Deterministic given `seed` (which only feeds the
/// Random policy).
pub fn anchors(video: &VideoModel, cfg: &AbrConfig, traces: &[Trace], seed: u64) -> Anchors {
    let rnd = evaluate_policy(video, cfg, traces, &mut RandomPolicy, seed);
    let bb = evaluate_policy(video, cfg, traces, &mut BufferBased::default(), seed);
    Anchors {
        random_qoe: rnd.mean_qoe,
        bb_qoe: bb.mean_qoe,
    }
}

/// The §3.3 normalized score: 0 at Random's QoE, 1 at Buffer-Based's.
pub fn normalized(qoe: f64, anchors: &Anchors) -> f64 {
    osa_abr::eval::normalized_score(qoe, anchors.random_qoe, anchors.bb_qoe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_abr::NUM_BITRATES;
    use osa_nn::rng::Rng;
    use osa_pensieve::{PensieveAgent, PensieveConfig};

    fn tiny_ensemble() -> PensieveEnsemble {
        let agents: Vec<PensieveAgent> = (0..5)
            .map(|s| PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(s)))
            .collect();
        PensieveEnsemble::from_agents(&agents).unwrap()
    }

    fn traces() -> Vec<Trace> {
        (0..3)
            .map(|i| {
                let mbps: Vec<f32> = (0..300)
                    .map(|t| 2.5 + 0.8 * ((t as f32 * 0.7 + i as f32).sin()))
                    .collect();
                Trace::new(format!("wavy{i}"), 1.0, mbps)
            })
            .collect()
    }

    /// An α = ∞ guard never switches, so it must reproduce the unguarded
    /// fleet's QoE bit for bit, whatever signal it computes.
    #[test]
    fn quiet_safe_agent_reproduces_its_policy_exactly() {
        let ens = tiny_ensemble();
        let (video, cfg) = (VideoModel::envivio(), AbrConfig::default());
        let serve = ServeConfig::default();
        let run =
            |signal: FleetSignal| evaluate(&ens, &signal, &serve, &video, &cfg, &traces(), true);
        let unguarded = run(FleetSignal::Null);
        for signal in [
            FleetSignal::PolicyDisagreement,
            FleetSignal::ValueDisagreement,
        ] {
            for (got, want) in run(signal).iter().zip(&unguarded) {
                assert_eq!(got.qoe.to_bits(), want.qoe.to_bits());
                assert_eq!(got.rebuffer_s.to_bits(), want.rebuffer_s.to_bits());
                assert_eq!(got.first_trip, None);
                assert_eq!(got.raw.len(), got.chunks as usize);
                assert!(got.raw.iter().any(|&v| v > 0.0), "the signal is computed");
            }
        }
        assert!(unguarded[0].raw.iter().all(|&v| v == 0.0));
    }

    /// The trip decision itself acts through the fallback, and a sticky
    /// guard stays switched: the raw value freezes at the trip while
    /// the session keeps streaming on Buffer-Based.
    #[test]
    fn switches_on_the_trip_decision_and_stays_switched() {
        let mut ens = tiny_ensemble();
        let (video, cfg) = (VideoModel::envivio(), AbrConfig::default());
        let trace = &traces()[..1];
        // k = 2, α = 0, l = 1: the first full window, decision 1, trips.
        let serve = ServeConfig {
            k: 2,
            alpha: 0.0,
            l: 1,
            ..ServeConfig::default()
        };
        let signal = FleetSignal::ValueDisagreement;
        let run = evaluate(&ens, &signal, &serve, &video, &cfg, trace, true).remove(0);
        assert_eq!((run.first_trip, run.switches), (Some(1), 1));
        let frozen = |v: &[f32]| v[2..].iter().all(|x| x.to_bits() == v[1].to_bits());
        assert!(frozen(&run.raw) && frozen(&run.variance));
        assert_ne!(run.raw[0].to_bits(), run.raw[1].to_bits());

        // Reference stream: the learned action at decision 0, Buffer-Based
        // from the trip decision on.
        let bb = BufferBased::default();
        let per = link::bytes_per_period(&trace[0]);
        let mut cur = SessionCursor::new();
        let mut obs = [0.0f32; OBS_DIM];
        let (mut qoe, mut j) = (0.0f64, 0);
        while !cur.done(&video) {
            cur.encode_obs(&video, &mut obs);
            let level = if j == 0 {
                ens.act(&obs)
            } else {
                bb.level_for_buffer(obs[2 * HISTORY_LEN + NUM_BITRATES] as f64 * 10.0)
            };
            qoe += cur.step(&video, &cfg, &trace[0], per, level).reward;
            j += 1;
        }
        assert_eq!(run.qoe.to_bits(), qoe.to_bits());
    }

    #[test]
    fn series_cover_every_decision() {
        let ens = tiny_ensemble();
        let (video, cfg) = (VideoModel::envivio(), AbrConfig::default());
        let runs = evaluate(
            &ens,
            &FleetSignal::PolicyDisagreement,
            &ServeConfig::default(),
            &video,
            &cfg,
            &traces(),
            true,
        );
        for run in &runs {
            let n = run.chunks as usize;
            assert_eq!(n, video.chunk_count());
            assert_eq!(
                (run.raw.len(), run.variance.len(), run.tput_mbps.len()),
                (n, n, n)
            );
            // The first observation carries no throughput sample yet.
            assert_eq!(run.tput_mbps[0], 0.0);
            assert!(run.tput_mbps[1..].iter().all(|&v| v > 0.0));
        }
        let quiet = evaluate(
            &ens,
            &FleetSignal::PolicyDisagreement,
            &ServeConfig::default(),
            &video,
            &cfg,
            &traces(),
            false,
        );
        assert!(quiet
            .iter()
            .all(|r| r.raw.is_empty() && r.tput_mbps.is_empty()));
    }

    #[test]
    fn anchors_order_on_steady_links() {
        let video = VideoModel::envivio();
        let cfg = AbrConfig::default();
        let flat = [Trace::new("flat", 1.0, vec![3.0; 300])];
        let a = anchors(&video, &cfg, &flat, 7);
        assert!(a.bb_qoe > a.random_qoe);
        assert_eq!(normalized(a.bb_qoe, &a), 1.0);
        assert_eq!(normalized(a.random_qoe, &a), 0.0);
    }
}
