//! Policy scoring over a trace set, and the ROADMAP's normalized score
//! (0 = Random, 1 = BB) used in every results table.

use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;

use crate::policy::AbrPolicy;
use crate::sim::{AbrConfig, MultiSession};
use crate::video::VideoModel;
use crate::OBS_DIM;
use osa_trace::Trace;

/// Aggregate result of running one policy once over every trace of a
/// set (one 48-chunk session per trace, started at trace time 0).
#[derive(Clone, Debug)]
pub struct PolicyScore {
    pub name: String,
    /// Mean linear QoE per chunk — the headline number.
    pub mean_qoe: f64,
    /// Mean rebuffering seconds per session.
    pub mean_rebuffer_s: f64,
    /// Mean selected bitrate per chunk, Mbit/s.
    pub mean_bitrate_mbps: f64,
}

/// Stream every trace once under `policy` and aggregate. Deterministic
/// given `seed` (which only feeds stochastic policies — the dynamics
/// consume no RNG).
pub fn evaluate_policy(
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    policy: &mut dyn AbrPolicy,
    seed: u64,
) -> PolicyScore {
    assert!(!traces.is_empty(), "evaluate_policy needs traces");
    let n = traces.len();
    let mut sim = MultiSession::new(video.clone(), cfg.clone(), traces.to_vec(), n, false);
    let mut rng = Rng::seed_from_u64(seed);
    let mut obs = Tensor::zeros(n, OBS_DIM);
    let mut actions = vec![0usize; n];
    while !sim.all_done() {
        sim.fill_observations(&mut obs);
        policy.decide_all(&sim, &obs, &mut actions, &mut rng);
        sim.step_all(&actions);
    }
    let chunks: u64 = (0..n).map(|i| sim.chunks_total(i)).sum();
    let qoe: f64 = (0..n).map(|i| sim.qoe_total(i)).sum();
    let rebuf: f64 = (0..n).map(|i| sim.rebuffer_total(i)).sum();
    let bitrate: f64 = (0..n).map(|i| sim.bitrate_total_mbps(i)).sum();
    PolicyScore {
        name: policy.name().to_string(),
        mean_qoe: qoe / chunks as f64,
        mean_rebuffer_s: rebuf / n as f64,
        mean_bitrate_mbps: bitrate / chunks as f64,
    }
}

/// Map a mean QoE onto the ROADMAP's normalized scale where Random
/// scores 0 and Buffer-Based scores 1:
/// `(qoe − random) / (bb − random)`. Panics if the two anchors
/// coincide (a degenerate trace set).
pub fn normalized_score(qoe: f64, random_qoe: f64, bb_qoe: f64) -> f64 {
    let span = bb_qoe - random_qoe;
    assert!(
        span.abs() > 1e-12,
        "BB and Random anchors coincide ({bb_qoe}); normalization undefined"
    );
    (qoe - random_qoe) / span
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BufferBased, RandomPolicy};

    fn traces() -> Vec<Trace> {
        (0..4)
            .map(|i| Trace::new(format!("t{i}"), 1.0, vec![2.0 + i as f32; 30]))
            .collect()
    }

    #[test]
    fn bb_beats_random_on_steady_links() {
        let video = VideoModel::envivio();
        let cfg = AbrConfig::default();
        let bb = evaluate_policy(&video, &cfg, &traces(), &mut BufferBased::default(), 1);
        let rnd = evaluate_policy(&video, &cfg, &traces(), &mut RandomPolicy, 1);
        assert!(
            bb.mean_qoe > rnd.mean_qoe,
            "bb {} <= random {}",
            bb.mean_qoe,
            rnd.mean_qoe
        );
        assert_eq!(
            normalized_score(bb.mean_qoe, rnd.mean_qoe, bb.mean_qoe),
            1.0
        );
        assert_eq!(
            normalized_score(rnd.mean_qoe, rnd.mean_qoe, bb.mean_qoe),
            0.0
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let video = VideoModel::envivio();
        let cfg = AbrConfig::default();
        let a = evaluate_policy(&video, &cfg, &traces(), &mut RandomPolicy, 9);
        let b = evaluate_policy(&video, &cfg, &traces(), &mut RandomPolicy, 9);
        assert_eq!(a.mean_qoe.to_bits(), b.mean_qoe.to_bits());
        assert_eq!(a.mean_rebuffer_s.to_bits(), b.mean_rebuffer_s.to_bits());
    }
}
