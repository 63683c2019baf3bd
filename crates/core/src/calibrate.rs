//! (α, l) calibration against in-distribution traces (§3.1).
//!
//! The trip threshold cannot be universal — each signal lives on its own
//! scale (KL nats, value units, SVM margins). The paper calibrates on
//! traces drawn from the training distribution: run the safe agent with
//! an infinite threshold (so it never switches), then find the smallest
//! α that produces zero false switches on those sessions *under the
//! l-consecutive rule* — the largest min-of-l-consecutive window
//! variances observed — and install `α = margin × that`.
//! In-distribution sessions keep the learned policy's QoE (no false
//! switches on the calibration set by construction), while genuinely
//! out-of-distribution inputs hold the variance above α for l straight
//! decisions within a few steps of the shift.
//!
//! Calibration respects whatever anchor mode the monitor is in (see
//! [`Monitor::set_anchor`](crate::monitor::Monitor::set_anchor)) and
//! does not change it: on this corpus, anchoring the variance at the
//! quiet level traded away U_V's outage and rate-cap detections without
//! rescuing any signal, so the sample-mean default stands.

use osa_abr::sim::AbrConfig;
use osa_abr::video::VideoModel;
use osa_trace::Trace;

use crate::eval::{run_session_into, SessionRun};
use crate::safe_agent::{SafeAgent, SafetyPolicy};
use crate::signal::UncertaintySignal;

/// Headroom factor over the in-distribution maximum variance.
pub const DEFAULT_MARGIN: f32 = 2.0;

/// A calibrated (α, l) pair plus the statistics it came from.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub alpha: f32,
    pub l: usize,
    pub k: usize,
    /// Mean in-distribution raw signal level (diagnostic; also the
    /// value to hand [`Monitor::set_anchor`](crate::monitor::Monitor::set_anchor)
    /// when opting into anchored variance).
    pub mu: f32,
    /// Smallest threshold with zero calibration-set switches given l
    /// (largest in-distribution min-of-l-consecutive window variance).
    pub max_variance: f32,
}

/// Calibrate `agent`'s monitor on in-distribution `traces` and install
/// the resulting α. The agent is left reset and ready to deploy.
pub fn calibrate<S, P, F>(
    agent: &mut SafeAgent<S, P, F>,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    margin: f32,
) -> Calibration
where
    S: UncertaintySignal,
    P: SafetyPolicy,
    F: SafetyPolicy,
{
    assert!(!traces.is_empty(), "calibration needs traces");
    assert!(margin >= 1.0, "margin below 1 would trip in distribution");
    agent.monitor_mut().set_alpha(f32::INFINITY);
    let l = agent.monitor().l();

    // A session trips at threshold α iff some run of l consecutive
    // variances all exceed α — i.e. iff the max-over-runs of the
    // min-within-run exceeds α. That statistic (not the plain max) is
    // the smallest non-tripping threshold: isolated spikes, which the
    // l-consecutive rule already forgives, must not inflate α, or
    // spiky-but-quiet signals end up with a ceiling no sustained shift
    // can clear. μ₀ rides along in the same pass as a diagnostic.
    let mut raw_sum = 0.0f64;
    let mut raw_n = 0usize;
    let mut max_variance = 0.0f32;
    let mut run = SessionRun::default();
    for t in traces {
        run_session_into(agent, video, cfg, t, &mut run);
        raw_sum += run.raw.iter().map(|&v| v as f64).sum::<f64>();
        raw_n += run.raw.len();
        for w in run.variance.windows(l) {
            let run_min = w.iter().copied().fold(f32::INFINITY, f32::min);
            max_variance = max_variance.max(run_min);
        }
    }
    let mu = (raw_sum / raw_n.max(1) as f64) as f32;
    // A degenerate constant signal has zero variance everywhere; keep α
    // strictly positive so exact zeros never count as exceedances.
    let alpha = (max_variance * margin).max(1e-12);
    agent.monitor_mut().set_alpha(alpha);
    agent.reset();
    Calibration {
        alpha,
        l: agent.monitor().l(),
        k: agent.monitor().k(),
        mu,
        max_variance,
    }
}

/// [`calibrate`] under the name U_S call sites use.
pub use self::calibrate as calibrate_novelty;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_session;
    use crate::monitor::Monitor;
    use crate::safe_agent::BufferFallback;

    /// Echoes the newest-throughput column — noisy in proportion to the
    /// link itself.
    struct Echo;
    impl UncertaintySignal for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn observe(&mut self, obs: &[f32]) -> f32 {
            obs[osa_abr::HISTORY_LEN - 1]
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn calibrated_agent_never_trips_on_its_calibration_set() {
        let video = VideoModel::envivio();
        let cfg = AbrConfig::default();
        let traces: Vec<Trace> = (0..3)
            .map(|i| {
                let mbps: Vec<f32> = (0..200)
                    .map(|t| 2.5 + 0.8 * ((t as f32 * 0.7 + i as f32).sin()))
                    .collect();
                Trace::new(format!("wavy{i}"), 1.0, mbps)
            })
            .collect();
        let mut agent = SafeAgent::new(
            Echo,
            Monitor::new(5, f32::INFINITY, 3),
            BufferFallback::default(),
            BufferFallback::default(),
        );
        let cal = calibrate(&mut agent, &video, &cfg, &traces, 2.0);
        assert!(cal.max_variance > 0.0, "echo signal must vary");
        assert!((cal.alpha - cal.max_variance * 2.0).abs() < 1e-9);
        for t in &traces {
            let run = run_session(&mut agent, &video, &cfg, t);
            assert_eq!(run.switch_index, None, "false switch on {}", t.id);
        }
    }
}
