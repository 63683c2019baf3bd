//! (α, l) calibration against in-distribution traces (§3.1).
//!
//! The trip threshold cannot be universal — each signal lives on its own
//! scale (KL nats, value units, SVM margins). The paper calibrates on
//! traces drawn from the training distribution: serve them with an
//! infinite threshold (so nothing switches), then find the smallest
//! α that produces zero false switches on those sessions *under the
//! l-consecutive rule* — the largest min-of-l-consecutive window
//! variances observed — and install `α = margin × that`.
//! In-distribution sessions keep the learned policy's QoE (no false
//! switches on the calibration set by construction), while genuinely
//! out-of-distribution inputs hold the variance above α for l straight
//! decisions within a few steps of the shift.
//!
//! Calibration respects whatever anchor mode the configuration is in
//! ([`ServeConfig::anchor`]) and does not change it: on this corpus,
//! anchoring the variance at the quiet level traded away U_V's outage
//! and rate-cap detections without rescuing any signal, so the
//! sample-mean default stands. U_S opts in: calibrate once unanchored
//! for μ₀, anchor there, calibrate again.

use osa_abr::sim::AbrConfig;
use osa_abr::video::VideoModel;
use osa_trace::Trace;

use crate::ensemble::PensieveEnsemble;
use crate::eval::evaluate;
use crate::serve::{FleetSignal, ServeConfig};

/// Headroom factor over the in-distribution maximum variance.
pub const DEFAULT_MARGIN: f32 = 2.0;

/// A calibrated (α, l) pair plus the statistics it came from.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub alpha: f32,
    pub l: usize,
    pub k: usize,
    /// Mean in-distribution raw signal level (diagnostic; also the
    /// value to install as [`ServeConfig::anchor`] when opting into
    /// anchored variance).
    pub mu: f32,
    /// Smallest threshold with zero calibration-set switches given l
    /// (largest in-distribution min-of-l-consecutive window variance).
    pub max_variance: f32,
}

/// Calibrate `signal`'s threshold under `serve`'s (k, l), anchor and
/// reverse policy on in-distribution `traces`, and install the
/// resulting α in `serve.alpha`. The traces run as one engine with one
/// session per trace ([`evaluate`]); the statistics reduce trace by
/// trace, in trace order.
pub fn calibrate_guard(
    ens: &PensieveEnsemble,
    signal: &FleetSignal,
    serve: &mut ServeConfig,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    margin: f32,
) -> Calibration {
    assert!(!traces.is_empty(), "calibration needs traces");
    assert!(margin >= 1.0, "margin below 1 would trip in distribution");
    serve.alpha = f32::INFINITY;
    let l = serve.l;

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
    for run in evaluate(ens, signal, serve, video, cfg, traces, true) {
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
    serve.alpha = alpha;
    Calibration {
        alpha,
        l,
        k: serve.k,
        mu,
        max_variance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::rng::Rng;
    use osa_pensieve::{PensieveAgent, PensieveConfig};

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
        let agents: Vec<PensieveAgent> = (0..5)
            .map(|s| PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(s)))
            .collect();
        let ens = PensieveEnsemble::from_agents(&agents).unwrap();
        for signal in [
            FleetSignal::PolicyDisagreement,
            FleetSignal::ValueDisagreement,
        ] {
            let mut serve = ServeConfig::default();
            let cal = calibrate_guard(&ens, &signal, &mut serve, &video, &cfg, &traces, 2.0);
            assert!(cal.max_variance > 0.0, "the signal must vary");
            assert_eq!(serve.alpha, cal.alpha);
            assert!((cal.alpha - cal.max_variance * 2.0).abs() < 1e-9);
            for run in evaluate(&ens, &signal, &serve, &video, &cfg, &traces, false) {
                assert_eq!(run.first_trip, None, "false switch");
            }
            // At margin 1 the calibration set sits exactly on α: still
            // quiet, since only a variance above α is an exceedance.
            calibrate_guard(&ens, &signal, &mut serve, &video, &cfg, &traces, 1.0);
            for run in evaluate(&ens, &signal, &serve, &video, &cfg, &traces, false) {
                assert_eq!(run.first_trip, None, "false switch at margin 1");
            }
        }
    }
}
