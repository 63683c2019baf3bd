//! The [`UncertaintySignal`] trait and the U_S novelty signal.
//!
//! A signal maps the stream of per-decision observations to a scalar
//! uncertainty value; the [`crate::monitor::Monitor`] smooths that value
//! with a k-window variance and trips after l consecutive exceedances
//! (§2.5). Observations are `osa_abr` observation rows.

use osa_abr::HISTORY_LEN;
use osa_ocsvm::detector::NoveltyDetector;
use osa_ocsvm::features::{FeatureWindow, FEATURE_DIM};

/// A per-decision uncertainty scalar over observation rows.
///
/// `observe` is called exactly once per decision, *before* the policy
/// acts, and must be allocation-free after warm-up — its cost is the
/// per-decision price of safety that `BENCH_osap.json` records. Signals
/// that need warm-up (feature windows, variance rings) return their
/// quiet value until ready.
pub trait UncertaintySignal {
    /// Stable identifier used in figure artifacts and bench reports
    /// (`"u_s"`, `"u_pi"`, `"u_v"`).
    fn name(&self) -> &'static str;

    /// Consume one observation and return the raw uncertainty value.
    fn observe(&mut self, obs: &[f32]) -> f32;

    /// Forget all per-session state (called at session boundaries).
    fn reset(&mut self);
}

/// Boxed signals forward, so heterogeneous signal sets (the figure
/// binaries sweep U_S/U_π/U_V through one loop) can live in one `Vec`.
impl<S: UncertaintySignal + ?Sized> UncertaintySignal for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn observe(&mut self, obs: &[f32]) -> f32 {
        (**self).observe(obs)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// The always-quiet signal: raw value 0 for every observation. Wrapping
/// a [`crate::safe_agent::SafeAgent`] around it yields the *unguarded*
/// learned policy — the baseline every figure compares against.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSignal;

impl UncertaintySignal for NullSignal {
    fn name(&self) -> &'static str {
        "none"
    }

    fn observe(&mut self, _obs: &[f32]) -> f32 {
        0.0
    }

    fn reset(&mut self) {}
}

/// U_S — the paper's classic-ND baseline (§2.4): a novelty detector
/// over the §3.1 throughput features. Each decision pushes the newest
/// throughput sample into the incremental [`FeatureWindow`]; once warm,
/// the raw signal is the detector's novelty score of the current
/// feature vector.
pub struct NoveltySignal<D: NoveltyDetector> {
    detector: D,
    window: FeatureWindow,
    feat: [f32; FEATURE_DIM],
    last: f32,
}

impl<D: NoveltyDetector> NoveltySignal<D> {
    /// Wrap an already-fitted detector.
    pub fn new(detector: D) -> Self {
        NoveltySignal {
            detector,
            window: FeatureWindow::new(),
            feat: [0.0; FEATURE_DIM],
            last: 0.0,
        }
    }

    pub fn detector(&self) -> &D {
        &self.detector
    }
}

impl<D: NoveltyDetector> UncertaintySignal for NoveltySignal<D> {
    fn name(&self) -> &'static str {
        "u_s"
    }

    /// The newest throughput sample sits at observation column
    /// `HISTORY_LEN − 1`, normalized by ÷10 in `encode_obs` — undo that
    /// so the features live on the same Mbit/s scale the detector was
    /// fitted on.
    fn observe(&mut self, obs: &[f32]) -> f32 {
        self.window.push(obs[HISTORY_LEN - 1] * 10.0);
        if self.window.ready() {
            self.window.write(&mut self.feat);
            self.last = self.detector.score(&self.feat);
        }
        // Until warm, hold the quiet value (0.0 initially) so the
        // monitor's variance window sees no spurious jump.
        self.last
    }

    fn reset(&mut self) {
        self.window.reset();
        self.last = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_abr::OBS_DIM;
    use osa_ocsvm::features::FEATURE_PAIRS;
    use osa_ocsvm::features::FEATURE_WINDOW;

    /// Scores a feature vector by its plain sum — enough to check the
    /// plumbing without a real fit.
    struct SumDetector;
    impl NoveltyDetector for SumDetector {
        fn name(&self) -> &'static str {
            "sum"
        }
        fn fit(&mut self, _x: &osa_nn::tensor::Tensor) {}
        fn score(&self, x: &[f32]) -> f32 {
            x.iter().sum()
        }
    }

    #[test]
    fn warmup_then_scores_track_throughput() {
        let mut sig = NoveltySignal::new(SumDetector);
        let mut obs = [0.0f32; OBS_DIM];
        let warm = FEATURE_WINDOW + FEATURE_PAIRS - 1;
        for i in 0..warm - 1 {
            obs[HISTORY_LEN - 1] = 0.3;
            assert_eq!(sig.observe(&obs), 0.0, "push {i} should still be quiet");
        }
        obs[HISTORY_LEN - 1] = 0.3;
        let s = sig.observe(&obs);
        // 5 pairs of (mean 3.0 Mbit/s, std 0): sum = 15.
        assert!((s - 15.0).abs() < 1e-4, "got {s}");
        sig.reset();
        assert_eq!(sig.observe(&obs), 0.0);
    }
}
