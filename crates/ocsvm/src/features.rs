//! The §3.1 feature pipeline for the U_S novelty signal.
//!
//! The paper's classic-ND baseline does not feed raw observations to the
//! one-class SVM: each decision contributes the *mean and standard
//! deviation of the 10 most recent throughput samples*, and the detector
//! scores a sliding window of the `k` latest such pairs. The pipeline
//! here is incremental — [`FeatureWindow::push`] is O(window) with no
//! allocation, so the per-decision featurization cost that
//! `BENCH_osap.json` charges to U_S is the real deployment cost.
//!
//! Determinism: all reductions run in *chronological* order (oldest
//! sample first), independent of the ring buffer's phase, so the same
//! throughput history always produces bit-identical features.

/// Number of recent throughput samples summarized into one (mean, std)
/// pair (§3.1).
pub(crate) const FEATURE_WINDOW: usize = 10;

/// Number of latest (mean, std) pairs forming one detector input.
pub(crate) const FEATURE_PAIRS: usize = 5;

/// Detector input dimensionality: `FEATURE_PAIRS` × (mean, std).
pub const FEATURE_DIM: usize = 2 * FEATURE_PAIRS;

/// Incremental §3.1 featurizer: a throughput ring feeding a (mean, std)
/// pair ring. Ready once `FEATURE_WINDOW + FEATURE_PAIRS - 1` samples
/// have been pushed.
#[derive(Clone, Debug, Default)]
pub struct FeatureWindow {
    tputs: [f32; FEATURE_WINDOW],
    t_len: usize,
    t_pos: usize,
    pairs: [[f32; 2]; FEATURE_PAIRS],
    p_len: usize,
    p_pos: usize,
}

impl FeatureWindow {
    pub fn new() -> Self {
        FeatureWindow::default()
    }

    /// Forget all history (e.g. at a session boundary).
    pub fn reset(&mut self) {
        *self = FeatureWindow::default();
    }

    /// Record one throughput sample. Once the sample ring is full, every
    /// push also appends one (mean, std) pair.
    pub fn push(&mut self, tput: f32) {
        self.tputs[self.t_pos] = tput;
        self.t_pos = (self.t_pos + 1) % FEATURE_WINDOW;
        if self.t_len < FEATURE_WINDOW {
            self.t_len += 1;
        }
        if self.t_len == FEATURE_WINDOW {
            let (mean, std) = self.window_stats();
            self.pairs[self.p_pos] = [mean, std];
            self.p_pos = (self.p_pos + 1) % FEATURE_PAIRS;
            if self.p_len < FEATURE_PAIRS {
                self.p_len += 1;
            }
        }
    }

    /// Mean and population standard deviation of the sample ring, summed
    /// oldest-first so the result is independent of the ring phase. A
    /// NaN or ±∞ sample makes both non-finite: the variance is a sum of
    /// squares from `+0.0`, never negative for finite samples, so it is
    /// not clamped — a clamp would turn a NaN variance into std 0, the
    /// most stable-looking link there is.
    fn window_stats(&self) -> (f32, f32) {
        let n = FEATURE_WINDOW as f32;
        let mut sum = 0.0f32;
        for i in 0..FEATURE_WINDOW {
            sum += self.chronological(i);
        }
        let mean = sum / n;
        let mut var = 0.0f32;
        for i in 0..FEATURE_WINDOW {
            let d = self.chronological(i) - mean;
            var += d * d;
        }
        (mean, (var / n).sqrt())
    }

    /// `i`-th sample in chronological order (0 = oldest) of a full ring.
    fn chronological(&self, i: usize) -> f32 {
        self.tputs[(self.t_pos + i) % FEATURE_WINDOW]
    }

    /// True once a full feature vector is available
    /// (`FEATURE_WINDOW + FEATURE_PAIRS - 1` pushes).
    pub fn ready(&self) -> bool {
        self.p_len == FEATURE_PAIRS
    }

    /// Write the feature vector — `FEATURE_PAIRS` (mean, std) pairs,
    /// oldest pair first — into `out`. Panics unless [`ready`] and
    /// `out.len() == FEATURE_DIM`.
    ///
    /// [`ready`]: FeatureWindow::ready
    pub fn write(&self, out: &mut [f32]) {
        assert!(self.ready(), "feature window not warmed up");
        assert_eq!(out.len(), FEATURE_DIM, "feature buffer size");
        for i in 0..FEATURE_PAIRS {
            let pair = self.pairs[(self.p_pos + i) % FEATURE_PAIRS];
            out[2 * i] = pair[0];
            out[2 * i + 1] = pair[1];
        }
    }
}

/// Slide a [`FeatureWindow`] over one throughput series and collect every
/// ready feature vector (rows of length [`FEATURE_DIM`]) — the batch
/// path used to build detector training sets from trace corpora.
pub fn window_features(rates: &[f32]) -> Vec<[f32; FEATURE_DIM]> {
    let mut w = FeatureWindow::new();
    let mut out = Vec::new();
    for &r in rates {
        w.push(r);
        if w.ready() {
            let mut row = [0.0f32; FEATURE_DIM];
            w.write(&mut row);
            out.push(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_takes_window_plus_pairs_pushes() {
        let mut w = FeatureWindow::new();
        for i in 0..FEATURE_WINDOW + FEATURE_PAIRS - 2 {
            w.push(i as f32);
            assert!(!w.ready(), "push {i}");
        }
        w.push(99.0);
        assert!(w.ready());
    }

    #[test]
    fn constant_input_gives_zero_std() {
        let rows = window_features(&[2.5; 30]);
        assert_eq!(rows.len(), 30 - (FEATURE_WINDOW + FEATURE_PAIRS - 1) + 1);
        for row in rows {
            for i in 0..FEATURE_PAIRS {
                assert_eq!(row[2 * i], 2.5);
                assert_eq!(row[2 * i + 1], 0.0);
            }
        }
    }

    #[test]
    fn features_are_phase_independent() {
        // The same 14-sample history must produce identical features no
        // matter how many samples preceded it... for a *constant* prefix
        // the ring phase differs but the window contents match exactly.
        let tail: Vec<f32> = (0..FEATURE_WINDOW + FEATURE_PAIRS - 1)
            .map(|i| 1.0 + 0.25 * i as f32)
            .collect();
        let mut a = FeatureWindow::new();
        for &x in &tail {
            a.push(x);
        }
        let mut b = FeatureWindow::new();
        for _ in 0..7 {
            b.push(tail[0]);
        }
        // b's extra pushes shifted its ring phase; feed enough of the
        // tail that both windows hold the same chronological samples.
        for &x in &tail {
            b.push(x);
        }
        let (mut fa, mut fb) = ([0.0; FEATURE_DIM], [0.0; FEATURE_DIM]);
        a.write(&mut fa);
        b.write(&mut fb);
        for (x, y) in fa.iter().zip(&fb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn a_non_finite_sample_makes_mean_and_std_non_finite() {
        // One hostile sample among finite ones: every pair whose
        // 10-sample window holds it must be non-finite in both features
        // (a std of 0 would read as the most stable link), and every
        // other pair stays finite.
        let bad_at = 12;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let rates: Vec<f32> = (0..40)
                .map(|i| {
                    if i == bad_at {
                        bad
                    } else {
                        1.0 + 0.1 * i as f32
                    }
                })
                .collect();
            let mut w = FeatureWindow::new();
            for (i, &r) in rates.iter().enumerate() {
                w.push(r);
                if i + 1 < FEATURE_WINDOW {
                    continue;
                }
                let (mean, std) = w.window_stats();
                let holds_bad = (i + 1 - FEATURE_WINDOW..=i).contains(&bad_at);
                assert_eq!(
                    !mean.is_finite(),
                    holds_bad,
                    "{bad} at push {i}: mean {mean}"
                );
                assert_eq!(!std.is_finite(), holds_bad, "{bad} at push {i}: std {std}");
            }
        }
    }

    #[test]
    fn known_window_stats() {
        // 10 samples 1..=10: mean 5.5, population std sqrt(8.25).
        let rates: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        let mut w = FeatureWindow::new();
        for &r in &rates {
            w.push(r);
        }
        let (mean, std) = w.window_stats();
        assert!((mean - 5.5).abs() < 1e-6);
        assert!((std - 8.25f32.sqrt()).abs() < 1e-6);
    }
}
