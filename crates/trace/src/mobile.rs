//! Markov-modulated Gaussian generators for the two "real-world-like"
//! mobile corpora (DESIGN.md §2.2).
//!
//! The paper evaluates on the Norway 3G/HSDPA dataset (Riiser et al.,
//! MMSys '13) and the Belgium 4G/LTE dataset (van der Hooft et al., 2016),
//! neither of which is redistributable offline. What the evaluation needs
//! from them is (a) temporally-correlated, regime-switching dynamics that
//! are *not* i.i.d., and (b) two mutually different "real" distributions.
//! A hidden Markov chain over a few link regimes — deep fades, handover
//! outages, steady cruising, high-rate bursts — with Gaussian emissions
//! and AR(1) smoothing inside each regime reproduces both properties.
//!
//! Calibration targets (published summary statistics of the originals):
//!
//! | corpus | range (Mbit/s) | mean | character |
//! |--------|----------------|------|-----------|
//! | Norway 3G-like | ≈ 0 – 6.5 | ≈ 2 | strong temporal correlation, commute-path outages |
//! | Belgium LTE-like | ≈ 0 – 65 | ≈ 25–35 | high variance, bimodal (low/high regime), brief outages |
//!
//! The *measured* statistics of the shipped configurations are recorded in
//! `EXPERIMENTS.md` (dataset table) and pinned by `tests/mobile_stats.rs`.

use osa_nn::rng::Rng;

use crate::trace::Trace;

/// One link regime: a Gaussian emission the chain dwells in.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Regime {
    pub(crate) mean_mbps: f32,
    pub(crate) std_mbps: f32,
}

/// A Markov-modulated Gaussian process over link regimes.
///
/// Each step the hidden state follows the row-stochastic `transition`
/// matrix; the emitted bandwidth is an AR(1) blend of the previous sample
/// and a fresh Gaussian draw from the current regime, clamped into
/// `[floor_mbps, cap_mbps]`. The AR blend gives within-regime temporal
/// correlation; the chain gives the longer-timescale regime persistence
/// (fades and outages lasting several seconds) that separates mobile
/// traces from i.i.d. samplers.
#[derive(Clone, Debug)]
pub(crate) struct MarkovGaussian {
    pub(crate) regimes: Vec<Regime>,
    /// `transition[i][j]` = P(next = j | current = i); rows sum to 1.
    pub(crate) transition: Vec<Vec<f64>>,
    /// AR(1) coefficient on the previous emitted sample, in `[0, 1)`.
    pub(crate) ar: f32,
    pub(crate) floor_mbps: f32,
    pub(crate) cap_mbps: f32,
}

impl MarkovGaussian {
    /// Norway 3G/HSDPA-like process: slow links (≈ 0–6.5 Mbit/s, mean
    /// ≈ 2), long coherent stretches, and hard outages mimicking the
    /// tram/ferry handover gaps of the original logs.
    pub(crate) fn norway_3g() -> Self {
        MarkovGaussian {
            regimes: vec![
                // outage
                Regime {
                    mean_mbps: 0.0,
                    std_mbps: 0.05,
                },
                // fade
                Regime {
                    mean_mbps: 0.6,
                    std_mbps: 0.25,
                },
                // steady
                Regime {
                    mean_mbps: 2.2,
                    std_mbps: 0.6,
                },
                // burst
                Regime {
                    mean_mbps: 4.6,
                    std_mbps: 0.8,
                },
            ],
            transition: vec![
                vec![0.80, 0.15, 0.05, 0.00],
                vec![0.04, 0.80, 0.15, 0.01],
                vec![0.01, 0.07, 0.85, 0.07],
                vec![0.00, 0.02, 0.18, 0.80],
            ],
            ar: 0.6,
            floor_mbps: 0.0,
            cap_mbps: 6.5,
        }
    }

    /// Belgium 4G/LTE-like process: fast links (≈ 0–65 Mbit/s), high
    /// variance, and the bimodal low/high split (indoor/congested vs
    /// open-road cells) reported for the original dataset, with brief
    /// handover outages.
    pub(crate) fn belgium_lte() -> Self {
        MarkovGaussian {
            regimes: vec![
                // outage
                Regime {
                    mean_mbps: 0.0,
                    std_mbps: 0.10,
                },
                // low
                Regime {
                    mean_mbps: 12.0,
                    std_mbps: 4.0,
                },
                // high
                Regime {
                    mean_mbps: 42.0,
                    std_mbps: 8.0,
                },
                // burst
                Regime {
                    mean_mbps: 58.0,
                    std_mbps: 6.0,
                },
            ],
            transition: vec![
                vec![0.70, 0.25, 0.05, 0.00],
                vec![0.02, 0.85, 0.12, 0.01],
                vec![0.01, 0.10, 0.80, 0.09],
                vec![0.00, 0.02, 0.23, 0.75],
            ],
            ar: 0.5,
            floor_mbps: 0.0,
            cap_mbps: 65.0,
        }
    }

    /// Sample the next hidden state from the current one's transition row.
    fn step_state(&self, state: usize, rng: &mut Rng) -> usize {
        let row = &self.transition[state];
        let u = rng.next_f64();
        let mut acc = 0.0;
        for (j, p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return j;
            }
        }
        // Row sums to 1 up to rounding; attribute the sliver to the last
        // regime.
        row.len() - 1
    }

    /// Generate one trace of `len` samples at 1 s intervals.
    pub(crate) fn generate(&self, id: impl Into<String>, len: usize, rng: &mut Rng) -> Trace {
        debug_assert!(self.regimes.len() == self.transition.len());
        debug_assert!(self
            .transition
            .iter()
            .all(|row| (row.iter().sum::<f64>() - 1.0).abs() < 1e-9));
        // Random initial regime: traces in a corpus start in different
        // link conditions, like recordings starting mid-commute.
        let mut state = rng.below(self.regimes.len());
        let r = &self.regimes[state];
        let mut level = rng
            .normal(r.mean_mbps, r.std_mbps)
            .clamp(self.floor_mbps, self.cap_mbps);
        let mut mbps = Vec::with_capacity(len);
        for _ in 0..len {
            state = self.step_state(state, rng);
            let r = &self.regimes[state];
            let target = rng.normal(r.mean_mbps, r.std_mbps);
            level =
                (self.ar * level + (1.0 - self.ar) * target).clamp(self.floor_mbps, self.cap_mbps);
            mbps.push(level);
        }
        Trace::new(id, 1.0, mbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_respect_floor_and_cap() {
        for gen in [MarkovGaussian::norway_3g(), MarkovGaussian::belgium_lte()] {
            let mut rng = Rng::seed_from_u64(3);
            let t = gen.generate("t", 2_000, &mut rng);
            assert!(t.is_wellformed());
            let s = t.stats();
            assert!(s.min >= gen.floor_mbps as f64);
            assert!(s.max <= gen.cap_mbps as f64);
        }
    }

    #[test]
    fn regimes_produce_temporal_correlation() {
        let mut rng = Rng::seed_from_u64(4);
        let t = MarkovGaussian::norway_3g().generate("t", 5_000, &mut rng);
        assert!(
            t.autocorr_lag1() > 0.5,
            "mobile-like traces must be temporally correlated, got {}",
            t.autocorr_lag1()
        );
    }

    #[test]
    fn transition_rows_are_stochastic() {
        for gen in [MarkovGaussian::norway_3g(), MarkovGaussian::belgium_lte()] {
            for row in &gen.transition {
                assert_eq!(row.len(), gen.regimes.len());
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(row.iter().all(|p| (0.0..=1.0).contains(p)));
            }
        }
    }
}
