//! Batched ABR decision policies: the [`AbrPolicy`] trait plus the
//! paper's two anchor baselines, Buffer-Based and Random, which define
//! the normalized score's 1 and 0 (ROADMAP / EXPERIMENTS.md).

use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;

use crate::sim::MultiSession;
use crate::NUM_BITRATES;

/// A policy that picks one bitrate level per session for a whole
/// [`MultiSession`] batch at once.
///
/// `obs` is the matrix [`MultiSession::fill_observations`] produced for
/// the current state (`sim.len() × OBS_DIM`) — learned policies read it
/// with one batched forward pass; rule-based baselines ignore it and
/// read session state directly. Implementations must write `actions[i]`
/// for every `i` (values `< NUM_BITRATES`); entries for inactive
/// sessions are ignored by `step_all`. Implementations must be
/// allocation-free after warm-up — the zero-alloc bench test covers the
/// whole decide + step loop.
pub trait AbrPolicy {
    /// Stable name for score tables and bench reports.
    fn name(&self) -> &'static str;

    fn decide_all(
        &mut self,
        sim: &MultiSession,
        obs: &Tensor,
        actions: &mut [usize],
        rng: &mut Rng,
    );
}

/// Uniform-random level selection — the normalized score's zero point.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomPolicy;

impl AbrPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn decide_all(
        &mut self,
        sim: &MultiSession,
        _obs: &Tensor,
        actions: &mut [usize],
        rng: &mut Rng,
    ) {
        assert_eq!(actions.len(), sim.len());
        for a in actions.iter_mut() {
            *a = rng.below(NUM_BITRATES);
        }
    }
}

/// Buffer-Based rate selection (Huang et al., SIGCOMM '14), the paper's
/// incumbent baseline: below the reservoir stream the lowest level,
/// above reservoir + cushion the highest, and map the buffer linearly
/// onto the ladder in between.
#[derive(Clone, Copy, Debug)]
pub struct BufferBased {
    pub(crate) reservoir_s: f64,
    pub(crate) cushion_s: f64,
}

impl Default for BufferBased {
    fn default() -> Self {
        BufferBased {
            reservoir_s: 5.0,
            cushion_s: 10.0,
        }
    }
}

impl BufferBased {
    /// The reservoir/cushion map for a single buffer level.
    pub fn level_for_buffer(&self, buffer_s: f64) -> usize {
        if buffer_s < self.reservoir_s {
            0
        } else if buffer_s >= self.reservoir_s + self.cushion_s {
            NUM_BITRATES - 1
        } else {
            let frac = (buffer_s - self.reservoir_s) / self.cushion_s;
            ((frac * (NUM_BITRATES - 1) as f64) as usize).min(NUM_BITRATES - 1)
        }
    }
}

impl AbrPolicy for BufferBased {
    fn name(&self) -> &'static str {
        "bb"
    }

    fn decide_all(
        &mut self,
        sim: &MultiSession,
        _obs: &Tensor,
        actions: &mut [usize],
        _rng: &mut Rng,
    ) {
        assert_eq!(actions.len(), sim.len());
        for (i, a) in actions.iter_mut().enumerate() {
            *a = self.level_for_buffer(sim.buffer_s(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bb_maps_buffer_onto_the_ladder() {
        let bb = BufferBased::default();
        assert_eq!(bb.level_for_buffer(0.0), 0);
        assert_eq!(bb.level_for_buffer(4.99), 0);
        assert_eq!(bb.level_for_buffer(5.0), 0); // frac 0
        assert_eq!(bb.level_for_buffer(7.0), 1); // frac 0.2 → level 1
        assert_eq!(bb.level_for_buffer(12.0), 3);
        assert_eq!(bb.level_for_buffer(14.99), 4);
        assert_eq!(bb.level_for_buffer(15.0), 5);
        assert_eq!(bb.level_for_buffer(60.0), 5);
    }

    #[test]
    fn random_levels_cover_the_ladder() {
        use crate::video::VideoModel;
        use osa_trace::Trace;
        let sim = MultiSession::new(
            VideoModel::constant_bitrate(),
            crate::AbrConfig::default(),
            vec![Trace::new("t", 1.0, vec![5.0; 4])],
            64,
            true,
        );
        let obs = Tensor::zeros(64, crate::OBS_DIM);
        let mut actions = vec![0usize; 64];
        let mut rng = Rng::seed_from_u64(9);
        RandomPolicy.decide_all(&sim, &obs, &mut actions, &mut rng);
        assert!(actions.iter().all(|&a| a < NUM_BITRATES));
        let distinct: std::collections::BTreeSet<_> = actions.iter().collect();
        assert!(distinct.len() >= 4, "64 draws should hit most levels");
    }
}
