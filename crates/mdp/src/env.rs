//! The core MDP traits: [`Env`], [`Policy`], [`ValueFunction`].
//!
//! All randomness flows through an explicit [`osa_nn::rng::Rng`] handed in
//! by the caller — environments and policies hold no RNG state of their
//! own, so a single u64 seed reproduces a whole training run bit-for-bit
//! (the property the determinism tests in `tests/convergence.rs` pin
//! down).
//!
//! # Episode-boundary semantics
//!
//! An environment is a state machine with exactly two legal moves, each
//! writing an observation into a caller-owned buffer of length
//! [`Env::obs_dim`]:
//!
//! 1. [`Env::reset`] starts a fresh episode and writes its first
//!    observation.
//! 2. [`Env::step`] advances one transition, writes the *next*
//!    observation, and returns the reward earned by the transition and
//!    whether the episode just ended.
//!
//! After a step reports `done == true`, the written observation is the
//! terminal observation; the caller must `reset` before stepping again
//! (implementations are entitled to panic otherwise). Rollout fragments
//! collected by [`crate::rollout::Collector`] may end mid-episode; the
//! collector carries the episode across fragment boundaries and
//! bootstraps the tail with the value function, so `done` here always
//! means a true environment termination, never a fragment edge.
//!
//! # Inference
//!
//! Agents answer for a whole `(N × obs_dim)` batch of observations at
//! once; a single decision is a batch of one. Nothing here allocates, so
//! steady-state collection is allocation-free.

use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;

/// A Markov decision process with a finite action set and dense `f32`
/// observations — the shape of the ABR case study.
pub trait Env {
    /// Length of every observation this environment writes.
    fn obs_dim(&self) -> usize;

    /// Number of discrete actions; `step` accepts `0..num_actions()`.
    fn num_actions(&self) -> usize;

    /// Start a new episode, writing its first observation into `obs`
    /// (`obs.len() == obs_dim()`).
    fn reset(&mut self, rng: &mut Rng, obs: &mut [f32]);

    /// Take `action` and advance one transition, writing the next
    /// observation into `obs` and returning `(reward, done)`. See the
    /// module docs for the episode-boundary contract.
    fn step(&mut self, action: usize, rng: &mut Rng, obs: &mut [f32]) -> (f32, bool);
}

/// A (possibly stochastic) mapping from observations to distributions
/// over actions.
pub trait Policy {
    /// Action probabilities for every row of the `(N × obs_dim)` batch
    /// `obs`, written into `out` as `(N × num_actions)`; each row must be
    /// non-negative and sum to 1 (within rounding).
    fn action_probs(&mut self, obs: &Tensor, out: &mut Tensor);
}

/// A state-value estimator `V(s)`, used to bootstrap truncated rollouts
/// and as the GAE baseline.
pub trait ValueFunction {
    /// Value estimates for every row of the `(N × obs_dim)` batch `obs`,
    /// written into `out` (cleared first), one entry per row.
    fn values(&mut self, obs: &Tensor, out: &mut Vec<f32>);
}

/// Sample an index from an (approximately normalized) probability vector
/// by inverse-CDF. Rounding shortfall falls to the last index, so the
/// function is total for any probs summing to ≤ 1 + ε.
pub(crate) fn sample_categorical(probs: &[f32], rng: &mut Rng) -> usize {
    assert!(
        !probs.is_empty(),
        "cannot sample from an empty distribution"
    );
    let u = rng.next_f32();
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_categorical_respects_point_mass() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sample_categorical(&[0.0, 1.0, 0.0], &mut rng), 1);
        }
    }

    #[test]
    fn sample_categorical_matches_frequencies() {
        let mut rng = Rng::seed_from_u64(2);
        let probs = [0.2f32, 0.5, 0.3];
        let mut counts = [0usize; 3];
        let n = 20_000;
        for _ in 0..n {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        for (c, &p) in counts.iter().zip(&probs) {
            let freq = *c as f32 / n as f32;
            assert!((freq - p).abs() < 0.02, "freq {freq} vs p {p}");
        }
    }

    #[test]
    fn sample_categorical_total_under_rounding() {
        // Deliberately short of 1.0: the tail index must absorb the rest.
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let i = sample_categorical(&[0.3, 0.3], &mut rng);
            assert!(i < 2);
        }
    }
}
