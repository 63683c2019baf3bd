//! A noisy contextual bandit dressed as an episodic MDP — the stochastic
//! counterpart to [`crate::envs::chain::ChainEnv`].

use osa_nn::rng::Rng;
use osa_nn::tensor::argmax;

use super::one_hot;
use crate::env::Env;

/// "Bandit with state": each step presents one of `C` contexts (one-hot
/// observation); pulling arm `a` in context `c` pays
/// `means[c][a] + N(0, noise_std²)`, and an episode lasts `horizon` pulls.
///
/// There are no temporal dynamics — the next context is drawn uniformly
/// regardless of the action — so the optimal policy is memoryless: in
/// context `c`, pull [`ContextBanditEnv::best_arm`]`(c)`. What this env
/// exercises that the chain cannot is *reward noise*: the advantage
/// estimator must average away `N(0, σ²)` to find arms whose means differ
/// by less than σ, and the critic's target `V*(c) = max_a means[c][a]`
/// (γ-discounted tail aside) is known exactly.
#[derive(Clone, Debug)]
pub struct ContextBanditEnv {
    means: Vec<Vec<f32>>,
    noise_std: f32,
    horizon: usize,
    context: usize,
    pulls: usize,
}

impl ContextBanditEnv {
    /// `means[c][a]` = expected reward of arm `a` in context `c`; all
    /// contexts must offer the same number of arms.
    pub(crate) fn new(means: Vec<Vec<f32>>, noise_std: f32, horizon: usize) -> Self {
        assert!(!means.is_empty(), "need at least one context");
        let arms = means[0].len();
        assert!(arms >= 2, "need at least two arms");
        assert!(
            means.iter().all(|row| row.len() == arms),
            "ragged arm table"
        );
        assert!(noise_std >= 0.0);
        assert!(horizon > 0);
        ContextBanditEnv {
            means,
            noise_std,
            horizon,
            context: 0,
            pulls: 0,
        }
    }

    /// A standard 3-context / 3-arm instance with unit-gap means and
    /// σ = 0.5 noise, used by the convergence tests.
    pub fn standard() -> Self {
        ContextBanditEnv::new(
            vec![
                vec![1.0, 0.0, -1.0],
                vec![-1.0, 1.0, 0.0],
                vec![0.0, -1.0, 1.0],
            ],
            0.5,
            8,
        )
    }

    pub fn num_contexts(&self) -> usize {
        self.means.len()
    }

    /// The arm with the highest mean reward in context `c` (first on
    /// ties) — what a converged greedy policy must pick.
    pub fn best_arm(&self, c: usize) -> usize {
        argmax(&self.means[c])
    }

    /// The transition proper: draws the noisy reward, then the next
    /// context — that RNG draw order is part of the env's reproducibility
    /// contract.
    fn pull(&mut self, action: usize, rng: &mut Rng) -> (f32, bool) {
        assert!(action < self.num_actions(), "arm index out of range");
        assert!(self.pulls < self.horizon, "stepped a finished episode");
        self.pulls += 1;
        let reward = rng.normal(self.means[self.context][action], self.noise_std);
        self.context = rng.below(self.means.len());
        (reward, self.pulls >= self.horizon)
    }
}

impl Env for ContextBanditEnv {
    fn obs_dim(&self) -> usize {
        self.means.len()
    }

    fn num_actions(&self) -> usize {
        self.means[0].len()
    }

    fn reset(&mut self, rng: &mut Rng, obs: &mut [f32]) {
        self.pulls = 0;
        self.context = rng.below(self.means.len());
        one_hot(self.context, obs);
    }

    fn step(&mut self, action: usize, rng: &mut Rng, obs: &mut [f32]) -> (f32, bool) {
        let step = self.pull(action, rng);
        one_hot(self.context, obs);
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_arm_is_diagonal_for_standard_instance() {
        let env = ContextBanditEnv::standard();
        assert_eq!(env.best_arm(0), 0);
        assert_eq!(env.best_arm(1), 1);
        assert_eq!(env.best_arm(2), 2);
    }

    #[test]
    fn episodes_last_exactly_horizon_pulls() {
        let mut env = ContextBanditEnv::standard();
        let mut rng = Rng::seed_from_u64(1);
        let mut obs = [0.0; 3];
        env.reset(&mut rng, &mut obs);
        for i in 1..=8 {
            let (_, done) = env.step(0, &mut rng, &mut obs);
            assert_eq!(done, i == 8);
            assert_eq!(obs.iter().filter(|&&x| x == 1.0).count(), 1);
        }
    }

    #[test]
    fn noiseless_rewards_match_means() {
        let mut env = ContextBanditEnv::new(vec![vec![2.0, -3.0], vec![0.5, 4.0]], 0.0, 4);
        let mut rng = Rng::seed_from_u64(2);
        let mut obs = [0.0; 2];
        env.reset(&mut rng, &mut obs);
        let ctx = obs.iter().position(|&x| x == 1.0).unwrap();
        let (reward, _) = env.step(1, &mut rng, &mut obs);
        assert_eq!(reward, env.means[ctx][1]);
    }

    #[test]
    fn noisy_rewards_average_to_the_mean() {
        let mut env = ContextBanditEnv::new(vec![vec![1.0, 0.0]], 0.5, 1_000_000);
        let mut rng = Rng::seed_from_u64(3);
        let mut obs = [0.0; 1];
        env.reset(&mut rng, &mut obs);
        let n = 20_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            sum += env.step(0, &mut rng, &mut obs).0 as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }
}
