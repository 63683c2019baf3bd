//! A deterministic chain MDP with a closed-form optimal policy and value
//! function — the convergence oracle for the A2C trainer.

use osa_nn::rng::Rng;

use super::one_hot;
use crate::env::Env;

/// States `0..n` laid out in a line; the agent starts at state 0 and state
/// `n − 1` is the goal.
///
/// - action 1 (**advance**) moves one state to the right; entering the
///   goal pays `goal_reward` and ends the episode;
/// - action 0 (**retreat**) teleports back to state 0 and pays the small
///   `distractor_reward` immediately — a myopic temptation the agent must
///   learn to refuse.
///
/// With discount γ the optimal policy is "always advance", and since every
/// transition is deterministic the optimal values are closed-form:
/// `V*(s) = goal_reward · γ^(n−2−s)` (see [`ChainEnv::optimal_value`]).
/// Advancing stays optimal in every state as long as
/// `distractor_reward < goal_reward · γ^(n−2) · (1 − γ)`, which the
/// constructor asserts — so tests can compare the trained greedy policy
/// and critic against the truth.
///
/// Episodes are capped at `max_steps` transitions (reported as `done`) so
/// an untrained policy cannot stall a rollout forever.
#[derive(Clone, Debug)]
pub struct ChainEnv {
    n: usize,
    goal_reward: f32,
    distractor_reward: f32,
    max_steps: usize,
    state: usize,
    steps: usize,
}

/// The retreat action index.
pub const RETREAT: usize = 0;
/// The advance action index — optimal in every state.
pub const ADVANCE: usize = 1;

impl ChainEnv {
    /// Chain of `n ≥ 2` states with `goal_reward = 1`,
    /// `distractor_reward = 0.01`, and a 100-step episode cap.
    pub fn new(n: usize) -> Self {
        Self::with_rewards(n, 1.0, 0.01)
    }

    pub fn with_rewards(n: usize, goal_reward: f32, distractor_reward: f32) -> Self {
        assert!(n >= 2, "a chain needs at least a start and a goal");
        assert!(goal_reward > 0.0);
        assert!(
            distractor_reward >= 0.0 && distractor_reward < goal_reward,
            "the distractor must not dominate the goal"
        );
        ChainEnv {
            n,
            goal_reward,
            distractor_reward,
            max_steps: 100,
            state: 0,
            steps: 0,
        }
    }

    /// Number of states (observation dimension).
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// `V*(s)` under discount `gamma`, for non-goal states `s ≤ n − 2`.
    ///
    /// From state `s`, always advancing reaches the goal in `n − 1 − s`
    /// transitions, earning `goal_reward` on the last one; every earlier
    /// transition pays 0, so `V*(s) = goal_reward · γ^(n−2−s)`. Panics if
    /// the distractor breaks "advance is optimal" for this `gamma`.
    pub fn optimal_value(&self, s: usize, gamma: f32) -> f32 {
        assert!(s + 1 < self.n, "the goal state has no outgoing value");
        let v0 = self.goal_reward * gamma.powi((self.n - 2) as i32);
        assert!(
            self.distractor_reward < v0 * (1.0 - gamma),
            "distractor_reward {} makes retreating optimal at gamma {}",
            self.distractor_reward,
            gamma
        );
        self.goal_reward * gamma.powi((self.n - 2 - s) as i32)
    }

    /// The transition function proper: updates `state`/`steps` and returns
    /// `(reward, done)`.
    fn advance(&mut self, action: usize) -> (f32, bool) {
        assert!(action < 2, "chain env has two actions");
        assert!(self.state + 1 < self.n, "stepped a finished episode");
        self.steps += 1;
        let (reward, terminal) = if action == ADVANCE {
            self.state += 1;
            if self.state + 1 == self.n {
                (self.goal_reward, true)
            } else {
                (0.0, false)
            }
        } else {
            self.state = 0;
            (self.distractor_reward, false)
        };
        (reward, terminal || self.steps >= self.max_steps)
    }
}

impl Env for ChainEnv {
    fn obs_dim(&self) -> usize {
        self.n
    }

    fn num_actions(&self) -> usize {
        2
    }

    fn reset(&mut self, _rng: &mut Rng, obs: &mut [f32]) {
        self.state = 0;
        self.steps = 0;
        one_hot(0, obs);
    }

    fn step(&mut self, action: usize, _rng: &mut Rng, obs: &mut [f32]) -> (f32, bool) {
        let step = self.advance(action);
        one_hot(self.state, obs);
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advancing_reaches_goal_with_known_return() {
        let mut env = ChainEnv::new(5);
        let mut rng = Rng::seed_from_u64(1);
        let mut obs = [0.0; 5];
        env.reset(&mut rng, &mut obs);
        assert_eq!(obs, [1.0, 0.0, 0.0, 0.0, 0.0]);
        let mut total = 0.0;
        for i in 0..4 {
            let (reward, done) = env.step(ADVANCE, &mut rng, &mut obs);
            total += reward;
            assert_eq!(done, i == 3);
        }
        assert_eq!(total, 1.0);
        assert_eq!(obs, [0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn retreat_teleports_to_start_and_pays_distractor() {
        let mut env = ChainEnv::new(5);
        let mut rng = Rng::seed_from_u64(2);
        let mut obs = [0.0; 5];
        env.reset(&mut rng, &mut obs);
        env.step(ADVANCE, &mut rng, &mut obs);
        env.step(ADVANCE, &mut rng, &mut obs);
        let (reward, done) = env.step(RETREAT, &mut rng, &mut obs);
        assert_eq!(obs[0], 1.0);
        assert_eq!(reward, 0.01);
        assert!(!done);
    }

    #[test]
    fn optimal_values_satisfy_bellman() {
        let env = ChainEnv::new(6);
        let gamma = 0.95;
        // V*(s) = γ·V*(s+1) for interior states, V*(n−2) = goal_reward.
        assert!((env.optimal_value(4, gamma) - 1.0).abs() < 1e-6);
        for s in 0..4 {
            let lhs = env.optimal_value(s, gamma);
            let rhs = gamma * env.optimal_value(s + 1, gamma);
            assert!((lhs - rhs).abs() < 1e-6, "state {s}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn episodes_truncate_at_cap() {
        let mut env = ChainEnv::new(5);
        let mut rng = Rng::seed_from_u64(3);
        let mut obs = [0.0; 5];
        env.reset(&mut rng, &mut obs);
        for i in 1..=100 {
            let (_, done) = env.step(RETREAT, &mut rng, &mut obs);
            assert_eq!(done, i == 100);
        }
    }

    #[test]
    #[should_panic(expected = "distractor must not dominate")]
    fn dominant_distractor_rejected() {
        let _ = ChainEnv::with_rewards(5, 1.0, 1.5);
    }
}
