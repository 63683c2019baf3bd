//! Trajectory collection: fixed-horizon rollout fragments that carry
//! episodes across fragment boundaries.
//!
//! A2C-style trainers do not collect whole episodes — they collect
//! fixed-length *fragments* (`rollout_len` transitions), compute GAE over
//! the fragment with a bootstrapped tail, and update. [`Collector`] owns
//! the environment and the in-flight episode state, so consecutive
//! [`Collector::collect_into`] calls resume exactly where the previous
//! fragment stopped, with no transitions dropped or duplicated at the
//! seam.
//!
//! # Batched inference
//!
//! The collector keeps its current observation as a `(1 × obs_dim)`
//! matrix and decides each action as a batch of one through
//! [`Policy::action_probs`]. Value estimates are *not* queried step by
//! step: the collector records the starting observation of every
//! transition into one `(T × obs_dim)` matrix and runs a single batched
//! [`ValueFunction::values`] pass at the end of the fragment — with the
//! truncated-tail bootstrap riding along as one extra row when the
//! fragment ends mid-episode.
//!
//! # Allocation discipline
//!
//! [`Collector::collect_into`] reuses the caller's [`Rollout`] buffers and
//! the collector's own scratch, so after a warmup fragment the steady
//! state performs no heap allocation. The allocation-counter test in
//! `osa-bench` pins this.

use osa_nn::rng::Rng;
use osa_nn::tensor::{argmax, Tensor};

use crate::env::{sample_categorical, Env, Policy, ValueFunction};

/// One fixed-horizon rollout fragment plus the bookkeeping GAE needs.
#[derive(Clone, Debug, Default)]
pub struct Rollout {
    /// Observation each transition started from, stacked as a
    /// `(T × obs_dim)` matrix ready for batched forward passes.
    pub observations: Tensor,
    /// Action taken at each transition.
    pub actions: Vec<usize>,
    /// Reward earned by each transition.
    pub rewards: Vec<f32>,
    /// Whether each transition ended its episode.
    pub dones: Vec<bool>,
    /// Value estimate `V(s_t)` for each starting observation, computed
    /// with the value function current at collection time.
    pub values: Vec<f32>,
    /// Value estimate of the state after the last transition, or 0.0 if
    /// that transition terminated its episode. This is GAE's tail
    /// bootstrap.
    pub bootstrap: f32,
    /// Undiscounted returns of every episode that *completed* during this
    /// fragment, in completion order — the training curve signal.
    pub episode_returns: Vec<f32>,
    /// Length (in transitions) of each completed episode, parallel to
    /// `episode_returns`.
    pub episode_lengths: Vec<usize>,
}

impl Rollout {
    /// Number of transitions in the fragment.
    pub(crate) fn len(&self) -> usize {
        self.actions.len()
    }

    /// Empty the fragment for reuse, keeping every buffer's capacity.
    /// Observation rows collected next will be `obs_dim` wide.
    pub(crate) fn clear(&mut self, obs_dim: usize) {
        self.observations.reset_rows(obs_dim);
        self.actions.clear();
        self.rewards.clear();
        self.dones.clear();
        self.values.clear();
        self.bootstrap = 0.0;
        self.episode_returns.clear();
        self.episode_lengths.clear();
    }
}

/// Owns an environment plus the in-flight episode, and cuts fixed-horizon
/// fragments from the stream of transitions.
pub struct Collector<E: Env> {
    env: E,
    /// Current observation, `(1 × obs_dim)`.
    obs: Tensor,
    probs: Tensor,
    ep_return: f32,
    ep_len: usize,
    /// Total transitions taken since construction.
    pub total_steps: u64,
}

impl<E: Env> Collector<E> {
    /// Wrap an environment and start its first episode.
    pub fn new(mut env: E, rng: &mut Rng) -> Self {
        let mut obs = Tensor::zeros(1, env.obs_dim());
        env.reset(rng, obs.row_mut(0));
        Collector {
            env,
            obs,
            probs: Tensor::default(),
            ep_return: 0.0,
            ep_len: 0,
            total_steps: 0,
        }
    }

    /// Collect exactly `horizon` transitions into `out`, reusing its
    /// buffers. Actions are sampled from `agent`; episodes that end are
    /// reset transparently. Value estimates for the whole fragment (and
    /// the truncated-tail bootstrap, if the fragment ends mid-episode)
    /// are computed in a single batched [`ValueFunction::values`] pass
    /// at the end — a terminal tail bootstraps 0 and never evaluates the
    /// next episode's reset state.
    pub fn collect_into<A: Policy + ValueFunction>(
        &mut self,
        agent: &mut A,
        horizon: usize,
        rng: &mut Rng,
        out: &mut Rollout,
    ) {
        assert!(horizon > 0, "cannot collect an empty rollout");
        out.clear(self.env.obs_dim());
        for _ in 0..horizon {
            out.observations.push_row(self.obs.row(0));
            agent.action_probs(&self.obs, &mut self.probs);
            let action = sample_categorical(self.probs.row(0), rng);
            let (reward, done) = self.env.step(action, rng, self.obs.row_mut(0));
            self.total_steps += 1;
            self.ep_return += reward;
            self.ep_len += 1;

            out.actions.push(action);
            out.rewards.push(reward);
            out.dones.push(done);

            if done {
                out.episode_returns.push(self.ep_return);
                out.episode_lengths.push(self.ep_len);
                self.ep_return = 0.0;
                self.ep_len = 0;
                self.env.reset(rng, self.obs.row_mut(0));
            }
        }
        // One batched critic pass over every V(s_t). The tail state rides
        // along as an extra row only when the fragment ends mid-episode:
        // after a terminal transition the environment has already been
        // reset, and evaluating that state would leak value across the
        // episode boundary (pinned by tests/rollout_boundary.rs).
        let tail = !*out.dones.last().expect("horizon > 0");
        if tail {
            out.observations.push_row(self.obs.row(0));
        }
        agent.values(&out.observations, &mut out.values);
        out.bootstrap = if tail {
            let b = out.values.pop().expect("tail value present");
            out.observations.pop_row();
            b
        } else {
            0.0
        };
    }
}

/// Run `episodes` full episodes with a frozen policy (greedy or sampled)
/// and return their undiscounted returns. `max_steps` bounds each episode
/// against policies that never terminate.
pub fn evaluate<E: Env, P: Policy>(
    env: &mut E,
    policy: &mut P,
    episodes: usize,
    max_steps: usize,
    greedy: bool,
    rng: &mut Rng,
) -> Vec<f32> {
    let mut obs = Tensor::zeros(1, env.obs_dim());
    let mut probs = Tensor::default();
    let mut returns = Vec::with_capacity(episodes);
    for _ in 0..episodes {
        env.reset(rng, obs.row_mut(0));
        let mut total = 0.0f32;
        for _ in 0..max_steps {
            policy.action_probs(&obs, &mut probs);
            let action = if greedy {
                argmax(probs.row(0))
            } else {
                sample_categorical(probs.row(0), rng)
            };
            let (reward, done) = env.step(action, rng, obs.row_mut(0));
            total += reward;
            if done {
                break;
            }
        }
        returns.push(total);
    }
    returns
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic counting env: obs = [t], reward = t, episode of 3.
    #[derive(Clone)]
    struct CountEnv {
        t: usize,
    }

    impl Env for CountEnv {
        fn obs_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self, _rng: &mut Rng, obs: &mut [f32]) {
            self.t = 0;
            obs[0] = 0.0;
        }
        fn step(&mut self, _action: usize, _rng: &mut Rng, obs: &mut [f32]) -> (f32, bool) {
            self.t += 1;
            obs[0] = self.t as f32;
            (self.t as f32, self.t == 3)
        }
    }

    /// Uniform over two actions; `V(s) = 10 + s[0]`.
    struct UniformAgent;

    impl Policy for UniformAgent {
        fn action_probs(&mut self, obs: &Tensor, out: &mut Tensor) {
            out.reset_rows(2);
            for _ in 0..obs.rows() {
                out.push_row(&[0.5, 0.5]);
            }
        }
    }

    impl ValueFunction for UniformAgent {
        fn values(&mut self, obs: &Tensor, out: &mut Vec<f32>) {
            out.clear();
            out.extend((0..obs.rows()).map(|r| 10.0 + obs.row(r)[0]));
        }
    }

    fn collect(col: &mut Collector<CountEnv>, horizon: usize, rng: &mut Rng) -> Rollout {
        let mut out = Rollout::default();
        col.collect_into(&mut UniformAgent, horizon, rng, &mut out);
        out
    }

    #[test]
    fn fragments_carry_episodes_across_boundaries() {
        let mut rng = Rng::seed_from_u64(1);
        let mut col = Collector::new(CountEnv { t: 0 }, &mut rng);

        // Horizon 2 cuts the 3-step episode mid-way.
        let r1 = collect(&mut col, 2, &mut rng);
        assert_eq!(r1.rewards, vec![1.0, 2.0]);
        assert_eq!(r1.dones, vec![false, false]);
        assert!(r1.episode_returns.is_empty());
        // Tail bootstrapped with V([2]) = 12.
        assert_eq!(r1.bootstrap, 12.0);

        // The next fragment resumes at t = 2: finishes the episode (reward
        // 3) then starts a fresh one (reward 1).
        let r2 = collect(&mut col, 2, &mut rng);
        assert_eq!(r2.rewards, vec![3.0, 1.0]);
        assert_eq!(r2.dones, vec![true, false]);
        assert_eq!(r2.episode_returns, vec![6.0]); // 1 + 2 + 3
        assert_eq!(r2.episode_lengths, vec![3]);
        assert_eq!(col.total_steps, 4);
    }

    #[test]
    fn terminal_fragment_has_zero_bootstrap() {
        let mut rng = Rng::seed_from_u64(2);
        let mut col = Collector::new(CountEnv { t: 0 }, &mut rng);
        let r = collect(&mut col, 3, &mut rng);
        assert_eq!(r.dones, vec![false, false, true]);
        assert_eq!(r.bootstrap, 0.0);
        assert_eq!(r.episode_returns, vec![6.0]);
    }

    #[test]
    fn observations_stack_rows() {
        let mut rng = Rng::seed_from_u64(3);
        let mut col = Collector::new(CountEnv { t: 0 }, &mut rng);
        let r = collect(&mut col, 3, &mut rng);
        let m = &r.observations;
        assert_eq!((m.rows(), m.cols()), (3, 1));
        assert_eq!(m.data(), &[0.0, 1.0, 2.0]);
    }

    /// A reused [`Rollout`] keeps its capacity and carries nothing over:
    /// every fragment equals one collected into fresh buffers.
    #[test]
    fn collect_into_reuses_buffers() {
        let mut rng_a = Rng::seed_from_u64(7);
        let mut rng_b = Rng::seed_from_u64(7);
        let mut col_a = Collector::new(CountEnv { t: 0 }, &mut rng_a);
        let mut col_b = Collector::new(CountEnv { t: 0 }, &mut rng_b);
        let mut reused = Rollout::default();
        let mut caps = None;
        for _ in 0..4 {
            let fresh = collect(&mut col_a, 5, &mut rng_a);
            col_b.collect_into(&mut UniformAgent, 5, &mut rng_b, &mut reused);
            assert_eq!(fresh.observations, reused.observations);
            assert_eq!(fresh.actions, reused.actions);
            assert_eq!(fresh.rewards, reused.rewards);
            assert_eq!(fresh.dones, reused.dones);
            assert_eq!(fresh.values, reused.values);
            assert_eq!(fresh.bootstrap, reused.bootstrap);
            assert_eq!(fresh.episode_returns, reused.episode_returns);
            assert_eq!(fresh.episode_lengths, reused.episode_lengths);
            let now = (reused.observations.capacity(), reused.actions.capacity());
            assert_eq!(*caps.get_or_insert(now), now, "buffers reallocated");
        }
    }

    #[test]
    fn evaluate_counts_full_episodes() {
        let mut rng = Rng::seed_from_u64(4);
        let returns = evaluate(
            &mut CountEnv { t: 0 },
            &mut UniformAgent,
            5,
            100,
            true,
            &mut rng,
        );
        assert_eq!(returns, vec![6.0; 5]);
    }
}
