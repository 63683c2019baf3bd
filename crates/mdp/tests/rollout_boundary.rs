//! Regression tests pinning the `Collector` contract at the seam the GAE
//! math is most sensitive to: an episode that terminates *exactly* at a
//! fragment boundary.
//!
//! The contract (documented on `Rollout::bootstrap`): the truncated-tail
//! bootstrap `V(s_T)` is only meaningful when the fragment ends
//! mid-episode. When the last transition is genuinely terminal, the
//! collector has already reset the environment, so the only state it
//! *could* evaluate is the first state of the **next** episode — using it
//! would leak value across the episode boundary and bias every advantage
//! in the fragment. These tests poison that reset state's value with NaN
//! so any such leak fails loudly instead of shifting training quietly.

use osa_mdp::gae::{discounted_returns, gae};
use osa_mdp::prelude::*;
use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;

/// Deterministic 3-step episode: obs = [t], reward 1.0 per step.
#[derive(Clone)]
struct ThreeStepEnv {
    t: usize,
}

impl Env for ThreeStepEnv {
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
        (1.0, self.t == 3)
    }
}

/// Value function poisoned at the post-reset state (obs [0]): if the
/// collector ever bootstraps a terminal tail from the next episode's
/// first state, NaN propagates into `bootstrap` and the assertions below
/// catch it.
struct PoisonedAtResetAgent;

impl Policy for PoisonedAtResetAgent {
    fn action_probs(&mut self, obs: &Tensor, out: &mut Tensor) {
        out.reset_rows(2);
        for _ in 0..obs.rows() {
            out.push_row(&[0.5, 0.5]);
        }
    }
}

impl ValueFunction for PoisonedAtResetAgent {
    fn values(&mut self, obs: &Tensor, out: &mut Vec<f32>) {
        out.clear();
        for r in 0..obs.rows() {
            let s = obs.row(r)[0];
            out.push(if s == 0.0 { f32::NAN } else { s });
        }
    }
}

fn collect(col: &mut Collector<ThreeStepEnv>, horizon: usize, rng: &mut Rng) -> Rollout {
    let mut out = Rollout::default();
    col.collect_into(&mut PoisonedAtResetAgent, horizon, rng, &mut out);
    out
}

#[test]
fn terminal_at_fragment_boundary_never_bootstraps_the_reset_state() {
    let mut rng = Rng::seed_from_u64(1);
    let mut col = Collector::new(ThreeStepEnv { t: 0 }, &mut rng);

    // Horizon == episode length: the episode terminates exactly at the
    // fragment boundary.
    let r = collect(&mut col, 3, &mut rng);
    assert_eq!(r.dones, vec![false, false, true]);
    assert_eq!(
        r.bootstrap, 0.0,
        "terminal tail must use V = 0, not V(reset state) = {}",
        r.bootstrap
    );
    assert_eq!(r.episode_returns, vec![3.0]);

    // The poisoned V(s_0) of the *current* episode is recorded for t = 0
    // (that is the collector honestly reporting the critic), but the
    // advantages of a terminal-at-boundary fragment must not involve the
    // next episode's states at all: with finite rewards and a zero tail,
    // returns are finite.
    let returns = discounted_returns(&r.rewards, &r.dones, r.bootstrap, 0.9);
    assert!(returns.iter().all(|g| g.is_finite()), "returns {returns:?}");
    assert_eq!(returns[2], 1.0); // terminal step: G = r, no tail
}

#[test]
fn advantages_after_boundary_terminal_are_finite() {
    // Same collector, two consecutive fragments, the first ending exactly
    // on the terminal transition. GAE over each fragment must stay finite
    // even though V(reset obs) is NaN — i.e. the poisoned value is never
    // consulted as a tail.
    let mut rng = Rng::seed_from_u64(2);
    let mut col = Collector::new(ThreeStepEnv { t: 0 }, &mut rng);

    let r1 = collect(&mut col, 3, &mut rng);
    // values[0] is the honest (poisoned) V(s_0); exclude it from the
    // finiteness claim — the contract under test is the *tail*, which
    // enters every advantage through the backward recursion only via
    // bootstrap. Use the fragment's recorded values with the NaN replaced
    // to isolate the tail contribution.
    let mut values = r1.values.clone();
    values[0] = 0.0;
    let adv = gae(&r1.rewards, &values, &r1.dones, r1.bootstrap, 0.99, 0.95);
    assert!(adv.iter().all(|a| a.is_finite()), "advantages {adv:?}");

    // The next fragment starts a fresh episode and again ends exactly on
    // its terminal transition: the seam repeats across fragments.
    let r2 = collect(&mut col, 3, &mut rng);
    assert_eq!(r2.dones, vec![false, false, true]);
    assert_eq!(r2.bootstrap, 0.0);
    assert_eq!(r2.episode_returns, vec![3.0]);
    assert_eq!(col.total_steps, 6);
}

#[test]
fn mid_episode_fragment_does_bootstrap() {
    // Control case: cut the episode mid-way and the collector must
    // bootstrap with V of the state actually reached (obs [2] → 2.0),
    // proving the zero above is the terminal rule and not a constant.
    let mut rng = Rng::seed_from_u64(3);
    let mut col = Collector::new(ThreeStepEnv { t: 0 }, &mut rng);
    let r = collect(&mut col, 2, &mut rng);
    assert_eq!(r.dones, vec![false, false]);
    assert_eq!(r.bootstrap, 2.0);
}
