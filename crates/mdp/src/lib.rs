//! `osa-mdp` — sequential decision making for the osa workspace
//! (DESIGN.md §1 row 2).
//!
//! The paper (§2.1) frames a learning-augmented system as an agent acting
//! in an MDP and trains Pensieve-style policies with parallel-worker
//! advantage actor-critic. This crate is that framing, kept independent of
//! any concrete domain so the ABR case study (`osa-pensieve`) and the
//! ensembles behind `osa-core`'s U_π/U_V signals train through the same
//! substrate:
//!
//! - [`env`](mod@env) — the [`Env`]/[`Policy`]/[`ValueFunction`] traits: one
//!   buffer-writing method per operation, explicit seedable RNG state
//!   and strict episode-boundary semantics;
//! - `rollout` — fixed-horizon fragment collection that carries
//!   episodes across fragment boundaries, plus policy evaluation;
//! - [`gae`](mod@gae) — discounted returns and generalized advantage estimation
//!   GAE(γ, λ);
//! - [`a2c`] — the A2C trainer: softmax policy gradient with entropy
//!   bonus, critic MSE, global-norm gradient clipping, and synchronous
//!   parallel rollout streams on the deterministic `osa-runtime` thread
//!   pool — final parameters are bit-identical for every pool size;
//! - [`envs`] — deterministic in-crate environments with known optima
//!   ([`envs::ChainEnv`], [`envs::ContextBanditEnv`]) proving trainer
//!   correctness in `tests/`.
//!
//! # Example
//!
//! Train the chain MDP to its known optimal policy:
//!
//! ```
//! use osa_mdp::a2c::{train, A2cConfig, ActorCritic};
//! use osa_mdp::envs::chain::{ChainEnv, ADVANCE};
//! use osa_mdp::env::Policy;
//! use osa_nn::rng::Rng;
//! use osa_nn::tensor::{argmax, Tensor};
//!
//! let env = ChainEnv::new(4);
//! let mut rng = Rng::seed_from_u64(7);
//! let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
//! let cfg = A2cConfig {
//!     gamma: 0.95,
//!     updates: 150,
//!     ..A2cConfig::default()
//! };
//! let report = train(&mut ac, &env, &cfg);
//! assert_eq!(report.updates, 150);
//! // The greedy policy advances from the start state.
//! let mut obs = Tensor::zeros(1, env.num_states());
//! obs.row_mut(0)[0] = 1.0;
//! let mut probs = Tensor::default();
//! ac.action_probs(&obs, &mut probs);
//! assert_eq!(argmax(probs.row(0)), ADVANCE);
//! ```
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod a2c;
pub mod env;
pub mod envs;
pub mod gae;
pub(crate) mod rollout;

pub use a2c::{
    policy_gradient_loss_into, train, train_with_pool, A2cConfig, ActorCritic, TrainReport, Trainer,
};
pub use env::{Env, Policy, ValueFunction};
pub use gae::{discounted_returns, gae, gae_into, normalize_advantages};
pub use rollout::{evaluate, Collector, Rollout};

/// Discount factor the paper's experiments use, re-exported as the
/// workspace-wide default ([`A2cConfig::default`] starts from it).
pub(crate) const DEFAULT_GAMMA: f32 = 0.99;

/// One-stop import for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::a2c::{
        policy_gradient_loss_into, train, train_with_pool, A2cConfig, ActorCritic, TrainReport,
        Trainer,
    };
    pub use crate::env::{Env, Policy, ValueFunction};
    pub use crate::envs::{ChainEnv, ContextBanditEnv};
    pub use crate::gae::{discounted_returns, gae, gae_into, normalize_advantages};
    pub use crate::rollout::{evaluate, Collector, Rollout};
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_gamma_is_a_valid_discount() {
        let gamma = std::hint::black_box(super::DEFAULT_GAMMA);
        assert!(gamma > 0.0 && gamma < 1.0);
    }
}
