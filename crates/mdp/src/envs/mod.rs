//! In-crate test environments with analytically known optima.
//!
//! These exist so the trainer can be *proved* correct, not just observed
//! to run: [`chain::ChainEnv`] has a closed-form optimal policy and value
//! function, and [`bandit::ContextBanditEnv`] has a known best arm per
//! context under reward noise. Both are `Clone`, cheap, and fully
//! deterministic given the caller's RNG, which also makes them the
//! workload for the rollout-throughput microbench in `crates/bench`.

pub(crate) mod bandit;
pub mod chain;

pub use bandit::ContextBanditEnv;
pub use chain::ChainEnv;

/// Write the one-hot observation of state `s` into `obs`.
fn one_hot(s: usize, obs: &mut [f32]) {
    obs.fill(0.0);
    obs[s] = 1.0;
}
