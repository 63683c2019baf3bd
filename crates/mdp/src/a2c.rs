//! Advantage actor-critic training with synchronous parallel rollout
//! streams on the deterministic `osa-runtime` thread pool.
//!
//! # Architecture
//!
//! One [`ActorCritic`] pair (actor: obs → logits, critic: obs → scalar)
//! lives in the [`Trainer`] together with its two optimizers. Training is
//! organized around `cfg.workers` *logical streams*; each stream owns a
//! private environment, an independent RNG derived from `cfg.seed`, and
//! an architecturally identical local replica. A round is:
//!
//! 1. snapshot the server parameters once (flat copies);
//! 2. **in parallel across pool lanes**, each stream syncs its replica,
//!    collects a `rollout_len`-step fragment
//!    ([`crate::rollout::Collector`] carries episodes across fragments),
//!    computes GAE(γ, λ) advantages and λ-return critic targets, runs the
//!    fused softmax policy-gradient + entropy-bonus backward pass and the
//!    critic MSE backward pass, and clips both gradients to a global
//!    norm;
//! 3. serially, **in stream order**, apply each stream's gradients to the
//!    server nets through the shared optimizers.
//!
//! Unlike the A3C-style asynchronous server this module shipped with
//! originally, the result is a pure function of `(cfg, seed)`: streams
//! never observe each other, the gradient application order is fixed, and
//! the pool only decides *which lane* computes a stream — so final
//! parameters are **bit-identical for every pool size**, including the
//! inline `workers = 1` pool (pinned by `tests/determinism_pool.rs`).
//! Gradients within a round are computed against the round's starting
//! parameters — the same one-version staleness A3C tolerates, now paid
//! deterministically. With `cfg.workers == 1` the procedure is strictly
//! sequential and reproduces the original single-worker trajectory
//! (pinned by `tests/convergence.rs`).
//!
//! Steady-state rounds perform no heap allocation: every stream owns
//! persistent buffers and a `Workspace` arena sized on the first round
//! (pinned by the counting-allocator tests in `osa-bench`).

use osa_nn::loss;
use osa_nn::optim::Adam;
use osa_nn::prelude::{Dense, Init, Sequential};
use osa_nn::rng::Rng;
use osa_nn::tensor::{softmax_row, Act, Tensor};
use osa_nn::workspace::Workspace;
use osa_runtime::ThreadPool;

use crate::env::{Env, Policy, ValueFunction};
use crate::gae::{gae_into, normalize_advantages};
use crate::rollout::{Collector, Rollout};

/// A softmax policy network and a state-value network trained together.
///
/// The actor outputs *logits* (no softmax layer): sampling and the policy
/// gradient both work in log-space, which is numerically stable for
/// near-deterministic policies.
#[derive(Default)]
pub struct ActorCritic {
    /// `(batch × obs_dim) → (batch × num_actions)` logits.
    pub actor: Sequential,
    /// `(batch × obs_dim) → (batch × 1)` state values.
    pub critic: Sequential,
    /// Scratch pool for the inference paths below: after a warmup call,
    /// `action_probs`/`values` run without heap allocation.
    ws: Workspace,
}

impl ActorCritic {
    /// Two independent single-hidden-layer ReLU MLPs — the workhorse
    /// shape for the in-crate environments. The ReLU is fused into the
    /// hidden `Dense` layer's forward pass ([`Dense::with_act`]), which
    /// is bit-identical to a standalone `ReLU` layer but skips one full
    /// pass over the activations.
    pub fn mlp(obs_dim: usize, hidden: usize, num_actions: usize, rng: &mut Rng) -> Self {
        ActorCritic {
            actor: Sequential::new()
                .with(Dense::new(obs_dim, hidden, Init::HeUniform, rng).with_act(Act::Relu))
                .with(Dense::new(hidden, num_actions, Init::XavierUniform, rng)),
            critic: Sequential::new()
                .with(Dense::new(obs_dim, hidden, Init::HeUniform, rng).with_act(Act::Relu))
                .with(Dense::new(hidden, 1, Init::XavierUniform, rng)),
            ws: Workspace::new(),
        }
    }

    /// Wrap caller-built actor/critic networks (e.g. the branched
    /// Pensieve architecture) so custom architectures ride the same
    /// Policy/ValueFunction impls, trainer, and workspace pooling as
    /// [`ActorCritic::mlp`].
    pub fn from_nets(actor: Sequential, critic: Sequential) -> Self {
        ActorCritic {
            actor,
            critic,
            ws: Workspace::new(),
        }
    }

    /// A fresh pair with the same architecture *and* parameters, built
    /// through the spec round-trip (exact for `f32`).
    pub fn replicate(&self) -> Self {
        ActorCritic {
            actor: Sequential::from_spec(&self.actor.to_spec()),
            critic: Sequential::from_spec(&self.critic.to_spec()),
            ws: Workspace::new(),
        }
    }
}

impl Policy for ActorCritic {
    fn action_probs(&mut self, obs: &Tensor, out: &mut Tensor) {
        let logits = self.actor.forward_ws(obs, &mut self.ws);
        out.resize_shape(logits.rows(), logits.cols());
        for r in 0..logits.rows() {
            softmax_row(logits.row(r), out.row_mut(r));
        }
        self.ws.recycle(logits);
    }
}

impl ValueFunction for ActorCritic {
    fn values(&mut self, obs: &Tensor, out: &mut Vec<f32>) {
        let y = self.critic.forward_ws(obs, &mut self.ws);
        out.clear();
        out.extend_from_slice(y.data());
        self.ws.recycle(y);
    }
}

/// Fused softmax policy gradient with entropy bonus, on logits, with
/// `dL/d logits` written into a caller-owned buffer so steady-state
/// training loops do not allocate.
///
/// Loss per fragment of `T` transitions:
/// `L = −(1/T)·Σ_t A_t·ln π(a_t|s_t) − β·(1/T)·Σ_t H(π(·|s_t))`.
/// Returns `(policy loss, mean entropy)`. Working from
/// log-probabilities `ln π_j = z_j − lse(z)` keeps every term finite even
/// for saturated policies; the analytic gradient is
/// `dL/dz_j = [(π_j − 1{j=a_t})·A_t + β·π_j·(ln π_j + H_t)] / T`,
/// verified against central differences in this module's tests.
pub fn policy_gradient_loss_into(
    logits: &Tensor,
    actions: &[usize],
    advantages: &[f32],
    entropy_coef: f32,
    grad: &mut Tensor,
) -> (f32, f32) {
    let t_max = logits.rows();
    assert_eq!(actions.len(), t_max, "one action per logit row");
    assert_eq!(advantages.len(), t_max, "one advantage per logit row");
    let inv_t = 1.0 / t_max as f64;
    let mut pg_loss = 0.0f64;
    let mut entropy_sum = 0.0f64;
    grad.resize_shape(t_max, logits.cols());
    for t in 0..t_max {
        let row = logits.row(t);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let sum_exp: f64 = row.iter().map(|&l| (l as f64 - max).exp()).sum();
        let lse = max + sum_exp.ln();
        let adv = advantages[t] as f64;
        let a_t = actions[t];
        assert!(a_t < row.len(), "action index out of range");

        // Per-row entropy from log-probabilities (finite even when some
        // probability underflows to 0, since p·ln p → 0).
        let mut h = 0.0f64;
        for &l in row {
            let lp = l as f64 - lse;
            h -= lp.exp() * lp;
        }
        entropy_sum += h;
        pg_loss -= adv * (row[a_t] as f64 - lse);

        let grow = grad.row_mut(t);
        for (j, (&l, g)) in row.iter().zip(grow.iter_mut()).enumerate() {
            let lp = l as f64 - lse;
            let p = lp.exp();
            let indicator = if j == a_t { 1.0 } else { 0.0 };
            let d = (p - indicator) * adv + entropy_coef as f64 * p * (lp + h);
            *g = (d * inv_t) as f32;
        }
    }
    ((pg_loss * inv_t) as f32, (entropy_sum * inv_t) as f32)
}

/// Hyper-parameters for [`train`]. The defaults suit the small in-crate
/// environments; domain crates override what they need.
#[derive(Clone, Debug)]
pub struct A2cConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ (1 = Monte-Carlo advantages, 0 = one-step TD).
    pub lambda: f32,
    /// Adam learning rate for the actor.
    pub actor_lr: f32,
    /// Adam learning rate for the critic.
    pub critic_lr: f32,
    /// Entropy-bonus coefficient β.
    pub entropy_coef: f32,
    /// Transitions per rollout fragment (and per gradient update).
    pub rollout_len: usize,
    /// Global-norm gradient clip applied to actor and critic separately.
    pub max_grad_norm: f32,
    /// Logical rollout streams. Part of the *semantics* of a run (it
    /// fixes how many fragments are collected per round), not of its
    /// schedule: any pool size yields bit-identical results for a given
    /// `workers`, and `workers = 1` is strictly sequential.
    pub workers: usize,
    /// Total gradient updates across all streams.
    pub updates: usize,
    /// Master seed; stream `w` derives an independent RNG from it.
    pub seed: u64,
    /// Standardize advantages per fragment before the policy gradient.
    pub normalize_advantages: bool,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            gamma: crate::DEFAULT_GAMMA,
            lambda: 0.95,
            actor_lr: 0.01,
            critic_lr: 0.02,
            entropy_coef: 0.01,
            rollout_len: 32,
            max_grad_norm: 0.5,
            workers: 1,
            updates: 300,
            seed: 0,
            normalize_advantages: true,
        }
    }
}

/// What a training run did, aggregated at the parameter server.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Gradient updates applied (== `cfg.updates`).
    pub updates: u64,
    /// Environment transitions consumed across all workers.
    pub env_steps: u64,
    /// Final parameter version (== `updates`; exposed for staleness
    /// diagnostics and the bench harness).
    pub param_version: u64,
    /// Undiscounted returns of completed episodes, in gradient
    /// application order (stream order within each round) — deterministic
    /// for any pool size. With one stream this is the exact training
    /// curve.
    pub episode_returns: Vec<f32>,
    /// Length (in transitions) of each completed episode, parallel to
    /// `episode_returns` — the improvement signal for environments whose
    /// undiscounted return barely separates good and bad policies.
    pub episode_lengths: Vec<usize>,
    /// Mean policy entropy of the last applied update.
    pub final_entropy: f32,
    /// Policy-gradient loss of the last applied update.
    pub final_policy_loss: f32,
    /// Critic MSE of the last applied update.
    pub final_value_loss: f32,
}

impl TrainReport {
    /// Mean return of the last `n` completed episodes (all, if fewer).
    pub fn recent_mean_return(&self, n: usize) -> f32 {
        let tail = &self.episode_returns[self.episode_returns.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().sum::<f32>() / tail.len() as f32
    }
}

/// One logical rollout stream: a private environment, RNG, replica, and
/// every persistent buffer its gradient computation needs. Streams are
/// fully independent between rounds' serial phases, which is what lets
/// the pool run them on any lane without changing a single bit.
struct Stream<E: Env> {
    collector: Collector<E>,
    rng: Rng,
    local: ActorCritic,
    ro: Rollout,
    adv: Vec<f32>,
    targets: Vec<f32>,
    actor_grads: Vec<f32>,
    critic_grads: Vec<f32>,
    ws: Workspace,
    grad_logits: Tensor,
    target_mat: Tensor,
    grad_values: Tensor,
    pg_loss: f32,
    entropy: f32,
    value_loss: f32,
}

impl<E: Env> Stream<E> {
    /// Sync the replica to the round-start parameters, collect one
    /// fragment, and leave clipped gradients + stats in `self`. Runs on
    /// an arbitrary pool lane; touches nothing outside `self`.
    ///
    /// The math is unchanged from the original single-worker loop, so
    /// steady-state calls perform no heap allocation: the first round
    /// sizes every buffer, later rounds reuse the capacity.
    fn step(&mut self, actor_params: &[f32], critic_params: &[f32], cfg: &A2cConfig) {
        self.local.actor.set_params_from_vec(actor_params);
        self.local.critic.set_params_from_vec(critic_params);

        self.collector.collect_into(
            &mut self.local,
            cfg.rollout_len,
            &mut self.rng,
            &mut self.ro,
        );
        gae_into(
            &self.ro.rewards,
            &self.ro.values,
            &self.ro.dones,
            self.ro.bootstrap,
            cfg.gamma,
            cfg.lambda,
            &mut self.adv,
        );
        self.targets.clear();
        self.targets
            .extend(self.adv.iter().zip(&self.ro.values).map(|(a, v)| a + v));
        if cfg.normalize_advantages {
            normalize_advantages(&mut self.adv);
        }

        let obs = &self.ro.observations;
        let logits = self.local.actor.forward_ws(obs, &mut self.ws);
        let (pg_loss, entropy) = policy_gradient_loss_into(
            &logits,
            &self.ro.actions,
            &self.adv,
            cfg.entropy_coef,
            &mut self.grad_logits,
        );
        self.ws.recycle(logits);
        let g = self
            .local
            .actor
            .backward_ws(&self.grad_logits, &mut self.ws);
        self.ws.recycle(g);
        self.local.actor.clip_grad_global_norm(cfg.max_grad_norm);

        let predicted = self.local.critic.forward_ws(obs, &mut self.ws);
        self.target_mat.resize_shape(self.targets.len(), 1);
        self.target_mat.data_mut().copy_from_slice(&self.targets);
        let value_loss = loss::mse_into(&predicted, &self.target_mat, &mut self.grad_values);
        self.ws.recycle(predicted);
        let g = self
            .local
            .critic
            .backward_ws(&self.grad_values, &mut self.ws);
        self.ws.recycle(g);
        self.local.critic.clip_grad_global_norm(cfg.max_grad_norm);

        self.local.actor.copy_grads_into(&mut self.actor_grads);
        self.local.critic.copy_grads_into(&mut self.critic_grads);
        self.pg_loss = pg_loss;
        self.entropy = entropy;
        self.value_loss = value_loss;
    }
}

/// Synchronous deterministic A2C driver: owns the server nets, the
/// optimizers, and `cfg.workers` logical `Stream`s, and advances
/// training one round at a time. Most callers use [`train`]; the bench
/// and zero-allocation harnesses drive [`Trainer::round`] directly so
/// they can warm up and then measure steady-state rounds.
pub struct Trainer<E: Env> {
    cfg: A2cConfig,
    ac: ActorCritic,
    actor_opt: Adam,
    critic_opt: Adam,
    streams: Vec<Stream<E>>,
    actor_params: Vec<f32>,
    critic_params: Vec<f32>,
    updates_done: u64,
    report: TrainReport,
}

impl<E: Env + Clone + Send> Trainer<E> {
    /// Build the trainer, taking ownership of the nets. Each stream
    /// clones `env`, so the environment type carries its own
    /// initial-state template; per-stream stochasticity comes from the
    /// RNG streams derived from `cfg.seed`, not from the clone. Stream 0
    /// uses the master seed directly, so `workers = 1` runs are a pure
    /// function of `cfg.seed` — and identical to the historical
    /// single-worker trajectory.
    pub fn new(ac: ActorCritic, env: &E, cfg: &A2cConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one stream");
        assert!(cfg.updates >= 1, "need at least one update");
        assert!(
            cfg.rollout_len >= 1,
            "need at least one transition per update"
        );
        let streams = (0..cfg.workers)
            .map(|wid| {
                let mut rng =
                    Rng::seed_from_u64(cfg.seed ^ (wid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let local = ac.replicate();
                let collector = Collector::new(env.clone(), &mut rng);
                let mut ro = Rollout::default();
                // Headroom so episode bookkeeping cannot allocate in
                // steady state even for environments with short episodes.
                ro.episode_returns.reserve(64);
                ro.episode_lengths.reserve(64);
                Stream {
                    collector,
                    rng,
                    local,
                    ro,
                    adv: Vec::new(),
                    targets: Vec::new(),
                    actor_grads: Vec::new(),
                    critic_grads: Vec::new(),
                    ws: Workspace::new(),
                    grad_logits: Tensor::default(),
                    target_mat: Tensor::default(),
                    grad_values: Tensor::default(),
                    pg_loss: 0.0,
                    entropy: 0.0,
                    value_loss: 0.0,
                }
            })
            .collect();
        let mut report = TrainReport::default();
        report.episode_returns.reserve(1024);
        report.episode_lengths.reserve(1024);
        Trainer {
            actor_opt: Adam::new(cfg.actor_lr),
            critic_opt: Adam::new(cfg.critic_lr),
            cfg: cfg.clone(),
            ac,
            streams,
            actor_params: Vec::new(),
            critic_params: Vec::new(),
            updates_done: 0,
            report,
        }
    }

    /// Grow the episode-statistics headroom (e.g. before a long
    /// allocation-counted run).
    pub fn reserve_episode_capacity(&mut self, episodes: usize) {
        self.report.episode_returns.reserve(episodes);
        self.report.episode_lengths.reserve(episodes);
    }

    pub fn is_done(&self) -> bool {
        self.updates_done >= self.cfg.updates as u64
    }

    pub fn updates_done(&self) -> u64 {
        self.updates_done
    }

    /// One training round: snapshot the server parameters, run every
    /// stream's rollout + gradient phase across the pool lanes, then
    /// apply the gradients serially in stream order. The last round of a
    /// run applies only as many streams as updates remain, so the total
    /// is exactly `cfg.updates` regardless of `cfg.workers`.
    ///
    /// Steady-state rounds are allocation-free (pinned by
    /// `crates/bench/tests/zero_alloc_pool.rs`).
    pub fn round(&mut self, pool: &ThreadPool) {
        if self.is_done() {
            return;
        }
        self.ac.actor.copy_params_into(&mut self.actor_params);
        self.ac.critic.copy_params_into(&mut self.critic_params);
        let actor_params = self.actor_params.as_slice();
        let critic_params = self.critic_params.as_slice();
        let cfg = &self.cfg;
        // Parallel phase: streams are data-disjoint, so the pool may run
        // them on any lane in any interleaving without affecting results.
        // Nested GEMM dispatches inside a stream degrade to inline.
        pool.parallel_for_slice(&mut self.streams, 1, |_, _, chunk| {
            for stream in chunk {
                stream.step(actor_params, critic_params, cfg);
            }
        });
        // Serial phase: fixed application order = fixed final parameters.
        let remaining = self.cfg.updates as u64 - self.updates_done;
        let take = (self.streams.len() as u64).min(remaining) as usize;
        for stream in &mut self.streams[..take] {
            self.ac.actor.set_grads_from_vec(&stream.actor_grads);
            self.ac.actor.step(&mut self.actor_opt);
            self.ac.critic.set_grads_from_vec(&stream.critic_grads);
            self.ac.critic.step(&mut self.critic_opt);
            self.updates_done += 1;
            self.report.env_steps += stream.ro.len() as u64;
            self.report
                .episode_returns
                .extend_from_slice(&stream.ro.episode_returns);
            self.report
                .episode_lengths
                .extend_from_slice(&stream.ro.episode_lengths);
            self.report.final_entropy = stream.entropy;
            self.report.final_policy_loss = stream.pg_loss;
            self.report.final_value_loss = stream.value_loss;
        }
    }

    /// Tear down into the trained nets and the final report.
    pub fn finish(mut self) -> (ActorCritic, TrainReport) {
        self.report.updates = self.updates_done;
        self.report.param_version = self.updates_done;
        (self.ac, self.report)
    }
}

/// Train `ac` on `env` with `cfg.workers` logical streams, in place, on
/// the current thread pool ([`osa_runtime::with_current`] — the
/// [`osa_runtime::global`] pool unless overridden via
/// [`osa_runtime::with_pool`]).
///
/// The result is bit-identical for every pool size; see the module docs.
pub fn train<E: Env + Clone + Send>(ac: &mut ActorCritic, env: &E, cfg: &A2cConfig) -> TrainReport {
    osa_runtime::with_current(|pool| train_with_pool(ac, env, cfg, pool))
}

/// [`train`] on an explicit pool — for worker-count sweeps and tests.
pub fn train_with_pool<E: Env + Clone + Send>(
    ac: &mut ActorCritic,
    env: &E,
    cfg: &A2cConfig,
    pool: &ThreadPool,
) -> TrainReport {
    let mut trainer = Trainer::new(std::mem::take(ac), env, cfg);
    while !trainer.is_done() {
        trainer.round(pool);
    }
    let (trained, report) = trainer.finish();
    *ac = trained;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_probs_normalize_even_for_huge_logits() {
        let mut rng = Rng::seed_from_u64(1);
        let mut ac = ActorCritic::mlp(3, 4, 5, &mut rng);
        // Scale the head weights up to force saturated logits.
        let mut p = Vec::new();
        ac.actor.copy_params_into(&mut p);
        for v in &mut p {
            *v *= 100.0;
        }
        ac.actor.set_params_from_vec(&p);
        let mut probs = Tensor::default();
        ac.action_probs(&Tensor::from_rows(&[vec![1.0, -2.0, 0.5]]), &mut probs);
        assert_eq!((probs.rows(), probs.cols()), (1, 5));
        assert!(probs.data().iter().all(|p| p.is_finite() && *p >= 0.0));
        let sum: f32 = probs.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn replicate_preserves_parameters_exactly() {
        let mut rng = Rng::seed_from_u64(2);
        let mut ac = ActorCritic::mlp(4, 8, 3, &mut rng);
        let mut twin = ac.replicate();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ac.actor.copy_params_into(&mut a);
        twin.actor.copy_params_into(&mut b);
        assert_eq!(a, b);
        ac.critic.copy_params_into(&mut a);
        twin.critic.copy_params_into(&mut b);
        assert_eq!(a, b);
        let obs = Tensor::from_rows(&[vec![0.1, -0.3, 0.7, 0.0]]);
        let (mut p, mut q) = (Tensor::default(), Tensor::default());
        ac.action_probs(&obs, &mut p);
        twin.action_probs(&obs, &mut q);
        assert_eq!(p, q);
        let (mut v, mut w) = (Vec::new(), Vec::new());
        ac.values(&obs, &mut v);
        twin.values(&obs, &mut w);
        assert_eq!(v, w);
    }

    /// Central-difference check of the fused policy-gradient/entropy
    /// gradient: the analytic dL/d logits must match numeric
    /// differentiation of `pg_loss − β·entropy`.
    #[test]
    fn policy_gradient_matches_central_differences() {
        let mut rng = Rng::seed_from_u64(3);
        let (t_max, acts) = (4, 3);
        let data = (0..t_max * acts)
            .map(|_| rng.range_f32(-1.5, 1.5))
            .collect();
        let logits = Tensor::from_vec(t_max, acts, data);
        let actions = vec![0, 2, 1, 2];
        let advantages = vec![1.3, -0.7, 0.4, 2.0];
        let beta = 0.05;

        let mut scratch = Tensor::default();
        let mut scalar = |l: &Tensor| {
            let (pg, h) = policy_gradient_loss_into(l, &actions, &advantages, beta, &mut scratch);
            pg - beta * h
        };
        let mut analytic = Tensor::default();
        policy_gradient_loss_into(&logits, &actions, &advantages, beta, &mut analytic);

        let eps = 1e-2f32;
        let mut probe = logits.clone();
        for i in 0..probe.len() {
            let orig = probe.data()[i];
            probe.data_mut()[i] = orig + eps;
            let lp = scalar(&probe);
            probe.data_mut()[i] = orig - eps;
            let lm = scalar(&probe);
            probe.data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= 1e-3 * (a.abs() + numeric.abs()) + 1e-4,
                "elem {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn policy_gradient_rows_sum_to_zero() {
        // Both the softmax and the entropy terms live on the simplex, so
        // each row of the logit gradient must sum to 0.
        let logits = Tensor::from_rows(&[vec![0.2, -1.0, 0.7], vec![2.0, 2.0, -3.0]]);
        let mut grad = Tensor::default();
        policy_gradient_loss_into(&logits, &[1, 0], &[0.5, -2.0], 0.02, &mut grad);
        for r in 0..grad.rows() {
            let sum: f32 = grad.row(r).iter().sum();
            assert!(sum.abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn zero_advantage_leaves_only_entropy_force() {
        let logits = Tensor::from_rows(&[vec![1.0, 0.0]]);
        let mut grad = Tensor::default();
        let (pg, _) = policy_gradient_loss_into(&logits, &[0], &[0.0], 0.0, &mut grad);
        assert_eq!(pg, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }
}
