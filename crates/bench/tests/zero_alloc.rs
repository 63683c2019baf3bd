//! Proof that the steady-state A2C training step is allocation-free.
//!
//! This test lives in its own integration-test binary because it installs
//! [`CountingAlloc`] as the process-wide `#[global_allocator]`: the
//! counters are global, so the measured window must be the only code
//! running. (`cargo test` runs each integration test binary as a separate
//! process, and within the binary this is the only `#[test]`.)
//!
//! It replicates the single-stream body of the `osa_mdp::a2c` trainer
//! (`Stream::step` plus the serial gradient application) inline — same
//! calls, same order, but without the thread pool, which belongs to the
//! concurrency layer, not the hot path. The pooled counterpart is
//! `tests/zero_alloc_pool.rs`, which drives the real `Trainer` through a
//! multi-worker `osa_runtime::ThreadPool`.
//! The first iterations size every buffer (workspace pool, rollout
//! buffers, Adam moments, parameter/gradient vectors); after that warmup
//! the loop must not touch the heap at all. If someone reintroduces a
//! per-step `clone()`, `to_vec()`, or unpooled temporary anywhere in
//! collect → GAE → forward → backward → optimize, this assertion catches
//! it exactly.

use osa_bench::counting_alloc::{min_window_allocations, CountingAlloc};
use osa_mdp::envs::chain::ChainEnv;
use osa_mdp::prelude::*;
use osa_nn::loss;
use osa_nn::optim::Adam;
use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_nn::workspace::Workspace;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP: usize = 10;
// 5 windows × 5 updates: the minimum window isolates the loop's own
// allocations from concurrent libtest-harness noise (see
// `min_window_allocations`); a real per-update allocation taints all 5.
const WINDOWS: usize = 5;
const UPDATES_PER_WINDOW: usize = 5;

#[test]
fn steady_state_a2c_update_is_allocation_free() {
    let env = ChainEnv::new(6);
    let cfg = A2cConfig {
        gamma: 0.95,
        rollout_len: 32,
        ..A2cConfig::default()
    };
    let mut rng = Rng::seed_from_u64(9);

    // Parameter-server side: the shared nets, optimizers and stats.
    let mut server = ActorCritic::mlp(env.num_states(), 32, 2, &mut rng);
    let mut actor_opt = Adam::new(cfg.actor_lr);
    let mut critic_opt = Adam::new(cfg.critic_lr);
    let mut episode_returns: Vec<f32> = Vec::new();
    let mut episode_lengths: Vec<usize> = Vec::new();
    episode_returns.reserve(1024);
    episode_lengths.reserve(1024);

    // Worker side: replica, collector, and the persistent buffers from
    // `worker_loop`.
    let mut local = server.replicate();
    let mut collector = Collector::new(env, &mut rng);
    let mut ro = Rollout::default();
    // The fragment shape repeats exactly, but the episode mix inside it
    // shifts as the policy learns; give the per-fragment episode vectors
    // headroom up front so amortized `Vec` growth can't masquerade as a
    // hot-path allocation.
    ro.episode_returns.reserve(64);
    ro.episode_lengths.reserve(64);
    let mut adv: Vec<f32> = Vec::new();
    let mut targets: Vec<f32> = Vec::new();
    let mut actor_params: Vec<f32> = Vec::new();
    let mut critic_params: Vec<f32> = Vec::new();
    let mut actor_grads: Vec<f32> = Vec::new();
    let mut critic_grads: Vec<f32> = Vec::new();
    let mut ws = Workspace::new();
    let mut grad_logits = Tensor::default();
    let mut target_mat = Tensor::default();
    let mut grad_values = Tensor::default();

    let mut iterate = |rng: &mut Rng| {
        // 1. Sync the replica to the server's parameters.
        server.actor.copy_params_into(&mut actor_params);
        server.critic.copy_params_into(&mut critic_params);
        local.actor.set_params_from_vec(&actor_params);
        local.critic.set_params_from_vec(&critic_params);

        // 2–4. Rollout, advantages, both backward passes.
        collector.collect_into(&mut local, cfg.rollout_len, rng, &mut ro);
        gae_into(
            &ro.rewards,
            &ro.values,
            &ro.dones,
            ro.bootstrap,
            cfg.gamma,
            cfg.lambda,
            &mut adv,
        );
        targets.clear();
        targets.extend(adv.iter().zip(&ro.values).map(|(a, v)| a + v));
        if cfg.normalize_advantages {
            normalize_advantages(&mut adv);
        }

        let obs = &ro.observations;
        let logits = local.actor.forward_ws(obs, &mut ws);
        policy_gradient_loss_into(
            &logits,
            &ro.actions,
            &adv,
            cfg.entropy_coef,
            &mut grad_logits,
        );
        ws.recycle(logits);
        let g = local.actor.backward_ws(&grad_logits, &mut ws);
        ws.recycle(g);
        local.actor.clip_grad_global_norm(cfg.max_grad_norm);

        let predicted = local.critic.forward_ws(obs, &mut ws);
        target_mat.resize_shape(targets.len(), 1);
        target_mat.data_mut().copy_from_slice(&targets);
        loss::mse_into(&predicted, &target_mat, &mut grad_values);
        ws.recycle(predicted);
        let g = local.critic.backward_ws(&grad_values, &mut ws);
        ws.recycle(g);
        local.critic.clip_grad_global_norm(cfg.max_grad_norm);

        local.actor.copy_grads_into(&mut actor_grads);
        local.critic.copy_grads_into(&mut critic_grads);

        // 5. Apply to the server and record stats.
        server.actor.set_grads_from_vec(&actor_grads);
        server.actor.step(&mut actor_opt);
        server.critic.set_grads_from_vec(&critic_grads);
        server.critic.step(&mut critic_opt);
        episode_returns.extend_from_slice(&ro.episode_returns);
        episode_lengths.extend_from_slice(&ro.episode_lengths);
    };

    for _ in 0..WARMUP {
        iterate(&mut rng);
    }

    let min = min_window_allocations(WINDOWS, UPDATES_PER_WINDOW, || iterate(&mut rng));
    assert_eq!(
        min, 0,
        "steady-state A2C training step touched the heap \
         ({min} allocations in the cleanest of {WINDOWS} windows of \
         {UPDATES_PER_WINDOW} updates)"
    );
    // Sanity: the loop above genuinely trained.
    assert!(
        !episode_returns.is_empty() && episode_returns.len() == episode_lengths.len(),
        "expected completed episodes during the measured window"
    );
}
