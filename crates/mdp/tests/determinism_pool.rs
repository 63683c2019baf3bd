//! End-to-end determinism sweep for the parallel trainer: the bits of
//! the final parameters — and the whole training curve — must depend
//! only on the config, never on the thread pool executing it. This is
//! the contract that lets CI exercise pooled code paths (`OSA_THREADS=4`)
//! while every seeded gate keeps its pinned outputs.

use osa_mdp::prelude::*;
use osa_nn::prelude::Rng;
use osa_runtime::ThreadPool;

fn run(pool_workers: usize, cfg: &A2cConfig) -> (Vec<f32>, Vec<f32>, TrainReport) {
    let env = ChainEnv::new(5);
    let mut rng = Rng::seed_from_u64(99);
    let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
    let pool = ThreadPool::new(pool_workers);
    let report = train_with_pool(&mut ac, &env, cfg, &pool);
    let (mut actor, mut critic) = (Vec::new(), Vec::new());
    ac.actor.copy_params_into(&mut actor);
    ac.critic.copy_params_into(&mut critic);
    (actor, critic, report)
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

/// Chain-MDP A2C with 4 logical streams: final actor/critic parameters
/// and the full episode statistics are bit-identical for pools of 1, 2,
/// and 4 workers. 61 updates over 4 streams makes the final round
/// partial (one stream applied), covering the tail-truncation path.
#[test]
fn final_parameters_are_bit_identical_across_pool_sizes() {
    let cfg = A2cConfig {
        workers: 4,
        updates: 61,
        rollout_len: 16,
        seed: 7,
        ..A2cConfig::default()
    };
    let (actor_ref, critic_ref, report_ref) = run(1, &cfg);
    assert_eq!(report_ref.updates, 61);
    assert_eq!(report_ref.env_steps, 61 * 16);
    for pool_workers in [2, 4] {
        let (actor, critic, report) = run(pool_workers, &cfg);
        assert_bits_eq(
            &actor,
            &actor_ref,
            &format!("actor params, pool {pool_workers}"),
        );
        assert_bits_eq(
            &critic,
            &critic_ref,
            &format!("critic params, pool {pool_workers}"),
        );
        assert_bits_eq(
            &report.episode_returns,
            &report_ref.episode_returns,
            &format!("episode returns, pool {pool_workers}"),
        );
        assert_eq!(report.episode_lengths, report_ref.episode_lengths);
        assert_eq!(report.env_steps, report_ref.env_steps);
        assert_eq!(
            report.final_policy_loss.to_bits(),
            report_ref.final_policy_loss.to_bits()
        );
        assert_eq!(
            report.final_value_loss.to_bits(),
            report_ref.final_value_loss.to_bits()
        );
    }
}

/// Pool-size invariance must also hold when streams don't divide evenly
/// across lanes (3 streams on 2 lanes) and when the pool is wider than
/// the stream count (3 streams on 8 lanes, some lanes idle).
#[test]
fn uneven_stream_to_lane_mappings_change_nothing() {
    let cfg = A2cConfig {
        workers: 3,
        updates: 24,
        rollout_len: 12,
        seed: 21,
        ..A2cConfig::default()
    };
    let (actor_ref, critic_ref, _) = run(1, &cfg);
    for pool_workers in [2, 8] {
        let (actor, critic, _) = run(pool_workers, &cfg);
        assert_bits_eq(
            &actor,
            &actor_ref,
            &format!("actor params, pool {pool_workers}"),
        );
        assert_bits_eq(
            &critic,
            &critic_ref,
            &format!("critic params, pool {pool_workers}"),
        );
    }
}

/// The `train` entry point must honour a `with_pool` override, so
/// callers who never thread a pool through still sweep deterministically.
#[test]
fn train_honours_with_pool_override() {
    let cfg = A2cConfig {
        workers: 2,
        updates: 10,
        rollout_len: 8,
        seed: 3,
        ..A2cConfig::default()
    };
    let (actor_ref, _, _) = run(1, &cfg);
    let env = ChainEnv::new(5);
    let mut rng = Rng::seed_from_u64(99);
    let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
    let pool = ThreadPool::new(4);
    osa_runtime::with_pool(&pool, || train(&mut ac, &env, &cfg));
    let mut actor = Vec::new();
    ac.actor.copy_params_into(&mut actor);
    assert_bits_eq(&actor, &actor_ref, "actor params via train()");
}
