//! End-to-end trainer correctness: determinism and convergence to known
//! optima on the in-crate environments (ISSUE acceptance criterion).

use osa_mdp::envs::chain::{ChainEnv, ADVANCE};
use osa_mdp::prelude::*;
use osa_nn::rng::Rng;
use osa_nn::tensor::{argmax, Tensor};

/// `(π(·|e_i), V(e_i))` for the one-hot observation `e_i` of width `n`.
fn probs_and_value(ac: &mut ActorCritic, i: usize, n: usize) -> (Vec<f32>, f32) {
    let mut obs = Tensor::zeros(1, n);
    obs.row_mut(0)[i] = 1.0;
    let (mut probs, mut values) = (Tensor::default(), Vec::new());
    ac.action_probs(&obs, &mut probs);
    ac.values(&obs, &mut values);
    (probs.row(0).to_vec(), values[0])
}

fn chain_config(workers: usize, updates: usize) -> A2cConfig {
    A2cConfig {
        gamma: 0.95,
        workers,
        updates,
        seed: 42,
        ..A2cConfig::default()
    }
}

/// With one worker the trainer is strictly sequential, so two runs from
/// the same seed must agree bit-for-bit: every parameter and the whole
/// training curve.
#[test]
fn single_worker_training_is_bit_reproducible() {
    let run = || {
        let env = ChainEnv::new(5);
        let mut rng = Rng::seed_from_u64(7);
        let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
        let report = train(&mut ac, &env, &chain_config(1, 120));
        (
            ac.actor.params_to_vec(),
            ac.critic.params_to_vec(),
            report.episode_returns,
        )
    };
    let (a1, c1, r1) = run();
    let (a2, c2, r2) = run();
    assert_eq!(a1, a2, "actor parameters diverged across identical runs");
    assert_eq!(c1, c2, "critic parameters diverged across identical runs");
    assert_eq!(r1, r2, "training curves diverged across identical runs");
}

/// Shared helper: train on the chain and assert the greedy policy is
/// optimal in every non-goal state and the critic matches the closed-form
/// optimal values within tolerance.
fn assert_chain_converged(workers: usize) {
    let env = ChainEnv::new(5);
    let cfg = chain_config(workers, 700);
    let mut rng = Rng::seed_from_u64(1);
    let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
    let report = train(&mut ac, &env, &cfg);

    assert_eq!(report.updates, cfg.updates as u64);
    assert_eq!(report.env_steps, (cfg.updates * cfg.rollout_len) as u64);
    assert!(
        !report.episode_returns.is_empty(),
        "no episode ever completed"
    );

    // Optimal policy: advance everywhere.
    for s in 0..env.num_states() - 1 {
        let (probs, _) = probs_and_value(&mut ac, s, env.num_states());
        assert_eq!(
            argmax(&probs),
            ADVANCE,
            "workers {workers}: greedy policy suboptimal in state {s}; probs {probs:?}",
        );
    }

    // Critic close to the closed-form optimal values. The learned policy
    // stays slightly stochastic (entropy bonus), so V^π sits a little
    // below V*; 0.2 absolute tolerance covers that gap.
    for s in 0..env.num_states() - 1 {
        let (_, v) = probs_and_value(&mut ac, s, env.num_states());
        let v_star = env.optimal_value(s, cfg.gamma);
        assert!(
            (v - v_star).abs() < 0.2,
            "workers {workers}: critic off in state {s}: {v} vs V* {v_star}"
        );
    }

    // The training curve actually improved. Undiscounted chain returns
    // are ≈ 1.0 for any policy that eventually reaches the goal, so the
    // separating signal is episode *length*: a random walk takes many
    // steps, the optimal policy exactly n − 1 = 4.
    let n = report.episode_lengths.len();
    let early: f32 = report.episode_lengths[..n / 4].iter().sum::<usize>() as f32 / (n / 4) as f32;
    let late_lens = &report.episode_lengths[n - n / 4..];
    let late: f32 = late_lens.iter().sum::<usize>() as f32 / late_lens.len() as f32;
    assert!(
        late < early,
        "workers {workers}: episodes did not shorten: early {early} vs late {late}"
    );
    assert!(
        late < 4.5,
        "workers {workers}: late episodes average {late} steps, optimum is 4"
    );
}

#[test]
fn single_worker_chain_training_reaches_known_optimum() {
    assert_chain_converged(1);
}

/// The acceptance-criterion test: asynchronous multi-worker training
/// recovers the chain MDP's known optimal policy and critic values.
#[test]
fn multi_worker_chain_training_reaches_known_optimum() {
    assert_chain_converged(4);
}

/// The noisy stateful-bandit env: the trainer must average away N(0, σ²)
/// reward noise and pick the best arm in every context.
#[test]
fn bandit_training_finds_best_arm_in_every_context() {
    let env = ContextBanditEnv::standard();
    let cfg = A2cConfig {
        gamma: 0.9,
        workers: 2,
        updates: 600,
        seed: 11,
        ..A2cConfig::default()
    };
    let mut rng = Rng::seed_from_u64(5);
    let mut ac = ActorCritic::mlp(env.num_contexts(), 16, 3, &mut rng);
    let report = train(&mut ac, &env, &cfg);

    for c in 0..env.num_contexts() {
        let (probs, _) = probs_and_value(&mut ac, c, env.num_contexts());
        assert_eq!(
            argmax(&probs),
            env.best_arm(c),
            "wrong arm in context {c}; probs {probs:?}",
        );
    }

    // Optimal play earns ~1.0/step over 8-step episodes; an untrained
    // uniform policy earns ~0. Require most of that headroom.
    let recent = report.recent_mean_return(50);
    assert!(recent > 5.0, "recent mean return only {recent}");
}

/// Different seeds must explore differently: the RNG streams are really
/// worker/seed-dependent, not accidentally shared.
#[test]
fn different_seeds_give_different_training_runs() {
    let run = |seed: u64| {
        let env = ChainEnv::new(5);
        let mut rng = Rng::seed_from_u64(9);
        let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
        let cfg = A2cConfig {
            seed,
            ..chain_config(1, 60)
        };
        train(&mut ac, &env, &cfg);
        ac.actor.params_to_vec()
    };
    assert_ne!(run(1), run(2), "distinct seeds produced identical training");
}
