//! End-to-end proof that the `osa-mdp` A2C trainer is correct and
//! deterministic: train the chain MDP to its known optimal policy from a
//! fixed seed, twice, in well under a second — and verify both runs agree
//! bit-for-bit.
//!
//! ```sh
//! cargo run --release --example mdp_quickstart
//! ```

use osa::mdp::envs::chain::{ChainEnv, ADVANCE};
use osa::mdp::prelude::*;
use osa::nn::prelude::{Rng, Tensor};
use osa::nn::tensor::argmax;

const GAMMA: f32 = 0.95;

fn train_once(seed: u64) -> (ActorCritic, TrainReport) {
    let env = ChainEnv::new(5);
    let mut rng = Rng::seed_from_u64(seed);
    let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
    let cfg = A2cConfig {
        gamma: GAMMA,
        updates: 500,
        seed,
        ..A2cConfig::default()
    };
    let report = train(&mut ac, &env, &cfg);
    (ac, report)
}

fn main() {
    let seed = 42;
    let env = ChainEnv::new(5);
    let start = std::time::Instant::now();
    let (mut ac, report) = train_once(seed);
    let elapsed = start.elapsed();

    println!(
        "trained {} updates / {} env steps in {elapsed:.2?} ({} episodes completed)",
        report.updates,
        report.env_steps,
        report.episode_returns.len()
    );

    // The greedy policy must advance in every non-goal state, and the
    // critic must match the closed-form optimal values.
    println!("\nstate  π(advance)  V(s)    V*(s)");
    let (mut probs, mut values) = (Tensor::default(), Vec::new());
    for s in 0..env.num_states() - 1 {
        let mut obs = Tensor::zeros(1, env.num_states());
        obs.row_mut(0)[s] = 1.0;
        ac.action_probs(&obs, &mut probs);
        ac.values(&obs, &mut values);
        let v = values[0];
        let v_star = env.optimal_value(s, GAMMA);
        println!(
            "  {s}      {:.3}     {v:+.3}  {v_star:+.3}",
            probs.row(0)[ADVANCE]
        );
        assert_eq!(
            argmax(probs.row(0)),
            ADVANCE,
            "suboptimal greedy action in state {s}"
        );
        assert!(
            (v - v_star).abs() < 0.2,
            "critic off in state {s}: {v} vs {v_star}"
        );
    }

    // Deterministic final reward: greedy rollouts earn exactly the goal
    // reward, and an identical re-run reproduces the same parameters.
    let mut rng = Rng::seed_from_u64(seed);
    let mut eval_env = env.clone();
    let returns = evaluate(&mut eval_env, &mut ac, 10, 100, true, &mut rng);
    println!("\ngreedy evaluation returns: {returns:?}");
    assert!(
        returns.iter().all(|&r| r == 1.0),
        "greedy policy must collect exactly the goal reward"
    );

    let (mut ac2, report2) = train_once(seed);
    let (mut params, mut params2) = (Vec::new(), Vec::new());
    ac.actor.copy_params_into(&mut params);
    ac2.actor.copy_params_into(&mut params2);
    assert_eq!(
        params, params2,
        "re-run diverged: training is not deterministic"
    );
    assert_eq!(report.episode_returns, report2.episode_returns);
    let returns2 = evaluate(
        &mut env.clone(),
        &mut ac2,
        10,
        100,
        true,
        &mut Rng::seed_from_u64(seed),
    );
    assert_eq!(returns, returns2, "evaluation reward not reproducible");

    assert!(
        elapsed.as_secs_f64() < 1.0,
        "chain training too slow: {elapsed:.2?}"
    );
    println!("\nOK: optimal policy recovered deterministically in {elapsed:.2?}");
}
