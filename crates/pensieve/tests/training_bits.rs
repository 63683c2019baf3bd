//! Pins the bits the training stack produces.
//!
//! The U_π/U_V ensemble is trained by `osa-mdp`'s A2C over `AbrEnv`, so
//! the committed ensemble's weights are a function of every transition,
//! sampled action and batched forward in that stack. Each case below
//! trains from a fixed seed and compares a digest of the final actor and
//! critic parameters and of the episode returns against the digest the
//! stack produced when it was pinned. A refactor of the environments,
//! the collector or the inference path must leave all of them unchanged
//! at any `OSA_THREADS`, in debug and in release.

use osa_abr::prelude::*;
use osa_mdp::prelude::*;
use osa_nn::rng::Rng;
use osa_pensieve::{PensieveAgent, PensieveConfig};
use osa_trace::Trace;

/// FNV-1a over the bit patterns of `xs`.
fn digest(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `[actor params, critic params, episode returns]` digests plus the
/// number of completed episodes.
fn digests(ac: &mut ActorCritic, report: &TrainReport) -> ([u64; 3], usize) {
    (
        [
            digest(&ac.actor.params_to_vec()),
            digest(&ac.critic.params_to_vec()),
            digest(&report.episode_returns),
        ],
        report.episode_returns.len(),
    )
}

fn chain_run(workers: usize) -> ([u64; 3], usize) {
    let env = ChainEnv::new(5);
    let mut rng = Rng::seed_from_u64(7);
    let mut ac = ActorCritic::mlp(env.num_states(), 16, 2, &mut rng);
    let cfg = A2cConfig {
        gamma: 0.95,
        workers,
        updates: 90,
        seed: 42,
        ..A2cConfig::default()
    };
    let report = train(&mut ac, &env, &cfg);
    digests(&mut ac, &report)
}

#[test]
fn chain_a2c_one_stream_keeps_its_bits() {
    assert_eq!(
        chain_run(1),
        (
            [
                0xbaa2_df22_8994_c6e3,
                0xd3f0_ac70_da01_0374,
                0x070c_4baf_85fd_db1b,
            ],
            629,
        ),
        "[actor, critic, returns] digests, episodes"
    );
}

#[test]
fn chain_a2c_three_streams_keeps_its_bits() {
    assert_eq!(
        chain_run(3),
        (
            [
                0xb502_ea59_9bff_e3ee,
                0xce3d_e2e2_5eca_01c6,
                0xede4_a24f_cd0e_9993,
            ],
            621,
        ),
        "[actor, critic, returns] digests, episodes"
    );
}

#[test]
fn context_bandit_a2c_keeps_its_bits() {
    let env = ContextBanditEnv::standard();
    let mut rng = Rng::seed_from_u64(5);
    let mut ac = ActorCritic::mlp(env.num_contexts(), 16, 3, &mut rng);
    let cfg = A2cConfig {
        gamma: 0.9,
        workers: 2,
        updates: 60,
        seed: 11,
        ..A2cConfig::default()
    };
    let report = train(&mut ac, &env, &cfg);
    assert_eq!(
        digests(&mut ac, &report),
        (
            [
                0x77be_0696_4de5_0618,
                0x12f0_76de_2cb2_3166,
                0x80ca_fb7f_7382_0c9e,
            ],
            240,
        ),
        "[actor, critic, returns] digests, episodes"
    );
}

/// A short tiny-Pensieve run over traces whose capacity varies with
/// time, so `AbrEnv`'s random start offset changes what is observed.
#[test]
fn tiny_pensieve_training_keeps_its_bits() {
    let traces: Vec<Trace> = (0..3)
        .map(|i| {
            let mbps = (0..80)
                .map(|t| 0.4 + ((t * (i + 3) + 7 * i) % 11) as f32 * 0.35)
                .collect();
            Trace::new(format!("t{i}"), 1.0, mbps)
        })
        .collect();
    let a2c = A2cConfig {
        updates: 6,
        rollout_len: 40,
        workers: 2,
        seed: 13,
        ..A2cConfig::default()
    };
    let mut agent = PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(3));
    let report =
        agent.train_on_traces(&VideoModel::envivio(), &AbrConfig::default(), &traces, &a2c);
    assert_eq!(
        digests(agent.actor_critic_mut(), &report),
        (
            [
                0xe3ec_41f0_82f1_4cc1,
                0xcb86_330a_2482_1934,
                0xa9f1_8e0e_3c3d_f68f,
            ],
            4,
        ),
        "[actor, critic, returns] digests, episodes"
    );
}
