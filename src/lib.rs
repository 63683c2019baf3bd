//! `osa` — facade crate for the Online Safety Assurance workspace.
//!
//! Re-exports every subsystem crate under a short module name, so
//! downstream code and the `examples/` directory can write
//! `use osa::nn::prelude::*;` without naming individual workspace members.
//!
//! Subsystem status (tracked in ROADMAP.md):
//!
//! | module | crate | status |
//! |--------|-------|--------|
//! | [`runtime`] | `osa-runtime` | implemented: deterministic persistent thread pool (`parallel_for` / `parallel_for_slice`), `OSA_THREADS` budget, per-lane scratch slots |
//! | [`nn`] | `osa-nn` | implemented: tensors, Dense/Conv1d, manual backprop, Adam, JSON persistence, seeded PRNG; GEMMs row-sharded over the runtime pool |
//! | [`mdp`] | `osa-mdp` | implemented: Env/Policy/ValueFunction traits, rollouts, GAE(γ, λ), A2C trainer with synchronous parallel streams (bit-identical at any pool width) |
//! | [`trace`] | `osa-trace` | implemented: six throughput datasets (Markov-modulated mobile-like + 4 i.i.d. samplers), deterministic splits, fault injection, JSON caching; pooled corpus generation |
//! | [`abr`] | `osa-abr` | implemented: multi-session chunk-level streaming engine (trace-driven link, 80 ms RTT, EnvivioDash3-style video, §3.1 linear QoE), batched pool-parallel `step_all` bit-identical at any worker count, BB/Random baselines, `AbrEnv` adapter |
//! | [`pensieve`] | `osa-pensieve` | implemented: branched Conv1d actor-critic over the ABR state encoding, A2C training, batched greedy inference, bit-exact JSON persistence (`artifacts/pensieve_norway.json`) |
//! | [`ocsvm`] | `osa-ocsvm` | implemented: Schölkopf ν-one-class SVM (RBF kernel, SMO solver, batched fused scoring), §3.1 throughput-window feature pipeline |
//! | [`core`] | `osa-core` | implemented: `FleetEngine`, the one guarded decision path (U_S/U_π/U_V signals over a stacked 5-replica ensemble, k-window/l-consecutive monitor, Buffer-Based fallback), engine-backed evaluation and (α, l) calibration, normalized scoring |
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use osa_abr as abr;
pub use osa_core as core;
pub use osa_mdp as mdp;
pub use osa_nn as nn;
pub use osa_ocsvm as ocsvm;
pub use osa_pensieve as pensieve;
pub use osa_runtime as runtime;
pub use osa_trace as trace;

#[cfg(test)]
mod tests {
    /// The facade must expose the implemented NN engine end-to-end.
    #[test]
    fn facade_reaches_nn() {
        use crate::nn::prelude::*;
        let mut rng = Rng::seed_from_u64(1);
        let mut net = Sequential::new().with(Dense::new(2, 2, Init::XavierUniform, &mut rng));
        let y = net.forward_ws(&Tensor::from_rows(&[vec![1.0, 2.0]]), &mut Workspace::new());
        assert_eq!((y.rows(), y.cols()), (1, 2));
    }

    /// The facade must expose the MDP substrate end-to-end: traits,
    /// environments, and a (tiny) training run.
    #[test]
    fn facade_reaches_mdp() {
        use crate::mdp::envs::chain::ChainEnv;
        use crate::mdp::prelude::*;
        use crate::nn::prelude::Rng;

        let env = ChainEnv::new(3);
        let mut rng = Rng::seed_from_u64(1);
        let mut ac = ActorCritic::mlp(env.num_states(), 4, 2, &mut rng);
        let cfg = A2cConfig {
            updates: 3,
            rollout_len: 8,
            ..A2cConfig::default()
        };
        let report = train(&mut ac, &env, &cfg);
        assert_eq!(report.updates, 3);
        assert_eq!(report.env_steps, 24);
    }

    /// The facade must expose the trace dataset stack end-to-end:
    /// generation, splitting, fault injection, and the cache codec.
    #[test]
    fn facade_reaches_trace() {
        use crate::trace::prelude::*;

        let split = Split::generate(Dataset::Gamma22, 10, 20, 42);
        assert_eq!(split.len(), 10);
        let faulted = Fault::RateLimit { cap_mbps: 1.0 }.apply(&split.test[0]);
        assert!(faulted.is_wellformed());
        let text = crate::trace::io::traces_to_json(&split.train).unwrap();
        let back = crate::trace::io::traces_from_json(&text).unwrap();
        assert_eq!(back, split.train);
    }

    /// The facade must expose the deterministic runtime: per-chunk
    /// partial sums on a multi-lane pool, folded serially, must equal
    /// inline execution exactly.
    #[test]
    fn facade_reaches_runtime() {
        use crate::runtime::ThreadPool;
        let sum = |pool: ThreadPool| {
            let mut partials = vec![0usize; 13];
            pool.parallel_for_slice(&mut partials, 1, |_, first, slots| {
                for (c, slot) in (first..).zip(slots) {
                    *slot = (c * 8..((c + 1) * 8).min(100)).sum();
                }
            });
            partials.iter().sum::<usize>()
        };
        let pooled = sum(ThreadPool::new(3));
        assert_eq!(pooled, 4950);
        assert_eq!(pooled, sum(ThreadPool::new(1)));
    }

    /// The facade must expose the ABR engine and the Pensieve agent
    /// end-to-end: stream one batch of sessions and take one batched
    /// greedy decision.
    #[test]
    fn facade_reaches_abr_and_pensieve() {
        use crate::abr::prelude::*;
        use crate::nn::prelude::{Rng, Tensor};
        use crate::pensieve::{PensieveAgent, PensieveConfig};
        use crate::trace::Trace;

        let traces = vec![Trace::new("t", 1.0, vec![3.0; 10])];
        let mut sim =
            MultiSession::new(VideoModel::envivio(), AbrConfig::default(), traces, 4, true);
        let mut agent = PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(1));
        let mut obs = Tensor::zeros(4, OBS_DIM);
        let mut actions = vec![0usize; 4];
        let mut rng = Rng::seed_from_u64(2);
        sim.fill_observations(&mut obs);
        agent.decide_all(&sim, &obs, &mut actions, &mut rng);
        sim.step_all(&actions);
        assert!((0..4).all(|i| sim.chunks_total(i) == 1));
    }

    /// The facade must expose the safety layer end-to-end: a guarded
    /// fleet session trips on a variance jump and hands over to the
    /// fallback, while the same session unguarded never does.
    #[test]
    fn facade_reaches_safety_layer() {
        use crate::abr::prelude::*;
        use crate::core::prelude::*;
        use crate::nn::prelude::Rng;
        use crate::pensieve::{PensieveAgent, PensieveConfig};
        use crate::trace::Trace;

        let agents: Vec<PensieveAgent> = (0..5)
            .map(|s| PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(s)))
            .collect();
        let ens = PensieveEnsemble::from_agents(&agents).unwrap();
        let traces = [Trace::new("t", 1.0, vec![3.0; 300])];
        let (video, cfg) = (VideoModel::envivio(), AbrConfig::default());
        let signal = FleetSignal::ValueDisagreement;
        let run = |serve: &ServeConfig| evaluate(&ens, &signal, serve, &video, &cfg, &traces, true);
        // α = 0: the first full 2-window of U_V values is a jump.
        let guarded = ServeConfig {
            k: 2,
            alpha: 0.0,
            l: 1,
            ..ServeConfig::default()
        };
        let tripped = run(&guarded).remove(0);
        assert_eq!(tripped.first_trip, Some(1), "variance jump must trip");
        assert!(tripped.variance[1] > 0.0);
        let quiet = run(&ServeConfig::default()).remove(0);
        assert_eq!(quiet.first_trip, None);
        assert_eq!(quiet.chunks, tripped.chunks);
    }

    /// The domain crates' shape constants are reachable through the
    /// facade.
    #[test]
    fn facade_reaches_scaffolds() {
        assert_eq!(crate::trace::NUM_DATASETS, 6);
        assert_eq!(crate::abr::NUM_BITRATES, 6);
    }
}
