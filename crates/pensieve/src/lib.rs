//! `osa-pensieve` — the learned ABR policy (DESIGN.md §1 row 5).
//!
//! Reimplements Pensieve on top of [`osa_nn`] and [`osa_mdp`]:
//!
//! - the paper's state encoding comes from
//!   [`osa_abr::sim::MultiSession::fill_observations`] / `AbrEnv` —
//!   past-throughput and download-time histories, next-chunk sizes,
//!   buffer, chunks remaining, and previous bitrate
//!   ([`osa_abr::OBS_DIM`] = 25 columns);
//! - actor and critic are built from per-feature [`Conv1d`] branches
//!   (one per history window, one over the next-chunk size ladder)
//!   merged with a dense branch over the three scalars, then a dense
//!   merge layer and a linear head — the Pensieve architecture, with a
//!   configurable filter count so CI can train a reduced-scale agent
//!   (DESIGN.md §2.3) while [`PensieveConfig::paper`] matches the
//!   original 128-filter network;
//! - training delegates to the workspace's synchronous-streams A2C
//!   ([`osa_mdp::a2c::train`]) over [`AbrEnv`], so runs are
//!   bit-identical at any pool width;
//! - inference is one batched [`osa_mdp::Policy::action_probs`] forward
//!   followed by a per-row [`osa_nn::tensor::argmax`], allocation-free
//!   after warm-up, exposed as an [`osa_abr::AbrPolicy`];
//! - [`PensieveAgent::to_json`] / [`PensieveAgent::from_json`] persist
//!   the agent through the bit-exact `osa_nn` model format.
#![forbid(unsafe_code)]

use osa_abr::policy::AbrPolicy;
use osa_abr::sim::{AbrConfig, MultiSession};
use osa_abr::video::VideoModel;
use osa_abr::{AbrEnv, HISTORY_LEN as ABR_HISTORY_LEN, NUM_BITRATES, OBS_DIM};
use osa_mdp::a2c::{train, A2cConfig, ActorCritic, TrainReport};
use osa_mdp::Policy;
use osa_nn::json::{obj, Value};
use osa_nn::prelude::{
    Act, Branch, Branches, Conv1d, Dense, Init, LayerSpec, Rng, Sequential, Tensor,
};
use osa_nn::tensor::argmax;
use osa_trace::Trace;

/// Length of the throughput / download-time history windows in the
/// Pensieve state encoding (fixed by the `osa_abr` observation layout).
pub const HISTORY_LEN: usize = ABR_HISTORY_LEN;

/// Hidden width of the dense merge layer in the paper's networks.
pub const MERGE_UNITS: usize = 128;

/// Kernel width of the history convolutions (the paper's 1-D CNN uses
/// width-4 filters over the 8-sample windows).
pub const CONV_KERNEL: usize = 4;

/// Serialized-agent format version (bumped on any layout change).
pub const FORMAT_VERSION: u32 = 1;

/// Architecture hyper-parameters for [`PensieveAgent`].
///
/// `Default` is the reduced-scale network the workspace trains in CI on
/// a single core; [`PensieveConfig::paper`] is the original Pensieve
/// size; [`PensieveConfig::tiny`] is the quickstart/smoke size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PensieveConfig {
    /// Output channels of each Conv1d branch (paper: 128).
    pub filters: usize,
    /// Width of the dense merge layer (paper: 128).
    pub merge: usize,
}

impl Default for PensieveConfig {
    fn default() -> Self {
        PensieveConfig {
            filters: 16,
            merge: MERGE_UNITS,
        }
    }
}

impl PensieveConfig {
    /// The original Pensieve network size (128 filters, 128 merge).
    pub fn paper() -> Self {
        PensieveConfig {
            filters: 128,
            merge: MERGE_UNITS,
        }
    }

    /// Smallest useful network, for quickstarts and smoke tests.
    pub fn tiny() -> Self {
        PensieveConfig {
            filters: 4,
            merge: 16,
        }
    }

    /// Width of the concatenated branch outputs feeding the merge
    /// layer: two history convs (out_len 5), the size-ladder conv
    /// (out_len 3), and the scalar dense branch (width `filters`).
    pub fn merge_in(&self) -> usize {
        let hist_out = HISTORY_LEN - CONV_KERNEL + 1; // 5
        let sizes_out = NUM_BITRATES - CONV_KERNEL + 1; // 3
        (2 * hist_out + sizes_out + 1) * self.filters
    }
}

/// Build one Pensieve tower: per-feature branches over the `osa_abr`
/// observation layout → dense merge → linear head of `out_dim` units.
///
/// Branch column spans must tile the observation exactly:
/// `[0,8)` throughput history, `[8,16)` delay history, `[16,22)`
/// next-chunk sizes, `[22,25)` scalars.
fn build_tower(cfg: &PensieveConfig, out_dim: usize, rng: &mut Rng) -> Sequential {
    let f = cfg.filters;
    let conv = |len: usize, rng: &mut Rng| {
        Conv1d::new(1, len, f, CONV_KERNEL, Init::HeUniform, rng).with_act(Act::Relu)
    };
    let branches = Branches::new(vec![
        Branch::from(conv(HISTORY_LEN, rng)),
        Branch::from(conv(HISTORY_LEN, rng)),
        Branch::from(conv(NUM_BITRATES, rng)),
        Branch::from(Dense::new(3, f, Init::HeUniform, rng).with_act(Act::Relu)),
    ]);
    assert_eq!(
        branches.in_dim(),
        OBS_DIM,
        "branches must tile the observation"
    );
    assert_eq!(branches.out_dim(), cfg.merge_in());
    Sequential::new()
        .with(branches)
        .with(Dense::new(cfg.merge_in(), cfg.merge, Init::HeUniform, rng).with_act(Act::Relu))
        .with(Dense::new(cfg.merge, out_dim, Init::XavierUniform, rng))
}

/// Input/output width of one layer spec, `None` for shape-preserving
/// activation layers and for widths that overflow `usize` (a forged
/// document; the missing entry then fails the architecture check).
fn spec_dims(spec: &LayerSpec) -> Option<(usize, usize)> {
    match spec {
        LayerSpec::Dense { w, .. } => Some((w.rows(), w.cols())),
        LayerSpec::Conv1d {
            in_channels,
            length,
            out_channels,
            kernel,
            ..
        } => Some((
            in_channels.checked_mul(*length)?,
            out_channels.checked_mul(length - kernel + 1)?,
        )),
        LayerSpec::Branches { parts } => {
            let mut dims = (0usize, 0usize);
            for p in parts {
                let (i, o) = spec_dims(p)?;
                dims = (dims.0.checked_add(i)?, dims.1.checked_add(o)?);
            }
            Some(dims)
        }
        LayerSpec::ReLU | LayerSpec::Softmax => None,
    }
}

/// The (input, output) widths of every sized layer in a network, in
/// order, read off its spec.
fn sized_dims(net: &Sequential) -> Vec<(usize, usize)> {
    net.to_spec().layers.iter().filter_map(spec_dims).collect()
}

/// A Pensieve actor-critic: branched towers wrapped in the workspace's
/// [`ActorCritic`] so they ride the standard trainer, workspace
/// pooling, and persistence.
pub struct PensieveAgent {
    cfg: PensieveConfig,
    ac: ActorCritic,
    /// Scratch for batched inference; reused across `decide_all` calls
    /// so steady-state decisions are allocation-free.
    probs: Tensor,
}

impl PensieveAgent {
    /// Fresh agent with randomly initialized towers.
    pub fn new(cfg: PensieveConfig, rng: &mut Rng) -> Self {
        let actor = build_tower(&cfg, NUM_BITRATES, rng);
        let critic = build_tower(&cfg, 1, rng);
        PensieveAgent {
            cfg,
            ac: ActorCritic::from_nets(actor, critic),
            probs: Tensor::zeros(0, 0),
        }
    }

    pub fn config(&self) -> PensieveConfig {
        self.cfg
    }

    /// The underlying actor-critic, read-only (e.g. for snapshotting
    /// weights into a [`osa_nn::stacked::StackedNet`] ensemble).
    pub fn actor_critic(&self) -> &ActorCritic {
        &self.ac
    }

    /// The underlying actor-critic (e.g. for custom rollout loops).
    pub fn actor_critic_mut(&mut self) -> &mut ActorCritic {
        &mut self.ac
    }

    /// Train with the synchronous-streams A2C on an [`AbrEnv`] over
    /// `traces` (random trace choice and start offset per episode).
    /// Deterministic for a given `a2c` config at any pool width.
    pub fn train_on_traces(
        &mut self,
        video: &VideoModel,
        abr_cfg: &AbrConfig,
        traces: &[Trace],
        a2c: &A2cConfig,
    ) -> TrainReport {
        let env = AbrEnv::new(video.clone(), abr_cfg.clone(), traces.to_vec());
        train(&mut self.ac, &env, a2c)
    }

    /// Serialize to the workspace JSON model format: architecture
    /// hyper-parameters plus both towers as `osa_nn` net documents.
    /// Bit-exact: `from_json(to_json())` reproduces identical weights.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The document tree behind [`PensieveAgent::to_json`].
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("format_version", Value::Num(FORMAT_VERSION as f64)),
            ("history", Value::Num(HISTORY_LEN as f64)),
            ("filters", Value::Num(self.cfg.filters as f64)),
            ("merge", Value::Num(self.cfg.merge as f64)),
            ("actor", self.ac.actor.to_spec().to_value()),
            ("critic", self.ac.critic.to_spec().to_value()),
        ])
    }

    /// Load an agent saved by [`PensieveAgent::to_json`].
    pub fn from_json(text: &str) -> Result<PensieveAgent, String> {
        PensieveAgent::from_value(&Value::parse(text).map_err(|e| e.to_string())?)
    }

    /// Load an agent from its already-parsed document tree (e.g. one
    /// replica of an ensemble artifact). Rejects a wrong version or
    /// history length, non-finite weights, and towers whose layer widths
    /// contradict the declared `filters`/`merge`.
    pub fn from_value(v: &Value) -> Result<PensieveAgent, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_usize()
                .ok_or_else(|| format!("field {k:?} must be a non-negative integer"))
        };
        let version = num("format_version")?;
        if version != FORMAT_VERSION as usize {
            return Err(format!("unsupported format_version {version}"));
        }
        let history = num("history")?;
        if history != HISTORY_LEN {
            return Err(format!(
                "history {history} does not match the observation layout ({HISTORY_LEN})"
            ));
        }
        let cfg = PensieveConfig {
            filters: num("filters")?,
            merge: num("merge")?,
        };
        let actor = Sequential::from_value(field("actor")?).map_err(|e| format!("actor: {e}"))?;
        let critic =
            Sequential::from_value(field("critic")?).map_err(|e| format!("critic: {e}"))?;
        // The loaded weights must realize exactly the architecture the
        // header declares — a tower that merely maps OBS_DIM to the
        // right output width but with different internal widths would
        // silently disagree with `cfg` (e.g. a forged `filters` field).
        for (name, net, out) in [("actor", &actor, NUM_BITRATES), ("critic", &critic, 1)] {
            let dims = sized_dims(net);
            let expected = vec![
                (OBS_DIM, cfg.merge_in()),
                (cfg.merge_in(), cfg.merge),
                (cfg.merge, out),
            ];
            if dims != expected {
                return Err(format!(
                    "{name} tower layers are {dims:?}, but the declared \
                     filters/merge require {expected:?}"
                ));
            }
        }
        Ok(PensieveAgent {
            cfg,
            ac: ActorCritic::from_nets(actor, critic),
            probs: Tensor::zeros(0, 0),
        })
    }
}

impl AbrPolicy for PensieveAgent {
    fn name(&self) -> &'static str {
        "Pensieve"
    }

    /// One batched forward pass, then per-row argmax (ties → lowest
    /// level).
    fn decide_all(
        &mut self,
        _sim: &MultiSession,
        obs: &Tensor,
        actions: &mut [usize],
        _rng: &mut Rng,
    ) {
        self.ac.action_probs(obs, &mut self.probs);
        for (i, a) in actions.iter_mut().enumerate() {
            *a = argmax(self.probs.row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_mdp::ValueFunction;

    fn rng() -> Rng {
        Rng::seed_from_u64(17)
    }

    fn random_obs(rows: usize, rng: &mut Rng) -> Tensor {
        let mut t = Tensor::zeros(rows, OBS_DIM);
        for x in t.data_mut() {
            *x = rng.range_f32(0.0, 1.0);
        }
        t
    }

    #[test]
    fn towers_have_the_documented_shapes() {
        let cfg = PensieveConfig::default();
        assert_eq!(cfg.merge_in(), 14 * cfg.filters);
        let mut agent = PensieveAgent::new(cfg, &mut rng());
        let expect = |out| {
            vec![
                (OBS_DIM, cfg.merge_in()),
                (cfg.merge_in(), cfg.merge),
                (cfg.merge, out),
            ]
        };
        assert_eq!(sized_dims(&agent.ac.actor), expect(NUM_BITRATES));
        assert_eq!(sized_dims(&agent.ac.critic), expect(1));

        let obs = random_obs(3, &mut rng());
        let mut probs = Tensor::zeros(0, 0);
        agent.ac.action_probs(&obs, &mut probs);
        assert_eq!((probs.rows(), probs.cols()), (3, NUM_BITRATES));
        for r in 0..3 {
            let sum: f32 = probs.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        let mut values = Vec::new();
        agent.ac.values(&obs, &mut values);
        assert_eq!(values.len(), 3);
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let mut agent = PensieveAgent::new(PensieveConfig::tiny(), &mut rng());
        let json = agent.to_json();
        let mut twin = PensieveAgent::from_json(&json).unwrap();
        assert_eq!(twin.config(), agent.config());
        assert_eq!(twin.to_json(), json, "second save must be byte-identical");

        let obs = random_obs(4, &mut rng());
        let (mut a, mut b) = (Tensor::zeros(0, 0), Tensor::zeros(0, 0));
        agent.ac.action_probs(&obs, &mut a);
        twin.ac.action_probs(&obs, &mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn from_json_rejects_mismatched_documents() {
        let agent = PensieveAgent::new(PensieveConfig::tiny(), &mut rng());
        let json = agent.to_json();
        assert!(PensieveAgent::from_json("{}").is_err());
        assert!(PensieveAgent::from_json(&json.replace("\"history\":8", "\"history\":4")).is_err());
        assert!(PensieveAgent::from_json(
            &json.replace("\"format_version\":1", "\"format_version\":9")
        )
        .is_err());
        // A header that contradicts the stored weights must be rejected,
        // not silently accepted with a config/weights mismatch.
        let forged = json.replacen("\"filters\":4", "\"filters\":8", 1);
        assert_ne!(forged, json, "replacen must hit the filters field");
        assert!(PensieveAgent::from_json(&forged).is_err());
        // A conv length whose output width overflows usize is rejected,
        // not wrapped (or, in debug builds, a panic).
        let forged = json.replacen("\"length\":8", "\"length\":9223372036854775808", 1);
        assert_ne!(forged, json, "replacen must hit a conv length");
        assert!(PensieveAgent::from_json(&forged).is_err());
    }

    #[test]
    fn decide_all_matches_per_row_greedy() {
        let mut agent = PensieveAgent::new(PensieveConfig::tiny(), &mut rng());
        let video = VideoModel::envivio();
        let traces = vec![Trace::new("t", 1.0, vec![2.0; 20])];
        let sim = MultiSession::new(video, AbrConfig::default(), traces, 5, true);
        let mut obs = random_obs(5, &mut rng());
        sim.fill_observations(&mut obs);
        let mut actions = vec![0usize; 5];
        let mut r = rng();
        agent.decide_all(&sim, &obs, &mut actions, &mut r);
        let (mut row, mut probs) = (Tensor::zeros(1, OBS_DIM), Tensor::default());
        for (i, &a) in actions.iter().enumerate() {
            assert!(a < NUM_BITRATES);
            row.row_mut(0).copy_from_slice(obs.row(i));
            agent.ac.action_probs(&row, &mut probs);
            assert_eq!(a, argmax(probs.row(0)), "row {i}");
        }
    }

    #[test]
    fn tiny_training_run_improves_and_is_deterministic() {
        let video = VideoModel::envivio();
        let abr_cfg = AbrConfig::default();
        let traces: Vec<Trace> = (0..3)
            .map(|i| Trace::new(format!("t{i}"), 1.0, vec![1.0 + i as f32; 60]))
            .collect();
        let a2c = A2cConfig {
            updates: 4,
            rollout_len: 24,
            workers: 2,
            seed: 5,
            ..A2cConfig::default()
        };
        let run = || {
            let mut agent = PensieveAgent::new(PensieveConfig::tiny(), &mut rng());
            let report = agent.train_on_traces(&video, &abr_cfg, &traces, &a2c);
            (agent.to_json(), report.env_steps)
        };
        let (json_a, steps_a) = run();
        let (json_b, steps_b) = run();
        assert_eq!(steps_a, steps_b);
        assert_eq!(json_a, json_b, "training must be deterministic");
        // `updates` counts gradient updates across all streams: one
        // rollout fragment is consumed per update.
        assert_eq!(steps_a, 4 * 24);
    }
}
