//! The Pensieve agent/value ensemble behind U_π and U_V (§3.1).
//!
//! The paper trains i = 5 replicas of the agent from different seeds and
//! reads uncertainty off their disagreement: U_π is the KL divergence of
//! each replica's action distribution from the ensemble mean, U_V the
//! distance of each replica's value estimate from the mean value — in
//! both cases the top-2 outliers are discarded and the kept 3 averaged,
//! so one diverged replica cannot fake (or mask) uncertainty.
//!
//! # One GEMM, not five
//!
//! Every decision needs all replicas' outputs, so the ensemble snapshots
//! the replica weights into two [`StackedNet`]s (actor towers, critic
//! towers) and evaluates each layer for all replicas in a **single
//! grouped GEMM** — see `osa_nn::stacked`. `BENCH_osap.json` pins this
//! against five sequential `Sequential` forwards.
//!
//! The signals themselves are computed by the serving engine
//! ([`crate::serve`]) off its batched forwards, with the per-session
//! reductions defined at the bottom of this module. The stacked nets are
//! reference-counted, so the engines [`crate::eval`] builds to evaluate
//! or calibrate a guard share them instead of copying them.

use std::sync::Arc;

use osa_abr::{NUM_BITRATES, OBS_DIM};
use osa_nn::json::{obj, NonFiniteError, Value};
use osa_nn::quant::QuantStacked;
use osa_nn::stacked::StackedNet;
use osa_nn::tensor::{argmax, softmax_row, Tensor};
use osa_nn::workspace::Workspace;
use osa_pensieve::{PensieveAgent, PensieveConfig};

/// Serialized-ensemble format version (bumped on any layout change).
pub(crate) const ENSEMBLE_FORMAT_VERSION: u32 = 1;

/// Probability floor for the U_π KL sum (see `policy_spread`).
pub(crate) const KL_FLOOR: f32 = 1e-6;

/// A stacked ensemble of Pensieve replicas: the mean-policy actor and
/// the critic towers the serving engine runs for U_π and U_V.
pub struct PensieveEnsemble {
    cfg: PensieveConfig,
    replicas: usize,
    /// Members averaged after discarding the `replicas − keep` largest
    /// disagreements (§3.1: keep 3 of 5).
    keep: usize,
    actor: Arc<StackedNet>,
    critic: Arc<StackedNet>,
    /// Int8 copies of the nets for the offline f32-vs-int8 measurement
    /// probe, present once [`calibrate_int8`] has run. Never serves.
    ///
    /// [`calibrate_int8`]: PensieveEnsemble::calibrate_int8
    quant: Option<(QuantStacked, QuantStacked)>,
    // Reused scratch for `policy_eval` — allocation-free after warm-up.
    ws: Workspace,
    x: Tensor,
    logits: Tensor,
    probs: Tensor,
    mean_probs: Vec<f32>,
}

impl PensieveEnsemble {
    /// Snapshot trained replicas into stacked actor/critic nets. All
    /// replicas must share one architecture; needs at least 2 (no
    /// disagreement exists among fewer).
    pub fn from_agents(agents: &[PensieveAgent]) -> Result<PensieveEnsemble, String> {
        if agents.len() < 2 {
            return Err("ensemble needs at least 2 replicas".into());
        }
        let cfg = agents[0].config();
        for (r, a) in agents.iter().enumerate() {
            if a.config() != cfg {
                return Err(format!("replica {r} architecture differs from replica 0"));
            }
        }
        let actors: Vec<&osa_nn::Sequential> =
            agents.iter().map(|a| &a.actor_critic().actor).collect();
        let critics: Vec<&osa_nn::Sequential> =
            agents.iter().map(|a| &a.actor_critic().critic).collect();
        let actor = StackedNet::from_nets(&actors).map_err(|e| e.to_string())?;
        let critic = StackedNet::from_nets(&critics).map_err(|e| e.to_string())?;
        let replicas = agents.len();
        Ok(PensieveEnsemble {
            cfg,
            replicas,
            keep: replicas.saturating_sub(2).max(1),
            actor: Arc::new(actor),
            critic: Arc::new(critic),
            quant: None,
            ws: Workspace::new(),
            x: Tensor::zeros(1, OBS_DIM),
            logits: Tensor::zeros(0, 0),
            probs: Tensor::zeros(replicas, NUM_BITRATES),
            mean_probs: vec![0.0; NUM_BITRATES],
        })
    }

    pub fn replicas(&self) -> usize {
        self.replicas
    }

    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Handles on the stacked `(actor, critic)` for an engine that
    /// serves alongside this ensemble instead of consuming it. Only
    /// [`crate::eval`] takes them, for engines that never outlive the
    /// call — the invariant [`into_serving_nets`] relies on.
    ///
    /// [`into_serving_nets`]: PensieveEnsemble::into_serving_nets
    pub(crate) fn shared_nets(&self) -> (Arc<StackedNet>, Arc<StackedNet>) {
        (Arc::clone(&self.actor), Arc::clone(&self.critic))
    }

    /// Build int8 copies of the actor and critic for the offline
    /// f32-vs-int8 measurement probe (`osa_nn::quant`), calibrating
    /// per-layer activation scales on `calib` (`rows × OBS_DIM`
    /// validation-split observations — see
    /// `crate::eval::calibration_observations`). Serving stays f32:
    /// nothing in this crate runs the int8 nets.
    pub fn calibrate_int8(&mut self, calib: &Tensor) {
        let qa = QuantStacked::from_stacked(&self.actor, calib, &mut self.ws);
        let qc = QuantStacked::from_stacked(&self.critic, calib, &mut self.ws);
        self.quant = Some((qa, qc));
    }

    /// Consume the ensemble into its nets: `(actor, critic, int8 probe
    /// pair)`, for `benchmark/`'s traced shadow round. The int8 pair
    /// (present after [`calibrate_int8`]) is for offline measurement
    /// only.
    ///
    /// [`calibrate_int8`]: PensieveEnsemble::calibrate_int8
    pub fn into_serving_nets(
        self,
    ) -> (StackedNet, StackedNet, Option<(QuantStacked, QuantStacked)>) {
        let sole = |net: Arc<StackedNet>| {
            Arc::into_inner(net).expect("evaluation engines never outlive their ensemble borrow")
        };
        (sole(self.actor), sole(self.critic), self.quant)
    }

    pub fn config(&self) -> PensieveConfig {
        self.cfg
    }

    /// Stacked actor forward of one observation: per-replica softmax and
    /// the ensemble-mean distribution (see [`mean_probs`]).
    ///
    /// [`mean_probs`]: PensieveEnsemble::mean_probs
    pub fn policy_eval(&mut self, obs: &[f32]) {
        self.x.row_mut(0).copy_from_slice(obs);
        self.actor
            .forward_into(&self.x, &mut self.ws, &mut self.logits);
        for r in 0..self.replicas {
            softmax_row(self.logits.row(r), self.probs.row_mut(r));
        }
        replica_mean(&self.probs, self.replicas, 1, 0, &mut self.mean_probs);
    }

    /// Ensemble-mean action distribution of the last [`policy_eval`].
    ///
    /// [`policy_eval`]: PensieveEnsemble::policy_eval
    pub fn mean_probs(&self) -> &[f32] {
        &self.mean_probs
    }

    /// Act with the ensemble-mean policy: argmax of the mean
    /// distribution (ties → lowest level, as `osa_nn::tensor::argmax`).
    pub(crate) fn act(&mut self, obs: &[f32]) -> usize {
        self.policy_eval(obs);
        argmax(&self.mean_probs)
    }

    /// Serialize as `{format_version, replicas: [PensieveAgent docs]}`.
    /// This is the *source* representation — re-loading rebuilds the
    /// stacked nets from the replica weights, bit-exactly.
    ///
    /// A replica carrying a non-finite weight (which JSON cannot
    /// represent) surfaces as the workspace's typed [`NonFiniteError`]
    /// instead of panicking mid-save.
    pub fn agents_to_json(agents: &[PensieveAgent]) -> Result<String, NonFiniteError> {
        obj(vec![
            ("format_version", Value::Num(ENSEMBLE_FORMAT_VERSION as f64)),
            (
                "replicas",
                Value::Arr(agents.iter().map(PensieveAgent::to_value).collect()),
            ),
        ])
        .try_to_json()
    }

    /// Load the replica agents saved by [`agents_to_json`]: one parse of
    /// the text, then every replica is rebuilt from its subtree.
    ///
    /// Never panics on a corrupt artifact: parse failures, schema
    /// mismatches, and weights that are not finite `f32`s (the lexer
    /// reads an overflowing literal like `1e999` as ±∞, and `1e39` is
    /// finite in `f64` but ∞ in `f32`) all come back as `Err`, naming
    /// the replica.
    ///
    /// [`agents_to_json`]: PensieveEnsemble::agents_to_json
    pub fn agents_from_json(text: &str) -> Result<Vec<PensieveAgent>, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let version = v
            .get("format_version")
            .and_then(Value::as_usize)
            .ok_or("missing format_version")?;
        if version != ENSEMBLE_FORMAT_VERSION as usize {
            return Err(format!("unsupported ensemble format_version {version}"));
        }
        let docs = v
            .get("replicas")
            .and_then(Value::as_arr)
            .ok_or("missing replicas array")?;
        docs.iter()
            .enumerate()
            .map(|(r, d)| PensieveAgent::from_value(d).map_err(|e| format!("replica {r}: {e}")))
            .collect()
    }

    /// Load an ensemble straight from its JSON document.
    pub fn from_json(text: &str) -> Result<PensieveEnsemble, String> {
        PensieveEnsemble::from_agents(&PensieveEnsemble::agents_from_json(text)?)
    }
}

// The per-session reductions below read a replica-major batch: the
// stacked forward of `b` sessions puts replica `r` of session `s` on row
// `r·b + s`. `policy_eval` is the batch of one (`b = 1`), and the fleet
// engine calls the same functions per shard, so both produce the same
// bits.

/// Mean over session `s`'s replica rows of `t`, column by column, into
/// `out` (one entry per column).
pub(crate) fn replica_mean(t: &Tensor, replicas: usize, b: usize, s: usize, out: &mut [f32]) {
    for (j, m) in out.iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for r in 0..replicas {
            sum += t.get(r * b + s, j);
        }
        *m = sum / replicas as f32;
    }
}

/// Raw U_π of session `s` off per-replica action distributions `probs`
/// and their ensemble mean `mean`: each replica's `KL(π_r ‖ π_mean)`,
/// averaged over the `keep` smallest. `devs` is caller-owned scratch.
///
/// Actions carrying less than [`KL_FLOOR`] probability in a replica are
/// skipped and the mean is floored at the same value: trained softmaxes
/// routinely push losing actions into denormals (and a denormal divided
/// by the replica count underflows to 0), turning the textbook sum into
/// `±inf` over action mass that couldn't matter less. The floored KL
/// stays within `ln(1/KL_FLOOR)` per action of the exact value on any
/// meaningful disagreement.
pub(crate) fn policy_spread(
    probs: &Tensor,
    mean: &[f32],
    replicas: usize,
    b: usize,
    s: usize,
    keep: usize,
    devs: &mut Vec<f32>,
) -> f32 {
    devs.clear();
    for r in 0..replicas {
        let mut kl = 0.0f32;
        for (j, &p) in probs.row(r * b + s).iter().enumerate() {
            if p > KL_FLOOR {
                kl += p * (p / mean[j].max(KL_FLOOR)).ln();
            }
        }
        devs.push(kl.max(0.0));
    }
    trimmed_mean(devs, keep)
}

/// Raw U_V of session `s` off a critic forward `values` (one column):
/// each replica's distance from the mean value, averaged over the
/// `keep` smallest. `devs` is caller-owned scratch.
pub(crate) fn value_spread(
    values: &Tensor,
    replicas: usize,
    b: usize,
    s: usize,
    keep: usize,
    devs: &mut Vec<f32>,
) -> f32 {
    let mut mean = [0.0f32];
    replica_mean(values, replicas, b, s, &mut mean);
    devs.clear();
    for r in 0..replicas {
        devs.push((values.get(r * b + s, 0) - mean[0]).abs());
    }
    trimmed_mean(devs, keep)
}

/// Mean of the `keep` smallest entries (the §3.1 outlier discard),
/// sorting in place with `total_cmp` so the reduction order — and the
/// bits — never depend on the caller.
fn trimmed_mean(devs: &mut [f32], keep: usize) -> f32 {
    devs.sort_unstable_by(f32::total_cmp);
    let kept = &devs[..keep];
    kept.iter().sum::<f32>() / keep as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ENSEMBLE_KEEP, ENSEMBLE_SIZE};
    use osa_mdp::Policy;
    use osa_nn::rng::Rng;

    fn agents(n: usize) -> Vec<PensieveAgent> {
        (0..n)
            .map(|s| PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(s as u64)))
            .collect()
    }

    fn obs(seed: u64) -> Vec<f32> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..OBS_DIM).map(|_| rng.range_f32(0.0, 1.0)).collect()
    }

    #[test]
    fn mean_probs_match_per_replica_forwards() {
        let mut reps = agents(5);
        let mut ens = PensieveEnsemble::from_agents(&reps).unwrap();
        let o = obs(3);
        ens.policy_eval(&o);
        let mut expect = vec![0.0f32; NUM_BITRATES];
        let (x, mut p) = (
            Tensor::from_rows(std::slice::from_ref(&o)),
            Tensor::default(),
        );
        for a in reps.iter_mut() {
            a.actor_critic_mut().action_probs(&x, &mut p);
            for (e, &pv) in expect.iter_mut().zip(p.row(0)) {
                *e += pv / 5.0;
            }
        }
        // Conv-lowered stacked layers match the replica forward to
        // rounding, not bit-for-bit (see osa_nn::stacked docs).
        for (a, b) in ens.mean_probs().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5, "stacked {a} vs sequential {b}");
        }
    }

    /// (U_π, U_V) of one observation through the engine's reductions at
    /// a batch of one.
    fn spreads(ens: &mut PensieveEnsemble, o: &[f32]) -> (f32, f32) {
        ens.policy_eval(o);
        let (replicas, keep) = (ens.replicas, ens.keep);
        let mut devs = Vec::new();
        let u_pi = policy_spread(&ens.probs, &ens.mean_probs, replicas, 1, 0, keep, &mut devs);
        let mut values = Tensor::zeros(0, 0);
        ens.critic.forward_into(&ens.x, &mut ens.ws, &mut values);
        (u_pi, value_spread(&values, replicas, 1, 0, keep, &mut devs))
    }

    #[test]
    fn disagreement_of_identical_replicas_is_zero() {
        let one = PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(9));
        let clones: Vec<PensieveAgent> = (0..5)
            .map(|_| PensieveAgent::from_json(&one.to_json()).unwrap())
            .collect();
        let mut ens = PensieveEnsemble::from_agents(&clones).unwrap();
        let o = obs(1);
        // Mathematically zero; the mean-of-5 rounds in f32, so the KL
        // comes out at ~1e-8 rather than exactly 0.
        let (u_pi, u_v) = spreads(&mut ens, &o);
        assert!(u_pi.abs() < 1e-6 && u_v.abs() < 1e-6, "{u_pi} {u_v}");
        // Distinct replicas must actually disagree.
        let mut ens = PensieveEnsemble::from_agents(&agents(5)).unwrap();
        let (u_pi, u_v) = spreads(&mut ens, &o);
        assert!(u_pi > 0.0 && u_v > 0.0, "{u_pi} {u_v}");
    }

    #[test]
    fn ensemble_round_trips_through_json() {
        let reps = agents(3);
        let text = PensieveEnsemble::agents_to_json(&reps).unwrap();
        let loaded = PensieveEnsemble::agents_from_json(&text).unwrap();
        assert_eq!(loaded.len(), 3);
        let mut a = PensieveEnsemble::from_agents(&reps).unwrap();
        let mut b = PensieveEnsemble::from_agents(&loaded).unwrap();
        let o = obs(11);
        let (a, b) = (spreads(&mut a, &o), spreads(&mut b, &o));
        assert_eq!(
            (a.0.to_bits(), a.1.to_bits()),
            (b.0.to_bits(), b.1.to_bits())
        );
    }

    /// `doc` with the first tensor element at or after byte `from`
    /// replaced by the literal `lit`.
    fn splice_weight(doc: &str, from: usize, lit: &str) -> String {
        let key = "\"data\":[";
        let at = from + doc[from..].find(key).expect("a tensor follows") + key.len();
        let end = at + doc[at..].find([',', ']']).expect("element ends");
        format!("{}{lit}{}", &doc[..at], &doc[end..])
    }

    #[test]
    fn corrupt_artifacts_error_instead_of_panicking() {
        // Truncated document.
        assert!(PensieveEnsemble::agents_from_json("{\"format_ver").is_err());
        // Wrong version.
        assert!(
            PensieveEnsemble::agents_from_json("{\"format_version\":99,\"replicas\":[]}").is_err()
        );
        // A header number overflowed to ±∞ (the lexer accepts `1e999` as
        // inf): a replica-indexed error, not a panic.
        let good = PensieveEnsemble::agents_to_json(&agents(2)).unwrap();
        let spliced = good.replacen("\"history\":8", "\"history\":1e999", 1);
        assert_ne!(spliced, good, "corruption splice must land");
        let err = match PensieveEnsemble::agents_from_json(&spliced) {
            Err(e) => e,
            Ok(_) => panic!("non-finite number in artifact must not load"),
        };
        assert!(err.contains("replica 0"), "error names the replica: {err}");

        // A weight that is not a finite f32: `1e999` is ∞ already in f64,
        // `1e39` only after the f64 → f32 conversion. Every loader layer
        // rejects both with a typed error instead of loading an ∞ weight.
        let agent = &agents(1)[0];
        for lit in ["1e999", "1e39", "-1e39"] {
            let net = splice_weight(&agent.actor_critic().actor.to_json(), 0, lit);
            assert!(
                matches!(
                    osa_nn::NetSpec::from_json(&net),
                    Err(osa_nn::LoadError::NonFinite { index: 0, .. })
                ),
                "NetSpec accepted weight {lit}"
            );

            let doc = splice_weight(&agent.to_json(), 0, lit);
            let err = PensieveAgent::from_json(&doc)
                .err()
                .expect("agent rejects it");
            assert!(err.contains("not a finite f32"), "agent {lit}: {err}");

            // Splice into the second replica: the error must name it.
            let second = good.find("},{\"actor\"").expect("two replicas");
            let doc = splice_weight(&good, second, lit);
            let err = PensieveEnsemble::from_json(&doc)
                .err()
                .expect("ensemble rejects it");
            assert!(
                err.contains("replica 1") && err.contains("not a finite f32"),
                "ensemble {lit}: {err}"
            );
        }
    }

    #[test]
    fn keep_discards_the_top_two() {
        let ens = PensieveEnsemble::from_agents(&agents(5)).unwrap();
        assert_eq!(ens.keep(), 3);
        let mut devs = [5.0, 0.5, 100.0, 1.0, 1.5];
        assert!((trimmed_mean(&mut devs, ens.keep()) - 1.0).abs() < 1e-6);
    }

    /// Non-finite logits through the decision reductions: softmax of a
    /// replica row holding NaN or +∞ (or only −∞) is all-NaN, the
    /// ensemble mean inherits it, and `argmax` over an all-NaN mean
    /// returns level 0 — the lowest bitrate — without panicking. A lone
    /// −∞ logit is an ordinary zero-probability level.
    #[test]
    fn non_finite_logits_decide_the_lowest_level() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let finite = [0.1f32, 2.0, -1.0, 0.5, 3.0, 0.2];
        let poisoned: [[f32; NUM_BITRATES]; 5] = [
            [nan, 2.0, -1.0, 0.5, 3.0, 0.2],
            [0.1, 2.0, -1.0, 0.5, 3.0, nan],
            [0.1, inf, -1.0, 0.5, 3.0, 0.2],
            [inf, inf, -1.0, 0.5, 3.0, 0.2],
            [-inf, -inf, -inf, -inf, -inf, -inf],
        ];
        for bad in &poisoned {
            // One poisoned replica among finite ones, at every position.
            for slot in 0..ENSEMBLE_SIZE {
                let mut probs = Tensor::zeros(ENSEMBLE_SIZE, NUM_BITRATES);
                for r in 0..ENSEMBLE_SIZE {
                    let logits: &[f32] = if r == slot { bad } else { &finite };
                    softmax_row(logits, probs.row_mut(r));
                }
                assert!(probs.row(slot).iter().all(|p| p.is_nan()), "{bad:?}");
                let mut mean = [0.0f32; NUM_BITRATES];
                replica_mean(&probs, ENSEMBLE_SIZE, 1, 0, &mut mean);
                assert!(mean.iter().all(|p| p.is_nan()), "{bad:?}");
                assert_eq!(argmax(&mean), 0, "{bad:?} in replica {slot}");
            }
        }
        let mut p = [0.0f32; NUM_BITRATES];
        softmax_row(&[0.1, -f32::INFINITY, 0.3, 0.0, 0.0, 0.0], &mut p);
        assert_eq!(p[1], 0.0);
        assert!(p.iter().all(|v| v.is_finite()));
        assert_eq!(argmax(&p), 2);
    }

    /// U_V of a critic shard with any non-finite replica value is itself
    /// non-finite, whichever replica and whichever kind — so the monitor
    /// sees it (and trips on it) instead of a finite spread.
    #[test]
    fn non_finite_values_give_a_non_finite_spread() {
        let mut devs = Vec::new();
        for bad in [f32::NAN, f32::INFINITY, -f32::INFINITY] {
            for slot in 0..ENSEMBLE_SIZE {
                let mut values = Tensor::zeros(ENSEMBLE_SIZE, 1);
                for r in 0..ENSEMBLE_SIZE {
                    values.set(r, 0, if r == slot { bad } else { r as f32 * 0.25 });
                }
                for keep in 1..=ENSEMBLE_SIZE {
                    let u = value_spread(&values, ENSEMBLE_SIZE, 1, 0, keep, &mut devs);
                    assert!(!u.is_finite(), "{bad} in replica {slot}, keep {keep}: {u}");
                }
            }
        }
        let mut values = Tensor::zeros(ENSEMBLE_SIZE, 1);
        values.set(1, 0, f32::INFINITY);
        values.set(3, 0, -f32::INFINITY);
        assert!(value_spread(&values, ENSEMBLE_SIZE, 1, 0, ENSEMBLE_KEEP, &mut devs).is_nan());
    }
}
