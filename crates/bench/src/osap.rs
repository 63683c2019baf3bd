//! Shared OSAP experiment setup for the figure binaries and the
//! `osap_signals` microbench.
//!
//! Everything downstream of the committed ensemble artifact is built
//! here exactly once: the Norway corpus contract (shared with
//! `examples/osap_ensemble_train.rs`), the §3.1 U_S feature harvest +
//! one-class SVM fit, and the three uncertainty signals wrapped into
//! boxed [`AbrSafeAgent`]s so figure binaries can sweep them uniformly.
//! Every piece is deterministic — same artifact, same corpus, same
//! bits, at any `OSA_THREADS`.

use osa_abr::prelude::*;
use osa_abr::HISTORY_LEN;
use osa_core::prelude::*;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;
use osa_trace::prelude::*;

/// Corpus contract shared with `examples/osap_ensemble_train.rs` and
/// `crates/core/tests/ensemble_artifact.rs`.
pub const CORPUS_COUNT: usize = 60;
pub const CORPUS_LEN: usize = 400;
pub const CORPUS_SEED: u64 = 2020;

/// Train traces harvested for the U_S feature corpus. More data is
/// strictly kinder to the classic-ND baseline's accuracy — but its
/// support-vector count (and so its per-decision cost) grows with the
/// corpus, which is the runtime asymmetry `BENCH_osap.json` records:
/// U_π/U_V cost is constant in corpus size.
pub const US_FIT_TRACES: usize = 16;

/// The committed 5-replica ensemble (regenerate with
/// `cargo run --release --example osap_ensemble_train`).
pub const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

pub fn corpus() -> Split {
    Split::generate(Dataset::Norway, CORPUS_COUNT, CORPUS_LEN, CORPUS_SEED)
}

pub fn load_ensemble() -> SharedEnsemble {
    let text = std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`");
    shared(PensieveEnsemble::from_json(&text).expect("valid ensemble artifact"))
}

/// Taps the newest throughput sample (observation column
/// `HISTORY_LEN − 1`, rescaled back to Mbit/s) while the wrapped agent
/// streams — the raw material of the §3.1 feature pipeline.
pub struct RateCollector {
    pub rates: Vec<f32>,
}

impl UncertaintySignal for RateCollector {
    fn name(&self) -> &'static str {
        "rate-collector"
    }
    fn observe(&mut self, obs: &[f32]) -> f32 {
        self.rates.push(obs[HISTORY_LEN - 1] * 10.0);
        0.0
    }
    fn reset(&mut self) {}
}

/// Harvest in-distribution throughput windows under the ensemble-mean
/// policy over the first [`US_FIT_TRACES`] of `traces` and fit the U_S
/// one-class SVM on them.
pub fn fit_us_svm(
    ens: &SharedEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> OcSvm {
    let mut collector = abr_safe_agent(
        ens.clone(),
        RateCollector { rates: Vec::new() },
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let mut windows: Vec<[f32; FEATURE_DIM]> = Vec::new();
    for t in &traces[..US_FIT_TRACES.min(traces.len())] {
        run_session(&mut collector, video, cfg, t);
        windows.extend(window_features(&collector.signal().rates));
    }
    let mut x = Tensor::zeros(windows.len(), FEATURE_DIM);
    for (i, w) in windows.iter().enumerate() {
        x.row_mut(i).copy_from_slice(w);
    }
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(&x);
    svm
}

/// A boxed uncertainty signal, so the three signals share one type.
pub type DynSignal = Box<dyn UncertaintySignal>;

/// A safe agent over any of the three signals, uniformly typed so
/// figure binaries can iterate over them.
pub type DynSignalAgent = AbrSafeAgent<DynSignal>;

/// The paper's three signals as boxed safe agents with α = ∞ (deploy
/// [`calibrated_signal_agents`] for tripping behavior). Order is the
/// paper's: U_S (classic novelty detection), U_π, U_V.
pub fn signal_agents(ens: &SharedEnsemble, svm: OcSvm) -> Vec<(&'static str, DynSignalAgent)> {
    let signals: Vec<(&'static str, DynSignal)> = vec![
        ("u_s", Box::new(NoveltySignal::new(svm))),
        ("u_pi", Box::new(PolicyDisagreement::new(ens.clone()))),
        ("u_v", Box::new(ValueDisagreement::new(ens.clone()))),
    ];
    signals
        .into_iter()
        .map(|(name, signal)| {
            (
                name,
                abr_safe_agent(
                    ens.clone(),
                    signal,
                    Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
                ),
            )
        })
        .collect()
}

/// Resolve (and create) the figure-artifact directory, returning the
/// path for one figure's JSON.
pub fn figure_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../artifacts/figures"
    ));
    std::fs::create_dir_all(dir).expect("create artifacts/figures");
    dir.join(name)
}

/// The out-of-distribution scenario suite shared by the shift figures:
/// six Belgium 4G sessions (the paper's trained-on-Norway, deployed-on-
/// Belgium shift) plus three fault injections on a held-out Norway
/// trace.
pub fn ood_scenarios(split: &Split) -> Vec<(String, Trace)> {
    let mut scenarios: Vec<(String, Trace)> = Dataset::Belgium
        .generate(6, CORPUS_LEN, 77)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (format!("belgium{i}"), t))
        .collect();
    let base = &split.test[0];
    scenarios.push((
        "outage".into(),
        inject(
            base,
            &[Fault::Outage {
                start: 60,
                duration: 60,
            }],
        ),
    ));
    scenarios.push((
        "rate_cap".into(),
        inject(base, &[Fault::RateLimit { cap_mbps: 0.2 }]),
    ));
    scenarios.push((
        "spike".into(),
        inject(
            base,
            &[Fault::Spike {
                start: 60,
                duration: 300,
                factor: 20.0,
            }],
        ),
    ));
    scenarios
}

/// [`signal_agents`], each calibrated on `traces` at `margin`.
pub fn calibrated_signal_agents(
    ens: &SharedEnsemble,
    svm: OcSvm,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    margin: f32,
) -> Vec<(&'static str, DynSignalAgent, Calibration)> {
    signal_agents(ens, svm)
        .into_iter()
        .map(|(name, mut agent)| {
            let cal = calibrate(&mut agent, video, cfg, traces, margin);
            (name, agent, cal)
        })
        .collect()
}
