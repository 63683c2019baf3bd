//! Shared OSAP experiment setup for the figure binaries and the
//! `osap_signals` microbench.
//!
//! Everything downstream of the committed ensemble artifact is built
//! here exactly once: the Norway corpus contract (shared with
//! `examples/osap_ensemble_train.rs`), the §3.1 U_S feature harvest +
//! one-class SVM fit, and the three uncertainty signals as calibrated
//! [`Guard`]s so figure binaries can sweep them uniformly. Every guard
//! runs on the serving engine ([`evaluate`]). Every piece is
//! deterministic — same artifact, same corpus, same bits, at any
//! `OSA_THREADS`.

use osa_abr::prelude::*;
use osa_core::prelude::*;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;
use osa_trace::prelude::*;

/// Corpus contract shared with `examples/osap_ensemble_train.rs` and
/// `crates/core/tests/ensemble_artifact.rs`.
pub(crate) const CORPUS_COUNT: usize = 60;
pub const CORPUS_LEN: usize = 400;
pub const CORPUS_SEED: u64 = 2020;

/// Train traces harvested for the U_S feature corpus. More data is
/// strictly kinder to the classic-ND baseline's accuracy — but its
/// support-vector count (and so its per-decision cost) grows with the
/// corpus, which is the runtime asymmetry `BENCH_osap.json` records:
/// U_π/U_V cost is constant in corpus size.
pub(crate) const US_FIT_TRACES: usize = 16;

/// The committed 5-replica ensemble (regenerate with
/// `cargo run --release --example osap_ensemble_train`).
pub const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

pub fn corpus() -> Split {
    Split::generate(Dataset::Norway, CORPUS_COUNT, CORPUS_LEN, CORPUS_SEED)
}

pub fn load_ensemble() -> PensieveEnsemble {
    let text = std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`");
    PensieveEnsemble::from_json(&text).expect("valid ensemble artifact")
}

/// The §3.1 U_S feature corpus: throughput windows harvested under the
/// unguarded ensemble-mean policy over the first `US_FIT_TRACES` of
/// `traces`. The per-decision throughput series are concatenated in
/// trace order, and the windows of every prefix that ends at a trace
/// boundary are taken — trace 1, traces 1–2, … — so early traces recur.
/// That is the corpus the deployed fit was made on, and the calibrated
/// α of every figure depends on its exact windows.
pub fn us_feature_corpus(
    ens: &PensieveEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> Tensor {
    let fit = &traces[..US_FIT_TRACES.min(traces.len())];
    let runs = evaluate(
        ens,
        &FleetSignal::Null,
        &ServeConfig::default(),
        video,
        cfg,
        fit,
        true,
    );
    let mut rates: Vec<f32> = Vec::new();
    let mut x = Tensor::zeros(0, FEATURE_DIM);
    for run in &runs {
        rates.extend_from_slice(&run.tput_mbps);
        for w in window_features(&rates) {
            x.push_row(&w);
        }
    }
    x
}

/// Fit the U_S one-class SVM on [`us_feature_corpus`].
///
/// # Panics
/// If the corpus is empty or holds a non-finite window. It is finite by
/// construction: a window holds means and standard deviations of
/// measured throughputs, and every measured throughput is a finite
/// positive rate because the simulator rejects zero-capacity traces. It
/// is non-empty whenever one session is long enough for a window, which
/// every video of the paper's setup is.
pub fn fit_svm(
    ens: &PensieveEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> OcSvm {
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(&us_feature_corpus(ens, video, cfg, traces))
        .expect("the U_S corpus is a non-empty set of finite windows");
    svm
}

/// [`fit_svm`] on a shared ensemble. Kept for `benchmark/` until the
/// ROADMAP item 2 benchmark PR calls [`fit_svm`].
pub fn fit_us_svm(
    ens: &SharedEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> OcSvm {
    fit_svm(&ens.borrow(), video, cfg, traces)
}

/// The paper's three signals, in its order: U_S (classic novelty
/// detection), U_π, U_V.
pub fn signals(svm: OcSvm) -> [(&'static str, FleetSignal); 3] {
    [
        ("u_s", FleetSignal::Novelty(svm)),
        ("u_pi", FleetSignal::PolicyDisagreement),
        ("u_v", FleetSignal::ValueDisagreement),
    ]
}

/// One calibrated signal: what it trips at, and the engine
/// configuration that deploys it (paper defaults otherwise: k, l,
/// sticky, unanchored).
pub struct Guard {
    pub name: &'static str,
    pub signal: FleetSignal,
    pub serve: ServeConfig,
    pub cal: Calibration,
}

/// [`signals`], each calibrated on `traces` at `margin`.
pub fn calibrated_guards(
    ens: &PensieveEnsemble,
    svm: OcSvm,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    margin: f32,
) -> Vec<Guard> {
    signals(svm)
        .into_iter()
        .map(|(name, signal)| {
            let mut serve = ServeConfig::default();
            let cal = calibrate_guard(ens, &signal, &mut serve, video, cfg, traces, margin);
            Guard {
                name,
                signal,
                serve,
                cal,
            }
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
