//! Figure 5 — per-session QoE distribution under shift (§3.3).
//!
//! The sorted per-session normalized QoE (an empirical CDF) over the
//! OOD scenario suite, for the unguarded ensemble-mean policy, the
//! three guards, and Buffer-Based throughout. Guarding shears
//! off the distribution's bad tail — the sessions where the learned
//! policy would have thrashed — while the upper tail (scenarios the
//! policy handles fine) is preserved.
//!
//! Writes `artifacts/figures/fig5_cdf.json`.

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_core::prelude::*;
use osa_nn::json::{obj, Value};

fn main() {
    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = osap::load_ensemble();
    let svm = osap::fit_svm(&ens, &video, &cfg, &split.train);
    let scenarios = osap::ood_scenarios(&split);
    let traces: Vec<_> = scenarios.iter().map(|(_, t)| t.clone()).collect();
    let anch = anchors(&video, &cfg, &traces, osap::CORPUS_SEED);
    let mut rows = Vec::new();

    let mut push_row = |name: &str, mut per_session: Vec<f64>| {
        per_session.sort_by(f64::total_cmp);
        let median = per_session[per_session.len() / 2];
        let worst = per_session[0];
        println!("{name:<16} worst {worst:+7.3}   median {median:+7.3}");
        rows.push(obj(vec![
            ("policy", Value::Str(name.into())),
            (
                "sorted_normalized_qoe",
                Value::Arr(per_session.into_iter().map(Value::Num).collect()),
            ),
        ]));
    };

    println!(
        "policy           per-session normalized QoE over {} scenarios",
        traces.len()
    );
    let per_session = |runs: Vec<SessionOutcome>| -> Vec<f64> {
        runs.iter()
            .map(|run| normalized(run.qoe / run.chunks as f64, &anch))
            .collect()
    };
    let unguarded = evaluate(
        &ens,
        &FleetSignal::Null,
        &ServeConfig::default(),
        &video,
        &cfg,
        &traces,
        false,
    );
    push_row("ensemble-mean", per_session(unguarded));

    for guard in osap::calibrated_guards(&ens, svm, &video, &cfg, &split.validation, DEFAULT_MARGIN)
    {
        push_row(
            guard.name,
            per_session(evaluate(
                &ens,
                &guard.signal,
                &guard.serve,
                &video,
                &cfg,
                &traces,
                false,
            )),
        );
    }

    let report = obj(vec![
        ("figure", Value::Str("fig5_cdf".into())),
        ("margin", Value::Num(DEFAULT_MARGIN as f64)),
        ("random_qoe", Value::Num(anch.random_qoe)),
        ("bb_qoe", Value::Num(anch.bb_qoe)),
        ("rows", Value::Arr(rows)),
    ]);
    let path = osap::figure_path("fig5_cdf.json");
    osa_bench::write_report(&path, report).expect("write figure artifact");
    println!("written to {}", path.display());
}
