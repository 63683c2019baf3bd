//! Figure 1 — in-distribution QoE parity (§3.3).
//!
//! The safety layer must be free when nothing is wrong: each guard
//! (U_S, U_π, U_V, calibrated on the validation split) serves the
//! held-out Norway test split on the fleet engine and must match the
//! unguarded ensemble-mean policy's QoE with zero false switches. Anchored
//! scoring: 0 = Random, 1 = Buffer-Based.
//!
//! Writes `artifacts/figures/fig1_in_distribution.json` (deterministic
//! at any `OSA_THREADS` — diff it across runs).

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_core::prelude::*;
use osa_nn::json::{obj, Value};

fn main() {
    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = osap::load_ensemble();
    let anch = anchors(&video, &cfg, &split.test, osap::CORPUS_SEED);
    let mut rows = Vec::new();

    println!("policy            norm QoE   rebuf s/sess   switched");
    let mut push_row = |name: &str, norm: f64, rebuf: f64, switched: i64, alpha: Option<f32>| {
        println!("{name:<16} {norm:+9.3}   {rebuf:12.3}   {switched:>8}");
        let mut fields = vec![
            ("policy", Value::Str(name.into())),
            ("normalized_qoe", Value::Num(norm)),
            ("rebuffer_s_per_session", Value::Num(rebuf)),
            ("switched_sessions", Value::Num(switched as f64)),
        ];
        if let Some(a) = alpha {
            fields.push(("alpha", Value::Num(a as f64)));
        }
        rows.push(obj(fields));
    };

    push_row("random", 0.0, f64::NAN, -1, None);
    push_row("bb", 1.0, f64::NAN, -1, None);

    let svm = osap::fit_svm(&ens, &video, &cfg, &split.train);
    let unguarded = evaluate(
        &ens,
        &FleetSignal::Null,
        &ServeConfig::default(),
        &video,
        &cfg,
        &split.test,
        false,
    );
    let score = summarize(&unguarded);
    push_row(
        "ensemble-mean",
        normalized(score.mean_qoe, &anch),
        score.mean_rebuffer_s,
        score.switched_sessions as i64,
        None,
    );

    for guard in osap::calibrated_guards(&ens, svm, &video, &cfg, &split.validation, DEFAULT_MARGIN)
    {
        let score = summarize(&evaluate(
            &ens,
            &guard.signal,
            &guard.serve,
            &video,
            &cfg,
            &split.test,
            false,
        ));
        push_row(
            guard.name,
            normalized(score.mean_qoe, &anch),
            score.mean_rebuffer_s,
            score.switched_sessions as i64,
            Some(guard.cal.alpha),
        );
    }

    let report = obj(vec![
        ("figure", Value::Str("fig1_in_distribution".into())),
        ("dataset", Value::Str("norway-test".into())),
        ("margin", Value::Num(DEFAULT_MARGIN as f64)),
        ("random_qoe", Value::Num(anch.random_qoe)),
        ("bb_qoe", Value::Num(anch.bb_qoe)),
        ("rows", Value::Arr(rows)),
    ]);
    let path = osap::figure_path("fig1_in_distribution.json");
    osa_bench::write_report(&path, report).expect("write figure artifact");
    println!("written to {}", path.display());
}
