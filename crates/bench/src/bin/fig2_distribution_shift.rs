//! Figure 2 — QoE under distribution shift (§2.2 / §3.3).
//!
//! The Norway-trained system streams six Belgium 4G sessions. The
//! unguarded ensemble-mean policy is out of its depth there; each
//! guard should detect the shift and hand over to Buffer-Based,
//! recovering most of the gap to a BB-from-the-start oracle. Anchors
//! (0 = Random, 1 = BB) are recomputed *on the Belgium set*, so 1.0 is
//! what a perfectly-timed switch could approach.
//!
//! Writes `artifacts/figures/fig2_distribution_shift.json`.

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_core::prelude::*;
use osa_nn::json::{obj, Value};
use osa_trace::prelude::*;

fn main() {
    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = osap::load_ensemble();
    let shifted = Dataset::Belgium.generate(6, osap::CORPUS_LEN, 77);
    let anch = anchors(&video, &cfg, &shifted, osap::CORPUS_SEED);
    let mut rows = Vec::new();

    println!("policy            norm QoE   switched/6   mean switch idx");
    let mut push_row = |name: &str, score: &Summary, alpha: Option<f32>| {
        let norm = normalized(score.mean_qoe, &anch);
        println!(
            "{name:<16} {norm:+9.3}   {:>10}   {:>15.1}",
            score.switched_sessions, score.mean_switch_index
        );
        let mut fields = vec![
            ("policy", Value::Str(name.into())),
            ("normalized_qoe", Value::Num(norm)),
            (
                "switched_sessions",
                Value::Num(score.switched_sessions as f64),
            ),
            ("mean_switch_index", Value::Num(score.mean_switch_index)),
            ("rebuffer_s_per_session", Value::Num(score.mean_rebuffer_s)),
        ];
        if let Some(a) = alpha {
            fields.push(("alpha", Value::Num(a as f64)));
        }
        rows.push(obj(fields));
    };

    let svm = osap::fit_svm(&ens, &video, &cfg, &split.train);
    let unguarded = evaluate(
        &ens,
        &FleetSignal::Null,
        &ServeConfig::default(),
        &video,
        &cfg,
        &shifted,
        false,
    );
    push_row("ensemble-mean", &summarize(&unguarded), None);

    for guard in osap::calibrated_guards(&ens, svm, &video, &cfg, &split.validation, DEFAULT_MARGIN)
    {
        let runs = evaluate(
            &ens,
            &guard.signal,
            &guard.serve,
            &video,
            &cfg,
            &shifted,
            false,
        );
        push_row(guard.name, &summarize(&runs), Some(guard.cal.alpha));
    }

    let report = obj(vec![
        ("figure", Value::Str("fig2_distribution_shift".into())),
        ("dataset", Value::Str("belgium-4g".into())),
        ("margin", Value::Num(DEFAULT_MARGIN as f64)),
        ("random_qoe", Value::Num(anch.random_qoe)),
        ("bb_qoe", Value::Num(anch.bb_qoe)),
        ("rows", Value::Arr(rows)),
    ]);
    let path = osap::figure_path("fig2_distribution_shift.json");
    osa_bench::write_report(&path, report).expect("write figure artifact");
    println!("written to {}", path.display());
}
