//! Figure 3 — per-decision signal time series (§3.2).
//!
//! The raw uncertainty value and its k-window variance for each signal,
//! decision by decision, over one in-distribution Norway session and
//! one Belgium 4G session, with the calibrated threshold α and the trip
//! index. This is the figure that shows *why* the monitors fire: in
//! distribution the variance hugs the floor; under shift it jumps and
//! stays above α.
//!
//! Writes `artifacts/figures/fig3_signal_timeseries.json`.

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_core::prelude::*;
use osa_nn::json::{obj, Value};
use osa_trace::prelude::*;

fn series(values: &[f32]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v as f64)).collect())
}

fn main() {
    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = osap::load_ensemble();
    let svm = osap::fit_svm(&ens, &video, &cfg, &split.train);
    let settings = ["norway", "belgium"];
    let traces = [
        split.test[0].clone(),
        Dataset::Belgium
            .generate(1, osap::CORPUS_LEN, 77)
            .pop()
            .expect("one Belgium trace"),
    ];
    let mut rows = Vec::new();

    for guard in osap::calibrated_guards(&ens, svm, &video, &cfg, &split.validation, DEFAULT_MARGIN)
    {
        let runs = evaluate(
            &ens,
            &guard.signal,
            &guard.serve,
            &video,
            &cfg,
            &traces,
            true,
        );
        for (setting, run) in settings.iter().zip(&runs) {
            println!(
                "{:<5} {setting:<8} {} decisions, switch {:?}",
                guard.name,
                run.raw.len(),
                run.first_trip
            );
            rows.push(obj(vec![
                ("signal", Value::Str(guard.name.into())),
                ("setting", Value::Str((*setting).into())),
                ("alpha", Value::Num(guard.cal.alpha as f64)),
                ("raw", series(&run.raw)),
                ("variance", series(&run.variance)),
                (
                    "switch_index",
                    match run.first_trip {
                        Some(i) => Value::Num(i as f64),
                        None => Value::Null,
                    },
                ),
            ]));
        }
    }

    let report = obj(vec![
        ("figure", Value::Str("fig3_signal_timeseries".into())),
        ("margin", Value::Num(DEFAULT_MARGIN as f64)),
        ("k", Value::Num(DEFAULT_K as f64)),
        ("l", Value::Num(DEFAULT_L as f64)),
        ("rows", Value::Arr(rows)),
    ]);
    let path = osap::figure_path("fig3_signal_timeseries.json");
    osa_bench::write_report(&path, report).expect("write figure artifact");
    println!("written to {}", path.display());
}
