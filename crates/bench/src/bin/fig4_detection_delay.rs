//! Figure 4 — detection delay across out-of-distribution scenarios
//! (§3.2).
//!
//! The trip decision index of each calibrated signal on the shared OOD
//! suite (six Belgium sessions, an outage, a rate cap, a throughput
//! spike). The paper's headline lives here: the decision-aware U_V
//! fires within a handful of decisions of the shift, while the classic
//! U_S detector cannot fire before its 14-push feature window is warm —
//! and U_π, at this reduced replica scale, detects nothing (see
//! EXPERIMENTS.md for the honest accounting).
//!
//! Writes `artifacts/figures/fig4_detection_delay.json`.

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
    let guards =
        osap::calibrated_guards(&ens, svm, &video, &cfg, &split.validation, DEFAULT_MARGIN);
    // One engine per signal over the whole suite, then read it scenario
    // by scenario.
    let trips: Vec<Vec<Option<usize>>> = guards
        .iter()
        .map(|g| {
            evaluate(&ens, &g.signal, &g.serve, &video, &cfg, &traces, false)
                .iter()
                .map(|run| run.first_trip)
                .collect()
        })
        .collect();
    let mut rows = Vec::new();

    println!(
        "scenario      {}",
        guards
            .iter()
            .map(|g| format!("{:>6}", g.name))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (s, (scenario, _)) in scenarios.iter().enumerate() {
        let mut fields = vec![("scenario", Value::Str(scenario.clone()))];
        let mut line = format!("{scenario:<13}");
        for (guard, trips) in guards.iter().zip(&trips) {
            line.push_str(&format!(
                " {:>6}",
                trips[s].map_or("-".to_string(), |i| i.to_string())
            ));
            fields.push((
                guard.name,
                match trips[s] {
                    Some(i) => Value::Num(i as f64),
                    None => Value::Null,
                },
            ));
        }
        println!("{line}");
        rows.push(obj(fields));
    }

    let report = obj(vec![
        ("figure", Value::Str("fig4_detection_delay".into())),
        ("margin", Value::Num(DEFAULT_MARGIN as f64)),
        ("rows", Value::Arr(rows)),
    ]);
    let path = osap::figure_path("fig4_detection_delay.json");
    osa_bench::write_report(&path, report).expect("write figure artifact");
    println!("written to {}", path.display());
}
