//! One short run of every workload, measured and traced: every declared
//! metric is emitted under a valid name with a finite value, and every
//! correctness gate holds (no failed decision, no steady-state
//! allocation, pool 1 ≡ pool 2, shadow ≡ engine).
//!
//! The measured run times the fewest videos it ever times (three, so p90
//! has ten samples beyond it); the traced run traces one.
//!
//! Runs without the libtest harness: the allocation gate counts every
//! heap event in the process, and libtest's own threads allocate while
//! a long test runs.

use std::path::Path;

use osa_fleet_benchmark::measure::{measure, Options, Report};
use osa_fleet_benchmark::shadow::trace;
use osa_fleet_benchmark::stats::valid_metric_name;
use osa_fleet_benchmark::workload::WORKLOADS;
use osa_fleet_benchmark::{END_TO_END, PER_LAYER};

const SMOKE: Options = Options {
    seconds: 0.0,
    setup_reps: 1,
};

fn check(what: &str, report: &Report, expected: &[(&str, &str)]) {
    assert!(report.correct, "{what}: {:?}", report.errors);
    assert!(report.attempted > 0, "{what}: nothing attempted");
    assert_eq!(report.failed, 0, "{what}: failed decisions");
    let emitted: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(emitted, expected, "{what}: metric names and units");
    for m in &report.metrics {
        assert!(valid_metric_name(m.name), "{what}: bad name {}", m.name);
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

fn main() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans");
    for w in &WORKLOADS {
        check(
            &format!("{} measured", w.name),
            &measure(w, 1, &SMOKE),
            &END_TO_END,
        );
        check(
            &format!("{} traced", w.name),
            &trace(w, 1, &SMOKE, &out),
            &PER_LAYER,
        );
        let spans = out.join(format!("{}.spans.jsonl", w.name));
        let text = std::fs::read_to_string(&spans).expect("spans written");
        assert!(text.lines().any(|l| l.contains("\"name\":\"round\"")));
        println!("smoke {}: ok", w.name);
    }
}
