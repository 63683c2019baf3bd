//! End-to-end fleet-serving benchmark for the osa workspace.
//!
//! Each run serves one workload with `FleetEngine::round` in a closed
//! loop and reports either the end-to-end metrics ([`measure`]) or, with
//! tracing on, per-layer numbers from a shadow round timed call by call
//! ([`shadow`]). `benchmark/README.md` has the workloads, the metrics and
//! the layer-to-end-to-end map.

pub mod measure;
pub mod shadow;
pub mod spans;
pub mod stats;
pub mod workload;

use osa_bench::counting_alloc::CountingAlloc;
use osa_nn::json::{obj, Value};

use measure::Report;

// Every heap event in the process is counted, so the timed window can
// prove the engine's zero-allocation steady state from outside.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a measured run reports, in order (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("round_p50_ms", "ms"),
    ("decisions_per_s", "1/s"),
    ("setup_s", "s"),
    ("qoe_per_chunk", "QoE"),
    ("qoe_vs_unguarded", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// What a traced run reports, in order (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("abr.fill_obs_us", "us"),
    ("nn.actor_fwd_us", "us"),
    ("core.signal_us", "us"),
    ("core.signal_rows_per_round", "count"),
    ("core.signal_ns_per_row", "ns"),
    ("core.monitor_apply_us", "us"),
    ("abr.step_all_us", "us"),
    ("core.rollover_us", "us"),
    ("nn.actor_fwd_int8_us", "us"),
    ("nn.critic_fwd_int8_us", "us"),
    ("core.round_us", "us"),
    ("core.residual_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("runtime.serial_share_ub", "ratio"),
    ("runtime.pool2_efficiency", "ratio"),
    ("trace.corpus_ms", "ms"),
    ("nn.artifact_load_ms", "ms"),
    ("core.calibrate_ms", "ms"),
    ("core.engine_build_ms", "ms"),
    ("core.warmup_ms", "ms"),
];

/// The one-line result: `correct`, `attempted`, `failed` and every
/// metric as `{"value", "unit"}`. A non-finite value cannot be printed
/// as a number, so it turns the run incorrect and prints as `null`.
pub fn result_json(r: &Report) -> String {
    let finite = r.metrics.iter().all(|m| m.value.is_finite());
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                Value::Num(m.value)
            } else {
                Value::Null
            };
            let cell = obj(vec![("value", value), ("unit", Value::Str(m.unit.into()))]);
            (m.name, cell)
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(r.correct && finite)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::Metric;

    /// The names and units this benchmark emits are the ones
    /// `BENCHMARK.json` declares, and so are its workloads.
    #[test]
    fn benchmark_json_declares_what_the_runs_emit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
        let entries = |key: &str| -> Vec<(String, String)> {
            let list = doc.get(key).and_then(Value::as_arr).expect(key);
            list.iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        m.get("unit").map_or(String::new(), |_| field(m, "unit")),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(entries("end_to_end"), ours(&END_TO_END));
        assert_eq!(entries("per_layer"), ours(&PER_LAYER));
        let declared: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        let served: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, served);
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys_and_nulls_non_finite_values() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Report::default()
        };
        r.metrics.push(Metric {
            name: "round_p50_ms",
            value: 1.25,
            unit: "ms",
        });
        let line = result_json(&r);
        assert_eq!(
            line,
            "{\"attempted\":10,\"correct\":true,\"failed\":0,\
             \"metrics\":{\"round_p50_ms\":{\"unit\":\"ms\",\"value\":1.25}}}"
        );
        r.metrics[0].value = f64::NAN;
        let line = result_json(&r);
        assert!(line.contains("\"correct\":false") && line.contains("\"value\":null"));
    }
}
