//! Fleet-serving benchmark: what a decision round costs at scale, and
//! what reverse switching buys back after a transient shift.
//!
//! Three sections, one report (`BENCH_serve.json` at the repo root):
//!
//! 1. **Gated round latency** — steady-state `FleetEngine::round` over
//!    a fixed 256-session fleet (constant work, so the `bench_compare`
//!    25% gate applies to its median and its zero-allocation claim),
//!    guarded by U_V and again by U_S.
//! 2. **Fleet scale** — the same engine at `OSA_BENCH_FLEET` sessions
//!    (default 100 000): p50/p99 round latency and the derived
//!    per-decision latency. Informational, not gated — smoke runs
//!    shrink the fleet, which changes the work per round.
//! 3. **Transient-shift recovery** — sessions stream Norway links with
//!    a transient shift spliced into the first half, guarded by an
//!    anchored, calibrated U_S novelty monitor: sticky (the paper's
//!    default-forever fallback) versus reverse switching. Two shifts
//!    are reported: the Belgium-shift scenario (a bandwidth-richer 4G
//!    window, where the buffer-based fallback itself thrives and
//!    returning early costs a little) and an outage (the link capped
//!    at 0.4 Mbps, where coming back to the learned policy once the
//!    link recovers wins decisively). Each entry records the QoE both
//!    configurations earned and the per-chunk QoE reverse switching
//!    recovered versus staying on the fallback forever.
//!
//! ```sh
//! cargo bench -p osa-bench --bench serve
//! ```
//!
//! `OSA_BENCH_SAMPLES` scales sample counts of the gated section;
//! `OSA_BENCH_FLEET` / `OSA_BENCH_FLEET_ROUNDS` scale the fleet-scale
//! section (never the gated one).

use std::time::Instant;

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_bench::{counting_alloc::CountingAlloc, hardware_threads, run_bench};
use osa_core::prelude::*;
use osa_core::serve::FleetEngine;
use osa_nn::json::{obj, Value};
use osa_ocsvm::OcSvm;
use osa_trace::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fixed fleet of the gated section — never scaled by smoke envs, so
/// the committed medians stay comparable.
const GATED_SESSIONS: usize = 256;

/// Sample of each transient-shift scenario: sessions per configuration.
const SHIFT_SESSIONS: usize = 32;

/// Reverse-switching policy under test: m = 3 quiet windows to return,
/// re-trip within 8 decisions locks the session onto the fallback.
const REVERSE: ReverseConfig = ReverseConfig {
    quiet_windows: 3,
    retrip_guard: 8,
};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn owned_ensemble() -> PensieveEnsemble {
    let text = std::fs::read_to_string(osap::ARTIFACT).expect("missing ensemble artifact");
    PensieveEnsemble::from_json(&text).expect("artifact parses")
}

/// Calibrate U_V once on in-distribution validation traces — the α
/// every fleet below deploys.
fn calibrated_alpha(video: &VideoModel, cfg: &AbrConfig, split: &Split) -> f32 {
    let ens = osap::load_ensemble();
    let mut agent = abr_safe_agent(
        ens.clone(),
        ValueDisagreement::new(ens),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    calibrate(
        &mut agent,
        video,
        cfg,
        &split.validation[..4],
        DEFAULT_MARGIN,
    )
    .alpha
}

fn steady_engine(
    alpha: f32,
    anchor: Option<f32>,
    signal: FleetSignal,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    n: usize,
) -> FleetEngine {
    let serve = ServeConfig {
        alpha,
        anchor,
        reverse: Some(REVERSE),
        shard: 64,
        auto_reset: true,
        ..ServeConfig::default()
    };
    FleetEngine::new(
        owned_ensemble(),
        signal,
        video.clone(),
        cfg.clone(),
        traces.to_vec(),
        n,
        &serve,
    )
}

/// Anchored U_S guard shared by both shift scenarios: calibrate once
/// unanchored to learn the in-distribution score mean μ₀, anchor the
/// monitor there, then recalibrate α against the anchored variance.
/// Anchoring is what keeps the monitor honest mid-shift — a sample-mean
/// variance re-centers on the shifted scores and reads them as quiet.
struct UsGuard {
    svm: OcSvm,
    mu: f32,
    alpha: f32,
}

fn calibrated_us(video: &VideoModel, cfg: &AbrConfig, split: &Split) -> UsGuard {
    let ens = osap::load_ensemble();
    let svm = osap::fit_us_svm(&ens, video, cfg, &split.train);
    let mut agent = abr_safe_agent(
        ens.clone(),
        NoveltySignal::new(svm.clone()),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let unanchored = calibrate(
        &mut agent,
        video,
        cfg,
        &split.validation[..4],
        DEFAULT_MARGIN,
    );
    agent.monitor_mut().set_anchor(Some(unanchored.mu));
    let anchored = calibrate(
        &mut agent,
        video,
        cfg,
        &split.validation[..4],
        DEFAULT_MARGIN,
    );
    UsGuard {
        svm,
        mu: unanchored.mu,
        alpha: anchored.alpha,
    }
}

/// The Belgium-shift scenario: a Belgium 4G window spliced into each
/// Norway link early in the session, home again after thirty seconds.
fn belgium_traces(split: &Split) -> Vec<Trace> {
    let belgium = Dataset::Belgium.generate(8, osap::CORPUS_LEN, 77);
    split.test[..8]
        .iter()
        .zip(&belgium)
        .enumerate()
        .map(|(i, (norway, belgium))| {
            let mut mbps = norway.mbps.clone();
            let end = 40.min(mbps.len()).min(belgium.mbps.len());
            mbps[10..end].copy_from_slice(&belgium.mbps[10..end]);
            Trace::new(format!("belgium{i}"), norway.interval_s, mbps)
        })
        .collect()
}

/// The outage scenario: the same Norway links capped at 0.4 Mbps for
/// sixty seconds — the link comes home with the buffer drained, which
/// is exactly the state the learned policy was trained to climb out of.
fn outage_traces(split: &Split) -> Vec<Trace> {
    split.test[..8]
        .iter()
        .enumerate()
        .map(|(i, norway)| {
            let mut mbps = norway.mbps.clone();
            let end = 70.min(mbps.len());
            for v in &mut mbps[10..end] {
                *v = v.min(0.4);
            }
            Trace::new(format!("outage{i}"), norway.interval_s, mbps)
        })
        .collect()
}

/// Run one transient-shift fleet to completion and summarize it.
fn run_shift(
    guard: &UsGuard,
    reverse: Option<ReverseConfig>,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> (f64, u64, u64, usize) {
    let serve = ServeConfig {
        alpha: guard.alpha,
        anchor: Some(guard.mu),
        reverse,
        ..ServeConfig::default()
    };
    let mut fleet = FleetEngine::new(
        owned_ensemble(),
        FleetSignal::Novelty(guard.svm.clone()),
        video.clone(),
        cfg.clone(),
        traces.to_vec(),
        SHIFT_SESSIONS,
        &serve,
    );
    while fleet.round() {}
    let t = fleet.telemetry();
    (
        t.mean_qoe_per_chunk,
        t.total_switches,
        t.total_recoveries,
        t.locked_sessions,
    )
}

/// Sticky-versus-reverse comparison on one shift scenario, as a report
/// entry.
fn shift_entry(
    name: &str,
    guard: &UsGuard,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> Value {
    let (sticky_qoe, sticky_switches, _, _) = run_shift(guard, None, video, cfg, traces);
    let (rev_qoe, rev_switches, rev_recoveries, rev_locked) =
        run_shift(guard, Some(REVERSE), video, cfg, traces);
    let recovered = rev_qoe - sticky_qoe;
    println!(
        "{name}: sticky {sticky_qoe:.4} vs reverse {rev_qoe:.4} QoE/chunk \
         (recovered {recovered:+.4}; {rev_recoveries} recoveries, {rev_locked} locked)"
    );
    obj(vec![
        ("name", Value::Str(name.into())),
        ("sessions", Value::Num(SHIFT_SESSIONS as f64)),
        ("sticky_qoe_per_chunk", Value::Num(sticky_qoe)),
        ("reverse_qoe_per_chunk", Value::Num(rev_qoe)),
        ("qoe_recovered_per_chunk", Value::Num(recovered)),
        ("sticky_switches", Value::Num(sticky_switches as f64)),
        ("reverse_switches", Value::Num(rev_switches as f64)),
        ("reverse_recoveries", Value::Num(rev_recoveries as f64)),
        ("locked_sessions", Value::Num(rev_locked as f64)),
        (
            "reverse_quiet_windows",
            Value::Num(REVERSE.quiet_windows as f64),
        ),
        (
            "reverse_retrip_guard",
            Value::Num(REVERSE.retrip_guard as f64),
        ),
    ])
}

fn main() {
    let samples = env_usize("OSA_BENCH_SAMPLES", 100);
    let fleet_n = env_usize("OSA_BENCH_FLEET", 100_000);
    let fleet_rounds = env_usize("OSA_BENCH_FLEET_ROUNDS", 8);
    println!(
        "gated fleet {GATED_SESSIONS}, scale fleet {fleet_n} × {fleet_rounds} rounds, \
         {samples} samples, {} hardware thread(s)",
        hardware_threads()
    );

    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let alpha = calibrated_alpha(&video, &cfg, &split);
    let guard = calibrated_us(&video, &cfg, &split);
    let steady_traces = &split.test[..8];
    let mut results = Vec::new();

    // 1. Gated: steady-state round latency, fixed-size fleet — the U_V
    //    fleet, plus a U_S novelty fleet (per-shard batched SVM scoring)
    //    under the anchored calibrated guard. In-distribution traces keep
    //    the novelty fleet observing (untripped), so the U_S case times
    //    the full per-session scoring work, not a mostly-frozen fleet.
    for (name, signal, a, anchor) in [
        (
            "serve_round_256",
            FleetSignal::ValueDisagreement,
            alpha,
            None,
        ),
        (
            "serve_round_256_us",
            FleetSignal::Novelty(guard.svm.clone()),
            guard.alpha,
            Some(guard.mu),
        ),
    ] {
        let mut engine = steady_engine(
            a,
            anchor,
            signal,
            &video,
            &cfg,
            steady_traces,
            GATED_SESSIONS,
        );
        for _ in 0..4 {
            engine.round(); // warm lane scratch before the harness warmup
        }
        let stats = run_bench(name, samples, || {
            std::hint::black_box(engine.round());
        });
        let decisions_per_sec = GATED_SESSIONS as f64 / (stats.median_ns as f64 * 1e-9);
        println!("{name}: {decisions_per_sec:>12.0} decisions/sec");
        let mut entry = stats.to_json();
        if let Value::Obj(map) = &mut entry {
            map.insert("sessions".into(), Value::Num(GATED_SESSIONS as f64));
            map.insert(
                "decisions_per_sec".into(),
                Value::Num(decisions_per_sec.round()),
            );
        }
        results.push(entry);
    }

    // 2. Fleet scale: p50/p99 round and per-decision latency at
    //    OSA_BENCH_FLEET sessions. Key names deliberately avoid the
    //    gated `_ns` suffix — fleet size is env-dependent.
    let mut engine = steady_engine(
        alpha,
        None,
        FleetSignal::ValueDisagreement,
        &video,
        &cfg,
        steady_traces,
        fleet_n,
    );
    engine.round(); // warm-up: grows lane scratch + workspace
    engine.round();
    let mut round_ns: Vec<u64> = Vec::with_capacity(fleet_rounds);
    let allocs_before = osa_bench::counting_alloc::allocations();
    for _ in 0..fleet_rounds {
        let start = Instant::now();
        std::hint::black_box(engine.round());
        round_ns.push(start.elapsed().as_nanos() as u64);
    }
    // The zero-allocation contract holds at full fleet scale, not just
    // in the 64/256-session harnesses.
    let fleet_allocs = osa_bench::counting_alloc::allocations() - allocs_before;
    assert_eq!(
        fleet_allocs, 0,
        "steady-state rounds at {fleet_n} sessions touched the heap"
    );
    round_ns.sort_unstable();
    let p50 = round_ns[round_ns.len() / 2];
    let p99 = round_ns[((round_ns.len() as f64 * 0.99) as usize).min(round_ns.len() - 1)];
    let per_decision_p50 = p50 as f64 / fleet_n as f64;
    let per_decision_p99 = p99 as f64 / fleet_n as f64;
    println!(
        "fleet_scale({fleet_n}): round p50 {p50} ns, p99 {p99} ns \
         ({per_decision_p50:.0} / {per_decision_p99:.0} ns per decision)"
    );
    results.push(obj(vec![
        ("name", Value::Str("fleet_scale".into())),
        ("sessions", Value::Num(fleet_n as f64)),
        ("rounds_timed", Value::Num(fleet_rounds as f64)),
        ("allocs_timed_rounds", Value::Num(fleet_allocs as f64)),
        ("round_p50_nanos", Value::Num(p50 as f64)),
        ("round_p99_nanos", Value::Num(p99 as f64)),
        ("decision_p50_nanos", Value::Num(per_decision_p50.round())),
        ("decision_p99_nanos", Value::Num(per_decision_p99.round())),
        (
            "decisions_per_sec",
            Value::Num((fleet_n as f64 / (p50 as f64 * 1e-9)).round()),
        ),
    ]));

    // 3. Transient-shift recovery: sticky (default-forever) vs reverse
    //    under the shared anchored U_S guard.
    results.push(shift_entry(
        "belgium_shift_reverse",
        &guard,
        &video,
        &cfg,
        &belgium_traces(&split),
    ));
    results.push(shift_entry(
        "outage_shift_reverse",
        &guard,
        &video,
        &cfg,
        &outage_traces(&split),
    ));

    let report = obj(vec![
        ("bench", Value::Str("serve".into())),
        ("video", Value::Str("envivio-synthetic".into())),
        ("dataset", Value::Str("norway".into())),
        ("hardware_threads", Value::Num(hardware_threads() as f64)),
        (
            "kernel_variant",
            Value::Str(osa_bench::kernel_variant().into()),
        ),
        ("target_cpu", Value::Str(osa_bench::target_cpu().into())),
        ("results", Value::Arr(results)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    osa_bench::write_report(path, report).expect("write BENCH_serve.json");
    println!("baseline written to BENCH_serve.json");
}
