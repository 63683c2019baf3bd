//! The measured (untraced) run: repeated set-up, timed closed-loop
//! rounds, and the untimed correctness pass behind the quality metrics.

use std::hint::black_box;
use std::time::Instant;

use osa_abr::video::CHUNK_COUNT;
use osa_bench::counting_alloc;
use osa_core::serve::{FleetEngine, FleetTelemetry};
use osa_runtime::ThreadPool;

use crate::stats::{median, percentile, whole_videos};
use crate::workload::{wide_width, Setup, StageTimes, Workload, SHIFT_START};

/// How long and how often a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Timed wall-clock seconds (rounded up to whole videos).
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Fewest timed videos, so that p90 always has ten samples beyond it.
const MIN_VIDEOS: usize = 3;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints: the contract fields, plus informational lines
/// that are measured but not gated.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
    /// Why `correct` is false, one line per broken gate.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric { name, value, unit });
    }

    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(why());
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The end-to-end run of one workload, served on a one-lane pool.
pub fn measure(workload: &'static Workload, seed: u64, opts: &Options) -> Report {
    let pool = ThreadPool::new(1);
    osa_runtime::with_pool(&pool, || measure_on(workload, seed, opts, &pool))
}

fn measure_on(workload: &'static Workload, seed: u64, opts: &Options, pool: &ThreadPool) -> Report {
    let (mut setup, stages) = Setup::repeated(workload, seed, opts.setup_reps);
    let setup_s: Vec<f64> = stages.iter().map(StageTimes::total).collect();
    let per_round = setup.stages.warmup / CHUNK_COUNT as f64;
    let timed = timed_rounds(&mut setup.engine, per_round, opts);
    // Set-up plus the served fleet, before the correctness passes build
    // their own engines over every served trace.
    let peak_rss = peak_rss_mb();
    let pass = run_pass(setup.engine(setup.traces.len(), false), pool);
    let unguarded = run_pass(setup.unguarded_engine(), pool);

    let n = workload.sessions;
    let mut r = Report {
        attempted: timed.ops,
        failed: timed.failed,
        ..Report::default()
    };
    let mut sorted = timed.round_s.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let ms = |p: f64| percentile(&sorted, p).map(|s| s * 1e3);
    r.metric(
        "round_p50_ms",
        ms(0.5).expect("p50 of at least three videos"),
        "ms",
    );
    // Throughput per timed video, median over videos: a burst of
    // contention from outside the process moves one video, not the run.
    let per_video: Vec<f64> = timed
        .round_s
        .chunks(CHUNK_COUNT)
        .map(|v| (n * v.len()) as f64 / v.iter().sum::<f64>())
        .collect();
    r.metric("decisions_per_s", median(&per_video), "1/s");
    r.metric("setup_s", median(&setup_s), "s");
    // Guarded QoE, deterministic at a fixed seed: it falls with any
    // change that makes decisions worse, guarded or not.
    let (g, u) = (&pass.telemetry, &unguarded.telemetry);
    r.metric("qoe_per_chunk", g.mean_qoe_per_chunk, "QoE");
    // Guarded over unguarded QoE on the same traces: what the safety
    // layer costs in distribution and wins under a shift. A change to
    // the guard alone moves it; trace difficulty cancels.
    r.metric(
        "qoe_vs_unguarded",
        g.mean_qoe_per_chunk / u.mean_qoe_per_chunk,
        "ratio",
    );
    r.metric("peak_rss_mb", peak_rss, "MB");

    // Tails are reported when the percentile rule allows, never gated:
    // run to run they move several times more than the median.
    for (name, p) in [("round_p90_ms", 0.9), ("round_p99_ms", 0.99)] {
        if let Some(v) = ms(p) {
            r.info(name, v, "ms");
        }
    }
    r.info("timed_rounds", timed.round_s.len() as f64, "rounds");
    r.info("ops", timed.ops as f64, "decisions");
    r.info("ops_failed", timed.failed as f64, "decisions");
    let allocs_per_round = timed.allocs as f64 / timed.round_s.len() as f64;
    r.info("allocs_per_round", allocs_per_round, "count");
    r.info("unguarded_qoe_per_chunk", u.mean_qoe_per_chunk, "QoE");
    if workload.shifted {
        r.info("detect_rate", g.switch_rate, "share");
        r.info("detect_delay_decisions", pass.detect_delay, "decisions");
        r.info("recovery_rate", g.recovery_rate, "share");
    } else {
        r.info("false_switch_rate", g.switch_rate, "share");
    }

    r.gate(timed.failed == 0, || {
        format!("{} of {} timed decisions failed", timed.failed, timed.ops)
    });
    r.gate(timed.allocs == 0, || {
        format!("{} heap allocations in steady-state rounds", timed.allocs)
    });
    r.gate(pass.failed + unguarded.failed == 0, || {
        let failed = pass.failed + unguarded.failed;
        format!("{failed} correctness-pass decisions failed")
    });
    // The workspace's determinism contract, checked from outside: the
    // same pass on a wider pool gives the same telemetry bits. `Debug`
    // prints every float with round-trip digits, so equal text is equal
    // bits.
    let width = wide_width();
    let wide = ThreadPool::new(width);
    let engine = setup.engine(setup.traces.len(), false);
    let widened = osa_runtime::with_pool(&wide, || run_pass(engine, &wide));
    let same = format!("{:?}", widened.telemetry) == format!("{:?}", pass.telemetry);
    r.gate(same, || {
        format!("telemetry at pool {width} differs from pool 1")
    });
    r.correct = r.errors.is_empty();
    r
}

struct Timed {
    round_s: Vec<f64>,
    ops: u64,
    failed: u64,
    allocs: u64,
}

/// Back-to-back rounds (closed loop, zero think time) in whole videos
/// until `opts.seconds` have passed. A decision fails when its reward is
/// non-finite or the simulator did not count its chunk.
fn timed_rounds(engine: &mut FleetEngine, per_round_s: f64, opts: &Options) -> Timed {
    let n = engine.len();
    let min_rounds = MIN_VIDEOS * CHUNK_COUNT;
    // Room for four times the rounds the warm-up pace predicts, so the
    // sample buffer never grows inside the measured window.
    let expected = (4.0 * opts.seconds / per_round_s.max(1e-6)) as usize;
    let cap = whole_videos(expected.max(min_rounds));
    let mut round_s = Vec::with_capacity(cap);
    let chunks = |e: &FleetEngine| (0..n).map(|i| e.sim().chunks_total(i)).sum::<u64>();
    let chunks_before = chunks(engine);
    let mut failed = 0u64;
    let allocs_before = counting_alloc::allocations();
    let start = Instant::now();
    while round_s.len() + CHUNK_COUNT <= cap {
        for _ in 0..CHUNK_COUNT {
            let t = Instant::now();
            black_box(engine.round());
            round_s.push(t.elapsed().as_secs_f64());
            failed += non_finite(engine.sim().rewards());
        }
        if round_s.len() >= min_rounds && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let allocs = counting_alloc::allocations() - allocs_before;
    let ops = (n * round_s.len()) as u64;
    failed += ops.abs_diff(chunks(engine) - chunks_before);
    Timed {
        round_s,
        ops,
        failed,
        allocs,
    }
}

pub(crate) fn non_finite(rewards: &[f32]) -> u64 {
    rewards.iter().filter(|r| !r.is_finite()).count() as u64
}

struct Pass {
    telemetry: FleetTelemetry,
    failed: u64,
    /// Mean decisions from the first chunk fetched at or after the shift
    /// start to the first trip, over sessions that tripped (0 if none).
    detect_delay: f64,
}

/// Run a one-video-per-session engine (`auto_reset` off) to completion
/// on `pool`: the quality metrics and the determinism check come from
/// here.
fn run_pass(mut engine: FleetEngine, pool: &ThreadPool) -> Pass {
    let n = engine.len();
    let mut shift_at: Vec<Option<usize>> = vec![None; n];
    let mut failed = 0u64;
    loop {
        for (i, at) in shift_at.iter_mut().enumerate() {
            let sim = engine.sim();
            if at.is_none() && sim.active(i) && sim.time_s(i) >= SHIFT_START as f64 {
                *at = Some(sim.next_chunk(i));
            }
        }
        let more = engine.round_with_pool(pool);
        failed += non_finite(engine.sim().rewards());
        if !more {
            break;
        }
    }
    let telemetry = engine.telemetry();
    failed += telemetry.decisions.abs_diff((n * CHUNK_COUNT) as u64);
    failed += (0..n)
        .filter(|&i| !engine.sim().qoe_total(i).is_finite())
        .count() as u64;
    let delays: Vec<f64> = (0..n)
        .filter_map(|i| {
            let trip = engine.monitors().tripped_at(i)?;
            Some(trip as f64 - shift_at[i]? as f64)
        })
        .collect();
    let detect_delay = if delays.is_empty() {
        0.0
    } else {
        delays.iter().sum::<f64>() / delays.len() as f64
    };
    Pass {
        telemetry,
        failed,
        detect_delay,
    }
}
