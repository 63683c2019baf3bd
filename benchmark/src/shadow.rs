//! The traced run: a shadow of `FleetEngine::round` built from the same
//! public pieces, timed from outside call by call.
//!
//! The shadow owns a `MultiSession`, `FleetMonitors`, the stacked actor
//! and critic from `PensieveEnsemble::into_serving_nets`, the `OcSvm` and
//! one `FeatureWindow` per session, and calls them in the engine's order
//! at the engine's shard size. The few steps the engine keeps private
//! (softmax, ensemble mean and argmax; the U_V trimmed mean) are copied
//! here operation for operation, so the shadow takes the engine's
//! decisions bit for bit, which the run checks. Their spans (`core.select`,
//! `core.spread`) are the benchmark's own code and count toward the
//! residual, not toward any layer.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use osa_abr::policy::BufferBased;
use osa_abr::sim::{AbrConfig, MultiSession};
use osa_abr::video::{VideoModel, CHUNK_COUNT};
use osa_abr::{HISTORY_LEN, NUM_BITRATES};
use osa_bench::counting_alloc;
use osa_core::eval::calibration_observations;
use osa_core::serve::{FleetEngine, FleetMonitors};
use osa_nn::quant::{QuantScratch, QuantStacked};
use osa_nn::stacked::StackedNet;
use osa_nn::tensor::Tensor;
use osa_nn::workspace::Workspace;
use osa_ocsvm::detector::NoveltyDetector;
use osa_ocsvm::features::{FeatureWindow, FEATURE_DIM};
use osa_ocsvm::OcSvm;
use osa_runtime::ThreadPool;

use crate::measure::{non_finite, Options, Report};
use crate::spans::{self_times, Recorder, ROOT};
use crate::stats::{median, whole_videos};
use crate::workload::{parse_ensemble, wide_width, Setup, Signal, StageTimes, Workload, SHARD};

/// Span budget per traced run; at least one video is always traced (and
/// at 16k sessions only one fits).
const MAX_SPANS: usize = 100_000;

/// Rounds each of the pool-1 engine, the wide engine and the shadow run
/// before handing over to the next; divides the video length.
const BLOCK: usize = 8;
const _: () = assert!(CHUNK_COUNT.is_multiple_of(BLOCK));

/// Layers whose self time is attributed to the library. Everything else
/// in a shadow round (round and decide bookkeeping, the benchmark's own
/// `core.select`/`core.spread`) is residual.
const LAYERS: [&str; 8] = [
    "abr.fill_obs",
    "nn.actor_fwd",
    "nn.critic_fwd",
    "ocsvm.window_push",
    "ocsvm.score_batch",
    "core.monitor_apply",
    "abr.step_all",
    "core.rollover",
];

struct Shadow {
    sim: MultiSession,
    monitors: FleetMonitors,
    actor: StackedNet,
    critic: StackedNet,
    int8: (QuantStacked, QuantStacked),
    svm: Option<OcSvm>,
    windows: Vec<FeatureWindow>,
    raw: Vec<f32>,
    learned: Vec<u8>,
    actions: Vec<usize>,
    completed_seen: Vec<u64>,
    bb: BufferBased,
    replicas: usize,
    keep: usize,
    rounds: u32,
    /// Rows the guarding signal scored: critic rows under U_V, ready
    /// feature windows under U_S.
    signal_rows: u64,
    ws: Workspace,
    qscratch: QuantScratch,
    x: Tensor,
    logits: Tensor,
    values: Tensor,
    probs: Tensor,
    mean: [f32; NUM_BITRATES],
    devs: Vec<f32>,
    feat: [f32; FEATURE_DIM],
    feats: Tensor,
    ready: Vec<usize>,
    scores: Vec<f32>,
}

impl Shadow {
    /// A shadow of `setup`'s engine at round 0, plus int8 nets calibrated
    /// on the fixed validation split for the f32-vs-int8 probe.
    fn new(setup: &Setup) -> Shadow {
        let (video, cfg) = (VideoModel::envivio(), AbrConfig::default());
        let mut ens = parse_ensemble(&setup.artifact);
        let calib =
            calibration_observations(&mut ens, &video, &cfg, &setup.split.validation[..4], 64);
        ens.calibrate_int8(&calib);
        let (replicas, keep) = (ens.replicas(), ens.keep());
        let (actor, critic, int8) = ens.into_serving_nets();
        let n = setup.workload.sessions;
        let serve = setup.guard.serve_config(true);
        Shadow {
            sim: MultiSession::new(video, cfg, setup.traces.clone(), n, true),
            monitors: FleetMonitors::new(n, &serve),
            actor,
            critic,
            int8: int8.expect("calibrated above"),
            svm: setup.guard.svm.clone(),
            windows: vec![FeatureWindow::new(); n],
            raw: vec![0.0; n],
            learned: vec![0; n],
            actions: vec![0; n],
            completed_seen: vec![0; n],
            bb: BufferBased::default(),
            replicas,
            keep,
            rounds: 0,
            signal_rows: 0,
            ws: Workspace::new(),
            qscratch: QuantScratch::new(),
            x: Tensor::zeros(SHARD, osa_abr::OBS_DIM),
            logits: Tensor::zeros(0, 0),
            values: Tensor::zeros(0, 0),
            probs: Tensor::zeros(replicas * SHARD, NUM_BITRATES),
            mean: [0.0; NUM_BITRATES],
            devs: Vec::with_capacity(replicas),
            feat: [0.0; FEATURE_DIM],
            feats: Tensor::zeros(SHARD, FEATURE_DIM),
            ready: Vec::with_capacity(SHARD),
            scores: Vec::with_capacity(SHARD),
        }
    }

    fn shards(&self) -> impl Iterator<Item = (usize, usize)> {
        let n = self.sim.len();
        (0..n)
            .step_by(SHARD)
            .map(move |first| (first, SHARD.min(n - first)))
    }

    /// Spans one round and its probe record: `probe`, `round`, `decide`
    /// and the three serial phases, plus five per shard in the round and
    /// two in the probe.
    fn spans_per_round(&self) -> usize {
        6 + self.sim.len().div_ceil(SHARD) * 7
    }

    /// The int8 probe: `QuantStacked::forward_into` on exactly the shard
    /// inputs the next round will see, under a root span of its own so
    /// it never inflates the round.
    fn probe(&mut self, rec: &mut Recorder) {
        let r = self.rounds;
        let root = rec.open(r, "probe", ROOT);
        for (first, b) in self.shards() {
            self.sim.fill_observations_range(first, b, &mut self.x);
            let (qa, qc) = &self.int8;
            rec.time(r, "nn.actor_fwd_int8", root, || {
                qa.forward_into(&self.x, &mut self.qscratch, &mut self.logits)
            });
            rec.time(r, "nn.critic_fwd_int8", root, || {
                qc.forward_into(&self.x, &mut self.qscratch, &mut self.values)
            });
        }
        rec.close(root);
    }

    /// One shadow round at pool 1, in `FleetEngine::round`'s order.
    fn round(&mut self, rec: &mut Recorder, pool: &ThreadPool) {
        let r = self.rounds;
        let root = rec.open(r, "round", ROOT);
        let decide = rec.open(r, "decide", root);
        for (first, b) in self.shards() {
            self.decide_shard(first, b, rec, decide);
        }
        rec.close(decide);
        rec.time(r, "core.monitor_apply", root, || self.apply());
        rec.time(r, "abr.step_all", root, || {
            self.sim.step_all_with_pool(&self.actions, pool);
        });
        rec.time(r, "core.rollover", root, || self.rollover());
        rec.close(root);
        self.rounds += 1;
    }

    fn decide_shard(&mut self, first: usize, b: usize, rec: &mut Recorder, parent: u32) {
        let r = self.rounds;
        rec.time(r, "abr.fill_obs", parent, || {
            self.sim.fill_observations_range(first, b, &mut self.x)
        });
        rec.time(r, "nn.actor_fwd", parent, || {
            self.actor
                .forward_into(&self.x, &mut self.ws, &mut self.logits)
        });
        rec.time(r, "core.select", parent, || self.select(first, b));
        if self.svm.is_none() {
            rec.time(r, "nn.critic_fwd", parent, || {
                self.critic
                    .forward_into(&self.x, &mut self.ws, &mut self.values)
            });
            rec.time(r, "core.spread", parent, || self.spread(first, b));
            self.signal_rows += b as u64;
        } else {
            rec.time(r, "ocsvm.window_push", parent, || {
                self.push_windows(first, b)
            });
            if !self.ready.is_empty() {
                rec.time(r, "ocsvm.score_batch", parent, || self.score_windows());
                for (&s, &score) in self.ready.iter().zip(&self.scores) {
                    self.raw[first + s] = score;
                }
                self.signal_rows += self.ready.len() as u64;
            }
        }
    }

    /// Per-replica softmax, mean over replicas, argmax (ties to the
    /// lowest level) — the engine's private learned-action step.
    fn select(&mut self, first: usize, b: usize) {
        let reps = self.replicas;
        self.probs.resize_shape(reps * b, NUM_BITRATES);
        for row in 0..reps * b {
            let logits = self.logits.row(row);
            let probs = self.probs.row_mut(row);
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (p, &l) in probs.iter_mut().zip(logits) {
                *p = (l - max).exp();
                sum += *p;
            }
            for p in probs {
                *p /= sum;
            }
        }
        for s in 0..b {
            for (j, m) in self.mean.iter_mut().enumerate() {
                let mut sum = 0.0f32;
                for rep in 0..reps {
                    sum += self.probs.get(rep * b + s, j);
                }
                *m = sum / reps as f32;
            }
            let mut best = 0;
            for (j, &p) in self.mean.iter().enumerate() {
                if p > self.mean[best] {
                    best = j;
                }
            }
            self.learned[first + s] = best as u8;
        }
    }

    /// U_V raw value: mean of the `keep` smallest distances of the
    /// replica values from their mean.
    fn spread(&mut self, first: usize, b: usize) {
        let reps = self.replicas;
        for s in 0..b {
            let mut mean = 0.0f32;
            for rep in 0..reps {
                mean += self.values.get(rep * b + s, 0);
            }
            mean /= reps as f32;
            self.devs.clear();
            for rep in 0..reps {
                self.devs
                    .push((self.values.get(rep * b + s, 0) - mean).abs());
            }
            self.devs.sort_unstable_by(f32::total_cmp);
            self.raw[first + s] = self.devs[..self.keep].iter().sum::<f32>() / self.keep as f32;
        }
    }

    /// Push each observing session's newest throughput into its feature
    /// window and stage the ready windows for one batched score.
    fn push_windows(&mut self, first: usize, b: usize) {
        self.feats.reset_rows(FEATURE_DIM);
        self.ready.clear();
        for s in 0..b {
            let i = first + s;
            if !self.monitors.observing(i) {
                continue;
            }
            let fw = &mut self.windows[i];
            fw.push(self.x.get(s, HISTORY_LEN - 1) * 10.0);
            if fw.ready() {
                fw.write(&mut self.feat);
                self.feats.push_row(&self.feat);
                self.ready.push(s);
            }
        }
    }

    fn score_windows(&mut self) {
        self.scores.clear();
        self.scores.resize(self.ready.len(), 0.0);
        let svm = self.svm.as_ref().expect("U_S shadow has an OC-SVM");
        svm.score_batch_into(&self.feats, &mut self.scores);
    }

    /// The serial phase: fold raw values into the monitors in session
    /// order and pick learned or buffer-based actions.
    fn apply(&mut self) {
        for i in 0..self.sim.len() {
            if !self.sim.active(i) {
                self.actions[i] = 0;
                continue;
            }
            if self.monitors.observing(i) {
                self.monitors.update(i, self.raw[i]);
            }
            self.actions[i] = if self.monitors.tripped(i) {
                let buf_obs = (self.sim.buffer_s(i) / 10.0) as f32;
                self.bb.level_for_buffer(buf_obs as f64 * 10.0)
            } else {
                self.learned[i] as usize
            };
        }
    }

    /// Auto-reset: a finished video starts a fresh session on the slot.
    fn rollover(&mut self) {
        for i in 0..self.sim.len() {
            let c = self.sim.sessions_completed(i);
            if c != self.completed_seen[i] {
                self.completed_seen[i] = c;
                self.monitors.reset_session(i);
                self.raw[i] = 0.0;
                self.windows[i].reset();
            }
        }
    }
}

type Fleet<'a> = (&'a MultiSession, &'a FleetMonitors);

fn fleet(e: &FleetEngine) -> Fleet<'_> {
    (e.sim(), e.monitors())
}

/// Sessions whose lifetime QoE, chunk count or switch/recovery counts
/// differ bit-wise between two fleets.
fn mismatches(a: Fleet, b: Fleet) -> usize {
    let key = |(sim, m): Fleet, i: usize| {
        let qoe = sim.qoe_total(i).to_bits();
        (qoe, sim.chunks_total(i), m.switches(i), m.recoveries(i))
    };
    (0..a.0.len()).filter(|&i| key(a, i) != key(b, i)).count()
}

/// The traced run of one workload: per-layer numbers from shadow
/// rounds, alternating in blocks with untraced engine rounds at pool 1
/// (the accounting base) and at the widest pool up to two lanes.
pub fn trace(workload: &'static Workload, seed: u64, opts: &Options, out_dir: &Path) -> Report {
    let serial = ThreadPool::new(1);
    osa_runtime::with_pool(&serial, || trace_on(workload, seed, opts, out_dir, &serial))
}

fn trace_on(
    workload: &'static Workload,
    seed: u64,
    opts: &Options,
    out_dir: &Path,
    serial: &ThreadPool,
) -> Report {
    let (mut setup, stages) = Setup::repeated(workload, seed, opts.setup_reps);
    let n = workload.sessions;
    let width = wide_width();
    let wide = ThreadPool::new(width);
    let mut wide_engine = setup.engine(n, true);
    let mut shadow = Shadow::new(&setup);
    let per_round = shadow.spans_per_round();
    let mut rec = Recorder::with_capacity(MAX_SPANS.max(per_round * CHUNK_COUNT));
    // Warm the new engine and the shadow for the one video the set-up
    // engine has run, so all three stay in lockstep and each holds
    // scratch for the pool it is timed on. One probe warms the int8
    // scratch.
    shadow.probe(&mut rec);
    for _ in 0..CHUNK_COUNT {
        wide_engine.round_with_pool(&wide);
        shadow.round(&mut rec, serial);
        rec.clear();
    }
    shadow.signal_rows = 0;

    // Room for every round the span budget allows, per engine.
    let max_rounds = whole_videos(rec.remaining() / per_round);
    let mut serial_s = Vec::with_capacity(max_rounds);
    let mut wide_s = Vec::with_capacity(max_rounds);
    let mut failed = 0u64;
    let allocs_before = counting_alloc::allocations();
    let start = Instant::now();
    loop {
        // Alternate in blocks of a few rounds: short enough that outside
        // contention lands on all three alike, long enough that each
        // finds its own state in cache for most of its rounds.
        for _ in 0..CHUNK_COUNT / BLOCK {
            for _ in 0..BLOCK {
                let t = Instant::now();
                black_box(setup.engine.round_with_pool(serial));
                serial_s.push(t.elapsed().as_secs_f64());
                failed += non_finite(setup.engine.sim().rewards());
            }
            for _ in 0..BLOCK {
                let t = Instant::now();
                black_box(wide_engine.round_with_pool(&wide));
                wide_s.push(t.elapsed().as_secs_f64());
                failed += non_finite(wide_engine.sim().rewards());
            }
            for _ in 0..BLOCK {
                shadow.probe(&mut rec);
                shadow.round(&mut rec, serial);
                failed += non_finite(shadow.sim.rewards());
            }
        }
        let full = rec.remaining() < per_round * CHUNK_COUNT
            || serial_s.len() + CHUNK_COUNT > serial_s.capacity();
        if full || start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let allocs = counting_alloc::allocations() - allocs_before;
    let rounds = serial_s.len();

    let spans = rec.spans();
    let selfs = self_times(spans);
    let self_us = |name: &str| {
        let ns: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns)
            .sum();
        ns as f64 / 1e3 / rounds as f64
    };
    let shadow_round_us = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .sum::<f64>()
        / rounds as f64;
    let round_us = serial_s.iter().sum::<f64>() * 1e6 / rounds as f64;
    let wide_us = wide_s.iter().sum::<f64>() * 1e6 / wide_s.len() as f64;
    let layers: f64 = LAYERS.iter().map(|l| self_us(l)).sum();
    let signal_us =
        self_us("nn.critic_fwd") + self_us("ocsvm.window_push") + self_us("ocsvm.score_batch");
    let serial_us =
        self_us("core.monitor_apply") + self_us("abr.step_all") + self_us("core.rollover");
    let rows_per_round = shadow.signal_rows as f64 / rounds as f64;

    let mut r = Report {
        attempted: (n * 3 * rounds) as u64,
        failed,
        ..Report::default()
    };
    r.metric("abr.fill_obs_us", self_us("abr.fill_obs"), "us");
    r.metric("nn.actor_fwd_us", self_us("nn.actor_fwd"), "us");
    r.metric("core.signal_us", signal_us, "us");
    r.metric("core.signal_rows_per_round", rows_per_round, "count");
    r.metric(
        "core.signal_ns_per_row",
        signal_us * 1e3 / rows_per_round,
        "ns",
    );
    r.metric("core.monitor_apply_us", self_us("core.monitor_apply"), "us");
    r.metric("abr.step_all_us", self_us("abr.step_all"), "us");
    r.metric("core.rollover_us", self_us("core.rollover"), "us");
    r.metric("nn.actor_fwd_int8_us", self_us("nn.actor_fwd_int8"), "us");
    r.metric("nn.critic_fwd_int8_us", self_us("nn.critic_fwd_int8"), "us");
    r.metric("core.round_us", round_us, "us");
    r.metric("core.residual_us", round_us - layers, "us");
    r.metric("trace.coverage", layers / round_us, "ratio");
    r.metric("trace.overhead", shadow_round_us / round_us, "ratio");
    r.metric("runtime.serial_share_ub", serial_us / round_us, "ratio");
    r.metric(
        "runtime.pool2_efficiency",
        round_us / (width as f64 * wide_us),
        "ratio",
    );
    let stage_ms =
        |f: fn(&StageTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>()) * 1e3;
    r.metric("trace.corpus_ms", stage_ms(|s| s.corpus), "ms");
    r.metric("nn.artifact_load_ms", stage_ms(|s| s.artifact), "ms");
    r.metric("core.calibrate_ms", stage_ms(|s| s.calibrate), "ms");
    r.metric("core.engine_build_ms", stage_ms(|s| s.engine_build), "ms");
    r.metric("core.warmup_ms", stage_ms(|s| s.warmup), "ms");

    match workload.signal {
        Signal::Uv => r.info("nn.critic_fwd_us", self_us("nn.critic_fwd"), "us"),
        Signal::Us => {
            r.info("ocsvm.window_push_us", self_us("ocsvm.window_push"), "us");
            r.info("ocsvm.score_batch_us", self_us("ocsvm.score_batch"), "us");
        }
    }
    r.info(
        "core.select_us",
        self_us("core.select") + self_us("core.spread"),
        "us",
    );
    r.info("traced_rounds", rounds as f64, "rounds");
    r.info("pool_width", width as f64, "lanes");

    let path = out_dir.join(format!("{}.spans.jsonl", workload.name));
    if let Err(e) = rec.write_jsonl(&path) {
        r.errors.push(format!("writing {}: {e}", path.display()));
    }
    r.gate(failed == 0, || format!("{failed} traced decisions failed"));
    r.gate(allocs == 0, || {
        format!("{allocs} heap allocations in traced rounds")
    });
    let off = mismatches((&shadow.sim, &shadow.monitors), fleet(&setup.engine));
    r.gate(off == 0, || {
        format!("shadow diverged from the engine on {off} sessions")
    });
    let off = mismatches(fleet(&wide_engine), fleet(&setup.engine));
    r.gate(off == 0, || {
        format!("pool {width} diverged from pool 1 on {off} sessions")
    });
    r.correct = r.errors.is_empty();
    r
}
