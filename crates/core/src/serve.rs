//! Fleet-scale guarded serving: 100k+ concurrent guarded ABR sessions,
//! decided by session-major batched ensemble inference.
//!
//! [`FleetEngine`] is the one implementation of the paper's switching
//! rule: it serves fleets, and [`crate::eval`] runs it one session per
//! trace for calibration and the figures. It holds the whole fleet —
//! the `osa_abr::MultiSession` simulator (one session record each) for
//! the streaming state, the struct-of-arrays [`FleetMonitors`] for the
//! per-session safety state (k-window variance rings, l-counters, and
//! the switch/recovery state machines), and per-session
//! [`FeatureWindow`]s when the fleet is guarded by U_S.
//!
//! # One decision round
//!
//! 1. **Parallel compute** — sessions are split across the current
//!    `osa-runtime` pool's lanes ([`ThreadPool::parallel_for_slice`]),
//!    and each lane walks its contiguous session range in shard-sized
//!    batches: one observation fill, one stacked actor forward for the
//!    whole shard (`(replicas · shard) × dim` — *session-major*, every
//!    replica of every session in a single grouped GEMM per layer), a
//!    per-session softmax/mean/argmax for the learned action, and the
//!    guarding signal's raw value (KL sums over the same softmaxes for
//!    U_π, a batched critic forward for U_V, a feature-window score for
//!    U_S). Lanes write only their own slice
//!    of `SessionSlot`s and their own [`LaneSlots`] scratch.
//! 2. **Serial apply** — in session order: fold each raw value into the
//!    session's monitor and pick the learned or fallback action.
//! 3. **Simulator step** — `step_all` advances every session one chunk
//!    in one pass, each lane stepping its own sessions in place.
//! 4. **Serial rollover** — with `auto_reset`, in session order: a
//!    session whose video just finished has rolled onto its next trace,
//!    so its monitor and its signal state (the U_S feature window) are
//!    reset, like a new viewer arriving.
//!
//! # Determinism
//!
//! Worker count changes *which lane* computes a session and how big the
//! GEMM batches are — never the bits: `osa_nn::stacked` guarantees row
//! arithmetic independent of batch size and run split, every
//! per-session reduction here runs in a fixed order, monitor state
//! changes only in the serial phase in session order, and the simulator
//! steps each session independently of the lane that owns it. Telemetry and
//! per-session switch/recovery indices are bit-identical at any
//! `OSA_THREADS`, pinned by `tests/serve_determinism.rs`.
//!
//! # Reverse switching
//!
//! [`ServeConfig::reverse`] arms the monitors' hysteresis state machine
//! (see `crate::monitor`): a tripped session keeps evaluating its
//! signal and returns to the learned policy after `quiet_windows`
//! consecutive in-threshold variances, with a re-trip lock against
//! oscillation. Off by default — the paper's sticky behavior.

use std::sync::Arc;

use osa_abr::policy::BufferBased;
use osa_abr::sim::{AbrConfig, MultiSession};
use osa_abr::video::VideoModel;
use osa_abr::{HISTORY_LEN, NUM_BITRATES, OBS_DIM};
use osa_nn::stacked::StackedNet;
use osa_nn::tensor::{argmax, softmax_row, Tensor};
use osa_nn::workspace::Workspace;
use osa_ocsvm::detector::NoveltyDetector;
use osa_ocsvm::features::{FeatureWindow, FEATURE_DIM};
use osa_ocsvm::OcSvm;
use osa_runtime::{LaneSlots, ThreadPool};
use osa_trace::Trace;

use crate::ensemble::{policy_spread, replica_mean, value_spread, PensieveEnsemble};
pub use crate::monitor::FleetMonitors;
use crate::monitor::ReverseConfig;
use crate::{DEFAULT_K, DEFAULT_L};

/// Which uncertainty signal guards the fleet.
// One value per engine (not per session), so the OcSvm payload's size
// difference against the unit variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum FleetSignal {
    /// Never trips — the unguarded learned policy (baseline fleets).
    Null,
    /// U_π: per-session KL divergence of each replica's action
    /// distribution from the ensemble mean (top-2 discarded), over the
    /// softmaxes the actor forward already produced for the action.
    PolicyDisagreement,
    /// U_V: per-session value disagreement off the batched stacked
    /// critic forward.
    ValueDisagreement,
    /// U_S: per-session throughput [`FeatureWindow`]s scored by a
    /// fitted one-class SVM.
    Novelty(OcSvm),
}

/// Fleet-wide safety configuration (every session shares one (k, α, l)
/// and one reverse policy — calibration is per-signal, not per-viewer).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub k: usize,
    pub alpha: f32,
    pub l: usize,
    /// `Some(μ₀)` anchors every monitor's variance at the calibrated
    /// in-distribution signal level instead of the window's own mean
    /// (see [`FleetMonitors`]).
    pub anchor: Option<f32>,
    /// `Some` arms hysteresis-based reverse switching on every monitor.
    pub reverse: Option<ReverseConfig>,
    /// Max sessions per batched stacked dispatch inside one lane. Caps
    /// scratch size; has no effect on results (batch-size-independent
    /// row arithmetic), only on locality.
    pub shard: usize,
    /// Roll finished sessions onto the next trace round-robin (the
    /// steady-state bench configuration). Off = one video per session,
    /// the evaluation configuration.
    pub auto_reset: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            k: DEFAULT_K,
            alpha: f32::INFINITY,
            l: DEFAULT_L,
            anchor: None,
            reverse: None,
            shard: 256,
            auto_reset: false,
        }
    }
}

/// Per-session outputs of the parallel phase, plus the U_S feature
/// window (per-session signal state must live in the sharded slice so
/// lanes can mutate it without aliasing).
struct SessionSlot {
    /// Raw signal value of this round; held while the monitor is not
    /// observing (a sticky fallback), and for U_S through warm-up.
    raw: f32,
    /// Learned (ensemble-mean argmax) action of this round.
    learned: u8,
    fw: FeatureWindow,
}

impl SessionSlot {
    fn new() -> SessionSlot {
        SessionSlot {
            raw: 0.0,
            learned: 0,
            fw: FeatureWindow::new(),
        }
    }

    fn reset_signal(&mut self) {
        self.raw = 0.0;
        self.fw.reset();
    }
}

/// Per-lane scratch: workspace + forward tensors sized for one shard.
struct LaneScratch {
    ws: Workspace,
    x: Tensor,
    logits: Tensor,
    values: Tensor,
    probs: Tensor,
    mean: [f32; NUM_BITRATES],
    devs: Vec<f32>,
    feat: [f32; FEATURE_DIM],
    /// U_S batch staging: feature rows of this round's ready sessions,
    /// their shard-local indices, and the batched scores — one
    /// `score_batch_into` call per shard instead of one detector call
    /// per session.
    feats: Tensor,
    us_idx: Vec<usize>,
    us_scores: Vec<f32>,
}

impl LaneScratch {
    fn new(replicas: usize, shard: usize) -> LaneScratch {
        LaneScratch {
            ws: Workspace::new(),
            x: Tensor::zeros(shard, OBS_DIM),
            logits: Tensor::zeros(0, 0),
            values: Tensor::zeros(0, 0),
            probs: Tensor::zeros(replicas * shard, NUM_BITRATES),
            mean: [0.0; NUM_BITRATES],
            devs: Vec::with_capacity(replicas),
            feat: [0.0; FEATURE_DIM],
            feats: Tensor::zeros(shard, FEATURE_DIM),
            us_idx: Vec::with_capacity(shard),
            us_scores: Vec::with_capacity(shard),
        }
    }
}

/// Aggregate fleet telemetry — a pure, deterministic function of the
/// serial per-session state (bit-identical at any worker count).
#[derive(Clone, Debug)]
pub struct FleetTelemetry {
    pub sessions: usize,
    pub rounds: u64,
    /// Total chunks downloaded (= guarded decisions taken).
    pub decisions: u64,
    /// Mean linear QoE per chunk across the fleet.
    pub mean_qoe_per_chunk: f64,
    /// Mean rebuffering seconds per session.
    pub mean_rebuffer_s: f64,
    /// Percentiles of the per-session lifetime QoE distribution.
    pub qoe_p10: f64,
    pub qoe_p50: f64,
    pub qoe_p90: f64,
    /// Sessions that switched to the fallback at least once.
    pub switched_sessions: usize,
    /// Sessions that recovered to the learned policy at least once.
    pub recovered_sessions: usize,
    /// Sessions whose re-trip lock engaged.
    pub locked_sessions: usize,
    pub total_switches: u64,
    pub total_recoveries: u64,
    /// `switched_sessions / sessions`.
    pub switch_rate: f64,
    /// `recovered_sessions / switched_sessions` (0 when nothing
    /// switched).
    pub recovery_rate: f64,
    /// Mean first-trip decision index over switched sessions (−1 when
    /// nothing switched; never NaN so reports stay JSON-clean).
    pub mean_first_switch: f64,
}

/// The multi-tenant serving engine: one guarded decision per session
/// per [`FleetEngine::round`].
pub struct FleetEngine {
    sim: MultiSession,
    actor: Arc<StackedNet>,
    critic: Arc<StackedNet>,
    replicas: usize,
    keep: usize,
    signal: FleetSignal,
    monitors: FleetMonitors,
    slots: Vec<SessionSlot>,
    actions: Vec<usize>,
    lanes: Option<LaneSlots<LaneScratch>>,
    bb: BufferBased,
    shard: usize,
    auto_reset: bool,
    completed_seen: Vec<u64>,
    rounds: u64,
}

impl FleetEngine {
    /// Build a fleet of `n` sessions over `traces` (session `i` starts
    /// on trace `i mod traces.len()`), guarded by `signal` under
    /// `serve`'s fleet-wide (k, α, l) and reverse policy. The ensemble
    /// is consumed: its stacked actor/critic become the fleet's shared
    /// inference nets.
    pub fn new(
        ens: PensieveEnsemble,
        signal: FleetSignal,
        video: VideoModel,
        cfg: AbrConfig,
        traces: Vec<Trace>,
        n: usize,
        serve: &ServeConfig,
    ) -> FleetEngine {
        FleetEngine::sharing(&ens, signal, video, cfg, traces, n, serve)
    }

    /// [`FleetEngine::new`] serving `ens`'s stacked nets without
    /// consuming it — for [`crate::eval`]'s engines, which never outlive
    /// the borrow.
    pub(crate) fn sharing(
        ens: &PensieveEnsemble,
        signal: FleetSignal,
        video: VideoModel,
        cfg: AbrConfig,
        traces: Vec<Trace>,
        n: usize,
        serve: &ServeConfig,
    ) -> FleetEngine {
        let replicas = ens.replicas();
        let keep = ens.keep();
        let (actor, critic) = ens.shared_nets();
        let sim = MultiSession::new(video, cfg, traces, n, serve.auto_reset);
        FleetEngine {
            sim,
            actor,
            critic,
            replicas,
            keep,
            signal,
            monitors: FleetMonitors::new(n, serve),
            slots: (0..n).map(|_| SessionSlot::new()).collect(),
            actions: vec![0; n],
            lanes: None,
            bb: BufferBased::default(),
            shard: serve.shard.max(1),
            auto_reset: serve.auto_reset,
            completed_seen: vec![0; n],
            rounds: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.sim.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn sim(&self) -> &MultiSession {
        &self.sim
    }

    pub fn monitors(&self) -> &FleetMonitors {
        &self.monitors
    }

    /// The raw signal value session `i`'s monitor last consumed: this
    /// round's while it observes, frozen while a sticky fallback does
    /// not (0 before the first round, and for U_S until its feature
    /// window is warm).
    pub(crate) fn raw(&self, i: usize) -> f32 {
        self.slots[i].raw
    }

    /// One decision round for the whole fleet on the current
    /// `osa-runtime` pool. Allocation-free after the first round on a
    /// given pool width. Returns `false` once every session has
    /// finished (never with `auto_reset`).
    pub fn round(&mut self) -> bool {
        osa_runtime::with_current(|pool| self.round_with_pool(pool))
    }

    /// [`FleetEngine::round`] on an explicit pool.
    pub fn round_with_pool(&mut self, pool: &ThreadPool) -> bool {
        let lanes = pool.workers();
        let rebuild = match &self.lanes {
            Some(slots) => slots.len() != lanes,
            None => true,
        };
        if rebuild {
            let (replicas, shard) = (self.replicas, self.shard);
            self.lanes = Some(LaneSlots::new(lanes, |_| LaneScratch::new(replicas, shard)));
        }

        // Phase 1 — parallel: each lane decides its contiguous session
        // range in shard-sized batches, writing only its own slots.
        {
            let FleetEngine {
                sim,
                actor,
                critic,
                replicas,
                keep,
                signal,
                monitors,
                slots,
                lanes,
                shard,
                ..
            } = self;
            let lanes = lanes.as_ref().expect("lane scratch built above");
            let (replicas, keep, shard) = (*replicas, *keep, *shard);
            let sim = &*sim;
            let monitors = &*monitors;
            pool.parallel_for_slice(slots, 1, |lane, first, chunk| {
                let mut guard = lanes.borrow(lane);
                let scratch = &mut *guard;
                let mut off = 0;
                while off < chunk.len() {
                    let b = (chunk.len() - off).min(shard);
                    decide_shard(
                        sim,
                        monitors,
                        actor,
                        critic,
                        signal,
                        replicas,
                        keep,
                        first + off,
                        &mut chunk[off..off + b],
                        scratch,
                    );
                    off += b;
                }
            });
        }

        // Phase 2 — serial, in session order: monitors, action pick,
        // simulator step.
        let n = self.len();
        for i in 0..n {
            if !self.sim.active(i) {
                self.actions[i] = 0;
                continue;
            }
            if self.monitors.observing(i) {
                self.monitors.update(i, self.slots[i].raw);
            }
            self.actions[i] = if self.monitors.tripped(i) {
                // Buffer-Based reads the buffer level the way the
                // observation row encodes it: buffer/10 stored as f32,
                // read back ×10 in f64.
                let buf_obs = (self.sim.buffer_s(i) / 10.0) as f32;
                self.bb.level_for_buffer(buf_obs as f64 * 10.0)
            } else {
                self.slots[i].learned as usize
            };
        }
        self.sim.step_all_with_pool(&self.actions, pool);
        self.rounds += 1;

        if self.auto_reset {
            // A finished video is a session boundary: the slot rolls
            // onto its next trace with fresh safety state, like a new
            // viewer arriving.
            for i in 0..n {
                let c = self.sim.sessions_completed(i);
                if c != self.completed_seen[i] {
                    self.completed_seen[i] = c;
                    self.monitors.reset_session(i);
                    self.slots[i].reset_signal();
                }
            }
        }
        !self.sim.all_done()
    }

    /// Run up to `max_rounds` rounds (stops early once all sessions
    /// finish, which never happens with `auto_reset`). Returns the
    /// number of rounds taken.
    pub fn run(&mut self, max_rounds: usize) -> usize {
        let mut taken = 0;
        while taken < max_rounds {
            let more = self.round();
            taken += 1;
            if !more {
                break;
            }
        }
        taken
    }

    /// Aggregate the fleet's lifetime accounting. Allocates (sorts the
    /// per-session QoE distribution) — call between runs, not per round.
    pub fn telemetry(&self) -> FleetTelemetry {
        let n = self.len();
        let mut qoe_sum = 0.0f64;
        let mut rebuf_sum = 0.0f64;
        let mut chunks = 0u64;
        let mut switched = 0usize;
        let mut recovered = 0usize;
        let mut locked = 0usize;
        let mut total_switches = 0u64;
        let mut total_recoveries = 0u64;
        let mut first_switch_sum = 0.0f64;
        let mut qoe: Vec<f64> = Vec::with_capacity(n);
        for i in 0..n {
            qoe_sum += self.sim.qoe_total(i);
            rebuf_sum += self.sim.rebuffer_total(i);
            chunks += self.sim.chunks_total(i);
            qoe.push(self.sim.qoe_total(i));
            let s = self.monitors.switches(i);
            let r = self.monitors.recoveries(i);
            total_switches += s as u64;
            total_recoveries += r as u64;
            if s > 0 {
                switched += 1;
            }
            if r > 0 {
                recovered += 1;
            }
            if self.monitors.locked(i) {
                locked += 1;
            }
            if let Some(t) = self.monitors.tripped_at(i) {
                first_switch_sum += t as f64;
            }
        }
        qoe.sort_unstable_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            if qoe.is_empty() {
                return 0.0;
            }
            let idx = ((qoe.len() - 1) as f64 * p).round() as usize;
            qoe[idx]
        };
        FleetTelemetry {
            sessions: n,
            rounds: self.rounds,
            decisions: chunks,
            mean_qoe_per_chunk: if chunks > 0 {
                qoe_sum / chunks as f64
            } else {
                0.0
            },
            mean_rebuffer_s: rebuf_sum / n.max(1) as f64,
            qoe_p10: pct(0.10),
            qoe_p50: pct(0.50),
            qoe_p90: pct(0.90),
            switched_sessions: switched,
            recovered_sessions: recovered,
            locked_sessions: locked,
            total_switches,
            total_recoveries,
            switch_rate: switched as f64 / n.max(1) as f64,
            recovery_rate: if switched > 0 {
                recovered as f64 / switched as f64
            } else {
                0.0
            },
            mean_first_switch: if switched > 0 {
                first_switch_sum / switched as f64
            } else {
                -1.0
            },
        }
    }
}

/// Decide one shard: batched stacked forwards plus per-session signal
/// scalars, writing into `slots` (sessions `first .. first +
/// slots.len()`). Pure with respect to everything but `slots` and
/// `scratch` — the parallel-phase contract.
#[allow(clippy::too_many_arguments)] // the destructured engine, flattened on purpose
fn decide_shard(
    sim: &MultiSession,
    monitors: &FleetMonitors,
    actor: &StackedNet,
    critic: &StackedNet,
    signal: &FleetSignal,
    replicas: usize,
    keep: usize,
    first: usize,
    slots: &mut [SessionSlot],
    scratch: &mut LaneScratch,
) {
    let b = slots.len();
    sim.fill_observations_range(first, b, &mut scratch.x);

    // Learned action: one grouped actor GEMM per layer for the whole
    // shard, rows replica-major (`row = r·b + s`), then the softmax →
    // mean-over-replicas → argmax reductions `PensieveEnsemble::act`
    // runs at b = 1. U_π reads the same softmaxes and mean. A session
    // whose monitor is not observing keeps its last raw value.
    actor.forward_into(&scratch.x, &mut scratch.ws, &mut scratch.logits);
    scratch.probs.resize_shape(replicas * b, NUM_BITRATES);
    for row in 0..replicas * b {
        softmax_row(scratch.logits.row(row), scratch.probs.row_mut(row));
    }
    let u_pi = matches!(signal, FleetSignal::PolicyDisagreement);
    for (s_i, slot) in slots.iter_mut().enumerate() {
        replica_mean(&scratch.probs, replicas, b, s_i, &mut scratch.mean);
        slot.learned = argmax(&scratch.mean) as u8;
        if u_pi && monitors.observing(first + s_i) {
            slot.raw = policy_spread(
                &scratch.probs,
                &scratch.mean,
                replicas,
                b,
                s_i,
                keep,
                &mut scratch.devs,
            );
        }
    }

    // Raw signal values of the other signals.
    match signal {
        FleetSignal::Null => {
            for slot in slots.iter_mut() {
                slot.raw = 0.0;
            }
        }
        FleetSignal::PolicyDisagreement => {}
        FleetSignal::ValueDisagreement => {
            critic.forward_into(&scratch.x, &mut scratch.ws, &mut scratch.values);
            for (s_i, slot) in slots.iter_mut().enumerate() {
                if monitors.observing(first + s_i) {
                    slot.raw =
                        value_spread(&scratch.values, replicas, b, s_i, keep, &mut scratch.devs);
                }
            }
        }
        FleetSignal::Novelty(svm) => {
            // Gather the shard's ready feature windows, score them in
            // ONE batched call, then scatter the scores back.
            // Bit-identical to per-session scoring — the batched engine
            // is the canonical path at every batch size — and still
            // sharded: the staging tensors live in this lane's scratch.
            scratch.feats.reset_rows(FEATURE_DIM);
            scratch.us_idx.clear();
            for (s_i, slot) in slots.iter_mut().enumerate() {
                let i = first + s_i;
                // A sticky (or locked) fallback stops observing — its
                // feature window freezes with the monitor's ring.
                if !monitors.observing(i) {
                    continue;
                }
                let tput = scratch.x.get(s_i, HISTORY_LEN - 1) * 10.0;
                slot.fw.push(tput);
                if slot.fw.ready() {
                    slot.fw.write(&mut scratch.feat);
                    scratch.feats.push_row(&scratch.feat);
                    scratch.us_idx.push(s_i);
                }
            }
            if !scratch.us_idx.is_empty() {
                scratch.us_scores.clear();
                scratch.us_scores.resize(scratch.us_idx.len(), 0.0);
                svm.score_batch_into(&scratch.feats, &mut scratch.us_scores);
                for (&s_i, &score) in scratch.us_idx.iter().zip(&scratch.us_scores) {
                    slots[s_i].raw = score;
                }
            }
        }
    }
}
