//! Fleet-scale guarded serving: 100k+ concurrent guarded ABR sessions,
//! decided by session-major batched ensemble inference.
//!
//! [`FleetEngine`] is the one implementation of the paper's switching
//! rule: it serves fleets, and [`crate::eval`] runs it one session per
//! trace for calibration and the figures. Its per-session state is a set
//! of records that split at the same session boundaries: the
//! `osa_abr::MultiSession` simulator (a session record and a reward
//! each), the [`FleetMonitors`] (a monitor record and k ring slots each)
//! and, only under U_S, a [`FeatureWindow`] each.
//!
//! # One decision round
//!
//! A round is one pool dispatch ([`ThreadPool::parallel_for_lockstep`]):
//! each lane takes a contiguous session range of every per-session
//! buffer and walks it in shard-sized batches. Per shard, while its
//! state is in cache, the lane **decides** (one observation fill, one
//! stacked actor forward for the whole shard — `(replicas · shard) ×
//! dim`, every replica of every session in a single grouped GEMM per
//! layer — a per-session softmax/mean/argmax for the learned action, and
//! the signal's raw value: KL sums over the same softmaxes for U_π, a
//! batched critic forward for U_V, a batched feature-window score for
//! U_S), **applies** each raw value to the session's monitor and picks
//! the learned or Buffer-Based action, **steps** the session with the
//! simulator's one step (`osa_abr::sim::Catalog::step`), and, with
//! `auto_reset`, **rolls over** a session whose video just finished by
//! resetting its monitor and signal state, like a new viewer arriving.
//! Outside the lanes only bookkeeping is left: the round counter and a
//! flag set by any lane that still holds an active session.
//!
//! # Determinism
//!
//! Worker count changes *which lane* serves a session and how big the
//! GEMM batches are — never the bits. A round reads and writes session
//! `i`'s records only: its observation row (whose arithmetic
//! `osa_nn::stacked` makes independent of batch size and run split), its
//! raw value and learned action (per-session reductions in a fixed
//! order), its monitor, its simulator state and its signal state. So
//! each session's state after a round is a pure function of its state
//! before, whichever lane and shard it landed in; `tests/round_bits.rs`
//! and `tests/serve_determinism.rs` pin this at several pool widths.
//!
//! # Reverse switching
//!
//! [`ServeConfig::reverse`] arms the monitors' hysteresis state machine
//! (see `crate::monitor`): a tripped session keeps evaluating its
//! signal and returns to the learned policy after `quiet_windows`
//! consecutive in-threshold variances, with a re-trip lock against
//! oscillation. Off by default — the paper's sticky behavior.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use osa_abr::policy::BufferBased;
use osa_abr::sim::{AbrConfig, Catalog, MultiSession, Session};
use osa_abr::video::VideoModel;
use osa_abr::{HISTORY_LEN, NUM_BITRATES, OBS_DIM};
use osa_nn::stacked::StackedNet;
use osa_nn::tensor::{argmax, softmax_row, Tensor};
use osa_nn::workspace::Workspace;
use osa_ocsvm::detector::NoveltyDetector;
use osa_ocsvm::features::{FeatureWindow, FEATURE_DIM};
use osa_ocsvm::OcSvm;
use osa_runtime::{LaneSlots, Rows, ThreadPool};
use osa_trace::Trace;

use crate::ensemble::{policy_spread, replica_mean, value_spread, PensieveEnsemble};
pub use crate::monitor::FleetMonitors;
use crate::monitor::{ReverseConfig, SessionMonitor};
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

// Byte budget of a non-U_S session's engine state (196 B plus its 4k
// ring bytes): simulator record, reward, monitor record. Raw values and
// learned actions live in lane scratch; the 112-byte U_S window only
// in U_S fleets.
const _: () = assert!(size_of::<Session>() + size_of::<f32>() + size_of::<SessionMonitor>() <= 196);

/// Per-lane scratch: workspace + forward tensors sized for one shard,
/// and the shard's raw signal values and learned actions.
struct LaneScratch {
    ws: Workspace,
    /// Raw signal value of each session of the shard (0 where none was
    /// scored: the unguarded fleet, and U_S until a window is warm).
    raw: Vec<f32>,
    /// Learned (ensemble-mean argmax) action of each session.
    learned: Vec<u8>,
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
    /// The scorer's staging arena is per thread; set once this lane has
    /// warmed it (see `decide_shard`).
    us_warm: bool,
}

impl LaneScratch {
    fn new(replicas: usize, shard: usize) -> LaneScratch {
        LaneScratch {
            ws: Workspace::new(),
            raw: Vec::with_capacity(shard),
            learned: Vec::with_capacity(shard),
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
            us_warm: false,
        }
    }
}

/// Aggregate fleet telemetry — a pure, deterministic function of the
/// per-session state (bit-identical at any worker count).
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
    /// U_S feature windows, one per session; empty under every other
    /// signal.
    windows: Vec<FeatureWindow>,
    lanes: Option<LaneSlots<LaneScratch>>,
    bb: BufferBased,
    shard: usize,
    auto_reset: bool,
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
        let windows = match signal {
            FleetSignal::Novelty(_) => vec![FeatureWindow::new(); n],
            _ => Vec::new(),
        };
        FleetEngine {
            sim,
            actor,
            critic,
            replicas,
            keep,
            signal,
            monitors: FleetMonitors::new(n, serve),
            windows,
            lanes: None,
            bb: BufferBased::default(),
            shard: serve.shard.max(1),
            auto_reset: serve.auto_reset,
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
    /// window is warm, and after a rollover). Meaningful for a session
    /// that was active in the last round.
    pub fn raw(&self, i: usize) -> f32 {
        self.monitors.last_raw(i)
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

        let FleetEngine {
            sim,
            actor,
            critic,
            replicas,
            keep,
            signal,
            monitors,
            windows,
            lanes,
            bb,
            shard,
            auto_reset,
            rounds,
        } = self;
        let lanes = lanes.as_ref().expect("lane scratch built above");
        let shard = *shard;
        let (catalog, sessions, rewards) = sim.parts_mut();
        let (params, states, ring) = monitors.parts_mut();
        let ctx = LaneCtx {
            catalog,
            params,
            actor,
            critic,
            signal,
            bb,
            replicas: *replicas,
            keep: *keep,
            auto_reset: *auto_reset,
        };
        let (n, k, w) = (sessions.len(), params.k, usize::from(!windows.is_empty()));
        let parts = (
            Rows::new(sessions, 1),
            Rows::new(rewards, 1),
            Rows::new(states, 1),
            Rows::new(ring, k),
            Rows::new(windows, w),
        );
        // Set by every lane that still holds an active session.
        let live = AtomicBool::new(false);
        pool.parallel_for_lockstep(
            n,
            parts,
            |lane, _, (sessions, rewards, states, ring, windows)| {
                let mut guard = lanes.borrow(lane);
                let scratch = &mut *guard;
                let mut lane_live = false;
                let mut off = 0;
                while off < sessions.len() {
                    let b = (sessions.len() - off).min(shard);
                    let (s, e) = (off, off + b);
                    lane_live |= ctx.serve_shard(
                        Shard {
                            sessions: &mut sessions[s..e],
                            rewards: &mut rewards[s..e],
                            monitors: &mut states[s..e],
                            ring: &mut ring[s * k..e * k],
                            windows: &mut windows[s * w..e * w],
                        },
                        scratch,
                    );
                    off = e;
                }
                if lane_live {
                    live.store(true, Ordering::Relaxed);
                }
            },
        );
        *rounds += 1;
        live.into_inner()
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

/// What every lane of a round shares: the simulator's catalog, the
/// monitors' settings, the nets and the signal.
struct LaneCtx<'a> {
    catalog: &'a Catalog,
    params: &'a ServeConfig,
    actor: &'a StackedNet,
    critic: &'a StackedNet,
    signal: &'a FleetSignal,
    bb: &'a BufferBased,
    replicas: usize,
    keep: usize,
    auto_reset: bool,
}

/// One shard's cut of every per-session buffer.
struct Shard<'a> {
    sessions: &'a mut [Session],
    rewards: &'a mut [f32],
    monitors: &'a mut [SessionMonitor],
    /// `len × k` ring slots.
    ring: &'a mut [f32],
    /// One window per session under U_S, none otherwise.
    windows: &'a mut [FeatureWindow],
}

impl LaneCtx<'_> {
    /// Serve one shard a whole round: decide, apply, step and roll over
    /// each of its sessions. Touches nothing outside the shard's own
    /// records and `scratch`. Returns true if a session is still active.
    fn serve_shard(&self, mut sh: Shard<'_>, scratch: &mut LaneScratch) -> bool {
        self.decide(&mut sh, scratch);
        let k = self.params.k;
        let mut live = false;
        for (s_i, (s, m)) in sh
            .sessions
            .iter_mut()
            .zip(sh.monitors.iter_mut())
            .enumerate()
        {
            let ring = &mut sh.ring[s_i * k..(s_i + 1) * k];
            let level = if !s.active() {
                0
            } else {
                if m.observing(self.params) {
                    m.update(self.params, ring, scratch.raw[s_i]);
                }
                if m.tripped() {
                    // Buffer-Based reads the buffer level the way the
                    // observation row encodes it: buffer/10 stored as
                    // f32, read back ×10 in f64.
                    let buf_obs = (s.buffer_s() / 10.0) as f32;
                    self.bb.level_for_buffer(buf_obs as f64 * 10.0)
                } else {
                    scratch.learned[s_i] as usize
                }
            };
            if self.catalog.step(s, &mut sh.rewards[s_i], level) && self.auto_reset {
                // A finished video is a session boundary: the session
                // rolls onto its next trace with fresh safety state.
                m.reset(ring);
                if let Some(fw) = sh.windows.get_mut(s_i) {
                    fw.reset();
                }
            }
            live |= s.active();
        }
        live
    }

    /// Decide one shard: batched stacked forwards, then each session's
    /// learned action and raw signal value into `scratch`. Under U_S it
    /// also pushes each observing session's newest throughput into its
    /// feature window.
    fn decide(&self, sh: &mut Shard<'_>, scratch: &mut LaneScratch) {
        let (replicas, keep, params) = (self.replicas, self.keep, self.params);
        let b = sh.sessions.len();
        self.catalog.fill_observations(sh.sessions, &mut scratch.x);
        scratch.raw.clear();
        scratch.raw.resize(b, 0.0);
        scratch.learned.clear();

        // Learned action: one grouped actor GEMM per layer for the whole
        // shard, rows replica-major (`row = r·b + s`), then the softmax →
        // mean-over-replicas → argmax reductions `PensieveEnsemble::act`
        // runs at b = 1. U_π reads the same softmaxes and mean. A session
        // whose monitor is not observing gets no raw value.
        self.actor
            .forward_into(&scratch.x, &mut scratch.ws, &mut scratch.logits);
        scratch.probs.resize_shape(replicas * b, NUM_BITRATES);
        for row in 0..replicas * b {
            softmax_row(scratch.logits.row(row), scratch.probs.row_mut(row));
        }
        let u_pi = matches!(self.signal, FleetSignal::PolicyDisagreement);
        for (s_i, m) in sh.monitors.iter().enumerate() {
            replica_mean(&scratch.probs, replicas, b, s_i, &mut scratch.mean);
            scratch.learned.push(argmax(&scratch.mean) as u8);
            if u_pi && m.observing(params) {
                scratch.raw[s_i] = policy_spread(
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
        match self.signal {
            FleetSignal::Null | FleetSignal::PolicyDisagreement => {}
            FleetSignal::ValueDisagreement => {
                self.critic
                    .forward_into(&scratch.x, &mut scratch.ws, &mut scratch.values);
                for (s_i, m) in sh.monitors.iter().enumerate() {
                    if m.observing(params) {
                        scratch.raw[s_i] = value_spread(
                            &scratch.values,
                            replicas,
                            b,
                            s_i,
                            keep,
                            &mut scratch.devs,
                        );
                    }
                }
            }
            FleetSignal::Novelty(svm) => {
                if !scratch.us_warm {
                    // Score one dummy row in the round that builds this
                    // lane, on the lane's own thread, so the scorer's
                    // per-thread arena never allocates in a later round.
                    scratch.feats.reset_rows(FEATURE_DIM);
                    scratch.feats.push_row(&scratch.feat);
                    scratch.us_scores.clear();
                    scratch.us_scores.push(0.0);
                    svm.score_batch_into(&scratch.feats, &mut scratch.us_scores);
                    scratch.us_warm = true;
                }
                // Gather the shard's ready feature windows, score them in
                // ONE batched call, then scatter the scores back.
                // Bit-identical to per-session scoring — the batched
                // engine is the canonical path at every batch size — and
                // still sharded: the staging tensors live in this lane's
                // scratch.
                scratch.feats.reset_rows(FEATURE_DIM);
                scratch.us_idx.clear();
                for (s_i, (m, fw)) in sh.monitors.iter().zip(sh.windows.iter_mut()).enumerate() {
                    // A sticky (or locked) fallback stops observing — its
                    // feature window freezes with the monitor's ring.
                    if !m.observing(params) {
                        continue;
                    }
                    fw.push(scratch.x.get(s_i, HISTORY_LEN - 1) * 10.0);
                    if fw.ready() {
                        fw.write(&mut scratch.feat);
                        scratch.feats.push_row(&scratch.feat);
                        scratch.us_idx.push(s_i);
                    }
                }
                if !scratch.us_idx.is_empty() {
                    scratch.us_scores.clear();
                    scratch.us_scores.resize(scratch.us_idx.len(), 0.0);
                    svm.score_batch_into(&scratch.feats, &mut scratch.us_scores);
                    for (&s_i, &score) in scratch.us_idx.iter().zip(&scratch.us_scores) {
                        scratch.raw[s_i] = score;
                    }
                }
            }
        }
    }
}
