//! The chunk-level download simulator: the pure per-chunk transition
//! [`step_chunk`], one session's state [`SessionCursor`], and the
//! [`MultiSession`] batch engine, a vector of cursors.
//!
//! # Dynamics (per chunk, Pensieve's MahiMahi-equivalent model)
//!
//! A session at absolute time `t` with `buffer` seconds of video queued
//! requests chunk `k` at bitrate level `a`:
//!
//! 1. the request spends one RTT (80 ms) in flight, then the payload
//!    streams over the trace-driven link: `delay = rtt +
//!    transfer_time(trace, per, t + rtt, size(k, a))`
//!    ([`osa_trace::link`]; `per` is the trace's period capacity, which
//!    [`MultiSession`] and [`crate::env::AbrEnv`] compute once per trace);
//! 2. playback drains the buffer during the download; if it runs dry the
//!    client rebuffers for `max(0, delay − buffer)` seconds;
//! 3. the finished chunk adds 4 s of video; if the buffer would exceed
//!    its cap (60 s) the client pauses requesting until it drains to the
//!    cap (Pensieve's "sleep", exact rather than 500 ms-quantized);
//! 4. the chunk earns the §3.1 linear QoE
//!    `q(R) − μ·rebuffer − |q(R) − q(R_prev)|` with `q` = bitrate in
//!    Mbit/s and μ = 4.3.
//!
//! # Determinism
//!
//! `step_chunk` is a pure `f64` function of its arguments — no RNG, no
//! global state. [`MultiSession::step_all`] splits its sessions and
//! their rewards across the pool's lanes in one pass, and each lane runs
//! [`Catalog::step`] on its own sessions in place — the one step, which
//! the serving engine's lanes run too. Sessions are independent, so lane assignment
//! cannot change any arithmetic: results are bit-identical for any
//! worker count, which `tests/properties.rs` pins for pools of 1, 2, 4
//! and 8.

use osa_nn::tensor::Tensor;
use osa_runtime::Rows;
use osa_trace::link;
use osa_trace::Trace;

use crate::video::VideoModel;
use crate::{HISTORY_LEN, NUM_BITRATES, OBS_DIM};

/// Environment parameters of the streaming session.
#[derive(Clone, Debug)]
pub struct AbrConfig {
    /// Request round-trip time in seconds.
    pub rtt_s: f64,
    /// Client playback buffer capacity in seconds of video.
    pub buffer_cap_s: f64,
    /// QoE rebuffering penalty μ per stalled second (§3.1: 4.3, the
    /// highest bitrate in Mbit/s).
    pub rebuf_penalty: f64,
    /// QoE smoothness penalty per Mbit/s of bitrate switch.
    pub smooth_penalty: f64,
}

impl Default for AbrConfig {
    fn default() -> Self {
        AbrConfig {
            rtt_s: crate::RTT_MS as f64 / 1000.0,
            buffer_cap_s: 60.0,
            rebuf_penalty: 4.3,
            smooth_penalty: 1.0,
        }
    }
}

/// Everything one chunk download did to a session, computed by
/// [`step_chunk`] before any state is mutated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkOutcome {
    /// Wall-clock seconds from request to last byte (RTT + transfer).
    pub delay_s: f64,
    /// Seconds playback stalled waiting for this chunk.
    pub rebuffer_s: f64,
    /// Seconds the client paused requesting because the buffer was full.
    pub(crate) sleep_s: f64,
    /// Measured throughput over the download, Mbit/s (size·8 / delay).
    pub tput_mbps: f64,
    /// Linear QoE earned by this chunk.
    pub reward: f64,
    /// Session clock after download + any sleep.
    pub new_time_s: f64,
    /// Buffer level after drain, fill, and cap.
    pub new_buffer_s: f64,
    /// True iff this was the last chunk of the video.
    pub finished: bool,
}

/// Advance one session by one chunk download — the single transition
/// function, which [`SessionCursor::step`] runs for [`MultiSession`] and
/// [`crate::env::AbrEnv`] alike. `period_bytes` is
/// [`link::bytes_per_period`]`(trace)`, computed once per trace by the
/// caller.
///
/// Panics (via the assertion on `delay`) if `trace` has zero capacity
/// everywhere; [`MultiSession::new`] and `AbrEnv::new` reject such
/// traces up front.
#[allow(clippy::too_many_arguments)] // the full per-session state, flattened on purpose
pub fn step_chunk(
    video: &VideoModel,
    cfg: &AbrConfig,
    trace: &Trace,
    period_bytes: f64,
    time_s: f64,
    buffer_s: f64,
    chunk: usize,
    prev_level: usize,
    level: usize,
) -> ChunkOutcome {
    assert!(level < NUM_BITRATES, "bitrate level {level} out of range");
    let size = video.size_bytes(chunk, level);
    // The link idles during the request RTT; bytes flow from t + rtt.
    let delay = cfg.rtt_s + link::transfer_time(trace, period_bytes, time_s + cfg.rtt_s, size);
    assert!(
        delay.is_finite(),
        "chunk download never completes (dead trace)"
    );
    let rebuffer = (delay - buffer_s).max(0.0);
    let mut buffer = (buffer_s - delay).max(0.0) + video.chunk_s();
    let mut sleep = 0.0;
    if buffer > cfg.buffer_cap_s {
        sleep = buffer - cfg.buffer_cap_s;
        buffer = cfg.buffer_cap_s;
    }
    let q = video.bitrate_mbps(level);
    let q_prev = video.bitrate_mbps(prev_level);
    ChunkOutcome {
        delay_s: delay,
        rebuffer_s: rebuffer,
        sleep_s: sleep,
        tput_mbps: size * 8.0 / 1e6 / delay,
        reward: q - cfg.rebuf_penalty * rebuffer - cfg.smooth_penalty * (q - q_prev).abs(),
        new_time_s: time_s + delay + sleep,
        new_buffer_s: buffer,
        finished: chunk + 1 == video.chunk_count(),
    }
}

/// Scalar state of one streaming session, stepped against *borrowed*
/// video/config/trace — the one place a session's state lives:
/// [`crate::env::AbrEnv`] trains on a cursor, single-session evaluation
/// loops (calibration sweeps) spin one up per trace, and
/// [`MultiSession`] holds one per session, which keeps all three
/// bit-equal by construction (pinned in this module's tests).
///
/// A cursor is a few plain scalars and two fixed history arrays, so
/// per-session setup is allocation- and clone-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionCursor {
    time_s: f64,
    buffer_s: f64,
    next_chunk: usize,
    prev_level: usize,
    tput_hist: [f32; HISTORY_LEN],
    delay_hist: [f32; HISTORY_LEN],
}

impl SessionCursor {
    /// A fresh session at trace time 0 with an empty buffer.
    pub fn new() -> SessionCursor {
        SessionCursor::default()
    }

    /// A fresh session that starts `time_s` seconds into its trace
    /// (Pensieve-style random start offsets), with an empty buffer.
    pub(crate) fn starting_at(time_s: f64) -> SessionCursor {
        SessionCursor {
            time_s,
            ..SessionCursor::default()
        }
    }

    /// Back to the start-of-session state.
    pub(crate) fn reset(&mut self) {
        *self = SessionCursor::default();
    }

    /// True once every chunk of `video` has been downloaded.
    pub fn done(&self, video: &VideoModel) -> bool {
        self.next_chunk >= video.chunk_count()
    }

    /// Write this session's Pensieve state vector into `out`
    /// (`out.len() == OBS_DIM`). Layout, with normalizations chosen to
    /// keep every feature roughly in [0, 1]:
    ///
    /// | cols                | feature                                   |
    /// |---------------------|-------------------------------------------|
    /// | `0 .. H`            | past chunk throughputs, Mbit/s ÷ 10       |
    /// | `H .. 2H`           | past chunk download times, s ÷ 10         |
    /// | `2H .. 2H+6`        | next-chunk size per level, MB (0 at end)  |
    /// | `2H+6`              | buffer level, s ÷ 10                      |
    /// | `2H+7`              | chunks remaining ÷ chunk count            |
    /// | `2H+8`              | last bitrate level ÷ (levels − 1)         |
    pub fn encode_obs(&self, video: &VideoModel, out: &mut [f32]) {
        assert_eq!(out.len(), OBS_DIM);
        for (o, &t) in out[..HISTORY_LEN].iter_mut().zip(&self.tput_hist) {
            *o = t / 10.0;
        }
        for (o, &d) in out[HISTORY_LEN..2 * HISTORY_LEN]
            .iter_mut()
            .zip(&self.delay_hist)
        {
            *o = d / 10.0;
        }
        let sizes = &mut out[2 * HISTORY_LEN..2 * HISTORY_LEN + NUM_BITRATES];
        if self.next_chunk < video.chunk_count() {
            for (level, o) in sizes.iter_mut().enumerate() {
                *o = (video.size_bytes(self.next_chunk, level) / 1e6) as f32;
            }
        } else {
            sizes.fill(0.0);
        }
        let remaining = video.chunk_count().saturating_sub(self.next_chunk);
        out[2 * HISTORY_LEN + NUM_BITRATES] = (self.buffer_s / 10.0) as f32;
        out[2 * HISTORY_LEN + NUM_BITRATES + 1] = remaining as f32 / video.chunk_count() as f32;
        out[2 * HISTORY_LEN + NUM_BITRATES + 2] =
            self.prev_level as f32 / (NUM_BITRATES - 1) as f32;
    }

    /// Download the next chunk at `level` and fold the outcome into the
    /// session state — the only place a chunk outcome updates a session;
    /// `period_bytes` is [`link::bytes_per_period`]`(trace)`.
    /// Panics if the session is already [`done`](Self::done).
    pub fn step(
        &mut self,
        video: &VideoModel,
        cfg: &AbrConfig,
        trace: &Trace,
        period_bytes: f64,
        level: usize,
    ) -> ChunkOutcome {
        assert!(!self.done(video), "session already finished; reset first");
        let o = step_chunk(
            video,
            cfg,
            trace,
            period_bytes,
            self.time_s,
            self.buffer_s,
            self.next_chunk,
            self.prev_level,
            level,
        );
        self.time_s = o.new_time_s;
        self.buffer_s = o.new_buffer_s;
        self.prev_level = level;
        self.next_chunk += 1;
        self.tput_hist.copy_within(1.., 0);
        self.tput_hist[HISTORY_LEN - 1] = o.tput_mbps as f32;
        self.delay_hist.copy_within(1.., 0);
        self.delay_hist[HISTORY_LEN - 1] = o.delay_s as f32;
        o
    }

    pub(crate) fn time_s(&self) -> f64 {
        self.time_s
    }

    pub(crate) fn buffer_s(&self) -> f64 {
        self.buffer_s
    }

    pub(crate) fn next_chunk(&self) -> usize {
        self.next_chunk
    }

    pub(crate) fn prev_level(&self) -> usize {
        self.prev_level
    }
}

/// [`link::bytes_per_period`] of every trace, checking each on the way:
/// panics on a malformed trace or one with zero capacity everywhere (a
/// download on it would never finish). [`MultiSession`] and
/// [`crate::env::AbrEnv`] keep the result for [`step_chunk`].
pub(crate) fn checked_period_bytes(traces: &[Trace]) -> Vec<f64> {
    traces
        .iter()
        .map(|t| {
            assert!(t.is_wellformed(), "malformed trace {}", t.id);
            let per = link::bytes_per_period(t);
            assert!(per > 0.0, "trace {} has zero capacity everywhere", t.id);
            per
        })
        .collect()
}

/// What every session of a [`MultiSession`] streams against: the video,
/// the config, the traces with their period capacities, and whether a
/// finished video rolls onto the next trace.
pub struct Catalog {
    video: VideoModel,
    cfg: AbrConfig,
    traces: Vec<Trace>,
    /// [`link::bytes_per_period`] of each trace, computed once.
    period_bytes: Vec<f64>,
    auto_reset: bool,
}

impl Catalog {
    /// Download session `s`'s next chunk at `level`, fold the outcome
    /// into its lifetime accounting and write its reward (0, with no
    /// step, while `s` is inactive) — the one step every pass over a
    /// [`MultiSession`] runs, whichever lane runs it. Returns true when
    /// this chunk finished the session's video.
    pub fn step(&self, s: &mut Session, reward: &mut f32, level: usize) -> bool {
        if !s.active {
            *reward = 0.0;
            return false;
        }
        let t = s.trace as usize;
        let o = s.cursor.step(
            &self.video,
            &self.cfg,
            &self.traces[t],
            self.period_bytes[t],
            level,
        );
        *reward = o.reward as f32;
        s.qoe_total += o.reward;
        s.rebuffer_total += o.rebuffer_s;
        s.bitrate_total_mbps += self.video.bitrate_mbps(level);
        s.chunks_total += 1;
        if o.finished {
            s.sessions_completed += 1;
            if self.auto_reset {
                // Deterministic round-robin onto the next trace; no
                // RNG, so worker count can't perturb anything.
                s.trace = (s.trace + 1) % self.traces.len() as u32;
                s.cursor.reset();
            } else {
                s.active = false;
            }
        }
        o.finished
    }

    /// Write the observation rows of `sessions` into `out`
    /// (`sessions.len() × OBS_DIM`, row `j` = `sessions[j]`), reusing
    /// its capacity. Each row's bits depend only on its session.
    pub fn fill_observations(&self, sessions: &[Session], out: &mut Tensor) {
        out.resize_shape(sessions.len(), OBS_DIM);
        for (off, s) in sessions.iter().enumerate() {
            s.cursor.encode_obs(&self.video, out.row_mut(off));
        }
    }
}

/// One session of a [`MultiSession`]: its streaming state, the trace
/// it streams, and its lifetime accounting (across auto-resets).
pub struct Session {
    cursor: SessionCursor,
    trace: u32,
    active: bool,
    qoe_total: f64,
    rebuffer_total: f64,
    bitrate_total_mbps: f64,
    chunks_total: u64,
    sessions_completed: u64,
}

// Byte budget of one session record: the 96-byte cursor, the trace
// index and active flag (8 with padding) and five lifetime counters.
// The serving engine keeps one per viewer, so anything added here is
// paid by every session of every fleet.
const _: () = assert!(std::mem::size_of::<Session>() <= 144);

impl Session {
    /// False once the video finished without `auto_reset`.
    pub fn active(&self) -> bool {
        self.active
    }

    pub fn buffer_s(&self) -> f64 {
        self.cursor.buffer_s()
    }
}

/// Batch of concurrent streaming sessions, one [`SessionCursor`] each.
///
/// Session `i` starts on trace `i mod traces.len()` at its beginning.
/// With `auto_reset` the session rolls onto the next trace
/// (round-robin) when the video ends, so a fixed-size batch can stream
/// forever — the training/bench configuration. Without it, finished
/// sessions go inactive (reward 0, state frozen) — the evaluation
/// configuration, one pass per trace.
pub struct MultiSession {
    catalog: Catalog,
    sessions: Vec<Session>,
    /// The sessions' last rewards, contiguous for [`MultiSession::rewards`].
    rewards: Vec<f32>,
}

impl MultiSession {
    /// Build `n` sessions over `traces`. Panics on an empty trace set,
    /// a malformed trace, or a trace with zero capacity everywhere (a
    /// download on it would never finish).
    pub fn new(
        video: VideoModel,
        cfg: AbrConfig,
        traces: Vec<Trace>,
        n: usize,
        auto_reset: bool,
    ) -> Self {
        assert!(!traces.is_empty(), "MultiSession needs at least one trace");
        assert!(n > 0, "MultiSession needs at least one session");
        let period_bytes = checked_period_bytes(&traces);
        let sessions = (0..n)
            .map(|i| Session {
                cursor: SessionCursor::new(),
                trace: (i % traces.len()) as u32,
                active: true,
                qoe_total: 0.0,
                rebuffer_total: 0.0,
                bitrate_total_mbps: 0.0,
                chunks_total: 0,
                sessions_completed: 0,
            })
            .collect();
        MultiSession {
            catalog: Catalog {
                video,
                cfg,
                traces,
                period_bytes,
                auto_reset,
            },
            sessions,
            rewards: vec![0.0; n],
        }
    }

    /// Number of sessions in the batch.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared catalog, the session records and their rewards,
    /// borrowed apart so a caller can split the last two across lanes
    /// (`osa_runtime::ThreadPool::parallel_for_lockstep`) and step each
    /// lane's sessions with [`Catalog::step`].
    pub fn parts_mut(&mut self) -> (&Catalog, &mut [Session], &mut [f32]) {
        (&self.catalog, &mut self.sessions, &mut self.rewards)
    }

    /// Advance every active session by one chunk download on the current
    /// `osa_runtime` pool; `actions[i]` is session `i`'s bitrate level
    /// (ignored for inactive sessions). Returns per-session rewards
    /// (0 for inactive sessions). Bit-identical for any worker count.
    pub fn step_all(&mut self, actions: &[usize]) -> &[f32] {
        osa_runtime::with_current(|pool| self.step_all_with_pool(actions, pool))
    }

    /// [`MultiSession::step_all`] on an explicit pool.
    pub fn step_all_with_pool(
        &mut self,
        actions: &[usize],
        pool: &osa_runtime::ThreadPool,
    ) -> &[f32] {
        assert_eq!(actions.len(), self.len(), "one action per session");
        let (catalog, sessions, rewards) = self.parts_mut();
        // One pass: each lane steps its own sessions in place and writes
        // their rewards.
        pool.parallel_for_lockstep(
            sessions.len(),
            (Rows::new(sessions, 1), Rows::new(rewards, 1)),
            |_, first, (sessions, rewards)| {
                for ((s, r), &level) in sessions.iter_mut().zip(rewards).zip(&actions[first..]) {
                    catalog.step(s, r, level);
                }
            },
        );
        &self.rewards
    }

    /// Write the `(n × OBS_DIM)` observation matrix into `out`, reusing
    /// its capacity (allocation-free once warmed up).
    pub fn fill_observations(&self, out: &mut Tensor) {
        self.fill_observations_range(0, self.len(), out);
    }

    /// Write observations for the session range `first .. first + count`
    /// into `out` (`count × OBS_DIM`, row `off` = session `first + off`),
    /// reusing its capacity. This is the shard-sized fill the serving
    /// engine batches its stacked forwards over; each row's bits depend
    /// only on that session's state, never on the range bounds.
    pub fn fill_observations_range(&self, first: usize, count: usize, out: &mut Tensor) {
        assert!(first + count <= self.len(), "session range out of bounds");
        self.catalog
            .fill_observations(&self.sessions[first..first + count], out);
    }

    // -- accessors -------------------------------------------------------

    /// Per-session rewards of the last `step_all`.
    pub fn rewards(&self) -> &[f32] {
        &self.rewards
    }

    pub fn active(&self, i: usize) -> bool {
        self.sessions[i].active
    }

    /// True when every session has finished (never true with
    /// `auto_reset`).
    pub fn all_done(&self) -> bool {
        self.sessions.iter().all(|s| !s.active)
    }

    pub fn time_s(&self, i: usize) -> f64 {
        self.sessions[i].cursor.time_s()
    }

    pub fn buffer_s(&self, i: usize) -> f64 {
        self.sessions[i].cursor.buffer_s()
    }

    pub fn next_chunk(&self, i: usize) -> usize {
        self.sessions[i].cursor.next_chunk()
    }

    pub fn prev_level(&self, i: usize) -> usize {
        self.sessions[i].cursor.prev_level()
    }

    /// Lifetime QoE sum of session slot `i` (across auto-resets).
    pub fn qoe_total(&self, i: usize) -> f64 {
        self.sessions[i].qoe_total
    }

    /// Lifetime rebuffering seconds of session slot `i`.
    pub fn rebuffer_total(&self, i: usize) -> f64 {
        self.sessions[i].rebuffer_total
    }

    /// Lifetime sum of selected bitrates (Mbit/s) of session slot `i`.
    pub(crate) fn bitrate_total_mbps(&self, i: usize) -> f64 {
        self.sessions[i].bitrate_total_mbps
    }

    /// Lifetime chunks downloaded by session slot `i`.
    pub fn chunks_total(&self, i: usize) -> u64 {
        self.sessions[i].chunks_total
    }

    /// Videos finished by session slot `i`.
    pub fn sessions_completed(&self, i: usize) -> u64 {
        self.sessions[i].sessions_completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_trace(mbps: f32) -> Trace {
        Trace::new("flat", 1.0, vec![mbps; 10])
    }

    fn flat_period(mbps: f32) -> f64 {
        link::bytes_per_period(&flat_trace(mbps))
    }

    #[test]
    fn step_chunk_known_values_on_flat_link() {
        // 8 Mbit/s = 10⁶ B/s; lowest level chunk = 150 000 B → 0.15 s
        // transfer + 0.08 s RTT = 0.23 s delay. All values exact.
        let video = VideoModel::constant_bitrate();
        let cfg = AbrConfig::default();
        let o = step_chunk(
            &video,
            &cfg,
            &flat_trace(8.0),
            flat_period(8.0),
            0.0,
            0.0,
            0,
            0,
            0,
        );
        let tol = 1e-12;
        assert!((o.delay_s - 0.23).abs() < tol);
        // Empty buffer stalls for the whole delay.
        assert_eq!(o.rebuffer_s, o.delay_s);
        assert_eq!(o.new_buffer_s, 4.0);
        assert_eq!(o.sleep_s, 0.0);
        assert_eq!(o.reward, 0.3 - 4.3 * o.rebuffer_s);
        assert_eq!(o.new_time_s, o.delay_s);
        assert!(!o.finished);
    }

    #[test]
    fn buffer_cap_forces_sleep() {
        let video = VideoModel::constant_bitrate();
        let cfg = AbrConfig::default();
        // Buffer nearly full: 59 s. Download takes 0.23 s → drain to
        // 58.77, fill to 62.77, sleep 2.77 back to the 60 s cap.
        let o = step_chunk(
            &video,
            &cfg,
            &flat_trace(8.0),
            flat_period(8.0),
            100.0,
            59.0,
            3,
            0,
            0,
        );
        assert_eq!(o.rebuffer_s, 0.0);
        assert_eq!(o.new_buffer_s, 60.0);
        assert!((o.sleep_s - 2.77).abs() < 1e-12);
        assert!((o.new_time_s - 103.0).abs() < 1e-12);
    }

    #[test]
    fn smoothness_penalty_charges_switches_both_ways() {
        let video = VideoModel::constant_bitrate();
        let cfg = AbrConfig {
            rebuf_penalty: 0.0, // isolate the smoothness term
            ..AbrConfig::default()
        };
        let up = step_chunk(
            &video,
            &cfg,
            &flat_trace(50.0),
            flat_period(50.0),
            0.0,
            10.0,
            1,
            0,
            5,
        );
        assert_eq!(up.reward, 4.3 - (4.3 - 0.3));
        let down = step_chunk(
            &video,
            &cfg,
            &flat_trace(50.0),
            flat_period(50.0),
            0.0,
            10.0,
            1,
            5,
            0,
        );
        assert_eq!(down.reward, 0.3 - (4.3 - 0.3));
    }

    #[test]
    fn observation_layout_and_normalization() {
        let video = VideoModel::constant_bitrate();
        let mut cur = SessionCursor {
            time_s: 0.0,
            buffer_s: 30.0,
            next_chunk: 10,
            prev_level: 3,
            tput_hist: [2.0; HISTORY_LEN],
            delay_hist: [1.0; HISTORY_LEN],
        };
        let mut obs = [0.0f32; OBS_DIM];
        cur.encode_obs(&video, &mut obs);
        assert_eq!(obs[0], 0.2);
        assert_eq!(obs[HISTORY_LEN], 0.1);
        assert_eq!(obs[2 * HISTORY_LEN], 0.15); // 150 kB in MB
        assert_eq!(obs[2 * HISTORY_LEN + NUM_BITRATES], 3.0);
        assert_eq!(obs[2 * HISTORY_LEN + NUM_BITRATES + 1], 38.0 / 48.0);
        assert_eq!(obs[2 * HISTORY_LEN + NUM_BITRATES + 2], 0.6);
        // Past the last chunk the size columns go dark.
        cur.next_chunk = 48;
        cur.encode_obs(&video, &mut obs);
        assert_eq!(
            &obs[2 * HISTORY_LEN..2 * HISTORY_LEN + NUM_BITRATES],
            &[0.0; 6]
        );
    }

    #[test]
    fn sessions_finish_and_deactivate_without_auto_reset() {
        let video = VideoModel::constant_bitrate();
        let sim_traces = vec![flat_trace(8.0)];
        let mut sim = MultiSession::new(video, AbrConfig::default(), sim_traces, 2, false);
        let actions = vec![0usize; 2];
        for k in 0..CHUNK_COUNT_LOCAL {
            assert!(!sim.all_done(), "done too early at chunk {k}");
            sim.step_all(&actions);
        }
        assert!(sim.all_done());
        assert_eq!(sim.chunks_total(0), CHUNK_COUNT_LOCAL as u64);
        assert_eq!(sim.sessions_completed(1), 1);
        // Further steps are no-ops with zero reward.
        let r = sim.step_all(&actions).to_vec();
        assert_eq!(r, vec![0.0, 0.0]);
        assert_eq!(sim.chunks_total(0), CHUNK_COUNT_LOCAL as u64);
    }

    #[test]
    fn auto_reset_rolls_onto_next_trace() {
        let video = VideoModel::constant_bitrate();
        let cfg = AbrConfig::default();
        let traces = vec![flat_trace(8.0), flat_trace(4.0)];
        let mut sim = MultiSession::new(video.clone(), cfg.clone(), traces, 1, true);
        let actions = vec![0usize];
        for _ in 0..CHUNK_COUNT_LOCAL {
            sim.step_all(&actions);
        }
        assert!(!sim.all_done());
        assert_eq!(sim.sessions_completed(0), 1);
        assert_eq!(sim.next_chunk(0), 0);
        assert_eq!(sim.time_s(0), 0.0);
        assert_eq!(sim.buffer_s(0), 0.0);
        // A fresh session: no download history.
        let mut obs = Tensor::default();
        sim.fill_observations(&mut obs);
        assert!(obs.row(0)[..2 * HISTORY_LEN].iter().all(|&x| x == 0.0));
        // The next chunk streams over the second trace, from its start.
        let want = step_chunk(
            &video,
            &cfg,
            &flat_trace(4.0),
            flat_period(4.0),
            0.0,
            0.0,
            0,
            0,
            0,
        );
        let r = sim.step_all(&actions)[0];
        assert_eq!(r.to_bits(), (want.reward as f32).to_bits());
        assert_eq!(sim.time_s(0).to_bits(), want.new_time_s.to_bits());
    }

    #[test]
    fn cursor_is_bit_equal_to_a_single_session_batch() {
        let video = VideoModel::constant_bitrate();
        let cfg = AbrConfig::default();
        let mbps: Vec<f32> = (0..40).map(|t| 2.0 + (t as f32 * 0.9).sin()).collect();
        let trace = Trace::new("wavy", 1.0, mbps);
        let mut sim = MultiSession::new(video.clone(), cfg.clone(), vec![trace.clone()], 1, false);
        let mut cur = SessionCursor::new();
        let mut batch_obs = Tensor::zeros(1, OBS_DIM);
        let mut cur_obs = [0.0f32; OBS_DIM];
        let (mut qoe, mut rebuffer) = (0.0f64, 0.0f64);
        let mut k = 0usize;
        loop {
            // The observation carries the newest throughput and delay.
            sim.fill_observations(&mut batch_obs);
            cur.encode_obs(&video, &mut cur_obs);
            assert_eq!(batch_obs.row(0), &cur_obs[..], "obs diverged at chunk {k}");
            if sim.all_done() {
                break;
            }
            let level = k % NUM_BITRATES; // exercise every level
            let o = cur.step(&video, &cfg, &trace, link::bytes_per_period(&trace), level);
            let r = sim.step_all(&[level])[0];
            assert_eq!(
                r.to_bits(),
                (o.reward as f32).to_bits(),
                "reward at chunk {k}"
            );
            qoe += o.reward;
            rebuffer += o.rebuffer_s;
            assert_eq!(sim.qoe_total(0).to_bits(), qoe.to_bits());
            assert_eq!(sim.rebuffer_total(0).to_bits(), rebuffer.to_bits());
            assert_eq!(cur.time_s().to_bits(), sim.time_s(0).to_bits());
            assert_eq!(cur.buffer_s().to_bits(), sim.buffer_s(0).to_bits());
            assert_eq!(sim.active(0), !o.finished);
            k += 1;
        }
        assert!(cur.done(&video));
        assert_eq!(k, CHUNK_COUNT_LOCAL);
    }

    const CHUNK_COUNT_LOCAL: usize = crate::video::CHUNK_COUNT;
}
