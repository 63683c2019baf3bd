//! [`AbrEnv`]: the single-session [`osa_mdp::Env`] adapter the A2C
//! trainer runs against.
//!
//! Each episode is one 48-chunk streaming session on a trace drawn from
//! the env's corpus, starting at a random offset (Pensieve trains the
//! same way so the agent sees every link regime, not just trace
//! openings). The transition itself is [`crate::sim::step_chunk`] — the
//! exact function [`crate::sim::MultiSession`] runs — so single-session
//! training and batched evaluation are bit-equal by construction
//! (`tests/properties.rs` pins this).
//!
//! RNG contract: `reset` consumes exactly two draws (trace index, start
//! slot — the second is drawn even with [`AbrEnv::with_fixed_start`] so
//! the draw order never depends on configuration); `step` consumes none.

use osa_mdp::env::{Env, Step};
use osa_nn::rng::Rng;
use osa_trace::Trace;

use crate::sim::{checked_period_bytes, encode_obs, step_chunk, AbrConfig};
use crate::video::VideoModel;
use crate::{HISTORY_LEN, NUM_BITRATES, OBS_DIM};

/// Single-session ABR environment over a trace corpus. `Clone + Send`,
/// as the synchronous-streams trainer requires.
#[derive(Clone)]
pub struct AbrEnv {
    video: VideoModel,
    cfg: AbrConfig,
    traces: Vec<Trace>,
    /// Period capacity of each trace, computed once.
    period_bytes: Vec<f64>,
    random_start: bool,
    // Episode state.
    trace_idx: usize,
    time_s: f64,
    buffer_s: f64,
    next_chunk: usize,
    prev_level: usize,
    tput_hist: [f32; HISTORY_LEN],
    delay_hist: [f32; HISTORY_LEN],
}

impl AbrEnv {
    /// Build over `traces` with random episode start offsets. Panics on
    /// an empty corpus or a trace with zero capacity everywhere.
    pub fn new(video: VideoModel, cfg: AbrConfig, traces: Vec<Trace>) -> Self {
        assert!(!traces.is_empty(), "AbrEnv needs at least one trace");
        AbrEnv {
            video,
            cfg,
            period_bytes: checked_period_bytes(&traces),
            traces,
            random_start: true,
            trace_idx: 0,
            time_s: 0.0,
            buffer_s: 0.0,
            next_chunk: 0,
            prev_level: 0,
            tput_hist: [0.0; HISTORY_LEN],
            delay_hist: [0.0; HISTORY_LEN],
        }
    }

    /// Start every episode at trace time 0 instead of a random offset —
    /// what the bit-equality tests against [`crate::sim::MultiSession`]
    /// use. The reset RNG draw order is unchanged.
    pub fn with_fixed_start(mut self) -> Self {
        self.random_start = false;
        self
    }

    pub fn video(&self) -> &VideoModel {
        &self.video
    }

    pub fn cfg(&self) -> &AbrConfig {
        &self.cfg
    }

    pub fn num_traces(&self) -> usize {
        self.traces.len()
    }

    fn encode(&self, obs: &mut [f32]) {
        encode_obs(
            obs,
            &self.video,
            &self.tput_hist,
            &self.delay_hist,
            self.buffer_s,
            self.next_chunk,
            self.prev_level,
        );
    }
}

impl Env for AbrEnv {
    fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    fn num_actions(&self) -> usize {
        NUM_BITRATES
    }

    fn reset(&mut self, rng: &mut Rng) -> Vec<f32> {
        let mut obs = vec![0.0; OBS_DIM];
        self.reset_into(rng, &mut obs);
        obs
    }

    fn step(&mut self, action: usize, rng: &mut Rng) -> Step {
        let mut obs = vec![0.0; OBS_DIM];
        let (reward, done) = self.step_into(action, rng, &mut obs);
        Step { obs, reward, done }
    }

    fn reset_into(&mut self, rng: &mut Rng, obs: &mut Vec<f32>) {
        self.trace_idx = rng.below(self.traces.len());
        // Always consume the slot draw so configuration can't shift the
        // RNG stream (the Env override contract).
        let slot = rng.below(self.traces[self.trace_idx].len());
        self.time_s = if self.random_start {
            slot as f64 * self.traces[self.trace_idx].interval_s as f64
        } else {
            0.0
        };
        self.buffer_s = 0.0;
        self.next_chunk = 0;
        self.prev_level = 0;
        self.tput_hist = [0.0; HISTORY_LEN];
        self.delay_hist = [0.0; HISTORY_LEN];
        obs.clear();
        obs.resize(OBS_DIM, 0.0);
        self.encode(obs);
    }

    fn step_into(&mut self, action: usize, _rng: &mut Rng, obs: &mut Vec<f32>) -> (f32, bool) {
        assert!(
            self.next_chunk < self.video.chunk_count(),
            "step after episode end; reset first"
        );
        let o = step_chunk(
            &self.video,
            &self.cfg,
            &self.traces[self.trace_idx],
            self.period_bytes[self.trace_idx],
            self.time_s,
            self.buffer_s,
            self.next_chunk,
            self.prev_level,
            action,
        );
        self.time_s = o.new_time_s;
        self.buffer_s = o.new_buffer_s;
        self.prev_level = action;
        self.next_chunk += 1;
        self.tput_hist.copy_within(1.., 0);
        self.tput_hist[HISTORY_LEN - 1] = o.tput_mbps as f32;
        self.delay_hist.copy_within(1.., 0);
        self.delay_hist[HISTORY_LEN - 1] = o.delay_s as f32;
        obs.clear();
        obs.resize(OBS_DIM, 0.0);
        self.encode(obs);
        (o.reward as f32, o.finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::CHUNK_COUNT;

    fn env() -> AbrEnv {
        AbrEnv::new(
            VideoModel::constant_bitrate(),
            AbrConfig::default(),
            vec![Trace::new("flat", 1.0, vec![6.0; 20])],
        )
    }

    #[test]
    fn episode_runs_exactly_chunk_count_steps() {
        let mut e = env();
        let mut rng = Rng::seed_from_u64(1);
        let obs = e.reset(&mut rng);
        assert_eq!(obs.len(), OBS_DIM);
        let mut steps = 0;
        loop {
            let s = e.step(1, &mut rng);
            steps += 1;
            assert!(s.obs.iter().all(|x| x.is_finite()));
            if s.done {
                break;
            }
        }
        assert_eq!(steps, CHUNK_COUNT);
    }

    #[test]
    fn reset_into_matches_reset_rng_stream() {
        let mut a = env();
        let mut b = env();
        let mut rng_a = Rng::seed_from_u64(7);
        let mut rng_b = Rng::seed_from_u64(7);
        let oa = a.reset(&mut rng_a);
        let mut ob = Vec::new();
        b.reset_into(&mut rng_b, &mut ob);
        assert_eq!(oa, ob);
        // Post-reset streams agree too.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    #[should_panic(expected = "reset first")]
    fn stepping_past_done_panics() {
        let mut e = env();
        let mut rng = Rng::seed_from_u64(2);
        e.reset(&mut rng);
        for _ in 0..CHUNK_COUNT + 1 {
            e.step(0, &mut rng);
        }
    }
}
