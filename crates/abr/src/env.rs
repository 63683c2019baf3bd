//! [`AbrEnv`]: the single-session [`osa_mdp::Env`] adapter the A2C
//! trainer runs against.
//!
//! Each episode is one 48-chunk streaming session on a trace drawn from
//! the env's corpus, starting at a random offset (Pensieve trains the
//! same way so the agent sees every link regime, not just trace
//! openings). The session state is a [`SessionCursor`], stepped by
//! [`crate::sim::step_chunk`] — the exact function
//! [`crate::sim::MultiSession`] runs — so single-session training and
//! batched evaluation are bit-equal by construction (`tests/properties.rs`
//! pins this).
//!
//! RNG contract: `reset` consumes exactly two draws (trace index, start
//! slot — the second is drawn even with [`AbrEnv::with_fixed_start`] so
//! the draw order never depends on configuration); `step` consumes none.

use osa_mdp::env::Env;
use osa_nn::rng::Rng;
use osa_trace::Trace;

use crate::sim::{checked_period_bytes, AbrConfig, SessionCursor};
use crate::video::VideoModel;
use crate::{NUM_BITRATES, OBS_DIM};

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
    cursor: SessionCursor,
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
            cursor: SessionCursor::new(),
        }
    }

    /// Start every episode at trace time 0 instead of a random offset —
    /// what the bit-equality tests against [`crate::sim::MultiSession`]
    /// use. The reset RNG draw order is unchanged.
    pub fn with_fixed_start(mut self) -> Self {
        self.random_start = false;
        self
    }
}

impl Env for AbrEnv {
    fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    fn num_actions(&self) -> usize {
        NUM_BITRATES
    }

    fn reset(&mut self, rng: &mut Rng, obs: &mut [f32]) {
        self.trace_idx = rng.below(self.traces.len());
        // Always consume the slot draw so configuration can't shift the
        // RNG stream.
        let trace = &self.traces[self.trace_idx];
        let slot = rng.below(trace.len());
        self.cursor = if self.random_start {
            SessionCursor::starting_at(slot as f64 * trace.interval_s as f64)
        } else {
            SessionCursor::new()
        };
        self.cursor.encode_obs(&self.video, obs);
    }

    fn step(&mut self, action: usize, _rng: &mut Rng, obs: &mut [f32]) -> (f32, bool) {
        let o = self.cursor.step(
            &self.video,
            &self.cfg,
            &self.traces[self.trace_idx],
            self.period_bytes[self.trace_idx],
            action,
        );
        self.cursor.encode_obs(&self.video, obs);
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
        let mut obs = [0.0; OBS_DIM];
        e.reset(&mut rng, &mut obs);
        let mut steps = 0;
        loop {
            let (_, done) = e.step(1, &mut rng, &mut obs);
            steps += 1;
            assert!(obs.iter().all(|x| x.is_finite()));
            if done {
                break;
            }
        }
        assert_eq!(steps, CHUNK_COUNT);
    }

    /// The documented RNG contract: `reset` takes exactly two draws, with
    /// a random or a fixed start, and `step` takes none.
    #[test]
    fn reset_draws_twice_and_step_never() {
        for fixed in [false, true] {
            let mut e = if fixed {
                env().with_fixed_start()
            } else {
                env()
            };
            let mut rng = Rng::seed_from_u64(7);
            let mut twin = Rng::seed_from_u64(7);
            let mut obs = [0.0; OBS_DIM];
            e.reset(&mut rng, &mut obs);
            e.step(2, &mut rng, &mut obs);
            twin.below(1); // trace index
            twin.below(20); // start slot
            assert_eq!(rng.next_u64(), twin.next_u64(), "fixed start {fixed}");
        }
    }

    #[test]
    #[should_panic(expected = "reset first")]
    fn stepping_past_done_panics() {
        let mut e = env();
        let mut rng = Rng::seed_from_u64(2);
        let mut obs = [0.0; OBS_DIM];
        e.reset(&mut rng, &mut obs);
        for _ in 0..CHUNK_COUNT + 1 {
            e.step(0, &mut rng, &mut obs);
        }
    }
}
