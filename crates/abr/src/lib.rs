//! `osa-abr` — chunk-level ABR streaming simulator and baselines
//! (DESIGN.md §1 rows 4 and 6).
//!
//! The paper's entire evaluation runs inside a Pensieve-vs-BB adaptive
//! bitrate case study; this crate provides the environment side of it:
//!
//! - [`video`] — an EnvivioDash3-style video model: 48 chunks × 6
//!   bitrate levels, ~4 s chunks, deterministic VBR size table;
//! - [`sim`] — the chunk-level download simulator substituting MahiMahi
//!   (DESIGN.md §2.1): trace-driven link capacity integrated through
//!   [`osa_trace::link`], 80 ms RTT, buffer drain/fill, rebuffering, and
//!   the §3.1 linear QoE metric — as the pure per-chunk transition
//!   [`sim::step_chunk`], one session's state [`sim::SessionCursor`], and
//!   the [`sim::MultiSession`] engine, a vector of cursors whose batched
//!   `step_all` steps each `osa-runtime` pool lane's sessions in place in
//!   one pass, bit-identical at any worker count;
//! - [`policy`] — the [`policy::AbrPolicy`] batched decision trait with
//!   the Buffer-Based (reservoir/cushion) and Random baselines;
//! - [`env`](mod@env) — [`env::AbrEnv`], the single-session [`osa_mdp::Env`]
//!   adapter RL training runs against (steps the same `SessionCursor` as
//!   the multi-session engine, so the two are bit-equal by construction);
//! - [`eval`] — policy scoring over a trace set, including the ROADMAP's
//!   normalized score (0 = Random, 1 = BB).
//!
//! # Determinism
//!
//! Session dynamics consume no RNG: given a trace and an action sequence
//! the whole trajectory is a pure `f64` computation. Randomness enters
//! only through policies ([`policy::RandomPolicy`], sampling agents) and
//! [`AbrEnv`]'s [`osa_mdp::Env::reset`] — always via an explicit caller-provided
//! [`osa_nn::rng::Rng`].
#![forbid(unsafe_code)]

pub mod env;
pub mod eval;
pub mod policy;
pub mod sim;
pub mod video;

pub use env::AbrEnv;
pub use eval::{evaluate_policy, normalized_score, PolicyScore};
pub use policy::{AbrPolicy, BufferBased, RandomPolicy};
pub use sim::{step_chunk, AbrConfig, ChunkOutcome, MultiSession};
pub use video::VideoModel;

/// Round-trip time the paper's emulation applies to every chunk request.
pub const RTT_MS: u32 = 80;

/// Number of bitrate levels in the video model.
pub const NUM_BITRATES: usize = 6;

/// Length of the throughput / download-time histories in the agent
/// observation (Pensieve's k = 8 past chunks).
pub const HISTORY_LEN: usize = 8;

/// Width of the flattened observation vector
/// [`sim::SessionCursor::encode_obs`] emits:
/// two histories, the next-chunk size at each bitrate, and three scalars
/// (buffer, chunks remaining, last bitrate).
pub const OBS_DIM: usize = 2 * HISTORY_LEN + NUM_BITRATES + 3;

/// One-stop import for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::env::AbrEnv;
    pub use crate::eval::{evaluate_policy, normalized_score, PolicyScore};
    pub use crate::policy::{AbrPolicy, BufferBased, RandomPolicy};
    pub use crate::sim::{step_chunk, AbrConfig, ChunkOutcome, MultiSession, SessionCursor};
    pub use crate::video::{VideoModel, BITRATES_KBPS, CHUNK_COUNT};
    pub use crate::{HISTORY_LEN, NUM_BITRATES, OBS_DIM, RTT_MS};
}

#[cfg(test)]
mod tests {
    #[test]
    fn dimensions_are_consistent() {
        assert_eq!(super::RTT_MS, 80);
        assert_eq!(super::NUM_BITRATES, 6);
        assert_eq!(super::OBS_DIM, 25);
    }
}
