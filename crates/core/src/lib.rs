//! `osa-core` — the OSAP framework, the paper's contribution
//! (DESIGN.md §1 row 8).
//!
//! Online safety assurance as described in §2 of the paper, implemented
//! once: signal → k-window variance → l consecutive exceedances →
//! Buffer-Based.
//!
//! - [`serve`] — [`FleetEngine`], the one decision path: 100k+
//!   concurrent sessions in struct-of-arrays form, sharded across
//!   `osa-runtime` lanes, decided by session-major batched stacked
//!   forwards, guarded by a [`FleetSignal`]: U_π (KL-to-mean), U_V
//!   (value distance-to-mean) or U_S (one-class SVM novelty via
//!   [`osa_ocsvm`]);
//! - `ensemble` — the stacked Pensieve replica ensemble (i = 5,
//!   top-2 outliers discarded) and the per-session U_π/U_V reductions;
//!   inference is one grouped GEMM per layer across all replicas
//!   (`osa_nn::stacked`), never five sequential forwards;
//! - `monitor` — k-window variance smoothing and
//!   l-consecutive-exceedance thresholding (§2.5) for whole fleets,
//!   sticky by default with opt-in hysteresis-based reverse switching
//!   ([`ReverseConfig`]);
//! - [`eval`] — [`evaluate`]: one engine session per trace, with the
//!   per-decision signal series on request, and the normalized
//!   0 = Random / 1 = BB scoring (§3.3) shared by every figure binary;
//! - [`calibrate`](mod@calibrate) — (α, l) calibration against in-distribution traces,
//!   on the same engine;
//! - `compat` — the names `benchmark/` still calls, as thin
//!   constructors over the above.
//!
//! # Determinism
//!
//! Signal values, switch decisions, and calibration are bit-identical
//! at any `osa-runtime` worker count: the stacked forwards ride the
//! deterministic grouped GEMM, and every reduction in this crate
//! (variance rings, KL sums, outlier discard) runs in a fixed order —
//! pinned by `tests/determinism_pool.rs` across pools {1, 2, 4, 8}.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod calibrate;
pub(crate) mod compat;
pub(crate) mod ensemble;
pub mod eval;
pub(crate) mod monitor;
pub mod serve;

pub use calibrate::{calibrate_guard, Calibration, DEFAULT_MARGIN};
pub use compat::{
    abr_safe_agent, calibrate, calibrate_novelty, shared, Monitor, NoveltySignal, SharedEnsemble,
    ValueDisagreement,
};
pub use ensemble::PensieveEnsemble;
pub use eval::{
    anchors, calibration_observations, evaluate, normalized, summarize, SessionOutcome, Summary,
};
pub use monitor::{ReverseConfig, DEFAULT_K};
pub use serve::{FleetEngine, FleetSignal, ServeConfig};

/// Ensemble size the paper uses for U_π and U_V (§3.1).
pub const ENSEMBLE_SIZE: usize = 5;

/// Ensemble members kept after discarding the top-2 outliers (§3.1).
pub const ENSEMBLE_KEEP: usize = 3;

/// Consecutive threshold exceedances required before defaulting (§3.1).
pub const DEFAULT_L: usize = 3;

/// One-stop import for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::calibrate::{calibrate_guard, Calibration, DEFAULT_MARGIN};
    pub use crate::compat::{
        abr_safe_agent, calibrate, calibrate_novelty, shared, Monitor, NoveltySignal,
        SharedEnsemble, ValueDisagreement,
    };
    pub use crate::ensemble::PensieveEnsemble;
    pub use crate::eval::{
        anchors, calibration_observations, evaluate, normalized, summarize, SessionOutcome, Summary,
    };
    pub use crate::monitor::{ReverseConfig, DEFAULT_K};
    pub use crate::serve::{FleetEngine, FleetSignal, ServeConfig};
    pub use crate::{DEFAULT_L, ENSEMBLE_KEEP, ENSEMBLE_SIZE};
}

const _: () = assert!(
    ENSEMBLE_KEEP <= ENSEMBLE_SIZE && ENSEMBLE_SIZE - ENSEMBLE_KEEP == 2,
    "the paper's i = 5 / keep = 3 trimmed configuration"
);
