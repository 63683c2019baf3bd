//! The names `benchmark/` calls, kept as thin constructors over the
//! engine path until the ROADMAP item 2 benchmark PR calls the engine
//! directly and deletes them. Nothing else in the workspace uses them:
//! the figures, examples and tests call [`crate::eval`] and
//! [`crate::calibrate`](mod@crate::calibrate).
//!
//! [`AbrSafeAgent`] holds what a guard is — the ensemble, the
//! [`FleetSignal`] and the [`Monitor`] settings — and [`calibrate`]
//! runs [`calibrate_guard`] on it.

use std::cell::RefCell;
use std::rc::Rc;

use osa_abr::sim::AbrConfig;
use osa_abr::video::VideoModel;
use osa_ocsvm::OcSvm;
use osa_trace::Trace;

use crate::calibrate::{calibrate_guard, Calibration};
use crate::ensemble::PensieveEnsemble;
use crate::serve::{FleetSignal, ServeConfig};

/// An ensemble shared by reference count. Kept for `benchmark/`.
pub type SharedEnsemble = Rc<RefCell<PensieveEnsemble>>;

/// Wrap an ensemble for sharing. Kept for `benchmark/`.
pub fn shared(ens: PensieveEnsemble) -> SharedEnsemble {
    Rc::new(RefCell::new(ens))
}

/// One guarded stream's monitor settings: the (k, α, l) and anchor a
/// [`FleetMonitors`](crate::serve::FleetMonitors) is built from. Kept for
/// `benchmark/`, which hands it to [`abr_safe_agent`].
pub struct Monitor(ServeConfig);

impl Monitor {
    /// Sticky monitor (the paper's behavior: no reverse switching).
    /// Panics if `k == 0` or `l == 0`.
    pub fn new(k: usize, alpha: f32, l: usize) -> Monitor {
        assert!(k >= 1, "variance window k must be >= 1");
        assert!(l >= 1, "consecutive exceedances l must be >= 1");
        Monitor(ServeConfig {
            k,
            alpha,
            l,
            ..ServeConfig::default()
        })
    }

    /// Replace the threshold (used once by calibration).
    pub(crate) fn set_alpha(&mut self, alpha: f32) {
        self.0.alpha = alpha;
    }

    /// Anchor the variance at the calibrated in-distribution level
    /// (used once by calibration); `None` restores sample-mean variance.
    pub fn set_anchor(&mut self, anchor: Option<f32>) {
        self.0.anchor = anchor;
    }

    /// These settings as a fleet configuration (default shard and
    /// `auto_reset`).
    pub(crate) fn serve_config(&self) -> ServeConfig {
        self.0.clone()
    }
}

/// A guard to calibrate: ensemble, signal and monitor settings. Kept
/// for `benchmark/`.
pub struct AbrSafeAgent {
    ens: SharedEnsemble,
    signal: FleetSignal,
    monitor: Monitor,
}

/// Kept for `benchmark/`.
pub fn abr_safe_agent(ens: SharedEnsemble, signal: FleetSignal, monitor: Monitor) -> AbrSafeAgent {
    AbrSafeAgent {
        ens,
        signal,
        monitor,
    }
}

impl AbrSafeAgent {
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }
}

/// Constructor of the U_V [`FleetSignal`]. Kept for `benchmark/`.
pub struct ValueDisagreement;

// `benchmark/` spells the signal constructors `Type::new(..)`, and the
// signal they build is a `FleetSignal`.
#[allow(clippy::new_ret_no_self)]
impl ValueDisagreement {
    pub fn new(_ens: SharedEnsemble) -> FleetSignal {
        FleetSignal::ValueDisagreement
    }
}

/// Constructor of the U_S [`FleetSignal`]. Kept for `benchmark/`.
pub struct NoveltySignal;

#[allow(clippy::new_ret_no_self)]
impl NoveltySignal {
    pub fn new(svm: OcSvm) -> FleetSignal {
        FleetSignal::Novelty(svm)
    }
}

/// [`calibrate_guard`] on `agent`'s signal under its monitor's
/// settings; installs the α in the monitor. Kept for `benchmark/`.
pub fn calibrate(
    agent: &mut AbrSafeAgent,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    margin: f32,
) -> Calibration {
    let mut serve = agent.monitor.serve_config();
    let ens = agent.ens.borrow();
    let cal = calibrate_guard(&ens, &agent.signal, &mut serve, video, cfg, traces, margin);
    agent.monitor.set_alpha(cal.alpha);
    cal
}

/// [`calibrate`] under the name U_S call sites use. Kept for
/// `benchmark/`.
pub use self::calibrate as calibrate_novelty;
