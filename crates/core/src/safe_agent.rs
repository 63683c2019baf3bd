//! [`SafeAgent`]: run the learned policy while the uncertainty signal
//! is quiet, default to the safe baseline when it trips (§2).
//!
//! The per-decision protocol is fixed: the signal observes the
//! observation *first*, the monitor folds the raw value into its
//! k-window variance, and only then does a policy act — the fallback if
//! the monitor has tripped (including on this very decision), the
//! learned policy otherwise. Once tripped, a sticky agent (the paper's
//! default) stays on the fallback for the rest of the session and skips
//! signal evaluation entirely; a monitor built with a
//! [`ReverseConfig`](crate::monitor::ReverseConfig) keeps evaluating the
//! signal while on the fallback and hands control back to the learned
//! policy after the configured quiet streak (see [`crate::monitor`]).

use osa_abr::policy::BufferBased;
use osa_abr::{HISTORY_LEN, NUM_BITRATES};

use crate::ensemble::SharedEnsemble;
use crate::monitor::Monitor;
use crate::signal::UncertaintySignal;

/// Observation column holding the (÷10-normalized) buffer level in the
/// `osa_abr` observation layout.
pub const BUFFER_COL: usize = 2 * HISTORY_LEN + NUM_BITRATES;

/// A single-observation decision policy — the acting side of a
/// [`SafeAgent`] (both the learned policy and the safe fallback).
pub trait SafetyPolicy {
    /// Stable name for score tables and figure artifacts.
    fn name(&self) -> &'static str;
    /// Pick the action for one observation.
    fn decide(&mut self, obs: &[f32]) -> usize;
    /// Forget per-session state (session boundary). Stateless policies
    /// keep the default no-op.
    fn reset(&mut self) {}
}

/// The learned side for ABR: act with the ensemble-mean Pensieve policy
/// (one stacked actor forward per decision, shared with a U_π signal on
/// the same ensemble).
pub struct EnsemblePolicy {
    ens: SharedEnsemble,
}

impl EnsemblePolicy {
    pub fn new(ens: SharedEnsemble) -> Self {
        EnsemblePolicy { ens }
    }
}

impl SafetyPolicy for EnsemblePolicy {
    fn name(&self) -> &'static str {
        "pensieve-ensemble"
    }

    fn decide(&mut self, obs: &[f32]) -> usize {
        self.ens.borrow_mut().act(obs)
    }

    /// Drop any cached actor forward: the cache records `fresh`, not
    /// *which* observation produced it, so a forward left over from a
    /// previous session must never satisfy the next session's first
    /// `act`.
    fn reset(&mut self) {
        self.ens.borrow_mut().invalidate();
    }
}

/// The safe side for ABR: Buffer-Based, reading the buffer level off
/// the observation row.
#[derive(Clone, Copy, Debug, Default)]
pub struct BufferFallback(pub BufferBased);

impl SafetyPolicy for BufferFallback {
    fn name(&self) -> &'static str {
        "bb"
    }

    fn decide(&mut self, obs: &[f32]) -> usize {
        self.0.level_for_buffer(obs[BUFFER_COL] as f64 * 10.0)
    }
}

/// The OSAP wrapper: policy + fallback + uncertainty signal + monitor.
pub struct SafeAgent<S, P, F>
where
    S: UncertaintySignal,
    P: SafetyPolicy,
    F: SafetyPolicy,
{
    signal: S,
    monitor: Monitor,
    policy: P,
    fallback: F,
    decisions: usize,
    last_raw: f32,
}

/// The ABR instantiation every figure binary uses: ensemble-mean
/// Pensieve while quiet, Buffer-Based once tripped.
pub type AbrSafeAgent<S> = SafeAgent<S, EnsemblePolicy, BufferFallback>;

/// Build the standard ABR safe agent over a shared ensemble.
pub fn abr_safe_agent<S: UncertaintySignal>(
    ens: SharedEnsemble,
    signal: S,
    monitor: Monitor,
) -> AbrSafeAgent<S> {
    SafeAgent::new(
        signal,
        monitor,
        EnsemblePolicy::new(ens),
        BufferFallback::default(),
    )
}

impl<S, P, F> SafeAgent<S, P, F>
where
    S: UncertaintySignal,
    P: SafetyPolicy,
    F: SafetyPolicy,
{
    pub fn new(signal: S, monitor: Monitor, policy: P, fallback: F) -> Self {
        SafeAgent {
            signal,
            monitor,
            policy,
            fallback,
            decisions: 0,
            last_raw: 0.0,
        }
    }

    /// One decision: observe → smooth → act. Allocation-free after
    /// warm-up.
    pub fn decide(&mut self, obs: &[f32]) -> usize {
        self.decisions += 1;
        if self.monitor.observing() {
            self.last_raw = self.signal.observe(obs);
            self.monitor.update(self.last_raw);
        }
        if self.monitor.tripped() {
            self.fallback.decide(obs)
        } else {
            self.policy.decide(obs)
        }
    }

    /// Forget all per-session state; keeps the calibrated (k, α, l).
    pub fn reset(&mut self) {
        self.signal.reset();
        self.monitor.reset();
        self.policy.reset();
        self.fallback.reset();
        self.decisions = 0;
        self.last_raw = 0.0;
    }

    pub fn signal(&self) -> &S {
        &self.signal
    }

    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Raw signal value of the last un-tripped decision.
    pub fn last_raw(&self) -> f32 {
        self.last_raw
    }

    /// Smoothed (k-window variance) value at the last un-tripped
    /// decision.
    pub fn last_variance(&self) -> f32 {
        self.monitor.variance()
    }

    pub fn tripped(&self) -> bool {
        self.monitor.tripped()
    }

    /// Decision index (0-based) at which the agent *first* switched to
    /// the fallback, if it did.
    pub fn switch_index(&self) -> Option<usize> {
        self.monitor.tripped_at()
    }

    /// Learned→fallback switches this session (can exceed 1 only with
    /// reverse switching enabled on the monitor).
    pub fn switches(&self) -> usize {
        self.monitor.switches()
    }

    /// Fallback→learned recoveries this session (0 without reverse
    /// switching).
    pub fn recoveries(&self) -> usize {
        self.monitor.recoveries()
    }

    /// Decisions taken since the last reset.
    pub fn decisions(&self) -> usize {
        self.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_abr::OBS_DIM;

    struct ConstPolicy(usize);
    impl SafetyPolicy for ConstPolicy {
        fn name(&self) -> &'static str {
            "const"
        }
        fn decide(&mut self, _obs: &[f32]) -> usize {
            self.0
        }
    }

    /// Echoes a chosen observation column as the raw signal.
    struct ColSignal(usize);
    impl UncertaintySignal for ColSignal {
        fn name(&self) -> &'static str {
            "col"
        }
        fn observe(&mut self, obs: &[f32]) -> f32 {
            obs[self.0]
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn switches_on_the_trip_decision_and_stays_switched() {
        let mut agent = SafeAgent::new(
            ColSignal(0),
            Monitor::new(2, 0.1, 1),
            ConstPolicy(5),
            ConstPolicy(0),
        );
        let mut obs = [0.0f32; OBS_DIM];
        assert_eq!(agent.decide(&obs), 5);
        assert_eq!(agent.decide(&obs), 5);
        // A jump in column 0 spikes the 2-window variance past α = 0.1:
        // the *same* decision must already come from the fallback.
        obs[0] = 10.0;
        assert_eq!(agent.decide(&obs), 0);
        assert!(agent.tripped());
        assert_eq!(agent.switch_index(), Some(2));
        // Calm again — but no reverse switching.
        obs[0] = 0.0;
        assert_eq!(agent.decide(&obs), 0);
        assert_eq!(agent.decisions(), 4);
        agent.reset();
        assert!(!agent.tripped());
        assert_eq!(agent.decide(&obs), 5);
    }

    #[test]
    fn reverse_switching_returns_to_the_learned_policy() {
        use crate::monitor::ReverseConfig;
        let mut agent = SafeAgent::new(
            ColSignal(0),
            Monitor::with_reverse(2, 0.1, 1, ReverseConfig::new(2, 0)),
            ConstPolicy(5),
            ConstPolicy(0),
        );
        let mut obs = [0.0f32; OBS_DIM];
        assert_eq!(agent.decide(&obs), 5);
        obs[0] = 10.0;
        assert_eq!(agent.decide(&obs), 0, "trip decision acts via fallback");
        assert_eq!(agent.switches(), 1);
        // Hold the signal constant: windows go quiet, and after the
        // m = 2 quiet streak control returns to the learned policy.
        assert_eq!(agent.decide(&obs), 0);
        assert_eq!(agent.decide(&obs), 5, "recovered to the learned policy");
        assert_eq!(agent.recoveries(), 1);
        assert_eq!(agent.switch_index(), Some(1), "first trip index is kept");
    }

    #[test]
    fn buffer_fallback_reads_the_buffer_column() {
        let mut fb = BufferFallback::default();
        let mut obs = [0.0f32; OBS_DIM];
        obs[BUFFER_COL] = 0.2; // 2 s — under the 5 s reservoir
        assert_eq!(fb.decide(&obs), 0);
        obs[BUFFER_COL] = 6.0; // 60 s — above reservoir + cushion
        assert_eq!(fb.decide(&obs), NUM_BITRATES - 1);
    }
}
