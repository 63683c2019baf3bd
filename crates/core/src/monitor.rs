//! k-window variance smoothing and l-consecutive-exceedance
//! thresholding (§2.5), with optional hysteresis-based reverse
//! switching.
//!
//! Raw signal values are noisy; the paper smooths them by monitoring the
//! *variance of the last k values* and only declares uncertainty when
//! that variance exceeds a calibrated threshold α for l consecutive
//! decisions. Once tripped, a monitor stays tripped — the paper's
//! SafeAgent defaults to the safe policy for the rest of the session
//! (no reverse switching). That sticky behavior is the default here.
//!
//! The state machine exists once, in struct-of-arrays form:
//! [`FleetMonitors`] holds one monitor per session for the fleet
//! engine, and [`Monitor`] is a one-session view over it for the
//! per-stream [`SafeAgent`](crate::safe_agent::SafeAgent).
//!
//! # Failing closed
//!
//! A window is quiet only when its variance is `≤ α`. A non-finite raw
//! value makes the variance NaN or ∞, and such a window counts as an
//! exceedance — it can trip a monitor, and never counts towards a
//! recovery.
//!
//! # Reverse switching
//!
//! The Neural Simplex line of work treats the opposite transition as a
//! first-class event: once the uncertainty signal goes quiet again,
//! control can be handed *back* to the learned policy. A monitor built
//! with a [`ReverseConfig`] keeps folding raw values into its ring
//! while on the fallback and recovers after `quiet_windows` consecutive
//! in-threshold variances (`variance ≤ α`). Oscillation is damped two
//! ways: the quiet streak resets to zero at every trip (so recovery can
//! never happen fewer than `quiet_windows` decisions after a trip), and
//! a re-trip within `retrip_guard` decisions of a recovery *locks* the
//! monitor onto the fallback for the rest of the session — a signal that
//! goes loud right after it went quiet has proven its quiet spells are
//! not trustworthy.
//!
//! Determinism: the variance is summed in chronological order over the
//! ring, so a monitor's state is a pure function of the raw value
//! sequence — bit-identical at any pool width by construction.

use crate::serve::ServeConfig;

/// Default window length k for the signal variance.
pub const DEFAULT_K: usize = 5;

/// Sentinel for "no decision index recorded yet" in the SoA monitor
/// arrays (`u32` indices keep the hot arrays compact).
const NO_INDEX: u32 = u32::MAX;

/// Hysteresis parameters for reverse switching (off by default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReverseConfig {
    /// Consecutive in-threshold (`variance ≤ α`) decisions required
    /// while on the fallback before control returns to the learned
    /// policy. Must be ≥ 1.
    pub quiet_windows: usize,
    /// A re-trip at most this many decisions after a recovery locks the
    /// monitor onto the fallback permanently (until `reset`). 0 still
    /// locks on an immediate re-trip, `usize::MAX` locks on any re-trip.
    pub retrip_guard: usize,
}

impl ReverseConfig {
    pub fn new(quiet_windows: usize, retrip_guard: usize) -> ReverseConfig {
        assert!(quiet_windows >= 1, "quiet_windows m must be >= 1");
        ReverseConfig {
            quiet_windows,
            retrip_guard,
        }
    }
}

/// Per-session monitor state for a whole fleet, laid out as struct of
/// arrays: rolling variance of the last k raw values, the l-consecutive
/// trip counter and (optionally) the reverse-switching state machine.
/// Every session shares one (k, α, l), anchor and reverse policy.
pub struct FleetMonitors {
    k: usize,
    alpha: f32,
    l: usize,
    /// Anchor for the variance: `None` → the window's own sample mean
    /// (pure instability detection); `Some(μ₀)` → the calibrated
    /// in-distribution signal level. Anchoring matters: a sustained
    /// shift can hold the signal at a *constant* elevated value (U_π
    /// saturates like this out of distribution), and the sample-mean
    /// variance of a constant window is 0 — anchored at μ₀ the same
    /// window reads `(v − μ₀)²`.
    anchor: Option<f32>,
    reverse: Option<ReverseConfig>,
    /// `n × k` variance rings.
    ring: Vec<f32>,
    len: Vec<u32>,
    pos: Vec<u32>,
    consecutive: Vec<u32>,
    /// Consecutive in-threshold decisions while on the fallback.
    quiet: Vec<u32>,
    on_fallback: Vec<bool>,
    locked: Vec<bool>,
    tripped_at: Vec<u32>,
    last_trip: Vec<u32>,
    last_recovery: Vec<u32>,
    switches: Vec<u32>,
    recoveries: Vec<u32>,
    decisions: Vec<u32>,
    variance: Vec<f32>,
}

impl FleetMonitors {
    /// `n` fresh sessions under `cfg`'s (k, α, l), anchor and reverse
    /// policy. Panics if `k == 0`, `l == 0` or `quiet_windows == 0`.
    pub fn new(n: usize, cfg: &ServeConfig) -> FleetMonitors {
        assert!(cfg.k >= 1, "variance window k must be >= 1");
        assert!(cfg.l >= 1, "consecutive exceedances l must be >= 1");
        if let Some(r) = cfg.reverse {
            assert!(r.quiet_windows >= 1, "quiet_windows m must be >= 1");
        }
        FleetMonitors {
            k: cfg.k,
            alpha: cfg.alpha,
            l: cfg.l,
            anchor: cfg.anchor,
            reverse: cfg.reverse,
            ring: vec![0.0; n * cfg.k],
            len: vec![0; n],
            pos: vec![0; n],
            consecutive: vec![0; n],
            quiet: vec![0; n],
            on_fallback: vec![false; n],
            locked: vec![false; n],
            tripped_at: vec![NO_INDEX; n],
            last_trip: vec![NO_INDEX; n],
            last_recovery: vec![NO_INDEX; n],
            switches: vec![0; n],
            recoveries: vec![0; n],
            decisions: vec![0; n],
            variance: vec![0.0; n],
        }
    }

    /// True while session `i`'s raw value is still being consumed: not
    /// on the fallback, or on it with a live chance of recovering. A
    /// sticky (or locked) fallback never observes again.
    pub fn observing(&self, i: usize) -> bool {
        !self.on_fallback[i] || (self.reverse.is_some() && !self.locked[i])
    }

    /// Feed one raw signal value to session `i`; returns its tripped
    /// state after this decision. Exceedances only count once the
    /// window is full.
    ///
    /// Without reverse switching a tripped session ignores `raw`
    /// entirely (the ring freezes at the trip); with it the ring keeps
    /// rolling so the quiet streak can be measured.
    pub fn update(&mut self, i: usize, raw: f32) -> bool {
        let index = self.decisions[i];
        self.decisions[i] += 1;
        if !self.observing(i) {
            return true;
        }
        let k = self.k;
        let ring = &mut self.ring[i * k..(i + 1) * k];
        let mut pos = self.pos[i] as usize;
        ring[pos] = raw;
        pos = (pos + 1) % k;
        self.pos[i] = pos as u32;
        if (self.len[i] as usize) < k {
            self.len[i] += 1;
        }
        if (self.len[i] as usize) < k {
            return self.on_fallback[i];
        }
        // Variance about the anchor (or the window's own sample mean),
        // summed oldest-first so the ring phase never changes the bits.
        let n = k as f32;
        let mean = match self.anchor {
            Some(mu) => mu,
            None => {
                let mut sum = 0.0f32;
                for j in 0..k {
                    sum += ring[(pos + j) % k];
                }
                sum / n
            }
        };
        let mut var = 0.0f32;
        for j in 0..k {
            let d = ring[(pos + j) % k] - mean;
            var += d * d;
        }
        let var = var / n;
        self.variance[i] = var;
        // Asked as "quiet?", not "loud?": a NaN variance answers false
        // either way, and must land on the exceedance side.
        let in_threshold = var <= self.alpha;
        if self.on_fallback[i] {
            if in_threshold {
                self.quiet[i] += 1;
                let m = self.reverse.expect("on-fallback update implies reverse");
                if self.quiet[i] as usize >= m.quiet_windows {
                    self.on_fallback[i] = false;
                    self.recoveries[i] += 1;
                    self.last_recovery[i] = index;
                    self.quiet[i] = 0;
                    self.consecutive[i] = 0;
                }
            } else {
                self.quiet[i] = 0;
            }
        } else if in_threshold {
            self.consecutive[i] = 0;
        } else {
            self.consecutive[i] += 1;
            if self.consecutive[i] as usize >= self.l {
                self.on_fallback[i] = true;
                self.switches[i] += 1;
                if self.tripped_at[i] == NO_INDEX {
                    self.tripped_at[i] = index;
                }
                self.last_trip[i] = index;
                self.consecutive[i] = 0;
                self.quiet[i] = 0;
                if let Some(rev) = self.reverse {
                    if self.last_recovery[i] != NO_INDEX
                        && (index - self.last_recovery[i]) as usize <= rev.retrip_guard
                    {
                        self.locked[i] = true;
                    }
                }
            }
        }
        self.on_fallback[i]
    }

    /// Session boundary (auto-reset rollover): forget session `i`'s
    /// rolling state and trip/recovery *indices*, keep its lifetime
    /// switch/recovery/decision counters — the same split
    /// `MultiSession` makes between per-video state and lifetime
    /// accounting.
    pub fn reset_session(&mut self, i: usize) {
        self.ring[i * self.k..(i + 1) * self.k].fill(0.0);
        self.len[i] = 0;
        self.pos[i] = 0;
        self.consecutive[i] = 0;
        self.quiet[i] = 0;
        self.on_fallback[i] = false;
        self.locked[i] = false;
        self.tripped_at[i] = NO_INDEX;
        self.last_trip[i] = NO_INDEX;
        self.last_recovery[i] = NO_INDEX;
        self.variance[i] = 0.0;
    }

    /// Session `i` currently acts through the fallback. Sticky monitors
    /// stay tripped; reverse monitors may clear this on recovery.
    pub fn tripped(&self, i: usize) -> bool {
        self.on_fallback[i]
    }

    /// Re-trip lock engaged: session `i` re-tripped within the guard
    /// window of a recovery and now behaves like a sticky monitor.
    pub fn locked(&self, i: usize) -> bool {
        self.locked[i]
    }

    /// Decision index of session `i`'s first trip.
    pub fn tripped_at(&self, i: usize) -> Option<usize> {
        index_opt(self.tripped_at[i])
    }

    /// Decision index of session `i`'s most recent trip.
    pub fn last_trip(&self, i: usize) -> Option<usize> {
        index_opt(self.last_trip[i])
    }

    /// Decision index of session `i`'s most recent recovery.
    pub fn last_recovery(&self, i: usize) -> Option<usize> {
        index_opt(self.last_recovery[i])
    }

    /// Learned→fallback switches (at most 1 per session without
    /// reverse).
    pub fn switches(&self, i: usize) -> usize {
        self.switches[i] as usize
    }

    /// Fallback→learned recoveries (always 0 without reverse).
    pub fn recoveries(&self, i: usize) -> usize {
        self.recoveries[i] as usize
    }

    /// The smoothed value compared against α at session `i`'s last
    /// update (0 until the window fills).
    pub fn variance(&self, i: usize) -> f32 {
        self.variance[i]
    }
}

fn index_opt(v: u32) -> Option<usize> {
    if v == NO_INDEX {
        None
    } else {
        Some(v as usize)
    }
}

/// One guarded stream's monitor: a one-session [`FleetMonitors`].
pub struct Monitor(FleetMonitors);

impl Monitor {
    /// Sticky monitor (the paper's behavior: no reverse switching).
    /// Panics if `k == 0` or `l == 0`.
    pub fn new(k: usize, alpha: f32, l: usize) -> Monitor {
        Monitor::with_config(k, alpha, l, None)
    }

    /// Monitor with hysteresis-based reverse switching enabled.
    pub fn with_reverse(k: usize, alpha: f32, l: usize, reverse: ReverseConfig) -> Monitor {
        Monitor::with_config(k, alpha, l, Some(reverse))
    }

    fn with_config(k: usize, alpha: f32, l: usize, reverse: Option<ReverseConfig>) -> Monitor {
        let cfg = ServeConfig {
            k,
            alpha,
            l,
            reverse,
            ..ServeConfig::default()
        };
        Monitor(FleetMonitors::new(1, &cfg))
    }

    /// Replace the threshold (used once by calibration). Resets all
    /// rolling state: a threshold chosen *after* watching a stretch of
    /// traffic must not inherit that stretch's exceedance streak.
    pub fn set_alpha(&mut self, alpha: f32) {
        self.0.alpha = alpha;
        self.reset();
    }

    /// Anchor the variance at the calibrated in-distribution level
    /// (used once by calibration); `None` restores sample-mean variance.
    /// Resets all rolling state — ring contents measured under the old
    /// anchor are meaningless under the new one.
    pub fn set_anchor(&mut self, anchor: Option<f32>) {
        self.0.anchor = anchor;
        self.reset();
    }

    pub fn k(&self) -> usize {
        self.0.k
    }

    pub fn l(&self) -> usize {
        self.0.l
    }

    /// Forget all state, lifetime counters included (the stream's
    /// session boundary); keeps (k, α, l), the anchor, and the reverse
    /// configuration.
    pub fn reset(&mut self) {
        let m = &mut self.0;
        m.reset_session(0);
        m.decisions[0] = 0;
        m.switches[0] = 0;
        m.recoveries[0] = 0;
    }

    /// See [`FleetMonitors::update`].
    pub fn update(&mut self, raw: f32) -> bool {
        self.0.update(0, raw)
    }

    /// See [`FleetMonitors::variance`].
    pub fn variance(&self) -> f32 {
        self.0.variance(0)
    }

    pub fn tripped(&self) -> bool {
        self.0.tripped(0)
    }

    /// See [`FleetMonitors::observing`].
    pub fn observing(&self) -> bool {
        self.0.observing(0)
    }

    /// Decision index (0-based) at which the monitor *first* tripped.
    pub fn tripped_at(&self) -> Option<usize> {
        self.0.tripped_at(0)
    }

    pub fn switches(&self) -> usize {
        self.0.switches(0)
    }

    pub fn recoveries(&self) -> usize {
        self.0.recoveries(0)
    }

    pub fn locked(&self) -> bool {
        self.0.locked(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::rng::Rng;

    #[test]
    fn trips_only_after_l_consecutive_exceedances() {
        // A single spike stays inside the k = 3 window for exactly 3
        // updates, so l = 4 separates "one transient" from "sustained".
        let mut m = Monitor::new(3, 0.1, 4);
        // Constant values: variance 0, never trips.
        for _ in 0..5 {
            assert!(!m.update(1.0));
        }
        // One spike → 3 consecutive exceedances while it traverses the
        // window, then calm: the counter must reset without tripping.
        assert!(!m.update(5.0));
        assert_eq!(m.0.consecutive[0], 1);
        for _ in 0..2 {
            assert!(!m.update(1.0));
        }
        assert_eq!(m.0.consecutive[0], 3);
        assert!(!m.update(1.0));
        assert_eq!(m.0.consecutive[0], 0);
        assert!(!m.tripped());
        // Sustained noise keeps the variance up for l = 4 consecutive
        // decisions → trip, and stay tripped.
        m.update(9.0);
        m.update(1.0);
        m.update(9.0);
        let tripped = m.update(1.0);
        assert!(tripped);
        let at = m.tripped_at().unwrap();
        assert!(m.update(1.0));
        assert_eq!(m.tripped_at(), Some(at), "trip index is sticky");
        assert_eq!(m.switches(), 1);
        assert_eq!(m.recoveries(), 0);
    }

    #[test]
    fn variance_matches_direct_computation() {
        let mut m = Monitor::new(4, f32::INFINITY, 1);
        let vals = [2.0f32, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for &v in &vals {
            m.update(v);
        }
        // Last 4 values: 5, 5, 7, 9 → mean 6.5, var (2.25+2.25+.25+6.25)/4.
        assert!((m.variance() - 11.0 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_trip_state() {
        let mut m = Monitor::new(2, 0.0, 1);
        m.update(0.0);
        m.update(10.0);
        assert!(m.tripped());
        m.reset();
        assert!(!m.tripped());
        assert_eq!(m.0.decisions[0], 0);
        assert_eq!(m.switches(), 0);
    }

    #[test]
    fn session_reset_keeps_lifetime_counters() {
        let cfg = ServeConfig {
            k: 2,
            alpha: 0.1,
            l: 1,
            ..ServeConfig::default()
        };
        let mut m = FleetMonitors::new(1, &cfg);
        m.update(0, 0.0);
        assert!(m.update(0, 9.0));
        assert_eq!(m.switches(0), 1);
        m.reset_session(0);
        assert!(!m.tripped(0));
        assert_eq!(m.tripped_at(0), None);
        assert_eq!(m.switches(0), 1, "lifetime switch count survives");
        assert_eq!(m.decisions[0], 2, "lifetime decision count survives");
    }

    /// The calibration footgun: exceedances counted under the throwaway
    /// pre-calibration threshold must not survive `set_alpha` — a
    /// monitor calibrated mid-stream would otherwise trip up to l − 1
    /// decisions early.
    #[test]
    fn set_alpha_discards_stale_rolling_state() {
        let mut m = Monitor::new(2, 0.0, 3);
        // α = 0: every full window exceeds, driving consecutive to l − 1.
        m.update(1.0);
        m.update(5.0);
        m.update(1.0);
        assert_eq!(m.0.consecutive[0], 2);
        m.set_alpha(0.5);
        assert_eq!(m.0.consecutive[0], 0, "set_alpha must reset the streak");
        assert_eq!(m.0.decisions[0], 0);
        // One post-calibration exceedance is not l consecutive ones.
        m.update(0.0);
        assert!(!m.update(10.0), "stale streak would have tripped here");
        assert_eq!(m.0.consecutive[0], 1);
        // l genuine consecutive exceedances still trip.
        assert!(!m.update(0.0));
        assert!(m.update(10.0));
        assert!(m.tripped());
    }

    #[test]
    fn set_anchor_discards_stale_rolling_state() {
        let mut m = Monitor::new(2, 0.1, 1);
        m.update(3.0);
        m.update(3.0);
        assert!(m.variance() < 0.1);
        m.set_anchor(Some(0.0));
        assert_eq!(m.0.decisions[0], 0);
        assert_eq!(m.variance(), 0.0, "old-anchor variance must not leak");
        // The ring was cleared: the anchored variance sees only fresh
        // values, not the pre-anchor 3.0s.
        m.update(0.0);
        assert!(!m.update(0.0));
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn reverse_recovers_after_quiet_windows_and_counts_switches() {
        let mut m = Monitor::with_reverse(2, 0.5, 1, ReverseConfig::new(3, 0));
        m.update(0.0);
        assert!(m.update(9.0)); // trip: window (0, 9) is loud
        assert_eq!(m.switches(), 1);
        assert!(m.observing(), "reverse monitors keep observing");
        // Constant from here on → every window (9, 9) is quiet; recovery
        // needs 3 consecutive ones.
        assert!(m.update(9.0)); // quiet 1
        assert!(m.update(9.0)); // quiet 2
        assert!(!m.update(9.0), "third quiet window recovers");
        assert_eq!(m.recoveries(), 1);
        assert!(m.0.last_recovery(0).is_some());
        assert!(!m.tripped());
    }

    #[test]
    fn never_recovers_within_m_windows_of_a_trip() {
        let m_windows = 4;
        let mut m = Monitor::with_reverse(2, 0.5, 1, ReverseConfig::new(m_windows, 0));
        m.update(0.0);
        m.update(9.0); // trip at index 1
        let trip = m.0.last_trip(0).unwrap();
        // Perfectly quiet from here on — recovery still takes m updates.
        let mut steps = 0;
        while m.tripped() {
            m.update(9.0);
            steps += 1;
            assert!(steps <= 16, "never recovered");
        }
        let rec = m.0.last_recovery(0).unwrap();
        assert!(
            rec - trip >= m_windows,
            "recovered {} decisions after the trip (m = {m_windows})",
            rec - trip
        );
    }

    #[test]
    fn retrip_inside_guard_locks_onto_fallback() {
        let mut m = Monitor::with_reverse(2, 0.5, 1, ReverseConfig::new(1, 8));
        m.update(0.0);
        m.update(9.0); // switch 1
        assert!(!m.update(9.0)); // window (9, 9) is quiet → recovers (m = 1)
        assert!(!m.tripped());
        assert_eq!(m.recoveries(), 1);
        // Immediately loud again → second switch, inside the guard → lock.
        assert!(m.update(0.0));
        assert_eq!(m.switches(), 2, "re-trip recorded as a second switch");
        assert!(m.locked());
        assert!(!m.observing());
        // Locked = sticky: quiet forever, never recovers.
        for _ in 0..32 {
            assert!(m.update(0.0));
        }
        assert_eq!(m.recoveries(), 1);
        // Reset clears the lock.
        m.reset();
        assert!(!m.locked());
        assert!(!m.tripped());
    }

    #[test]
    fn sticky_monitor_freezes_ring_after_trip() {
        // The reverse-off ring freeze is what keeps fig1–fig5 byte-
        // identical: post-trip raw values must not touch the variance.
        let mut m = Monitor::new(2, 0.5, 1);
        m.update(0.0);
        m.update(9.0);
        assert!(m.tripped());
        let frozen = m.variance();
        m.update(1234.5);
        assert_eq!(m.variance().to_bits(), frozen.to_bits());
        assert!(!m.observing());
    }

    /// Fail closed: replacing raw values of a random stream by NaN/±∞
    /// never leaves the monitor on the learned policy at a decision
    /// where the finite stream has it on the fallback — sticky and
    /// reverse, anchored and not. Reverse runs use `retrip_guard = 0`,
    /// under which the lock never engages: the lock depends on recovery
    /// history, so a finite stream that recovered and re-tripped can
    /// lock where the injected one, kept on the fallback throughout,
    /// does not.
    #[test]
    fn non_finite_raw_values_never_read_as_quiet() {
        let non_finite = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = Rng::seed_from_u64(4);
        let (mut fallback_decisions, mut injected) = (0usize, 0usize);
        for case in 0..300 {
            let k = 1 + rng.below(5);
            let alpha = rng.range_f32(0.05, 1.0);
            let l = 1 + rng.below(3);
            let reverse = (case % 2 == 1).then(|| ReverseConfig::new(1 + rng.below(3), 0));
            let anchor = (rng.next_f32() < 0.5).then(|| rng.range_f32(0.0, 1.0));
            let cfg = ServeConfig {
                k,
                alpha,
                l,
                anchor,
                reverse,
                ..ServeConfig::default()
            };
            let mut finite = FleetMonitors::new(1, &cfg);
            let mut with_bad = FleetMonitors::new(1, &cfg);
            for step in 0..120 {
                let raw = if rng.next_f32() < 0.2 {
                    2.0 + rng.next_f32() * 3.0
                } else {
                    0.1 * rng.next_f32()
                };
                let bad = if rng.next_f32() < 0.05 {
                    injected += 1;
                    non_finite[rng.below(non_finite.len())]
                } else {
                    raw
                };
                let want = finite.update(0, raw);
                let got = with_bad.update(0, bad);
                if want {
                    fallback_decisions += 1;
                    assert!(
                        got,
                        "case {case} step {step}: injected stream left the fallback \
                         (k {k}, alpha {alpha}, l {l}, anchor {anchor:?}, reverse {reverse:?})"
                    );
                }
            }
        }
        assert!(injected > 1000, "too few non-finite injections");
        assert!(fallback_decisions > 1000, "streams too quiet to trip");
    }
}
