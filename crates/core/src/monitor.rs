//! k-window variance smoothing and l-consecutive-exceedance
//! thresholding (§2.5), with optional hysteresis-based reverse
//! switching.
//!
//! Raw signal values are noisy; the paper smooths them by monitoring the
//! *variance of the last k values* and only declares uncertainty when
//! that variance exceeds a calibrated threshold α for l consecutive
//! decisions. Once tripped, a monitor stays tripped — the paper's
//! guarded agent defaults to the safe policy for the rest of the
//! session (no reverse switching). That sticky behavior is the default
//! here.
//!
//! The state machine exists once, on one session's record
//! (`SessionMonitor`); [`FleetMonitors`] holds one record per session
//! and the fleet's `n × k` ring buffer, and the serving engine's lanes
//! update their own sessions' records in place.
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

/// Sentinel for "no decision index recorded yet" in a monitor record
/// (`u32` indices keep the record compact).
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

/// One session's monitor: the fill and phase of its k-ring (which lives
/// in the fleet's `n × k` ring buffer), the l-counter, the
/// reverse-switching state machine and the lifetime counters. One record
/// per session, so a lane's session range carries its monitors with it.
#[derive(Clone, Copy)]
pub(crate) struct SessionMonitor {
    len: u32,
    pos: u32,
    consecutive: u32,
    /// Consecutive in-threshold decisions while on the fallback.
    quiet: u32,
    on_fallback: bool,
    locked: bool,
    tripped_at: u32,
    last_trip: u32,
    last_recovery: u32,
    switches: u32,
    recoveries: u32,
    decisions: u32,
    variance: f32,
}

// Byte budget of one monitor record: eleven 4-byte fields and two flags,
// padded to 4. Every guarded session pays it, plus 4k bytes of ring.
const _: () = assert!(std::mem::size_of::<SessionMonitor>() <= 48);

impl SessionMonitor {
    const FRESH: SessionMonitor = SessionMonitor {
        len: 0,
        pos: 0,
        consecutive: 0,
        quiet: 0,
        on_fallback: false,
        locked: false,
        tripped_at: NO_INDEX,
        last_trip: NO_INDEX,
        last_recovery: NO_INDEX,
        switches: 0,
        recoveries: 0,
        decisions: 0,
        variance: 0.0,
    };

    /// See [`FleetMonitors::observing`].
    pub(crate) fn observing(&self, p: &ServeConfig) -> bool {
        !self.on_fallback || (p.reverse.is_some() && !self.locked)
    }

    pub(crate) fn tripped(&self) -> bool {
        self.on_fallback
    }

    /// [`FleetMonitors::update`] on this session's k slots of the ring.
    pub(crate) fn update(&mut self, p: &ServeConfig, ring: &mut [f32], raw: f32) -> bool {
        let index = self.decisions;
        self.decisions += 1;
        if !self.observing(p) {
            return true;
        }
        let k = p.k;
        let mut pos = self.pos as usize;
        ring[pos] = raw;
        pos = (pos + 1) % k;
        self.pos = pos as u32;
        if (self.len as usize) < k {
            self.len += 1;
        }
        if (self.len as usize) < k {
            return self.on_fallback;
        }
        // Variance about the anchor (or the window's own sample mean),
        // summed oldest-first so the ring phase never changes the bits.
        let n = k as f32;
        let mean = match p.anchor {
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
        self.variance = var;
        // Asked as "quiet?", not "loud?": a NaN variance answers false
        // either way, and must land on the exceedance side.
        let in_threshold = var <= p.alpha;
        if self.on_fallback {
            if in_threshold {
                self.quiet += 1;
                let m = p.reverse.expect("on-fallback update implies reverse");
                if self.quiet as usize >= m.quiet_windows {
                    self.on_fallback = false;
                    self.recoveries += 1;
                    self.last_recovery = index;
                    self.quiet = 0;
                    self.consecutive = 0;
                }
            } else {
                self.quiet = 0;
            }
        } else if in_threshold {
            self.consecutive = 0;
        } else {
            self.consecutive += 1;
            if self.consecutive as usize >= p.l {
                self.on_fallback = true;
                self.switches += 1;
                if self.tripped_at == NO_INDEX {
                    self.tripped_at = index;
                }
                self.last_trip = index;
                self.consecutive = 0;
                self.quiet = 0;
                if let Some(rev) = p.reverse {
                    if self.last_recovery != NO_INDEX
                        && (index - self.last_recovery) as usize <= rev.retrip_guard
                    {
                        self.locked = true;
                    }
                }
            }
        }
        self.on_fallback
    }

    /// [`FleetMonitors::reset_session`] on this session's ring slots.
    pub(crate) fn reset(&mut self, ring: &mut [f32]) {
        ring.fill(0.0);
        *self = SessionMonitor {
            switches: self.switches,
            recoveries: self.recoveries,
            decisions: self.decisions,
            ..SessionMonitor::FRESH
        };
    }
}

/// Per-session monitor state for a whole fleet: one `SessionMonitor`
/// record per session and an `n × k` buffer of variance rings. Every
/// session shares one (k, α, l), anchor and reverse policy.
///
/// The anchor matters: a sustained shift can hold the signal at a
/// *constant* elevated value (U_π saturates like this out of
/// distribution), and the sample-mean variance of a constant window is
/// 0 — anchored at the calibrated level μ₀ the same window reads
/// `(v − μ₀)²`.
#[derive(Clone)]
pub struct FleetMonitors {
    params: ServeConfig,
    sessions: Vec<SessionMonitor>,
    /// `n × k` variance rings.
    ring: Vec<f32>,
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
            params: cfg.clone(),
            sessions: vec![SessionMonitor::FRESH; n],
            ring: vec![0.0; n * cfg.k],
        }
    }

    /// Settings, records and rings, borrowed apart for the engine's lanes.
    pub(crate) fn parts_mut(&mut self) -> (&ServeConfig, &mut [SessionMonitor], &mut [f32]) {
        (&self.params, &mut self.sessions, &mut self.ring)
    }

    /// True while session `i`'s raw value is still being consumed: not
    /// on the fallback, or on it with a live chance of recovering. A
    /// sticky (or locked) fallback never observes again.
    pub fn observing(&self, i: usize) -> bool {
        self.sessions[i].observing(&self.params)
    }

    /// Feed one raw signal value to session `i`; returns its tripped
    /// state after this decision. Exceedances only count once the window
    /// is full; a sticky fallback ignores `raw` (its ring freezes at the
    /// trip), a reverse one keeps rolling to measure the quiet streak.
    pub fn update(&mut self, i: usize, raw: f32) -> bool {
        let k = self.params.k;
        self.sessions[i].update(&self.params, &mut self.ring[i * k..(i + 1) * k], raw)
    }

    /// Session boundary (auto-reset rollover): forget session `i`'s
    /// rolling state and trip/recovery *indices*, keep its lifetime
    /// switch/recovery/decision counters — the same split
    /// `MultiSession` makes between per-video state and lifetime
    /// accounting.
    pub fn reset_session(&mut self, i: usize) {
        let k = self.params.k;
        self.sessions[i].reset(&mut self.ring[i * k..(i + 1) * k]);
    }

    /// The raw value session `i`'s monitor last consumed (0 before its
    /// first and after a reset).
    pub(crate) fn last_raw(&self, i: usize) -> f32 {
        let k = self.params.k;
        self.ring[i * k + (self.sessions[i].pos as usize + k - 1) % k]
    }

    /// Session `i` currently acts through the fallback. Sticky monitors
    /// stay tripped; reverse monitors may clear this on recovery.
    pub fn tripped(&self, i: usize) -> bool {
        self.sessions[i].on_fallback
    }

    /// Re-trip lock engaged: session `i` re-tripped within the guard
    /// window of a recovery and now behaves like a sticky monitor.
    pub fn locked(&self, i: usize) -> bool {
        self.sessions[i].locked
    }

    /// Decision index of session `i`'s first trip.
    pub fn tripped_at(&self, i: usize) -> Option<usize> {
        index_opt(self.sessions[i].tripped_at)
    }

    /// Decision index of session `i`'s most recent trip.
    pub fn last_trip(&self, i: usize) -> Option<usize> {
        index_opt(self.sessions[i].last_trip)
    }

    /// Decision index of session `i`'s most recent recovery.
    pub fn last_recovery(&self, i: usize) -> Option<usize> {
        index_opt(self.sessions[i].last_recovery)
    }

    /// Learned→fallback switches (at most 1 per session without
    /// reverse).
    pub fn switches(&self, i: usize) -> usize {
        self.sessions[i].switches as usize
    }

    /// Fallback→learned recoveries (always 0 without reverse).
    pub fn recoveries(&self, i: usize) -> usize {
        self.sessions[i].recoveries as usize
    }

    /// The smoothed value compared against α at session `i`'s last
    /// update (0 until the window fills).
    pub fn variance(&self, i: usize) -> f32 {
        self.sessions[i].variance
    }
}

fn index_opt(v: u32) -> Option<usize> {
    if v == NO_INDEX {
        None
    } else {
        Some(v as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::rng::Rng;

    /// A one-session fleet under (k, α, l) and `reverse`.
    fn one(k: usize, alpha: f32, l: usize, reverse: Option<ReverseConfig>) -> FleetMonitors {
        let cfg = ServeConfig {
            k,
            alpha,
            l,
            reverse,
            ..ServeConfig::default()
        };
        FleetMonitors::new(1, &cfg)
    }

    #[test]
    fn trips_only_after_l_consecutive_exceedances() {
        // A single spike stays inside the k = 3 window for exactly 3
        // updates, so l = 4 separates "one transient" from "sustained".
        let mut m = one(3, 0.1, 4, None);
        // Constant values: variance 0, never trips.
        for _ in 0..5 {
            assert!(!m.update(0, 1.0));
        }
        // One spike → 3 consecutive exceedances while it traverses the
        // window, then calm: the counter must reset without tripping.
        assert!(!m.update(0, 5.0));
        assert_eq!(m.sessions[0].consecutive, 1);
        for _ in 0..2 {
            assert!(!m.update(0, 1.0));
        }
        assert_eq!(m.sessions[0].consecutive, 3);
        assert!(!m.update(0, 1.0));
        assert_eq!(m.sessions[0].consecutive, 0);
        assert!(!m.tripped(0));
        // Sustained noise keeps the variance up for l = 4 consecutive
        // decisions → trip, and stay tripped.
        m.update(0, 9.0);
        m.update(0, 1.0);
        m.update(0, 9.0);
        let tripped = m.update(0, 1.0);
        assert!(tripped);
        let at = m.tripped_at(0).unwrap();
        assert!(m.update(0, 1.0));
        assert_eq!(m.tripped_at(0), Some(at), "trip index is sticky");
        assert_eq!(m.switches(0), 1);
        assert_eq!(m.recoveries(0), 0);
    }

    #[test]
    fn variance_matches_direct_computation() {
        let mut m = one(4, f32::INFINITY, 1, None);
        let vals = [2.0f32, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for &v in &vals {
            m.update(0, v);
        }
        // Last 4 values: 5, 5, 7, 9 → mean 6.5, var (2.25+2.25+.25+6.25)/4.
        assert!((m.variance(0) - 11.0 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn session_reset_keeps_lifetime_counters() {
        let mut m = one(2, 0.1, 1, None);
        m.update(0, 0.0);
        assert!(m.update(0, 9.0));
        assert_eq!(m.switches(0), 1);
        m.reset_session(0);
        assert!(!m.tripped(0));
        assert_eq!(m.tripped_at(0), None);
        assert_eq!(m.switches(0), 1, "lifetime switch count survives");
        assert_eq!(
            m.sessions[0].decisions, 2,
            "lifetime decision count survives"
        );
    }

    #[test]
    fn reverse_recovers_after_quiet_windows_and_counts_switches() {
        let mut m = one(2, 0.5, 1, Some(ReverseConfig::new(3, 0)));
        m.update(0, 0.0);
        assert!(m.update(0, 9.0)); // trip: window (0, 9) is loud
        assert_eq!(m.switches(0), 1);
        assert!(m.observing(0), "reverse monitors keep observing");
        // Constant from here on → every window (9, 9) is quiet; recovery
        // needs 3 consecutive ones.
        assert!(m.update(0, 9.0)); // quiet 1
        assert!(m.update(0, 9.0)); // quiet 2
        assert!(!m.update(0, 9.0), "third quiet window recovers");
        assert_eq!(m.recoveries(0), 1);
        assert!(m.last_recovery(0).is_some());
        assert!(!m.tripped(0));
    }

    #[test]
    fn never_recovers_within_m_windows_of_a_trip() {
        let m_windows = 4;
        let mut m = one(2, 0.5, 1, Some(ReverseConfig::new(m_windows, 0)));
        m.update(0, 0.0);
        m.update(0, 9.0); // trip at index 1
        let trip = m.last_trip(0).unwrap();
        // Perfectly quiet from here on — recovery still takes m updates.
        let mut steps = 0;
        while m.tripped(0) {
            m.update(0, 9.0);
            steps += 1;
            assert!(steps <= 16, "never recovered");
        }
        let rec = m.last_recovery(0).unwrap();
        assert!(
            rec - trip >= m_windows,
            "recovered {} decisions after the trip (m = {m_windows})",
            rec - trip
        );
    }

    #[test]
    fn retrip_inside_guard_locks_onto_fallback() {
        let mut m = one(2, 0.5, 1, Some(ReverseConfig::new(1, 8)));
        m.update(0, 0.0);
        m.update(0, 9.0); // switch 1
        assert!(!m.update(0, 9.0)); // window (9, 9) is quiet → recovers (m = 1)
        assert!(!m.tripped(0));
        assert_eq!(m.recoveries(0), 1);
        // Immediately loud again → second switch, inside the guard → lock.
        assert!(m.update(0, 0.0));
        assert_eq!(m.switches(0), 2, "re-trip recorded as a second switch");
        assert!(m.locked(0));
        assert!(!m.observing(0));
        // Locked = sticky: quiet forever, never recovers.
        for _ in 0..32 {
            assert!(m.update(0, 0.0));
        }
        assert_eq!(m.recoveries(0), 1);
        // A session reset clears the lock.
        m.reset_session(0);
        assert!(!m.locked(0));
        assert!(!m.tripped(0));
    }

    #[test]
    fn sticky_monitor_freezes_ring_after_trip() {
        // The reverse-off ring freeze is what keeps fig1–fig5 byte-
        // identical: post-trip raw values must not touch the variance.
        let mut m = one(2, 0.5, 1, None);
        m.update(0, 0.0);
        m.update(0, 9.0);
        assert!(m.tripped(0));
        let frozen = m.variance(0);
        m.update(0, 1234.5);
        assert_eq!(m.variance(0).to_bits(), frozen.to_bits());
        assert!(!m.observing(0));
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
