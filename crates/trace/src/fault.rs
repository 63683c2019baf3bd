//! Fault injection for robustness experiments: outages, throughput
//! spikes, and rate limiting (DESIGN.md §1 row 3).
//!
//! Faults are pure transforms `Trace → Trace`; the original corpus is
//! never mutated, so a robustness sweep can layer faults over a cached
//! dataset without regenerating it. Every transform re-establishes the
//! bandwidth invariant through [`sanitize_mbps`]: whatever the input
//! contained (including NaN or ±∞ smuggled in through a hand-built
//! trace) and whatever the fault parameters are, the output samples are
//! finite and in `[0, MAX_MBPS]`.

use osa_nn::rng::Rng;

use crate::trace::Trace;

/// Upper clamp for fault-injected bandwidth, far above any real link this
/// workspace models (Belgium-LTE-like caps at 65 Mbit/s).
pub const MAX_MBPS: f32 = 10_000.0;

/// Map one sample onto the valid bandwidth range: non-finite values
/// become 0 (a dead link, the conservative reading), finite values clamp
/// into `[0, MAX_MBPS]`.
pub(crate) fn sanitize_mbps(x: f32) -> f32 {
    if x.is_finite() {
        x.clamp(0.0, MAX_MBPS)
    } else {
        0.0
    }
}

/// One injectable link fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Bandwidth drops to zero for `duration` slots starting at `start`
    /// (a tunnel, a handover gap).
    Outage { start: usize, duration: usize },
    /// Bandwidth is multiplied by `factor` for `duration` slots starting
    /// at `start` (a sudden empty cell for `factor > 1`, congestion for
    /// `factor < 1`).
    Spike {
        start: usize,
        duration: usize,
        factor: f32,
    },
    /// Bandwidth is capped at `cap_mbps` for the whole trace (a traffic
    /// shaper / throttled plan).
    RateLimit { cap_mbps: f32 },
}

impl Fault {
    /// Apply the fault, returning a new trace whose id records the
    /// transform (`"<id>+outage@start"` etc.) so faulted traces are
    /// distinguishable in caches and result tables.
    pub fn apply(&self, trace: &Trace) -> Trace {
        let mut mbps: Vec<f32> = trace.mbps.iter().copied().map(sanitize_mbps).collect();
        let id = match *self {
            Fault::Outage { start, duration } => {
                for x in mbps.iter_mut().skip(start).take(duration) {
                    *x = 0.0;
                }
                format!("{}+outage@{start}x{duration}", trace.id)
            }
            Fault::Spike {
                start,
                duration,
                factor,
            } => {
                for x in mbps.iter_mut().skip(start).take(duration) {
                    *x = sanitize_mbps(*x * factor);
                }
                format!("{}+spike@{start}x{duration}", trace.id)
            }
            Fault::RateLimit { cap_mbps } => {
                let cap = sanitize_mbps(cap_mbps);
                for x in mbps.iter_mut() {
                    *x = x.min(cap);
                }
                format!("{}+ratelimit", trace.id)
            }
        };
        Trace::new(id, trace.interval_s, mbps)
    }

    /// Draw a random fault scaled to a trace of `len` slots: kind, onset,
    /// duration (5–20% of the trace) and magnitude all come from `rng`.
    pub fn random(rng: &mut Rng, len: usize) -> Fault {
        let len = len.max(1);
        let duration = (len / 20 + rng.below(len / 5 + 1)).max(1);
        let start = rng.below(len);
        match rng.below(3) {
            0 => Fault::Outage { start, duration },
            1 => Fault::Spike {
                start,
                duration,
                factor: rng.range_f32(0.1, 8.0),
            },
            _ => Fault::RateLimit {
                cap_mbps: rng.range_f32(0.2, 5.0),
            },
        }
    }
}

/// Apply a sequence of faults left to right.
pub fn inject(trace: &Trace, faults: &[Fault]) -> Trace {
    faults.iter().fold(trace.clone(), |acc, f| f.apply(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Trace {
        Trace::new("base", 1.0, (1..=10).map(|i| i as f32).collect())
    }

    #[test]
    fn outage_zeroes_exactly_its_window() {
        let t = Fault::Outage {
            start: 3,
            duration: 4,
        }
        .apply(&base());
        assert_eq!(
            t.mbps,
            vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 8.0, 9.0, 10.0]
        );
        assert!(t.id.contains("outage"));
    }

    #[test]
    fn outage_past_the_end_is_truncated() {
        let t = Fault::Outage {
            start: 8,
            duration: 100,
        }
        .apply(&base());
        assert_eq!(&t.mbps[..8], &base().mbps[..8]);
        assert_eq!(&t.mbps[8..], &[0.0, 0.0]);
    }

    #[test]
    fn spike_scales_its_window() {
        let t = Fault::Spike {
            start: 0,
            duration: 2,
            factor: 3.0,
        }
        .apply(&base());
        assert_eq!(&t.mbps[..3], &[3.0, 6.0, 3.0]);
    }

    #[test]
    fn rate_limit_caps_everything() {
        let t = Fault::RateLimit { cap_mbps: 4.5 }.apply(&base());
        assert!(t.mbps.iter().all(|&x| x <= 4.5));
        assert_eq!(t.mbps[0], 1.0); // below the cap: untouched
    }

    #[test]
    fn adversarial_inputs_and_parameters_stay_wellformed() {
        let dirty = Trace::new(
            "dirty",
            1.0,
            vec![f32::NAN, f32::INFINITY, -3.0, 1.0e38, 2.0],
        );
        let faults = [
            Fault::Outage {
                start: 0,
                duration: 1,
            },
            Fault::Spike {
                start: 0,
                duration: 5,
                factor: f32::INFINITY,
            },
            Fault::Spike {
                start: 1,
                duration: 2,
                factor: f32::NAN,
            },
            Fault::Spike {
                start: 0,
                duration: 5,
                factor: -2.0,
            },
            Fault::RateLimit { cap_mbps: f32::NAN },
            Fault::RateLimit { cap_mbps: -1.0 },
        ];
        for f in faults {
            let out = f.apply(&dirty);
            assert!(out.is_wellformed(), "{f:?} -> {:?}", out.mbps);
            assert!(out.mbps.iter().all(|&x| x <= MAX_MBPS));
        }
        // Stacking all of them keeps the invariant too.
        assert!(inject(&dirty, &faults).is_wellformed());
    }
}
