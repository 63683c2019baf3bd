//! Link-capacity integration: turning a fixed-interval Mbit/s trace into
//! "how long does it take to move N bytes starting at t0" — the inverse
//! of "bytes downloadable over a time window", which the unit tests
//! keep as their reference.
//!
//! The ABR simulator (`osa-abr`) drives chunk downloads off
//! [`transfer_time`]; it lives here so the piecewise-constant
//! integration logic is defined — and unit-tested with exact arithmetic
//! — in exactly one place. Traces extend periodically past their
//! recorded duration (`t mod duration`), the convention Pensieve's
//! simulator uses so a 48-chunk session never runs off the end of a
//! short capacity file.
//!
//! All arithmetic is `f64` and strictly sequential (slot by slot), so
//! every caller gets bit-identical results regardless of thread count.

use crate::trace::Trace;

/// Bytes per Mbit: the link unit conversion used throughout the ABR
/// stack (1 Mbit/s = 10⁶ bits/s = 125 000 bytes/s).
pub(crate) const BYTES_PER_MBIT: f64 = 125_000.0;

/// Total bytes one full period of `trace` can deliver
/// (`Σᵢ mbps[i] · interval · 125 000`). Zero for an all-outage trace.
pub fn bytes_per_period(trace: &Trace) -> f64 {
    let dt = trace.interval_s as f64;
    trace
        .mbps
        .iter()
        .map(|&m| m as f64 * BYTES_PER_MBIT * dt)
        .sum()
}

/// Seconds needed to transfer `bytes` starting at absolute time `t0`,
/// i.e. the smallest `d` whose window `[t0, t0 + d)` carries `bytes`.
///
/// `per` is [`bytes_per_period`]`(trace)`. A caller that runs many
/// downloads over one trace computes it once, not per download: it is
/// a serial sum over every sample of the trace, which would otherwise
/// cost more than the slot walk below. Debug builds check that it
/// matches the trace.
///
/// Returns `f64::INFINITY` when the trace has zero capacity everywhere
/// (an all-outage trace can never finish a transfer); callers that feed
/// fault-injected traces must handle that. Panics on an empty trace,
/// negative/non-finite `bytes`, or a malformed `t0`.
pub fn transfer_time(trace: &Trace, per: f64, t0: f64, bytes: f64) -> f64 {
    assert!(!trace.mbps.is_empty(), "transfer_time on an empty trace");
    debug_assert_eq!(
        per.to_bits(),
        bytes_per_period(trace).to_bits(),
        "per is not the trace's period capacity"
    );
    assert!(t0.is_finite() && t0 >= 0.0, "malformed start time {t0}");
    assert!(
        bytes.is_finite() && bytes >= 0.0,
        "malformed byte count {bytes}"
    );
    if bytes == 0.0 {
        return 0.0;
    }
    if per <= 0.0 {
        return f64::INFINITY;
    }
    let n = trace.mbps.len();
    let dt = trace.interval_s as f64;
    let period = dt * n as f64;

    let mut remaining = bytes;
    let mut t = t0;
    // Fast-forward whole periods, keeping the remainder in (0, per] so
    // the slot walk below is bounded by ~one period.
    if remaining > per {
        let whole = ((remaining / per).ceil() - 1.0).max(0.0);
        t += whole * period;
        remaining -= whole * per;
    }

    // With `per > 0` at least one slot per period has positive rate, so
    // the walk finishes within a couple of periods; the iteration cap
    // only guards against a float pathology that would otherwise hang.
    for _ in 0..(8 * n + 64) {
        let idx = (t / dt).floor();
        let slot_end = (idx + 1.0) * dt;
        let rate = trace.mbps[idx as usize % n] as f64 * BYTES_PER_MBIT;
        let capacity = rate * (slot_end - t);
        if rate > 0.0 && capacity >= remaining {
            return (t + remaining / rate) - t0;
        }
        remaining -= capacity;
        t = slot_end;
    }
    unreachable!("transfer_time failed to converge: per={per}, bytes={bytes}, t0={t0}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::rng::Rng;

    /// Bytes downloadable over the half-open window `[t0, t1)`, integrating
    /// the piecewise-constant capacity with periodic extension.
    ///
    /// Panics on an empty trace or a malformed window (`t0 < 0`, `t1 < t0`,
    /// non-finite endpoints).
    fn bytes_over(trace: &Trace, t0: f64, t1: f64) -> f64 {
        assert!(!trace.mbps.is_empty(), "bytes_over on an empty trace");
        assert!(
            t0.is_finite() && t1.is_finite() && t0 >= 0.0 && t1 >= t0,
            "malformed window [{t0}, {t1})"
        );
        let n = trace.mbps.len();
        let dt = trace.interval_s as f64;
        let period = dt * n as f64;

        // Whole periods contribute exactly `bytes_per_period` each; resolve
        // them in one step so a long window costs O(samples), not O(window).
        let whole = ((t1 - t0) / period).floor();
        let mut total = whole * bytes_per_period(trace);
        let mut t = t0 + whole * period;

        // The remainder spans less than one period: walk it slot by slot.
        while t < t1 {
            let idx = (t / dt).floor();
            let slot_end = (idx + 1.0) * dt;
            if slot_end <= t {
                // Degenerate float sliver (t astronomically large); the
                // remaining window is below representable slot resolution.
                break;
            }
            let seg_end = slot_end.min(t1);
            let rate = trace.mbps[idx as usize % n] as f64 * BYTES_PER_MBIT;
            total += rate * (seg_end - t);
            t = seg_end;
        }
        total
    }

    /// `transfer_time` with the trace's period capacity.
    fn transfer(trace: &Trace, t0: f64, bytes: f64) -> f64 {
        transfer_time(trace, bytes_per_period(trace), t0, bytes)
    }

    /// 8 Mbit/s is exactly 10⁶ bytes/s — every expected value below is
    /// exactly representable, so the assertions use `==`.
    fn constant8() -> Trace {
        Trace::new("const-8", 1.0, vec![8.0; 3])
    }

    #[test]
    fn constant_rate_window_is_exact() {
        let t = constant8();
        assert_eq!(bytes_over(&t, 0.0, 1.0), 1_000_000.0);
        assert_eq!(bytes_over(&t, 0.25, 0.75), 500_000.0);
        assert_eq!(bytes_over(&t, 0.0, 0.0), 0.0);
    }

    #[test]
    fn constant_rate_transfer_is_exact() {
        let t = constant8();
        assert_eq!(transfer(&t, 0.0, 1_000_000.0), 1.0);
        assert_eq!(transfer(&t, 0.5, 250_000.0), 0.25);
        assert_eq!(transfer(&t, 0.0, 0.0), 0.0);
    }

    #[test]
    fn piecewise_rates_integrate_slot_by_slot() {
        // Slot 0: 1 MB/s for 0.5 s = 500 kB; slot 1: 2 MB/s.
        let t = Trace::new("steps", 0.5, vec![8.0, 16.0]);
        assert_eq!(bytes_over(&t, 0.0, 1.0), 1_500_000.0);
        // 750 kB: 500 kB from slot 0, then 250 kB at 2 MB/s = 0.125 s.
        assert_eq!(transfer(&t, 0.0, 750_000.0), 0.625);
    }

    #[test]
    fn outage_slots_stall_the_transfer() {
        let t = Trace::new("outage", 1.0, vec![8.0, 0.0, 8.0]);
        // 1.5 MB: 1 MB in slot 0, nothing in slot 1, 0.5 MB in slot 2.
        assert_eq!(transfer(&t, 0.0, 1_500_000.0), 2.5);
        // [0.5, 2.5) sees half of slot 0 and half of slot 2.
        assert_eq!(bytes_over(&t, 0.5, 2.5), 1_000_000.0);
    }

    #[test]
    fn trace_extends_periodically() {
        let t = Trace::new("periodic", 1.0, vec![8.0]);
        // Window far past the recorded duration wraps around.
        assert_eq!(bytes_over(&t, 0.5, 2.5), 2_000_000.0);
        assert_eq!(transfer(&t, 0.0, 10_500_000.0), 10.5);
        // Start mid-way through a later period.
        assert_eq!(transfer(&t, 7.5, 1_000_000.0), 1.0);
    }

    #[test]
    fn whole_period_fast_forward_matches_slot_walk() {
        let t = Trace::new("steps", 0.5, vec![8.0, 16.0]);
        // 100 periods + a bit: per = 1.5 MB/period.
        let d = transfer(&t, 0.0, 150_750_000.0);
        // 100 periods deliver 150 MB in 100 s; the remaining 750 kB take
        // 0.625 s (see piecewise test).
        assert_eq!(d, 100.625);
    }

    #[test]
    fn all_zero_trace_never_finishes() {
        let t = Trace::new("dead", 1.0, vec![0.0, 0.0]);
        assert_eq!(transfer(&t, 0.0, 1.0), f64::INFINITY);
        assert_eq!(bytes_over(&t, 0.0, 100.0), 0.0);
        assert_eq!(bytes_per_period(&t), 0.0);
    }

    #[test]
    fn zero_bytes_is_instant_even_on_dead_links() {
        let t = Trace::new("dead", 1.0, vec![0.0]);
        assert_eq!(transfer(&t, 3.0, 0.0), 0.0);
    }

    #[test]
    fn transfer_and_integral_are_inverse() {
        // Property: bytes_over(t0, t0 + transfer_time(t0, b)) ≈ b for
        // random traces, start times, and sizes.
        let mut rng = Rng::seed_from_u64(0x11_4e_6b);
        for case in 0..50 {
            let len = 2 + (case % 7);
            let mbps: Vec<f32> = (0..len).map(|_| rng.range_f32(0.0, 20.0)).collect();
            let trace = Trace::new(format!("rnd-{case}"), 0.5 + (case % 3) as f32, mbps);
            if bytes_per_period(&trace) <= 0.0 {
                continue;
            }
            let t0 = rng.range_f32(0.0, 30.0) as f64;
            let bytes = rng.range_f32(1.0, 5e6) as f64;
            let d = transfer(&trace, t0, bytes);
            let back = bytes_over(&trace, t0, t0 + d);
            let rel = (back - bytes).abs() / bytes;
            assert!(rel < 1e-9, "case {case}: {bytes} vs {back} (rel {rel})");
        }
    }
}
