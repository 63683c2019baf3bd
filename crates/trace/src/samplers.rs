//! The four i.i.d. throughput samplers of the paper's §3.1, implemented
//! from scratch: Gamma via Marsaglia–Tsang, Logistic and Exponential via
//! inverse-CDF.
//!
//! Each distribution comes as a pair: a pure *quantile* function taking
//! `u ∈ [0, 1]` (so the u-boundary behaviour is testable directly) and a
//! sampling function drawing `u` from an [`Rng`]. The quantile functions
//! clamp `u` into the open unit interval before transforming it:
//! `Rng::next_f64` can return exactly 0, and a careless caller can pass
//! exactly 1, either of which would otherwise send `ln(u)`, `ln(1-u)` or
//! `u/(1-u)` to a non-finite value that then poisons a whole generated
//! dataset. With the clamp, every quantile below is finite on the entire
//! closed interval.

use osa_nn::rng::Rng;

/// Largest `f64` strictly below 1.
const ONE_BELOW: f64 = 1.0 - f64::EPSILON / 2.0;

/// Clamp `u` into the open unit interval `(0, 1)`.
fn clamp_unit_open(u: f64) -> f64 {
    u.clamp(f64::MIN_POSITIVE, ONE_BELOW)
}

/// Exponential(rate) quantile: `-ln(1-u) / rate`, finite for all
/// `u ∈ [0, 1]` thanks to the open-interval clamp.
pub(crate) fn exponential_quantile(u: f64, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    -(1.0 - clamp_unit_open(u)).ln() / rate
}

/// Draw from Exponential(rate). Mean `1/rate`, variance `1/rate²`.
pub fn exponential(rng: &mut Rng, rate: f64) -> f64 {
    exponential_quantile(rng.next_f64(), rate)
}

/// Logistic(location, scale) quantile: `location + scale·ln(u/(1-u))`,
/// finite for all `u ∈ [0, 1]` thanks to the open-interval clamp.
pub fn logistic_quantile(u: f64, location: f64, scale: f64) -> f64 {
    debug_assert!(scale > 0.0);
    let u = clamp_unit_open(u);
    location + scale * (u / (1.0 - u)).ln()
}

/// Draw from Logistic(location, scale). Mean `location`, variance
/// `scale²·π²/3`.
pub fn logistic(rng: &mut Rng, location: f64, scale: f64) -> f64 {
    logistic_quantile(rng.next_f64(), location, scale)
}

/// Standard normal in `f64` via Box–Muller (the `f32` generator in
/// `osa_nn::rng` is too coarse for the gamma squeeze test).
fn standard_normal(rng: &mut Rng) -> f64 {
    // 1 - u ∈ (0, 1], so the log is finite.
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw from Gamma(shape, scale) with the Marsaglia–Tsang method
/// ("A simple method for generating gamma variables", 2000).
///
/// Mean `shape·scale`, variance `shape·scale²`. For `shape ≥ 1` this is
/// the squeeze/accept loop on `d·(1 + c·x)³`; for `shape < 1` the
/// standard boost `Gamma(a) = Gamma(a+1)·U^{1/a}` is applied, with `U`
/// clamped away from 0 so the power never produces a spurious 0⁻ or NaN.
pub fn gamma(rng: &mut Rng, shape: f64, scale: f64) -> f64 {
    assert!(
        shape > 0.0 && scale > 0.0,
        "gamma requires positive shape and scale"
    );
    if shape < 1.0 {
        let u = clamp_unit_open(rng.next_f64());
        return gamma(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = clamp_unit_open(rng.next_f64());
        // Squeeze test accepts ~98% of draws without a log.
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v * scale;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite regression: quantiles must stay finite at both ends
    /// of the `next_f64` range — `u = 0` exactly (which `next_f64` *does*
    /// return) and `u = 1` (one careless `1.0 - x` away).
    #[test]
    fn quantiles_finite_at_unit_interval_boundaries() {
        for u in [0.0, f64::MIN_POSITIVE, 0.5, ONE_BELOW, 1.0] {
            let e = exponential_quantile(u, 1.0);
            assert!(e.is_finite() && e >= 0.0, "exp({u}) = {e}");
            let l = logistic_quantile(u, 4.0, 0.5);
            assert!(l.is_finite(), "logistic({u}) = {l}");
        }
        // Monotone and correctly ordered across the boundary clamp.
        assert!(exponential_quantile(0.0, 1.0) < exponential_quantile(1.0, 1.0));
        assert!(logistic_quantile(0.0, 4.0, 0.5) < logistic_quantile(1.0, 4.0, 0.5));
    }

    #[test]
    fn quantiles_hit_known_medians() {
        assert!((exponential_quantile(0.5, 1.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!((logistic_quantile(0.5, 4.0, 0.5) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_stays_finite_and_positive_for_tiny_shapes() {
        // shape < 1 exercises the boost path where U^{1/shape} underflows
        // toward 0 aggressively; samples may be 0 after underflow but
        // must never be negative or non-finite.
        let mut rng = Rng::seed_from_u64(5);
        for &shape in &[0.05, 0.3, 0.9, 1.0, 2.0, 7.5] {
            for _ in 0..5_000 {
                let x = gamma(&mut rng, shape, 2.0);
                assert!(x.is_finite() && x >= 0.0, "gamma({shape}) = {x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive shape")]
    fn gamma_rejects_nonpositive_shape() {
        let mut rng = Rng::seed_from_u64(1);
        gamma(&mut rng, 0.0, 1.0);
    }
}
