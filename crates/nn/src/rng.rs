//! Deterministic pseudo-random number generation for the whole workspace.
//!
//! The build environment is offline, so the `rand` crate is unavailable;
//! this module fills its role (DESIGN.md §5). The generator is
//! xoshiro256\*\* (Blackman & Vigna), seeded through SplitMix64 so that any
//! u64 — including 0 — expands to a full 256-bit state. Every stochastic
//! component in the workspace (weight init, policy sampling, trace
//! generation) takes `&mut Rng` explicitly; there is no global RNG, so a
//! single u64 seed reproduces experiments bit-for-bit.

/// A small, fast, seedable PRNG (xoshiro256\*\*).
///
/// Not cryptographically secure — it drives simulations and weight
/// initialization, nothing adversarial.
#[derive(Clone, Debug)]
pub struct Rng {
    state: [u64; 4],
}

/// SplitMix64 step, used only to expand seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Build a generator from a u64 seed. Distinct seeds give independent
    /// streams; the same seed always gives the same stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Rng { state }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`, built from the top 24 bits.
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)` (returns `lo` when `lo == hi`).
    ///
    /// `lo + (hi - lo) * u` with `u < 1` can still round up to exactly
    /// `hi` — e.g. when `hi == lo.next_up()`, every `u ≥ 0.5` lands on
    /// `hi` under round-to-nearest — so the result is clamped to the
    /// largest float below `hi` to keep the documented half-open
    /// contract. Trace generators divide by `hi - x` in places, so an
    /// exact `hi` here would surface as a non-finite bandwidth sample.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi);
        let x = lo + (hi - lo) * self.next_f32();
        if x >= hi {
            // max() keeps the degenerate lo == hi case at lo.
            hi.next_down().max(lo)
        } else {
            x
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }

    /// Standard normal sample via Box–Muller (fresh pair each call; the
    /// second value is discarded to keep the state trajectory simple).
    pub(crate) fn next_standard_normal(&mut self) -> f32 {
        // Avoid ln(0) by flipping u1 into (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos()) as f32
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.next_standard_normal()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = Rng::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn unit_interval_bounds_and_mean() {
        let mut r = Rng::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
            sum += x as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    /// Regression: `range_f32` documents `[lo, hi)`, but the naive
    /// `lo + (hi - lo) * u` rounds up to exactly `hi` for adversarial
    /// magnitude pairs. With `hi == lo.next_up()` every `u ≥ 0.5` used to
    /// land on `hi`; with a huge span the final multiply-add rounds onto
    /// `hi` as well.
    #[test]
    fn range_f32_excludes_hi_for_adversarial_pairs() {
        let adversarial: [(f32, f32); 6] = [
            (1.0e31, 1.0e31f32.next_up()),
            (-1.0e31f32.next_up(), -1.0e31),
            (16_777_216.0, 16_777_218.0), // 2^24: hi - lo spans 1 ULP
            (f32::MIN, f32::MAX),
            (0.0, f32::MIN_POSITIVE),
            (-1.0, 1.0),
        ];
        for (lo, hi) in adversarial {
            let mut r = Rng::seed_from_u64(17);
            for i in 0..10_000 {
                let x = r.range_f32(lo, hi);
                assert!(x >= lo, "draw {i}: {x} < lo {lo}");
                assert!(x < hi, "draw {i}: {x} >= hi {hi} (lo {lo})");
                assert!(x.is_finite(), "draw {i}: non-finite {x}");
            }
        }
    }

    #[test]
    fn range_f32_degenerate_interval_returns_lo() {
        let mut r = Rng::seed_from_u64(19);
        for _ in 0..100 {
            assert_eq!(r.range_f32(3.5, 3.5), 3.5);
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from_u64(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(13);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }
}
