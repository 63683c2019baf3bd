//! Order statistics and naming rules shared by the measured and traced
//! runs: the percentile rule, median and quartiles, the metric-name
//! grammar, and video-aligned round counts.

use osa_abr::video::CHUNK_COUNT;

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is one or two stray rounds.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `p`-quantile (`0 < p < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} out of (0, 1)");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (any order; mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here reads
/// the same as one computed from the printed values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => panic!("quartiles of nothing"),
        1 => (v[0], v[0]),
        _ => {
            // Python's arithmetic, term for term: clamp the rank, not
            // the weight, so tiny samples extrapolate exactly as it does.
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Metric names: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// `rounds` rounded up to whole videos. Every auto-reset session rolls
/// over on the same round, so per-round cost is periodic in the video
/// length and only whole videos compare across runs.
pub fn whole_videos(rounds: usize) -> usize {
    rounds.div_ceil(CHUNK_COUNT).max(1) * CHUNK_COUNT
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90, with exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // p50 of 21 samples: rank 11, 10 beyond.
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1..4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(relative_spread(&ramp(10)), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "round_p50_ms",
            "nn.actor_fwd_us",
            "setup_s",
            "a-b.c_d",
            "0x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/s",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn round_counts_are_whole_videos() {
        assert_eq!(whole_videos(0), CHUNK_COUNT);
        assert_eq!(whole_videos(1), CHUNK_COUNT);
        assert_eq!(whole_videos(CHUNK_COUNT), CHUNK_COUNT);
        assert_eq!(whole_videos(CHUNK_COUNT + 1), 2 * CHUNK_COUNT);
        assert_eq!(whole_videos(16_800), 16_800);
    }
}
